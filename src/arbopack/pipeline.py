"""End-to-end solver, validators, and certificates.

``solve`` runs the full algorithm: build atoms, and orient each atom's
edges to cover its demands and pack it at once, with the arcs into the
atom before its edges, each in declaration order: by first fit when it
packs the atom from its starting directions, and otherwise on the cut
oracle that oriented it.  When some atom cannot be oriented, the atom-level
subpartition certificate is lifted to a bi-set family over the original
graph, which any third party can re-check against the input alone.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomDecomposition,
    BiSet,
    _atom_slices,
    biset_in_degree,
    compute_atoms,
    lift_biset,
    p_value,
)
from .errors import InvariantError
from .graph_core import (
    CheckResult,
    MixedGraph,
    OK_RESULT,
    Orientation,
    Subpartition,
    _check_arborescence,
    crossing_edge_count,
    lexicographic_orientation,
    mixed_reachable_set,
)
from .orientation import SubpartitionCertificate, _orient_and_pack


class EdgeUse(NamedTuple):
    """An undirected edge consumed by a tree, with its chosen direction."""

    id: str
    tail: str
    head: str


class MixedTree(NamedTuple):
    """One mixed arborescence: native arcs plus directed edge usages."""

    root_index: int
    root: str
    arcs: tuple[str, ...]
    edges: tuple[EdgeUse, ...]


class MixedPacking(NamedTuple):
    trees: tuple[MixedTree, ...]


class BiSetFamilyCertificate(NamedTuple):
    """Infeasibility witness over the original graph.

    The inner sets subpartition one atom, each outer set avoids the rest
    of that atom, and the crossing edges plus entering arcs fall short of
    the summed demands: ``lhs < rhs``.
    """

    atom_index: int
    bisets: tuple[BiSet, ...]
    lhs: int
    rhs: int

    @property
    def deficit(self) -> int:
        return self.rhs - self.lhs


def _certificate_sides(
    g: MixedGraph,
    roots: Sequence[str],
    dec: AtomDecomposition,
    bisets: Sequence[BiSet],
) -> tuple[int, int]:
    inners = Subpartition(tuple(b.inner for b in bisets))
    lhs = crossing_edge_count(g, inners) + sum(biset_in_degree(g, b) for b in bisets)
    rhs = sum(p_value(dec, roots, b) for b in bisets)
    return lhs, rhs


def certificate_from_subpartition(
    sc: SubpartitionCertificate,
    dec: AtomDecomposition,
    g: MixedGraph,
    roots: Sequence[str],
) -> BiSetFamilyCertificate:
    """Lift an atom-level certificate to a bi-set family over ``g``.

    Each part maps to its lifted bi-set (:func:`lift_biset`, which reads
    each terminal's arc off ``g``); both sides of the inequality are
    recomputed over the original graph.  The lift can only tighten the
    left side, so a positive atom-level deficit must survive.  A bad atom
    index, a part that does not lift and overlapping parts raise ``ValueError``.
    """
    if sc.deficit < 1:
        raise ValueError(f"subpartition deficit {sc.deficit} is not positive")
    if not 0 <= sc.atom_index < len(dec.atoms):
        raise ValueError(f"atom index {sc.atom_index} out of range")
    gamma = dec.atoms[sc.atom_index]
    bisets = tuple(lift_biset(g, gamma, part) for part in sc.parts)
    lhs, rhs = _certificate_sides(g, roots, dec, bisets)
    if lhs >= rhs:
        raise InvariantError("lifted certificate lost its deficit")
    return BiSetFamilyCertificate(
        atom_index=sc.atom_index, bisets=bisets, lhs=lhs, rhs=rhs
    )


def verify_certificate(
    g: MixedGraph, roots: Sequence[str], cert: BiSetFamilyCertificate
) -> CheckResult:
    """Re-check a certificate against the input graph alone.

    Recomputes the decomposition, the family shape, and both sides of
    the inequality from scratch; accepts only a strict violation.
    """
    try:
        for b in cert.bisets:
            g.require_vertices(b.outer)
    except ValueError as exc:
        return CheckResult(False, str(exc))
    if not cert.bisets:
        return CheckResult(False, "certificate has no bi-sets")
    dec = compute_atoms(g, roots)
    seen: set[str] = set()
    for b in cert.bisets:
        if not b.inner:
            return CheckResult(False, "a bi-set has an empty inner set")
        if b.inner & seen:
            return CheckResult(False, "inner sets overlap: not a subpartition")
        seen |= b.inner
    atoms_hit = {dec.atom_of.get(v) for b in cert.bisets for v in b.inner}
    if None in atoms_hit:
        return CheckResult(False, "an inner set leaves every atom")
    if len(atoms_hit) != 1:
        return CheckResult(False, "inner sets are not a subpartition of one atom")
    (j,) = atoms_hit
    if j != cert.atom_index:
        return CheckResult(
            False, f"certificate names atom {cert.atom_index} but covers atom {j}"
        )
    gamma = dec.atoms[j]
    for b in cert.bisets:
        if b.wall() & gamma:
            return CheckResult(False, "an outer set meets the atom outside its inner set")
    lhs, rhs = _certificate_sides(g, roots, dec, cert.bisets)
    if (lhs, rhs) != (cert.lhs, cert.rhs):
        return CheckResult(
            False,
            f"recorded sides ({cert.lhs}, {cert.rhs}) do not match "
            f"recomputation ({lhs}, {rhs})",
        )
    if lhs >= rhs:
        return CheckResult(False, f"inequality not violated (lhs={lhs} >= rhs={rhs})")
    return OK_RESULT


# ---------------------------------------------------------------------------
# the solver


def _orient_atoms(g: MixedGraph, roots: tuple[str, ...], bounds: Bounds):
    """Each atom's slice, covering orientation and owner list, in atom order.

    Each atom is oriented and packed in one call
    (``orientation._orient_and_pack``); its owner list names the tree
    that takes each of its arcs, then each of its edges.  Stops at the
    lowest-index atom that cannot be oriented, and returns its lifted
    certificate instead.
    """
    dec = compute_atoms(g, roots)
    slices = _atom_slices(g, dec)
    oriented = []
    for j, sl in enumerate(slices):
        outcome, owner = _orient_and_pack(g, dec, j, roots, slices, bounds)
        if isinstance(outcome, SubpartitionCertificate):
            return certificate_from_subpartition(outcome, dec, g, roots)
        oriented.append((sl, outcome, owner))
    return oriented


def covering_orientation(
    g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
):
    """Orient all edges so every atom's demands are covered.

    Returns an :class:`Orientation` over the whole edge set, or the
    lifted certificate of the lowest-index atom that cannot be oriented.
    Edges incident to no atom get the lexicographic direction; they can
    never matter.  The graph is sliced by atom once, and each atom is
    oriented from its own vertices, edges and arcs as ``orient_atom``
    does: an atom that first fit packs from the starting directions
    keeps them, and only the others get a cut oracle.  Each atom is
    packed too, as in :func:`solve`, so an orientation its trees cannot
    use raises :class:`InvariantError`; the trees are dropped.
    """
    oriented = _orient_atoms(g, tuple(roots), bounds)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    direction: dict[str, tuple[str, str]] = {}
    for _sl, outcome, _owner in oriented:
        direction.update(outcome.direction)
    leftover = [e.id for e in g.edges if e.id not in direction]
    direction.update(lexicographic_orientation(g, leftover).direction)
    return Orientation(direction)


def solve(g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS):
    """Solve the packing problem on a mixed graph.

    Returns a :class:`MixedPacking` or, when no packing exists, a
    :class:`BiSetFamilyCertificate` for the lowest-index atom that cannot
    be oriented.  Atoms are oriented in order, and each is packed as soon
    as it is oriented, on the cut oracle that oriented it when first fit
    could not pack it from its starting directions (see
    ``orientation._orient_and_pack``).  The trees are then assembled,
    each with its arcs and edges in declaration order.
    """
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, bounds)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    arc_tree: dict[str, int] = {}
    edge_use: dict[str, tuple[int, EdgeUse]] = {}
    for sl, outcome, owner in oriented:
        arcs = [a for a in sl.arcs if not a.is_loop()]
        edges = [e for e in sl.edges if not e.is_loop()]
        arc_tree.update((a.id, i) for a, i in zip(arcs, owner) if i is not None)
        for e, i in zip(edges, owner[len(arcs) :]):
            if i is not None:
                edge_use[e.id] = i, EdgeUse(e.id, *outcome.direction[e.id])
    tree_arcs: list[list[str]] = [[] for _ in roots]
    tree_edges: list[list[EdgeUse]] = [[] for _ in roots]
    for a in g.arcs:
        if a.id in arc_tree:
            tree_arcs[arc_tree[a.id]].append(a.id)
    for e in g.edges:
        if e.id in edge_use:
            tree_edges[edge_use[e.id][0]].append(edge_use[e.id][1])
    return MixedPacking(tuple(
        MixedTree(i, r, tuple(tree_arcs[i]), tuple(tree_edges[i])) for i, r in enumerate(roots)
    ))


def validate_mixed_packing(
    g: MixedGraph, roots: Sequence[str], mp: MixedPacking
) -> CheckResult:
    """Check disjointness, per-tree arborescence shape, and spanning sets."""
    if len(mp.trees) != len(roots):
        return CheckResult(False, f"expected {len(roots)} trees, got {len(mp.trees)}")
    arc_by_id, edge_by_id = g.arc_by_id, g.edge_by_id
    used_arcs: set[str] = set()
    used_edges: set[str] = set()
    # the records are unpacked: a tuple's items read faster than its fields
    for _root_index, _root, arcs, edges in mp.trees:
        for aid in arcs:
            if aid not in arc_by_id:
                return CheckResult(False, f"unknown arc {aid!r}")
            if aid in used_arcs:
                return CheckResult(False, f"arc {aid} used twice")
            used_arcs.add(aid)
        for eid, tail, head in edges:
            e = edge_by_id.get(eid)
            if e is None:
                return CheckResult(False, f"unknown edge {eid!r}")
            _eid, u, v = e
            if (tail, head) != (u, v) and (tail, head) != (v, u):
                return CheckResult(False, f"edge {eid} used with endpoints not its own")
            if eid in used_edges:
                return CheckResult(False, f"edge {eid} used twice")
            used_edges.add(eid)
    reach: dict[str, frozenset[str]] = {}  # searched once per distinct root
    for i, (root_index, root, arcs, edges) in enumerate(mp.trees):
        if root_index != i:
            return CheckResult(False, f"tree {i + 1} carries root index {root_index + 1}")
        r = roots[i]
        if root != r:
            return CheckResult(False, f"tree {i + 1} names root {root!r}, not {r!r}")
        hops = [arc_by_id[aid][1:] for aid in arcs]
        hops += [(tail, head) for _eid, tail, head in edges]
        if r not in reach:
            reach[r] = mixed_reachable_set(g, r)
        verdict = _check_arborescence(hops, r, reach[r], i)
        if not verdict:
            return verdict
    return OK_RESULT
