"""End-to-end solver, validators, and certificates.

``solve`` runs the full algorithm: build atoms, orient each atom's edges
to cover its demands, and pack each atom, with the arcs into the atom
before its edges, each in declaration order: by first fit when it packs
the atom from its starting directions, and otherwise on the cut oracle
that oriented it.  When some atom cannot be oriented, the atom-level
subpartition certificate is lifted to a bi-set family over the original
graph, which any third party can re-check against the input alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomDecomposition,
    AuxiliaryGraph,
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
    arcs_view,
    crossing_edge_count,
    lexicographic_orientation,
    mixed_reachable_set,
)
from .orientation import SubpartitionCertificate, _orient_and_pack
from .packing import _first_fit, _grow


@dataclass(frozen=True)
class EdgeUse:
    """An undirected edge consumed by a tree, with its chosen direction."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class MixedTree:
    """One mixed arborescence: native arcs plus directed edge usages."""

    root_index: int
    root: str
    arcs: tuple[str, ...]
    edges: tuple[EdgeUse, ...]


@dataclass(frozen=True)
class MixedPacking:
    trees: tuple[MixedTree, ...]


@dataclass(frozen=True)
class BiSetFamilyCertificate:
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
    native = arcs_view(g)
    lhs = crossing_edge_count(g, inners) + sum(
        biset_in_degree(native, b) for b in bisets
    )
    rhs = sum(p_value(dec, roots, b) for b in bisets)
    return lhs, rhs


def certificate_from_subpartition(
    sc: SubpartitionCertificate,
    aux: AuxiliaryGraph,
    dec: AtomDecomposition,
    g: MixedGraph,
    roots: Sequence[str],
) -> BiSetFamilyCertificate:
    """Lift an atom-level certificate to a bi-set family over ``g``.

    Each part maps to its lifted bi-set; both sides of the inequality are
    recomputed over the original graph.  The lift can only tighten the
    left side, so a positive atom-level deficit must survive.
    """
    if sc.deficit < 1:
        raise ValueError(f"subpartition deficit {sc.deficit} is not positive")
    if sc.atom_index != aux.atom_index:
        raise ValueError("certificate and auxiliary graph refer to different atoms")
    bisets = tuple(lift_biset(aux, part) for part in sc.parts)
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
    """Each atom's slice, covering orientation, owner list and oracle, in atom order.

    The owner list is first fit's when it packed the atom, and then the
    oracle is None; otherwise the owner list is None (see
    ``orientation._orient_and_pack``).  Stops at the lowest-index atom
    that cannot be oriented, and returns its lifted certificate instead.
    """
    dec = compute_atoms(g, roots)
    slices = _atom_slices(g, dec)
    oriented = []
    for j, sl in enumerate(slices):
        outcome, aux, owner, oracle = _orient_and_pack(g, dec, j, roots, slices, bounds)
        if isinstance(outcome, SubpartitionCertificate):
            return certificate_from_subpartition(outcome, aux, dec, g, roots)
        oriented.append((sl, outcome, owner, oracle))
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
    keeps them, and only the others get a cut oracle.
    """
    oriented = _orient_atoms(g, tuple(roots), bounds)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    direction: dict[str, tuple[str, str]] = {}
    for _sl, outcome, _owner, _oracle in oriented:
        direction.update(outcome.direction)
    leftover = [e.id for e in g.edges if e.id not in direction]
    direction.update(lexicographic_orientation(g, leftover).direction)
    return Orientation(direction)


def solve(g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS):
    """Solve the packing problem on a mixed graph.

    Returns a :class:`MixedPacking` or, when no packing exists, a
    :class:`BiSetFamilyCertificate` for the lowest-index atom that cannot
    be oriented.  Atoms are oriented in order, and an atom that first fit
    packs from its starting directions is packed then.  Every other atom
    is packed once all are oriented: by first fit again on its oracle's
    turned candidates, and by the greedy checked on that oracle when
    first fit gets stuck.  The trees are the checked greedy's either way.
    """
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, bounds)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    arc_tree: dict[str, int] = {}
    edge_use: dict[str, tuple[int, EdgeUse]] = {}
    for sl, outcome, owner, oracle in oriented:
        if owner is None:
            flow, start, _ends = oracle
            gmask = (1 << len(sl.vertices)) - 1
            owner = _first_fit(flow.cands, flow.trees, start, gmask)
            if owner is None:
                owner = _grow(flow.cands, flow.trees, dict(start), gmask, flow)
            if isinstance(owner, int):
                raise InvariantError(
                    f"tree {owner + 1} is stuck on an atom its orientation covers"
                )
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
    used_arcs: set[str] = set()
    used_edges: set[str] = set()
    for tree in mp.trees:
        for aid in tree.arcs:
            if aid not in g.arc_by_id:
                return CheckResult(False, f"unknown arc {aid!r}")
            if aid in used_arcs:
                return CheckResult(False, f"arc {aid} used twice")
            used_arcs.add(aid)
        for use in tree.edges:
            e = g.edge_by_id.get(use.id)
            if e is None:
                return CheckResult(False, f"unknown edge {use.id!r}")
            if frozenset((use.tail, use.head)) != e.ends:
                return CheckResult(
                    False, f"edge {use.id} used with endpoints not its own"
                )
            if use.id in used_edges:
                return CheckResult(False, f"edge {use.id} used twice")
            used_edges.add(use.id)
    reach: dict[str, frozenset[str]] = {}  # searched once per distinct root
    for i, tree in enumerate(mp.trees):
        if tree.root_index != i:
            return CheckResult(
                False, f"tree {i + 1} carries root index {tree.root_index + 1}"
            )
        r = roots[i]
        if tree.root != r:
            return CheckResult(False, f"tree {i + 1} names root {tree.root!r}, not {r!r}")
        hops = [(g.arc_by_id[aid].tail, g.arc_by_id[aid].head) for aid in tree.arcs]
        hops += [(use.tail, use.head) for use in tree.edges]
        if r not in reach:
            reach[r] = mixed_reachable_set(g, r)
        verdict = _check_arborescence(hops, r, reach[r], i)
        if not verdict:
            return verdict
    return OK_RESULT
