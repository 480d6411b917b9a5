"""End-to-end solver, validators, and certificates.

``solve`` runs the full algorithm: build atoms, and orient each atom's
edges to cover its demands and pack it at once, with the arcs into the
atom before its edges, each in declaration order: by first fit when it
packs the atom from its starting directions, and otherwise on the cut
oracle that oriented it.  When some atom cannot be oriented, the atom-level
subpartition certificate is lifted to a bi-set family over the original
graph, which any third party can re-check against the input alone.
``pack_reachability`` runs the same per-atom driver on a digraph (a mixed
graph with no edges), and ``covering_orientation`` keeps its directions.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomDecomposition,
    BiSet,
    _atom_slices,
    compute_atoms,
    lift_biset,
    p_value,
)
from .errors import InvariantError
from .graph_core import (
    CheckResult,
    EdgeUse,
    MixedGraph,
    MixedPacking,
    MixedTree,
    OK_RESULT,
    Orientation,
    _check_arborescence,
    _reachable,
    _require_digraph,
    lexicographic_orientation,
    mixed_reachable_set,
)
from .orientation import SubpartitionCertificate, _orient_and_pack, _orientation


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
    """A bi-set family's two sides over ``g``, in one pass over its edges and one over its arcs.

    ``lhs`` counts each edge whose ends lie in two different inner sets,
    or in one inner set and in none (so never a loop), plus, per bi-set,
    each arc into its inner set from outside its outer set.  ``rhs`` is
    the summed demand (:func:`p_value`).  The vertices must be ``g``'s;
    overlapping inner sets raise ``ValueError``.
    """
    part_of = {v: i for i, b in enumerate(bisets) for v in b.inner}
    if len(part_of) < sum(len(b.inner) for b in bisets):
        raise ValueError("subpartition parts overlap")
    part = part_of.get
    # edges and arcs are unpacked: a tuple's items read faster than its fields
    lhs = sum(part(u, -1) != part(v, -1) for _id, u, v in g.edges)
    outers = [b.outer for b in bisets]
    lhs += sum(1 for _id, t, h in g.arcs if h in part_of and t not in outers[part_of[h]])
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


def _orient_atoms(g: MixedGraph, roots: tuple[str, ...], bounds: Bounds, order):
    """Each atom's slice, edge ends and owner list, in the order ``order(dec)`` lists the atoms.

    This is the one per-atom loop.  Each atom is oriented and packed in
    one call (``orientation._orient_and_pack``); its owner list names
    the tree that takes each of its arcs, then each of its edges.  Stops
    at the first atom in that order that cannot be oriented, and returns
    its lifted certificate instead.
    """
    dec = compute_atoms(g, roots)
    slices = _atom_slices(g, dec)
    oriented = []
    for j in order(dec):
        outcome, owner = _orient_and_pack(g, dec, j, roots, slices, bounds)
        if isinstance(outcome, SubpartitionCertificate):
            return certificate_from_subpartition(outcome, dec, g, roots)
        oriented.append((slices[j], outcome, owner))
    return oriented


def _by_index(dec: AtomDecomposition) -> range:
    return range(len(dec.atoms))


def _by_root_count(dec: AtomDecomposition) -> list[int]:
    return sorted(range(len(dec.atoms)), key=lambda j: (len(dec.atom_roots[j]), j))


def _packing_from_owners(g: MixedGraph, roots: tuple[str, ...], oriented) -> MixedPacking:
    """The packing whose trees take the arcs and edges the atoms' owner lists give them.

    Owners go into arrays indexed by position in ``g.arcs`` and
    ``g.edges``, so one scan of each gives every tree its arcs and edges
    in declaration order.
    """
    arc_owner: list[int | None] = [None] * len(g.arcs)
    edge_use: list[tuple[int, EdgeUse] | None] = [None] * len(g.edges)
    for sl, ends, owner in oriented:
        for pos, i in zip(sl.arc_pos, owner):
            arc_owner[pos] = i
        for pos, (t, h), i in zip(sl.edge_pos, ends, owner[len(sl.arc_pos) :]):
            if i is not None:
                edge_use[pos] = i, EdgeUse(g.edges[pos].id, sl.vertices[t], sl.vertices[h])
    tree_arcs: list[list[str]] = [[] for _ in roots]
    tree_edges: list[list[EdgeUse]] = [[] for _ in roots]
    for a, i in zip(g.arcs, arc_owner):
        if i is not None:
            tree_arcs[i].append(a.id)
    for use in edge_use:
        if use is not None:
            tree_edges[use[0]].append(use[1])
    return MixedPacking(tuple(
        MixedTree(i, r, tuple(tree_arcs[i]), tuple(tree_edges[i])) for i, r in enumerate(roots)
    ))


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
    oriented = _orient_atoms(g, tuple(roots), bounds, _by_index)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    direction: dict[str, tuple[str, str]] = {}
    for sl, ends, _owner in oriented:
        direction.update(_orientation(sl, ends).direction)
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
    ``orientation._orient_and_pack``).  The trees are filed in
    declaration order (:func:`_packing_from_owners`).
    """
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, bounds, _by_index)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    return _packing_from_owners(g, roots, oriented)


def pack_reachability(g: MixedGraph, roots: Sequence[str]) -> MixedPacking | frozenset[str]:
    """A packing of reachability arborescences in the digraph ``g``, or a violated vertex set.

    A digraph is a mixed graph with no edges, so this is :func:`solve`'s
    driver with the atoms in topological order of their root-set lattice
    (by root count, then index).  The first atom that cannot be packed
    gives a one-part certificate, and its bi-set is lifted to a violated
    vertex set of ``g`` (:func:`_lift_witness`).  Raises ``ValueError``
    when ``g`` has edges, and, as :func:`solve` does, when a vertex is
    named ``t:<arc-id>`` after an arc that enters an atom.
    """
    _require_digraph(g)
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, DEFAULT_BOUNDS, _by_root_count)
    if isinstance(oriented, BiSetFamilyCertificate):
        (b,) = oriented.bisets
        return _lift_witness(g, b)
    return _packing_from_owners(g, roots, oriented)


def _lift_witness(g: MixedGraph, b: BiSet) -> frozenset[str]:
    """A refuted digraph atom's bi-set as a violated set: the inner set and all that reaches the wall.

    The wall holds the tails of the entering arcs that the atom check
    found short.  A tree it counted spans an out-closed set that misses
    them, so it misses every added vertex and still needs an arc into
    the inner set.  An arc into an added vertex starts at one, so only
    the arcs the check counted enter the lifted set, too few of them.
    """
    pred: dict[str, list[str]] = {v: [] for v in g.vertices}
    for a in g.arcs:
        pred[a.head].append(a.tail)
    lifted = set(b.inner)
    for v in b.wall():
        lifted |= _reachable(pred, v)
    return frozenset(lifted)


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
