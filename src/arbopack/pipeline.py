"""End-to-end solver and its certificates.

``solve`` runs the full algorithm: build atoms, and orient each atom's
edges to cover its demands and pack it at once, least shared candidate
first (``packing._grow``): by first fit, which turns each edge the way
its tree reaches it, when that packs the atom, and otherwise on the cut
oracle that oriented it.  When some atom cannot be oriented, the atom-level
subpartition certificate is lifted to a bi-set family over the original
graph, which any third party can re-check against the input alone
(``arbopack.checks``).  ``two_stage`` runs the same per-atom driver for
``pack_reachability`` on a digraph (a mixed graph with no edges) and for
``covering_orientation``, which keeps the directions.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomDecomposition,
    BiSet,
    _atom_slices,
    _certificate_sides,
    _check_atom_index,
    compute_atoms,
    lift_biset,
)
from .errors import InvariantError
from .graph_core import EdgeUse, MixedGraph, MixedPacking, MixedTree
from .orientation import SubpartitionCertificate, _orient_and_pack


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
    _check_atom_index(dec, sc.atom_index)
    gamma = dec.atoms[sc.atom_index]
    bisets = tuple(lift_biset(g, gamma, part) for part in sc.parts)
    lhs, rhs = _certificate_sides(g, roots, dec, bisets)
    if lhs >= rhs:
        raise InvariantError("lifted certificate lost its deficit")
    return BiSetFamilyCertificate(
        atom_index=sc.atom_index, bisets=bisets, lhs=lhs, rhs=rhs
    )


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


def solve(g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS):
    """Solve the packing problem on a mixed graph.

    Returns a :class:`MixedPacking` or, when no packing exists, a
    :class:`BiSetFamilyCertificate` for the lowest-index atom that cannot
    be oriented.  Atoms are oriented in order, and each is packed as soon
    as it is oriented, on the cut oracle that oriented it when first fit,
    turning the edges as it goes, could not pack it (see
    ``orientation._orient_and_pack``).  The trees are filed in
    declaration order (:func:`_packing_from_owners`).
    """
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, bounds, _by_index)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    return _packing_from_owners(g, roots, oriented)
