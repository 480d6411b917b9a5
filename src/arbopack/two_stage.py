"""The two-stage route: orient every edge, then pack the digraph that gives.

:func:`covering_orientation` orients every atom on ``solve``'s per-atom
driver (``pipeline._orient_atoms``) and keeps only the directions;
:func:`apply_orientation` turns a mixed graph into the digraph of an
orientation; :func:`pack_reachability` packs a digraph (a mixed graph
with no edges) on the same driver, and :func:`pack_atom_branchings`
packs one atom of a digraph, read by the same atom encoder.  ``solve``
orients and packs each atom in one step and takes none of these, so
``import arbopack`` loads this module on first use of one of them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import AtomDecomposition, BiSet, _atom_slices
from .graph_core import Arc, MixedGraph, MixedPacking, Orientation, _reachable
from .orientation import _orientation
from .packing import _pack
from .pipeline import BiSetFamilyCertificate, _by_index, _orient_atoms, _packing_from_owners


def covering_orientation(
    g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
):
    """Orient all edges so every atom's demands are covered.

    Returns an :class:`Orientation` over the whole edge set, or the
    lifted certificate of the lowest-index atom that cannot be oriented.
    An edge incident to no atom runs from its end with the smaller
    vertex index; it can never matter.  The graph is sliced by atom
    once, and each atom is oriented from its own vertices, edges and
    arcs as ``orient_atom`` does: an atom that first fit packs keeps
    the directions its trees took the edges in, and only the others get
    a cut oracle.  Each atom is packed too, as in ``solve``, so an orientation
    its trees cannot use raises ``InvariantError``; the trees are
    dropped.
    """
    oriented = _orient_atoms(g, tuple(roots), bounds, _by_index)
    if isinstance(oriented, BiSetFamilyCertificate):
        return oriented
    direction: dict[str, tuple[str, str]] = {}
    for sl, ends, _owner in oriented:
        direction.update(_orientation(sl, ends).direction)
    idx = g.vertex_index
    for e in g.edges:
        if e.id not in direction:
            direction[e.id] = (e.u, e.v) if idx[e.u] <= idx[e.v] else (e.v, e.u)
    return Orientation(direction)


def apply_orientation(g: MixedGraph, o: Orientation) -> MixedGraph:
    """The digraph of ``g`` with every edge turned as ``o`` says.

    It has no edges: ``g``'s arcs, then one arc per edge, with the edge's
    id.  An edge id that is also an arc id raises ``ValueError``.
    """
    edge_ids = frozenset(e.id for e in g.edges)
    if o.edge_ids() != edge_ids:
        missing = sorted(edge_ids - o.edge_ids())
        extra = sorted(o.edge_ids() - edge_ids)
        raise ValueError(
            f"orientation domain mismatch (missing {missing}, extra {extra})"
        )
    arcs = list(g.arcs)
    for e in g.edges:
        t, h = o.direction[e.id]
        if frozenset((t, h)) != e.ends:
            raise ValueError(
                f"orientation of edge {e.id!r} does not match its endpoints"
            )
        arcs.append(Arc(e.id, t, h))
    return MixedGraph(g.vertices, (), arcs)


def pack_reachability(g: MixedGraph, roots: Sequence[str]) -> MixedPacking | frozenset[str]:
    """A packing of reachability arborescences in the digraph ``g``, or a violated vertex set.

    A digraph is a mixed graph with no edges, so this is ``solve``'s
    driver with the atoms in topological order of their root-set lattice
    (by root count, then index).  The first atom that cannot be packed
    gives a one-part certificate, and its bi-set is lifted to a violated
    vertex set of ``g`` (:func:`_lift_witness`).  Raises ``ValueError``
    when ``g`` has edges, and, as ``solve`` does, when a vertex is
    named ``t:<arc-id>`` after an arc that enters an atom.
    """
    _require_digraph(g)
    roots = tuple(roots)
    oriented = _orient_atoms(g, roots, DEFAULT_BOUNDS, _by_root_count)
    if isinstance(oriented, BiSetFamilyCertificate):
        (b,) = oriented.bisets
        return _lift_witness(g, b)
    return _packing_from_owners(g, roots, oriented)


def _by_root_count(dec: AtomDecomposition) -> list[int]:
    return sorted(range(len(dec.atoms)), key=lambda j: (len(dec.atom_roots[j]), j))


def _require_digraph(g: MixedGraph) -> None:
    """Raise ``ValueError`` naming the first edge of ``g``, if it has one."""
    if g.edges:
        raise ValueError(f"expected a digraph, but {g.edges[0].id!r} is an edge")


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


def pack_atom_branchings(
    g: MixedGraph, gamma: frozenset[str], demands: Mapping[int, frozenset[str]]
) -> dict[int, tuple[Arc, ...]] | frozenset[str]:
    """Arc-disjoint branchings covering ``gamma``, one per demanded tree, in the digraph ``g``.

    ``demands[i]`` is what tree i already spans: its root inside
    ``gamma``, or vertices outside it.  An arc of ``g`` entering
    ``gamma`` can serve tree i when its tail is in ``demands[i]``, and
    serves at most one tree; arcs whose head is outside ``gamma`` are
    ignored.  When no such packing exists, returns a deficient vertex set
    of ``g`` instead: an atom part Y plus the tails of a set T of
    entering arcs, where the trees with no foothold in Y and no arc in T
    outnumber the arcs entering the set.  Raises ``ValueError`` when
    ``g`` has edges, for a demand key that is not an ``int`` of at least
    0, or for a name in ``gamma`` or a demand that is no vertex of ``g``.

    ``gamma`` is sliced as class 0 of ``decomposition._atom_slices``, each
    vertex outside it that a demand names a class spanned by the trees
    whose demand holds it.  The answer is decoded by position, not by
    terminal name, so a vertex may be named ``t:<arc-id>``.
    """
    _require_digraph(g)
    if bad := [i for i in demands if type(i) is not int or i < 0]:
        raise ValueError(f"demand key {bad[0]!r} is not a tree index (an int of at least 0)")
    gamma = g.require_vertices(gamma)
    trees = sorted(demands)
    entry = {i: g.require_vertices(demands[i]) for i in trees}
    held = {
        v: frozenset(i for i in trees if v in entry[i]) for i in trees for v in entry[i] - gamma
    }
    atoms = (gamma, *(frozenset((v,)) for v in held))
    sl = _atom_slices(g, AtomDecomposition((), atoms, (frozenset(trees), *held.values())))[0]
    n = len(sl.vertices)
    start = {i: sum(1 << sl.at[v][1] for v in entry[i] & gamma) for i in trees}
    owner = _pack(n, trees, start, sl.cands)
    if isinstance(owner, tuple):
        # bit n + k of the set is the tail of candidate k, an entering arc
        xmask = owner[0]
        xs = [v for k, v in enumerate(sl.vertices) if xmask >> k & 1]
        xs += (g.arcs[pos].tail for k, pos in enumerate(sl.arc_pos) if xmask >> n + k & 1)
        return frozenset(xs)
    return {i: tuple(g.arcs[pos] for pos, o in zip(sl.arc_pos, owner) if o == i) for i in trees}
