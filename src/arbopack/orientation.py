"""Orient an atom's edges so the resulting digraph covers its demands.

An orientation covers an atom when every vertex set Y of it, with any
set T of the arcs that enter the atom at Y, has in-degree at least the
number of trees forced to enter Y + T.  :func:`orient_atom` orients one
atom from the integers its slice holds (``decomposition._atom_slices``),
and packs it as soon as it is oriented.  First fit
(``packing._first_fit``) gets the atom's arcs, and its edges either
way: a tree takes an edge from the end it has reached to the end it has
not, so when first fit packs the atom, the ways its trees took the
edges are the answer, and an edge no tree takes keeps its declared
direction.  Otherwise a vertex with fewer links into it than trees that
must enter it refutes the atom by a count, before any oracle is built
(``packing._short_vertex``).  Failing that, the edges start pointing
away from the atom's roots, and the fast path checks the condition on
the atom's cut oracle
(``packing._StepFlow``), where each edge is a pair of network edges
whose capacities swap when it flips, and which is the one record of
which way each edge points.  A path of oriented edges is reversed out
of each short set found, when one flow shows that no set it takes an
edge from falls short, and the atom is then packed on the oracle.  An atom with no edge is packed by
the checked greedy or refuted by its first failing check
(``packing._pack``).  No auxiliary graph and no table is built on
either path, and no oracle outlives its atom.

By Frank's orientation theorem, no orientation covers an atom exactly
when some subpartition of it, its parts holding entering arcs as
terminals, asks for more than its edges and fixed arcs can deliver.
The fast path refutes an atom when it finds a set X short even with
every edge counted both ways.  X is then a one-part subpartition of
positive deficit, and it is the atom's certificate, naming each entering
arc it holds ``t:<arc-id>`` from the atom's slice.  The counts are such
subpartitions too.  A vertex short of links is one part, and an atom
the fast path stalls on whose trees need more steps than it has links
is refuted by the singletons of the vertices they must enter
(:func:`_short_of_links`).  Only a stall with links enough goes to the
exact fallback, ``arbopack.exhaustive``, which this module imports only
then: it reads the same slice, each
entering arc's tail bit standing for its terminal, and returns the
subpartition of maximum deficit or a covering orientation.  Only its
table is bounded by ``Bounds.max_enum_vertices``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import AtomDecomposition, _atom_slices, _check_atom, _check_atom_index
from .errors import InvariantError
from .graph_core import RESERVED_TERMINAL_PREFIX, MixedGraph, Orientation
from .packing import (
    _either_way, _first_fit, _grow, _pack, _short_vertex, _steps, _StepFlow, _taken_ends
)


class SubpartitionCertificate(NamedTuple):
    """Witness that no orientation can cover an atom's demands.

    ``parts`` are disjoint family members of the auxiliary vertex set
    (atom vertices and ``t:<arc-id>`` terminals); their summed
    requirement exceeds the crossing-edge supply by ``deficit``.  An atom
    with a vertex short of links gets one part, that vertex; one the fast
    path refutes gets one part, the set it found short.  One it stalls on
    gets the singletons of the vertices its trees must enter when they
    need more steps than it has links, and the maximum-deficit
    subpartition otherwise.
    """

    atom_index: int
    parts: tuple[frozenset[str], ...]
    deficit: int


def orient_atom(
    g: MixedGraph,
    dec: AtomDecomposition,
    j: int,
    roots: Sequence[str],
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Orientation | SubpartitionCertificate:
    """Atom ``j``'s covering orientation or certificate.

    An atom that first fit packs keeps the directions its trees took
    the edges in.  Otherwise a vertex short of links refutes it, or the
    fast path (:func:`_orient_by_cuts`) orients the atom from its slice
    of ``g``.  An atom it refutes gets the one-part certificate it found;
    an atom it stalls on is refuted by a count when its trees need more
    steps than it has links (:func:`_short_of_links`), and only
    otherwise goes to ``exhaustive.orient_covering``, on the same slice.
    An atom with no edge to orient skips the fast path.  The atom is packed as ``solve``
    packs it, and the trees are dropped (:func:`_orient_and_pack`).  Raises
    ``ValueError`` for ``j`` outside ``0..len(dec.atoms) - 1``; the message
    counts atoms from 1, as the CLI does.
    """
    _check_atom_index(dec, j)
    slices = _atom_slices(g, dec)
    outcome = _orient_and_pack(g, dec, j, roots, slices, bounds)[0]
    return _orientation(slices[j], outcome) if isinstance(outcome, list) else outcome


def _orient_and_pack(g, dec, j, roots, slices, bounds):
    """The local (tail, head) ends of the atom's non-loop edges, and the tree owning each candidate.

    A refuted atom gives its certificate and None.  The candidates are
    the atom's non-loop arcs, then its non-loop edges, in slice order.
    An atom with no edge is packed or refuted by ``packing._pack``: by a
    vertex short of links, as below, or else, since with no edge the
    check counted both ways is the same flow, by the set
    :func:`_orient_by_cuts` would give.  Any other atom
    goes to first fit with its edges unturned, before any oracle is
    built: when it packs, each edge's ends are the way its tree took it,
    or as declared when no tree took it.  Otherwise a vertex short of
    links (``packing._short_vertex``) refutes the atom with no oracle.
    Failing that, the atom is oriented on its cut oracle, which starts
    from :func:`_start_ends`.  Where the fast path stalls, an atom whose
    trees need more steps than it has links is refuted by a count
    (:func:`_short_of_links`); any other stall turns the oracle to the
    fallback's directions (the only time ``arbopack.exhaustive`` is
    imported; it reads the atom's slice from ``slices``).  An oriented
    atom is then packed on its oracle: by first fit again, now on the
    oracle's directions, and by the checked greedy when that gets stuck.
    No feasible atom reaches a count's certificate.
    """
    sl = slices[j]
    _check_atom(sl)
    trees, start = _footholds(sl, dec, j, roots)
    cands, n = sl.cands, len(sl.vertices)
    gmask = (1 << n) - 1
    if not sl.pairs:
        owner = _pack(n, trees, start, cands)
        if isinstance(owner, tuple):
            return _refuted(sl, j, *owner), None
        return [], owner
    fit = cands + _either_way(sl.pairs)
    owner = _first_fit(fit, trees, start, gmask)
    if owner is not None:
        return _taken_ends(fit[len(cands) :], sl.pairs), owner
    short = _short_vertex(n, trees, start, cands, sl.pairs)
    if short is not None:
        return _refuted(sl, j, *short), None
    flow = _StepFlow(n, trees, cands, gmask, _start_ends(sl, start))
    outcome = _orient_by_cuts(sl, j, flow, start)
    if outcome is None:
        outcome = _short_of_links(sl, j, trees, start)
    if outcome is None:
        from .exhaustive import CoverRequirement, orient_covering

        outcome = orient_covering(CoverRequirement(g, dec, j, roots, bounds, slices))
        if isinstance(outcome, Orientation):
            for k, e in enumerate(e for e in sl.edges if not e.is_loop()):
                if outcome.direction[e.id][0] != sl.vertices[flow.ends[k][0]]:
                    flow.flip(k)
            outcome = flow.ends
    if isinstance(outcome, SubpartitionCertificate):
        return outcome, None
    owner = _first_fit(flow.cands, trees, start, gmask)
    if owner is None:
        owner = _grow(flow.cands, trees, dict(start), gmask, flow)
    if isinstance(owner, int):
        raise InvariantError(f"tree {owner + 1} is stuck on an atom its orientation covers")
    return outcome, owner


def _orient_by_cuts(sl, j: int, flow, start) -> list | SubpartitionCertificate | None:
    """A covering orientation's ends or a certificate found with the cut oracle alone, or None.

    The vertices w are checked in order, each by one flow of ``flow``,
    the atom's oracle with its edges as they point now, from the trees'
    footholds ``start``.  A short set X holding w that stays short with
    every edge counted both ways refutes the atom, and X is returned as
    its certificate (:func:`_refuted`).  Otherwise a path of oriented
    edges from some s in X (w first) to a vertex t outside X is
    reversed.  X gains an edge, and so does every set with s but not t.
    Every set with t but not s loses one, so t is taken only when one
    flow with s tied to the sink shows that each of those sets has slack
    at least 1.  Sets that passed keep passing, so the scan resumes at w.
    Returns None when no such path leaves X.
    """
    n = len(sl.vertices)
    for w in range(n):
        x = flow.cut(1 << w, start)
        if x is not None:
            short = flow.cut(1 << w, start, both=True)
            if short is not None:
                return _refuted(sl, j, short, flow.shortfall)
        while x is not None:
            if not _reverse_a_path(flow, x & ((1 << n) - 1), w, start):
                return None
            x = flow.cut(1 << w, start)
    return flow.ends


def _short_of_links(sl, j: int, trees, start) -> SubpartitionCertificate | None:
    """The singletons of every vertex some tree must enter, when the trees need more steps than the atom has links.

    Each step of a packing takes its own link into the atom: a non-loop
    atom arc or edge, or an entering arc.  The singletons ask for every
    step, and are fed only by the edges that touch them and the arcs
    into them, so their deficit is at least the steps less the links.
    None when the links suffice.
    """
    gmask = (1 << len(sl.vertices)) - 1
    need = _steps(trees, start, gmask)
    if need <= len(sl.cands) + len(sl.pairs):
        return None
    entered = 0
    for i in trees:
        entered |= gmask & ~start[i]
    fed = sum(1 for u, v in sl.pairs if (entered >> u | entered >> v) & 1)
    fed += sum(1 for _tb, hb, _hit in sl.cands if hb & entered)
    parts = tuple(frozenset((v,)) for k, v in enumerate(sl.vertices) if entered >> k & 1)
    return SubpartitionCertificate(j, parts, need - fed)


def _orientation(sl, ends) -> Orientation:
    """The slice's edges turned as ``ends`` says, its loops as stored."""
    direction = {e.id: (e.u, e.v) for e in sl.edges}
    for e, (t, h) in zip((e for e in sl.edges if not e.is_loop()), ends):
        direction[e.id] = sl.vertices[t], sl.vertices[h]
    return Orientation(direction)


def _refuted(sl, j: int, xmask: int, deficit: int) -> SubpartitionCertificate:
    """The one-part certificate of a set the oracle found short both ways.

    ``xmask`` is the oracle's Y plus the tail bits of T, and ``deficit``
    its shortfall.  Counted both ways, the edges supply exactly the
    boundary of Y, so the shortfall is the part's requirement less its
    crossing edges.
    """
    return SubpartitionCertificate(j, (_part(sl, xmask),), deficit)


def _part(sl, xmask: int) -> frozenset[str]:
    """A slice mask's names: its atom vertices, and ``t:<arc-id>`` per entering arc's tail bit."""
    n = len(sl.vertices)
    part = {v for k, v in enumerate(sl.vertices) if xmask >> k & 1}
    cands = (a for a in sl.arcs if not a.is_loop())
    part.update(
        f"{RESERVED_TERMINAL_PREFIX}{a.id}" for k, a in enumerate(cands) if xmask >> n + k & 1
    )
    return frozenset(part)


def _footholds(sl, dec, j: int, roots: Sequence[str]) -> tuple[list[int], dict[int, int]]:
    """Atom ``j``'s trees, and each one's foothold: its root's bit in the slice ``sl``, else 0."""
    trees = sorted(dec.atom_roots[j])
    start = {}
    for i in trees:
        jr, k = sl.at.get(roots[i], (None, 0))
        start[i] = 1 << k if jr == j else 0
    return trees, start


def _start_ends(sl, start) -> list[tuple[int, int]]:
    """The (tail, head) vertex indices of each non-loop edge, in slice order, that the oracle starts from.

    Edges point away from the footholds ``start`` (from the heads of the
    atom's entering arcs when no root lies inside), by breadth-first
    distance over its edges and arcs.
    """
    n = len(sl.vertices)
    near = [[] for _ in range(n)]
    for u, v in sl.pairs:
        near[u].append(v)
        near[v].append(u)
    for tb, hb, _hit in sl.cands:
        if tb >> n == 0:
            near[tb.bit_length() - 1].append(hb.bit_length() - 1)
    # with no foothold, the heads of the entering arcs: tail bits n and up
    queue = [f.bit_length() - 1 for f in start.values() if f]
    queue = queue or [hb.bit_length() - 1 for tb, hb, _hit in sl.cands if tb >> n]
    dist = [n] * n
    for u in queue:
        dist[u] = 0
    for u in queue:
        for v in near[u]:
            if dist[v] == n:
                dist[v] = dist[u] + 1
                queue.append(v)
    return [(v, u) if dist[v] < dist[u] else (u, v) for u, v in sl.pairs]


def _reverse_a_path(flow, y: int, w: int, start) -> bool:
    """Reverse the first safe path of the oracle's edges out of the short set ``y``.

    Starts s run over ``y``, ``w`` first; ends t over the vertices
    outside ``y`` in breadth-first order from s.  Returns whether one
    was reversed.
    """
    ends = flow.ends
    incident: dict[int, list[int]] = {}
    for k, (u, v) in enumerate(ends):
        incident.setdefault(u, []).append(k)
        incident.setdefault(v, []).append(k)
    for s in [w] + [v for v in range(y.bit_length()) if y >> v & 1 and v != w]:
        parent = {s: -1}
        queue = [s]
        for u in queue:
            for k in incident.get(u, ()):
                tail, t = ends[k]
                if tail != u or t in parent:
                    continue
                parent[t] = k
                queue.append(t)
                if y >> t & 1 or flow.cut(1 << t, start, avoid=1 << s, extra=1) is not None:
                    continue
                while t != s:
                    k = parent[t]
                    t = ends[k][0]
                    flow.flip(k)
                return True
    return False
