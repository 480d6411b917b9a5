"""Orient an atom's edges so the resulting digraph covers its demands.

An orientation covers an atom when every vertex set Y of it, with any
set T of the arcs that enter the atom at Y, has in-degree at least the
number of trees forced to enter Y + T.  :func:`orient_atom` orients one
atom from the integers its slice holds (``decomposition._atom_slices``),
and packs it as soon as it is oriented.  Edges start pointing away from
the atom's roots, and first fit (``packing._first_fit``) gets the
atom's arcs and edges in those directions: when it packs the atom, the
starting directions are the answer.  Otherwise the fast path checks
the condition on the atom's cut oracle (``packing._StepFlow``), where
each edge is a pair of network edges whose capacities swap when it
flips, and which is the one record of which way each edge points.  A
path of oriented edges is reversed out of each short set found, when
one flow shows that no set it takes an edge from falls short, and the
atom is then packed on the oracle.  An atom with no edge is packed by
the checked greedy or refuted by its first failing check
(``packing._pack``).  No auxiliary graph and no table is built on
either path, and no oracle outlives its atom.

The requirement is the function ``p_j - rho_static`` over the atom's
consistent-set family on its auxiliary graph.  By Frank's orientation
theorem for intersecting supermodular requirements, no orientation
covers the atom exactly when some subpartition of the auxiliary vertex
set has summed demands exceeding what edges plus fixed arcs can deliver.

The fast path refutes an atom when it finds a set X short even with
every edge counted both ways.  X is then a one-part subpartition of
positive deficit, and it is the atom's certificate, naming each entering
arc it holds ``t:<arc-id>`` from the atom's slice.  Only an atom the
fast path stalls on builds its auxiliary graph, for the exact fallback,
:func:`orient_covering`.  It searches for the subpartition of maximum
deficit, with the fewest parts, then lexicographically least
(:func:`_extract_certificate`).  When there is none, the edges are fixed
one at a time, each in a direction that keeps the remaining requirement
certificate-free (:func:`_fix_edges`).

The fallback's violation checks run over a reduced family: for every
inner set only the terminal completions that maximise the deficit can
be binding, and there is one such completion per subset of the atom's
trees.  The reduction is exact, and it keeps only the inner sets that
need at least one edge.  Only this table is bounded by
``Bounds.max_enum_vertices``, so only a stalled atom can exceed it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomContext,
    AtomDecomposition,
    AuxiliaryGraph,
    _AtomSlice,
    _atom_slices,
    _check_atom,
    _requirements,
    build_auxiliary,
)
from .errors import InvariantError
from .graph_core import RESERVED_TERMINAL_PREFIX, MixedGraph, Orientation, _Value
from .packing import _edge_cands, _first_fit, _footholds, _grow, _pack, _StepFlow


class CoverRequirement(_Value):
    """One atom's orientation subproblem.

    Carries the auxiliary graph plus everything needed to evaluate the
    demand function on the fly, its :class:`AtomContext` as ``context``.
    The total set carries zero requirement; that is asserted at
    construction because the solver relies on it.
    """

    _fields = ("aux", "dec", "roots", "bounds")
    aux: AuxiliaryGraph
    dec: AtomDecomposition
    roots: tuple[str, ...]
    bounds: Bounds
    context: AtomContext

    def __init__(
        self,
        aux: AuxiliaryGraph,
        dec: AtomDecomposition,
        roots: Sequence[str],
        bounds: Bounds = DEFAULT_BOUNDS,
    ):
        roots = tuple(roots)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "dec", dec)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "context", AtomContext.build(aux, dec, roots))
        if self.h_of(self.context.full_mask) != 0:
            raise InvariantError("total auxiliary set carries nonzero requirement")

    def h_of(self, mask: int) -> int:
        """Requirement of one family member: demand minus fixed in-degree."""
        ctx = self.context
        return ctx.p_of(mask) - ctx.rho_static(mask)


class SubpartitionCertificate(NamedTuple):
    """Witness that no orientation can cover an atom's demands.

    ``parts`` are disjoint family members of the auxiliary vertex set
    (atom vertices and ``t:<arc-id>`` terminals); their summed
    requirement exceeds the crossing-edge supply by ``deficit``.  An atom
    the fast path refutes gets one part, the set it found short; one it
    stalls on gets the maximum-deficit subpartition.
    """

    atom_index: int
    parts: tuple[frozenset[str], ...]
    deficit: int


def orient_atom(
    g: MixedGraph,
    dec: AtomDecomposition,
    j: int,
    roots: Sequence[str],
    slices: Sequence[_AtomSlice] | None = None,
    bounds: Bounds = DEFAULT_BOUNDS,
) -> Orientation | SubpartitionCertificate:
    """Atom ``j``'s covering orientation or certificate.

    An atom that first fit packs from the starting directions keeps
    them.  Otherwise the fast path (:func:`_orient_by_cuts`) orients the
    atom from its slice of ``g``.  An atom it refutes gets the one-part
    certificate it found; only an atom it stalls on builds its auxiliary
    graph, for :func:`orient_covering`.  An atom with no edge to orient
    skips the fast path.  The atom is packed as ``solve`` packs it, and
    the trees are dropped (:func:`_orient_and_pack`).  ``slices`` are
    ``_atom_slices(g, dec)``, computed here when not given.
    """
    slices = _atom_slices(g, dec) if slices is None else slices
    outcome = _orient_and_pack(g, dec, j, roots, slices, bounds)[0]
    return _orientation(slices[j], outcome) if isinstance(outcome, list) else outcome


def _orient_and_pack(g, dec, j, roots, slices, bounds):
    """The local (tail, head) ends of the atom's non-loop edges, and the tree owning each candidate.

    A refuted atom gives its certificate and None.  The candidates are
    the atom's non-loop arcs, then its non-loop edges, in slice order.
    First fit (``packing._first_fit``) runs on the start orientation
    before any oracle is built.  An atom with no edge is packed or
    refuted by ``packing._pack``: with no edge, the check counted both
    ways is the same flow, so it refutes the atom with the set
    :func:`_orient_by_cuts` would.  Any other atom is oriented on its cut
    oracle, which is turned to the fallback's directions when the fast
    path stalled (the only time the auxiliary graph is built), and then
    packed on it: by first fit again when an edge was flipped (with none,
    it would get stuck as before), otherwise by the checked greedy.
    """
    sl = slices[j]
    _check_atom(sl)
    trees, start, ends = _start_state(sl, dec, j, roots)
    cands, n = sl.cands, len(sl.vertices)
    gmask = (1 << n) - 1
    if not ends:
        owner = _pack(n, trees, start, cands)
        if isinstance(owner, tuple):
            return _refuted(sl, j, *owner), None
        return ends, owner
    owner = _first_fit(cands + _edge_cands(ends), trees, start, gmask)
    if owner is not None:
        return ends, owner
    flow = _StepFlow(n, trees, cands, gmask, ends)
    outcome = _orient_by_cuts(sl, j, flow, start)
    if outcome is None:
        outcome = orient_covering(
            CoverRequirement(build_auxiliary(g, dec, j, slices), dec, roots, bounds)
        )
        if isinstance(outcome, Orientation):
            for k, e in enumerate(e for e in sl.edges if not e.is_loop()):
                if outcome.direction[e.id][0] != sl.vertices[flow.ends[k][0]]:
                    flow.flip(k)
            outcome = flow.ends
    if isinstance(outcome, SubpartitionCertificate):
        return outcome, None
    owner = _first_fit(flow.cands, trees, start, gmask) if flow.flips else None
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
    crossing edges.  Each entering arc in T becomes its terminal.
    """
    n = len(sl.vertices)
    part = {v for k, v in enumerate(sl.vertices) if xmask >> k & 1}
    cands = (a for a in sl.arcs if not a.is_loop())
    part.update(
        f"{RESERVED_TERMINAL_PREFIX}{a.id}" for k, a in enumerate(cands) if xmask >> n + k & 1
    )
    return SubpartitionCertificate(j, (frozenset(part),), deficit)


def _start_state(sl, dec: AtomDecomposition, j: int, roots):
    """The trees, their footholds (``packing._footholds``) and the edges' starting ends.

    ``ends`` holds the (tail, head) vertex indices of each non-loop edge,
    in slice order: edges point away from the atom's roots (from the
    heads of its entering arcs when no root lies inside), by
    breadth-first distance over its edges and arcs.
    """
    trees, start = _footholds(sl, dec, j, roots)
    if not sl.pairs:
        return trees, start, []
    n = len(sl.vertices)
    near = [[] for _ in range(n)]
    for u, v in sl.pairs:
        near[u].append(v)
        near[v].append(u)
    for tb, hb, _hit in sl.cands:
        if tb >> n == 0:
            near[tb.bit_length() - 1].append(hb.bit_length() - 1)
    queue = [f.bit_length() - 1 for f in start.values() if f] or list(sl.heads)
    dist = [n] * n
    for u in queue:
        dist[u] = 0
    for u in queue:
        for v in near[u]:
            if dist[v] == n:
                dist[v] = dist[u] + 1
                queue.append(v)
    return trees, start, [(v, u) if dist[v] < dist[u] else (u, v) for u, v in sl.pairs]


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


def _reduced_table(req: CoverRequirement) -> dict[int, tuple[int, int]]:
    """Per inner set that needs edges: its worst-case need and a set with it.

    Maps each nonempty ``Y`` inside the atom whose maximum of
    ``p - rho_static`` over all consistent completions ``Y + terminals``
    is at least 1 to ``(need, xmask)``, where ``xmask`` attains it.  An
    orientation covers the whole family iff it sends at least ``need``
    edges into every ``Y`` in the table.
    """
    ctx = req.context
    return {
        y: (need, xmask)
        for y, need, xmask in _requirements(
            ctx.gamma_mask,
            ctx.root_bits,
            ctx.internal_arcs,
            ctx.terminals,
            req.bounds.max_enum_vertices,
            ctx.aux.atom_index,
        )
    }


def orient_covering(req: CoverRequirement):
    """Orientation of the atom's edges covering its demands, or a certificate.

    Returns the atom's maximum-deficit :class:`SubpartitionCertificate`
    when it has one.  Otherwise an orientation exists, and the edges are
    fixed one by one into an :class:`Orientation` over exactly the atom's
    edge ids.
    """
    table = _reduced_table(req)
    cert = _extract_certificate(req, table)
    if cert is not None:
        return cert
    return _fix_edges(req, table)


def _oriented(ctx, dirs: Sequence[int]) -> Orientation:
    """The atom's orientation for per-edge direction bits; loops as stored."""
    direction = {}
    for (eid, bu, bv), d in zip(ctx.edge_bits, dirs):
        u = ctx.order[bu.bit_length() - 1]
        v = ctx.order[bv.bit_length() - 1]
        direction[eid] = (u, v) if d == 0 else (v, u)
    for eid in ctx.loop_edge_ids:
        e = ctx.aux.graph.edge_by_id[eid]
        direction[eid] = (e.u, e.v)
    return Orientation(direction)


def _fix_edges(req: CoverRequirement, table: dict[int, tuple[int, int]]) -> Orientation:
    """Covering orientation of an atom whose table has no certificate.

    Edges are fixed in declaration order.  Each takes the first direction
    after which the table, less what the fixed edges already send in,
    still has no certificate over the edges left.  The certificate search
    is exact, so one of the two directions always qualifies, and after
    the last edge every need is met.  The table less the fixed edges is
    kept, so each trial subtracts only the new edge's crossing.
    """
    ctx = req.context
    dirs: list[int] = []
    rest = table
    for pos, (_eid, bu, bv) in enumerate(ctx.edge_bits):
        for d, (tail, head) in enumerate(((bu, bv), (bv, bu))):
            trial = {
                y: (need - 1, xm) if head & y and not tail & y else (need, xm)
                for y, (need, xm) in rest.items()
            }
            if _extract_certificate(req, trial, ctx.edge_bits[pos + 1 :]) is None:
                dirs.append(d)
                rest = trial
                break
        else:
            raise InvariantError(
                "no covering orientation exists, yet no subpartition has positive deficit"
            )
    return _oriented(ctx, dirs)


def _extract_certificate(
    req: CoverRequirement,
    table: dict[int, tuple[int, int]] | None = None,
    edges: Sequence[tuple[str, int, int]] | None = None,
) -> SubpartitionCertificate | None:
    """Maximum-deficit subpartition; fewest parts, lexicographic tie-break.

    Only parts with positive requirement can help (dropping a
    nonpositive part never lowers the deficit), so the search runs over
    the reduced table.  ``edges`` defaults to all of the atom's edges.
    Returns ``None`` when every subpartition has deficit <= 0.

    A subpartition is an exact cover of its union by table sets, so the
    union ``w`` runs over the submasks of the union of the deficient
    sets, ascending, and the part holding the lowest bit of ``w`` over
    that bit plus each submask of the rest: about 3^|union| steps.
    Covers compare on value and part count first; the sorted parts are
    built only for those that tie the best, to break the tie.
    """
    ctx = req.context
    if table is None:
        table = _reduced_table(req)
    if edges is None:
        edges = ctx.edge_bits
    # Y -> (need plus the edges inside Y, completion)
    pool = {
        y: (need + sum(1 for _eid, bu, bv in edges if bu & y and bv & y), xm)
        for y, (need, xm) in table.items()
        if need >= 1
    }
    if not pool:
        return None
    union = 0
    for y in pool:
        union |= y

    # best[w]: least (-value, part count, sorted parts) over exact disjoint
    # covers of w.  The parts determine w, so keys never tie across w.
    best: dict[int, tuple[int, int, tuple[int, ...]]] = {0: (0, 0, ())}
    w = 0
    while w != union:
        w = (w - union) & union
        low = w & -w
        rest = w ^ low
        key = None
        ties: list[tuple[tuple[int, ...], int]] = []
        s = rest
        while True:
            part = pool.get(low | s)
            if part is not None:
                prev = best.get(rest ^ s)
                if prev is not None:
                    cand = (prev[0] - part[0], prev[1] + 1)
                    if key is None or cand < key:
                        key, ties = cand, [(prev[2], part[1])]
                    elif cand == key:
                        ties.append((prev[2], part[1]))
            if not s:
                break
            s = (s - 1) & rest
        if key is not None:
            best[w] = key + (min(tuple(sorted(parts + (xm,))) for parts, xm in ties),)

    winner = min(
        (negvalue + sum(1 for _eid, bu, bv in edges if (bu | bv) & w), count, parts)
        for w, (negvalue, count, parts) in best.items()
        if parts
    )
    if winner[0] > -1:
        return None
    negdeficit, _count, parts = winner
    return SubpartitionCertificate(
        atom_index=ctx.aux.atom_index,
        parts=tuple(ctx.to_vertices(p) for p in parts),
        deficit=-negdeficit,
    )
