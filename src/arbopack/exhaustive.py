"""The exact orientation fallback, run only on an atom the fast path stalls on.

Only ``orientation._orient_and_pack`` imports this module, in its stall
branch, so a solve whose atoms are all oriented, packed or refuted by
the fast path never compiles it.

Per atom, an *auxiliary graph* replaces every arc entering the atom by a
fresh terminal vertex ``t:<arc-id>`` with a single outgoing arc to the
original head.  Subsets of the auxiliary vertex set that contain the
head of every chosen terminal ("consistent" sets) carry the demand
function down to plain set functions, one independent subproblem per
atom.

The requirement is the function ``p_j - rho_static`` over the atom's
consistent-set family on its auxiliary graph.  By Frank's orientation
theorem for intersecting supermodular requirements, no orientation
covers the atom exactly when some subpartition of the auxiliary vertex
set has summed demands exceeding what edges plus fixed arcs can deliver.
:func:`orient_covering` searches for the subpartition of maximum
deficit, with the fewest parts, then lexicographically least
(:func:`_extract_certificate`).  When there is none, the edges are fixed
one at a time, each in a direction that keeps the remaining requirement
certificate-free (:func:`_fix_edges`).

The violation checks run over a reduced family: for every inner set
only the terminal completions that maximise the deficit can be binding,
and there is one such completion per subset of the atom's trees.  The
reduction is exact, and it keeps only the inner sets that need at least
one edge.  Only this table is bounded by ``Bounds.max_enum_vertices``,
so only a stalled atom can exceed it.  The table, the certificate
search and the edge fixing read the auxiliary graph off the slice the
fast path holds (``decomposition._atom_slices``), each entering arc's
tail bit standing for its terminal (:class:`CoverRequirement`), and name
a mask's vertices and terminals as the fast path's certificate does.
The solver never builds the graph by name (:func:`build_auxiliary`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .bounds import DEFAULT_BOUNDS, Bounds
from .decomposition import (
    AtomDecomposition, _AtomSlice, _atom_slices, _check_atom, _check_atom_index
)
from .errors import CapacityError, InvariantError
from .graph_core import RESERVED_TERMINAL_PREFIX, Arc, MixedGraph, Orientation, _Value
from .orientation import SubpartitionCertificate, _footholds, _orientation, _part

# ---------------------------------------------------------------------------
# auxiliary graphs


class AuxiliaryGraph(_Value):
    """Atom-local mixed graph with one terminal per entering arc.

    Terminal ``t:<arc-id>`` has in-degree 0 and a single arc (keeping the
    original arc id) to the original head; ``terminal_origin`` maps it
    back to the entering arc and its original tail.
    """

    _fields = ("atom_index", "graph", "gamma", "terminal_origin")
    atom_index: int
    graph: MixedGraph
    gamma: frozenset[str]
    terminal_origin: Mapping[str, tuple[str, str]]

    def __init__(
        self,
        atom_index: int,
        graph: MixedGraph,
        gamma: Iterable[str],
        terminal_origin: Mapping[str, tuple[str, str]],
    ):
        object.__setattr__(self, "atom_index", atom_index)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "gamma", frozenset(gamma))
        object.__setattr__(self, "terminal_origin", dict(terminal_origin))


def build_auxiliary(g: MixedGraph, dec: AtomDecomposition, j: int) -> AuxiliaryGraph:
    """Auxiliary graph of atom ``j`` (0-based), by name; the solver reads it off the slice.

    The atom index and the atom are checked as :class:`CoverRequirement` checks them.
    """
    _check_atom_index(dec, j)
    gamma = dec.atoms[j]
    sl = _atom_slices(g, dec)[j]
    _check_atom(sl)
    vertices, edges, arcs = sl.vertices, sl.edges, sl.arcs
    entering = [a for a in arcs if a.tail not in gamma]
    internal = [a for a in arcs if a.tail in gamma]
    terminals = [f"{RESERVED_TERMINAL_PREFIX}{a.id}" for a in entering]
    origin = {t: (a.id, a.tail) for t, a in zip(terminals, entering)}
    graph = MixedGraph(
        tuple(vertices) + tuple(terminals),
        tuple(edges),
        tuple(internal) + tuple(Arc(a.id, t, a.head) for t, a in zip(terminals, entering)),
    )
    return AuxiliaryGraph(atom_index=j, graph=graph, gamma=gamma, terminal_origin=origin)


def _worst_completion(nq: int, hits: Sequence[int]) -> tuple[int, int]:
    """Worst terminal completion of one inner set, over bit-indexed trees.

    ``nq`` trees lack a foothold in the set and ``hits[k]`` is the mask of
    those trees that terminal ``k`` would disqualify.  For each tree subset
    ``d`` the terminals whose hits lie inside ``d`` are included; the value
    is the trees left untouched minus the terminal arcs still entering.
    Returns the best value and the first ``d`` attaining it.  Every
    terminal subset is dominated by one of these, so the maximum is exact.
    The value depends on ``d`` only through its trees that some terminal
    hits, so ``d`` runs over the submasks of their union, ascending; the
    first best ``d`` is the same as in an ascending scan of every subset
    of the ``nq`` trees, whichever bits stand for them.
    """
    hit = 0
    for hq in hits:
        hit |= hq
    best = best_d = None
    d = 0
    while True:
        union = 0
        chosen = 0
        for hq in hits:
            if hq & ~d == 0:
                union |= hq
                chosen += 1
        val = nq - union.bit_count() - (len(hits) - chosen)
        if best is None or val > best:
            best, best_d = val, d
        if d == hit:
            return best, best_d
        d = (d - hit) & hit


# ---------------------------------------------------------------------------
# the orientation subproblem and its exact solver


class CoverRequirement(_Value):
    """The orientation subproblem of atom ``atom_index``, read off its slice of ``graph``.

    The auxiliary graph is the atom's slice, the encoding the fast path
    orients: an atom vertex has its slice bit, the terminal of an
    entering arc the arc's tail bit, ``n`` plus its candidate index, and
    that candidate's ``hit`` marks the atom's trees that span its tail.
    ``slices`` are ``_atom_slices(graph, dec)``, computed here when not
    given; a caller with many atoms computes them once.  The total set
    carries zero requirement, that is, every tree has a foothold or a
    terminal that hits it, which the solver relies on.
    """

    _fields = ("graph", "dec", "atom_index", "roots", "bounds")
    graph: MixedGraph
    dec: AtomDecomposition
    atom_index: int
    roots: tuple[str, ...]
    bounds: Bounds

    def __init__(
        self,
        graph: MixedGraph,
        dec: AtomDecomposition,
        atom_index: int,
        roots: Sequence[str],
        bounds: Bounds = DEFAULT_BOUNDS,
        slices: Sequence[_AtomSlice] | None = None,
    ):
        roots = tuple(roots)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "dec", dec)
        object.__setattr__(self, "atom_index", atom_index)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "bounds", bounds)
        _check_atom_index(dec, atom_index)
        sl = (_atom_slices(graph, dec) if slices is None else slices)[atom_index]
        _check_atom(sl)
        _trees, start = _footholds(sl, dec, atom_index, roots)
        hit_any = 0
        for _bit, _head, hit in sl.cands:
            hit_any |= hit
        if any(not f and not hit_any >> i & 1 for i, f in start.items()):
            raise InvariantError("total auxiliary set carries nonzero requirement")
        object.__setattr__(self, "_slice", sl)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_hit_any", hit_any)


def _reduced_table(req: CoverRequirement) -> dict[int, tuple[int, int]]:
    """Per inner set that needs edges: its worst-case need and a set with it.

    Maps each nonempty ``Y`` inside the atom whose maximum of
    ``p - rho_static`` over all consistent completions ``Y + terminals``
    is at least 1 to ``(need, xmask)``, where ``xmask`` attains it.  An
    orientation covers the whole family iff it sends at least ``need``
    edges into every ``Y`` in the table.

    The need of ``Y`` is the worst case, over the terminal completions of
    ``Y``, of the trees with a foothold in neither ``Y`` nor the
    completion, minus the arcs entering both (:func:`_worst_completion`).
    The sweep enumerates the subsets of the atom, in descending mask
    order, and per set the submasks of the trees some terminal hits;
    their bits together are gated by ``max_enum_vertices``, and the error
    names the atom.
    """
    sl = req._slice
    gmask = (1 << len(sl.vertices)) - 1
    limit = req.bounds.max_enum_vertices
    n = len(sl.vertices) + req._hit_any.bit_count()
    if n > limit:
        raise CapacityError(
            f"|V_j| = {n} exceeds max_enum_vertices = {limit}",
            limit=limit,
            observed=n,
            atom=req.atom_index,
        )
    arcs = [(tb, hb) for tb, hb, _hit in sl.cands if tb & gmask]
    terminals = [c for c in sl.cands if not c[0] & gmask]
    table = {}
    y = gmask
    while y:
        free = nq = 0
        for i, foothold in req._start.items():
            if not foothold & y:
                free |= 1 << i
                nq += 1
        if nq:
            rho = sum(1 for t, h in arcs if h & y and not t & y)
            entering = [(bit, hit & free) for bit, head, hit in terminals if head & y]
            best, d = _worst_completion(nq, [hq for _bit, hq in entering])
            if best > rho:
                xmask = y
                for bit, hq in entering:
                    if hq & ~d == 0:
                        xmask |= bit
                table[y] = (best - rho, xmask)
        y = (y - 1) & gmask
    return table


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


def _fix_edges(req: CoverRequirement, table: dict[int, tuple[int, int]]) -> Orientation:
    """Covering orientation of an atom whose table has no certificate.

    Edges are fixed in declaration order.  Each takes the first direction
    after which the table, less what the fixed edges already send in,
    still has no certificate over the edges left.  The certificate search
    is exact, so one of the two directions always qualifies, and after
    the last edge every need is met.  The table less the fixed edges is
    kept, so each trial subtracts only the new edge's crossing.
    """
    sl = req._slice
    edges = [(1 << u, 1 << v) for u, v in sl.pairs]
    ends: list[tuple[int, int]] = []
    rest = table
    for pos, (u, v) in enumerate(sl.pairs):
        for tail, head in ((u, v), (v, u)):
            trial = {
                y: (need - 1, xm) if y >> head & 1 and not y >> tail & 1 else (need, xm)
                for y, (need, xm) in rest.items()
            }
            if _extract_certificate(req, trial, edges[pos + 1 :]) is None:
                ends.append((tail, head))
                rest = trial
                break
        else:
            raise InvariantError(
                "no covering orientation exists, yet no subpartition has positive deficit"
            )
    return _orientation(sl, ends)


def _extract_certificate(
    req: CoverRequirement,
    table: dict[int, tuple[int, int]],
    edges: Sequence[tuple[int, int]] | None = None,
) -> SubpartitionCertificate | None:
    """Maximum-deficit subpartition; fewest parts, lexicographic tie-break.

    Only parts with positive requirement can help (dropping a
    nonpositive part never lowers the deficit), so the search runs over
    the reduced table.  ``edges`` are ``(u bit, v bit)`` pairs and
    default to all of the atom's non-loop edges.  Returns ``None`` when
    every subpartition has deficit <= 0.

    A subpartition is an exact cover of its union by table sets, so the
    union ``w`` runs over the submasks of the union of the deficient
    sets, ascending, and the part holding the lowest bit of ``w`` over
    that bit plus each submask of the rest: about 3^|union| steps.
    Covers compare on value and part count first; the sorted parts are
    built only for those that tie the best, to break the tie.
    """
    sl = req._slice
    if edges is None:
        edges = [(1 << u, 1 << v) for u, v in sl.pairs]
    # Y -> (need plus the edges inside Y, completion)
    pool = {
        y: (need + sum(1 for bu, bv in edges if bu & y and bv & y), xm)
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
        (negvalue + sum(1 for bu, bv in edges if (bu | bv) & w), count, parts)
        for w, (negvalue, count, parts) in best.items()
        if parts
    )
    if winner[0] > -1:
        return None
    negdeficit, _count, parts = winner
    return SubpartitionCertificate(
        atom_index=req.atom_index,
        parts=tuple(_part(sl, p) for p in parts),
        deficit=-negdeficit,
    )
