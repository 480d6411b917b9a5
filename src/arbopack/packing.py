"""Pack one atom's reachability arborescences on its cut oracle.

Feasibility is the cut condition: every vertex set must admit at least as
many entering arcs as there are roots outside it whose reachability set
meets it.  Atoms (classes of equal reaching-root sets) share no arcs, so
each is packed on its own: a tree rooted inside an atom grows from its
root, any other tree enters through the arcs crossing into the atom from
vertices it spans, and each crossing arc serves at most one tree.  A
residual cut check that is necessary and sufficient (the root-set form
of Kamiyama-Katoh-Takizawa, as in Fujishige's note on disjoint
arborescences) lets the trees grow one arc at a time with no search:
each arc taken is the first one that keeps the check passing, and a
step, which can only break the sets holding its head w, is checked by
one max-flow from w.  "First" is in one order, least shared first: the
atom's arcs and edges, then the arcs entering it by how many trees
could use them, ties in candidate order.  First comes first fit, the
same greedy with no check: when it finishes, every check would have
passed, so it packs with the same trees and no oracle is built.  In
first fit an atom edge may be taken either way: a tree takes it from
the end it covers to the end it does not, so first fit orients the
atom as it packs it.  It is tried only on an atom with at least as
many candidates as steps its trees need; any other atom cannot be
packed.  Otherwise the greedy runs checked: on a new oracle for an atom
with no edge (:func:`_pack`), and on the oracle that oriented the edges
of any other (``orientation``).  Only an infeasible atom gets a checked
tree stuck; its untouched atom is then checked from each vertex, and
the first short cut is its deficient set.
``pipeline`` drives the atoms for ``solve`` and for
``two_stage.pack_reachability`` alike, a digraph being a mixed graph
with no edges; ``two_stage.pack_atom_branchings`` packs one atom of a
digraph, read by the same ``decomposition._atom_slices``, with :func:`_pack`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import InvariantError


def _pack(n: int, trees, start: Mapping[int, int], cands) -> list[int | None] | tuple[int, int]:
    """The owner list of a packing of an ``n``-vertex atom, or a short set and its shortfall.

    By first fit when it packs the atom (:func:`_first_fit`), otherwise by
    the greedy checked on a new oracle.  A checked tree gets stuck only
    on an infeasible atom, and an untouched oracle then gives the set
    (:func:`_first_short`).
    """
    gmask = (1 << n) - 1
    owner = _first_fit(cands, trees, start, gmask)
    if owner is None:
        owner = _grow(cands, trees, dict(start), gmask, _StepFlow(n, trees, cands, gmask))
    if isinstance(owner, int):
        return _first_short(_StepFlow(n, trees, cands, gmask), n, start, owner)
    return owner


def _first_short(flow: _StepFlow, n: int, start: Mapping[int, int], stuck: int) -> tuple[int, int]:
    """The set found short by the first of the ``n`` atom vertices whose check fails.

    ``flow`` is an untouched oracle of an atom on which tree ``stuck``
    got stuck, so some check fails.  Returns the set and its shortfall.
    """
    for k in range(n):
        xmask = flow.cut(1 << k, start)
        if xmask is not None:
            return xmask, flow.shortfall
    raise InvariantError(f"tree {stuck + 1} is stuck, but the untouched atom passes")


def _edge_cands(ends) -> list[tuple[int, int, int]]:
    """``(tail bit, head bit, 0)`` per atom edge, turned as its (tail, head) in ``ends``."""
    return [(1 << t, 1 << h, 0) for t, h in ends]


def _either_way(pairs) -> list[tuple[int, int, int]]:
    """``(ends, ends, 0)`` per atom edge of ``pairs``, its two end bits as tail and as head."""
    return [(b, b, 0) for b in (1 << u | 1 << v for u, v in pairs)]


def _taken_ends(cands, pairs) -> list[tuple[int, int]]:
    """The (tail, head) of each edge candidate as :func:`_grow` turned it, else its ``pairs`` entry."""
    return [
        pair if tb == hb else (tb.bit_length() - 1, hb.bit_length() - 1)
        for (tb, hb, _hit), pair in zip(cands, pairs)
    ]


def _first_fit(cands, trees, start: Mapping[int, int], gmask: int) -> list[int | None] | None:
    """The owner list of an unchecked :func:`_grow` from ``start``, or None.

    Each step covers one atom vertex for one tree with one candidate, so
    a packing takes one candidate per vertex outside each tree's start
    foothold.  With fewer candidates than that the atom cannot be packed,
    and first fit is not tried.  None also when it gets stuck.  An edge
    given either way (:func:`_either_way`) is turned in ``cands`` as its
    tree takes it (:func:`_taken_ends` reads the ends back).
    """
    if len(cands) < sum((gmask & ~start[i]).bit_count() for i in trees):
        return None
    owner = _grow(cands, trees, dict(start), gmask)
    return None if isinstance(owner, int) else owner


def _grow(
    cands, trees, covered: dict[int, int], gmask: int, flow: _StepFlow | None = None
) -> list[int | None] | int:
    """The tree owning each candidate, or the index of a stuck tree.

    ``covered`` holds each tree's foothold and grows in place.  A
    candidate is admissible for tree i when no tree owns it, its head is
    not yet covered, and its tail is covered or its hit mask holds i.
    An edge given either way, with both end bits as tail and as head, is
    then admissible when exactly one end is covered; the step that takes
    it writes it back into ``cands`` turned from that end to the other.
    Candidates are visited least shared first, by the number of trees
    their hit mask holds (0 for an atom arc or edge), ties in list order.
    Each step takes the first admissible candidate (first fit), or, with
    ``flow`` and its candidates as ``cands``, the first after which the
    check from its head passes.  A first fit that finishes needs no
    check: each of its prefixes extends to the packing it found, so every
    check would have passed and the checked greedy takes the same
    candidates, in the same order, with each edge turned as first fit
    took it.
    """
    owner: list[int | None] = [None] * len(cands)
    order = sorted(enumerate(cands), key=_shared)
    for i in trees:
        while uncovered := gmask & ~covered[i]:
            for k, (tb, hb, hit) in order:
                if owner[k] is not None or not hb & uncovered:
                    continue
                if not (tb & covered[i] or hit >> i & 1):
                    continue
                owner[k] = i
                if tb == hb:
                    # an edge, turned from the end the tree covers
                    cands[k] = (tb & covered[i], hb & uncovered, 0)
                covered[i] |= hb
                if flow is None:
                    break
                flow.take(k, 1)
                if flow.cut(hb, covered) is None:
                    break
                owner[k] = None
                flow.take(k, -1)
                covered[i] &= ~hb
            else:
                return i
    return owner


def _shared(cand: tuple[int, tuple[int, int, int]]) -> int:
    """How many trees could use an indexed candidate: 0 for an atom arc or edge."""
    return cand[1][2].bit_count()


class _StepFlow:
    """One atom's cut oracle: the max-flow form of its check, for sets holding w.

    A cut with w on the source side stands for a set Y with w in Y and a
    consistent set T of unused entering arcs, and its capacity is
    ``rho(Y) + |entering(Y) - T| + cov(Y + T)``: the unused atom arcs
    and edges into Y, the unused entering arcs outside T, and the trees
    with a foothold in Y or an arc in T.  Every such set passes exactly
    when the minimum cut, the most flow w can send to the sink, is at
    least the number of trees; when it is not, the last, failed
    augmenting search reaches the source side of the least short cut.
    The network's nodes never change:

    - atom vertex v: an atom arc t->h becomes the edge h->t, with
      capacity the number of its unused parallel copies, and an atom
      edge oriented t->h becomes the edge h->t of capacity 1, whose
      residual twin t->h takes the unit when the edge is flipped;
    - entering group: the unused entering arcs with one head h and one
      hit mask, with an edge h->group of capacity their count;
    - tree: one node per tree, then the sink, with an edge of capacity 1
      to the sink and unbounded edges into it from the entering groups
      that hit the tree and from its foothold vertices.  A vertex's edge
      is added when it first joins the foothold, and has capacity 0
      while it is out; each check first sets these edges to its footholds.

    A group on the source side without its head costs the cut at least as
    much as the same cut with the group moved across, so minimum cuts
    keep T consistent with no edge to enforce it.  Trees whose foothold
    holds w cross every such cut: the check zeroes their sink edges and
    lowers the target.  After a check that finds a short set,
    ``shortfall`` is the target less the flow: how far that set's slack
    falls below the check's ``extra``.  Each flow runs on a copy of the
    capacities.  ``ends`` holds each atom edge's (tail, head) vertices,
    and only :meth:`flip` turns them; ``flips`` counts the edges flipped.
    """

    def __init__(
        self, n: int, trees: Sequence[int], cands: Sequence[tuple[int, int, int]], gmask: int,
        edges: Sequence[tuple[int, int]] = (),
    ):
        self.trees = trees
        self.cands = list(cands)
        # edge e runs to head[e], and its residual twin is e ^ 1
        self.head: list[int] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        net = (self.head, self.cap, self.adj)
        arc_edge: dict[tuple[int, int], int] = {}  # (head, tail bit) -> edge
        group_edge: dict[tuple[int, int], int] = {}  # (head, hit) -> edge
        self.cand_edge: list[int] = []
        # the mask bits of each node: an atom vertex its own, an entering
        # group its arcs' tail bits, a tree and the sink none
        self.node_bits = [1 << v for v in range(n)]
        for tb, hb, hit in cands:
            h = hb.bit_length() - 1
            if tb & gmask:
                e = arc_edge.get((h, tb))
                if e is None:
                    e = arc_edge[h, tb] = _add_edge(*net, h, tb.bit_length() - 1, 0)
            else:
                e = group_edge.get((h, hit))
                if e is None:
                    self.adj.append([])
                    self.node_bits.append(0)
                    e = group_edge[h, hit] = _add_edge(*net, h, len(self.adj) - 1, 0)
                self.node_bits[self.head[e]] |= tb
            self.cap[e] += 1
            self.cand_edge.append(e)
        # atom edges, as (tail, head) vertices, are the candidates after
        # the arcs, each on the network edge that holds its unit
        self.first_edge = len(self.cands)
        self.ends = list(edges)
        self.cands += _edge_cands(edges)
        self.cand_edge += [_add_edge(*net, h, t, 1) for t, h in edges]
        # tree p is node first_tree + p, and its sink edge is sink_edge + 2 p
        self.first_tree, self.sink_edge = len(self.adj), len(self.head)
        self.adj += [[] for _ in range(len(trees) + 1)]
        self.node_bits += [0] * (len(trees) + 1)
        for p in range(len(trees)):
            _add_edge(*net, self.first_tree + p, len(self.adj) - 1, 1)
        for (_h, hit), e in group_edge.items():
            for p, i in enumerate(trees):
                if hit >> i & 1:
                    _add_edge(*net, self.head[e], self.first_tree + p, math.inf)
        self.foothold_edge: list[dict[int, int]] = [{} for _ in trees]  # vertex -> edge
        self.opened = [0] * len(trees)  # the foothold each tree's edges are set to
        self.shortfall = self.flips = 0

    def take(self, k: int, used: int) -> None:
        """Mark candidate ``k`` used (``used`` 1) or unused again (-1)."""
        self.cap[self.cand_edge[k]] -= used

    def flip(self, k: int) -> None:
        """Reverse atom edge ``k``: its ends turn, and its unit and candidate move to the twin."""
        self.flips += 1
        self.ends[k] = self.ends[k][::-1]
        k += self.first_edge
        e = self.cand_edge[k]
        self.cap[e], self.cap[e ^ 1] = self.cap[e ^ 1], self.cap[e]
        self.cand_edge[k] = e ^ 1
        tb, hb, hit = self.cands[k]
        self.cands[k] = (hb, tb, hit)

    def cut(
        self, wbit: int, footholds: Mapping[int, int], avoid: int = 0, extra: int = 0,
        both: bool = False,
    ) -> int | None:
        """Y plus the tail bits of T, for a set with slack below ``extra``, or None.

        The sets searched hold ``wbit`` and not the bit ``avoid``, which
        one unbounded edge ties to the sink.  With ``both`` every atom
        edge counts in both directions, so a set it finds short is short
        in every orientation.  The set returned is the least of those
        with the least slack.
        """
        held, target = [], extra
        for p, i in enumerate(self.trees):
            foothold = footholds[i]
            if foothold != self.opened[p]:
                self._open(p, foothold)
            if foothold & wbit:
                held.append(self.sink_edge + 2 * p)
            else:
                target += 1
        if not target:
            return None
        head, adj, sink = self.head, self.adj, len(self.adj) - 1
        cap = self.cap[:]
        for e in held:
            cap[e] = 0
        if both:
            for e in self.cand_edge[self.first_edge :]:
                cap[e] = cap[e ^ 1] = 1
        if avoid:
            u = avoid.bit_length() - 1
            _add_edge(head, cap, adj, u, sink, math.inf)
        reached, value = _min_cut(head, cap, adj, wbit.bit_length() - 1, sink, target)
        if avoid:
            del head[-2:]
            adj[u].pop()
            adj[sink].pop()
        self.shortfall = target - value
        return sum(self.node_bits[v] for v in reached) or None

    def _open(self, p: int, foothold: int) -> None:
        """Set tree ``p``'s foothold edges to ``foothold``, touching only the changed vertices."""
        edges, cap = self.foothold_edge[p], self.cap
        change = foothold ^ self.opened[p]
        while change:
            low = change & -change
            v = low.bit_length() - 1
            if v in edges:
                cap[edges[v]] = math.inf if foothold & low else 0
            else:
                edges[v] = _add_edge(self.head, cap, self.adj, v, self.first_tree + p, math.inf)
            change ^= low
        self.opened[p] = foothold


def _add_edge(
    head: list[int], cap: list[float], adj: list[list[int]], u: int, v: int, c: float
) -> int:
    """Add u->v of capacity ``c`` and its residual twin v->u; returns u->v."""
    e = len(head)
    head += (v, u)
    cap += (c, 0)
    adj[u].append(e)
    adj[v].append(e + 1)
    return e


def _min_cut(
    head: Sequence[int], cap: list[float], adj: Sequence[Sequence[int]],
    s: int, t: int, limit: int,
) -> tuple[list[int], int]:
    """Augment along shortest paths; the nodes the failed search reached, and the flow.

    A search labels each node in a list with the edge that reached it,
    and stops once ``t`` is labelled.  A flow below ``limit`` is maximum,
    and the nodes are the source side of the least minimum cut; none are
    returned once ``limit`` flows.
    """
    flow = 0
    while flow < limit:
        pred: list[int | None] = [None] * len(adj)
        pred[s] = -1
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0:
                    v = head[e]
                    if pred[v] is None:
                        pred[v] = e
                        if v == t:
                            break
                        queue.append(v)
            else:
                continue
            break
        else:
            return queue, flow
        push, path, v = limit - flow, [], t
        while v != s:
            e = pred[v]
            path.append(e)
            if cap[e] < push:
                push = cap[e]
            v = head[e ^ 1]
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
        flow += push
    return [], flow
