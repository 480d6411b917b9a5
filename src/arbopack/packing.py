"""Pack reachability arborescences atom by atom on each atom's cut oracle.

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
one max-flow from w.  First comes first fit, the same greedy with no
check: when it finishes, every check would have passed, so it packs
with the same trees and no oracle is built.  It is tried only on an
atom with at least as many candidate arcs as steps its trees need; any
other atom cannot be packed.  ``pipeline.solve`` packs each atom of a
mixed graph that first fit could not on the oracle that oriented its
edges.  Only an infeasible atom gets a checked tree stuck; in a
digraph, its untouched atom is then checked from each vertex, and the
first short cut, lifted to the whole digraph, is the violated set
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .decomposition import _atom_slices, _decompose
from .errors import InvariantError
from .graph_core import (
    CheckResult,
    DirectedView,
    OK_RESULT,
    ViewArc,
    _check_arborescence,
    _reachable,
)


@dataclass(frozen=True)
class Arborescence:
    """One tree of a packing: a root index and the arcs it uses."""

    root_index: int
    arcs: tuple[ViewArc, ...]


@dataclass(frozen=True)
class DigraphPacking:
    """Arc-disjoint trees, one per root index, spanning their reach sets."""

    trees: tuple[Arborescence, ...]


def reachable_in_view(d: DirectedView, s: str) -> frozenset[str]:
    """Vertices reachable from ``s`` along the view's arcs."""
    if s not in d.vertex_set:
        raise ValueError(f"unknown vertex {s!r}")
    return _reachable(d._successors, s)


def pack_reachability(d: DirectedView, roots: Sequence[str]):
    """A packing of reachability arborescences, or a violated vertex set.

    Atoms are processed in topological order of their root-set lattice;
    within each atom tree i starts from its root (when the root lies
    inside) or from the arcs entering the atom out of U_i.  The view is
    sliced by atom once, and each atom is packed on its own slice.
    """
    dec = _decompose(d, roots)
    atoms, atom_roots = dec.atoms, dec.atom_roots
    slices = _atom_slices(d, dec)

    order = sorted(range(len(atoms)), key=lambda j: (len(atom_roots[j]), j))
    tree_arcs: dict[int, list[tuple[int, ViewArc]]] = {i: [] for i in range(len(roots))}
    arc_pos = {a.key: pos for pos, a in enumerate(d.arcs)}

    for j in order:
        gamma = atoms[j]
        demands = {
            i: frozenset((roots[i],)) if roots[i] in gamma else dec.reach[i] - gamma
            for i in sorted(atom_roots[j])
        }
        vertices, _edges, arcs, _crossing = slices[j]
        result = pack_atom_branchings(d, gamma, demands, vertices, arcs)
        if isinstance(result, frozenset):
            return _lift_witness(d, result, gamma)
        for i, taken in result.items():
            tree_arcs[i].extend((arc_pos[a.key], a) for a in taken)

    trees = tuple(
        Arborescence(i, tuple(a for _pos, a in sorted(tree_arcs[i], key=lambda x: x[0])))
        for i in range(len(roots))
    )
    return DigraphPacking(trees)


def _lift_witness(
    d: DirectedView, witness: frozenset[str], gamma: frozenset[str]
) -> frozenset[str]:
    """Lift an atom's deficient set to a violated vertex set of ``d``.

    ``witness`` is an atom part Y plus the tails of a set T of entering
    arcs that the atom check found short.  Each tail is replaced by every
    vertex that reaches it.  A tree the atom check counted spans an
    out-closed set that misses those tails, so it misses every added
    vertex and still needs an arc into Y.  An arc into an added vertex
    starts at an added vertex.  So the only arcs entering the lifted set
    are the ones the check counted, and there are too few of them.
    """
    pred: dict[str, list[str]] = {v: [] for v in d.vertices}
    for a in d.arcs:
        pred[a.head].append(a.tail)
    lifted = set(witness & gamma)
    for v in witness - gamma:
        lifted |= _reachable(pred, v)
    return frozenset(lifted)


def pack_atom_branchings(
    view: DirectedView,
    gamma: frozenset[str],
    demands: Mapping[int, frozenset[str]],
    vertices: Sequence[str] | None = None,
    arcs: Sequence[ViewArc] | None = None,
) -> dict[int, tuple[ViewArc, ...]] | frozenset[str]:
    """Arc-disjoint branchings covering ``gamma``, one per demanded tree.

    ``demands[i]`` is what tree i already spans: its root inside
    ``gamma``, or vertices outside it.  An arc of ``view`` entering
    ``gamma`` can serve tree i when its tail is in ``demands[i]``, and
    serves at most one tree; arcs whose head is outside ``gamma`` are
    ignored.  When no such packing exists, returns a deficient vertex set
    of ``view`` instead: an atom part Y plus the tails of a set T of
    entering arcs, where the trees with no foothold in Y and no arc in T
    outnumber the arcs entering the set.

    ``vertices`` and ``arcs`` default to the whole view.  A caller may
    pass just the atom's vertices and the arcs into it instead, each in
    view order, as ``decomposition._atom_slices`` gives them: the result
    is the same, and the set-up reads the atom, not the view.

    The trees grow greedily (:func:`_grow`), by first fit when the count
    gate lets it (:func:`_first_fit`).  Only when first fit cannot pack
    the atom is its cut oracle built, and the greedy run again checked
    on it.  A checked tree gets stuck only on an infeasible atom; the
    first vertex of the untouched atom whose check fails then gives the
    deficient set.
    """
    view.require_vertices(gamma)
    if vertices is None:
        vertices = view.vertices
    if arcs is None:
        arcs = view.arcs
    bit = {v: 1 << k for k, v in enumerate(v for v in vertices if v in gamma)}
    gmask = (1 << len(bit)) - 1

    trees = sorted(demands)
    entry = {i: view.require_vertices(demands[i]) for i in trees}
    start = {i: sum(bit[v] for v in entry[i] & gamma) for i in trees}
    cands = _arc_candidates(arcs, bit, trees, entry)
    net = (len(bit), trees, [c[:3] for c in cands], gmask)
    owner = _first_fit(net[2], trees, start, gmask)
    if owner is None:
        owner = _grow(net[2], trees, dict(start), gmask, _StepFlow(*net))
    if isinstance(owner, int):
        untouched = _StepFlow(*net)
        for wbit in bit.values():
            xmask = untouched.cut(wbit, start)
            if xmask is not None:
                return frozenset(v for v, b in bit.items() if b & xmask) | frozenset(
                    a.tail for tb, _hb, _hit, a in cands if tb & xmask & ~gmask
                )
        raise InvariantError(f"tree {owner + 1} is stuck, but the untouched atom passes")
    return {
        i: tuple(a for (_t, _h, _hit, a), o in zip(cands, owner) if o == i) for i in trees
    }


def _arc_candidates(arcs, bit: Mapping[str, int], trees, reach) -> list[tuple]:
    """``(tail bit, head bit, hit, arc)`` per non-loop arc into the atom, in order."""
    cands = []
    for a in arcs:
        hb = bit.get(a.head)
        if hb is None or a.is_loop():
            continue
        tb, hit = bit.get(a.tail), 0
        if tb is None:
            tb = 1 << (len(bit) + len(cands))
            hit = sum(1 << i for i in trees if a.tail in reach[i])
        cands.append((tb, hb, hit, a))
    return cands


def _edge_cands(ends) -> list[tuple[int, int, int]]:
    """``(tail bit, head bit, 0)`` per atom edge, turned as its (tail, head) in ``ends``."""
    return [(1 << t, 1 << h, 0) for t, h in ends]


def _first_fit(cands, trees, start: Mapping[int, int], gmask: int) -> list[int | None] | None:
    """The owner list of an unchecked :func:`_grow` from ``start``, or None.

    Each step covers one atom vertex for one tree with one candidate, so
    a packing takes one candidate per vertex outside each tree's start
    foothold.  With fewer candidates than that the atom cannot be packed,
    and first fit is not tried.  None also when it gets stuck.
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
    Each step takes the first admissible candidate (first fit), or, with
    ``flow`` and its candidates as ``cands``, the first after which the
    check from its head passes.  A first fit that finishes needs no
    check: each of its prefixes extends to the packing it found, so every
    check would have passed and the checked greedy takes the same
    candidates.
    """
    owner: list[int | None] = [None] * len(cands)
    for i in trees:
        while uncovered := gmask & ~covered[i]:
            for k, (tb, hb, hit) in enumerate(cands):
                if owner[k] is not None or not hb & uncovered:
                    continue
                if not (tb & covered[i] or hit >> i & 1):
                    continue
                owner[k] = i
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


class _StepFlow:
    """One atom's cut oracle: the max-flow form of its check, for sets holding w.

    A cut with w on the source side stands for a set Y with w in Y and a
    consistent set T of unused entering arcs, and its capacity is
    ``rho(Y) + |entering(Y) - T| + cov(Y + T)``: the unused atom arcs
    and edges into Y, the unused entering arcs outside T, and the trees
    with a foothold in Y or an arc in T.  Every such set passes exactly
    when the minimum cut, the most flow w can send to the sink, is at
    least the number of trees; when it is not, the last, failed
    augmenting search reaches the source side of a short cut.  The
    network has:

    - atom vertex v: an atom arc t->h becomes the edge h->t, with
      capacity the number of its unused parallel copies, and an atom
      edge oriented t->h becomes the edge h->t of capacity 1, whose
      residual twin t->h takes the unit when the edge is flipped;
    - entering group: the unused entering arcs with one head h and one
      hit mask, with an edge h->group of capacity their count;
    - tree group: the trees with one foothold and the same hitting
      entering groups, with an edge to the sink of capacity their count
      and unbounded edges into it from its foothold vertices and its
      hitting groups.

    A group on the source side without its head costs the cut at least as
    much as the same cut with the group moved across, so minimum cuts
    keep T consistent with no edge to enforce it.  Trees whose foothold
    holds w cross every such cut, so they are left out and lower the
    target instead.  After a check that finds a short set, ``shortfall``
    is the target less the flow: how far that set's slack falls below
    the check's ``extra``.  Atom arcs, edges and entering groups are built
    once.  Tree groups follow the footholds: they come after every other
    node, and a check rebuilds them only when its groups differ from the
    last check's.  Each flow runs on a copy of the capacities.
    """

    def __init__(
        self,
        n: int,
        trees: Sequence[int],
        cands: Sequence[tuple[int, int, int]],
        gmask: int,
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
        # group its arcs' tail bits
        self.node_bits = {v: 1 << v for v in range(n)}
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
                    e = group_edge[h, hit] = _add_edge(*net, h, len(self.adj) - 1, 0)
                self.node_bits[self.head[e]] = self.node_bits.get(self.head[e], 0) | tb
            self.cap[e] += 1
            self.cand_edge.append(e)
        # atom edges, as (tail, head) vertices, are the candidates after
        # the arcs, each on the network edge that holds its unit
        self.first_edge = len(self.cands)
        self.cands += _edge_cands(edges)
        self.cand_edge += [_add_edge(*net, h, t, 1) for t, h in edges]
        # the entering-group nodes that hit each tree
        self.hit_by = {
            i: tuple(self.head[e] for (_h, hit), e in group_edge.items() if hit >> i & 1)
            for i in trees
        }
        self.fixed = (len(self.head), len(self.adj))
        self.groups: dict[tuple[int, tuple[int, ...]], int] | None = None
        self.touched: list[int] = []
        self.shortfall = 0

    def take(self, k: int, used: int) -> None:
        """Mark candidate ``k`` used (``used`` 1) or unused again (-1)."""
        self.cap[self.cand_edge[k]] -= used

    def flip(self, k: int) -> None:
        """Reverse atom edge ``k``: its unit and its candidate move to the residual twin."""
        k += self.first_edge
        e = self.cand_edge[k]
        self.cap[e], self.cap[e ^ 1] = self.cap[e ^ 1], self.cap[e]
        self.cand_edge[k] = e ^ 1
        tb, hb, hit = self.cands[k]
        self.cands[k] = (hb, tb, hit)

    def cut(
        self,
        wbit: int,
        footholds: Mapping[int, int],
        avoid: int = 0,
        extra: int = 0,
        both: bool = False,
    ) -> int | None:
        """Y plus the tail bits of T, for a set with slack below ``extra``, or None.

        The sets searched hold ``wbit`` and not the bit ``avoid``, which
        one unbounded edge ties to the sink.  With ``both`` every atom
        edge counts in both directions, so a set it finds short is short
        in every orientation.
        """
        groups: dict[tuple[int, tuple[int, ...]], int] = {}
        for i in self.trees:
            foothold = footholds[i]
            if not foothold & wbit:
                key = (foothold, self.hit_by[i])
                groups[key] = groups.get(key, 0) + 1
        target = sum(groups.values()) + extra
        if not target:
            return None
        if groups != self.groups:
            self._set_groups(groups)
        head, adj, sink = self.head, self.adj, len(self.adj) - 1
        cap = self.cap[:]
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
        return sum(self.node_bits.get(v, 0) for v in reached) or None

    def _set_groups(self, groups: dict[tuple[int, tuple[int, ...]], int]) -> None:
        """Replace the tree groups, kept after the lasting nodes, and the sink after them."""
        head, cap, adj = self.head, self.cap, self.adj
        n_edges, n_nodes = self.fixed
        for u in self.touched:
            adj[u].pop()
        del head[n_edges:], cap[n_edges:], adj[n_nodes:]
        self.touched = []  # the lasting tail of each edge into a group
        sink = n_nodes + len(groups)
        adj += [[] for _ in range(len(groups) + 1)]
        for c, ((foothold, hit_by), count) in enumerate(groups.items(), n_nodes):
            _add_edge(head, cap, adj, c, sink, count)
            tails = list(hit_by)
            while foothold:
                low = foothold & -foothold
                tails.append(low.bit_length() - 1)
                foothold ^= low
            for u in tails:
                _add_edge(head, cap, adj, u, c, math.inf)
            self.touched += tails
        self.groups = groups


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
) -> tuple[dict[int, int], int]:
    """Augment along shortest paths; the source side of a cut below ``limit``, and the flow.

    The nodes the failed search reached, or none once ``limit`` flows.
    A flow below ``limit`` is the capacity of the cut returned.
    """
    flow = 0
    while flow < limit:
        pred = {s: -1}
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and head[e] not in pred:
                    pred[head[e]] = e
                    queue.append(head[e])
            if t in pred:
                break
        else:
            return pred, flow
        push = limit - flow
        v = t
        while v != s:
            e = pred[v]
            push = min(push, cap[e])
            v = head[e ^ 1]
        v = t
        while v != s:
            e = pred[v]
            cap[e] -= push
            cap[e ^ 1] += push
            v = head[e ^ 1]
        flow += push
    return {}, flow


def validate_digraph_packing(
    d: DirectedView, roots: Sequence[str], packing: DigraphPacking
) -> CheckResult:
    """Check shape, spanning sets, and arc-disjointness of a packing."""
    if len(packing.trees) != len(roots):
        return CheckResult(
            False, f"expected {len(roots)} trees, got {len(packing.trees)}"
        )
    used: dict[tuple[str, str], int] = {}
    for tree in packing.trees:
        for a in tree.arcs:
            known = d.arc_by_key.get(a.key)
            if known is None:
                return CheckResult(
                    False,
                    f"tree {tree.root_index + 1} uses unknown arc {a.id!r}",
                )
            kind = "edge" if a.origin == "edge" else "arc"
            if (a.tail, a.head) != (known.tail, known.head):
                return CheckResult(
                    False,
                    f"{kind} {a.id} used as {a.tail}->{a.head}, "
                    f"not {known.tail}->{known.head}",
                )
            if a.key in used:
                return CheckResult(False, f"{kind} {a.id} used twice")
            used[a.key] = tree.root_index
    reach: dict[str, frozenset[str]] = {}  # searched once per distinct root
    for i, tree in enumerate(packing.trees):
        if tree.root_index != i:
            return CheckResult(False, f"tree {i + 1} carries root index {tree.root_index + 1}")
        r = roots[i]
        hops = [(a.tail, a.head) for a in tree.arcs]
        if r not in reach:
            reach[r] = reachable_in_view(d, r)
        verdict = _check_arborescence(hops, r, reach[r], i)
        if not verdict:
            return verdict
    return OK_RESULT
