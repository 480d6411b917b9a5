"""Straight-from-the-definition oracles used to cross-check the fast paths.

The set-level helpers work on plain frozensets and explicit enumeration
with no bitmask tricks, deliberately duplicating none of the library's
optimized code.  ``brute_force_feasible`` and
``check_spanning_packing_condition`` enumerate orientations and
subpartitions over vertex bitmasks and never call the solver.  The last
section holds the cut, cover and certificate helpers that only the tests
call; the solver itself never needs them.  They evaluate demands through
the reference encoder, ``AtomContext``, which gives an auxiliary graph's
vertices bits by name.  The two sections before it keep the slower forms
the solver's code must match exactly: that encoder, the certificate
search and edge fixing; and the frozenset-keyed atom decomposition, the
auxiliary graph and an atom's starting state built from whole-graph
scans, with the packing step check as a requirement sweep.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

from arbopack import (
    DEFAULT_BOUNDS,
    Arc,
    AuxiliaryGraph,
    AtomDecomposition,
    BiSet,
    Bounds,
    CapacityError,
    CoverRequirement,
    InvariantError,
    MixedGraph,
    Orientation,
    SubpartitionCertificate,
    build_auxiliary,
    mixed_reachable_set,
)
from arbopack.decomposition import lift_biset, p_value
from arbopack.graph_core import RESERVED_TERMINAL_PREFIX, _reachable
from arbopack.orientation import _part

#: largest ground-set size ``check_spanning_packing_condition`` enumerates
MAX_SUBPARTITION_GROUND = 10


def subsets(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def naive_consistent(aux: AuxiliaryGraph, xs: frozenset[str]) -> bool:
    for t in xs:
        if t in aux.terminal_origin:
            arc_id, _tail = aux.terminal_origin[t]
            if aux.graph.arc_by_id[arc_id].head not in xs:
                return False
    return True


def naive_family(aux: AuxiliaryGraph) -> list[frozenset[str]]:
    out = []
    for combo in subsets(aux.graph.vertices):
        xs = frozenset(combo)
        if xs & aux.gamma and naive_consistent(aux, xs):
            out.append(xs)
    return out


def naive_p(dec: AtomDecomposition, roots, outer, inner) -> int:
    outer, inner = frozenset(outer), frozenset(inner)
    n = 0
    for i, r in enumerate(roots):
        u = dec.reach[i]
        if inner <= u and r not in inner and not ((outer - inner) & u):
            n += 1
    return n


def naive_lift(aux: AuxiliaryGraph, xs: frozenset[str]) -> tuple[frozenset, frozenset]:
    inner = xs & aux.gamma
    tails = frozenset(aux.terminal_origin[t][1] for t in xs - aux.gamma)
    return inner | tails, inner


def naive_pj(aux, dec, roots, xs) -> int:
    outer, inner = naive_lift(aux, frozenset(xs))
    return naive_p(dec, roots, outer, inner)


def naive_rho_view(d: MixedGraph, outer, inner=None) -> int:
    """Arcs of ``d`` entering a set, or a bi-set when ``inner`` is given; edges are not counted."""
    outer = frozenset(outer)
    inner = outer if inner is None else frozenset(inner)
    return sum(1 for a in d.arcs if a.head in inner and a.tail not in outer)


def subpartitions(items):
    """All collections of disjoint nonempty subsets of ``items``.

    Each vertex either joins an existing part, opens a new part, or
    stays outside; each subpartition is produced exactly once.
    """
    items = list(items)

    def rec(idx, parts):
        if idx == len(items):
            yield [frozenset(p) for p in parts]
            return
        x = items[idx]
        yield from rec(idx + 1, parts)
        for i in range(len(parts)):
            parts[i].add(x)
            yield from rec(idx + 1, parts)
            parts[i].remove(x)
        parts.append({x})
        yield from rec(idx + 1, parts)
        parts.pop()

    yield from rec(0, [])


def naive_crossing_edges(g_edges, parts) -> int:
    """Edges joining distinct parts or a part and the outside."""
    n = 0
    for e in g_edges:
        if e.u == e.v:
            continue
        pu = next((i for i, p in enumerate(parts) if e.u in p), None)
        pv = next((i for i, p in enumerate(parts) if e.v in p), None)
        if (pu is not None or pv is not None) and pu != pv:
            n += 1
    return n


def naive_max_deficit(aux, dec, roots) -> int:
    """Best subpartition deficit by full enumeration over the family."""
    static = _static_arcs(aux)
    best = 0
    for parts in subpartitions(aux.graph.vertices):
        if not parts:
            continue
        if not all(p & aux.gamma and naive_consistent(aux, p) for p in parts):
            continue
        total = sum(
            naive_pj(aux, dec, roots, p) - _naive_rho_static(static, p) for p in parts
        )
        crossing = naive_crossing_edges(aux.graph.edges, parts)
        best = max(best, total - crossing)
    return best


def _static_arcs(aux):
    return [(a.tail, a.head) for a in aux.graph.arcs if a.tail != a.head]


def _naive_rho_static(static, xs) -> int:
    return sum(1 for t, h in static if h in xs and t not in xs)


def naive_orientation_covers(aux, dec, roots, direction: dict) -> bool:
    """Check every family member against its demand under an orientation."""
    static = _static_arcs(aux)
    oriented = list(direction.values())
    for xs in naive_family(aux):
        rho = _naive_rho_static(static, xs) + sum(
            1 for t, h in oriented if h in xs and t not in xs and t != h
        )
        if rho < naive_pj(aux, dec, roots, xs):
            return False
    return True


def naive_orientation_exists(aux, dec, roots) -> bool:
    """Exhaust all orientations of the atom's non-loop edges."""
    edges = [e for e in aux.graph.edges if not e.is_loop()]
    loops = [e for e in aux.graph.edges if e.is_loop()]
    for flips in product((0, 1), repeat=len(edges)):
        direction = {
            e.id: ((e.u, e.v) if f == 0 else (e.v, e.u))
            for e, f in zip(edges, flips)
        }
        direction.update({e.id: (e.u, e.v) for e in loops})
        if naive_orientation_covers(aux, dec, roots, direction):
            return True
    return False


def enumerate_biset_family(g: MixedGraph, dec: AtomDecomposition):
    """All demand-family bi-sets with outer sets inside the vertex set."""
    verts = list(g.vertices)
    for j, gamma in enumerate(dec.atoms):
        outside = [v for v in verts if v not in gamma]
        for inner_combo in subsets(sorted(gamma)):
            if not inner_combo:
                continue
            inner = frozenset(inner_combo)
            for extra in subsets(outside):
                yield BiSet(outer=inner | frozenset(extra), inner=inner)


def set_condition_holds(d: MixedGraph, roots, reach) -> bool:
    """Cut condition of the digraph ``d`` over every vertex subset, reach sets given."""
    for combo in subsets(d.vertices):
        xs = frozenset(combo)
        if not xs:
            continue
        need = sum(
            1 for r, u in zip(roots, reach) if r not in xs and u & xs
        )
        if naive_rho_view(d, xs) < need:
            return False
    return True


def cut_deficit(d: MixedGraph, roots, xs) -> int:
    """Roots outside ``xs`` whose reach set in the digraph ``d`` meets it, less arcs entering it."""
    xs = frozenset(xs)
    need = sum(
        1 for r in roots if r not in xs and mixed_reachable_set(d, r) & xs
    )
    return need - naive_rho_view(d, xs)


def biset_condition_holds(d: MixedGraph, g: MixedGraph, dec, roots) -> bool:
    for b in enumerate_biset_family(g, dec):
        if naive_rho_view(d, b.outer, b.inner) < p_value(dec, roots, b):
            return False
    return True


def brute_force_feasible(
    g: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
) -> bool:
    """Exhaustive feasibility oracle, independent of the solver.

    Tries every orientation of the edges; an orientation works when it
    keeps every vertex's set of reaching roots intact and the resulting
    digraph satisfies the cut condition.
    """
    n = len(g.vertices)
    if n > bounds.max_enum_vertices:
        raise CapacityError(
            f"|V| = {n} exceeds max_enum_vertices = {bounds.max_enum_vertices}"
        )
    plain_edges = [e for e in g.edges if not e.is_loop()]
    if len(plain_edges) > 12:
        raise CapacityError(f"|E| = {len(plain_edges)} exceeds the orientation bound 12")
    for r in roots:
        if r not in g.vertex_set:
            raise ValueError(f"unknown root {r!r}")

    bit = g.vertex_index
    base_reach = [
        sum(1 << bit[v] for v in mixed_reachable_set(g, r)) for r in roots
    ]
    root_bits = [1 << bit[r] for r in roots]
    native = [
        (1 << bit[a.tail], 1 << bit[a.head]) for a in g.arcs if not a.is_loop()
    ]
    edges = [(1 << bit[e.u], 1 << bit[e.v]) for e in plain_edges]

    size = 1 << n
    need = [0] * size
    rho_native = [0] * size
    boundary = [0] * size
    for mask in range(1, size):
        c = 0
        for rb, um in zip(root_bits, base_reach):
            if not rb & mask and um & mask:
                c += 1
        need[mask] = c
        rho_native[mask] = sum(1 for t, h in native if h & mask and not t & mask)
        boundary[mask] = sum(
            1 for bu, bv in edges if bool(bu & mask) != bool(bv & mask)
        )
    # quick refutation: even orienting every boundary edge inward is too little
    for mask in range(1, size):
        if rho_native[mask] + boundary[mask] < need[mask]:
            return False

    succ_base: list[list[int]] = [[] for _ in range(n)]
    for t, h in native:
        succ_base[t.bit_length() - 1].append(h.bit_length() - 1)

    m = len(edges)
    for combo in range(1 << m):
        succ = [list(s) for s in succ_base]
        for pos, (bu, bv) in enumerate(edges):
            if combo >> pos & 1:
                succ[bv.bit_length() - 1].append(bu.bit_length() - 1)
            else:
                succ[bu.bit_length() - 1].append(bv.bit_length() - 1)
        ok = True
        for rb, um in zip(root_bits, base_reach):
            if _reach_mask(succ, rb.bit_length() - 1) != um:
                ok = False
                break
        if not ok:
            continue
        for mask in range(1, size):
            if need[mask] == 0:
                continue
            rho = rho_native[mask]
            if rho < need[mask]:
                for pos, (bu, bv) in enumerate(edges):
                    if combo >> pos & 1:
                        if bu & mask and not bv & mask:
                            rho += 1
                    elif bv & mask and not bu & mask:
                        rho += 1
            if rho < need[mask]:
                ok = False
                break
        if ok:
            return True
    return False


def _reach_mask(succ: list[list[int]], s: int) -> int:
    seen = 1 << s
    stack = [s]
    while stack:
        u = stack.pop()
        for w in succ[u]:
            if not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return seen


def check_spanning_packing_condition(g: MixedGraph, r: str, k: int) -> bool:
    """Spanning-packing oracle for a single root repeated ``k`` times.

    Every subpartition of the vertices other than ``r`` must offer at
    least ``k`` entries per part, counting crossing edges once and
    entering arcs per part.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r not in g.vertex_set:
        raise ValueError(f"unknown root {r!r}")
    if k == 0:
        return True
    ground = [v for v in g.vertices if v != r]
    if len(ground) > MAX_SUBPARTITION_GROUND:
        raise CapacityError(
            f"|V|-1 = {len(ground)} exceeds the subpartition bound "
            f"{MAX_SUBPARTITION_GROUND}"
        )
    bit = g.vertex_index
    arcs = [(1 << bit[a.tail], 1 << bit[a.head]) for a in g.arcs if not a.is_loop()]
    edges = [(1 << bit[e.u], 1 << bit[e.v]) for e in g.edges if not e.is_loop()]

    def violated(parts: list[int]) -> bool:
        total_rho = 0
        for pm in parts:
            total_rho += sum(1 for t, h in arcs if h & pm and not t & pm)
        crossing = 0
        for bu, bv in edges:
            pu = next((i for i, pm in enumerate(parts) if bu & pm), None)
            pv = next((i for i, pm in enumerate(parts) if bv & pm), None)
            if (pu is not None or pv is not None) and pu != pv:
                crossing += 1
        return crossing + total_rho < k * len(parts)

    parts: list[int] = []

    def rec(idx: int) -> bool:
        """True when some extension violates the condition."""
        if idx == len(ground):
            return bool(parts) and violated(parts)
        b = 1 << bit[ground[idx]]
        if rec(idx + 1):  # leave the vertex out of every part
            return True
        for i in range(len(parts)):
            parts[i] |= b
            if rec(idx + 1):
                return True
            parts[i] &= ~b
        parts.append(b)
        if rec(idx + 1):
            return True
        parts.pop()
        return False

    return not rec(0)


# ---------------------------------------------------------------------------
# the reference encoder, and reference forms of the certificate search and
# the edge fixing


class AtomContext(NamedTuple):
    """Bitmask evaluation context for one auxiliary graph, built from names.

    Bit i corresponds to ``order[i]``; atom members come first, then
    terminals, so subsets of the atom occupy the low bits.  A terminal's
    bit is its place among the terminals, not its arc's candidate index
    as in the solver's slice, and its ``hit`` is read from the trees'
    reach sets; the helpers below evaluate demands through it.
    """

    aux: AuxiliaryGraph
    order: tuple[str, ...]
    bit_of: Mapping[str, int]
    gamma_mask: int
    full_mask: int
    tree_indices: tuple[int, ...]
    root_bits: Mapping[int, int]  # root index -> singleton mask inside gamma (0 if outside)
    internal_arcs: tuple[tuple[int, int], ...]  # (tail mask, head mask), loops dropped
    # (bit, head bit, hit) per terminal; hit has bit i set when the
    # original tail lies in U_i
    terminals: tuple[tuple[int, int, int], ...]
    edge_bits: tuple[tuple[str, int, int], ...]  # (edge id, bit u, bit v), loops dropped
    loop_edge_ids: tuple[str, ...]

    @classmethod
    def build(
        cls, aux: AuxiliaryGraph, dec: AtomDecomposition, roots: Sequence[str]
    ) -> "AtomContext":
        g = aux.graph
        order = tuple(v for v in g.vertices if v in aux.gamma) + tuple(
            v for v in g.vertices if v not in aux.gamma
        )
        bit_of = {v: i for i, v in enumerate(order)}
        gamma_mask = sum(1 << bit_of[v] for v in aux.gamma)
        full_mask = (1 << len(order)) - 1
        R = tuple(sorted(dec.atom_roots[aux.atom_index]))
        root_bits = {
            i: (1 << bit_of[roots[i]]) if roots[i] in aux.gamma else 0 for i in R
        }
        internal = []
        terms = []
        for a in g.arcs:
            if a.tail in aux.terminal_origin:
                _arc_id, tail0 = aux.terminal_origin[a.tail]
                hit = sum(1 << i for i in R if tail0 in dec.reach[i])
                terms.append((1 << bit_of[a.tail], 1 << bit_of[a.head], hit))
            elif not a.is_loop():
                internal.append((1 << bit_of[a.tail], 1 << bit_of[a.head]))
        edge_bits = [(e.id, 1 << bit_of[e.u], 1 << bit_of[e.v]) for e in g.edges if not e.is_loop()]
        loop_ids = [e.id for e in g.edges if e.is_loop()]
        return cls(
            aux=aux,
            order=order,
            bit_of=bit_of,
            gamma_mask=gamma_mask,
            full_mask=full_mask,
            tree_indices=R,
            root_bits=root_bits,
            internal_arcs=tuple(internal),
            terminals=tuple(terms),
            edge_bits=tuple(edge_bits),
            loop_edge_ids=tuple(loop_ids),
        )

    @property
    def size(self) -> int:
        return len(self.order)

    @property
    def edge_pairs(self) -> list[tuple[int, int]]:
        """The ``(u bit, v bit)`` of each non-loop edge, as the certificate search takes them."""
        return [(bu, bv) for _eid, bu, bv in self.edge_bits]

    def to_vertices(self, mask: int) -> frozenset[str]:
        return frozenset(v for i, v in enumerate(self.order) if mask >> i & 1)

    def p_of(self, mask: int) -> int:
        """Demand of a family member given as a mask."""
        disq = 0
        for bit, _head, hit in self.terminals:
            if mask & bit:
                disq |= hit
        return sum(1 for i in self.tree_indices if not (self.root_bits[i] & mask or disq >> i & 1))

    def rho_static(self, mask: int) -> int:
        """In-degree from the atom's own arcs (terminal arcs included)."""
        return sum(1 for tail, head in self.internal_arcs if head & mask and not tail & mask) + sum(
            1 for bit, head, _hit in self.terminals if head & mask and not bit & mask
        )

    def h_of(self, mask: int) -> int:
        """Requirement of one family member: demand minus fixed in-degree."""
        return self.p_of(mask) - self.rho_static(mask)


def reference_context(req: CoverRequirement) -> AtomContext:
    aux = build_auxiliary(req.graph, req.dec, req.atom_index)
    return AtomContext.build(aux, req.dec, req.roots)


def reference_sweep(gmask, footholds, arcs, terminals):
    """Inner sets of an atom that still need arcs, as ``(Y, need, Y plus a completion)``.

    ``footholds[i]`` is the atom part tree i already holds (its root, or
    what it spans so far), ``arcs`` the ``(tail, head)`` masks of the
    atom's own arcs, and ``terminals`` one ``(bit, head bit, hit)`` per
    terminal, where ``hit`` has bit i set when the terminal would give
    tree i a foothold.  The slow form of ``exhaustive._reduced_table``:
    per nonempty ``Y`` inside ``gmask``, every subset ``d`` of the trees
    with no foothold in ``Y`` is tried in ascending order, and takes in
    the terminals entering ``Y`` whose hits lie inside it.  The value is
    the trees left without a foothold minus the terminals left out; the
    first best ``d`` gives the completion.
    """
    for y in range(1, gmask + 1):
        if y & ~gmask:
            continue
        free = sum(1 << i for i, f in footholds.items() if not f & y)
        if not free:
            continue
        rho = sum(1 for t, h in arcs if h & y and not t & y)
        entering = [(bit, hit & free) for bit, head, hit in terminals if head & y]
        best = None
        for d in range(free + 1):
            if d & ~free:
                continue
            chosen = [(bit, hq) for bit, hq in entering if not hq & ~d]
            held = 0
            for _bit, hq in chosen:
                held |= hq
            value = (free & ~held).bit_count() - (len(entering) - len(chosen))
            if best is None or value > best[0]:
                best = (value, y | sum(bit for bit, _hq in chosen))
        if best[0] > rho:
            yield y, best[0] - rho, best[1]


def reference_table(ctx: AtomContext) -> dict[int, tuple[int, int]]:
    """The requirement table swept over the reference context's bits."""
    sweep = reference_sweep(ctx.gamma_mask, ctx.root_bits, ctx.internal_arcs, ctx.terminals)
    return {y: (need, xmask) for y, need, xmask in sweep}


def _oriented(ctx: AtomContext, dirs) -> Orientation:
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


def _ref_edge_ends(ctx: AtomContext, dirs) -> list[tuple[int, int]]:
    return [(bu, bv) if d == 0 else (bv, bu) for (_eid, bu, bv), d in zip(ctx.edge_bits, dirs)]


def _ref_cross_into(ends, y: int) -> int:
    return sum(1 for t, h in ends if h & y and not t & y)


def _neg_lex(parts: tuple[int, ...]) -> tuple[int, ...]:
    # larger under max-comparison exactly when lexicographically smaller
    return tuple(-p for p in parts)


def reference_certificate(
    req: CoverRequirement, table: dict[int, tuple[int, int]], edges=None, names=None
) -> SubpartitionCertificate | None:
    """The certificate search with a max over negated part tuples.

    ``edges`` are ``(u bit, v bit)`` pairs, all of the atom's non-loop
    edges by default.  ``names`` turns a table's completion mask into its
    vertex names; by default it reads the bits ``_reduced_table`` uses,
    those of the solver's slice of the auxiliary graph.
    """
    ctx = reference_context(req)
    if names is None:
        names = partial(_part, req._slice)
    pool = {y: (need, xm) for y, (need, xm) in table.items() if need >= 1}
    if not pool:
        return None
    if edges is None:
        edges = ctx.edge_pairs

    def in_edges(y: int) -> int:
        return sum(1 for bu, bv in edges if bu & y and bv & y)

    def touch(w: int) -> int:
        return sum(1 for bu, bv in edges if (bu | bv) & w)

    best: dict[int, tuple[int, int, tuple[int, ...]]] = {0: (0, 0, ())}
    pool_items = sorted(pool.items())
    for w in range(1, ctx.gamma_mask + 1):
        if w & ~ctx.gamma_mask:
            continue
        low = w & -w
        cur = None
        for y, (need, xm) in pool_items:
            if y & ~w or not y & low:
                continue
            prev = best.get(w ^ y)
            if prev is None:
                continue
            value = prev[0] + need + in_edges(y)
            parts = tuple(sorted(prev[2] + (xm,)))
            cand = (value, prev[1] - 1, parts)
            if cur is None or (cand[0], cand[1], _neg_lex(cand[2])) > (
                cur[0],
                cur[1],
                _neg_lex(cur[2]),
            ):
                cur = cand
        if cur is not None:
            best[w] = cur

    winner = None
    for w, (value, negparts, parts) in sorted(best.items()):
        if not parts:
            continue
        deficit = value - touch(w)
        key = (deficit, negparts, _neg_lex(parts))
        if winner is None or key > winner[0]:
            winner = (key, parts, deficit)
    if winner is None or winner[2] < 1:
        return None
    _key, parts, deficit = winner
    return SubpartitionCertificate(
        atom_index=ctx.aux.atom_index,
        parts=tuple(names(p) for p in parts),
        deficit=deficit,
    )


def reference_fix_edges(
    req: CoverRequirement, table: dict[int, tuple[int, int]], names=None
) -> Orientation:
    """The edge-fixing fallback that recounts every fixed edge on each trial.

    ``names`` is passed on to :func:`reference_certificate`.
    """
    ctx = reference_context(req)
    dirs: list[int] = []
    for pos in range(len(ctx.edge_bits)):
        for d in (0, 1):
            ends = _ref_edge_ends(ctx, dirs + [d])
            rest = {
                y: (need - _ref_cross_into(ends, y), xm) for y, (need, xm) in table.items()
            }
            if reference_certificate(req, rest, ctx.edge_pairs[pos + 1 :], names) is None:
                dirs.append(d)
                break
        else:
            raise InvariantError("no direction of an edge keeps the table certificate-free")
    return _oriented(ctx, dirs)


# ---------------------------------------------------------------------------
# reference forms of the atom decomposition, the auxiliary graph, an
# atom's starting state and the packing step check


def reference_decompose(graph, roots: Sequence[str]) -> AtomDecomposition:
    """Atoms keyed by frozensets of root indices, checked arc by arc."""
    for r in roots:
        if r not in graph.vertex_set:
            raise ValueError(f"unknown root {r!r}")
    reach_of = {r: _reachable(graph._successors, r) for r in dict.fromkeys(roots)}
    reach = tuple(reach_of[r] for r in roots)
    members: list[list[str]] = []
    keys: list[frozenset[int]] = []
    where: dict[frozenset[int], int] = {}
    for v in graph.vertices:
        key = frozenset(i for i, u in enumerate(reach) if v in u)
        if not key:
            continue
        j = where.get(key)
        if j is None:
            j = len(members)
            where[key] = j
            members.append([])
            keys.append(key)
        members[j].append(v)
    dec = AtomDecomposition(
        reach=reach, atoms=tuple(frozenset(m) for m in members), atom_roots=tuple(keys)
    )
    for a in graph.arcs:
        ju = dec.atom_of.get(a.tail)
        if ju is None:
            continue
        jv = dec.atom_of.get(a.head)
        if jv is None or not keys[ju] <= keys[jv]:
            raise InvariantError(
                f"arc {a.id!r} violates root-set monotonicity between atoms"
            )
    return dec


def reference_build_auxiliary(g: MixedGraph, dec: AtomDecomposition, j: int) -> AuxiliaryGraph:
    """Auxiliary graph of atom ``j``, from scans of every edge and arc of ``g``."""
    if not 0 <= j < len(dec.atoms):
        where = f" 1..{len(dec.atoms)}" if dec.atoms else ": the instance has no atoms"
        raise ValueError(f"atom index {j + 1} out of range{where}")
    gamma = dec.atoms[j]
    for e in g.edges:
        if (e.u in gamma) != (e.v in gamma):
            raise InvariantError(
                f"edge {e.id!r} crosses the atom boundary; atoms cannot share edges"
            )
    internal = [a for a in g.arcs if a.tail in gamma and a.head in gamma]
    entering = [a for a in g.arcs if a.head in gamma and a.tail not in gamma]
    terminals = [f"{RESERVED_TERMINAL_PREFIX}{a.id}" for a in entering]
    for t in terminals:
        if t in g.vertex_set:
            raise ValueError(
                f"vertex {t!r} uses the {RESERVED_TERMINAL_PREFIX!r} prefix "
                "reserved for terminal ids"
            )
    origin = {t: (a.id, a.tail) for t, a in zip(terminals, entering)}
    vertices = tuple(v for v in g.vertices if v in gamma) + tuple(terminals)
    edges = tuple(e for e in g.edges if e.u in gamma and e.v in gamma)
    arcs = tuple(internal) + tuple(
        Arc(a.id, t, a.head) for t, a in zip(terminals, entering)
    )
    graph = MixedGraph(vertices, edges, arcs)
    return AuxiliaryGraph(atom_index=j, graph=graph, gamma=gamma, terminal_origin=origin)


def reference_start_state(g: MixedGraph, dec: AtomDecomposition, j: int, roots: Sequence[str]):
    """Atom ``j``'s trees, footholds, arc candidates and starting edge ends, string-keyed.

    Scans the whole graph for the atom's vertices, edges and arcs, keys
    each vertex's bit by its name, and takes an entering arc's ``hit``
    from the trees' reach sets.  Raises for an edge crossing the atom's
    boundary, then for a vertex with the name of one of its terminals.
    ``ends`` points each non-loop edge away from the atom's roots (from
    the heads of its entering arcs when no root lies inside), by
    breadth-first distance over its edges and arcs.
    """
    gamma = dec.atoms[j]
    for e in g.edges:
        if (e.u in gamma) != (e.v in gamma):
            raise InvariantError(
                f"edge {e.id!r} crosses the atom boundary; atoms cannot share edges"
            )
    vertices = [v for v in g.vertices if v in gamma]
    arcs = [a for a in g.arcs if a.head in gamma]
    entering = [a for a in arcs if a.tail not in gamma]
    for a in entering:
        t = f"{RESERVED_TERMINAL_PREFIX}{a.id}"
        if t in g.vertex_set:
            raise ValueError(
                f"vertex {t!r} uses the {RESERVED_TERMINAL_PREFIX!r} prefix "
                "reserved for terminal ids"
            )
    at = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    trees = sorted(dec.atom_roots[j])
    start = {i: 1 << at[roots[i]] if roots[i] in gamma else 0 for i in trees}
    pairs = [(at[e.u], at[e.v]) for e in g.edges if e.u in gamma and not e.is_loop()]
    ends = []
    if pairs:
        near = [[] for _ in range(n)]
        for u, v in pairs:
            near[u].append(v)
            near[v].append(u)
        for a in arcs:
            if a.tail in gamma:
                near[at[a.tail]].append(at[a.head])
        sources = [at[roots[i]] for i in trees if roots[i] in gamma]
        dist = dict.fromkeys(sources or [at[a.head] for a in entering], 0)
        queue = list(dist)
        for u in queue:
            for v in near[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        ends = [(v, u) if dist.get(v, n) < dist.get(u, n) else (u, v) for u, v in pairs]
    cands = []
    for a in arcs:
        if a.is_loop():
            continue
        if a.tail in gamma:
            cands.append((1 << at[a.tail], 1 << at[a.head], 0))
        else:
            hit = sum(1 << i for i in trees if a.tail in dec.reach[i])
            cands.append((1 << n + len(cands), 1 << at[a.head], hit))
    return trees, start, cands, ends


def reference_step_check(gmask, footholds, atom_arcs, term_arcs, wbit: int) -> bool:
    """No inner set that still needs arcs contains ``wbit``.

    The arguments are those of :func:`reference_sweep`: the footholds and
    the unused atom and entering arcs after a packing step with head ``wbit``.
    """
    sweep = reference_sweep(gmask, footholds, atom_arcs, term_arcs)
    return not any(y & wbit for y, _need, _x in sweep)


# ---------------------------------------------------------------------------
# cut, cover and certificate helpers used only by the tests


def in_degree(d: MixedGraph, x: Iterable[str]) -> int:
    """Number of arcs entering ``x``: head inside, tail outside; edges are not counted."""
    xs = d.require_vertices(x)
    return sum(1 for a in d.arcs if a.head in xs and a.tail not in xs)


def entering_arcs(g: MixedGraph, x: Iterable[str]) -> list[str]:
    """Ids of arcs entering ``x``, in declaration order."""
    xs = g.require_vertices(x)
    return [a.id for a in g.arcs if a.head in xs and a.tail not in xs]


def induced(g: MixedGraph, x: Iterable[str]) -> tuple[list[str], list[str]]:
    """Edge and arc ids with both endpoints inside ``x``, declaration order."""
    xs = g.require_vertices(x)
    es = [e.id for e in g.edges if e.u in xs and e.v in xs]
    as_ = [a.id for a in g.arcs if a.tail in xs and a.head in xs]
    return es, as_


def biset_union(x: BiSet, y: BiSet) -> BiSet:
    return BiSet(x.outer | y.outer, x.inner | y.inner)


def biset_intersection(x: BiSet, y: BiSet) -> BiSet:
    return BiSet(x.outer & y.outer, x.inner & y.inner)


def in_family_F(dec: AtomDecomposition, x: BiSet) -> int | None:
    """Atom index when ``x`` belongs to the demand family, else ``None``.

    Membership requires a nonempty inner set inside a single atom and a
    wall disjoint from that atom.
    """
    if not x.inner:
        return None
    js = {dec.atom_of.get(v) for v in x.inner}
    if None in js or len(js) != 1:
        return None
    (j,) = js
    if x.wall() & dec.atoms[j]:
        return None
    return j


def p_j_value(
    g: MixedGraph,
    gamma: frozenset[str],
    dec: AtomDecomposition,
    roots: Sequence[str],
    x: Iterable[str],
) -> int:
    """Atom-level demand: the bi-set demand of the lifted set."""
    return p_value(dec, roots, lift_biset(g, gamma, x))


def verify_cut_condition(
    d: MixedGraph, roots: Sequence[str], bounds: Bounds = DEFAULT_BOUNDS
) -> frozenset[str] | None:
    """First vertex set violating the cut condition of the digraph ``d``, or ``None``.

    Checks, for every subset X, that the arcs entering X are at least as
    many as the roots outside X whose reach set meets X.  Subsets are
    scanned in ascending mask order over the vertex list.
    """
    n = len(d.vertices)
    if n > bounds.max_enum_vertices:
        raise CapacityError(
            f"|V| = {n} exceeds max_enum_vertices = {bounds.max_enum_vertices}"
        )
    for r in roots:
        if r not in d.vertex_set:
            raise ValueError(f"unknown root {r!r}")
    bit = {v: i for i, v in enumerate(d.vertices)}
    reach_masks = []
    root_bits = []
    for r in roots:
        u = mixed_reachable_set(d, r)
        reach_masks.append(sum(1 << bit[v] for v in u))
        root_bits.append(1 << bit[r])
    arcs = [
        (1 << bit[a.tail], 1 << bit[a.head]) for a in d.arcs if not a.is_loop()
    ]
    for mask in range(1, 1 << n):
        need = 0
        for rb, um in zip(root_bits, reach_masks):
            if not rb & mask and um & mask:
                need += 1
        if need == 0:
            continue
        rho = sum(1 for t, h in arcs if h & mask and not t & mask)
        if rho < need:
            return frozenset(v for v in d.vertices if 1 << bit[v] & mask)
    return None


def to_mask(ctx: AtomContext, xs: Iterable[str]) -> int:
    m = 0
    for v in xs:
        m |= 1 << ctx.bit_of[v]
    return m


def consistent(ctx: AtomContext, mask: int) -> bool:
    for bit, head, _hit in ctx.terminals:
        if mask & bit and not mask & head:
            return False
    return True


def in_family(ctx: AtomContext, mask: int) -> bool:
    return bool(mask & ctx.gamma_mask) and consistent(ctx, mask)


def iter_family(ctx: AtomContext):
    """All family members as masks, ascending."""
    for mask in range(1, ctx.full_mask + 1):
        if in_family(ctx, mask):
            yield mask


def check_cover(req: CoverRequirement, o: Orientation) -> frozenset[str] | None:
    """First family member (ascending mask order) left uncovered, if any.

    This is the literal full-family sweep; the solver's internal checks
    use the reduced table instead.
    """
    ctx = reference_context(req)
    if ctx.size > req.bounds.max_enum_vertices:
        raise CapacityError(
            f"|V_j| = {ctx.size} exceeds max_enum_vertices = "
            f"{req.bounds.max_enum_vertices}"
        )
    edge_ids = frozenset(e.id for e in ctx.aux.graph.edges)
    if o.edge_ids() != edge_ids:
        raise ValueError("orientation does not orient exactly the atom's edges")
    ends = []
    for eid, _bu, _bv in ctx.edge_bits:
        t, h = o.direction[eid]
        ends.append((1 << ctx.bit_of[t], 1 << ctx.bit_of[h]))
    for mask in iter_family(ctx):
        rho = ctx.rho_static(mask) + sum(1 for t, h in ends if h & mask and not t & mask)
        if rho < ctx.p_of(mask):
            return ctx.to_vertices(mask)
    return None


def subpartition_deficit(req: CoverRequirement, parts: Iterable[Iterable[str]]) -> int:
    """Summed requirement of the parts minus the crossing-edge supply."""
    ctx = reference_context(req)
    masks = []
    seen = 0
    for part in parts:
        m = to_mask(ctx, part)
        if not in_family(ctx, m):
            raise ValueError("subpartition part is not a member of the atom family")
        if m & seen:
            raise ValueError("subpartition parts overlap")
        seen |= m
        masks.append(m)
    total = sum(ctx.h_of(m) for m in masks)
    crossing = 0
    for _eid, bu, bv in ctx.edge_bits:
        pu = next((i for i, m in enumerate(masks) if bu & m), None)
        pv = next((i for i, m in enumerate(masks) if bv & m), None)
        if (pu is not None or pv is not None) and pu != pv:
            crossing += 1
    return total - crossing


def make_subpartition_certificate(
    req: CoverRequirement, parts: Iterable[Iterable[str]]
) -> SubpartitionCertificate:
    """Validated certificate from explicit parts; deficit must be positive."""
    parts = tuple(frozenset(p) for p in parts)
    deficit = subpartition_deficit(req, parts)
    if deficit < 1:
        raise ValueError(f"subpartition has deficit {deficit}; not a certificate")
    return SubpartitionCertificate(
        atom_index=req.atom_index, parts=parts, deficit=deficit
    )
