"""Reachability structure: atoms, bi-sets, demand counts, auxiliary graphs.

Each root reaches a vertex set U_i.  Vertices with the same nonempty set
of reaching roots form an *atom*; vertices reached by nobody belong to no
atom and to no tree.  Demands are expressed through bi-sets: nested pairs
(outer, inner) of vertex sets.  The demand of a bi-set counts the roots
whose tree is forced to enter the inner set across the outer "wall".

Per atom, an *auxiliary graph*, which only the exact orientation
fallback builds, replaces every arc entering the atom by a fresh
terminal vertex ``t:<arc-id>`` with a single outgoing arc to the
original head.  Subsets of the auxiliary vertex set that contain the
head of every chosen terminal ("consistent" sets) carry the demand
function down to plain set functions, one independent subproblem per
atom; :func:`lift_biset` lifts one by arc id, on the input graph.  One
indexed pass over the graph sets up every atom, so an atom's set-up
reads its own part of the graph, in integers, not the whole of it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import CapacityError, InvariantError
from .graph_core import RESERVED_TERMINAL_PREFIX, Arc, Edge, MixedGraph, _reachable, _Value


class BiSet(_Value):
    """Nested pair of vertex sets: inner within outer."""

    _fields = ("outer", "inner")
    outer: frozenset[str]
    inner: frozenset[str]

    def __init__(self, outer: Iterable[str], inner: Iterable[str]):
        outer, inner = frozenset(outer), frozenset(inner)
        if not inner <= outer:
            raise ValueError("bi-set inner set must be contained in the outer set")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def wall(self) -> frozenset[str]:
        return self.outer - self.inner


class AtomDecomposition(_Value):
    """Reachability sets, atoms, and per-atom root index sets.

    ``atom_roots[j]`` is the set of root indices whose tree must span
    atom ``j``.  Root indices are 0-based here; the CLI presents them
    1-based.
    """

    _fields = ("reach", "atoms", "atom_roots")
    reach: tuple[frozenset[str], ...]
    atoms: tuple[frozenset[str], ...]
    atom_roots: tuple[frozenset[int], ...]

    def __init__(
        self,
        reach: tuple[frozenset[str], ...],
        atoms: tuple[frozenset[str], ...],
        atom_roots: tuple[frozenset[int], ...],
    ):
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "atom_roots", atom_roots)

    @cached_property
    def atom_of(self) -> Mapping[str, int]:
        """Each atom vertex's atom; :func:`compute_atoms` files it as it groups them."""
        out: dict[str, int] = {}
        for j, members in enumerate(self.atoms):
            for v in members:
                out[v] = j
        return out


def compute_atoms(g: MixedGraph, roots: Sequence[str]) -> AtomDecomposition:
    """Atoms of ``g`` with respect to the given (possibly repeated) roots.

    Vertices are grouped by their nonempty reaching-root sets; atom order
    follows the first appearance of each root set in the vertex order.
    A root repeated in ``roots`` is searched from once: vertices are keyed
    by the distinct roots that reach them, and each atom's key is turned
    into root indices once.
    """
    for r in roots:
        if r not in g.vertex_set:
            raise ValueError(f"unknown root {r!r}")
    indices: dict[str, list[int]] = {}
    for i, r in enumerate(roots):
        indices.setdefault(r, []).append(i)
    reach_of = {r: _reachable(g._successors, r) for r in indices}
    # bit d of a vertex's key: the d-th distinct root reaches it
    key_of: dict[str, int] = {}
    for d, r in enumerate(indices):
        for v in reach_of[r]:
            key_of[v] = key_of.get(v, 0) | 1 << d
    members: list[list[str]] = []
    keys: list[int] = []
    where: dict[int, int] = {}
    atom_of: dict[str, int] = {}
    for v in g.vertices:
        key = key_of.get(v)
        if key is None:
            continue
        j = where.get(key)
        if j is None:
            j = len(members)
            where[key] = j
            members.append([])
            keys.append(key)
        members[j].append(v)
        atom_of[v] = j
    # reachability only grows along an arc, so root sets must be nested;
    # an Arc holds (id, tail, head), read by index, which is faster than
    # by field
    for a in g.arcs:
        key = key_of.get(a[1])
        if key is not None and key & ~key_of.get(a[2], 0):
            raise InvariantError(
                f"arc {a.id!r} violates root-set monotonicity between atoms"
            )
    per_root = list(indices.values())
    atom_roots = []
    for key in keys:
        idx: list[int] = []
        while key:
            low = key & -key
            idx += per_root[low.bit_length() - 1]
            key ^= low
        atom_roots.append(frozenset(idx))
    dec = AtomDecomposition(
        reach=tuple(reach_of[r] for r in roots),
        atoms=tuple(frozenset(m) for m in members),
        atom_roots=tuple(atom_roots),
    )
    # atom_of is a cached property: the dict built above is its value
    object.__setattr__(dec, "atom_of", atom_of)
    return dec


def biset_in_degree(g: MixedGraph, x: BiSet) -> int:
    """Arcs of ``g`` from outside the outer set into the inner set."""
    outer, inner = x.outer, x.inner
    g.require_vertices(outer)
    return sum(1 for a in g.arcs if a[2] in inner and a[1] not in outer)


def p_value(dec: AtomDecomposition, roots: Sequence[str], x: BiSet) -> int:
    """Demand of a bi-set: root indices forced to enter ``x.inner``.

    Index i counts when tree i must reach into the inner set (inner is
    inside U_i), its root is not already there, and the wall blocks every
    detour (the wall avoids U_i entirely).  Indices are counted, not
    distinct root vertices, so repeated roots each contribute.
    """
    if not x.inner:
        raise ValueError("bi-set inner set is empty")
    wall = x.wall()
    n = 0
    for i, r in enumerate(roots):
        u = dec.reach[i]
        if x.inner <= u and r not in x.inner and not (wall & u):
            n += 1
    return n


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


class _AtomSlice(NamedTuple):
    """One atom's part of a graph, each list in declaration order.

    Vertex k of the atom is ``vertices[k]``, with bit k.  The positions
    index the graph's ``edges`` and ``arcs``.
    """

    vertices: list[str]
    edges: list[Edge]  # both ends in the atom
    arcs: list[Arc]  # head in the atom
    crossing: Edge | None  # the first edge with exactly one end in the atom
    reserved: str | None  # the first terminal name of an entering arc that a vertex has
    pairs: list[tuple[int, int]]  # per non-loop edge, its ends' indices
    edge_pos: list[int]  # per non-loop edge, its position
    cands: list[tuple[int, int, int]]  # per non-loop arc, (tail bit, head bit, hit)
    arc_pos: list[int]  # per non-loop arc, its position
    heads: list[int]  # the head index of each entering arc
    at: Mapping[str, tuple[int, int]]  # every atom vertex's atom and index in it


def _atom_slices(g: MixedGraph, dec: AtomDecomposition) -> list[_AtomSlice]:
    """Every atom's slice of ``g``, set up in one pass over it.

    Per-atom set-up then reads its atom only, in integers, so a solve
    costs the graph once plus the atoms, not atoms times the graph.  An
    entering arc's tail gets bit n + k, for atom size n and candidate k,
    and its ``hit`` has bit i set when tree i spans its tail: the tail
    lies in one atom, whose root mask meets the atom's in those trees,
    or in none.  Terminal names are looked up only when some vertex name
    starts with ``t:``.  Nothing is cached.
    """
    atom_of, count = dec.atom_of, len(dec.atoms)
    vertices, edges, arcs, pairs, edge_pos, cands, arc_pos, heads = (
        [[] for _ in range(count)] for _ in range(8)
    )
    crossing, reserved = [None] * count, [None] * count
    at: dict[str, tuple[int, int]] = {}
    for v in g.vertices:
        j = atom_of.get(v)
        if j is not None:
            at[v] = j, len(vertices[j])
            vertices[j].append(v)
    for pos, e in enumerate(g.edges):
        ju, u = at.get(e[1], (None, None))
        jv, v = at.get(e[2], (None, None))
        if ju != jv:
            for j in (ju, jv):
                if j is not None and crossing[j] is None:
                    crossing[j] = e
        elif ju is not None:
            edges[ju].append(e)
            if u != v:
                pairs[ju].append((u, v))
                edge_pos[ju].append(pos)
    rootmask = [sum(map((1).__lshift__, r)) for r in dec.atom_roots]
    names = g.vertex_set if any(
        isinstance(v, str) and v.startswith(RESERVED_TERMINAL_PREFIX) for v in g.vertices
    ) else ()
    # an Arc holds (id, tail, head), read by index
    for pos, a in enumerate(g.arcs):
        j, h = at.get(a[2], (None, None))
        if j is None:
            continue
        arcs[j].append(a)
        jt, t = at.get(a[1], (None, None))
        if jt != j:
            hit = 0 if jt is None else rootmask[jt] & rootmask[j]
            cands[j].append((1 << len(vertices[j]) + len(cands[j]), 1 << h, hit))
            heads[j].append(h)
            if names and reserved[j] is None:
                name = f"{RESERVED_TERMINAL_PREFIX}{a[0]}"
                reserved[j] = name if name in names else None
        elif t != h:
            cands[j].append((1 << t, 1 << h, 0))
        else:
            continue
        arc_pos[j].append(pos)
    columns = (vertices, edges, arcs, crossing, reserved, pairs, edge_pos, cands, arc_pos, heads)
    return list(map(_AtomSlice._make, zip(*columns, repeat(at))))


def _check_atom(sl: _AtomSlice) -> None:
    """Raise for an edge crossing the atom's boundary, then for a vertex named as its terminal."""
    if sl.crossing is not None:
        raise InvariantError(
            f"edge {sl.crossing.id!r} crosses the atom boundary; atoms cannot share edges"
        )
    if sl.reserved is not None:
        raise ValueError(
            f"vertex {sl.reserved!r} uses the {RESERVED_TERMINAL_PREFIX!r} prefix "
            "reserved for terminal ids"
        )


def build_auxiliary(
    g: MixedGraph,
    dec: AtomDecomposition,
    j: int,
    slices: Sequence[_AtomSlice] | None = None,
) -> AuxiliaryGraph:
    """Auxiliary graph of atom ``j`` (0-based).

    ``slices`` are ``_atom_slices(g, dec)``, computed here when not given;
    a caller building every atom's graph computes them once.
    """
    if not 0 <= j < len(dec.atoms):
        raise ValueError(f"atom index {j} out of range")
    gamma = dec.atoms[j]
    if slices is None:
        slices = _atom_slices(g, dec)
    sl = slices[j]
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


def lift_biset(g: MixedGraph, gamma: frozenset[str], part: Iterable[str]) -> BiSet:
    """Bi-set over ``g`` of a certificate part of the atom ``gamma``.

    The atom vertices are the inner set; each ``t:<id>`` adds the tail of
    arc ``id``, which must enter the atom at a vertex of the part, to the
    outer set.  Raises ``ValueError`` for any other name or no atom vertex.
    """
    xs = frozenset(part)
    inner = xs & gamma
    if not inner:
        raise ValueError("part has no vertex of the atom")
    outer = set(inner)
    cut = len(RESERVED_TERMINAL_PREFIX)
    for t in xs - inner:
        a = g.arc_by_id.get(t[cut:]) if t.startswith(RESERVED_TERMINAL_PREFIX) else None
        if a is None or a.tail in gamma or a.head not in gamma:
            raise ValueError(f"{t!r} is neither an atom vertex nor the terminal of an arc into it")
        if a.head not in inner:
            raise ValueError(f"terminal {t!r} is in the part but its head {a.head!r} is not")
        outer.add(a.tail)
    return BiSet(outer=outer, inner=inner)


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


def _requirements(
    gmask: int,
    footholds: Mapping[int, int],
    arcs: Sequence[tuple[int, int]],
    terminals: Sequence[tuple[int, int, int]],
    max_enum_vertices: int,
    atom: int | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Inner sets of an atom that still need arcs, in descending mask order.

    ``footholds[i]`` is the atom part tree i already holds (its root, or
    what it spans so far), ``arcs`` the ``(tail, head)`` masks of the
    atom's own arcs, and ``terminals`` one ``(bit, head bit, hit)`` per
    terminal, where ``hit`` has bit i set when the terminal would give
    tree i a foothold.  The need of a nonempty ``Y`` inside ``gmask`` is
    the worst case, over the terminal completions of ``Y``, of the trees
    with a foothold in neither ``Y`` nor the completion, minus the arcs
    entering both.  Yields ``(Y, need, Y plus that completion)`` for
    every need >= 1.

    The sweep enumerates the subsets of the atom and, per set, the
    submasks of the trees some terminal hits; their bits together are
    gated by ``max_enum_vertices``, and the error names ``atom``.
    """
    hit_any = 0
    for _bit, _head, hit in terminals:
        hit_any |= hit
    n = gmask.bit_count() + hit_any.bit_count()
    if n > max_enum_vertices:
        raise CapacityError(
            f"|V_j| = {n} exceeds max_enum_vertices = {max_enum_vertices}",
            limit=max_enum_vertices,
            observed=n,
            atom=atom,
        )
    y = gmask
    while y:
        free = nq = 0
        for i, foothold in footholds.items():
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
                yield y, best - rho, xmask
        y = (y - 1) & gmask


# ---------------------------------------------------------------------------
# bit-indexed evaluation context


class AtomContext(NamedTuple):
    """Bitmask evaluation context for one auxiliary graph.

    Bit i corresponds to ``order[i]``; atom members come first, then
    terminals, so subsets of the atom occupy the low bits.  All demand
    and in-degree evaluations used by the exhaustive code paths go
    through this context.
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
