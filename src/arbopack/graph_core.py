"""Mixed multigraph model, packings, parsing, orientations, and cut primitives.

A mixed graph combines undirected edges and directed arcs over a shared
vertex set.  Everything here is immutable after construction and every
operation is a pure function, so instances can be shared freely between
threads.

Vertex ids are arbitrary whitespace-free tokens.  Internal indices follow
first-appearance order, and any "deterministic order" promised by this
package means ascending internal index (for edges and arcs: declaration
order).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError

#: vertex-id prefix reserved for the terminal vertices of auxiliary graphs
RESERVED_TERMINAL_PREFIX = "t:"


class _Value:
    """Base of the value types that coerce, validate or cache.

    A subclass lists its fields in ``_fields`` and stores them from its
    own ``__init__`` with ``object.__setattr__``; after that they cannot
    be assigned or deleted.  Instances compare equal, and hash, by the
    tuple of their fields, and equal only instances of the same class.
    They keep a ``__dict__``, so ``functools.cached_property`` works.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Edge(NamedTuple):
    """Undirected edge; parallel edges are distinguished by id."""

    id: str
    u: str
    v: str

    @property
    def ends(self) -> frozenset[str]:
        return frozenset((self.u, self.v))

    def is_loop(self) -> bool:
        return self.u == self.v


class Arc(NamedTuple):
    """Directed arc from ``tail`` to ``head``."""

    id: str
    tail: str
    head: str

    def is_loop(self) -> bool:
        return self.tail == self.head


class CheckResult(NamedTuple):
    """Verdict of a validator: truthy when the check passed."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


OK_RESULT = CheckResult(True)


class MixedGraph(_Value):
    """Immutable mixed multigraph over named vertices.

    Self-loops are accepted but never contribute to cut counts or
    packings; they can never appear in an arborescence.
    """

    _fields = ("vertices", "edges", "arcs")
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    arcs: tuple[Arc, ...]

    def __init__(
        self, vertices: Iterable[str], edges: Iterable[Edge] = (), arcs: Iterable[Arc] = ()
    ):
        vertices, edges, arcs = tuple(vertices), tuple(edges), tuple(arcs)
        seen: set[str] = set()
        for v in vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex id {v!r}")
            seen.add(v)
        eids: set[str] = set()
        for eid, u, v in edges:
            if eid in eids:
                raise ValueError(f"duplicate edge id {eid!r}")
            eids.add(eid)
            for x in (u, v):
                if x not in seen:
                    raise ValueError(f"unknown vertex {x!r} on edge {eid!r}")
        aids: set[str] = set()
        for aid, tail, head in arcs:
            if aid in aids:
                raise ValueError(f"duplicate arc id {aid!r}")
            aids.add(aid)
            for x in (tail, head):
                if x not in seen:
                    raise ValueError(f"unknown vertex {x!r} on arc {aid!r}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "arcs", arcs)

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def vertex_index(self) -> Mapping[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_by_id(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def arc_by_id(self) -> Mapping[str, Arc]:
        return {a.id: a for a in self.arcs}

    @cached_property
    def _successors(self) -> Mapping[str, list[str]]:
        """Mixed-path successors: arc heads, and the far end of each edge."""
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            succ[a.tail].append(a.head)
        for e in self.edges:
            succ[e.u].append(e.v)
            succ[e.v].append(e.u)
        return succ

    def index(self, v: str) -> int:
        try:
            return self.vertex_index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def require_vertices(self, xs: Iterable[str]) -> frozenset[str]:
        """``xs`` as a frozenset; ``ValueError`` if a member is not a vertex.

        The error names the least stray string, so it does not depend on
        string hashing; strays that are not strings (say, from JSON input)
        come after every string and are ordered by type name and ``repr``.
        """
        xs = frozenset(xs)
        stray = xs - self.vertex_set
        if stray:
            first = min(
                stray,
                key=lambda v: (0, v) if isinstance(v, str) else (1, type(v).__name__, repr(v)),
            )
            raise ValueError(f"unknown vertex {first!r}")
        return xs


class Orientation(_Value):
    """Total orientation of an edge set: edge-id -> (tail, head)."""

    _fields = ("direction",)
    direction: Mapping[str, tuple[str, str]]

    def __init__(self, direction: Mapping[str, tuple[str, str]]):
        object.__setattr__(self, "direction", dict(direction))

    def edge_ids(self) -> frozenset[str]:
        return frozenset(self.direction)


class Subpartition(_Value):
    """Pairwise-disjoint nonempty vertex subsets."""

    _fields = ("parts",)
    parts: tuple[frozenset[str], ...]

    def __init__(self, parts: Iterable[Iterable[str]]):
        parts = tuple(frozenset(p) for p in parts)
        seen: set[str] = set()
        for p in parts:
            if not p:
                raise ValueError("subpartition contains an empty part")
            if p & seen:
                raise ValueError("subpartition parts overlap")
            seen |= p
        object.__setattr__(self, "parts", parts)


class EdgeUse(NamedTuple):
    """An undirected edge consumed by a tree, with its chosen direction."""

    id: str
    tail: str
    head: str


class MixedTree(NamedTuple):
    """One mixed arborescence: native arcs plus directed edge usages."""

    root_index: int
    root: str
    arcs: tuple[str, ...]
    edges: tuple[EdgeUse, ...]


class MixedPacking(NamedTuple):
    trees: tuple[MixedTree, ...]


def _packing_from_owners(
    g: MixedGraph, roots: Sequence[str], arc_owner, edge_use
) -> MixedPacking:
    """The packing whose trees take ``g``'s arcs and edges as two position-indexed arrays say.

    ``arc_owner[pos]`` is the tree owning ``g.arcs[pos]``, and
    ``edge_use[pos]`` is ``(tree, tail, head)`` for ``g.edges[pos]``, or
    None when no tree takes it.  One scan of each gives every tree its
    arcs and edges in declaration order.
    """
    tree_arcs: list[list[str]] = [[] for _ in roots]
    tree_edges: list[list[EdgeUse]] = [[] for _ in roots]
    for a, i in zip(g.arcs, arc_owner):
        if i is not None:
            tree_arcs[i].append(a.id)
    for e, use in zip(g.edges, edge_use):
        if use is not None:
            tree_edges[use[0]].append(EdgeUse(e.id, use[1], use[2]))
    return MixedPacking(tuple(
        MixedTree(i, r, tuple(tree_arcs[i]), tuple(tree_edges[i])) for i, r in enumerate(roots)
    ))


# ---------------------------------------------------------------------------
# parsing


def parse_mixed_graph(text: str) -> tuple[MixedGraph, list[str]]:
    """Parse the line-based graph format.

    Grammar (one declaration per line, ``#`` starts a comment)::

        vertex <id>
        edge <id1> <id2> [<edge-id>]
        arc <tail-id> <head-id> [<arc-id>]
        root <id>

    Edges and arcs without an explicit id get ``e<n>`` / ``a<n>`` where
    ``n`` is the declaration ordinal of their kind.  Roots keep file
    order; the i-th root line defines tree index i.
    """
    vertices: list[str] = []
    vset: set[str] = set()
    pending_edges: list[tuple[int, str | None, str, str]] = []
    pending_arcs: list[tuple[int, str | None, str, str]] = []
    roots: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tok = body.split()
        kind = tok[0]
        if kind == "vertex":
            if len(tok) != 2:
                raise ParseError("expected 'vertex <id>'", lineno)
            v = tok[1]
            if v.startswith(RESERVED_TERMINAL_PREFIX):
                raise ParseError(
                    f"vertex id {v!r} uses the reserved "
                    f"{RESERVED_TERMINAL_PREFIX!r} prefix",
                    lineno,
                )
            if v in vset:
                raise ParseError(f"duplicate vertex {v!r}", lineno)
            vertices.append(v)
            vset.add(v)
        elif kind in ("edge", "arc"):
            if len(tok) not in (3, 4):
                raise ParseError(f"expected '{kind} <v> <v> [<id>]'", lineno)
            a, b = tok[1], tok[2]
            for x in (a, b):
                if x not in vset:
                    raise ParseError(f"unknown vertex {x!r}", lineno)
            item = (lineno, tok[3] if len(tok) == 4 else None, a, b)
            (pending_edges if kind == "edge" else pending_arcs).append(item)
        elif kind == "root":
            if len(tok) != 2:
                raise ParseError("expected 'root <id>'", lineno)
            if tok[1] not in vset:
                raise ParseError(f"unknown vertex {tok[1]!r}", lineno)
            roots.append(tok[1])
        else:
            raise ParseError(f"unknown declaration {kind!r}", lineno)

    def finish(pending, kind, prefix, make):
        used: dict[str, int] = {}
        for lineno, xid, _a, _b in pending:
            if xid is not None:
                if xid in used:
                    raise ParseError(f"duplicate {kind} id {xid!r}", lineno)
                used[xid] = lineno
        out = []
        for ordinal, (lineno, xid, a, b) in enumerate(pending, start=1):
            if xid is None:
                xid = f"{prefix}{ordinal}"
                if xid in used:
                    raise ParseError(
                        f"auto-assigned id {xid!r} collides with an explicit id",
                        lineno,
                    )
                used[xid] = lineno
            out.append(make(xid, a, b))
        return tuple(out)

    edges = finish(pending_edges, "edge", "e", lambda i, a, b: Edge(i, a, b))
    arcs = finish(pending_arcs, "arc", "a", lambda i, a, b: Arc(i, a, b))
    return MixedGraph(tuple(vertices), edges, arcs), roots


# ---------------------------------------------------------------------------
# reachability and cut primitives


def mixed_reachable_set(g: MixedGraph, s: str) -> frozenset[str]:
    """All vertices reachable from ``s`` by a mixed path.

    Arcs are traversed tail to head only; edges both ways (each edge acts
    as a pair of antiparallel arcs).
    """
    if s not in g.vertex_set:
        raise ValueError(f"unknown vertex {s!r}")
    return _reachable(g._successors, s)


def _reachable(succ: Mapping[str, Sequence[str]], s: str) -> frozenset[str]:
    """Breadth-first closure of ``s``; ``succ`` must have a key per vertex."""
    seen = {s}
    queue = deque([s])
    while queue:
        for w in succ[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def _check_arborescence(
    hops: Sequence[tuple[str, str]], root: str, span: frozenset[str], i: int
) -> CheckResult:
    """Verdict on tree ``i``, given as ``(tail, head)`` hops.

    The hops must form an arborescence rooted at ``root`` that spans
    exactly ``span``.
    """
    # first-appearance order, so the vertex a reason names does not
    # depend on string hashing
    verts = dict.fromkeys([root, *(v for hop in hops for v in hop)]).keys()
    indeg: dict[str, int] = {}
    for _t, h in hops:
        indeg[h] = indeg.get(h, 0) + 1
    if indeg.get(root, 0) != 0:
        return CheckResult(False, f"tree {i + 1}: root {root} has an incoming arc")
    for v in verts:
        if v != root and indeg.get(v, 0) != 1:
            return CheckResult(
                False, f"tree {i + 1}: vertex {v} has in-degree {indeg.get(v, 0)}"
            )
    succ: dict[str, list[str]] = {v: [] for v in verts}
    for t, h in hops:
        succ[t].append(h)
    if _reachable(succ, root) != verts:
        return CheckResult(
            False, f"tree {i + 1} is not an arborescence rooted at {root}"
        )
    if verts != span:
        return CheckResult(False, f"tree {i + 1} does not span U_{i + 1}")
    return OK_RESULT


def crossing_edge_count(g: MixedGraph, p: Subpartition) -> int:
    """Edges joining distinct parts of ``p``, or a part and the outside.

    An edge counts when at least one endpoint lies in some part and no
    single part contains both endpoints.  Self-loops never count.
    """
    for part in p.parts:
        g.require_vertices(part)
    part_of: dict[str, int] = {}
    for i, part in enumerate(p.parts):
        for v in part:
            part_of[v] = i
    n = 0
    for _eid, u, v in g.edges:
        if u == v:
            continue
        pu = part_of.get(u)
        pv = part_of.get(v)
        if (pu is not None or pv is not None) and pu != pv:
            n += 1
    return n


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


def lexicographic_orientation(g: MixedGraph, edge_ids: Iterable[str] | None = None) -> Orientation:
    """Orient each edge from its smaller to its larger internal index."""
    idx = g.vertex_index
    chosen = g.edges if edge_ids is None else [g.edge_by_id[i] for i in edge_ids]
    direction = {}
    for e in chosen:
        if idx[e.u] <= idx[e.v]:
            direction[e.id] = (e.u, e.v)
        else:
            direction[e.id] = (e.v, e.u)
    return Orientation(direction)
