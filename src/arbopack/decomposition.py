"""Reachability structure: atoms, bi-sets, demand counts, atom slices.

Each root reaches a vertex set U_i.  Vertices with the same nonempty set
of reaching roots form an *atom*; vertices reached by nobody belong to no
atom and to no tree.  Demands are expressed through bi-sets: nested pairs
(outer, inner) of vertex sets.  The demand of a bi-set counts the roots
whose tree is forced to enter the inner set across the outer "wall".

An atom's certificate names each arc entering it that a part holds as
the terminal ``t:<arc-id>``; :func:`lift_biset` lifts such a part by arc
id, on the input graph, and :func:`_certificate_sides` counts a lifted
family's two sides, for the solver and the checker alike.  One indexed
pass over the graph sets up every atom, so an atom's set-up reads its
own part of the graph, in integers, not the whole of it.  The auxiliary
graphs and the requirement sweep of the exact orientation fallback are
in ``arbopack.exhaustive``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvariantError
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


def _certificate_sides(
    g: MixedGraph,
    roots: Sequence[str],
    dec: AtomDecomposition,
    bisets: Sequence[BiSet],
) -> tuple[int, int]:
    """A bi-set family's two sides over ``g``, in one pass over its edges and one over its arcs.

    ``lhs`` counts each edge whose ends lie in two different inner sets,
    or in one inner set and in none (so never a loop), plus, per bi-set,
    each arc into its inner set from outside its outer set.  ``rhs`` is
    the summed demand (:func:`p_value`).  The vertices must be ``g``'s;
    overlapping inner sets raise ``ValueError``.
    """
    part_of = {v: i for i, b in enumerate(bisets) for v in b.inner}
    if len(part_of) < sum(len(b.inner) for b in bisets):
        raise ValueError("subpartition parts overlap")
    part = part_of.get
    # edges and arcs are unpacked: a tuple's items read faster than its fields
    lhs = sum(part(u, -1) != part(v, -1) for _id, u, v in g.edges)
    outers = [b.outer for b in bisets]
    lhs += sum(1 for _id, t, h in g.arcs if h in part_of and t not in outers[part_of[h]])
    rhs = sum(p_value(dec, roots, b) for b in bisets)
    return lhs, rhs


# ---------------------------------------------------------------------------
# atom slices


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
    or in none.  Each entering arc's ``t:<arc-id>`` is looked up among
    the vertex names, until its atom has one.  Nothing is cached.
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
    names = g.vertex_set
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
            if reserved[j] is None and (name := f"{RESERVED_TERMINAL_PREFIX}{a[0]}") in names:
                reserved[j] = name
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
