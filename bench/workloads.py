"""Seeded instance corpora whose verdicts are fixed by construction.

Every instance is written straight to the line format the CLI reads, so
generating a corpus never imports or calls the solver and set-up time does
not depend on the code under test.  The seed only shuffles declaration
order, edge ends and a few endpoint choices; the mix of families and sizes
in a corpus is fixed per workload, which keeps the work per run steady
across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    feasible: bool  # the verdict every correct solver must return


@dataclass
class _Component:
    vertices: list[str] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)
    arcs: list[tuple[str, str]] = field(default_factory=list)
    roots: list[str] = field(default_factory=list)


def cycle_copies(rng: random.Random, p: str, n: int, k: int) -> _Component:
    """k parallel copies of an n-cycle, one root repeated k times.

    Every cut is crossed by 2k edges, so an orientation with k arc-disjoint
    paths from the root to every vertex exists (Nash-Williams): feasible.
    """
    vs = [f"{p}v{i}" for i in range(n)]
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n) for _ in range(k)]
    return _Component(vs, edges, [], [rng.choice(vs)] * k)


def staggered_segments(
    rng: random.Random, p: str, length: int, segments: int, drop: bool = False
) -> _Component:
    """Paths s = 0..S-1 with s+1 copies of every link and a root at each start.

    Segment s receives one arc from every earlier segment, so its atom hosts
    trees 0..s and tree s' < s enters through the arc from segment s'.  With
    ``drop`` the arc from segment 0 into the last segment is left out: that
    atom still hosts S trees (tree 0 reaches it through segment 1) but has
    only S - 2 entering arcs for its S - 1 outside trees, so it is infeasible.
    """
    if drop and segments < 3:
        raise ValueError("dropping an arc keeps the atoms only with 3+ segments")
    segs = [[f"{p}s{s}_{j}" for j in range(length)] for s in range(segments)]
    edges = [
        (seg[j], seg[j + 1])
        for s, seg in enumerate(segs)
        for j in range(length - 1)
        for _ in range(s + 1)
    ]
    arcs = [
        (rng.choice(segs[src]), rng.choice(segs[dst]))
        for dst in range(1, segments)
        for src in range(dst)
        if not (drop and dst == segments - 1 and src == 0)
    ]
    return _Component(
        [v for seg in segs for v in seg], edges, arcs, [seg[0] for seg in segs]
    )


def doubled_path(rng: random.Random, p: str, n: int) -> _Component:
    """A path with one edge per link and one root repeated twice.

    Two edge-disjoint spanning trees need 2(n - 1) edges and the path has
    n - 1, so every n >= 2 is infeasible.
    """
    vs = [f"{p}v{i}" for i in range(n)]
    edges = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    r = rng.choice(vs)
    return _Component(vs, edges, [], [r, r])


def _render(rng: random.Random, parts: list[_Component], last: _Component | None = None) -> str:
    """Shuffled instance text; ``last`` keeps its vertices at the end.

    Atoms are numbered by first appearance in vertex order and the solver
    stops at the first atom it cannot orient, so declaring an infeasible
    component last makes every other atom get oriented first.
    """
    head, edges, arcs, roots = [], [], [], []
    for c in parts + ([last] if last else []):
        edges += [tuple(rng.sample(e, 2)) for e in c.edges]
        arcs += c.arcs
        roots += c.roots
    for c in parts:
        head += c.vertices
    rng.shuffle(head)
    tail = list(last.vertices) if last else []
    rng.shuffle(tail)
    rng.shuffle(edges)
    rng.shuffle(arcs)
    rng.shuffle(roots)
    lines = [f"vertex {v}" for v in head + tail]
    lines += [f"edge {u} {v}" for u, v in edges]
    lines += [f"arc {t} {h}" for t, h in arcs]
    lines += [f"root {r}" for r in roots]
    return "\n".join(lines) + "\n"


def _build(rng: random.Random, p: str, spec: tuple) -> _Component:
    kind, *args = spec
    if kind == "cycle":
        return cycle_copies(rng, p, *args)
    if kind == "staggered":
        return staggered_segments(rng, p, *args)
    if kind == "staggered_drop":
        return staggered_segments(rng, p, *args, drop=True)
    return doubled_path(rng, p, *args)


# Family mixes, one entry per instance and repeated to the corpus size.
# Each family's cost barely depends on the seed, and the percentiles fall
# inside a family, not in a gap between two, so they are steady across
# seeds.  Small atoms keep a pass over the corpus near half a second, so a
# run times every instance many times.
# pack_heavy: feasible 5-8-vertex atoms, so the branching search and the
# orientation table share the time and the certificate DP never runs.  The
# median falls among the staggered segments, whose search varies least
# with the seed, and the 90th percentile among the 8-cycles.
_PACK_HEAVY = [
    ("cycle", 6, 3), ("staggered", 5, 3), ("staggered", 5, 3), ("cycle", 7, 3), ("cycle", 8, 2),
]
# certify_heavy: infeasible 6-8-vertex atoms, so the maximum-deficit DP
# dominates and packing never runs.  The median falls among the 7-vertex
# paths and the 90th percentile among the 8-vertex ones; a path's cost
# hardly varies with the seed.
_CERTIFY_HEAVY = [
    ("path", 7), ("path", 7), ("path", 7), ("staggered_drop", 6, 3), ("path", 8),
]


def _pack_heavy(rng: random.Random, i: int) -> Instance:
    spec = _PACK_HEAVY[i % len(_PACK_HEAVY)]
    comp = _build(rng, "", spec)
    return Instance(f"pack_heavy-{i:03d}-{spec[0]}{spec[1]}", _render(rng, [comp]), True)


def _certify_heavy(rng: random.Random, i: int) -> Instance:
    spec = _CERTIFY_HEAVY[i % len(_CERTIFY_HEAVY)]
    comp = _build(rng, "", spec)
    return Instance(f"certify_heavy-{i:03d}-{spec[0]}{spec[1]}", _render(rng, [comp]), False)


# many_atoms: 16 components, 58 vertices and 40 atoms of at most 3
# vertices per instance.  Every instance holds each entry below twice, so the
# exhaustive kernels stay cheap and the per-graph glue, which grows with
# the whole graph times the number of atoms, dominates.
_SMALL_KINDS = [
    ("staggered", 1, 3), ("staggered", 2, 3), ("staggered", 1, 2), ("staggered", 1, 4),
    ("staggered", 2, 2), ("cycle", 3, 1), ("staggered", 1, 3), ("staggered", 2, 2),
]
MANY_ATOMS_COMPONENTS = 16


def _many_atoms(rng: random.Random, i: int) -> Instance:
    # One in five instances is half as large again (24 components, 87
    # vertices, 60 atoms), so the 90th percentile falls inside that group
    # and measures its cost, not the slowest of many equal instances.
    size = MANY_ATOMS_COMPONENTS * 3 // 2 if i % 5 == 4 else MANY_ATOMS_COMPONENTS
    parts = [
        _build(rng, f"c{c}_", _SMALL_KINDS[(c + i) % len(_SMALL_KINDS)])
        for c in range(size)
    ]
    # Two in five instances end with an infeasible component.  Those skip
    # packing and are cheaper, so an even split would put the median
    # latency in the gap between the two groups.
    last = None
    if i % 5 == 1:
        last = doubled_path(rng, "x_", 4)
    elif i % 5 == 3:
        last = staggered_segments(rng, "x_", 2, 3, drop=True)
    feasible = last is None
    return Instance(f"many_atoms-{i:03d}", _render(rng, parts, last), feasible)


WORKLOADS = {
    "pack_heavy": _pack_heavy,
    "certify_heavy": _certify_heavy,
    "many_atoms": _many_atoms,
}


def corpus(workload: str, seed: int, size: int) -> list[Instance]:
    """``size`` instances of ``workload``; the same seed gives the same bytes."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, i) for i in range(size)]
