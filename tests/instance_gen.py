"""Seeded random instance generators shared by the property suites.

Every generator takes a ``random.Random`` so failures replay from the
seed printed by the calling test.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from arbopack import Arc, Edge, MixedGraph, Orientation


def random_mixed_instance(
    rng: random.Random,
    max_v: int = 7,
    max_e: int = 8,
    max_a: int = 10,
    max_k: int = 3,
) -> tuple[MixedGraph, list[str]]:
    n = rng.randint(1, max_v)
    vs = [f"n{i}" for i in range(n)]
    edges = tuple(
        Edge(f"e{i}", rng.choice(vs), rng.choice(vs))
        for i in range(rng.randint(0, max_e))
    )
    arcs = tuple(
        Arc(f"a{i}", rng.choice(vs), rng.choice(vs))
        for i in range(rng.randint(0, max_a))
    )
    g = MixedGraph(tuple(vs), edges, arcs)
    roots = [rng.choice(vs) for _ in range(rng.randint(1, max_k))]
    return g, roots


def random_digraph_instance(
    rng: random.Random, max_v: int = 6, max_a: int = 10, max_k: int = 3
) -> tuple[MixedGraph, list[str]]:
    n = rng.randint(1, max_v)
    vs = [f"n{i}" for i in range(n)]
    arcs = tuple(
        Arc(f"a{i}", rng.choice(vs), rng.choice(vs))
        for i in range(rng.randint(0, max_a))
    )
    g = MixedGraph(tuple(vs), (), arcs)
    roots = [rng.choice(vs) for _ in range(rng.randint(1, max_k))]
    return g, roots


def sparse_digraph_instance(
    rng: random.Random, min_v: int = 30, max_v: int = 80, max_k: int = 6
) -> tuple[MixedGraph, list[str]]:
    """Digraph with about one arc per two vertices, mostly pointing onward.

    Arcs join vertices at most a few positions apart, so reach sets, and
    with them atoms, stay small while the graph is far past the size an
    exhaustive cut sweep can check.  Roots repeat often.
    """
    n = rng.randint(min_v, max_v)
    vs = [f"n{i}" for i in range(n)]
    arcs = []
    for i in range(rng.randint(n // 2, n)):
        t = rng.randrange(n)
        h = min(n - 1, max(0, t + rng.randint(-2, 6)))
        arcs.append(Arc(f"a{i}", vs[t], vs[h]))
    g = MixedGraph(tuple(vs), (), tuple(arcs))
    pool = rng.sample(vs, rng.randint(1, max_k))
    roots = [rng.choice(pool) for _ in range(rng.randint(1, max_k))]
    return g, roots


def random_orientation(rng: random.Random, g: MixedGraph) -> Orientation:
    direction = {}
    for e in g.edges:
        direction[e.id] = (e.u, e.v) if rng.random() < 0.5 else (e.v, e.u)
    return Orientation(direction)


def repeated_root_all_reachable(
    rng: random.Random, max_v: int = 6, max_e: int = 6, max_a: int = 6, max_k: int = 3
) -> tuple[MixedGraph, str, int]:
    """Mixed graph where one root (repeated k times) reaches everything."""
    from arbopack import mixed_reachable_set

    n = rng.randint(1, max_v)
    vs = [f"n{i}" for i in range(n)]
    edges = [
        Edge(f"e{i}", rng.choice(vs), rng.choice(vs))
        for i in range(rng.randint(0, max_e))
    ]
    arcs = [
        Arc(f"a{i}", rng.choice(vs), rng.choice(vs))
        for i in range(rng.randint(0, max_a))
    ]
    r = rng.choice(vs)
    g = MixedGraph(tuple(vs), tuple(edges), tuple(arcs))
    missing = set(vs) - mixed_reachable_set(g, r)
    for idx, v in enumerate(sorted(missing)):
        edges.append(Edge(f"aug{idx}", r, v))
    g = MixedGraph(tuple(vs), tuple(edges), tuple(arcs))
    k = rng.randint(1, max_k)
    return g, r, k


def disjoint_copies(g: MixedGraph, roots, n: int) -> tuple[MixedGraph, list[str]]:
    """``n`` disjoint copies of ``g`` and its roots, copy k's names prefixed ``c<k>_``.

    No arc or edge joins two copies, so each keeps its own atoms.
    """
    vertices, edges, arcs, all_roots = [], [], [], []
    for k in range(n):
        p = f"c{k}_"
        vertices += [p + v for v in g.vertices]
        edges += [Edge(p + e.id, p + e.u, p + e.v) for e in g.edges]
        arcs += [Arc(p + a.id, p + a.tail, p + a.head) for a in g.arcs]
        all_roots += [p + r for r in roots]
    return MixedGraph(tuple(vertices), tuple(edges), tuple(arcs)), all_roots


def deep_atom_text(k: int = 520) -> str:
    """Arcs r->a and a->b, each k times, with root r repeated k times.

    One 3-vertex atom hosts all k trees, so a packing takes 2k arcs, one
    at a time: more than the interpreter's default recursion limit.
    """
    lines = ["vertex r", "vertex a", "vertex b"]
    lines += ["arc r a"] * k + ["arc a b"] * k + ["root r"] * k
    return "\n".join(lines) + "\n"


def doubled_cycle_text(n: int, k: int) -> str:
    """Two arcs v_i->v_(i+1) around an n-cycle, with root v0 repeated k times.

    The cycle is one atom.  Two roots pack; three need a third arc into
    every vertex but v0, and fail.
    """
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"arc v{i} v{(i + 1) % n}" for i in range(n) for _ in range(2)]
    lines += ["root v0"] * k
    return "\n".join(lines) + "\n"


def first_fit_stuck_text() -> str:
    """Eight arcs into one 3-vertex atom with roots n2, n0, n2, which packs.

    First fit, taking each tree's first usable arc with no cut check,
    gets stuck on it, so the checked greedy packs it.
    """
    arcs = [("n0", "n2"), ("n1", "n0"), ("n2", "n0"), ("n1", "n0")]
    arcs += [("n0", "n0"), ("n2", "n1"), ("n2", "n1"), ("n0", "n1")]
    lines = [f"vertex n{i}" for i in range(3)] + [f"arc {t} {h}" for t, h in arcs]
    lines += ["root n2", "root n0", "root n2"]
    return "\n".join(lines) + "\n"


def bench_workloads():
    """The benchmark's ``bench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
