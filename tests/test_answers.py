"""Pinned solver answers.

The solver is deterministic, so its answers on fixed seeded corpora are
pinned by digests.  A change that alters any answer, or makes an answer
depend on string hashing, fails here.  Every vertex set is sorted in the
canonical form, so a digest does not depend on set order.
"""

from __future__ import annotations

import hashlib
import json
import random

from arbopack import (
    DigraphPacking,
    MixedPacking,
    arcs_view,
    pack_reachability,
    parse_mixed_graph,
    solve,
)
from instance_gen import bench_workloads, random_digraph_instance, random_mixed_instance

ANSWERS_SHA256 = "540b6a8e7c8b6f39bc66207e736a5fccc52b48f03ee5c222cb87925103a72b3c"
DIGRAPH_ANSWERS_SHA256 = "12a0a48f7e43795ed63f1868ac61cbf4b102ee678adf30b386e4cf1442444e30"
BENCH_ANSWERS_SHA256 = "00c451f29ad7dd5639d7f053941b96120381c498a028e973d854a6e7c82f105f"
CERTIFY_ANSWERS_SHA256 = "1a463d4a305167325bf75655d3ae20542137f4d53b7b2d034426b8b1f10b6984"


def canonical(result) -> str:
    """An answer as a string that is equal exactly when the answers are."""
    if isinstance(result, DigraphPacking):
        body = [
            [t.root_index, [[a.id, a.tail, a.head, a.origin] for a in t.arcs]]
            for t in result.trees
        ]
        return json.dumps({"feasible": True, "trees": body})
    if isinstance(result, frozenset):
        return json.dumps({"feasible": False, "violated": sorted(result)})
    if isinstance(result, MixedPacking):
        body = [
            [t.root_index, t.root, list(t.arcs), [[u.id, u.tail, u.head] for u in t.edges]]
            for t in result.trees
        ]
        return json.dumps({"feasible": True, "trees": body})
    return json.dumps(
        {
            "feasible": False,
            "atom_index": result.atom_index,
            "bisets": [[sorted(b.outer), sorted(b.inner)] for b in result.bisets],
            "lhs": result.lhs,
            "rhs": result.rhs,
        }
    )


def test_random_corpus_answers_pinned():
    rng = random.Random(4242)
    h = hashlib.sha256()
    for _ in range(1000):
        g, roots = random_mixed_instance(rng, max_v=9, max_e=12, max_a=8)
        h.update(canonical(solve(g, roots)).encode() + b"\n")
    assert h.hexdigest() == ANSWERS_SHA256


def test_digraph_packing_answers_pinned():
    # Pins each arc the greedy picks in every atom, and each violated set.
    rng = random.Random(4343)
    h = hashlib.sha256()
    for _ in range(3000):
        g, roots = random_digraph_instance(rng, max_v=8, max_a=14, max_k=4)
        h.update(canonical(pack_reachability(arcs_view(g), roots)).encode() + b"\n")
    assert h.hexdigest() == DIGRAPH_ANSWERS_SHA256


def bench_corpus(workload: str, seed: int, size: int):
    """The benchmark's own corpus, read from ``bench/workloads.py``."""
    return bench_workloads().corpus(workload, seed, size)


def test_bench_corpus_answers_pinned():
    # The corpora whose atoms turn the most candidate arcs down.  A change
    # to bench/workloads.py changes them, and the digest must then be
    # recorded again, from the commit before the change.
    h = hashlib.sha256()
    for workload in ("pack_heavy", "many_atoms"):
        for inst in bench_corpus(workload, 1, 110):
            g, roots = parse_mixed_graph(inst.text)
            h.update(canonical(solve(g, roots)).encode() + b"\n")
    assert h.hexdigest() == BENCH_ANSWERS_SHA256


def test_certify_corpus_answers_pinned():
    # The corpus whose infeasible atoms of 6 to 8 vertices reach the
    # certificate search; the other digests reach only smaller ones.
    h = hashlib.sha256()
    for inst in bench_corpus("certify_heavy", 1, 110):
        g, roots = parse_mixed_graph(inst.text)
        h.update(canonical(solve(g, roots)).encode() + b"\n")
    assert h.hexdigest() == CERTIFY_ANSWERS_SHA256
