"""Pinned solver answers.

The solver is deterministic, so its answers on a fixed seeded corpus are
pinned by one digest.  A change that alters any answer, or makes an
answer depend on string hashing, fails here.  Every vertex set is sorted
in the canonical form, so the digest does not depend on set order.
"""

from __future__ import annotations

import hashlib
import json
import random

from arbopack import MixedPacking, solve
from instance_gen import random_mixed_instance

ANSWERS_SHA256 = "540b6a8e7c8b6f39bc66207e736a5fccc52b48f03ee5c222cb87925103a72b3c"


def canonical(result) -> str:
    """An answer as a string that is equal exactly when the answers are."""
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
