"""Pinned solver answers.

The solver is deterministic, so its answers on fixed seeded corpora are
pinned by digests.  A change that alters any answer, or makes an answer
depend on string hashing, fails here.  Every vertex set is sorted in the
canonical form, so a digest does not depend on set order.  To print
every digest's current value, on purpose::

    PYTHONPATH=src python tests/test_answers.py
"""

from __future__ import annotations

import hashlib
import json
import random

from arbopack import (
    BiSetFamilyCertificate,
    MixedPacking,
    pack_reachability,
    parse_mixed_graph,
    solve,
)
from instance_gen import (
    bench_workloads,
    random_digraph_instance,
    random_mixed_instance,
    sparse_digraph_instance,
)

ANSWERS_SHA256 = "cb1e4475202278f71818245c2778e86c4548a3aaac3760c5788d4e3b81e43073"
DIGRAPH_ANSWERS_SHA256 = "dd18cd722d0adcb0ad60d6fc622257e5a2d4586b2294ce3bba1a22268e28b102"
DIGRAPH_PACKINGS_SHA256 = "8236b0bbfa407b731c1f5a5be1035a3de76dbea82023624edcdd37736e322da8"
BENCH_ANSWERS_SHA256 = "c9271b8937b3b5cee02ccc0769f19cf04a6b187cc064c448fb3799e407748379"
CERTIFY_ANSWERS_SHA256 = "07a537c4b82725e081f2110a652e2635baa08ea7c8c04b9473e02b09b16da85d"
VERDICTS_SHA256 = "41c3e71703e8aa0b4cced47c46f31cacfaa40e89c4700792b40ce322b5036e27"
MIXED_PACKINGS_SHA256 = "e703de4787c1d4425835d3d694bd2c9397e5f30bb1568dce03305bd1149a9f74"
VERDICT_ATOMS_SHA256 = "7837c865aacd051046fadbda9d0595705179dcaa504157f02e60a82a2986dbc6"


def canonical(result, digraph=None) -> str:
    """An answer as a string that is equal exactly when the answers are.

    A packing of ``digraph`` lists each tree's arcs with their ends.
    """
    if digraph is not None and isinstance(result, MixedPacking):
        body = [
            [t.root_index, [[*digraph.arc_by_id[aid], "arc"] for aid in t.arcs]]
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


def random_corpus_answers():
    """Each answer of ``solve`` on the seed-4242 mixed corpus."""
    rng = random.Random(4242)
    for _ in range(1000):
        g, roots = random_mixed_instance(rng, max_v=9, max_e=12, max_a=8)
        yield solve(g, roots)


def random_corpus_digest() -> str:
    h = hashlib.sha256()
    for result in random_corpus_answers():
        h.update(canonical(result).encode() + b"\n")
    return h.hexdigest()


def digraph_answers():
    """Each digraph and the answer of ``pack_reachability`` on it, on the seed-4343 corpus."""
    rng = random.Random(4343)
    for _ in range(3000):
        g, roots = random_digraph_instance(rng, max_v=8, max_a=14, max_k=4)
        yield g, pack_reachability(g, roots)


def sparse_answers():
    """Each digraph and the answer of ``pack_reachability`` on it, on the seed-8080 sparse fuzz."""
    rng = random.Random(8080)
    for _ in range(1000):
        g, roots = sparse_digraph_instance(rng)
        yield g, pack_reachability(g, roots)


def digraph_digest() -> str:
    # Pins each arc the greedy picks in every atom, and each violated set.
    h = hashlib.sha256()
    for g, result in digraph_answers():
        h.update(canonical(result, g).encode() + b"\n")
    return h.hexdigest()


def digraph_packings_digest() -> str:
    # Pins every packing, and which instances have none, but not which
    # violated set an infeasible instance returns.
    h = hashlib.sha256()
    for answers in (digraph_answers(), sparse_answers()):
        for g, result in answers:
            if isinstance(result, frozenset):
                result = json.dumps({"feasible": False})
            else:
                result = canonical(result, g)
            h.update(result.encode() + b"\n")
    return h.hexdigest()


def bench_corpus(workload: str, seed: int, size: int):
    """The benchmark's own corpus, read from ``bench/workloads.py``."""
    return bench_workloads().corpus(workload, seed, size)


def bench_answers():
    """Each answer of ``solve`` on the ``pack_heavy`` and ``many_atoms`` corpora."""
    for workload in ("pack_heavy", "many_atoms"):
        for inst in bench_corpus(workload, 1, 110):
            g, roots = parse_mixed_graph(inst.text)
            yield solve(g, roots)


def bench_digest() -> str:
    # The corpora whose atoms turn the most candidate arcs down.  A change
    # to bench/workloads.py changes them, and the digest must then be
    # recorded again, from the commit before the change.
    h = hashlib.sha256()
    for result in bench_answers():
        h.update(canonical(result).encode() + b"\n")
    return h.hexdigest()


def verdicts_digest() -> str:
    # Pins the verdict of every instance behind ANSWERS_SHA256 and
    # BENCH_ANSWERS_SHA256, and every certificate whole, but not which
    # packing a feasible instance gets: any covering orientation packs.
    h = hashlib.sha256()
    for answers in (random_corpus_answers(), bench_answers()):
        for result in answers:
            if isinstance(result, MixedPacking):
                result = json.dumps({"feasible": True})
            else:
                result = canonical(result)
            h.update(result.encode() + b"\n")
    return h.hexdigest()


def certify_answers():
    """Each answer of ``solve`` on the ``certify_heavy`` corpus."""
    for inst in bench_corpus("certify_heavy", 1, 110):
        g, roots = parse_mixed_graph(inst.text)
        yield solve(g, roots)


def certify_digest() -> str:
    # The corpus whose infeasible atoms have 6 to 8 vertices; the other
    # digests reach only smaller ones.
    h = hashlib.sha256()
    for result in certify_answers():
        h.update(canonical(result).encode() + b"\n")
    return h.hexdigest()


def mixed_packings_digest() -> str:
    # Pins every packing behind ANSWERS_SHA256, BENCH_ANSWERS_SHA256 and
    # CERTIFY_ANSWERS_SHA256, and which instances have none, but not
    # which certificate an infeasible instance returns.
    h = hashlib.sha256()
    for answers in (random_corpus_answers(), bench_answers(), certify_answers()):
        for result in answers:
            if isinstance(result, BiSetFamilyCertificate):
                result = json.dumps({"feasible": False})
            else:
                result = canonical(result)
            h.update(result.encode() + b"\n")
    return h.hexdigest()


def verdict_atoms_digest() -> str:
    # Pins only what every exact method returns: the verdict of every
    # instance behind ANSWERS_SHA256, BENCH_ANSWERS_SHA256 and
    # CERTIFY_ANSWERS_SHA256, and a certificate's atom index, that of the
    # lowest-index atom no orientation covers.  A change of method that
    # picks other trees or other bi-sets leaves it as it is.
    h = hashlib.sha256()
    for answers in (random_corpus_answers(), bench_answers(), certify_answers()):
        for result in answers:
            if isinstance(result, MixedPacking):
                result = {"feasible": True}
            else:
                result = {"feasible": False, "atom_index": result.atom_index}
            h.update(json.dumps(result).encode() + b"\n")
    return h.hexdigest()


DIGESTS = {
    "ANSWERS_SHA256": random_corpus_digest,
    "DIGRAPH_ANSWERS_SHA256": digraph_digest,
    "DIGRAPH_PACKINGS_SHA256": digraph_packings_digest,
    "BENCH_ANSWERS_SHA256": bench_digest,
    "CERTIFY_ANSWERS_SHA256": certify_digest,
    "VERDICTS_SHA256": verdicts_digest,
    "MIXED_PACKINGS_SHA256": mixed_packings_digest,
    "VERDICT_ATOMS_SHA256": verdict_atoms_digest,
}


def test_random_corpus_answers_pinned():
    assert random_corpus_digest() == ANSWERS_SHA256


def test_digraph_packing_answers_pinned():
    assert digraph_digest() == DIGRAPH_ANSWERS_SHA256


def test_digraph_packings_pinned():
    assert digraph_packings_digest() == DIGRAPH_PACKINGS_SHA256


def test_bench_corpus_answers_pinned():
    assert bench_digest() == BENCH_ANSWERS_SHA256


def test_certify_corpus_answers_pinned():
    assert certify_digest() == CERTIFY_ANSWERS_SHA256


def test_verdicts_and_certificates_pinned():
    assert verdicts_digest() == VERDICTS_SHA256


def test_mixed_packings_pinned():
    assert mixed_packings_digest() == MIXED_PACKINGS_SHA256


def test_verdicts_and_atoms_pinned():
    assert verdict_atoms_digest() == VERDICT_ATOMS_SHA256


if __name__ == "__main__":
    for name, digest in DIGESTS.items():
        print(f'{name} = "{digest()}"')
