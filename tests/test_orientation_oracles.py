"""The certificate search against its reference form.

``naive.reference_certificate`` ranks subpartitions by a max over negated
part tuples.  The solver decides the same by a plain ``min``, so on
every atom both must give the same certificate.  The search is also run
the way ``_fix_edges`` runs it, from two random edge positions per atom:
on the table less what a fixed prefix of edges sends in, over the edges
left.  No answer digest reaches that path.  Beyond the reference's
scale, the search's certificate of a long doubled path is checked
against its construction.
"""

from __future__ import annotations

import random
from collections import Counter

from arbopack import (
    CoverRequirement,
    certificate_from_subpartition,
    compute_atoms,
    orient_covering,
    parse_mixed_graph,
    solve,
    verify_certificate,
)
from arbopack.exhaustive import _extract_certificate, _reduced_table
from instance_gen import bench_workloads, random_mixed_instance
from naive import _ref_cross_into, _ref_edge_ends, reference_certificate, reference_context


def _requirements_of(g, roots, max_vertices):
    dec = compute_atoms(g, roots)
    for j in range(len(dec.atoms)):
        if len(dec.atoms[j]) <= max_vertices:
            yield CoverRequirement(g, dec, j, tuple(roots))


def _compare(req, rng, seen):
    """Check one atom's certificate, whole and after a random fixed prefix."""
    ctx = reference_context(req)
    table = _reduced_table(req)
    m = len(ctx.edge_pairs)
    cert = _extract_certificate(req, table)
    assert cert == reference_certificate(req, table)
    seen["certified"] += cert is not None
    for pos in rng.sample(range(m), min(m, 2)):
        ends = _ref_edge_ends(ctx, [rng.randint(0, 1) for _ in range(pos + 1)])
        rest = {y: (need - _ref_cross_into(ends, y), xm) for y, (need, xm) in table.items()}
        edges = ctx.edge_pairs[pos + 1 :]
        cert = _extract_certificate(req, rest, edges)
        assert cert == reference_certificate(req, rest, edges)
        seen["fixed_certified"] += cert is not None


def test_random_atoms_match_reference():
    rng = random.Random(5150)
    seen = Counter()
    for _ in range(300):
        g, roots = random_mixed_instance(rng, max_v=7, max_e=9, max_a=6)
        for req in _requirements_of(g, roots, max_vertices=7):
            _compare(req, rng, seen)
    assert all(seen[k] for k in ("certified", "fixed_certified")), seen


def test_bench_family_atoms_match_reference():
    wl = bench_workloads()
    rng = random.Random(6160)
    components = [wl.cycle_copies(rng, "", n, k) for n in (3, 6, 10) for k in (1, 3)]
    components += [wl.doubled_path(rng, "", n) for n in (2, 5, 10)]
    components += [
        wl.staggered_segments(rng, "", length, segments, drop)
        for length, segments in ((2, 4), (5, 3), (10, 3))
        for drop in (False, True)
    ]
    seen = Counter()
    for comp in components:
        g, roots = parse_mixed_graph(wl._render(rng, [comp]))
        for req in _requirements_of(g, roots, max_vertices=10):
            _compare(req, rng, seen)
    assert all(seen[k] for k in ("certified", "fixed_certified")), seen


def test_synthetic_tables_match_reference():
    # Tables with small, often equal needs make subpartitions tie on value
    # and part count, so the lexicographic tie-break decides; the tables
    # the solver builds rarely get there.
    wl = bench_workloads()
    rng = random.Random(7170)
    g, roots = parse_mixed_graph(wl._render(rng, [wl.cycle_copies(rng, "", 6, 2)]))
    (req,) = _requirements_of(g, roots, max_vertices=6)
    ctx = reference_context(req)
    multi_part = 0
    for _ in range(300):
        table = {
            y: (rng.randint(-1, 2), y)
            for y in range(1, ctx.gamma_mask + 1)
            if rng.random() < 0.3
        }
        edges = [e for e in ctx.edge_pairs if rng.random() < 0.5]
        cert = _extract_certificate(req, table, edges)
        assert cert == reference_certificate(req, table, edges)
        multi_part += cert is not None and len(cert.parts) > 1
    assert multi_part


def _exact_covers(sets, w):
    """Every way to write ``w`` as a disjoint union of members of ``sets``."""
    if not w:
        yield ()
        return
    low = w & -w
    for y in sets:
        if y & low and not y & ~w:
            for rest in _exact_covers(sets, w ^ y):
                yield (y,) + rest


def _cover_deficit(table, edges, parts):
    """Summed needs of disjoint ``parts`` less the edges between or out of them."""
    within = sum(1 for bu, bv in edges for y in parts if bu & y and bv & y)
    touching = sum(1 for bu, bv in edges if (bu | bv) & sum(parts))
    return sum(table[y][0] for y in parts) + within - touching


def test_synthetic_tables_on_part_of_the_atom_match_reference():
    # The certificate search runs only over the submasks of the union of
    # the deficient sets.  Here every set lies inside a random proper
    # part of the atom, so the union misses some of its bits, and small,
    # often equal needs make several subpartitions tie on deficit and
    # part count, so the tie-break among sorted parts decides.
    wl = bench_workloads()
    rng = random.Random(8180)
    g, roots = parse_mixed_graph(wl._render(rng, [wl.cycle_copies(rng, "", 6, 2)]))
    (req,) = _requirements_of(g, roots, max_vertices=6)
    ctx = reference_context(req)
    partial = multi_part_ties = 0
    for _ in range(300):
        inside = rng.randint(1, ctx.gamma_mask - 1)
        table = {
            y: (rng.choice((0, 1, 1, 1, 2)), y)
            for y in range(1, inside + 1)
            if not y & ~inside and rng.random() < 0.5
        }
        # few edges, so that parts rarely lose deficit to edges between them
        edges = [e for e in ctx.edge_pairs if rng.random() < 0.25]
        cert = _extract_certificate(req, table, edges)
        assert cert == reference_certificate(req, table, edges)
        pool = [y for y, (need, _xm) in table.items() if need >= 1]
        union = 0
        for y in pool:
            union |= y
        partial += bool(pool) and union != ctx.gamma_mask
        if cert is None or len(cert.parts) < 2:
            continue
        tied = [
            parts
            for w in range(1, union + 1)
            if not w & ~union
            for parts in _exact_covers(pool, w)
            if len(parts) == len(cert.parts)
            and _cover_deficit(table, edges, parts) == cert.deficit
        ]
        multi_part_ties += len(tied) > 1
    assert partial and multi_part_ties, (partial, multi_part_ties)


def test_doubled_path_certificate_beyond_oracle_scale():
    # A 14-vertex path with one root repeated twice.  Each of the 13
    # vertices other than the root needs both trees to enter it, 26 edge
    # ends in all, and the path has 13 edges: the best subpartition has
    # 13 parts and falls short by 13.  ``solve`` answers with the one
    # short set the fast path refutes the atom with, so the search runs
    # on the atom directly.
    wl = bench_workloads()
    rng = random.Random(9190)
    g, roots = parse_mixed_graph(wl._render(rng, [wl.doubled_path(rng, "", 14)]))
    dec = compute_atoms(g, roots)
    sc = orient_covering(CoverRequirement(g, dec, 0, tuple(roots)))
    assert len(sc.parts) == 13
    assert sc.deficit == 13
    cert = certificate_from_subpartition(sc, dec, g, roots)
    assert verify_certificate(g, roots, cert).ok
    assert verify_certificate(g, roots, solve(g, roots)).ok
