"""Acceptance suite: one test per criterion, one printed verdict line each.

Random suites use fixed seed bases; per-instance seeds derive from them
and are printed on failure for replay.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import product

from arbopack import (
    BiSet,
    BiSetFamilyCertificate,
    CoverRequirement,
    MixedGraph,
    MixedPacking,
    Orientation,
    apply_orientation,
    build_auxiliary,
    compute_atoms,
    mixed_reachable_set,
    solve,
    validate_mixed_packing,
    verify_certificate,
)
from arbopack.cli import main as cli_main
from arbopack.decomposition import p_value
from arbopack.exhaustive import AtomContext, _extract_certificate, _reduced_table, orient_covering
from instance_gen import (
    random_mixed_instance,
    random_orientation,
    repeated_root_all_reachable,
)
from naive import (
    brute_force_feasible,
    check_spanning_packing_condition,
    enumerate_biset_family,
    iter_family,
    naive_rho_view,
    subsets,
)

C2_SEED_BASE = 220_000
C2_COUNT = 500
C3_SEED_BASE = 330_000
C3_COUNT = 300
C5_SEED_BASE = 550_000
C5_COUNT = 300
C7_SEED_BASE = 770_000
C7_COUNT = 100


@contextmanager
def criterion(capsys, label: str):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.perf_counter() - t0
        verdict = "FAIL" if failed else "PASS"
        with capsys.disabled():
            print(f"[acceptance] {label}: {verdict} ({dt:.1f}s)")


def criterion2_instances():
    for i in range(C2_COUNT):
        rng = random.Random(C2_SEED_BASE + i)
        g, roots = random_mixed_instance(rng, max_v=7, max_e=8, max_a=10, max_k=3)
        yield C2_SEED_BASE + i, g, roots


def atom_coverage_ok(ctx: AtomContext, ends) -> bool:
    for mask in iter_family(ctx):
        rho = ctx.rho_static(mask) + sum(
            1 for t, h in ends if h & mask and not t & mask
        )
        if rho < ctx.p_of(mask):
            return False
    return True


def test_criterion_1_canonical_fixture(capsys, two_root):
    with criterion(capsys, "criterion 1: canonical two-root fixture"):
        g, roots = two_root
        t0 = time.perf_counter()
        mp = solve(g, roots)
        elapsed = time.perf_counter() - t0
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)
        spans = []
        used_edges: list[str] = []
        used_arcs: list[str] = []
        for tree in mp.trees:
            verts = {tree.root}
            for aid in tree.arcs:
                a = g.arc_by_id[aid]
                verts |= {a.tail, a.head}
                used_arcs.append(aid)
            for use in tree.edges:
                verts |= {use.tail, use.head}
                used_edges.append(use.id)
            spans.append(frozenset(verts))
        assert spans[0] == frozenset("r1 v1 v2 v3 v4 v5".split())
        assert spans[1] == frozenset("r2 v3 v4 v6 v7".split())
        assert len(used_edges) == len(set(used_edges))
        assert len(used_arcs) == len(set(used_arcs))
        assert elapsed < 1.0, f"solve took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence(capsys):
    label = f"criterion 2: oracle equivalence on {C2_COUNT} instances (seed base {C2_SEED_BASE})"
    with criterion(capsys, label):
        t0 = time.perf_counter()
        feas = infeas = 0
        for seed, g, roots in criterion2_instances():
            got = solve(g, roots)
            oracle = brute_force_feasible(g, roots)
            if isinstance(got, MixedPacking):
                assert oracle, f"seed {seed}: solver feasible, oracle infeasible"
                verdict = validate_mixed_packing(g, roots, got)
                assert verdict, f"seed {seed}: {verdict.reason}"
                feas += 1
            else:
                assert not oracle, f"seed {seed}: solver infeasible, oracle feasible"
                verdict = verify_certificate(g, roots, got)
                assert verdict, f"seed {seed}: {verdict.reason}"
                infeas += 1
        elapsed = time.perf_counter() - t0
        assert feas and infeas
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
        with capsys.disabled():
            print(
                f"[acceptance]   criterion 2 detail: {feas} feasible, "
                f"{infeas} infeasible, {elapsed:.1f}s"
            )


def test_criterion_3_set_vs_biset_condition(capsys):
    label = f"criterion 3: set/bi-set equivalence on {C3_COUNT} digraphs (seed base {C3_SEED_BASE})"
    with criterion(capsys, label):
        holds = fails = 0
        for i in range(C3_COUNT):
            rng = random.Random(C3_SEED_BASE + i)
            n = rng.randint(1, 6)
            vs = [f"n{i}" for i in range(n)]
            from arbopack import Arc

            arcs = tuple(
                Arc(f"a{i}", rng.choice(vs), rng.choice(vs))
                for i in range(rng.randint(0, 10))
            )
            g = MixedGraph(tuple(vs), (), arcs)
            roots = [rng.choice(vs) for _ in range(rng.randint(1, 3))]
            dec = compute_atoms(g, roots)
            keep = tuple(a for a in g.arcs if rng.random() < 0.5)
            sub = MixedGraph(g.vertices, (), keep)
            set_ok = True
            for combo in subsets(vs):
                xs = frozenset(combo)
                if not xs:
                    continue
                need = sum(
                    1
                    for r, u in zip(roots, dec.reach)
                    if r not in xs and u & xs
                )
                if naive_rho_view(sub, xs) < need:
                    set_ok = False
                    break
            biset_ok = all(
                naive_rho_view(sub, b.outer, b.inner) >= p_value(dec, roots, b)
                for b in enumerate_biset_family(g, dec)
            )
            assert set_ok == biset_ok, f"seed {C3_SEED_BASE + i}"
            if set_ok:
                holds += 1
                subg = MixedGraph(g.vertices, (), keep)
                for v in vs:
                    before = frozenset(
                        k for k, u in enumerate(dec.reach) if v in u
                    )
                    after = frozenset(
                        k
                        for k, r in enumerate(roots)
                        if v in mixed_reachable_set(subg, r)
                    )
                    assert before == after, f"seed {C3_SEED_BASE + i}: vertex {v}"
            else:
                fails += 1
        assert holds and fails


def test_criterion_4_family_closure_and_supermodularity(capsys):
    label = "criterion 4: family closure and supermodularity over criterion-2 atoms"
    with criterion(capsys, label):
        pairs = 0
        atoms_seen = 0
        for seed, g, roots in criterion2_instances():
            dec = compute_atoms(g, roots)
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                ctx = AtomContext.build(aux, dec, roots)
                if ctx.size > 10:
                    continue
                atoms_seen += 1
                size = 1 << ctx.size
                member = bytearray(size)
                pval = [0] * size
                fam = []
                for m in iter_family(ctx):
                    member[m] = 1
                    pval[m] = ctx.p_of(m)
                    fam.append(m)
                for a_i in range(len(fam)):
                    x = fam[a_i]
                    for b_i in range(a_i + 1, len(fam)):
                        y = fam[b_i]
                        inter = x & y
                        if not inter:
                            continue
                        union = x | y
                        assert member[union], f"seed {seed}: union left the family"
                        assert member[inter], f"seed {seed}: intersection left the family"
                        assert pval[x] + pval[y] <= pval[union] + pval[inter], (
                            f"seed {seed}: supermodularity violated"
                        )
                        pairs += 1
        assert atoms_seen and pairs
        with capsys.disabled():
            print(
                f"[acceptance]   criterion 4 detail: {atoms_seen} atoms, "
                f"{pairs} intersecting pairs, zero violations"
            )


def test_criterion_5_biset_vs_atom_coverage(capsys):
    label = f"criterion 5: coverage equivalence on {C5_COUNT} oriented graphs (seed base {C5_SEED_BASE})"
    with criterion(capsys, label):
        covered = uncovered = 0
        for i in range(C5_COUNT):
            rng = random.Random(C5_SEED_BASE + i)
            g, roots = random_mixed_instance(rng, max_v=7, max_e=8, max_a=10, max_k=3)
            dec = compute_atoms(g, roots)
            o = random_orientation(rng, g)
            d = apply_orientation(g, o)
            full = all(
                naive_rho_view(d, b.outer, b.inner) >= p_value(dec, roots, b)
                for b in enumerate_biset_family(g, dec)
            )
            per_atom = True
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                ctx = AtomContext.build(aux, dec, roots)
                ends = []
                for eid, _bu, _bv in ctx.edge_bits:
                    t, h = o.direction[eid]
                    ends.append((1 << ctx.bit_of[t], 1 << ctx.bit_of[h]))
                if not atom_coverage_ok(ctx, ends):
                    per_atom = False
                    break
            assert full == per_atom, f"seed {C5_SEED_BASE + i}"
            if full:
                covered += 1
            else:
                uncovered += 1
        assert covered and uncovered


def test_criterion_6_orientation_minmax(capsys):
    label = "criterion 6: orientation existence vs subpartition bound over criterion-2 atoms"
    with criterion(capsys, label):
        orientable = blocked = 0
        for seed, g, roots in criterion2_instances():
            dec = compute_atoms(g, roots)
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                req = CoverRequirement(aux, dec, tuple(roots))
                ctx = req.context
                table = _reduced_table(req)
                cands = [(y, v[0]) for y, v in table.items() if v[0] >= 1]
                plain = list(ctx.edge_bits)
                exists = False
                for flips in product((0, 1), repeat=len(plain)):
                    ends = [
                        (bu, bv) if f == 0 else (bv, bu)
                        for (_eid, bu, bv), f in zip(plain, flips)
                    ]
                    if all(
                        sum(1 for t, h in ends if h & y and not t & y) >= need
                        for y, need in cands
                    ):
                        exists = True
                        break
                cert = _extract_certificate(req, table)
                no_deficit = cert is None
                assert exists == no_deficit, f"seed {seed}, atom {j}"
                solver_verdict = orient_covering(req)
                assert isinstance(solver_verdict, Orientation) == exists, (
                    f"seed {seed}, atom {j}: solver disagrees"
                )
                if exists:
                    orientable += 1
                else:
                    blocked += 1
        assert orientable and blocked
        with capsys.disabled():
            print(
                f"[acceptance]   criterion 6 detail: {orientable} orientable atoms, "
                f"{blocked} blocked"
            )


def test_criterion_7_repeated_root_special_case(capsys):
    label = f"criterion 7: repeated-root spanning case on {C7_COUNT} instances (seed base {C7_SEED_BASE})"
    with criterion(capsys, label):
        feas = infeas = 0
        for i in range(C7_COUNT):
            rng = random.Random(C7_SEED_BASE + i)
            g, r, k = repeated_root_all_reachable(rng)
            assert mixed_reachable_set(g, r) == g.vertex_set
            got = solve(g, [r] * k)
            feasible = isinstance(got, MixedPacking)
            assert feasible == check_spanning_packing_condition(g, r, k), (
                f"seed {C7_SEED_BASE + i}"
            )
            if feasible:
                feas += 1
            else:
                infeas += 1
        assert feas and infeas


def test_criterion_8_infeasible_fixture_cli(capsys, tmp_path, data_dir):
    with criterion(capsys, "criterion 8: infeasible fixture via CLI"):
        path = str(data_dir / "three_vertex_infeasible.mg")
        code = cli_main(["solve", path])
        out = capsys.readouterr().out
        assert code == 2
        payload = json.loads(out)
        cert_json = payload["certificate"]
        assert cert_json["deficit"] == 2
        inners = sorted(tuple(b["inner"]) for b in cert_json["bisets"])
        assert inners == [("r1",), ("r2",), ("x",)]
        from arbopack import parse_mixed_graph

        g, roots = parse_mixed_graph((data_dir / "three_vertex_infeasible.mg").read_text())
        cert = BiSetFamilyCertificate(
            atom_index=cert_json["atom_index"] - 1,
            bisets=tuple(
                BiSet(frozenset(b["outer"]), frozenset(b["inner"]))
                for b in cert_json["bisets"]
            ),
            lhs=cert_json["lhs"],
            rhs=cert_json["rhs"],
        )
        assert verify_certificate(g, roots, cert)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(out)
        code = cli_main(["certify", path, str(cert_file)])
        out2 = capsys.readouterr().out
        assert code == 0 and "valid" in out2
