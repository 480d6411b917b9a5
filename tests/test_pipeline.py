from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

from arbopack import (
    Arc,
    AtomDecomposition,
    BiSet,
    BiSetFamilyCertificate,
    DEFAULT_BOUNDS,
    Edge,
    EdgeUse,
    MixedGraph,
    MixedPacking,
    MixedTree,
    Orientation,
    apply_orientation,
    build_auxiliary,
    certificate_from_subpartition,
    compute_atoms,
    covering_orientation,
    mixed_reachable_set,
    pack_reachability,
    parse_mixed_graph,
    solve,
    validate_mixed_packing,
    verify_certificate,
)
import arbopack
import arbopack.two_stage
from arbopack import checks, exhaustive, orientation, packing
from arbopack.decomposition import (
    _atom_slices,
    _certificate_sides,
    _check_atom,
    lift_biset,
    p_value,
)
from arbopack.errors import InvariantError
from arbopack.orientation import (
    SubpartitionCertificate,
    _orient_by_cuts,
    _start_state,
)
from arbopack.packing import _StepFlow, _edge_cands, _first_fit, _grow
from instance_gen import (
    bench_workloads,
    deep_atom_text,
    doubled_cycle_text,
    first_fit_stuck_text,
    random_digraph_instance,
    random_mixed_instance,
    random_orientation,
    repeated_root_all_reachable,
)
from naive import (
    brute_force_feasible,
    check_spanning_packing_condition,
    enumerate_biset_family,
    make_subpartition_certificate,
    naive_crossing_edges,
    naive_orientation_covers,
    naive_p,
    naive_rho_view,
    reference_start_state,
    subpartitions,
)


class TestSolveFixtures:
    def test_two_root_feasible(self, two_root):
        g, roots = two_root
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)
        spans = []
        for tree in mp.trees:
            verts = {tree.root}
            for aid in tree.arcs:
                a = g.arc_by_id[aid]
                verts |= {a.tail, a.head}
            for use in tree.edges:
                verts |= {use.tail, use.head}
            spans.append(frozenset(verts))
        assert spans[0] == frozenset("r1 v1 v2 v3 v4 v5".split())
        assert spans[1] == frozenset("r2 v3 v4 v6 v7".split())

    def test_infeasible_certificate(self, infeasible3):
        g, roots = infeasible3
        cert = solve(g, roots)
        assert isinstance(cert, BiSetFamilyCertificate)
        assert (cert.lhs, cert.rhs) == (2, 4)
        assert {(b.outer, b.inner) for b in cert.bisets} == {
            (frozenset(["r1"]), frozenset(["r1"])),
            (frozenset(["r2"]), frozenset(["r2"])),
            (frozenset(["x"]), frozenset(["x"])),
        }
        assert verify_certificate(g, roots, cert)

    def test_single_root_arborescence_returned(self):
        g = MixedGraph(
            ("r", "x", "y"), (), (Arc("a1", "r", "x"), Arc("a2", "x", "y"))
        )
        mp = solve(g, ["r"])
        assert isinstance(mp, MixedPacking)
        assert mp.trees[0].arcs == ("a1", "a2")
        assert mp.trees[0].edges == ()

    def test_no_roots(self):
        g = MixedGraph(("a", "b"), (Edge("e1", "a", "b"),))
        mp = solve(g, [])
        assert isinstance(mp, MixedPacking) and mp.trees == ()

    def test_unusable_entering_arc_detected(self):
        # v is demanded by both roots; the second arc into it comes from an
        # unreachable vertex, so only one usable entry exists
        g = MixedGraph(
            ("r1", "r2", "w", "v", "u"),
            (),
            (
                Arc("a1", "r1", "w"),
                Arc("a2", "r2", "w"),
                Arc("a3", "u", "v"),
                Arc("a4", "w", "v"),
            ),
        )
        cert = solve(g, ["r1", "r2"])
        assert isinstance(cert, BiSetFamilyCertificate)
        assert verify_certificate(g, ["r1", "r2"], cert)
        assert cert.bisets == (BiSet({"v", "u"}, {"v"}),)
        assert (cert.lhs, cert.rhs) == (1, 2)
        assert not brute_force_feasible(g, ["r1", "r2"])

    def test_many_trees_in_a_terminal_free_atom(self):
        # A 3-cycle with 40 copies of each edge and its root repeated 40
        # times.  No arc enters the atom, so no subset of the 40 trees
        # needs to be enumerated.
        k = 40
        ends = (("a", "b"), ("b", "c"), ("c", "a"))
        edges = tuple(Edge(f"{u}{v}{c}", u, v) for u, v in ends for c in range(k))
        g = MixedGraph(("a", "b", "c"), edges)
        roots = ["a"] * k
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)

    def test_vertex_named_like_a_terminal(self):
        # The packing stage names no vertices of its own, so a vertex
        # called "t:a:x" is an ordinary vertex.
        g = MixedGraph(
            ("r", "w", "t:a:x"), (), (Arc("x", "r", "t:a:x"), Arc("y", "w", "t:a:x"))
        )
        roots = ["r", "w"]
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)

    def test_vertex_named_like_an_auxiliary_terminal(self):
        # The orientation stage names arc x's terminal "t:x", which is
        # taken: a bad input, not a bug.
        g = MixedGraph(
            ("r", "w", "t:x"), (), (Arc("x", "r", "t:x"), Arc("y", "w", "t:x"))
        )
        with pytest.raises(ValueError, match="reserved"):
            solve(g, ["r", "w"])


class TestValidateMixedPacking:
    def _packing(self, two_root):
        g, roots = two_root
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        return g, roots, mp

    def test_one_search_per_distinct_root(self, monkeypatch, two_root):
        calls = []

        def counted(g, r):
            calls.append(r)
            return mixed_reachable_set(g, r)

        cases = [parse_mixed_graph(deep_atom_text(260)), two_root]
        results = [solve(g, roots) for g, roots in cases]
        monkeypatch.setattr(checks, "mixed_reachable_set", counted)
        for (g, roots), mp in zip(cases, results):
            calls.clear()
            assert validate_mixed_packing(g, roots, mp)
            assert calls == list(dict.fromkeys(roots))

    def test_edge_used_twice_in_opposite_directions(self, two_root):
        g, roots, mp = self._packing(two_root)
        t0, t1 = mp.trees
        bad = MixedPacking(
            (
                MixedTree(0, t0.root, t0.arcs, t0.edges + (EdgeUse("e6", "v2", "v5"),)),
                MixedTree(1, t1.root, t1.arcs, t1.edges + (EdgeUse("e6", "v5", "v2"),)),
            )
        )
        verdict = validate_mixed_packing(g, roots, bad)
        assert not verdict and verdict.reason == "edge e6 used twice"

    def test_missing_vertex_breaks_span(self, two_root):
        g, roots, mp = self._packing(two_root)
        t0, t1 = mp.trees
        pruned = MixedTree(0, t0.root, tuple(a for a in t0.arcs if a != "a2"), t0.edges)
        verdict = validate_mixed_packing(g, roots, MixedPacking((pruned, t1)))
        assert not verdict and verdict.reason == "tree 1 does not span U_1"

    def test_arc_used_twice(self, two_root):
        g, roots, mp = self._packing(two_root)
        t0, t1 = mp.trees
        bad = MixedPacking((t0, MixedTree(1, t1.root, t1.arcs + ("a1",), t1.edges)))
        verdict = validate_mixed_packing(g, roots, bad)
        assert not verdict and verdict.reason == "arc a1 used twice"

    @pytest.mark.parametrize(
        "change, reason",
        [
            (lambda t: t._replace(arcs=t.arcs + ("a9",)), "unknown arc 'a9'"),
            (
                lambda t: t._replace(edges=t.edges + (EdgeUse("e9", "r1", "v1"),)),
                "unknown edge 'e9'",
            ),
            (lambda t: t._replace(root_index=1), "tree 1 carries root index 2"),
            (lambda t: t._replace(root="r2"), "tree 1 names root 'r2', not 'r1'"),
        ],
    )
    def test_first_tree_rejected_with_its_reason(self, two_root, change, reason):
        g, roots, mp = self._packing(two_root)
        t0, t1 = mp.trees
        verdict = validate_mixed_packing(g, roots, MixedPacking((change(t0), t1)))
        assert not verdict and verdict.reason == reason

    def test_edge_with_foreign_endpoints(self, two_root):
        g, roots, mp = self._packing(two_root)
        t0, t1 = mp.trees
        swapped = t0.edges[:-1] + (EdgeUse("e3", "r1", "v4"),)
        bad = MixedPacking((MixedTree(0, t0.root, t0.arcs, swapped), t1))
        verdict = validate_mixed_packing(g, roots, bad)
        assert not verdict and "endpoints" in verdict.reason


class TestCertificates:
    def test_lift_from_subpartition(self, infeasible3):
        g, roots = infeasible3
        dec = compute_atoms(g, roots)
        aux = build_auxiliary(g, dec, 0)
        from arbopack import CoverRequirement

        req = CoverRequirement(aux, dec, tuple(roots))
        sc = make_subpartition_certificate(req, [{"r1"}, {"r2"}, {"x"}])
        cert = certificate_from_subpartition(sc, dec, g, roots)
        assert cert.deficit == 2
        assert verify_certificate(g, roots, cert)

    def test_zero_deficit_rejected(self, two_root):
        g, roots = two_root
        dec = compute_atoms(g, roots)
        j = dec.atoms.index(frozenset(["v3", "v4"]))
        sc = SubpartitionCertificate(j, (frozenset(["v3", "v4"]),), 0)
        with pytest.raises(ValueError, match="not positive"):
            certificate_from_subpartition(sc, dec, g, roots)

    def test_malformed_certificate_rejected(self, two_root):
        # The instance is feasible, so no certificate of it lifts; each of
        # these is turned away for its shape, before any deficit is counted.
        g, roots = two_root
        dec = compute_atoms(g, roots)
        j = dec.atoms.index(frozenset(["v3", "v4"]))
        parts = (frozenset({"v3", "t:a1"}), frozenset({"v4", "t:a3"}))
        assert [lift_biset(g, dec.atoms[j], part).outer for part in parts] == [
            {"v3", "r1"},
            {"v4", "r2"},
        ]
        bad = [
            (SubpartitionCertificate(len(dec.atoms), parts, 1), "out of range"),
            (SubpartitionCertificate(-1, parts, 1), "out of range"),
            (SubpartitionCertificate(j, parts + (frozenset({"v3"}),), 1), "overlap"),
            (SubpartitionCertificate(j, (frozenset({"v3", "t:a2"}),), 1), "head"),
            (SubpartitionCertificate(j, (frozenset({"v3", "t:a4"}),), 1), "neither"),
            (SubpartitionCertificate(j - 1, parts, 1), "no vertex of the atom"),
        ]
        for sc, reason in bad:
            with pytest.raises(ValueError, match=reason):
                certificate_from_subpartition(sc, dec, g, roots)

    def test_terminal_part_contributions(self, two_root):
        g, roots = two_root
        dec = compute_atoms(g, roots)
        j = dec.atoms.index(frozenset(["v3", "v4"]))
        b = BiSet({"v1", "v3"}, {"v3"})
        assert lift_biset(g, dec.atoms[j], {"v3", "t:a5"}) == b
        assert p_value(dec, roots, b) == 1
        assert _certificate_sides(MixedGraph(g.vertices, (), g.arcs), roots, dec, (b,)) == (2, 1)

    def test_certificate_sides_match_naive_counts(self):
        # Random disjoint bi-set families on random mixed graphs, loops
        # included: lhs is the crossing edges plus each bi-set's entering
        # arcs, rhs the summed demands, each counted by the naive oracles.
        rng = random.Random(2626)
        for _ in range(300):
            g, roots = random_mixed_instance(rng, max_v=7, max_e=8, max_a=8)
            dec = compute_atoms(g, roots)
            vs = list(g.vertices)
            rng.shuffle(vs)
            inners, taken = [], 0
            while taken < len(vs) and rng.random() < 0.7:
                size = rng.randint(1, len(vs) - taken)
                inners.append(frozenset(vs[taken : taken + size]))
                taken += size
            bisets = [
                BiSet(inner | {v for v in g.vertices if rng.random() < 0.3}, inner)
                for inner in inners
            ]
            lhs = naive_crossing_edges(g.edges, inners) + sum(
                naive_rho_view(g, b.outer, b.inner) for b in bisets
            )
            rhs = sum(naive_p(dec, roots, b.outer, b.inner) for b in bisets)
            assert _certificate_sides(g, roots, dec, bisets) == (lhs, rhs)
            if inners:
                v = rng.choice(sorted(inners[-1]))
                with pytest.raises(ValueError, match="subpartition parts overlap"):
                    _certificate_sides(g, roots, dec, bisets + [BiSet({v}, {v})])

    def test_verify_rejects_shrunken_family(self, infeasible3):
        g, roots = infeasible3
        cert = solve(g, roots)
        smaller = BiSetFamilyCertificate(
            atom_index=cert.atom_index,
            bisets=tuple(b for b in cert.bisets if b.inner != frozenset(["x"])),
            lhs=2,
            rhs=2,
        )
        verdict = verify_certificate(g, roots, smaller)
        assert not verdict and "not violated" in verdict.reason

    def test_verify_rejects_overlapping_inners(self, infeasible3):
        g, roots = infeasible3
        cert = BiSetFamilyCertificate(
            atom_index=0,
            bisets=(BiSet({"x"}, {"x"}), BiSet({"x", "r1"}, {"x", "r1"})),
            lhs=0,
            rhs=3,
        )
        verdict = verify_certificate(g, roots, cert)
        assert not verdict and "not a subpartition" in verdict.reason

    def test_verify_rejects_stale_sides(self, infeasible3):
        g, roots = infeasible3
        cert = solve(g, roots)
        stale = BiSetFamilyCertificate(cert.atom_index, cert.bisets, cert.lhs, cert.rhs + 5)
        verdict = verify_certificate(g, roots, stale)
        assert not verdict and "recomputation" in verdict.reason

    def test_verify_names_a_stray_of_any_type(self, two_root):
        g, roots = two_root
        cert = BiSetFamilyCertificate(0, (BiSet({"v3", 1, "zz"}, {"v3"}),), 0, 1)
        verdict = verify_certificate(g, roots, cert)
        assert not verdict and verdict.reason == "unknown vertex 'zz'"

    @pytest.mark.parametrize(
        "atom_index, bisets, reason",
        [
            (2, (), "certificate has no bi-sets"),
            (2, (BiSet({"v3"}, {"v3"}), BiSet({"r1"}, ())), "a bi-set has an empty inner set"),
            (2, (BiSet({"v3", "z"}, {"v3", "z"}),), "an inner set leaves every atom"),
            (
                2,
                (BiSet({"v3"}, {"v3"}), BiSet({"r1"}, {"r1"})),
                "inner sets are not a subpartition of one atom",
            ),
            # 0-based in the library, 1-based in the reason, as in every output
            (1, (BiSet({"v3"}, {"v3"}),), "certificate names atom 2 but covers atom 3"),
        ],
    )
    def test_verify_rejects_bad_family_shapes(self, two_root, atom_index, bisets, reason):
        g, roots = two_root
        # z is reached by no root, so it lies in no atom
        g = MixedGraph(g.vertices + ("z",), g.edges, g.arcs)
        verdict = verify_certificate(g, roots, BiSetFamilyCertificate(atom_index, bisets, 0, 1))
        assert not verdict and verdict.reason == reason

    def test_verify_rejects_wall_inside_atom(self, two_root):
        g, roots = two_root
        cert = BiSetFamilyCertificate(
            atom_index=2,
            bisets=(BiSet({"v3", "v4"}, {"v3"}),),
            lhs=0,
            rhs=1,
        )
        verdict = verify_certificate(g, roots, cert)
        assert not verdict and "outer set meets" in verdict.reason


@pytest.mark.parametrize(
    "tree_arcs, reason",
    [
        (("x1", "x2"), "tree 1: root r has an incoming arc"),
        (("x1", "x3", "x4"), "tree 1: vertex b has in-degree 2"),
        (("x3", "x4", "x1", "x5"), "tree 1: vertex b has in-degree 2"),
        (("x4", "x5"), "tree 1 is not an arborescence rooted at r"),
        (("x1",), "tree 1 does not span U_1"),
    ],
)
def test_tree_shape_reasons_agree(tree_arcs, reason):
    g = MixedGraph(
        ("r", "a", "b"),
        (),
        (
            Arc("x1", "r", "a"),
            Arc("x2", "a", "r"),
            Arc("x3", "r", "b"),
            Arc("x4", "a", "b"),
            Arc("x5", "b", "a"),
        ),
    )
    mixed = MixedPacking((MixedTree(0, "r", tree_arcs, ()),))
    assert validate_mixed_packing(g, ["r"], mixed).reason == reason


class TestBruteForce:
    def test_fixtures(self, two_root, infeasible3):
        g, roots = two_root
        assert brute_force_feasible(g, roots)
        g, roots = infeasible3
        assert not brute_force_feasible(g, roots)

    def test_arborescence_trivially_feasible(self):
        g = MixedGraph(("r", "x"), (), (Arc("a1", "r", "x"),))
        assert brute_force_feasible(g, ["r"])

    def test_capacity_gate(self):
        from arbopack import CapacityError

        vs = tuple(f"n{i}" for i in range(3))
        edges = tuple(Edge(f"e{i}", "n0", "n1") for i in range(13))
        g = MixedGraph(vs, edges)
        with pytest.raises(CapacityError, match="orientation bound"):
            brute_force_feasible(g, ["n0"])


class TestSpanningPackingCondition:
    def test_triangle_single_root(self):
        g = MixedGraph(
            ("a", "b", "c"),
            (Edge("e1", "a", "b"), Edge("e2", "b", "c"), Edge("e3", "c", "a")),
        )
        assert check_spanning_packing_condition(g, "a", 1)

    def test_one_edge_two_copies(self):
        g = MixedGraph(("a", "b"), (Edge("e1", "a", "b"),))
        assert not check_spanning_packing_condition(g, "a", 2)

    def test_k_zero(self):
        g = MixedGraph(("a", "b"))
        assert check_spanning_packing_condition(g, "a", 0)

    def test_matches_naive_subpartition_sweep(self):
        rng = random.Random(60901)
        for _ in range(25):
            g, _ = random_mixed_instance(rng, max_v=5, max_e=5, max_a=4, max_k=1)
            r = g.vertices[0]
            k = rng.randint(1, 3)
            expect = True
            for parts in subpartitions([v for v in g.vertices if v != r]):
                if not parts:
                    continue
                rho = sum(naive_rho_view(g, p) for p in parts)
                from naive import naive_crossing_edges

                if naive_crossing_edges(g.edges, parts) + rho < k * len(parts):
                    expect = False
                    break
            assert check_spanning_packing_condition(g, r, k) == expect


class TestEndToEndProperties:
    def test_oracle_equivalence_sample(self):
        rng = random.Random(52006)
        feas = infeas = 0
        for _ in range(120):
            g, roots = random_mixed_instance(rng)
            got = solve(g, roots)
            if isinstance(got, MixedPacking):
                assert validate_mixed_packing(g, roots, got)
                assert brute_force_feasible(g, roots)
                feas += 1
            else:
                assert verify_certificate(g, roots, got)
                assert not brute_force_feasible(g, roots)
                infeas += 1
        assert feas and infeas

    def test_biset_coverage_iff_atom_coverage(self):
        rng = random.Random(42924)
        agree_true = agree_false = 0
        for _ in range(60):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=5, max_a=6)
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
                direction = {
                    e.id: o.direction[e.id] for e in aux.graph.edges
                }
                if not naive_orientation_covers(aux, dec, roots, direction):
                    per_atom = False
                    break
            assert full == per_atom
            if full:
                agree_true += 1
            else:
                agree_false += 1
        assert agree_true and agree_false

    def test_repeated_root_matches_spanning_condition(self):
        rng = random.Random(777001)
        feas = infeas = 0
        for _ in range(40):
            g, r, k = repeated_root_all_reachable(rng)
            got = solve(g, [r] * k)
            feasible = isinstance(got, MixedPacking)
            assert feasible == check_spanning_packing_condition(g, r, k)
            if feasible:
                feas += 1
            else:
                infeas += 1
        assert feas and infeas

    def test_staggered_segments_beyond_enum_scale(self):
        # 27 vertices, three 9-vertex atoms hosting 1, 2, and 3 trees;
        # the per-atom bounds keep this solvable although |V| > 20
        seg = 9
        vs, edges, arcs = [], [], []
        for s in range(3):
            vs.extend(f"s{s}_{j}" for j in range(seg))
        eid = 0
        for s in range(3):
            for j in range(seg - 1):
                for _copy in range(s + 1):
                    edges.append(Edge(f"e{eid}", f"s{s}_{j}", f"s{s}_{j+1}"))
                    eid += 1
        arcs = [
            Arc("x0", "s0_5", "s1_0"),
            Arc("x1", "s1_5", "s2_0"),
            Arc("x2", "s0_7", "s2_0"),
        ]
        g = MixedGraph(tuple(vs), tuple(edges), tuple(arcs))
        roots = ["s0_0", "s1_0", "s2_0"]
        dec = compute_atoms(g, roots)
        assert sorted(len(a) for a in dec.atoms) == [9, 9, 9]
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)
        # removing one inter-segment arc starves tree 1 inside segment 2
        g2 = MixedGraph(tuple(vs), tuple(edges), tuple(arcs[:2]))
        cert = solve(g2, roots)
        assert isinstance(cert, BiSetFamilyCertificate)
        assert verify_certificate(g2, roots, cert)

    @pytest.mark.parametrize(
        "family, size",
        [
            ("cycle_copies", {"n": 200, "k": 2}),
            ("staggered_segments", {"length": 100, "segments": 3}),
            ("doubled_path", {"n": 200}),
            ("staggered_segments", {"length": 100, "segments": 3, "drop": True}),
            ("staggered_segments", {"length": 200, "segments": 4}),
        ],
    )
    def test_bench_family_past_the_vertex_bound(self, family, size):
        # Atoms of 100 and 200 vertices, far past DEFAULT_BOUNDS, which
        # gates the exact fallback only: the fast path orients the
        # feasible ones and refutes the others.
        wl = bench_workloads()
        rng = random.Random(7)
        g, roots = parse_mixed_graph(wl._render(rng, [getattr(wl, family)(rng, "", **size)]))
        biggest = max(len(a) for a in compute_atoms(g, roots).atoms)
        assert biggest >= 100 > DEFAULT_BOUNDS.max_enum_vertices
        result = solve(g, roots)
        if family == "doubled_path" or size.get("drop"):
            assert isinstance(result, BiSetFamilyCertificate)
            assert verify_certificate(g, roots, result)
        else:
            assert isinstance(result, MixedPacking)
            assert validate_mixed_packing(g, roots, result)

    def test_successful_orientation_preserves_memberships(self):
        rng = random.Random(31337)
        seen = 0
        for _ in range(80):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=6, max_a=6)
            outcome = covering_orientation(g, roots)
            if isinstance(outcome, BiSetFamilyCertificate):
                continue
            d = apply_orientation(g, outcome)
            for v in g.vertices:
                mixed_vec = frozenset(
                    i
                    for i, r in enumerate(roots)
                    if v in mixed_reachable_set(g, r)
                )
                view_vec = frozenset(
                    i
                    for i, r in enumerate(roots)
                    if v in mixed_reachable_set(d, r)
                )
                assert mixed_vec == view_vec
            seen += 1
        assert seen


class _CountedTuple(tuple):
    """A tuple that counts the times it is iterated."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.iterations = 0
        return self

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _iterations(obj, names, run):
    """How often ``run()`` iterates each named tuple field of ``obj``."""
    seqs = {name: _CountedTuple(getattr(obj, name)) for name in names}
    for name, seq in seqs.items():
        object.__setattr__(obj, name, seq)
    run()
    return {name: seq.iterations for name, seq in seqs.items()}


class TestAtomCountIndependence:
    """One solve reads the whole graph a fixed number of times, however many atoms it has."""

    SIZES = (8, 128)

    @staticmethod
    def components(n: int):
        """``n`` of the ``many_atoms`` benchmark's small components in one graph."""
        wl = bench_workloads()
        rng = random.Random(n)
        kinds = wl._SMALL_KINDS
        parts = [wl._build(rng, f"c{c}_", kinds[c % len(kinds)]) for c in range(n)]
        return parse_mixed_graph(wl._render(rng, parts))

    def test_solve(self):
        counts, atoms = [], []
        for n in self.SIZES:
            g, roots = self.components(n)
            atoms.append(len(compute_atoms(g, roots).atoms))
            result = []
            counts.append(
                _iterations(g, ("vertices", "edges", "arcs"), lambda: result.append(solve(g, roots)))
            )
            assert isinstance(result[0], MixedPacking)
        assert atoms[1] > 10 * atoms[0]
        assert counts[0] == counts[1]

    def test_pack_reachability(self):
        counts = []
        for n in self.SIZES:
            g, roots = self.components(n)
            d = apply_orientation(g, covering_orientation(g, roots))
            result = []
            counts.append(_iterations(
                d, ("vertices", "edges", "arcs"), lambda: result.append(pack_reachability(d, roots))
            ))
            assert isinstance(result[0], MixedPacking)
        assert counts[0] == counts[1]


def stalled_instance():
    """One atom the fast path gives up on and the exact fallback orients."""
    return random_mixed_instance(random.Random(1 * 1000003 + 7619), max_v=7, max_e=11, max_a=7)


def two_stage(g, roots):
    """``solve`` as two public stages: orient every edge, then pack the digraph."""
    outcome = covering_orientation(g, roots)
    if isinstance(outcome, BiSetFamilyCertificate):
        return outcome
    d = apply_orientation(g, outcome)
    packing_ = pack_reachability(d, roots)
    assert isinstance(packing_, MixedPacking)
    # an id of one of g's edges names that edge, oriented as an arc of d
    return MixedPacking(
        tuple(
            t._replace(
                arcs=tuple(aid for aid in t.arcs if aid in g.arc_by_id),
                edges=tuple(EdgeUse(*d.arc_by_id[aid]) for aid in t.arcs if aid in g.edge_by_id),
            )
            for t in packing_.trees
        )
    )


def bench_instances(per_workload: int):
    wl = bench_workloads()
    for name in ("pack_heavy", "certify_heavy", "many_atoms"):
        for inst in wl.corpus(name, 1, per_workload):
            yield parse_mixed_graph(inst.text)


class TestPackOnTheOrientingOracle:
    """``solve`` packs each atom on the oracle that oriented it, with the two-stage answers."""

    def test_same_trees_as_the_two_stage_path(self, monkeypatch):
        fallbacks = []
        orient = exhaustive.orient_covering

        def counted(req):
            fallbacks.append(orient(req))
            return fallbacks[-1]

        monkeypatch.setattr(exhaustive, "orient_covering", counted)
        cases = list(bench_instances(110))
        rng = random.Random(4242)
        cases += [random_mixed_instance(rng, max_v=9, max_e=12, max_a=8) for _ in range(1000)]
        cases += [random_mixed_instance(rng, max_v=7, max_e=11, max_a=7) for _ in range(1000)]
        cases.append(stalled_instance())
        kinds = set()
        for g, roots in cases:
            result = solve(g, roots)
            assert result == two_stage(g, roots), (g, roots)
            kinds.add(type(result))
        assert kinds == {MixedPacking, BiSetFamilyCertificate}
        # some atoms were oriented by the fallback, not only refuted by it
        assert any(isinstance(o, Orientation) for o in fallbacks)

    def test_stalled_atom_packs_on_the_turned_oracle(self, monkeypatch):
        g, roots = stalled_instance()
        flips = []
        flip = _StepFlow.flip
        monkeypatch.setattr(_StepFlow, "flip", lambda self, k: flips.append(k) or flip(self, k))
        result = solve(g, roots)
        assert flips, "the fallback's directions must be copied onto the kept oracle"
        assert isinstance(result, MixedPacking)
        assert validate_mixed_packing(g, roots, result)
        assert result == two_stage(g, roots)

    def test_one_oracle_per_atom_and_no_second_stage(self, monkeypatch):
        built, first_fits = [], []
        init, first_fit = _StepFlow.__init__, packing._first_fit

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def recorded(cands, *args):
            # the first fit from each atom's start, not its rerun on an oracle
            owner = first_fit(cands, *args)
            if not any(cands is flow.cands for flow in built):
                first_fits.append(owner)
            return owner

        def forbidden(*args, **kwargs):
            raise AssertionError("solve ran the two-stage path")

        # both names live in ``two_stage``; patching without raising=False
        # fails if either moves, instead of guarding nothing
        for name in ("pack_reachability", "apply_orientation"):
            for module in (arbopack, arbopack.two_stage):
                monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(_StepFlow, "__init__", counted)
        for module in (orientation, packing):
            monkeypatch.setattr(module, "_first_fit", recorded)
        cases = list(bench_instances(20))
        cases.append(stalled_instance())
        packed = 0
        atoms_stuck = Counter()
        for g, roots in cases:
            built.clear()
            first_fits.clear()
            atoms = len(compute_atoms(g, roots).atoms)
            result = solve(g, roots)
            stuck = [owner is None for owner in first_fits]
            # one oracle per atom that first fit could not pack, none for the others
            assert len(built) == sum(stuck)
            if isinstance(result, MixedPacking):
                assert len(first_fits) == atoms
                packed += 1
            else:
                assert len(first_fits) <= atoms
            atoms_stuck.update(stuck)
        assert packed > 25 and min(atoms_stuck[True], atoms_stuck[False]) > 10, atoms_stuck

    def test_no_oracle_outlives_its_atom(self, monkeypatch):
        # Each atom is packed on its oracle before the next atom is
        # oriented, so a new oracle finds at most one other alive
        # (``packing._pack`` builds a second, untouched one to refute an
        # edgeless atom).
        live, others = weakref.WeakSet(), Counter()
        init = _StepFlow.__init__

        def tracked(self, *args, **kwargs):
            gc.collect()
            others[len(live)] += 1
            live.add(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_StepFlow, "__init__", tracked)
        cases = list(bench_instances(20))
        cases.append(stalled_instance())
        for g, roots in cases:
            solve(g, roots)
        assert max(others) <= 1 and others[0] > 100, others

    def test_first_fit_reruns_only_on_a_flipped_oracle(self, monkeypatch):
        # With no flip, an oracle's candidates are the ones first fit got
        # stuck on during orientation, so solve goes straight to the
        # checked greedy: the first fit it skips would get stuck again.
        oracles, reruns, skipped = [], [], []
        init, first_fit, grow = _StepFlow.__init__, orientation._first_fit, orientation._grow

        def built(self, *args, **kwargs):
            init(self, *args, **kwargs)
            oracles.append(self)

        def rerun(cands, trees, start, gmask):
            # the first fit from the start runs on no oracle's candidates
            flows = [f for f in oracles if f.cands is cands]
            if flows:
                (flow,) = flows
                assert flow.flips
                reruns.append(flow)
            return first_fit(cands, trees, start, gmask)

        def checked(cands, trees, covered, gmask, flow):
            if not flow.flips:
                assert first_fit(cands, trees, covered, gmask) is None
                skipped.append(flow)
            return grow(cands, trees, covered, gmask, flow)

        monkeypatch.setattr(_StepFlow, "__init__", built)
        monkeypatch.setattr(orientation, "_first_fit", rerun)
        monkeypatch.setattr(orientation, "_grow", checked)
        for g, roots in bench_instances(110):
            solve(g, roots)
        assert len(skipped) >= 10 and len(reruns) > 300, (len(skipped), len(reruns))

    def test_a_stuck_greedy_raises(self, monkeypatch):
        # First fit gets stuck on this edgeless atom, so the checked greedy
        # packs it at once.  Taking two units per step imitates a lost unit
        # of capacity there, and the greedy gets stuck on an atom that
        # packs: no check of the untouched atom fails.
        g, roots = parse_mixed_graph(first_fit_stuck_text())
        stuck = []
        grow = packing._grow

        def first_fit(cands, trees, covered, gmask, flow=None):
            owner = grow(cands, trees, covered, gmask, flow)
            if flow is None:
                stuck.append(isinstance(owner, int))
            return owner

        monkeypatch.setattr(packing, "_grow", first_fit)
        assert validate_mixed_packing(g, roots, solve(g, roots))
        assert stuck == [True]  # from the start only, not again on the oracle's candidates

        def take_twice(self, k, used):
            self.cap[self.cand_edge[k]] -= 2 * used

        monkeypatch.setattr(_StepFlow, "take", take_twice)
        with pytest.raises(InvariantError, match="stuck, but the untouched atom passes"):
            solve(g, roots)

    def test_a_half_done_flip_raises(self, monkeypatch):
        # Each flip turns the edge in the network but leaves its candidate
        # as it was, so the greedy offers the trees an edge the checks
        # count the other way, and a tree gets stuck on an atom that the
        # network says is covered.
        g, roots = random_mixed_instance(random.Random(112), max_v=7, max_e=11, max_a=7)
        assert validate_mixed_packing(g, roots, solve(g, roots))
        flip = _StepFlow.flip

        def network_only(self, k):
            cand = self.cands[self.first_edge + k]
            flip(self, k)
            self.cands[self.first_edge + k] = cand

        monkeypatch.setattr(_StepFlow, "flip", network_only)
        stuck = "tree 2 is stuck on an atom its orientation covers"
        with pytest.raises(InvariantError, match=stuck):
            solve(g, roots)


class TestAuxiliaryGraph:
    def test_only_a_stalled_atom_builds_one(self, monkeypatch):
        # A refuted atom's certificate names its terminals by arc id and
        # is lifted on the input graph, so the auxiliary graph is built
        # once per atom the fast path stalls on, and for no other atom.
        built, stalled, refuted = [], [], []
        build, by_cuts, refute = (
            exhaustive.build_auxiliary,
            orientation._orient_by_cuts,
            orientation._refuted,
        )

        def counted_build(*args):
            built.append(args[2])
            return build(*args)

        def counted_by_cuts(*args):
            outcome = by_cuts(*args)
            stalled.append(outcome is None)
            return outcome

        def counted_refute(*args):
            refuted.append(args[1])
            return refute(*args)

        for module in (arbopack, exhaustive):
            monkeypatch.setattr(module, "build_auxiliary", counted_build)
        monkeypatch.setattr(orientation, "_orient_by_cuts", counted_by_cuts)
        monkeypatch.setattr(orientation, "_refuted", counted_refute)
        cases = list(bench_instances(110))
        rng = random.Random(5150)
        cases += [random_mixed_instance(rng, max_v=7, max_e=11, max_a=7) for _ in range(1200)]
        cases.append(stalled_instance())
        kinds = Counter()
        for g, roots in cases:
            result = solve(g, roots)
            kinds[type(result)] += 1
            if isinstance(result, BiSetFamilyCertificate):
                assert verify_certificate(g, roots, result)
        assert len(built) == sum(stalled)
        assert sum(stalled) > 50 and len(refuted) > 300, (sum(stalled), len(refuted))
        assert min(kinds.values()) > 300, kinds


class TestFirstFit:
    """First fit packs an atom only where the checked path would give the same answer."""

    def test_first_fit_agrees_with_the_checked_path(self, monkeypatch):
        # On every atom that first fit packs from the start orientation, a
        # fresh oracle's fast path keeps that orientation, with no flip,
        # and the checked greedy takes the same candidates.
        flips = []
        flip = _StepFlow.flip
        monkeypatch.setattr(_StepFlow, "flip", lambda self, k: flips.append(k) or flip(self, k))
        rng = random.Random(6021)
        cases = [random_mixed_instance(rng, max_v=8, max_e=11, max_a=8) for _ in range(2000)]
        cases += [random_digraph_instance(rng, max_v=7, max_a=14) for _ in range(1000)]
        seen = Counter()
        for g, roots in cases:
            dec = compute_atoms(g, roots)
            for j, sl in enumerate(_atom_slices(g, dec)):
                _check_atom(sl)
                trees, start, ends = _start_state(sl, dec, j, roots)
                cands = sl.cands
                gmask = (1 << len(sl.vertices)) - 1
                owner = _first_fit(cands + _edge_cands(ends), trees, start, gmask)
                seen[owner is not None, bool(ends)] += 1
                if owner is None:
                    continue
                flips.clear()
                flow = _StepFlow(len(sl.vertices), trees, cands, gmask, ends)
                assert _orient_by_cuts(sl, j, flow, start) == ends
                assert not flips
                assert _grow(flow.cands, trees, dict(start), gmask, flow) == owner
        assert min(seen.values()) > 200, seen

    def test_no_atom_below_the_count_gate_reaches_first_fit(self, monkeypatch):
        grow, first_fit = packing._grow, packing._first_fit
        gated = Counter()

        def need(trees, footholds, gmask):
            return sum(bin(gmask & ~footholds[i]).count("1") for i in trees)

        def checked_gate(cands, trees, covered, gmask, flow=None):
            if flow is None:
                assert len(cands) >= need(trees, covered, gmask), "first fit ran below the gate"
            return grow(cands, trees, covered, gmask, flow)

        def counted(cands, trees, start, gmask):
            gated[len(cands) >= need(trees, start, gmask)] += 1
            return first_fit(cands, trees, start, gmask)

        monkeypatch.setattr(packing, "_grow", checked_gate)
        for module in (packing, orientation):
            monkeypatch.setattr(module, "_first_fit", counted)
        rng = random.Random(6022)
        kinds = Counter()
        for _ in range(600):
            g, roots = random_mixed_instance(rng, max_v=8, max_e=11, max_a=8)
            kinds[type(solve(g, roots))] += 1
        for _ in range(400):
            g, roots = random_digraph_instance(rng, max_v=7, max_a=14)
            kinds["digraph", type(pack_reachability(g, roots))] += 1
        assert gated[True] > 1000 and gated[False] > 100, gated
        assert len(kinds) == 4 and min(kinds.values()) > 50, kinds

    def test_large_atoms_pack_with_no_oracle(self, monkeypatch):
        # First fit packs the 200-vertex cycle copies and the 400-vertex
        # doubled cycle from their start, with no oracle and no flow.  The
        # staggered segments need path reversals, so they take the oracle.
        built, flows = [], []
        init, min_cut = _StepFlow.__init__, packing._min_cut

        def counted(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(_StepFlow, "__init__", counted)
        monkeypatch.setattr(packing, "_min_cut", lambda *a: flows.append(a) or min_cut(*a))
        wl = bench_workloads()
        rng = random.Random(7)
        g, roots = parse_mixed_graph(wl._render(rng, [wl.cycle_copies(rng, "", n=200, k=2)]))
        assert validate_mixed_packing(g, roots, solve(g, roots))
        g, roots = parse_mixed_graph(doubled_cycle_text(400, 2))
        assert validate_mixed_packing(g, roots, pack_reachability(g, roots))
        assert not built and not flows

        g, roots = parse_mixed_graph(
            wl._render(rng, [wl.staggered_segments(rng, "", length=100, segments=3)])
        )
        assert validate_mixed_packing(g, roots, solve(g, roots))
        assert built and flows


class TestEdgelessAtoms:
    """An atom with no edge to orient goes from first fit straight to the checked greedy."""

    def test_no_edgeless_atom_reaches_the_fast_path(self, monkeypatch):
        orient_by_cuts, grow = orientation._orient_by_cuts, packing._grow
        with_edges, grown = Counter(), Counter()

        def recorded(sl, *args):
            with_edges[any(not e.is_loop() for e in sl.edges)] += 1
            return orient_by_cuts(sl, *args)

        def checked(*args):
            # packing's checked greedy runs on edgeless atoms only here
            owner = grow(*args)
            if len(args) == 5:
                grown[isinstance(owner, int)] += 1
            return owner

        monkeypatch.setattr(orientation, "_orient_by_cuts", recorded)
        monkeypatch.setattr(packing, "_grow", checked)
        cases = list(bench_instances(110))
        rng = random.Random(6023)
        cases += [random_mixed_instance(rng, max_v=8, max_e=11, max_a=8) for _ in range(600)]
        cases += [random_mixed_instance(rng, max_v=8, max_e=2, max_a=10) for _ in range(600)]
        for g, roots in cases:
            result = solve(g, roots)
            if isinstance(result, MixedPacking):
                assert validate_mixed_packing(g, roots, result)
            else:
                assert verify_certificate(g, roots, result)
        assert not with_edges[False] and with_edges[True] > 100, with_edges
        # edgeless atoms that first fit got stuck on: packed, and refuted
        assert min(grown[False], grown[True]) > 20, grown

    def test_edgeless_certificate_pinned(self, monkeypatch):
        # Atom {m, c} has two trees and three arcs: first fit is gated
        # off, the checked greedy gets stuck, and the untouched check from
        # m passes while the one from c fails.  The certificate is the
        # one the fast path gave this atom when it still ran on it.
        first_short = packing._first_short
        scans = []
        monkeypatch.setattr(packing, "_first_short", lambda *a: scans.append(a) or first_short(*a))
        g, roots = parse_mixed_graph(
            "vertex r1\nvertex r2\nvertex m\nvertex c\n"
            "arc r1 m\narc r2 m\narc m c\nroot r1\nroot r2\n"
        )
        dec = compute_atoms(g, roots)
        assert dec.atoms[2] == {"m", "c"} and not _atom_slices(g, dec)[2].edges
        outcome = orientation.orient_atom(g, dec, 2, roots)
        assert outcome == SubpartitionCertificate(2, (frozenset({"c"}),), 1)
        assert len(scans) == 1
        assert solve(g, roots) == BiSetFamilyCertificate(
            2, (BiSet(frozenset({"c"}), frozenset({"c"})),), 1, 2
        )


def with_terminal_names(rng, g, roots):
    """``g`` and ``roots`` with some vertices renamed ``t:<arc-id>`` after arcs of ``g``."""
    ids = [a.id for a in g.arcs]
    rng.shuffle(ids)
    names = {v: f"t:{aid}" for v, aid in zip(g.vertices, ids) if rng.random() < 0.6}

    def rename(v):
        return names.get(v, v)

    renamed = MixedGraph(
        tuple(map(rename, g.vertices)),
        tuple(Edge(e.id, rename(e.u), rename(e.v)) for e in g.edges),
        tuple(Arc(a.id, rename(a.tail), rename(a.head)) for a in g.arcs),
    )
    return renamed, [rename(r) for r in roots]


class TestStartState:
    """The one pass sets every atom up as the string-keyed derivation does."""

    @staticmethod
    def outcome(derive):
        try:
            trees, start, cands, ends = derive()
        except (InvariantError, ValueError) as exc:
            return type(exc), str(exc)
        return trees, tuple(start.items()), cands, ends

    def assert_matches(self, g, roots, dec, seen):
        for j, sl in enumerate(_atom_slices(g, dec)):

            def one_pass():
                _check_atom(sl)
                trees, start, ends = _start_state(sl, dec, j, roots)
                return trees, start, sl.cands, ends

            got = self.outcome(one_pass)
            assert got == self.outcome(lambda: reference_start_state(g, dec, j, roots))
            gamma = dec.atoms[j]
            arcs = [a for a in sl.arcs if not a.is_loop()]
            edges = [e for e in sl.edges if not e.is_loop()]
            assert [g.arcs[pos] for pos in sl.arc_pos] == arcs
            assert [g.edges[pos] for pos in sl.edge_pos] == edges
            assert [(sl.vertices[u], sl.vertices[v]) for u, v in sl.pairs] == [e[1:] for e in edges]
            n = len(sl.vertices)
            heads = [hb.bit_length() - 1 for tb, hb, _hit in sl.cands if tb >> n]
            assert heads == [sl.at[a.head][1] for a in arcs if a.tail not in gamma]
            seen[got[0] if isinstance(got[0], type) else bool(got[2] and got[3])] += 1

    def test_matches_the_reference(self):
        seen = Counter()
        cases = list(bench_instances(110))
        rng = random.Random(2121)
        cases += [random_mixed_instance(rng, max_v=8, max_e=10, max_a=10, max_k=4) for _ in range(1200)]
        cases += [random_digraph_instance(rng, max_v=7, max_a=12) for _ in range(300)]
        cases += [
            with_terminal_names(rng, *random_mixed_instance(rng, max_v=7, max_e=6, max_a=10))
            for _ in range(600)
        ]
        for g, roots in cases:
            self.assert_matches(g, roots, compute_atoms(g, roots), seen)
        assert seen[ValueError] > 50 and min(seen[True], seen[False]) > 1000, seen

    def test_crossing_edges_raise_first(self):
        # e2 joins atoms 1 and 2; arc a1 into atom 2 and arc a2 into atom
        # 3 have the names of vertices in no atom
        g = MixedGraph(
            ("r", "u", "w", "x", "y", "t:a1", "t:a2"),
            (Edge("e1", "u", "r"), Edge("e2", "w", "x")),
            (Arc("a1", "r", "x"), Arc("a2", "r", "y")),
        )
        dec = AtomDecomposition(
            reach=(frozenset(g.vertices),),
            atoms=(frozenset("ru"), frozenset("w"), frozenset("x"), frozenset("y")),
            atom_roots=(frozenset({0}),) * 4,
        )
        seen = Counter()
        self.assert_matches(g, ["r"], dec, seen)
        assert seen == Counter({InvariantError: 2, ValueError: 1, False: 1})


class TestReservedTerminalNames:
    """Raises for a vertex named as the terminal of an arc into an atom, and only then.

    ``solve`` and ``pack_reachability`` apply the one rule.
    """

    def test_terminal_name_of_an_entering_arc(self):
        g = MixedGraph(("r", "x", "t:a1"), (), (Arc("a1", "r", "x"),))
        with pytest.raises(ValueError, match="reserved") as exc:
            solve(g, ["r", "x"])
        assert str(exc.value) == "vertex 't:a1' uses the 't:' prefix reserved for terminal ids"

    def test_pack_reachability_raises_as_solve_does(self):
        # A digraph is packed by solve's own per-atom driver, so both
        # entry points apply the one rule, to the atom of t:x.
        g = MixedGraph(("r", "w", "t:x"), (), (Arc("x", "r", "t:x"), Arc("y", "w", "t:x")))
        messages = []
        for run in (solve, pack_reachability):
            with pytest.raises(ValueError, match="reserved") as exc:
                run(g, ["r", "w"])
            messages.append(str(exc.value))
        assert messages == ["vertex 't:x' uses the 't:' prefix reserved for terminal ids"] * 2

    def test_other_terminal_names_solve(self):
        # t:a1 names an arc inside an atom, t:e1 an edge
        g = MixedGraph(
            ("r", "x", "y", "t:a1", "t:e1"),
            (Edge("e1", "r", "x"), Edge("e2", "x", "r")),
            (
                Arc("a1", "x", "r"),
                Arc("a2", "x", "y"),
                Arc("a3", "y", "t:a1"),
                Arc("a4", "y", "t:a1"),
                Arc("a5", "t:e1", "y"),
            ),
        )
        assert solve(g, ["r", "y"]) == MixedPacking((
            MixedTree(0, "r", ("a2", "a3"), (EdgeUse("e1", "r", "x"),)),
            MixedTree(1, "y", ("a4",), ()),
        ))

    def test_a_refuted_atom_comes_first(self):
        # atom {r, x} is refuted before atom {z}, whose arc a9 has the
        # name of vertex t:a9, is set up
        g = MixedGraph(("r", "x", "z", "t:a9"), (Edge("e1", "r", "x"),), (Arc("a9", "x", "z"),))
        assert solve(g, ["r", "r", "z"]) == BiSetFamilyCertificate(
            0, (BiSet(frozenset({"x"}), frozenset({"x"})),), 1, 2
        )
