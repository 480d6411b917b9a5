from __future__ import annotations

import random

import pytest

from arbopack import (
    DEFAULT_BOUNDS,
    Arborescence,
    DigraphPacking,
    DirectedView,
    InvariantError,
    Orientation,
    ViewArc,
    apply_orientation,
    arcs_view,
    compute_atoms,
    pack_atom_branchings,
    pack_reachability,
    parse_mixed_graph,
    validate_digraph_packing,
)
from arbopack import decomposition, packing
from arbopack.decomposition import _atom_slices, _decompose
from arbopack.packing import _StepFlow, reachable_in_view
from instance_gen import (
    deep_atom_text,
    doubled_cycle_text,
    first_fit_stuck_text,
    random_digraph_instance,
    random_mixed_instance,
    random_orientation,
    sparse_digraph_instance,
)
from naive import cut_deficit, reference_step_check, verify_cut_condition


def canonical_view(two_root) -> tuple[DirectedView, list[str]]:
    g, roots = two_root
    o = Orientation(
        {
            "e1": ("r1", "v1"),
            "e2": ("r1", "v2"),
            "e3": ("r1", "v5"),
            "e4": ("r2", "v6"),
            "e5": ("r2", "v7"),
            "e6": ("v2", "v5"),
        }
    )
    return apply_orientation(g, o), roots


class TestVerifyCutCondition:
    def test_canonical_orientation_ok(self, two_root):
        d, roots = canonical_view(two_root)
        assert verify_cut_condition(d, roots) is None

    def test_single_arc_two_roots_ok(self):
        d = DirectedView(("r1", "r2", "v"), (ViewArc("a1", "r1", "v", "arc"),))
        assert verify_cut_condition(d, ["r1", "r2"]) is None

    def test_shared_vertex_short_one_arc(self):
        # both roots reach v but only one arc enters it
        d = DirectedView(
            ("r1", "r2", "v"),
            (ViewArc("a1", "r1", "r2", "arc"), ViewArc("a2", "r2", "v", "arc")),
        )
        assert verify_cut_condition(d, ["r1", "r2"]) == frozenset(["v"])

    def test_first_violator_in_mask_order(self):
        # both tree indices need x and y, but each has only one entering arc
        d = DirectedView(
            ("r", "x", "y"),
            (ViewArc("a1", "r", "x", "arc"), ViewArc("a2", "x", "y", "arc")),
        )
        viol = verify_cut_condition(d, ["r", "r"])
        assert viol == frozenset(["x"])

    def test_capacity(self):
        from arbopack import Bounds, CapacityError

        d = DirectedView(tuple(f"n{i}" for i in range(5)), ())
        with pytest.raises(CapacityError, match="max_enum_vertices"):
            verify_cut_condition(d, ["n0"], Bounds(max_enum_vertices=4))


class TestPackReachability:
    def test_canonical_packing(self, two_root):
        d, roots = canonical_view(two_root)
        packing = pack_reachability(d, roots)
        assert isinstance(packing, DigraphPacking)
        assert validate_digraph_packing(d, roots, packing)
        keys = [sorted(a.key for a in t.arcs) for t in packing.trees]
        assert keys[0] == [
            ("arc", "a1"),
            ("arc", "a2"),
            ("edge", "e1"),
            ("edge", "e2"),
            ("edge", "e3"),
        ]
        assert keys[1] == [
            ("arc", "a3"),
            ("arc", "a4"),
            ("edge", "e4"),
            ("edge", "e5"),
        ]

    def test_single_root_arborescence_returned(self):
        d = DirectedView(
            ("r", "x", "y"),
            (ViewArc("a1", "r", "x", "arc"), ViewArc("a2", "x", "y", "arc")),
        )
        packing = pack_reachability(d, ["r"])
        assert isinstance(packing, DigraphPacking)
        assert {a.key for a in packing.trees[0].arcs} == {("arc", "a1"), ("arc", "a2")}

    def test_infeasible_returns_violated_set(self):
        d = DirectedView(
            ("r1", "r2", "v"),
            (ViewArc("a1", "r1", "r2", "arc"), ViewArc("a2", "r2", "v", "arc")),
        )
        assert pack_reachability(d, ["r1", "r2"]) == frozenset(["v"])

    def test_arcs_stay_inside_reach_sets(self):
        rng = random.Random(31415)
        for _ in range(60):
            g, roots = random_digraph_instance(rng, max_v=6, max_a=10)
            d = arcs_view(g)
            packing = pack_reachability(d, roots)
            if not isinstance(packing, DigraphPacking):
                continue
            for tree in packing.trees:
                span = reachable_in_view(d, roots[tree.root_index])
                for a in tree.arcs:
                    assert a.tail in span and a.head in span

    def test_packing_iff_cut_condition_random(self):
        rng = random.Random(2718)
        feasible = infeasible = 0
        for _ in range(150):
            g, roots = random_digraph_instance(rng, max_v=7, max_a=14)
            d = arcs_view(g)
            packing = pack_reachability(d, roots)
            ok = verify_cut_condition(d, roots) is None
            if isinstance(packing, DigraphPacking):
                assert ok
                assert validate_digraph_packing(d, roots, packing)
                feasible += 1
            else:
                assert not ok
                assert cut_deficit(d, roots, packing) > 0
                infeasible += 1
        assert feasible and infeasible

    def test_failed_atom_answers_beyond_sweep_size(self):
        # The failed atom has two vertices; twenty isolated vertices put
        # the graph past the size of any whole-graph subset sweep.
        d = DirectedView(
            ("r1", "r2", "m", "c") + tuple(f"z{i}" for i in range(20)),
            (
                ViewArc("a1", "r1", "m", "arc"),
                ViewArc("a2", "r2", "m", "arc"),
                ViewArc("a3", "m", "c", "arc"),
            ),
        )
        assert pack_reachability(d, ["r1", "r2"]) == frozenset({"c"})

    def test_violated_set_reaches_back_past_the_atom(self):
        # All three trees need v.  Its worst completion takes in the two
        # arcs from u, which only tree 3 spans, so the violated set grows
        # by everything that reaches u.  Trees 1 and 2 then share the one
        # arc from r1 into it.
        d = DirectedView(
            ("r1", "r2", "u", "v"),
            (
                ViewArc("a1", "r2", "u", "arc"),
                ViewArc("a2", "u", "v", "arc"),
                ViewArc("a3", "u", "v", "arc"),
                ViewArc("a4", "r1", "v", "arc"),
            ),
        )
        roots = ["r1", "r1", "r2"]
        violated = pack_reachability(d, roots)
        assert violated == frozenset({"v", "u", "r2"})
        assert cut_deficit(d, roots, violated) == 1
        assert cut_deficit(d, roots, {"v"}) == 0

    def test_sparse_fuzz_beyond_oracle_scale(self):
        # 30-80 vertices: every packing must validate, and every violated
        # set must be short of entering arcs by direct count.  Packing
        # has no size bound, so no instance may raise CapacityError.
        rng = random.Random(8080)
        outcomes = {"packed": 0, "violated": 0}
        for _ in range(1000):
            g, roots = sparse_digraph_instance(rng)
            d = arcs_view(g)
            result = pack_reachability(d, roots)
            if isinstance(result, DigraphPacking):
                assert validate_digraph_packing(d, roots, result)
                outcomes["packed"] += 1
            else:
                assert cut_deficit(d, roots, result) > 0
                outcomes["violated"] += 1
        assert outcomes["packed"] > 300 and outcomes["violated"] > 300, outcomes

    def test_vertex_bound_counts_atom_and_hit_trees_only(self):
        # Instance 469 of the fuzz corpus: a 14-vertex atom with 7
        # terminals, none of which gives a tree a foothold.  Packing no
        # longer enumerates its sets; the orientation sweep would count
        # 14 bits for it, within the default bound of 20.
        rng = random.Random(8080)
        for _ in range(470):
            g, roots = sparse_digraph_instance(rng)
        d = arcs_view(g)
        assert max(len(atom) for atom in compute_atoms(g, roots).atoms) == 14
        violated = pack_reachability(d, roots)
        assert isinstance(violated, frozenset)
        assert cut_deficit(d, roots, violated) > 0

    def test_doubled_cycle_past_the_vertex_bound(self):
        # One 200-vertex atom, ten times the default max_enum_vertices,
        # which gates only the orientation sweep.
        g, roots = parse_mixed_graph(doubled_cycle_text(200, 2))
        d = arcs_view(g)
        assert len(d.vertices) > DEFAULT_BOUNDS.max_enum_vertices
        packing = pack_reachability(d, roots)
        assert isinstance(packing, DigraphPacking)
        assert validate_digraph_packing(d, roots, packing)

        g, roots = parse_mixed_graph(doubled_cycle_text(200, 3))
        d = arcs_view(g)
        violated = pack_reachability(d, roots)
        assert isinstance(violated, frozenset)
        assert cut_deficit(d, roots, violated) > 0

    def test_deep_atom(self):
        # 520 trees take 1,040 arcs in one atom, one arc at a time.
        g, roots = parse_mixed_graph(deep_atom_text())
        d = arcs_view(g)
        packing = pack_reachability(d, roots)
        assert isinstance(packing, DigraphPacking)
        assert validate_digraph_packing(d, roots, packing)

    def test_vertex_named_like_a_terminal(self):
        # "t:a:x" is an ordinary vertex that both roots reach; each tree
        # enters it through its own arc.
        d = DirectedView(
            ("r", "w", "t:a:x"),
            (ViewArc("x", "r", "t:a:x", "arc"), ViewArc("y", "w", "t:a:x", "arc")),
        )
        roots = ["r", "w"]
        packing = pack_reachability(d, roots)
        assert isinstance(packing, DigraphPacking)
        assert validate_digraph_packing(d, roots, packing)


class TestPackAtomBranchings:
    def shared_atom_view(self):
        verts = ("v3", "v4", "t:a:a1", "t:a:a2", "t:a:a3", "t:a:a5")
        arcs = (
            ViewArc("a4", "v4", "v3", "arc"),
            ViewArc("a1", "t:a:a1", "v3", "arc"),
            ViewArc("a2", "t:a:a2", "v4", "arc"),
            ViewArc("a3", "t:a:a3", "v4", "arc"),
            ViewArc("a5", "t:a:a5", "v3", "arc"),
        )
        return DirectedView(verts, arcs)

    def test_canonical_shared_atom(self):
        view = self.shared_atom_view()
        demands = {
            0: frozenset({"t:a:a1", "t:a:a2", "t:a:a5"}),
            1: frozenset({"t:a:a3"}),
        }
        result = pack_atom_branchings(view, frozenset({"v3", "v4"}), demands)
        assert result is not None
        assert {a.id for a in result[0]} == {"a1", "a2"}
        assert {a.id for a in result[1]} == {"a3", "a4"}

    def test_single_vertex_atom(self):
        view = DirectedView(("v",), ())
        result = pack_atom_branchings(view, frozenset({"v"}), {0: frozenset({"v"})})
        assert result == {0: ()}

    def test_two_trees_one_terminal_fails(self):
        view = DirectedView(("v", "t:a:a1"), (ViewArc("a1", "t:a:a1", "v", "arc"),))
        demands = {0: frozenset({"t:a:a1"}), 1: frozenset({"t:a:a1"})}
        # both trees need v; taking the terminal in would block them both
        assert pack_atom_branchings(view, frozenset({"v"}), demands) == frozenset({"v"})

    def test_disallowed_terminal_never_used(self):
        view = DirectedView(
            ("v", "t:a:a1", "t:a:a2"),
            (ViewArc("a1", "t:a:a1", "v", "arc"), ViewArc("a2", "t:a:a2", "v", "arc")),
        )
        result = pack_atom_branchings(
            view, frozenset({"v"}), {0: frozenset({"t:a:a2"})}
        )
        assert result is not None
        assert [a.id for a in result[0]] == ["a2"]

    def test_whole_digraph_as_view(self):
        # Trees 1 and 2 both span r and u.  a1 and a6 have their heads
        # outside the atom, so they are ignored; a2 and a3 both enter
        # from u, and each serves one tree.
        view = DirectedView(
            ("r", "u", "v", "w"),
            (
                ViewArc("a1", "r", "u", "arc"),
                ViewArc("a2", "u", "v", "arc"),
                ViewArc("a3", "u", "v", "arc"),
                ViewArc("a4", "v", "w", "arc"),
                ViewArc("a5", "u", "w", "arc"),
                ViewArc("a6", "w", "r", "arc"),
            ),
        )
        spans = frozenset({"r", "u"})
        result = pack_atom_branchings(view, frozenset({"v", "w"}), {0: spans, 1: spans})
        _, a2, a3, a4, a5, _ = view.arcs
        assert result == {0: (a2, a4), 1: (a3, a5)}

    def test_atom_slice_matches_whole_view(self):
        rng = random.Random(7171)
        views = []
        for _ in range(300):
            g, roots = random_digraph_instance(rng, max_v=7, max_a=14, max_k=4)
            views.append((arcs_view(g), roots))
        for _ in range(100):
            g, roots = random_mixed_instance(rng, max_v=7, max_e=8, max_a=8, max_k=4)
            views.append((apply_orientation(g, random_orientation(rng, g)), roots))
        infeasible = [0, 0]
        for d, roots in views:
            dec = _decompose(d, roots)
            slices = _atom_slices(d, dec)
            for j, gamma in enumerate(dec.atoms):
                demands = {
                    i: frozenset((roots[i],)) if roots[i] in gamma else dec.reach[i] - gamma
                    for i in sorted(dec.atom_roots[j])
                }
                whole = pack_atom_branchings(d, gamma, demands)
                vertices, _edges, arcs, _crossing = slices[j]
                sliced = pack_atom_branchings(d, gamma, demands, vertices, arcs)
                assert sliced == whole
                infeasible[isinstance(whole, frozenset)] += 1
        assert min(infeasible) > 30, infeasible


def random_atom_state(rng: random.Random):
    """Footholds and arcs of an atom of up to 8 vertices, some arcs used.

    Trees share footholds (repeated roots) or hold nothing inside the
    atom; arcs come in parallel copies; entering arcs may serve several
    trees.  Returns the atom mask, the footholds, the ``(tail, head,
    hit)`` candidates in packing order and which of them are used.
    """
    n = rng.randint(1, 8)
    gmask = (1 << n) - 1
    footholds: dict[int, int] = {}
    for i in sorted(rng.sample(range(8), rng.randint(1, 6))):
        roll = rng.random()
        if footholds and roll < 0.3:
            footholds[i] = rng.choice(list(footholds.values()))
        elif roll < 0.55:
            footholds[i] = 0
        else:
            footholds[i] = rng.randint(1, gmask)
    trees = list(footholds)
    cands: list[tuple[int, int, int]] = []
    n_term = 0
    for _ in range(rng.randint(0, 14)):
        if cands and rng.random() < 0.25:
            tb, hb, hit = rng.choice(cands)
            if not tb & gmask:
                tb = 1 << (n + n_term)
                n_term += 1
        elif n > 1 and rng.random() < 0.6:
            t, h = rng.sample(range(n), 2)
            tb, hb, hit = 1 << t, 1 << h, 0
        else:
            tb, hb = 1 << (n + n_term), 1 << rng.randrange(n)
            hit = sum(1 << i for i in trees if rng.random() < 0.5)
            n_term += 1
        cands.append((tb, hb, hit))
    used = {k for k in range(len(cands)) if rng.random() < 0.3}
    return gmask, footholds, cands, used


def direct_deficiency(gmask, footholds, cands, used, xmask) -> int:
    """Trees left short by a cut mask, counted from the arcs themselves.

    ``xmask`` holds Y inside ``gmask`` and the tail bits of a set T of
    entering arcs.  Counts the trees with no foothold in Y and no unused
    arc in T, minus the unused atom arcs into Y and the unused entering
    arcs into Y outside T.
    """
    y = xmask & gmask
    unused = [c for k, c in enumerate(cands) if k not in used]
    hit = 0
    for tb, _hb, h in unused:
        if tb & xmask & ~gmask:
            hit |= h
    need = sum(1 for i, f in footholds.items() if not f & y and not hit >> i & 1)
    entering = sum(1 for tb, hb, _h in unused if hb & y and not tb & xmask)
    return need - entering


class TestStepFlow:
    def assert_matches_sweep(self, n, gmask, footholds, cands, used, flow):
        atom_arcs = [c[:2] for k, c in enumerate(cands) if k not in used and c[0] & gmask]
        term_arcs = [c for k, c in enumerate(cands) if k not in used and not c[0] & gmask]
        verdicts = []
        for w in range(n):
            expected = reference_step_check(gmask, footholds, atom_arcs, term_arcs, 1 << w)
            xmask = flow.cut(1 << w, footholds)
            assert (xmask is None) == expected, (footholds, cands, used, w)
            if xmask is not None:
                assert xmask & 1 << w
                assert direct_deficiency(gmask, footholds, cands, used, xmask) > 0
            verdicts.append(expected)
        return verdicts

    def test_flow_matches_requirement_sweep(self):
        rng = random.Random(7070)
        verdicts = []
        for _ in range(400):
            gmask, footholds, cands, used = random_atom_state(rng)
            n = gmask.bit_length()
            flow = _StepFlow(n, list(footholds), cands, gmask)
            for k in used:
                flow.take(k, 1)
            verdicts += self.assert_matches_sweep(n, gmask, footholds, cands, used, flow)
            if used:
                # give one arc back, as a rejected step does
                k = rng.choice(sorted(used))
                flow.take(k, -1)
                used.discard(k)
                verdicts += self.assert_matches_sweep(n, gmask, footholds, cands, used, flow)
        assert verdicts.count(True) > 300 and verdicts.count(False) > 300

    def test_no_requirement_sweep(self, monkeypatch, two_root):
        calls = {"sweep": 0, "atom": 0}
        sweep, pack_atom = decomposition._requirements, packing.pack_atom_branchings

        def counted_sweep(*args):
            calls["sweep"] += 1
            return sweep(*args)

        def counted_pack_atom(*args):
            calls["atom"] += 1
            return pack_atom(*args)

        assert not hasattr(packing, "_requirements")
        monkeypatch.setattr(decomposition, "_requirements", counted_sweep)
        monkeypatch.setattr(packing, "pack_atom_branchings", counted_pack_atom)
        rng = random.Random(5150)
        cases = [canonical_view(two_root)]
        g, roots = parse_mixed_graph(deep_atom_text(6))
        cases.append((arcs_view(g), roots))
        for _ in range(40):
            g, roots = random_digraph_instance(rng, max_v=6, max_a=12)
            cases.append((arcs_view(g), roots))
        outcomes = set()
        for d, roots in cases:
            outcomes.add(type(pack_reachability(d, roots)))
        assert outcomes == {DigraphPacking, frozenset}
        assert calls["sweep"] == 0 and calls["atom"] > 40

    def test_lost_capacity_raises_instead_of_a_bogus_set(self, monkeypatch):
        # First fit gets stuck on this atom, so the checked greedy packs
        # it.  Taking two units per arc there imitates a bookkeeping bug:
        # a tree then finds no arc that passes, and the atom as it stands
        # fails the check, but the untouched atom passes it from every
        # vertex, so no violated set may come back.
        def take_twice(self, k, used):
            self.cap[self.cand_edge[k]] -= 2 * used

        g, roots = parse_mixed_graph(first_fit_stuck_text())
        d = arcs_view(g)
        stuck = []
        grow = packing._grow

        def first_fit(cands, trees, covered, gmask, flow=None):
            owner = grow(cands, trees, covered, gmask, flow)
            stuck.append((flow is None, isinstance(owner, int)))
            return owner

        monkeypatch.setattr(packing, "_grow", first_fit)
        assert isinstance(pack_reachability(d, roots), DigraphPacking)
        assert stuck == [(True, True), (False, False)]
        monkeypatch.setattr(_StepFlow, "take", take_twice)
        with pytest.raises(InvariantError, match="untouched atom passes"):
            pack_reachability(d, roots)


class TestValidateDigraphPacking:
    def test_one_search_per_distinct_root(self, monkeypatch, two_root):
        calls = []
        search = packing.reachable_in_view

        def counted(d, r):
            calls.append(r)
            return search(d, r)

        g, roots = parse_mixed_graph(deep_atom_text(260))
        cases = [(arcs_view(g), roots), canonical_view(two_root)]
        results = [pack_reachability(d, roots) for d, roots in cases]
        monkeypatch.setattr(packing, "reachable_in_view", counted)
        for (d, roots), result in zip(cases, results):
            calls.clear()
            assert validate_digraph_packing(d, roots, result)
            assert calls == list(dict.fromkeys(roots))

    def test_canonical_ok(self, two_root):
        d, roots = canonical_view(two_root)
        packing = pack_reachability(d, roots)
        assert validate_digraph_packing(d, roots, packing)

    def test_moved_arc_breaks_span(self, two_root):
        d, roots = canonical_view(two_root)
        packing = pack_reachability(d, roots)
        t0, t1 = packing.trees
        moved = next(a for a in t1.arcs if a.id == "a4")
        bad = DigraphPacking(
            (
                Arborescence(0, t0.arcs + (moved,)),
                Arborescence(1, tuple(a for a in t1.arcs if a.id != "a4")),
            )
        )
        verdict = validate_digraph_packing(d, roots, bad)
        assert not verdict
        assert "tree" in verdict.reason

    def test_shared_arc_detected(self, two_root):
        d, roots = canonical_view(two_root)
        packing = pack_reachability(d, roots)
        t0, t1 = packing.trees
        shared = t0.arcs[0]
        bad = DigraphPacking((t0, Arborescence(1, t1.arcs + (shared,))))
        verdict = validate_digraph_packing(d, roots, bad)
        assert not verdict
        assert "used twice" in verdict.reason

    def test_wrong_tree_count(self, two_root):
        d, roots = canonical_view(two_root)
        packing = pack_reachability(d, roots)
        verdict = validate_digraph_packing(d, roots, DigraphPacking(packing.trees[:1]))
        assert not verdict and "expected 2 trees" in verdict.reason

    def test_root_with_incoming_arc(self):
        d = DirectedView(
            ("r", "x"),
            (ViewArc("a1", "r", "x", "arc"), ViewArc("a2", "x", "r", "arc")),
        )
        bad = DigraphPacking(
            (Arborescence(0, (d.arcs[0], d.arcs[1])),)
        )
        verdict = validate_digraph_packing(d, ["r"], bad)
        assert not verdict and "incoming" in verdict.reason

    def test_arc_with_other_endpoints_rejected(self):
        # The tree claims y and z as r->a and r->b; they run r->b and a->b.
        d = DirectedView(
            ("r", "a", "b"),
            (
                ViewArc("x", "r", "a", "arc"),
                ViewArc("y", "r", "b", "arc"),
                ViewArc("z", "a", "b", "arc"),
            ),
        )
        forged = DigraphPacking(
            (
                Arborescence(
                    0, (ViewArc("y", "r", "a", "arc"), ViewArc("z", "r", "b", "arc"))
                ),
            )
        )
        verdict = validate_digraph_packing(d, ["r"], forged)
        assert not verdict
        assert verdict.reason == "arc y used as r->a, not r->b"
