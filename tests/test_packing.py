from __future__ import annotations

import random
from collections import Counter

import pytest

from arbopack import (
    DEFAULT_BOUNDS,
    Arc,
    Edge,
    InvariantError,
    MixedGraph,
    MixedPacking,
    MixedTree,
    Orientation,
    apply_orientation,
    compute_atoms,
    mixed_reachable_set,
    pack_atom_branchings,
    pack_reachability,
    parse_mixed_graph,
    solve,
    validate_mixed_packing,
)
from arbopack import checks, exhaustive, orientation, packing
from arbopack.decomposition import _atom_slices, lift_biset
from arbopack.packing import _StepFlow
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


def digraph(vertices, *arcs) -> MixedGraph:
    """A digraph, a mixed graph with no edges, from ``(id, tail, head)`` triples."""
    return MixedGraph(vertices, (), [Arc(*a) for a in arcs])


def canonical_digraph(two_root) -> tuple[MixedGraph, list[str]]:
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


def digraph_corpora():
    """The seed-4343 digraph corpus and the seed-8080 sparse fuzz of ``tests/test_answers.py``."""
    rng = random.Random(4343)
    for _ in range(3000):
        yield random_digraph_instance(rng, max_v=8, max_a=14, max_k=4)
    rng = random.Random(8080)
    for _ in range(1000):
        yield sparse_digraph_instance(rng)


class TestVerifyCutCondition:
    def test_canonical_orientation_ok(self, two_root):
        d, roots = canonical_digraph(two_root)
        assert verify_cut_condition(d, roots) is None

    def test_single_arc_two_roots_ok(self):
        d = digraph(("r1", "r2", "v"), ("a1", "r1", "v"))
        assert verify_cut_condition(d, ["r1", "r2"]) is None

    def test_shared_vertex_short_one_arc(self):
        # both roots reach v but only one arc enters it
        d = digraph(("r1", "r2", "v"), ("a1", "r1", "r2"), ("a2", "r2", "v"))
        assert verify_cut_condition(d, ["r1", "r2"]) == frozenset(["v"])

    def test_first_violator_in_mask_order(self):
        # both tree indices need x and y, but each has only one entering arc
        d = digraph(("r", "x", "y"), ("a1", "r", "x"), ("a2", "x", "y"))
        viol = verify_cut_condition(d, ["r", "r"])
        assert viol == frozenset(["x"])

    def test_capacity(self):
        from arbopack import Bounds, CapacityError

        d = digraph(tuple(f"n{i}" for i in range(5)))
        with pytest.raises(CapacityError, match="max_enum_vertices"):
            verify_cut_condition(d, ["n0"], Bounds(max_enum_vertices=4))


class TestPackReachability:
    def test_canonical_packing(self, two_root):
        d, roots = canonical_digraph(two_root)
        packing = pack_reachability(d, roots)
        assert isinstance(packing, MixedPacking)
        assert validate_mixed_packing(d, roots, packing)
        # the oriented edges are arcs of d, after the input's own arcs
        assert [t.arcs for t in packing.trees] == [
            ("a1", "a2", "e1", "e2", "e3"),
            ("a3", "a4", "e4", "e5"),
        ]
        assert [t.edges for t in packing.trees] == [(), ()]

    def test_single_root_arborescence_returned(self):
        d = digraph(("r", "x", "y"), ("a1", "r", "x"), ("a2", "x", "y"))
        packing = pack_reachability(d, ["r"])
        assert isinstance(packing, MixedPacking)
        assert packing.trees == (MixedTree(0, "r", ("a1", "a2"), ()),)

    def test_infeasible_returns_violated_set(self):
        d = digraph(("r1", "r2", "v"), ("a1", "r1", "r2"), ("a2", "r2", "v"))
        assert pack_reachability(d, ["r1", "r2"]) == frozenset(["v"])

    def test_arcs_stay_inside_reach_sets(self):
        rng = random.Random(31415)
        for _ in range(60):
            g, roots = random_digraph_instance(rng, max_v=6, max_a=10)
            packing = pack_reachability(g, roots)
            if not isinstance(packing, MixedPacking):
                continue
            for tree in packing.trees:
                span = mixed_reachable_set(g, tree.root)
                for aid in tree.arcs:
                    a = g.arc_by_id[aid]
                    assert a.tail in span and a.head in span

    def test_packing_iff_cut_condition_random(self):
        rng = random.Random(2718)
        feasible = infeasible = 0
        for _ in range(150):
            g, roots = random_digraph_instance(rng, max_v=7, max_a=14)
            packing = pack_reachability(g, roots)
            ok = verify_cut_condition(g, roots) is None
            if isinstance(packing, MixedPacking):
                assert ok
                assert validate_mixed_packing(g, roots, packing)
                feasible += 1
            else:
                assert not ok
                assert cut_deficit(g, roots, packing) > 0
                infeasible += 1
        assert feasible and infeasible

    def test_failed_atom_answers_beyond_sweep_size(self):
        # The failed atom has two vertices; twenty isolated vertices put
        # the graph past the size of any whole-graph subset sweep.
        d = digraph(
            ("r1", "r2", "m", "c") + tuple(f"z{i}" for i in range(20)),
            ("a1", "r1", "m"),
            ("a2", "r2", "m"),
            ("a3", "m", "c"),
        )
        assert pack_reachability(d, ["r1", "r2"]) == frozenset({"c"})

    def test_violated_set_reaches_back_past_the_atom(self):
        # All three trees need v.  Its worst completion takes in the two
        # arcs from u, which only tree 3 spans, so the violated set grows
        # by everything that reaches u.  Trees 1 and 2 then share the one
        # arc from r1 into it.
        d = digraph(
            ("r1", "r2", "u", "v"),
            ("a1", "r2", "u"),
            ("a2", "u", "v"),
            ("a3", "u", "v"),
            ("a4", "r1", "v"),
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
            result = pack_reachability(g, roots)
            if isinstance(result, MixedPacking):
                assert validate_mixed_packing(g, roots, result)
                outcomes["packed"] += 1
            else:
                assert cut_deficit(g, roots, result) > 0
                outcomes["violated"] += 1
        assert outcomes["packed"] > 300 and outcomes["violated"] > 300, outcomes

    def test_one_oracle_per_refuted_atom(self, monkeypatch):
        # A tree of the checked greedy that gets stuck gives back every
        # unit its greedy took, so the atom is refuted on that oracle: one
        # build per refuted atom that reaches an oracle, and the set and
        # shortfall of a fresh one, since a check returns the least
        # minimum cut.  A vertex with too few arcs into it refutes its
        # atom with no oracle at all.
        built, scans, refuted = [], [], Counter()
        init, pack, first_short = _StepFlow.__init__, orientation._pack, packing._first_short

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def scanned(flow, *args):
            scans.append((flow, first_short(flow, *args)))
            return scans[-1][1]

        def recorded(n, trees, start, cands):
            built.clear()
            scans.clear()
            owner = pack(n, trees, start, cands)
            if isinstance(owner, tuple) and scans:
                ((flow, got),) = scans
                assert built == [flow]
                fresh = _StepFlow(n, trees, cands, (1 << n) - 1)
                assert got == owner == first_short(fresh, n, start, 0)
            elif isinstance(owner, tuple):
                assert not built
            refuted[bool(scans)] += isinstance(owner, tuple)
            return owner

        monkeypatch.setattr(_StepFlow, "__init__", counted)
        monkeypatch.setattr(packing, "_first_short", scanned)
        monkeypatch.setattr(orientation, "_pack", recorded)
        rng = random.Random(8080)
        for _ in range(1000):
            g, roots = sparse_digraph_instance(rng)
            result = pack_reachability(g, roots)
            if not isinstance(result, MixedPacking):
                assert cut_deficit(g, roots, result) > 0
        assert refuted == Counter({True: 65, False: 292}), refuted

    def test_vertex_bound_counts_atom_and_hit_trees_only(self):
        # Instance 469 of the fuzz corpus: a 14-vertex atom with 7
        # terminals, none of which gives a tree a foothold.  Packing no
        # longer enumerates its sets; the orientation sweep would count
        # 14 bits for it, within the default bound of 20.
        rng = random.Random(8080)
        for _ in range(470):
            g, roots = sparse_digraph_instance(rng)
        assert max(len(atom) for atom in compute_atoms(g, roots).atoms) == 14
        violated = pack_reachability(g, roots)
        assert isinstance(violated, frozenset)
        assert cut_deficit(g, roots, violated) > 0

    def test_doubled_cycle_past_the_vertex_bound(self):
        # One 200-vertex atom, ten times the default max_enum_vertices,
        # which gates only the orientation sweep.
        g, roots = parse_mixed_graph(doubled_cycle_text(200, 2))
        assert len(g.vertices) > DEFAULT_BOUNDS.max_enum_vertices
        packing = pack_reachability(g, roots)
        assert isinstance(packing, MixedPacking)
        assert validate_mixed_packing(g, roots, packing)

        g, roots = parse_mixed_graph(doubled_cycle_text(200, 3))
        violated = pack_reachability(g, roots)
        assert isinstance(violated, frozenset)
        assert cut_deficit(g, roots, violated) > 0

    def test_deep_atom(self):
        # 520 trees take 1,040 arcs in one atom, one arc at a time.
        g, roots = parse_mixed_graph(deep_atom_text())
        packing = pack_reachability(g, roots)
        assert isinstance(packing, MixedPacking)
        assert validate_mixed_packing(g, roots, packing)

    def test_vertex_named_like_a_terminal(self):
        # "t:a:x" is an ordinary vertex that both roots reach; each tree
        # enters it through its own arc.
        d = digraph(("r", "w", "t:a:x"), ("x", "r", "t:a:x"), ("y", "w", "t:a:x"))
        roots = ["r", "w"]
        packing = pack_reachability(d, roots)
        assert isinstance(packing, MixedPacking)
        assert validate_mixed_packing(d, roots, packing)

    def test_same_packing_as_solve(self):
        # A digraph is a mixed graph with no edges, so where a packing
        # exists, solve's is the same one.
        packed = infeasible = 0
        for g, roots in digraph_corpora():
            result = pack_reachability(g, roots)
            if isinstance(result, frozenset):
                assert not isinstance(solve(g, roots), MixedPacking)
                infeasible += 1
            else:
                assert result == solve(g, roots), (g, roots)
                packed += 1
        assert packed > 2500 and infeasible > 1000, (packed, infeasible)

    def test_rejects_edges(self):
        g = MixedGraph(("r", "x"), (Edge("e1", "r", "x"), Edge("e2", "x", "r")))
        with pytest.raises(ValueError, match="^expected a digraph, but 'e1' is an edge$"):
            pack_reachability(g, ["r"])
        with pytest.raises(ValueError, match="'e1' is an edge"):
            pack_atom_branchings(g, frozenset({"x"}), {0: frozenset({"r"})})


class TestPackAtomBranchings:
    def shared_atom_digraph(self):
        return digraph(
            ("v3", "v4", "t:a:a1", "t:a:a2", "t:a:a3", "t:a:a5"),
            ("a4", "v4", "v3"),
            ("a1", "t:a:a1", "v3"),
            ("a2", "t:a:a2", "v4"),
            ("a3", "t:a:a3", "v4"),
            ("a5", "t:a:a5", "v3"),
        )

    def test_canonical_shared_atom(self):
        g = self.shared_atom_digraph()
        demands = {
            0: frozenset({"t:a:a1", "t:a:a2", "t:a:a5"}),
            1: frozenset({"t:a:a3"}),
        }
        result = pack_atom_branchings(g, frozenset({"v3", "v4"}), demands)
        assert result is not None
        assert {a.id for a in result[0]} == {"a1", "a2"}
        assert {a.id for a in result[1]} == {"a3", "a4"}

    @pytest.mark.parametrize("key", [-1, "0", True, 1.0, None])
    def test_rejects_a_key_that_is_no_tree_index(self, key):
        # checked before the atom is sliced, where -1 would be a negative
        # shift and a string would not sort among the other keys
        g = digraph(("r", "x"), ("a1", "r", "x"))
        demands = {0: frozenset({"r"}), key: frozenset({"r"})}
        message = f"demand key {key!r} is not a tree index (an int of at least 0)"
        with pytest.raises(ValueError) as info:
            pack_atom_branchings(g, frozenset({"x"}), demands)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            pack_atom_branchings(g, frozenset({"x"}), {key: frozenset({"r"})})
        assert str(info.value) == message

    def test_single_vertex_atom(self):
        g = digraph(("v",))
        result = pack_atom_branchings(g, frozenset({"v"}), {0: frozenset({"v"})})
        assert result == {0: ()}

    def test_two_trees_one_terminal_fails(self):
        g = digraph(("v", "t:a:a1"), ("a1", "t:a:a1", "v"))
        demands = {0: frozenset({"t:a:a1"}), 1: frozenset({"t:a:a1"})}
        # both trees need v; taking the terminal in would block them both
        assert pack_atom_branchings(g, frozenset({"v"}), demands) == frozenset({"v"})

    def test_disallowed_terminal_never_used(self):
        g = digraph(("v", "t:a:a1", "t:a:a2"), ("a1", "t:a:a1", "v"), ("a2", "t:a:a2", "v"))
        result = pack_atom_branchings(g, frozenset({"v"}), {0: frozenset({"t:a:a2"})})
        assert result is not None
        assert [a.id for a in result[0]] == ["a2"]

    def test_vertex_named_as_an_entering_arc_terminal(self):
        # "t:a1" is the terminal name of a1, which enters the atom; the
        # answer is arcs and vertex sets, not names, so nothing clashes
        g = digraph(("v", "t:a1", "u"), ("a1", "t:a1", "v"), ("a2", "u", "v"))
        a1, a2 = g.arcs
        demands = {0: frozenset({"t:a1"}), 1: frozenset({"t:a1"})}
        assert pack_atom_branchings(g, frozenset({"v"}), demands) == frozenset({"v", "u"})
        demands[1] = frozenset({"u"})
        assert pack_atom_branchings(g, frozenset({"v"}), demands) == {0: (a1,), 1: (a2,)}

    def test_whole_digraph_as_view(self):
        # Trees 1 and 2 both span r and u.  a1 and a6 have their heads
        # outside the atom, so they are ignored; a2 and a3 both enter
        # from u, and each serves one tree.
        g = digraph(
            ("r", "u", "v", "w"),
            ("a1", "r", "u"),
            ("a2", "u", "v"),
            ("a3", "u", "v"),
            ("a4", "v", "w"),
            ("a5", "u", "w"),
            ("a6", "w", "r"),
        )
        spans = frozenset({"r", "u"})
        result = pack_atom_branchings(g, frozenset({"v", "w"}), {0: spans, 1: spans})
        _, a2, a3, a4, a5, _ = g.arcs
        assert result == {0: (a2, a4), 1: (a3, a5)}

    def test_atom_slice_matches_whole_view(self):
        # Each edgeless atom as pack_reachability packs it, from its
        # slice's candidates (``orientation._orient_and_pack``), against
        # the candidates taken from the vertex names.  A refuted atom's
        # part names each entering arc's terminal, and its lifted outer
        # set holds that arc's tail in its place.
        rng = random.Random(7171)
        graphs = []
        for _ in range(300):
            graphs.append(random_digraph_instance(rng, max_v=7, max_a=14, max_k=4))
        for _ in range(100):
            g, roots = random_mixed_instance(rng, max_v=7, max_e=8, max_a=8, max_k=4)
            graphs.append((apply_orientation(g, random_orientation(rng, g)), roots))
        infeasible = [0, 0]
        for g, roots in graphs:
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            for j, gamma in enumerate(dec.atoms):
                demands = {
                    i: frozenset((roots[i],)) if roots[i] in gamma else dec.reach[i] - gamma
                    for i in sorted(dec.atom_roots[j])
                }
                whole = pack_atom_branchings(g, gamma, demands)
                sl = slices[j]
                outcome, owner = orientation._orient_and_pack(
                    g, dec, j, roots, slices, DEFAULT_BOUNDS
                )
                if owner is None:
                    (part,) = outcome.parts
                    sliced = lift_biset(g, gamma, part).outer
                else:
                    assert outcome == []
                    sliced = {
                        i: tuple(g.arcs[pos] for pos, o in zip(sl.arc_pos, owner) if o == i)
                        for i in demands
                    }
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


def random_oracle_state(rng: random.Random):
    """An atom of up to 4 vertices for a brute force over every mask of its check.

    Returns the vertex count, the footholds of up to 4 trees, the
    ``(tail, head, hit)`` candidates (atom arcs, some parallel, and up
    to 3 entering arcs, some sharing a head and a hit mask) and the
    (tail, head) vertices of up to 3 atom edges.
    """
    n = rng.randint(1, 4)
    trees = sorted(rng.sample(range(6), rng.randint(1, 4)))
    footholds = {
        i: rng.choice((0, 1 << rng.randrange(n), rng.randint(1, (1 << n) - 1))) for i in trees
    }
    cands: list[tuple[int, int, int]] = []
    n_term = 0
    for _ in range(rng.randint(0, 7)):
        if n > 1 and rng.random() < 0.55:
            t, h = rng.sample(range(n), 2)
            cands.append((1 << t, 1 << h, 0))
        elif n_term < 3:
            entering = [c for c in cands if c[0] >> n]
            if entering and rng.random() < 0.4:
                _tb, hb, hit = rng.choice(entering)
            else:
                hb = 1 << rng.randrange(n)
                hit = sum(1 << i for i in trees if rng.random() < 0.5)
            cands.append((1 << (n + n_term), hb, hit))
            n_term += 1
    ends = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))] if n > 1 else []
    return n, footholds, cands, ends


def brute_slacks(n, footholds, cands, ends, used, both) -> list[int]:
    """The slack of every mask X, read as Y = its atom bits plus a set T of entering arcs.

    A check's slack is the unused arcs and edges entering Y (every edge
    both ways with ``both``), less the trees with no foothold in Y and
    no unused arc in T.  X ranges over every mask of the atom and
    entering tail bits, consistent or not.
    """
    gmask = (1 << n) - 1
    arcs = [c for k, c in enumerate(cands) if k not in used]
    edges = [(1 << t, 1 << h) for k, (t, h) in enumerate(ends) if k + len(cands) not in used]
    if both:
        edges = [(1 << t, 1 << h) for t, h in ends] + [(1 << h, 1 << t) for t, h in ends]
    span = max([n] + [c[0].bit_length() for c in cands])
    slack = []
    for x in range(1 << span):
        y = x & gmask
        into = sum(1 for tb, hb, _hit in arcs if hb & y and not tb & x)
        into += sum(1 for tb, hb in edges if hb & y and not tb & y)
        hit = 0
        for tb, _hb, h in arcs:
            if tb & x & ~gmask:
                hit |= h
        need = sum(1 for i, f in footholds.items() if not f & y and not hit >> i & 1)
        slack.append(into - need)
    return slack


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

    def test_every_check_is_the_least_set_of_least_slack(self):
        # The whole oracle against a brute force over every mask: plain
        # checks, ``avoid`` and ``extra``, ``both``, flipped edges, and
        # footholds that grow by a step and shrink again when it is
        # given back, as the checked greedy does.
        rng = random.Random(9090)
        seen = Counter()
        for _ in range(250):
            n, footholds, cands, ends = random_oracle_state(rng)
            flow = _StepFlow(n, list(footholds), cands, (1 << n) - 1, ends)
            # the oracle's own ends are the state checked; turned[k] counts edge k's flips
            start_ends, ends, turned = ends, flow.ends, [0] * len(ends)
            used = {k for k in range(len(cands) + len(ends)) if rng.random() < 0.25}
            for k in used:
                flow.take(k, 1)
            for _step in range(4):
                for k in range(len(ends)):
                    if rng.random() < 0.3:
                        flow.flip(k)
                        turned[k] += 1
                free = [k for k in range(len(cands) + len(ends)) if k not in used]
                step = None
                if free and rng.random() < 0.8:
                    k, i = rng.choice(free), rng.choice(list(footholds))
                    step = k, i, footholds[i]
                    flow.take(k, 1)
                    used.add(k)
                    footholds[i] |= 1 << rng.randrange(n)
                state = (n, footholds, cands, ends, used)
                for both in (False, True):
                    slack = brute_slacks(*state, both)
                    for w in range(n):
                        checks = [(0, 0)] if both else [(0, 0), (0, rng.randint(1, 2))]
                        if not both and n > 1:
                            s = rng.choice([v for v in range(n) if v != w])
                            checks.append((1 << s, rng.randint(0, 2)))
                        for avoid, extra in checks:
                            got = flow.cut(1 << w, footholds, avoid, extra, both)
                            seen[self.assert_least_short(
                                state, slack, w, avoid, extra, got, flow.shortfall
                            )] += 1
                if step and rng.random() < 0.5:
                    # give the step back: the foothold shrinks to what it was
                    k, i, footholds[i] = step
                    flow.take(k, -1)
                    used.discard(k)
            assert flow.flips == sum(turned)
            assert ends == [e[::-1] if t % 2 else e for e, t in zip(start_ends, turned)]
        assert min(seen["passes"], seen["short"], seen["shortfall > 1"]) > 2000, seen

    @staticmethod
    def assert_least_short(state, slack, w, avoid, extra, got, shortfall) -> str:
        n, _footholds, cands, _ends, used = state
        pool = [x for x in range(len(slack)) if x >> w & 1 and not x & avoid]
        low = min(slack[x] for x in pool)
        if low >= extra:
            assert got is None, (state, w, avoid, extra)
            return "passes"
        least = -1
        for x in pool:
            if slack[x] == low:
                least &= x
        assert slack[least] == low, "the least-slack sets are closed under intersection"
        # a used entering arc serves no tree and enters nothing, so the
        # set may carry its tail bit or not
        idle = sum(cands[k][0] for k in used if k < len(cands) and cands[k][0] >> n)
        assert got is not None and got & ~idle == least, (state, w, avoid, extra)
        assert shortfall == extra - low
        return "shortfall > 1" if shortfall > 1 else "short"

    def test_no_requirement_sweep(self, monkeypatch, two_root):
        calls = {"sweep": 0, "atom": 0}
        sweep, pack = exhaustive._reduced_table, orientation._pack

        def counted_sweep(*args):
            calls["sweep"] += 1
            return sweep(*args)

        def counted_pack(*args):
            calls["atom"] += 1
            return pack(*args)

        assert not hasattr(packing, "_reduced_table")
        monkeypatch.setattr(exhaustive, "_reduced_table", counted_sweep)
        monkeypatch.setattr(orientation, "_pack", counted_pack)
        rng = random.Random(5150)
        cases = [canonical_digraph(two_root)]
        cases.append(parse_mixed_graph(deep_atom_text(6)))
        for _ in range(40):
            cases.append(random_digraph_instance(rng, max_v=6, max_a=12))
        outcomes = set()
        for d, roots in cases:
            outcomes.add(type(pack_reachability(d, roots)))
        assert outcomes == {MixedPacking, frozenset}
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
        stuck = []
        grow = packing._grow

        def first_fit(cands, trees, covered, gmask, flow=None):
            owner = grow(cands, trees, covered, gmask, flow)
            stuck.append((flow is None, isinstance(owner, int)))
            return owner

        monkeypatch.setattr(packing, "_grow", first_fit)
        assert isinstance(pack_reachability(g, roots), MixedPacking)
        assert stuck == [(True, True), (False, False)]
        monkeypatch.setattr(_StepFlow, "take", take_twice)
        with pytest.raises(InvariantError, match="untouched atom passes"):
            pack_reachability(g, roots)


class TestValidateDigraphPacking:
    """``validate_mixed_packing`` on digraph packings."""

    def test_one_search_per_distinct_root(self, monkeypatch, two_root):
        calls = []
        search = checks.mixed_reachable_set

        def counted(g, r):
            calls.append(r)
            return search(g, r)

        cases = [parse_mixed_graph(deep_atom_text(260)), canonical_digraph(two_root)]
        results = [pack_reachability(d, roots) for d, roots in cases]
        monkeypatch.setattr(checks, "mixed_reachable_set", counted)
        for (d, roots), result in zip(cases, results):
            calls.clear()
            assert validate_mixed_packing(d, roots, result)
            assert calls == list(dict.fromkeys(roots))

    def test_canonical_ok(self, two_root):
        d, roots = canonical_digraph(two_root)
        packing = pack_reachability(d, roots)
        assert validate_mixed_packing(d, roots, packing)

    def test_moved_arc_breaks_span(self, two_root):
        d, roots = canonical_digraph(two_root)
        packing = pack_reachability(d, roots)
        t0, t1 = packing.trees
        bad = MixedPacking(
            (
                t0._replace(arcs=t0.arcs + ("a4",)),
                t1._replace(arcs=tuple(a for a in t1.arcs if a != "a4")),
            )
        )
        verdict = validate_mixed_packing(d, roots, bad)
        assert not verdict
        assert "tree" in verdict.reason

    def test_shared_arc_detected(self, two_root):
        d, roots = canonical_digraph(two_root)
        packing = pack_reachability(d, roots)
        t0, t1 = packing.trees
        bad = MixedPacking((t0, t1._replace(arcs=t1.arcs + t0.arcs[:1])))
        verdict = validate_mixed_packing(d, roots, bad)
        assert not verdict
        assert "used twice" in verdict.reason

    def test_wrong_tree_count(self, two_root):
        d, roots = canonical_digraph(two_root)
        packing = pack_reachability(d, roots)
        verdict = validate_mixed_packing(d, roots, MixedPacking(packing.trees[:1]))
        assert not verdict and "expected 2 trees" in verdict.reason

    def test_root_with_incoming_arc(self):
        d = digraph(("r", "x"), ("a1", "r", "x"), ("a2", "x", "r"))
        bad = MixedPacking((MixedTree(0, "r", ("a1", "a2"), ()),))
        verdict = validate_mixed_packing(d, ["r"], bad)
        assert not verdict and "incoming" in verdict.reason

    def test_arc_with_other_endpoints_rejected(self):
        # The tree means y and z as r->a and r->b, but a tree names its
        # arcs by id, and the validator reads their ends off the graph:
        # r->b and a->b, two arcs into b.
        d = digraph(("r", "a", "b"), ("x", "r", "a"), ("y", "r", "b"), ("z", "a", "b"))
        forged = MixedPacking((MixedTree(0, "r", ("y", "z"), ()),))
        verdict = validate_mixed_packing(d, ["r"], forged)
        assert not verdict
        assert verdict.reason == "tree 1: vertex b has in-degree 2"
