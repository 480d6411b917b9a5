from __future__ import annotations

import random

import pytest

from arbopack import (
    Arc,
    AtomDecomposition,
    BiSet,
    Edge,
    InvariantError,
    MixedGraph,
    build_auxiliary,
    compute_atoms,
    mixed_reachable_set,
    parse_mixed_graph,
)
from arbopack.decomposition import _atom_slices, _certificate_sides, lift_biset, p_value
from instance_gen import (
    bench_workloads,
    deep_atom_text,
    random_digraph_instance,
    random_mixed_instance,
)
from naive import (
    AtomContext,
    biset_condition_holds,
    biset_intersection,
    biset_union,
    in_degree,
    in_family_F,
    iter_family,
    naive_family,
    naive_lift,
    naive_p,
    naive_pj,
    p_j_value,
    reference_build_auxiliary,
    reference_decompose,
    set_condition_holds,
    subsets,
)


@pytest.fixture(scope="module")
def two_root_dec(two_root):
    g, roots = two_root
    return g, roots, compute_atoms(g, roots)


def atom_index_of(dec, members) -> int:
    return dec.atoms.index(frozenset(members))


class TestAtoms:
    def test_two_root_atoms(self, two_root_dec):
        g, roots, dec = two_root_dec
        got = {frozenset(a): frozenset(r) for a, r in zip(dec.atoms, dec.atom_roots)}
        assert got == {
            frozenset(["r1", "v1", "v2", "v5"]): frozenset([0]),
            frozenset(["v3", "v4"]): frozenset([0, 1]),
            frozenset(["r2", "v6", "v7"]): frozenset([1]),
        }
        assert len(dec.atoms) == 3

    def test_single_root_strongly_connected(self):
        g = MixedGraph(("a", "b", "c"))
        from arbopack import Edge

        g = MixedGraph(g.vertices, (Edge("e1", "a", "b"), Edge("e2", "b", "c")))
        dec = compute_atoms(g, ["a"])
        assert dec.atoms == (frozenset(["a", "b", "c"]),)
        assert dec.atom_roots == (frozenset([0]),)

    def test_disjoint_reach_sets(self):
        from arbopack import Arc

        g = MixedGraph(("r", "s", "x", "y"), (), (Arc("a1", "r", "x"), Arc("a2", "s", "y")))
        dec = compute_atoms(g, ["r", "s"])
        assert len(dec.atoms) == 2
        assert set(dec.atom_roots) == {frozenset([0]), frozenset([1])}

    def test_unreachable_vertices_form_no_atom(self):
        from arbopack import Arc

        g = MixedGraph(("r", "u", "v"), (), (Arc("a1", "u", "v"), Arc("a2", "r", "v")))
        dec = compute_atoms(g, ["r"])
        assert dec.atom_of.get("u") is None
        assert set().union(*dec.atoms) == {"r", "v"}

    def test_unknown_root(self, two_root):
        g, _ = two_root
        with pytest.raises(ValueError, match="unknown root"):
            compute_atoms(g, ["zz"])

    def test_membership_grouping_matches_reach(self):
        rng = random.Random(4242)
        for _ in range(50):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=4, max_a=6)
            dec = compute_atoms(g, roots)
            for v in g.vertices:
                vec = frozenset(
                    i for i, r in enumerate(roots) if v in mixed_reachable_set(g, r)
                )
                j = dec.atom_of.get(v)
                assert (dec.atom_roots[j] if j is not None else frozenset()) == vec


def arcs_entering(g, roots, dec, x: BiSet) -> int:
    """The arcs a certificate's ``lhs`` counts for the bi-set ``x``: ``g``'s edges are dropped."""
    return _certificate_sides(MixedGraph(g.vertices, (), g.arcs), roots, dec, [x])[0]


class TestBiSetPrimitives:
    def test_biset_in_degree_example(self, two_root_dec):
        g, roots, dec = two_root_dec
        assert arcs_entering(g, roots, dec, BiSet({"v1", "v3"}, {"v3"})) == 2

    def test_biset_degenerate_cases(self, two_root_dec):
        g, roots, dec = two_root_dec
        for xs in ({"v3"}, {"v3", "v4"}, {"r1"}):
            assert arcs_entering(g, roots, dec, BiSet(xs, xs)) == in_degree(g, xs)
        # an empty inner set is no certificate's bi-set: it has no demand
        with pytest.raises(ValueError, match="inner set is empty"):
            arcs_entering(g, roots, dec, BiSet({"v1"}, set()))

    def test_inner_must_be_nested(self):
        with pytest.raises(ValueError):
            BiSet({"a"}, {"b"})

    def test_p_value_examples(self, two_root_dec):
        g, roots, dec = two_root_dec
        assert p_value(dec, roots, BiSet({"v3", "v4"}, {"v3", "v4"})) == 2
        assert p_value(dec, roots, BiSet({"v1", "v3"}, {"v3"})) == 1

    def test_p_zero_when_roots_inside(self, two_root_dec):
        g, roots, dec = two_root_dec
        # inner set containing both roots and inside both reach sets
        inner = {"v3", "v4", "r1", "r2"}
        # not all of inner is in U_1, so build the trivial structural case instead
        from arbopack import Edge

        g2 = MixedGraph(("r",), (), ())
        dec2 = compute_atoms(g2, ["r"])
        assert p_value(dec2, ["r"], BiSet({"r"}, {"r"})) == 0

    def test_p_empty_inner_rejected(self, two_root_dec):
        g, roots, dec = two_root_dec
        with pytest.raises(ValueError, match="empty"):
            p_value(dec, roots, BiSet({"v1"}, set()))

    def test_p_counts_repeated_root_indices(self):
        from arbopack import Arc

        g = MixedGraph(("r", "v"), (), (Arc("a1", "r", "v"),))
        dec = compute_atoms(g, ["r", "r"])
        assert p_value(dec, ["r", "r"], BiSet({"v"}, {"v"})) == 2

    def test_p_matches_naive(self):
        rng = random.Random(821)
        for _ in range(40):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=4, max_a=6)
            dec = compute_atoms(g, roots)
            vs = list(g.vertices)
            for _ in range(10):
                inner = frozenset(v for v in vs if rng.random() < 0.4)
                if not inner:
                    continue
                outer = inner | frozenset(v for v in vs if rng.random() < 0.3)
                b = BiSet(outer, inner)
                assert p_value(dec, roots, b) == naive_p(dec, roots, outer, inner)

    def test_outer_monotonicity(self):
        rng = random.Random(1999)
        for _ in range(40):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=4, max_a=6)
            dec = compute_atoms(g, roots)
            vs = list(g.vertices)
            inner = frozenset(v for v in vs if rng.random() < 0.4)
            if not inner:
                continue
            small = inner | frozenset(v for v in vs if rng.random() < 0.3)
            big = small | frozenset(v for v in vs if rng.random() < 0.3)
            assert p_value(dec, roots, BiSet(small, inner)) >= p_value(
                dec, roots, BiSet(big, inner)
            )


class TestFamilyMembership:
    def test_in_family_examples(self, two_root_dec):
        g, roots, dec = two_root_dec
        j34 = atom_index_of(dec, ["v3", "v4"])
        assert in_family_F(dec, BiSet({"v3", "v4"}, {"v3", "v4"})) == j34
        assert in_family_F(dec, BiSet({"v3", "v4"}, {"v3"})) is None
        assert in_family_F(dec, BiSet({"v1"}, set())) is None

    def test_inner_across_atoms_rejected(self, two_root_dec):
        g, roots, dec = two_root_dec
        assert in_family_F(dec, BiSet({"v1", "v3"}, {"v1", "v3"})) is None

    def test_unreachable_inner_rejected(self):
        from arbopack import Arc

        g = MixedGraph(("r", "u"), (), (Arc("a1", "u", "r"),))
        dec = compute_atoms(g, ["r"])
        assert in_family_F(dec, BiSet({"u"}, {"u"})) is None


class TestAuxiliaryGraph:
    def test_shared_atom_aux(self, two_root_dec):
        g, roots, dec = two_root_dec
        aux = build_auxiliary(g, dec, atom_index_of(dec, ["v3", "v4"]))
        assert set(aux.graph.vertices) == {"v3", "v4", "t:a1", "t:a2", "t:a3", "t:a5"}
        assert [e.id for e in aux.graph.edges] == []
        got = {(a.tail, a.head) for a in aux.graph.arcs}
        assert got == {
            ("v4", "v3"),
            ("t:a1", "v3"),
            ("t:a2", "v4"),
            ("t:a3", "v4"),
            ("t:a5", "v3"),
        }
        assert aux.terminal_origin["t:a1"] == ("a1", "r1")
        assert aux.terminal_origin["t:a5"] == ("a5", "v1")

    def test_root_atom_aux_has_no_terminals(self, two_root_dec):
        g, roots, dec = two_root_dec
        aux = build_auxiliary(g, dec, atom_index_of(dec, ["r1", "v1", "v2", "v5"]))
        assert aux.terminal_origin == {}
        assert sorted(e.id for e in aux.graph.edges) == ["e1", "e2", "e3", "e6"]
        assert list(aux.graph.arcs) == []

    def test_isolated_atom(self):
        g = MixedGraph(("r",))
        dec = compute_atoms(g, ["r"])
        aux = build_auxiliary(g, dec, 0)
        assert aux.graph.vertices == ("r",)
        assert not aux.graph.edges and not aux.graph.arcs

    def test_terminal_in_degree_zero_single_out(self, two_root_dec):
        g, roots, dec = two_root_dec
        aux = build_auxiliary(g, dec, atom_index_of(dec, ["v3", "v4"]))
        for t in aux.terminal_origin:
            assert sum(1 for a in aux.graph.arcs if a.head == t) == 0
            outs = [a for a in aux.graph.arcs if a.tail == t]
            assert len(outs) == 1
            assert outs[0].head == g.arc_by_id[aux.terminal_origin[t][0]].head

    def test_crossing_edge_named(self):
        g = MixedGraph(("r", "u", "w"), (Edge("e1", "r", "w"), Edge("e2", "u", "r")))
        dec = AtomDecomposition(
            reach=(frozenset({"r", "u"}),),
            atoms=(frozenset({"r", "u"}), frozenset({"w"})),
            atom_roots=(frozenset({0}), frozenset({0})),
        )
        with pytest.raises(InvariantError, match="edge 'e1' crosses"):
            build_auxiliary(g, dec, 0)

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3)])
    def test_crossing_edges_named_per_atom(self, order):
        # e2 and e3 each join atoms 1 and 2; atom 0 meets neither
        edges = [
            Edge("e1", "u", "r"),
            Edge("e2", "w", "x"),
            Edge("e3", "y", "w"),
            Edge("e4", "x", "y"),
        ]
        g = MixedGraph(("r", "u", "w", "x", "y"), tuple(edges[i] for i in order))
        dec = AtomDecomposition(
            reach=(frozenset("ruwxy"),),
            atoms=(frozenset("ru"), frozenset("w"), frozenset("xy")),
            atom_roots=(frozenset({0}),) * 3,
        )
        first = g.edges[1].id
        for slices in (None, _atom_slices(g, dec)):
            assert build_auxiliary(g, dec, 0, slices).graph.edges == (edges[0],)
            for j in (1, 2):
                with pytest.raises(InvariantError, match=f"edge '{first}' crosses"):
                    build_auxiliary(g, dec, j, slices)


class TestReferenceForms:
    """Atoms equal the frozenset-keyed reference decomposition, in order."""

    def instances(self):
        rng = random.Random(6161)
        for _ in range(300):
            yield random_mixed_instance(rng, max_v=9, max_e=10, max_a=10, max_k=5)
        for k in (1, 260):
            yield parse_mixed_graph(deep_atom_text(k))

    def test_decompose_matches_reference(self):
        for g, roots in self.instances():
            digraph = MixedGraph(g.vertices, (), g.arcs)
            for graph in (g, digraph):
                dec = compute_atoms(graph, roots)
                ref = reference_decompose(graph, roots)
                assert (dec.reach, dec.atoms, dec.atom_roots) == (
                    ref.reach,
                    ref.atoms,
                    ref.atom_roots,
                )
                # the atoms filed as they were grouped, as the atoms list them
                assert dec.atom_of == ref.atom_of


class TestAuxiliaryReference:
    """``build_auxiliary`` equals the whole-graph reference, with or without slices."""

    @staticmethod
    def outcome(build, *args):
        try:
            aux = build(*args)
        except (InvariantError, ValueError) as exc:
            return type(exc), str(exc)
        fields = (aux.atom_index, aux.gamma, aux.terminal_origin, tuple(aux.terminal_origin))
        return ("built",) + fields + (aux.graph.vertices, aux.graph.edges, aux.graph.arcs)

    def assert_matches(self, g, dec):
        slices = _atom_slices(g, dec)
        for j in range(-1, len(dec.atoms) + 1):
            ref = self.outcome(reference_build_auxiliary, g, dec, j)
            assert self.outcome(build_auxiliary, g, dec, j) == ref
            assert self.outcome(build_auxiliary, g, dec, j, slices) == ref

    def test_random_instances(self):
        rng = random.Random(6262)
        for _ in range(300):
            g, roots = random_mixed_instance(rng, max_v=9, max_e=10, max_a=10, max_k=5)
            self.assert_matches(g, compute_atoms(g, roots))

    def test_bench_family_atoms(self):
        wl = bench_workloads()
        rng = random.Random(6263)
        components = [wl.cycle_copies(rng, f"c{n}_{k}_", n, k) for n in (3, 6) for k in (1, 3)]
        components += [wl.doubled_path(rng, f"p{n}_", n) for n in (2, 5)]
        components += [
            wl.staggered_segments(rng, f"s{length}{drop:d}_", length, 3, drop)
            for length in (1, 2, 5)
            for drop in (False, True)
        ]
        # each family on its own, then all of them in one graph of many atoms
        graphs = [wl._render(rng, [comp]) for comp in components]
        graphs.append(wl._render(rng, components))
        graphs += [inst.text for inst in wl.corpus("many_atoms", 1, 5)]
        atoms = 0
        for text in graphs:
            g, roots = parse_mixed_graph(text)
            dec = compute_atoms(g, roots)
            self.assert_matches(g, dec)
            atoms += len(dec.atoms)
        assert atoms > 250

    def test_hand_built_decompositions(self):
        # atom sets a decomposition would never give: edges leaving an atom
        # into another or into none, and a vertex named like a terminal
        g = MixedGraph(
            ("r", "u", "w", "t:a2"),
            (Edge("e1", "r", "u"), Edge("e2", "u", "w"), Edge("e3", "w", "w")),
            (Arc("a1", "r", "u"), Arc("a2", "t:a2", "r"), Arc("a3", "u", "w")),
        )
        kinds = set()
        for atoms in (["ruw"], ["ru", "w"], ["ruw", "t:a2"], ["u"], ["w", "r"]):
            dec = AtomDecomposition(
                reach=(frozenset(g.vertices),),
                atoms=tuple(frozenset([a] if a.startswith("t:") else a) for a in atoms),
                atom_roots=(frozenset({0}),) * len(atoms),
            )
            self.assert_matches(g, dec)
            for j in range(len(atoms)):
                kinds.add(self.outcome(build_auxiliary, g, dec, j)[0])
        assert kinds == {"built", InvariantError, ValueError}


class TestConsistency:
    """``lift_biset`` on the atom {v3, v4}: arcs a1, a2, a3 and a5 enter it, a4 is inside."""

    @pytest.fixture()
    def shared(self, two_root_dec):
        g, roots, dec = two_root_dec
        return g, dec.atoms[atom_index_of(dec, ["v3", "v4"])]

    def test_consistent_examples(self, shared):
        g, gamma = shared
        assert lift_biset(g, gamma, {"v3", "t:a1"}) == BiSet({"r1", "v3"}, {"v3"})
        # a terminal without its head is not consistent, hence never lifted
        for part in ({"t:a1"}, {"v4", "t:a1"}, set()):
            with pytest.raises(ValueError):
                lift_biset(g, gamma, part)

    def test_lift_examples(self, shared):
        g, gamma = shared
        b = lift_biset(g, gamma, {"v3", "t:a5"})
        assert b == BiSet({"v1", "v3"}, {"v3"})
        b = lift_biset(g, gamma, {"v3", "v4"})
        assert b == BiSet({"v3", "v4"}, {"v3", "v4"})
        b = lift_biset(g, gamma, {"v3", "v4", "t:a1", "t:a2", "t:a3", "t:a5"})
        assert b.inner == frozenset({"v3", "v4"})
        assert b.outer == frozenset({"v3", "v4", "r1", "r2", "v1"})

    def test_lift_rejects_non_members(self, shared):
        g, gamma = shared
        with pytest.raises(ValueError):
            lift_biset(g, gamma, {"t:a1"})

    @pytest.mark.parametrize(
        "part, reason",
        [
            ({"v3", "t:a9"}, "unknown arc id"),
            ({"v3", "t:a4"}, "arc inside the atom"),
            ({"v3", "t:e1"}, "an edge's id"),
            ({"v3", "v1"}, "vertex outside the atom"),
            ({"v3", "x"}, "unknown vertex"),
            ({"v3", "t:a2"}, "head v4 not in the part"),
            ({"t:a1", "t:a5"}, "no atom vertex"),
        ],
    )
    def test_lift_rejects_malformed_parts(self, shared, part, reason):
        g, gamma = shared
        with pytest.raises(ValueError):
            lift_biset(g, gamma, part)

    def test_lift_rejects_an_arc_into_another_atom(self, two_root_dec):
        g, roots, dec = two_root_dec
        root_atom = dec.atoms[atom_index_of(dec, ["r1", "v1", "v2", "v5"])]
        assert lift_biset(g, root_atom, {"r1"}) == BiSet({"r1"}, {"r1"})
        with pytest.raises(ValueError):
            lift_biset(g, root_atom, {"r1", "v1", "t:a5"})

    def test_pj_examples(self, two_root_dec, shared):
        g, roots, dec = two_root_dec
        _g, gamma = shared
        assert p_j_value(g, gamma, dec, roots, {"v3", "v4"}) == 2
        assert p_j_value(g, gamma, dec, roots, {"v3", "t:a5"}) == 1
        root_atom = dec.atoms[atom_index_of(dec, ["r1", "v1", "v2", "v5"])]
        assert p_j_value(g, root_atom, dec, roots, {"v1"}) == 1


class TestFamilyProperties:
    def _contexts(self, rng, count, max_vj):
        out = []
        for _ in range(count):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=5, max_a=6)
            dec = compute_atoms(g, roots)
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                if len(aux.graph.vertices) <= max_vj:
                    out.append((g, roots, dec, aux))
        return out

    def test_family_closure_and_supermodularity(self):
        rng = random.Random(61577)
        for g, roots, dec, aux in self._contexts(rng, 30, 9):
            fam = naive_family(aux)
            members = set(fam)
            pj = {xs: naive_pj(aux, dec, roots, xs) for xs in fam}
            for x in fam:
                for y in fam:
                    if not x & y:
                        continue
                    assert x | y in members
                    assert x & y in members
                    assert pj[x] + pj[y] <= pj[x | y] + pj[x & y]

    def test_context_matches_naive_family(self):
        rng = random.Random(3122)
        for g, roots, dec, aux in self._contexts(rng, 25, 9):
            ctx = AtomContext.build(aux, dec, roots)
            fast = {ctx.to_vertices(m) for m in iter_family(ctx)}
            assert fast == set(naive_family(aux))
            for m in iter_family(ctx):
                xs = ctx.to_vertices(m)
                assert ctx.p_of(m) == naive_pj(aux, dec, roots, xs)
                static = [
                    (a.tail, a.head) for a in aux.graph.arcs if not a.is_loop()
                ]
                rho = sum(1 for t, h in static if h in xs and t not in xs)
                assert ctx.rho_static(m) == rho

    def test_lift_matches_the_auxiliary_family(self):
        # Every subset of the auxiliary vertex set lifts exactly when it is
        # a family member, to the bi-set the auxiliary graph gives it.
        rng = random.Random(8118)
        lifted = rejected = 0
        for g, roots, dec, aux in self._contexts(rng, 200, 9):
            members = set(naive_family(aux))
            for combo in subsets(aux.graph.vertices):
                xs = frozenset(combo)
                if xs in members:
                    outer, inner = naive_lift(aux, xs)
                    assert lift_biset(g, aux.gamma, xs) == BiSet(outer, inner)
                    lifted += 1
                else:
                    with pytest.raises(ValueError):
                        lift_biset(g, aux.gamma, xs)
                    rejected += 1
        assert lifted > 1000 and rejected > 500, (lifted, rejected)

    def test_lift_union_compatibility(self):
        rng = random.Random(515)
        for g, roots, dec, aux in self._contexts(rng, 20, 9):
            fam = naive_family(aux)
            for x in fam:
                for y in fam:
                    if not x & y:
                        continue
                    bx, by = lift_biset(g, aux.gamma, x), lift_biset(g, aux.gamma, y)
                    assert lift_biset(g, aux.gamma, x | y) == biset_union(bx, by)
                    assert p_value(dec, roots, lift_biset(g, aux.gamma, x & y)) >= p_value(
                        dec, roots, biset_intersection(bx, by)
                    )


class TestConditionEquivalences:
    def test_set_condition_iff_biset_condition(self):
        rng = random.Random(77002)
        checked = 0
        for _ in range(80):
            g, roots = random_digraph_instance(rng, max_v=6)
            dec = compute_atoms(g, roots)
            keep = [a for a in g.arcs if rng.random() < 0.5]
            sub = MixedGraph(g.vertices, (), tuple(keep))
            reach = dec.reach
            lhs = set_condition_holds(sub, roots, reach)
            rhs = biset_condition_holds(sub, g, dec, roots)
            assert lhs == rhs
            if lhs:
                for v in g.vertices:
                    before = frozenset(
                        i for i, u in enumerate(reach) if v in u
                    )
                    after = frozenset(
                        i
                        for i, r in enumerate(roots)
                        if v in mixed_reachable_set(sub, r)
                    )
                    assert before == after
                checked += 1
        assert checked > 0
