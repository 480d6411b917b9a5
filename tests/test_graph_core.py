from __future__ import annotations

import random

import pytest

from arbopack import (
    Arc,
    BiSet,
    Edge,
    MixedGraph,
    Orientation,
    ParseError,
    apply_orientation,
    compute_atoms,
    mixed_reachable_set,
    parse_mixed_graph,
)
from arbopack.decomposition import _certificate_sides
from arbopack.two_stage import lexicographic_orientation
from instance_gen import random_mixed_instance, random_orientation
from naive import entering_arcs, in_degree, induced, subsets


def crossing_edges(g, roots, parts) -> int:
    """The edges a certificate's ``lhs`` counts for inner sets ``parts``: its arcs are dropped."""
    edges_only = MixedGraph(g.vertices, g.edges)
    dec = compute_atoms(edges_only, roots)
    return _certificate_sides(edges_only, roots, dec, [BiSet(p, p) for p in parts])[0]


class TestParse:
    def test_two_root_instance(self, two_root):
        g, roots = two_root
        assert len(g.vertices) == 9
        assert len(g.edges) == 6
        assert len(g.arcs) == 5
        assert roots == ["r1", "r2"]
        assert [e.id for e in g.edges] == ["e1", "e2", "e3", "e4", "e5", "e6"]
        assert [a.id for a in g.arcs] == ["a1", "a2", "a3", "a4", "a5"]

    def test_single_vertex(self):
        g, roots = parse_mixed_graph("vertex a\nroot a\n")
        assert g.vertices == ("a",)
        assert not g.edges and not g.arcs
        assert roots == ["a"]

    def test_unknown_vertex_on_arc(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_mixed_graph("vertex a\narc a b\n")

    def test_unknown_root(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_mixed_graph("vertex a\nroot b\n")

    def test_duplicate_explicit_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_mixed_graph("vertex a\nvertex b\nedge a b x\nedge b a x\n")

    def test_auto_id_collision(self):
        with pytest.raises(ParseError, match="collides"):
            parse_mixed_graph("vertex a\nvertex b\nedge a b e2\nedge b a\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_mixed_graph("vertex a\n\nfrob a\n")

    def test_reserved_terminal_prefix_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_mixed_graph("vertex t:a1\n")

    def test_comments_and_blanks_ignored(self):
        g, roots = parse_mixed_graph("# hi\n\nvertex a  # trailing\nroot a\n")
        assert g.vertices == ("a",)

    def test_explicit_ids_kept(self):
        g, _ = parse_mixed_graph("vertex a\nvertex b\nedge a b left\narc a b fwd\n")
        assert g.edges[0].id == "left"
        assert g.arcs[0].id == "fwd"


class TestReachability:
    def test_two_root_reach(self, two_root):
        g, _ = two_root
        assert mixed_reachable_set(g, "r1") == frozenset("r1 v1 v2 v3 v4 v5".split())
        assert mixed_reachable_set(g, "r2") == frozenset("r2 v3 v4 v6 v7".split())

    def test_isolated_vertex(self):
        g = MixedGraph(("s", "w"))
        assert mixed_reachable_set(g, "s") == frozenset(["s"])

    def test_unknown_vertex(self, two_root):
        g, _ = two_root
        with pytest.raises(ValueError, match="unknown vertex"):
            mixed_reachable_set(g, "zz")

    def test_monotone_under_additions(self):
        rng = random.Random(90125)
        for _ in range(60):
            g, roots = random_mixed_instance(rng, max_v=5, max_e=4, max_a=5)
            before = [mixed_reachable_set(g, r) for r in roots]
            u, v = rng.choice(g.vertices), rng.choice(g.vertices)
            if rng.random() < 0.5:
                g2 = MixedGraph(g.vertices, g.edges + (Edge("xe", u, v),), g.arcs)
            else:
                g2 = MixedGraph(g.vertices, g.edges, g.arcs + (Arc("xa", u, v),))
            after = [mixed_reachable_set(g2, r) for r in roots]
            for b, a in zip(before, after):
                assert b <= a

    def test_orientation_only_loses_reachability(self):
        rng = random.Random(5150)
        for _ in range(60):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=5, max_a=5)
            d = apply_orientation(g, random_orientation(rng, g))
            for r in roots:
                assert mixed_reachable_set(d, r) <= mixed_reachable_set(g, r)


class TestCutPrimitives:
    def test_in_degree_examples(self, two_root):
        g, _ = two_root
        assert in_degree(g, {"v3"}) == 3
        assert in_degree(g, set()) == 0
        assert in_degree(g, set(g.vertices)) == 0

    def test_entering_arcs_examples(self, two_root):
        g, _ = two_root
        assert entering_arcs(g, {"v3", "v4"}) == ["a1", "a2", "a3", "a5"]
        assert entering_arcs(g, {"r1"}) == []
        assert entering_arcs(g, set(g.vertices)) == []

    def test_induced_examples(self, two_root):
        g, _ = two_root
        assert induced(g, {"v3", "v4"}) == ([], ["a4"])
        assert induced(g, {"r1", "v1", "v2", "v5"}) == (["e1", "e2", "e3", "e6"], [])
        assert induced(g, set()) == ([], [])

    def test_crossing_edge_count_examples(self, two_root):
        g, roots = two_root
        assert crossing_edges(g, roots, [{"v1"}, {"v2", "v5"}]) == 3
        assert crossing_edges(g, roots, [g.vertices]) == 0

    def test_crossing_edges_between_singletons(self, infeasible3):
        g, roots = infeasible3
        assert crossing_edges(g, roots, [{"r1"}, {"r2"}, {"x"}]) == 2

    def test_single_part_equals_boundary(self):
        rng = random.Random(2112)
        for _ in range(40):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=6, max_a=3)
            xs = frozenset(v for v in g.vertices if rng.random() < 0.5)
            if not xs:
                continue
            boundary = sum(
                1
                for e in g.edges
                if not e.is_loop() and (e.u in xs) != (e.v in xs)
            )
            assert crossing_edges(g, roots, [xs]) == boundary

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            crossing_edges(MixedGraph(("a", "b")), [], [{"a"}, {"a", "b"}])

    def test_conservation(self):
        rng = random.Random(777)
        for _ in range(25):
            g, _ = random_mixed_instance(rng, max_v=5, max_e=3, max_a=6)
            for combo in subsets(g.vertices):
                xs = frozenset(combo)
                entering = in_degree(g, xs)
                within = sum(1 for a in g.arcs if a.tail in xs and a.head in xs)
                leaving = sum(1 for a in g.arcs if a.tail in xs and a.head not in xs)
                touching = sum(
                    1 for a in g.arcs if a.tail in xs or a.head in xs
                )
                assert entering + within + leaving == touching


class TestOrientation:
    def test_apply_orientation_counts(self, two_root):
        g, _ = two_root
        o = lexicographic_orientation(g)
        d = apply_orientation(g, o)
        assert len(d.arcs) == 11 and d.edges == () and d.vertices == g.vertices
        # the input's arcs, then one arc per edge, turned and named as it
        assert d.arcs[:5] == g.arcs
        assert d.arcs[5:] == tuple(Arc(e.id, *o.direction[e.id]) for e in g.edges)

    def test_no_edges(self):
        g = MixedGraph(("a", "b"), (), (Arc("a1", "a", "b"),))
        d = apply_orientation(g, Orientation({}))
        assert d == g

    def test_edge_and_arc_sharing_an_id_rejected(self):
        g = MixedGraph(("a", "b"), (Edge("x", "a", "b"),), (Arc("x", "b", "a"),))
        with pytest.raises(ValueError, match="^duplicate arc id 'x'$"):
            apply_orientation(g, Orientation({"x": ("a", "b")}))

    def test_missing_edge_rejected(self, two_root):
        g, _ = two_root
        with pytest.raises(ValueError, match="domain mismatch"):
            apply_orientation(g, Orientation({"e1": ("r1", "v1")}))

    def test_wrong_endpoints_rejected(self):
        g = MixedGraph(("a", "b", "c"), (Edge("e1", "a", "b"),))
        with pytest.raises(ValueError, match="endpoints"):
            apply_orientation(g, Orientation({"e1": ("a", "c")}))

    def test_lexicographic_uses_declaration_order(self):
        g = MixedGraph(("b", "a"), (Edge("e1", "a", "b"),))
        o = lexicographic_orientation(g)
        assert o.direction["e1"] == ("b", "a")


class TestSelfLoops:
    def test_loops_parse(self):
        g, _ = parse_mixed_graph("vertex a\nvertex b\nedge a a\narc b b\nedge a b\n")
        assert g.edges[0].is_loop() and g.arcs[0].is_loop()

    def test_loops_never_cross_or_count(self):
        g, _ = parse_mixed_graph("vertex a\nvertex b\nedge a a\narc b b\narc a b\n")
        assert in_degree(g, {"b"}) == 1
        assert crossing_edges(g, [], [{"a"}, {"b"}]) == 0
        assert mixed_reachable_set(g, "a") == frozenset(["a", "b"])

    def test_loop_edges_still_need_orienting(self):
        g, _ = parse_mixed_graph("vertex a\nedge a a\n")
        d = apply_orientation(g, lexicographic_orientation(g))
        assert len(d.arcs) == 1


class TestGraphValidation:
    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError, match="duplicate edge id"):
            MixedGraph(("a",), (Edge("x", "a", "a"), Edge("x", "a", "a")))

    def test_edge_and_arc_ids_are_separate_namespaces(self):
        g = MixedGraph(("a", "b"), (Edge("x", "a", "b"),), (Arc("x", "a", "b"),))
        assert g.edge_by_id["x"].ends == frozenset(("a", "b"))

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            MixedGraph(("a",), (), (Arc("a1", "a", "zz"),))


class TestRequireVertices:
    @pytest.mark.parametrize("make", [lambda g: g], ids=["mixed"])
    def test_names_one_stray_of_any_type(self, make):
        graph = make(MixedGraph(("a", "b")))
        assert graph.require_vertices(["b", "a"]) == frozenset({"a", "b"})
        # strings first, least first, as when every stray was a string
        with pytest.raises(ValueError, match="^unknown vertex 'x'$"):
            graph.require_vertices(["y", "b", "x"])
        with pytest.raises(ValueError, match="^unknown vertex 'zz'$"):
            graph.require_vertices(["b", 1, "zz"])
        with pytest.raises(ValueError, match="^unknown vertex 1$"):
            graph.require_vertices([2, (0,), 1])
