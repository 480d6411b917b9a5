from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from arbopack import (
    BiSet,
    BiSetFamilyCertificate,
    Bounds,
    CapacityError,
    CoverRequirement,
    InvariantError,
    MixedGraph,
    MixedPacking,
    Orientation,
    SubpartitionCertificate,
    build_auxiliary,
    certificate_from_subpartition,
    compute_atoms,
    orient_covering,
    parse_mixed_graph,
    solve,
    validate_mixed_packing,
    verify_certificate,
)
from arbopack import exhaustive, orientation, packing
from arbopack.decomposition import _atom_slices
from arbopack.exhaustive import _extract_certificate, _fix_edges, _reduced_table, _worst_completion
from arbopack.orientation import (
    _footholds,
    _orient_by_cuts,
    _orientation,
    _part,
    _refuted,
    _short_of_links,
    _start_ends,
    orient_atom,
)
from arbopack.packing import _short_vertex, _StepFlow
from instance_gen import bench_workloads, random_mixed_instance
from naive import (
    _ref_cross_into,
    check_cover,
    make_subpartition_certificate,
    naive_family,
    naive_max_deficit,
    naive_orientation_covers,
    naive_orientation_exists,
    naive_pj,
    iter_family,
    reference_certificate,
    reference_context,
    reference_fix_edges,
    reference_table,
    subpartition_deficit,
    subsets,
)


def requirement_for(g, roots, members, bounds=None):
    dec = compute_atoms(g, roots)
    j = dec.atoms.index(frozenset(members))
    if bounds is None:
        return CoverRequirement(g, dec, j, tuple(roots))
    return CoverRequirement(g, dec, j, tuple(roots), bounds)


def _lift_atom(g, dec, j, roots):
    sc = SubpartitionCertificate(j, (frozenset({"x"}),), 1)
    return certificate_from_subpartition(sc, dec, g, roots)


# every public entry that takes an atom index, as (g, dec, j, roots) -> anything
INDEXED = [
    pytest.param(orient_atom, id="orient_atom"),
    pytest.param(lambda g, dec, j, roots: build_auxiliary(g, dec, j), id="build_auxiliary"),
    pytest.param(CoverRequirement, id="CoverRequirement"),
    pytest.param(_lift_atom, id="certificate_from_subpartition"),
]


class TestTwoRootAtoms:
    def test_root_atom_star_orientation_covers(self, two_root):
        g, roots = two_root
        req = requirement_for(g, roots, ["r1", "v1", "v2", "v5"])
        star = Orientation(
            {
                "e1": ("r1", "v1"),
                "e2": ("r1", "v2"),
                "e3": ("r1", "v5"),
                "e6": ("v2", "v5"),
            }
        )
        assert check_cover(req, star) is None
        # independent sweep: every nonempty set avoiding the root has an
        # entering oriented edge
        dirs = list(star.direction.values())
        for combo in subsets(["v1", "v2", "v5"]):
            xs = frozenset(combo)
            if not xs:
                continue
            rho = sum(1 for t, h in dirs if h in xs and t not in xs)
            assert rho >= 1

    def test_root_atom_inward_orientation_violates(self, two_root):
        g, roots = two_root
        req = requirement_for(g, roots, ["r1", "v1", "v2", "v5"])
        inward = Orientation(
            {
                "e1": ("v1", "r1"),
                "e2": ("v2", "r1"),
                "e3": ("v5", "r1"),
                "e6": ("v2", "v5"),
            }
        )
        assert check_cover(req, inward) == frozenset(["v1"])

    def test_shared_atom_covered_without_edges(self, two_root):
        g, roots = two_root
        req = requirement_for(g, roots, ["v3", "v4"])
        o = orient_covering(req)
        assert isinstance(o, Orientation)
        assert o.direction == {}
        assert check_cover(req, o) is None

    def test_solver_orients_root_atom(self, two_root):
        g, roots = two_root
        req = requirement_for(g, roots, ["r1", "v1", "v2", "v5"])
        o = orient_covering(req)
        assert isinstance(o, Orientation)
        assert check_cover(req, o) is None
        assert set(o.direction) == {"e1", "e2", "e3", "e6"}

    def test_requirement_total_set_is_balanced(self, two_root):
        g, roots = two_root
        for members in (["r1", "v1", "v2", "v5"], ["v3", "v4"], ["r2", "v6", "v7"]):
            req = requirement_for(g, roots, members)
            ctx = reference_context(req)
            assert ctx.h_of(ctx.full_mask) == 0


class TestInfeasibleTriangle:
    def test_certificate(self, infeasible3):
        g, roots = infeasible3
        req = requirement_for(g, roots, ["r1", "r2", "x"])
        cert = orient_covering(req)
        assert isinstance(cert, SubpartitionCertificate)
        assert cert.deficit == 2
        assert set(cert.parts) == {
            frozenset(["r1"]),
            frozenset(["r2"]),
            frozenset(["x"]),
        }
        assert subpartition_deficit(req, cert.parts) == cert.deficit

    @pytest.mark.parametrize("call", INDEXED)
    @pytest.mark.parametrize("j", [-1, 1])
    def test_index_out_of_range_rejected_alike(self, infeasible3, call, j):
        # -1 would wrap round to the one atom, under a certificate naming atom -1
        g, roots = infeasible3
        dec = compute_atoms(g, roots)
        assert len(dec.atoms) == 1
        with pytest.raises(ValueError) as info:
            call(g, dec, j, roots)
        assert str(info.value) == f"atom index {j + 1} out of range 1..1"

    @pytest.mark.parametrize("call", INDEXED)
    def test_index_into_no_atoms_rejected_alike(self, call):
        g, roots = parse_mixed_graph("vertex r\n")
        dec = compute_atoms(g, roots)
        assert dec.atoms == ()
        with pytest.raises(ValueError) as info:
            call(g, dec, 0, roots)
        assert str(info.value) == "atom index 1 out of range: the instance has no atoms"

    def test_deficit_examples(self, infeasible3):
        g, roots = infeasible3
        req = requirement_for(g, roots, ["r1", "r2", "x"])
        assert subpartition_deficit(req, [{"r1"}, {"r2"}, {"x"}]) == 2
        assert subpartition_deficit(req, [{"x"}]) == 0
        assert subpartition_deficit(req, []) == 0

    def test_matches_naive_enumeration(self, infeasible3):
        g, roots = infeasible3
        dec = compute_atoms(g, roots)
        aux = build_auxiliary(g, dec, 0)
        assert naive_max_deficit(aux, dec, roots) == 2
        assert not naive_orientation_exists(aux, dec, roots)

    def test_certificate_factory_rejects_nonpositive(self, infeasible3):
        g, roots = infeasible3
        req = requirement_for(g, roots, ["r1", "r2", "x"])
        with pytest.raises(ValueError, match="not a certificate"):
            make_subpartition_certificate(req, [{"x"}])
        cert = make_subpartition_certificate(req, [{"r1"}, {"r2"}, {"x"}])
        assert cert.deficit == 2

    def test_bad_parts_rejected(self, infeasible3):
        g, roots = infeasible3
        req = requirement_for(g, roots, ["r1", "r2", "x"])
        with pytest.raises(ValueError, match="overlap"):
            subpartition_deficit(req, [{"r1", "x"}, {"x"}])


class TestReducedTable:
    def test_matches_naive_worst_completion(self):
        rng = random.Random(90210)
        for _ in range(60):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=4, max_a=6)
            dec = compute_atoms(g, roots)
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                if len(aux.graph.vertices) > 9:
                    continue
                req = CoverRequirement(g, dec, j, tuple(roots))
                table = _reduced_table(req)
                static = [
                    (a.tail, a.head) for a in aux.graph.arcs if not a.is_loop()
                ]
                best_by_inner: dict[frozenset, int] = {}
                for xs in naive_family(aux):
                    inner = xs & aux.gamma
                    rho = sum(1 for t, h in static if h in xs and t not in xs)
                    val = naive_pj(aux, dec, roots, xs) - rho
                    key = frozenset(inner)
                    if key not in best_by_inner or val > best_by_inner[key]:
                        best_by_inner[key] = val
                for y, (need, xmask) in table.items():
                    inner = _part(req._slice, y)
                    assert best_by_inner[inner] == need
                    xs = _part(req._slice, xmask)
                    rho = sum(1 for t, h in static if h in xs and t not in xs)
                    assert naive_pj(aux, dec, roots, xs) - rho == need
                # the table keeps exactly the inner sets that need an edge
                kept = {_part(req._slice, y) for y in table}
                for inner, best in best_by_inner.items():
                    if inner not in kept:
                        assert best <= 0


class TestWorstCompletion:
    def test_matches_every_terminal_subset(self):
        rng = random.Random(27182)
        for _ in range(400):
            nq = rng.randint(0, 4)
            hits = [rng.randrange(1 << nq) for _ in range(rng.randint(0, 6))]

            def value(chosen):
                touched = set()
                for k in chosen:
                    touched |= {i for i in range(nq) if hits[k] >> i & 1}
                return (nq - len(touched)) - (len(hits) - len(chosen))

            def completion(d):
                return [k for k, hq in enumerate(hits) if hq & ~d == 0]

            best = max(value(c) for c in subsets(range(len(hits))))
            got, d = _worst_completion(nq, hits)
            assert got == best, (nq, hits)
            assert value(completion(d)) == best
            assert all(value(completion(e)) < best for e in range(d))


ENCODINGS = ("loop", "parallel arcs", "shared tail", "entering before internal")


def mixed_atoms(rng, count):
    """The requirement of every atom of ``count`` random instances of at most 8 vertices.

    Arcs outnumber vertices, so loops, parallel arcs and two arcs entering
    an atom from one tail are common.
    """
    for _ in range(count):
        g, roots = random_mixed_instance(rng, max_v=8, max_e=6, max_a=12)
        dec = compute_atoms(g, roots)
        for j in range(len(dec.atoms)):
            yield CoverRequirement(g, dec, j, tuple(roots))


def encoding_features(req) -> set[str]:
    """Which encodings the atom's auxiliary graph has that its bits could get wrong.

    Loops, parallel arcs, entering arcs sharing a tail, and an arc
    entering the atom declared before an internal one: the auxiliary
    graph lists internal arcs first, the slice in declaration order.
    """
    aux = build_auxiliary(req.graph, req.dec, req.atom_index)
    tail_of = {t: tail for t, (_arc_id, tail) in aux.terminal_origin.items()}
    found = set()
    if any(x.is_loop() for x in (*aux.graph.edges, *aux.graph.arcs)):
        found.add("loop")
    ends = Counter((tail_of.get(a.tail, a.tail), a.head) for a in aux.graph.arcs)
    if max(ends.values(), default=0) > 1:
        found.add("parallel arcs")
    if max(Counter(tail_of.values()).values(), default=0) > 1:
        found.add("shared tail")
    into = [a.tail in aux.gamma for a in req.graph.arcs if a.head in aux.gamma and not a.is_loop()]
    if False in into and True in into[into.index(False) :]:
        found.add("entering before internal")
    return found


class TestSliceEncoding:
    """The fallback's slice of the auxiliary graph against the reference encoder's bits.

    The slice gives a terminal bit ``n`` plus its arc's candidate index,
    the reference ``n`` plus its place among the terminals, so masks
    differ and are compared by the names they decode to.
    """

    def test_orient_covering_matches_the_reference_pipeline(self):
        rng = random.Random(31337)
        seen = Counter()
        for req in mixed_atoms(rng, 500):
            ctx = reference_context(req)
            table = reference_table(ctx)
            expected = reference_certificate(req, table, names=ctx.to_vertices)
            if expected is None:
                expected = reference_fix_edges(req, table, names=ctx.to_vertices)
            assert orient_covering(req) == expected
            seen[type(expected).__name__] += 1
            if isinstance(expected, SubpartitionCertificate):
                gamma = req.dec.atoms[req.atom_index]
                seen["terminal in a part"] += any(p - gamma for p in expected.parts)
            seen.update(encoding_features(req))
        kinds = ("Orientation", "SubpartitionCertificate", "terminal in a part") + ENCODINGS
        assert all(seen[k] >= 20 for k in kinds), seen

    def test_reduced_table_matches_the_reference_table(self):
        rng = random.Random(27027)
        seen = Counter()
        for req in mixed_atoms(rng, 500):
            ctx = reference_context(req)
            sl = req._slice
            got = {
                _part(sl, y): (need, _part(sl, xmask))
                for y, (need, xmask) in _reduced_table(req).items()
            }
            want = {
                ctx.to_vertices(y): (need, ctx.to_vertices(xmask))
                for y, (need, xmask) in reference_table(ctx).items()
            }
            assert got == want
            seen["terminal in a completion"] += any(xs - inner for inner, (_n, xs) in got.items())
            seen["hit"] += any(hit for _bit, _head, hit in ctx.terminals)
            seen.update(encoding_features(req))
        assert all(seen[k] >= 20 for k in ("terminal in a completion", "hit")), seen
        assert all(seen[k] >= 20 for k in ENCODINGS), seen

    def test_terminal_bits_name_the_auxiliary_vertices(self):
        # Every atom bit and every terminal's bit, n plus its arc's
        # candidate index, names back to its auxiliary vertex.
        rng = random.Random(4242)
        terminals = 0
        for req in mixed_atoms(rng, 200):
            aux = build_auxiliary(req.graph, req.dec, req.atom_index)
            sl = req._slice
            n = len(sl.vertices)
            bits = [tb for tb, _hb, _hit in sl.cands if tb >> n]
            assert _part(sl, (1 << n) - 1 | sum(bits)) == aux.graph.vertex_set
            for tb in bits:
                (name,) = _part(sl, tb)
                assert name in aux.terminal_origin
            terminals += len(bits)
        assert terminals >= 100

    def test_tree_without_foothold_or_terminal_is_rejected(self):
        # Tree 0 enters the atom {a}, tree 1's root, through the arc r->a;
        # a graph that drops that arc, and so its terminal, leaves tree 0
        # no way into the atom.
        g, roots = parse_mixed_graph("vertex r\nvertex a\narc r a\nroot r\nroot a\n")
        dec = compute_atoms(g, roots)
        j = dec.atoms.index(frozenset({"a"}))
        CoverRequirement(g, dec, j, roots)
        with pytest.raises(InvariantError, match="nonzero requirement"):
            CoverRequirement(MixedGraph(g.vertices), dec, j, roots)


class TestSolverProperties:
    def _atom_requirements(self, rng, count, max_vj=10, max_ej=12):
        for _ in range(count):
            g, roots = random_mixed_instance(rng, max_v=6, max_e=6, max_a=6)
            dec = compute_atoms(g, roots)
            for j in range(len(dec.atoms)):
                aux = build_auxiliary(g, dec, j)
                if len(aux.graph.vertices) > max_vj or len(aux.graph.edges) > max_ej:
                    continue
                yield CoverRequirement(g, dec, j, tuple(roots)), roots, dec, aux

    def test_success_iff_some_orientation_covers(self):
        rng = random.Random(40312)
        solved = failed = 0
        for req, roots, dec, aux in self._atom_requirements(rng, 80):
            outcome = orient_covering(req)
            exists = naive_orientation_exists(aux, dec, roots)
            if isinstance(outcome, Orientation):
                assert exists
                assert check_cover(req, outcome) is None
                assert naive_orientation_covers(aux, dec, roots, dict(outcome.direction))
                solved += 1
            else:
                assert not exists
                assert outcome.deficit >= 1
                assert subpartition_deficit(req, outcome.parts) == outcome.deficit
                failed += 1
        assert solved and failed

    def test_fixing_edges_covers_every_certificate_free_atom(self):
        # The fallback fixes edges only on the rare atoms the fast path
        # stalls on, so it is run here directly on every atom that has no
        # certificate.
        rng = random.Random(60607)
        fixed = 0
        for req, roots, dec, aux in self._atom_requirements(rng, 120, max_vj=8):
            table = _reduced_table(req)
            if _extract_certificate(req, table) is not None:
                continue
            o = _fix_edges(req, table)
            assert o == reference_fix_edges(req, table)
            assert check_cover(req, o) is None
            assert naive_orientation_covers(aux, dec, roots, dict(o.direction))
            fixed += bool(aux.graph.edges)
        assert fixed >= 50

    def test_minmax_certificate_agrees_with_naive(self):
        rng = random.Random(11209)
        seen_positive = False
        for req, roots, dec, aux in self._atom_requirements(rng, 40, max_vj=8):
            naive_best = naive_max_deficit(aux, dec, roots)
            cert = _extract_certificate(req, _reduced_table(req))
            if naive_best <= 0:
                assert cert is None
            else:
                assert cert is not None and cert.deficit == naive_best
                seen_positive = True
        assert seen_positive


class TestCapacity:
    def test_vertex_bound(self, two_root):
        g, roots = two_root
        tight = Bounds(max_enum_vertices=3)
        req = requirement_for(g, roots, ["r1", "v1", "v2", "v5"], bounds=tight)
        with pytest.raises(CapacityError, match="max_enum_vertices"):
            orient_covering(req)
        with pytest.raises(CapacityError, match="max_enum_vertices"):
            check_cover(req, Orientation({}))

    def test_error_names_the_bound_and_the_atom(self, data_dir):
        # The fast path stalls on atom 1, n2 n3 n5, whose links cover its
        # trees' steps, so its table is built, and 3 atom vertices exceed 2.
        g, roots = parse_mixed_graph((data_dir / "census_stall.mg").read_text())
        with pytest.raises(CapacityError) as info:
            solve(g, roots, Bounds(max_enum_vertices=2))
        exc = info.value
        assert (exc.limit, exc.observed, exc.atom) == (2, 3, 1)
        assert str(exc) == "|V_j| = 3 exceeds max_enum_vertices = 2"

    def test_infeasible_atom_certifies_within_edge_bound(self):
        # This instance's two-edge atom has no covering orientation.  The
        # certificate comes from the subpartition search alone: no
        # orientation is enumerated, so no edge count bounds the work.
        g, roots = random_mixed_instance(random.Random(478))
        dec = compute_atoms(g, roots)
        req = CoverRequirement(g, dec, 0, tuple(roots))
        cert = orient_covering(req)
        assert cert == _extract_certificate(req, _reduced_table(req))
        assert cert.deficit == 1
        result = solve(g, roots)
        assert isinstance(result, BiSetFamilyCertificate)
        assert verify_certificate(g, roots, result)

    def test_cover_requires_matching_domain(self, two_root):
        g, roots = two_root
        req = requirement_for(g, roots, ["r1", "v1", "v2", "v5"])
        with pytest.raises(ValueError, match="exactly"):
            check_cover(req, Orientation({"e1": ("r1", "v1")}))


def start_oracle(g, roots, dec, j, sl):
    """Atom ``j``'s cut oracle, with its edges in the starting orientation, and the footholds."""
    trees, start = _footholds(sl, dec, j, roots)
    n = len(sl.vertices)
    return _StepFlow(n, trees, sl.cands, (1 << n) - 1, _start_ends(sl, start)), start


def atom_oracles(rng, count, **kw):
    """Every atom of ``count`` random instances, as its requirement, cut oracle and footholds."""
    for _ in range(count):
        g, roots = random_mixed_instance(rng, **kw)
        dec = compute_atoms(g, roots)
        slices = _atom_slices(g, dec)
        for j, sl in enumerate(slices):
            req = CoverRequirement(g, dec, j, tuple(roots), slices=slices)
            yield (req, *start_oracle(g, roots, dec, j, sl))


def flip_at_random(rng, flow) -> list[tuple[int, int]]:
    """Flip each edge with probability 1/2; the (tail bit, head bit) per edge after."""
    for k in range(len(flow.ends)):
        if rng.random() < 0.5:
            flow.flip(k)
    return [(1 << t, 1 << h) for t, h in flow.ends]


class TestCutOracle:
    """The fast path's cut oracle against the table and the family, for random orientations."""

    def test_short_cut_iff_table_row_uncovered(self):
        rng = random.Random(8128)
        seen = Counter()
        for req, flow, start in atom_oracles(rng, 1500, max_v=7, max_e=9, max_a=8):
            ctx = reference_context(req)
            spans = [bu | bv for bu, bv in ctx.edge_pairs]
            assert spans == [(1 << t) | (1 << h) for t, h in flow.ends]
            bits = flip_at_random(rng, flow)
            table = _reduced_table(req)
            for w in range(ctx.gamma_mask.bit_length()):
                rows = [(y, need) for y, (need, _xm) in table.items() if y >> w & 1]
                covered = all(_ref_cross_into(bits, y) >= need for y, need in rows)
                x = flow.cut(1 << w, start)
                assert (x is None) == covered
                if x is not None:
                    y = x & ctx.gamma_mask
                    assert y >> w & 1 and _ref_cross_into(bits, y) < table[y][0]
                # counted both ways, the edges fall short of a set holding w
                # exactly when it needs more than its whole edge boundary
                boundary = all(
                    sum(1 for span in spans if 0 != span & y != span) >= need for y, need in rows
                )
                assert (flow.cut(1 << w, start, both=True) is None) == boundary
                seen[covered, boundary] += 1
        assert set(seen) == {(True, True), (False, True), (False, False)}
        assert min(seen.values()) > 500, seen

    def test_avoid_and_extra_match_family_slacks(self):
        # cut(t, avoid=s, extra=1) passes exactly when every family member
        # holding t but not s has slack at least 1.
        rng = random.Random(1618)
        seen = Counter()
        for req, flow, start in atom_oracles(rng, 400, max_v=6, max_e=8, max_a=6):
            ctx = reference_context(req)
            if ctx.size > 10:
                continue
            bits = flip_at_random(rng, flow)
            slack = {
                m: ctx.rho_static(m) + _ref_cross_into(bits, m) - ctx.p_of(m) for m in iter_family(ctx)
            }
            n = ctx.gamma_mask.bit_length()
            for t in range(n):
                for s in range(n):
                    if s != t:
                        safe = all(v >= 1 for m, v in slack.items() if m >> t & 1 and not m >> s & 1)
                        got = flow.cut(1 << t, start, avoid=1 << s, extra=1)
                        assert (got is None) == safe
                        seen[safe] += 1
        assert min(seen.values()) > 300, seen


class TestFastPath:
    @staticmethod
    def fast(g, roots, dec, j, slices):
        sl = slices[j]
        outcome = _orient_by_cuts(sl, j, *start_oracle(g, roots, dec, j, sl))
        return _orientation(sl, outcome) if isinstance(outcome, list) else outcome

    def test_fast_orientations_cover(self):
        # Each orientation the fast path returns covers its atom, and each
        # certificate it returns is for an atom that has none.
        rng = random.Random(27182)
        seen = Counter()
        for _ in range(1000):
            g, roots = random_mixed_instance(rng, max_v=7, max_e=9, max_a=8)
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            for j in range(len(dec.atoms)):
                fast = self.fast(g, roots, dec, j, slices)
                req = CoverRequirement(g, dec, j, tuple(roots), slices=slices)
                exact = orient_covering(req)
                if isinstance(fast, Orientation):
                    assert isinstance(exact, Orientation)
                    assert check_cover(req, fast) is None
                elif fast is not None:
                    assert isinstance(exact, SubpartitionCertificate)
                seen[isinstance(fast, Orientation), isinstance(exact, Orientation)] += 1
        assert seen[True, True] > 800 and seen[False, False] > 300, seen

    def test_bench_atoms_reversed_into_cover_without_fallback(self, monkeypatch):
        # Edges pointing away from a segment's root leave no way in for
        # the trees that enter further along, so the staggered segments
        # need path reversals; none of these atoms reaches the fallback.
        reversals = []
        reverse = orientation._reverse_a_path
        monkeypatch.setattr(
            orientation, "_reverse_a_path", lambda *a: reversals.append(a) or reverse(*a)
        )
        for inst in bench_workloads().corpus("pack_heavy", 1, 20):
            g, roots = parse_mixed_graph(inst.text)
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            for j in range(len(dec.atoms)):
                fast = self.fast(g, roots, dec, j, slices)
                req = CoverRequirement(g, dec, j, tuple(roots), slices=slices)
                assert fast is not None and check_cover(req, fast) is None
        assert len(reversals) >= 10

    def test_start_from_the_roots_packs_the_lexicographic_stall(self):
        # Vertices n0..n3, edges n1-n3 and n2-n0, roots n2 and n1.  Path
        # reversal from lexicographic directions stalls here: no single
        # reversal repairs {n1} without dropping the tight set {n0, n3}.
        # Starting from the roots puts n2->n0 in place, so reversing
        # n1->n3 alone covers the atom.
        g, roots = random_mixed_instance(
            random.Random(248192), max_v=6, max_e=10, max_a=6, max_k=3
        )
        assert len(g.vertices) == 4 and len(g.edges) == 2
        dec = compute_atoms(g, roots)
        assert self.fast(g, roots, dec, 0, _atom_slices(g, dec)) is not None
        mp = solve(g, roots)
        assert isinstance(mp, MixedPacking)
        assert validate_mixed_packing(g, roots, mp)

    def test_stalled_atom_oriented_by_the_exact_path(self):
        # Random instances, by seed and index, whose one atom the fast path
        # stalls on although an orientation covers it; the fallback finds
        # no certificate and fixes the edges one by one.
        cases = [(1, i, 7, 11) for i in (3992, 4762, 5954, 6397, 6555, 7619, 16142, 18623)]
        cases += [(2, i, 10, 14) for i in (10087, 14450, 18617)]
        for seed, i, n, m in cases:
            g, roots = random_mixed_instance(
                random.Random(seed * 1000003 + i), max_v=n, max_e=m, max_a=n
            )
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            assert len(dec.atoms) == 1, (seed, i)
            assert self.fast(g, roots, dec, 0, slices) is None, (seed, i)
            outcome = orient_atom(g, dec, 0, roots)
            assert isinstance(outcome, Orientation), (seed, i)
            aux = build_auxiliary(g, dec, 0)
            assert check_cover(CoverRequirement(g, dec, 0, tuple(roots)), outcome) is None
            assert naive_orientation_covers(aux, dec, roots, dict(outcome.direction))
            mp = solve(g, roots)
            assert isinstance(mp, MixedPacking), (seed, i)
            assert validate_mixed_packing(g, roots, mp)

    def test_stalled_cycle_certified_by_counting(self, monkeypatch):
        # One edge per link of an n-cycle cannot carry two trees from v0:
        # they need 2(n - 1) steps and have n links.  The fast path stalls
        # on the cycle, and the count certifies it with the singletons of
        # every vertex but v0, deficit n - 2, past the table's bound too,
        # and without loading the exact fallback.
        monkeypatch.delitem(sys.modules, "arbopack.exhaustive")
        for n in (7, 21, 200):
            lines = [f"vertex v{i}" for i in range(n)]
            lines += [f"edge v{i} v{(i + 1) % n}" for i in range(n)]
            g, roots = parse_mixed_graph("\n".join(lines + ["root v0"] * 2) + "\n")
            result = solve(g, roots)
            assert isinstance(result, BiSetFamilyCertificate)
            assert [b.inner for b in result.bisets] == [frozenset({f"v{i}"}) for i in range(1, n)]
            assert (result.lhs, result.rhs) == (n, 2 * (n - 1))
            assert verify_certificate(g, roots, result)
        assert "arbopack.exhaustive" not in sys.modules

    def test_census_stall_certified_by_the_exact_path(self, monkeypatch, data_dir):
        # Atom n2 n3 n5 of census_stall.mg has 5 links for its two trees'
        # 4 steps, and no set short with its edges counted both ways, so
        # the fast path stalls, the count passes, and the fallback
        # certifies it with its maximum-deficit subpartition.
        calls = []
        orient = exhaustive.orient_covering
        monkeypatch.setattr(
            exhaustive, "orient_covering", lambda req: calls.append(req) or orient(req)
        )
        g, roots = parse_mixed_graph((data_dir / "census_stall.mg").read_text())
        result = solve(g, roots)
        assert len(calls) == 1
        bisets = tuple(BiSet({v}, {v}) for v in ("n2", "n5"))
        assert result == BiSetFamilyCertificate(1, bisets, 3, 4)
        assert verify_certificate(g, roots, result)

    def test_refuted_atom_certificate_against_the_oracles(self):
        # The set the fast path refutes an atom with is one part whose
        # deficit is the naive one, at most the best subpartition's.
        # Past 6 auxiliary vertices the enumeration is slow, and the
        # certificate search, which test_minmax_certificate_agrees_with_naive
        # ties to it, gives the best deficit instead.
        rng = random.Random(9)
        refuted = 0
        for _ in range(2000):
            g, roots = random_mixed_instance(rng, max_v=8)
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            for j in range(len(dec.atoms)):
                cert = self.fast(g, roots, dec, j, slices)
                if not isinstance(cert, SubpartitionCertificate):
                    continue
                aux = build_auxiliary(g, dec, j)
                req = CoverRequirement(g, dec, j, tuple(roots), slices=slices)
                assert len(cert.parts) == 1
                assert cert.deficit == subpartition_deficit(req, cert.parts) >= 1
                if len(aux.graph.vertices) <= 6:
                    assert cert.deficit <= naive_max_deficit(aux, dec, roots)
                else:
                    assert cert.deficit <= _extract_certificate(req, _reduced_table(req)).deficit
                lifted = certificate_from_subpartition(cert, dec, g, roots)
                assert verify_certificate(g, roots, lifted)
                refuted += 1
        assert refuted > 400, refuted

    def test_refuted_atom_gives_up_after_two_flows(self, monkeypatch):
        # The 30-vertex path is far past DEFAULT_BOUNDS.  The set that the
        # second flow finds short both ways is the certificate, so neither
        # the requirement table nor the certificate search runs.
        flows = []
        min_cut = packing._min_cut
        monkeypatch.setattr(packing, "_min_cut", lambda *a: flows.append(a) or min_cut(*a))

        def fallback(*_args):
            raise AssertionError("a refuted atom reached the exact fallback")

        monkeypatch.setattr(exhaustive, "_reduced_table", fallback)
        monkeypatch.setattr(exhaustive, "_extract_certificate", fallback)
        wl = bench_workloads()
        for seed in range(10):
            rng = random.Random(seed)
            g, roots = parse_mixed_graph(wl._render(rng, [wl.doubled_path(rng, "", 30)]))
            dec = compute_atoms(g, roots)
            flows.clear()
            cert = self.fast(g, roots, dec, 0, _atom_slices(g, dec))
            assert isinstance(cert, SubpartitionCertificate) and len(cert.parts) == 1
            assert 1 <= len(flows) <= 2
            result = solve(g, roots)
            assert isinstance(result, BiSetFamilyCertificate) and len(result.bisets) == 1
            assert verify_certificate(g, roots, result)
class TestCounting:
    """A vertex or an atom short of links is refuted by a count, with no oracle and no table."""

    def test_counts_agree_with_the_exact_path(self):
        # Each rule is tried on every atom, not only where solve runs it:
        # a vertex with fewer links than trees to enter it, and trees
        # needing more steps than the atom has links.  Every atom either
        # refutes, the exact fallback refutes on the same slice, and each
        # count's certificate has the deficit it claims, at most the
        # fallback's, and lifts to a family that passes the checker.
        rng = random.Random(3434)
        refuted = Counter()
        for _ in range(20000):
            g, roots = random_mixed_instance(rng, max_v=10, max_e=14, max_a=10, max_k=4)
            dec = compute_atoms(g, roots)
            slices = _atom_slices(g, dec)
            for j, sl in enumerate(slices):
                trees, start = _footholds(sl, dec, j, roots)
                short = _short_vertex(len(sl.vertices), trees, start, sl.cands, sl.pairs)
                certs = {
                    "vertex": None if short is None else _refuted(sl, j, *short),
                    "links": _short_of_links(sl, j, trees, start),
                }
                certs = {rule: cert for rule, cert in certs.items() if cert is not None}
                if not certs:
                    continue
                exact = orient_covering(CoverRequirement(g, dec, j, tuple(roots), slices=slices))
                assert isinstance(exact, SubpartitionCertificate), (g, roots, j)
                for rule, cert in certs.items():
                    lifted = certificate_from_subpartition(cert, dec, g, roots)
                    assert lifted.deficit == cert.deficit <= exact.deficit, (rule, g, roots)
                    assert verify_certificate(g, roots, lifted)
                    refuted[rule] += 1
        assert min(refuted.values()) > 5000, refuted

    def test_stall_census(self, monkeypatch):
        # 3,000 graphs of up to 14 vertices: every answer validates, and
        # the fast path's stalls that no count refutes are the only calls
        # to the exact fallback (343 calls before the counts).
        calls = []
        orient = exhaustive.orient_covering
        monkeypatch.setattr(
            exhaustive, "orient_covering", lambda req: calls.append(req) or orient(req)
        )
        rng = random.Random(5)
        kinds = Counter()
        for _ in range(3000):
            g, roots = random_mixed_instance(rng, max_v=14, max_e=20, max_a=12, max_k=4)
            result = solve(g, roots)
            if isinstance(result, MixedPacking):
                assert validate_mixed_packing(g, roots, result)
            else:
                assert verify_certificate(g, roots, result)
            kinds[type(result)] += 1
        assert len(calls) == 35
        assert min(kinds.values()) > 1000, kinds


