from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from arbopack import build_auxiliary, compute_atoms, parse_mixed_graph
from arbopack.cli import main
from arbopack.commands import _part_order
from arbopack.orientation import SubpartitionCertificate, orient_atom
from instance_gen import deep_atom_text, doubled_cycle_text, random_mixed_instance


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def two_root_path(data_dir):
    return str(data_dir / "two_root_mixed.mg")


@pytest.fixture()
def infeasible_path(data_dir):
    return str(data_dir / "three_vertex_infeasible.mg")


class TestSolve:
    def test_feasible_json(self, capsys, two_root_path):
        code, out, _ = run(capsys, "solve", two_root_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == 1
        assert payload["feasible"] is True
        assert [t["root"] for t in payload["trees"]] == ["r1", "r2"]
        arcs0 = payload["trees"][0]["arcs"]
        assert {"id": "a1", "tail": "r1", "head": "v3", "origin": "arc"} in arcs0
        assert any(a["origin"] == "edge" for a in arcs0)

    def test_infeasible_certificate(self, capsys, infeasible_path):
        code, out, _ = run(capsys, "solve", infeasible_path)
        assert code == 2
        payload = json.loads(out)
        assert payload["feasible"] is False
        cert = payload["certificate"]
        assert cert["deficit"] == 2
        assert cert["lhs"] == 2 and cert["rhs"] == 4
        inners = sorted(tuple(b["inner"]) for b in cert["bisets"])
        assert inners == [("r1",), ("r2",), ("x",)]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no_such_file.mg")
        assert code == 1 and "error" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mg"
        bad.write_text("vertex a\nfrob\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1 and "line 2" in err

    def test_capacity_exit(self, capsys, infeasible_path):
        code, _, err = run(capsys, "solve", infeasible_path, "--max-enum-vertices", "2")
        assert code == 3 and "max_enum_vertices" in err

    def test_nonpositive_bound_rejected(self, capsys, two_root_path):
        code, _, err = run(capsys, "solve", two_root_path, "--max-enum-vertices", "-1")
        assert code == 1 and "positive" in err

    def test_byte_identical_reruns(self, capsys, two_root_path):
        _, out1, _ = run(capsys, "solve", two_root_path, "--seed", "7")
        _, out2, _ = run(capsys, "solve", two_root_path, "--seed", "7")
        assert out1 == out2

    def test_seed_recorded_in_a_certificate(self, capsys, infeasible_path):
        code, out, _ = run(capsys, "solve", infeasible_path, "--seed", "7")
        payload = json.loads(out)
        assert code == 2 and payload["feasible"] is False
        assert list(payload) == ["format", "feasible", "seed", "certificate"]
        assert payload["seed"] == 7
        _, plain, _ = run(capsys, "solve", infeasible_path)
        del payload["seed"]
        assert payload == json.loads(plain)

    def test_jobs_flag(self, capsys, two_root_path):
        _, out1, _ = run(capsys, "solve", two_root_path)
        _, out2, _ = run(capsys, "solve", two_root_path, "--jobs", "3")
        assert out1 == out2


class TestUsage:
    """Usage errors exit 1; exit 2 is kept for infeasible answers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "{f}", "--frob"),
            ("solve", "{f}", "--max-enum-edges", "3"),
            ("orient", "{f}"),
            ("pack-digraph",),
            (),
        ],
    )
    def test_usage_error_exits_1(self, capsys, two_root_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=two_root_path) for a in argv])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestRoundTrips:
    def test_solve_then_check(self, capsys, tmp_path, two_root_path):
        code, out, _ = run(capsys, "solve", two_root_path)
        assert code == 0
        packing = tmp_path / "packing.json"
        packing.write_text(out)
        code, out2, _ = run(capsys, "check", two_root_path, str(packing))
        assert code == 0 and "valid" in out2

    def test_check_rejects_tampered_packing(self, capsys, tmp_path, two_root_path):
        code, out, _ = run(capsys, "solve", two_root_path)
        payload = json.loads(out)
        payload["trees"][0]["arcs"] = payload["trees"][0]["arcs"][1:]
        packing = tmp_path / "packing.json"
        packing.write_text(json.dumps(payload))
        code, out2, _ = run(capsys, "check", two_root_path, str(packing))
        assert code == 2 and "invalid" in out2

    def test_check_ignores_a_separate_edges_list(self, capsys, tmp_path, two_root_path):
        # Only "arcs" entries with "origin": "edge" carry a tree's edges; the
        # same uses moved to an "edges" list are not read.
        code, out, _ = run(capsys, "solve", two_root_path)
        payload = json.loads(out)
        moved = 0
        for tree in payload["trees"]:
            uses = [a for a in tree["arcs"] if a["origin"] == "edge"]
            tree["arcs"] = [a for a in tree["arcs"] if a["origin"] != "edge"]
            tree["edges"] = [{k: u[k] for k in ("id", "tail", "head")} for u in uses]
            moved += len(uses)
        assert moved
        packing = tmp_path / "packing.json"
        packing.write_text(json.dumps(payload))
        code, out2, _ = run(capsys, "check", two_root_path, str(packing))
        assert code == 2 and out2.startswith("packing invalid")

    def test_solve_then_certify(self, capsys, tmp_path, infeasible_path):
        code, out, _ = run(capsys, "solve", infeasible_path)
        assert code == 2
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out2, _ = run(capsys, "certify", infeasible_path, str(cert))
        assert code == 0 and "valid" in out2

    def test_certify_names_atoms_1_based(self, capsys, tmp_path, two_root_path):
        # v1 lies in atom 1 of the instance, not in the atom 2 the file names
        payload = _certificate({"outer": ["v1"], "inner": ["v1"]}) | {"atom_index": 2}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "certify", two_root_path, str(cert))
        assert code == 2
        assert out == "certificate invalid: certificate names atom 2 but covers atom 1\n"

    def test_certify_rejects_tampered(self, capsys, tmp_path, infeasible_path):
        code, out, _ = run(capsys, "solve", infeasible_path)
        payload = json.loads(out)
        payload["certificate"]["bisets"] = payload["certificate"]["bisets"][:2]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload))
        code, out2, _ = run(capsys, "certify", infeasible_path, str(cert))
        assert code == 2 and "invalid" in out2


def _certificate(biset: dict) -> dict:
    return {"atom_index": 3, "bisets": [biset], "lhs": 0, "rhs": 1}


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command, payload, kind",
        [
            ("certify", [1, 2], "certificate"),
            ("check", {"trees": [{"root_index": 1, "root": "r1", "arcs": ["x"]}]}, "packing"),
            (
                "check",
                {
                    "trees": [
                        {"root_index": 1, "root": "r1", "arcs": [{"id": [1]}]},
                        {"root_index": 2, "root": "r2", "arcs": []},
                    ]
                },
                "packing",
            ),
            # a vertex set is a list of names: a string would be read as its
            # characters, and mixed-type names cannot be sorted
            ("certify", _certificate({"outer": "v3", "inner": "v3"}), "certificate"),
            ("certify", _certificate({"outer": ["v3", 1, "zz"], "inner": ["v3"]}), "certificate"),
        ],
    )
    def test_error_message_not_traceback(
        self, capsys, tmp_path, two_root_path, command, payload, kind
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, two_root_path, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: malformed {kind} JSON")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("atom_index", True),
            ("atom_index", 1.0),
            ("lhs", "2"),
            ("lhs", 2.4),
            ("rhs", 4.7),
            ("rhs", "4"),
            ("deficit", 7),
            ("deficit", 2.0),
        ],
    )
    def test_certificate_numbers_are_json_integers(
        self, capsys, tmp_path, infeasible_path, field, value
    ):
        # solve's own certificate reads atom 1, lhs 2, rhs 4 and deficit 2;
        # int() would read every value here back as the same number
        code, out, _ = run(capsys, "solve", infeasible_path)
        payload = json.loads(out)
        payload["certificate"][field] = value
        bad = tmp_path / "cert.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", infeasible_path, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed certificate JSON")

    @pytest.mark.parametrize("value", [True, 1.0, 1.6, "1"])
    def test_root_index_is_a_json_integer(self, capsys, tmp_path, two_root_path, value):
        code, out, _ = run(capsys, "solve", two_root_path)
        payload = json.loads(out)
        payload["trees"][0]["root_index"] = value
        bad = tmp_path / "packing.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", two_root_path, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed packing JSON")


#: r reaches x by arc a1 and by edge e1; solve gives tree 1 a1 and tree 2 e1
TWICE_ROOTED = "vertex r\nvertex x\narc r x a1\nedge r x e1\nroot r\nroot r\n"

CHECK = ("check",)
EXPORT_DOT = ("export-dot", "--packing")


class TestPackingEntries:
    @pytest.fixture()
    def solved(self, capsys, tmp_path):
        inst = tmp_path / "twice.mg"
        inst.write_text(TWICE_ROOTED)
        _, out, _ = run(capsys, "solve", str(inst))
        return str(inst), json.loads(out)

    @staticmethod
    def run_on(capsys, tmp_path, solved, command, payload):
        packing = tmp_path / "packing.json"
        packing.write_text(json.dumps(payload))
        name, *flag = command
        return run(capsys, name, solved[0], *flag, str(packing))

    @pytest.mark.parametrize("command", [CHECK, EXPORT_DOT], ids=["check", "export-dot"])
    @pytest.mark.parametrize(
        "tree, tamper, message",
        [
            (0, {"tail": "x", "head": "r"}, "arc 'a1' runs 'r' -> 'x', not 'x' -> 'r'"),
            (0, {"head": "r"}, "arc 'a1' runs 'r' -> 'x', not 'r' -> 'r'"),
            (1, {"origin": "Edge"}, "origin 'Edge' is neither 'arc' nor 'edge'"),
        ],
        ids=["swapped-ends", "foreign-head", "unknown-origin"],
    )
    def test_malformed_entry(self, capsys, tmp_path, solved, command, tree, tamper, message):
        payload = solved[1]
        payload["trees"][tree]["arcs"][0].update(tamper)
        code, out, err = self.run_on(capsys, tmp_path, solved, command, payload)
        assert (code, out) == (1, "")
        assert err == f"error: malformed packing JSON: {message}\n"

    def test_missing_origin_means_arc(self, capsys, tmp_path, solved):
        payload = solved[1]
        del payload["trees"][0]["arcs"][0]["origin"]
        assert self.run_on(capsys, tmp_path, solved, CHECK, payload) == (0, "packing valid\n", "")

    def test_unknown_arc_reaches_the_validator(self, capsys, tmp_path, solved):
        payload = solved[1]
        payload["trees"][0]["arcs"].append({"id": "a9", "tail": "x", "head": "r"})
        code, out, _ = self.run_on(capsys, tmp_path, solved, CHECK, payload)
        assert (code, out) == (2, "packing invalid: unknown arc 'a9'\n")

    @pytest.mark.parametrize("tree, kind, taken", [(1, "arc", "a1"), (0, "edge", "e1")])
    def test_export_dot_rejects_double_use(self, capsys, tmp_path, solved, tree, kind, taken):
        # check says "<kind> <id> used twice"; the drawing would show one colour
        payload = solved[1]
        (entry,) = payload["trees"][1 - tree]["arcs"]
        payload["trees"][tree]["arcs"].append(entry)
        code, out, err = self.run_on(capsys, tmp_path, solved, EXPORT_DOT, payload)
        assert (code, out) == (1, "")
        assert err == f"error: packing uses {kind} {taken!r} twice\n"


class TestAtoms:
    def test_text(self, capsys, two_root_path):
        code, out, _ = run(capsys, "atoms", two_root_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "atom 1: r1 v1 v2 v5 roots=1"
        assert lines[1] == "atom 2: r2 v6 v7 roots=2"
        assert lines[2] == "atom 3: v3 v4 roots=1,2"

    def test_json(self, capsys, two_root_path):
        code, out, _ = run(capsys, "atoms", two_root_path, "--format=json")
        assert code == 0
        payload = json.loads(out)
        assert [a["roots"] for a in payload["atoms"]] == [[1], [2], [1, 2]]


class TestOrient:
    def test_root_atom_orientation_lines(self, capsys, two_root_path):
        code, out, _ = run(capsys, "orient", two_root_path, "--atom", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert "e1 r1 v1" in lines
        assert len(lines) == 4

    def test_edgeless_atom(self, capsys, two_root_path):
        code, out, _ = run(capsys, "orient", two_root_path, "--atom", "3")
        assert code == 0 and out.strip() == ""

    def test_infeasible_atom_certificate(self, capsys, infeasible_path):
        code, out, _ = run(capsys, "orient", infeasible_path, "--atom", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["deficit"] == 2
        assert sorted(map(tuple, payload["parts"])) == [("r1",), ("r2",), ("x",)]

    def test_atom_out_of_range(self, capsys, two_root_path):
        code, _, err = run(capsys, "orient", two_root_path, "--atom", "9")
        assert code == 1 and "out of range" in err

    def test_json_format(self, capsys, two_root_path):
        code, out, _ = run(
            capsys, "orient", two_root_path, "--atom", "1", "--format=json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["atom"] == 1
        assert {"id": "e1", "tail": "r1", "head": "v1"} in payload["orientation"]


class TestOrientPartOrder:
    def test_parts_in_auxiliary_graph_order(self, capsys, tmp_path):
        # `orient` ranks names with no auxiliary graph: atom vertices in
        # graph order, then terminals in arc order.  That is the order of
        # every atom's auxiliary graph, and `orient` lists each part of
        # every atom it refutes or stalls on in it, beyond the inputs of
        # tests/data/cli_golden.json.
        rng = random.Random(6262)
        path = tmp_path / "g.mg"
        kinds = Counter()
        for _ in range(1200):
            g, roots = random_mixed_instance(rng, max_v=7, max_e=11, max_a=7)
            dec = compute_atoms(g, roots)
            rank = _part_order(g)
            written = False
            for j in range(len(dec.atoms)):
                order = build_auxiliary(g, dec, j).graph.vertices
                assert sorted(order, key=rank.__getitem__) == list(order)
                kinds["terminals", min(len(order) - len(dec.atoms[j]), 2)] += 1
                outcome = orient_atom(g, dec, j, roots)
                if not isinstance(outcome, SubpartitionCertificate):
                    continue
                if not written:
                    lines = [f"vertex {v}" for v in g.vertices]
                    lines += [f"edge {u} {v} {eid}" for eid, u, v in g.edges]
                    lines += [f"arc {t} {h} {aid}" for aid, t, h in g.arcs]
                    lines += [f"root {r}" for r in roots]
                    path.write_text("\n".join(lines) + "\n")
                    assert parse_mixed_graph(path.read_text()) == (g, roots)
                    written = True
                code, out, _ = run(capsys, "orient", str(path), "--atom", str(j + 1))
                assert code == 2
                expected = [[v for v in order if v in part] for part in outcome.parts]
                assert json.loads(out)["parts"] == expected
                kinds["parts", min(len(expected), 2)] += 1
                held = any(part - dec.atoms[j] for part in outcome.parts)
                kinds["terminal in a part", held] += 1
        assert min(kinds.values()) > 20, kinds


class TestPackDigraph:
    def test_blocks(self, capsys, data_dir):
        code, out, _ = run(capsys, "pack-digraph", str(data_dir / "arcs_only.mg"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tree 1 root r1"
        assert "tree 2 root r2" in lines
        assert any(line.startswith("x1 r2 a") for line in lines)

    def test_rejects_edges(self, capsys, two_root_path):
        # the command's own parse error, before pack_reachability's ValueError
        assert run(capsys, "pack-digraph", two_root_path) == (
            1, "", "error: pack-digraph accepts arcs only; the input declares edges\n"
        )

    def test_infeasible_digraph(self, capsys, tmp_path):
        doc = "vertex r\nvertex s\nvertex v\narc r s\narc s v\nroot r\nroot s\n"
        f = tmp_path / "bad.mg"
        f.write_text(doc)
        code, out, _ = run(capsys, "pack-digraph", str(f))
        assert code == 2
        assert json.loads(out)["violated"] == ["v"]

    def test_failed_atom_in_large_digraph(self, capsys, tmp_path):
        # the failed atom {m, c} is tiny; the graph has 24 vertices
        lines = ["vertex r1", "vertex r2", "vertex m", "vertex c"]
        lines += [f"vertex z{i}" for i in range(20)]
        lines += ["arc r1 m", "arc r2 m", "arc m c", "root r1", "root r2"]
        f = tmp_path / "wide.mg"
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "pack-digraph", str(f))
        assert code == 2
        assert json.loads(out) == {"format": 1, "feasible": False, "violated": ["c"]}

    def test_deep_atom(self, capsys, tmp_path):
        f = tmp_path / "deep.mg"
        f.write_text(deep_atom_text())
        code, out, _ = run(capsys, "pack-digraph", str(f))
        assert code == 0
        assert out.startswith("tree 1 root r\n")

    def test_enumeration_bound_ignored(self, capsys, tmp_path):
        # A 100-vertex atom packs whatever bound is given: packing
        # enumerates no sets, so the flag is accepted and changes nothing.
        f = tmp_path / "cycle.mg"
        f.write_text(doubled_cycle_text(100, 2))
        code, out, _ = run(capsys, "pack-digraph", str(f))
        assert code == 0 and out.startswith("tree 1 root v0\n")
        assert run(capsys, "pack-digraph", str(f), "--max-enum-vertices", "2") == (0, out, "")


class TestExportDot:
    def test_plain(self, capsys, two_root_path):
        code, out, _ = run(capsys, "export-dot", two_root_path)
        assert code == 0
        assert out.startswith("digraph")
        assert '"r1" [shape=doublecircle];' in out
        assert "dir=none" in out

    def test_colored_by_packing(self, capsys, tmp_path, two_root_path):
        _, out, _ = run(capsys, "solve", two_root_path)
        packing = tmp_path / "packing.json"
        packing.write_text(out)
        code, dot, _ = run(
            capsys, "export-dot", two_root_path, "--packing", str(packing)
        )
        assert code == 0
        assert "color=crimson" in dot and "color=royalblue" in dot

    @pytest.mark.parametrize(
        "tamper, message",
        [
            ({"id": "e1", "tail": "r2", "head": "v7"}, "edge 'e1' with endpoints not its own"),
            ({"id": "e9", "tail": "r1", "head": "v1"}, "unknown edge 'e9'"),
            ({"id": "a9", "origin": "arc"}, "unknown arc 'a9'"),
        ],
        ids=["foreign-ends", "unknown-edge", "unknown-arc"],
    )
    def test_packing_not_of_the_graph_rejected(
        self, capsys, tmp_path, two_root_path, tamper, message
    ):
        # Each tree's entry for e1 (r1-v1), or a new arc entry, is tampered
        # with; the drawing must not show an edge or arc the graph lacks.
        _, out, _ = run(capsys, "solve", two_root_path)
        payload = json.loads(out)
        arcs = payload["trees"][0]["arcs"]
        if tamper.get("origin") == "arc":
            arcs.append(tamper)
        else:
            (entry,) = [a for a in arcs if a["id"] == "e1"]
            entry.update(tamper)
        packing = tmp_path / "packing.json"
        packing.write_text(json.dumps(payload))
        code, dot, err = run(capsys, "export-dot", two_root_path, "--packing", str(packing))
        assert (code, dot) == (1, "")
        assert message in err

    def test_deterministic(self, capsys, two_root_path):
        _, a, _ = run(capsys, "export-dot", two_root_path)
        _, b, _ = run(capsys, "export-dot", two_root_path)
        assert a == b

    def test_quotes_and_backslashes_escaped(self, capsys, tmp_path):
        inst = tmp_path / "quoted.mg"
        inst.write_text(
            'vertex a"b\nvertex c\\d\nedge a"b c\\d e"1\narc c\\d a"b x\\2\nroot a"b\n'
        )
        code, out, _ = run(capsys, "export-dot", str(inst))
        assert code == 0
        assert out.splitlines() == [
            "digraph mixed {",
            '  "a\\"b" [shape=doublecircle];',
            '  "c\\\\d" [shape=circle];',
            '  "a\\"b" -> "c\\\\d" [dir=none, label="e\\"1"];',
            '  "c\\\\d" -> "a\\"b" [label="x\\\\2"];',
            "}",
        ]
