"""Pinned CLI output on the instances in ``tests/data``.

For every ``*.mg`` file, the stdout and exit code of ``solve``, ``atoms``
(text and JSON), ``orient`` (every atom, text and JSON), ``pack-digraph``
and ``export-dot`` are recorded in ``data/cli_golden.json``, and so are
those of ``check``, ``certify`` and ``export-dot --packing`` fed the JSON
that ``solve`` prints for the same file (``@solve`` in a case).  A change
that alters a byte of that output fails here, naming the command and the
file.  To record the goldens again, on purpose::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from arbopack import compute_atoms, parse_mixed_graph
from arbopack.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
SOLVED = "@solve"


def cases() -> list[list[str]]:
    """Each command line, with the instance file named by its base name."""
    out = []
    for path in sorted(DATA.glob("*.mg")):
        f = path.name
        out += [["solve", f], ["atoms", f], ["atoms", f, "--format", "json"]]
        n_atoms = len(compute_atoms(*parse_mixed_graph(path.read_text())).atoms)
        for k in range(1, n_atoms + 1):
            for fmt in ("text", "json"):
                out.append(["orient", f, "--atom", str(k), "--format", fmt])
        out += [["pack-digraph", f], ["export-dot", f]]
        out += [["check", f, SOLVED], ["certify", f, SOLVED]]
        out.append(["export-dot", f, "--packing", SOLVED])
    return out


def run(argv: list[str]) -> dict:
    command, name, *rest = argv
    with tempfile.TemporaryDirectory() as tmp:
        solved = Path(tmp) / "solve.json"
        if SOLVED in rest:
            solved.write_text(run(["solve", name])["stdout"])
        rest = [str(solved) if arg == SOLVED else arg for arg in rest]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(DATA / name), *rest])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_pinned(golden, argv):
    case = " ".join(argv)
    assert case in golden, f"{case}: no recorded output"
    got = run(argv)
    assert got["exit"] == golden[case]["exit"], f"{case}: exit code differs"
    assert got["stdout"] == golden[case]["stdout"], f"{case}: stdout differs"


def test_every_recorded_case_still_runs(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


if __name__ == "__main__":
    recorded = {" ".join(argv): run(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
