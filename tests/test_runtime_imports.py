"""The package loads nothing outside the standard library and itself, and no stage creeps back."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arbopack

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import arbopack, arbopack.cli
print(json.dumps(sorted(sys.modules)))
"""

# whether solving the file named by argv[2] loaded the fallback, before and after
SOLVE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from arbopack import parse_mixed_graph, solve
g, roots = parse_mixed_graph(open(sys.argv[2]).read())
before = "arbopack.exhaustive" in sys.modules
solve(g, roots)
print(json.dumps([before, "arbopack.exhaustive" in sys.modules]))
"""

# pack_reachability's answer kinds over the seed-8080 sparse fuzz of
# instance_gen (its directory is argv[2]), and whether the fallback loaded
DIGRAPH_PROBE = """
import collections, json, random, sys
sys.path[:0] = sys.argv[1:3]
from arbopack import CapacityError, pack_reachability
from instance_gen import sparse_digraph_instance
rng = random.Random(8080)
kinds = collections.Counter()
for _ in range(1000):
    g, roots = sparse_digraph_instance(rng)
    try:
        kinds[type(pack_reachability(g, roots)).__name__] += 1
    except CapacityError:
        kinds["CapacityError"] += 1
print(json.dumps([kinds, "arbopack.exhaustive" in sys.modules]))
"""

# the exported names ``import arbopack`` leaves unbound
UNBOUND_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import arbopack
print(json.dumps(sorted(set(arbopack.__all__) - set(vars(arbopack)))))
"""

# the names a star import binds
STAR_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
names = {}
exec("from arbopack import *", names)
print(json.dumps(sorted(set(names) - {"__builtins__"})))
"""

DATA = Path(__file__).with_name("data")
# the modules ``solve`` runs, and every lazily bound name with its module
START_UP = {"bounds", "errors", "graph_core", "decomposition", "packing", "orientation", "pipeline"}
LAZY_NAMES = {
    "exhaustive": ("AuxiliaryGraph", "CoverRequirement", "build_auxiliary", "orient_covering"),
    "checks": ("validate_mixed_packing", "verify_certificate"),
    "two_stage": (
        "apply_orientation", "covering_orientation", "pack_atom_branchings", "pack_reachability"
    ),
}


def _probe(code: str, *args: str):
    # -S skips site-packages and their start-up hooks, so every module
    # loaded is one the interpreter or the package asked for.
    src = str(Path(arbopack.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *args], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def _loaded_by_import() -> list[str]:
    return _probe(PROBE)


def _ours(modules) -> set[str]:
    return {name.split(".", 1)[1] for name in modules if name.startswith("arbopack.")}


def test_zero_runtime_dependencies():
    # A test helper such as ``naive`` is outside both, and is caught too.
    loaded = _loaded_by_import()
    assert "arbopack.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "arbopack"
    ]
    assert not foreign, foreign


def test_start_up_loads_no_class_generators():
    # ``dataclasses`` (and the ``inspect`` it imports) cost a process
    # about 9 ms to import and more to build each class; the value types
    # are defined without them, so ``arbopack solve`` starts sooner.
    loaded = _loaded_by_import()
    assert "arbopack.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_start_up_loads_only_what_solve_runs():
    # The exact fallback runs only on an atom the fast path stalls on, and
    # the validators, the two-stage route and the other subcommands never
    # run in ``solve``, so the CLI and the package start without compiling
    # any of them.
    assert _ours(_loaded_by_import()) == START_UP | {"cli"}


def test_cli_solve_loads_no_lazy_module():
    # The real ``python -m arbopack.cli`` process; -X importtime lists on
    # stderr every module it imports, the package's own included.
    src = str(Path(arbopack.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "arbopack.cli", "solve",
         str(DATA / "two_root_mixed.mg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert json.loads(proc.stdout)["feasible"] is True
    assert _ours(imported) == START_UP


@pytest.mark.parametrize(
    "name, stalls",
    [
        ("census_stall.mg", True),
        ("three_vertex_infeasible.mg", False),
        ("two_root_mixed.mg", False),
        ("arcs_only_infeasible.mg", False),
    ],
)
def test_only_a_stalled_atom_loads_the_fallback(name, stalls):
    # The fast path stalls on both three-vertex atoms, which have no set
    # short with their edges counted both ways.  The trees of
    # three_vertex_infeasible.mg's atom need 4 links and it has 2, so a
    # count refutes it; census_stall.mg's has links enough, and only the
    # fallback refutes it.
    assert _probe(SOLVE_PROBE, str(DATA / name)) == [False, stalls]


def test_digraph_packing_never_loads_the_fallback():
    # A digraph atom has no edge to orient, so the fast path never
    # stalls on it: it is packed or refuted without the exact fallback,
    # and never raises CapacityError.
    kinds, loaded = _probe(DIGRAPH_PROBE, str(Path(__file__).parent))
    assert kinds == {"MixedPacking": 643, "frozenset": 357} and not loaded


def test_lazy_names_are_the_fallback_modules_own():
    # In a fresh interpreter, the exported names that import leaves unbound
    # are exactly the lazy ones; each resolves to its own module's object.
    unbound = _probe(UNBOUND_PROBE)
    assert unbound == sorted(name for names in LAZY_NAMES.values() for name in names)
    for module, names in LAZY_NAMES.items():
        home = importlib.import_module(f"arbopack.{module}")
        for name in names:
            assert name in arbopack.__all__
            assert getattr(arbopack, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'orient'"):
        arbopack.orient


def test_star_import_binds_every_exported_name():
    # In a fresh interpreter, so the lazy names are resolved by the import.
    names = _probe(STAR_PROBE)
    assert names == sorted(arbopack.__all__) and len(names) == 33


def _imports_from(module: str, banned: set[str]) -> list[str]:
    """The import statements of ``module`` that name one of the ``banned`` modules."""
    tree = ast.parse(Path(arbopack.__file__).with_name(module).read_text())
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").rsplit(".", 1)[-1] in banned
        )
        or (
            isinstance(node, ast.Import)
            and any(alias.name.rsplit(".", 1)[-1] in banned for alias in node.names)
        )
    ]


def test_pipeline_imports_nothing_from_packing():
    # ``orientation`` packs each atom as soon as it is oriented, so
    # ``solve`` has no packing stage of its own to import for.
    found = _imports_from("pipeline.py", {"packing"})
    assert not found, found


def test_checks_import_nothing_of_the_solver():
    # An answer is re-checked from the input alone, by code that did not
    # produce it.
    solver = {"pipeline", "orientation", "packing", "exhaustive", "two_stage"}
    found = _imports_from("checks.py", solver)
    assert not found, found


def test_solve_and_the_cli_build_no_auxiliary_graph():
    # Certificates are lifted by arc id on the input graph, and the exact
    # fallback reads the atom's slice; ``exhaustive`` defines the auxiliary
    # graph, and the package's export table names it, but no module uses it.
    names = {"build_auxiliary", "AuxiliaryGraph"}
    package = Path(arbopack.__file__).parent
    modules = sorted({p.name for p in package.glob("*.py")} - {"exhaustive.py", "__init__.py"})
    assert len(modules) == 11
    for module in modules:
        tree = ast.parse((package / module).read_text())
        found = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] in names)
        ]
        assert not found, (module, found)
