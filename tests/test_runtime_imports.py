"""The package loads nothing outside the standard library and itself, and no stage creeps back."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import arbopack

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import arbopack, arbopack.cli
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by_import() -> list[str]:
    # -S skips site-packages and their start-up hooks, so every module
    # loaded is one the interpreter or the package asked for.
    src = str(Path(arbopack.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, src], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


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


def test_pipeline_imports_nothing_from_packing():
    # ``orientation`` packs each atom as soon as it is oriented, so
    # ``solve`` has no packing stage of its own to import for.
    tree = ast.parse(Path(arbopack.__file__).with_name("pipeline.py").read_text())
    found = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").rsplit(".", 1)[-1] == "packing"
        )
        or (
            isinstance(node, ast.Import)
            and any(alias.name.rsplit(".", 1)[-1] == "packing" for alias in node.names)
        )
    ]
    assert not found, found
