"""The package loads nothing outside the standard library and itself."""

from __future__ import annotations

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


def test_zero_runtime_dependencies():
    # -S skips site-packages and their start-up hooks, so every module
    # loaded is one the interpreter or the package asked for.  A test
    # helper such as ``naive`` is outside both, and is caught too.
    src = str(Path(arbopack.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, src], capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "arbopack.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name != "__main__"
        and name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "arbopack"
    ]
    assert not foreign, foreign
