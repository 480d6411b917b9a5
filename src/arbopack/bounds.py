"""The configurable limit for orientation's exhaustive requirement sweep.

Only the exact orientation fallback enumerates: it sweeps every subset
of the atom and, per subset, every submask of the trees its terminals
can give a foothold.  The sweep raises
:class:`~arbopack.errors.CapacityError` naming the bound instead of
attempting an infeasible amount of work.  The fallback runs only on the
atoms the fast orientation path stalls on.  The fast path, the
certificate of an atom it refutes, and packing are not bounded.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bounds:
    #: largest atom vertex count plus hit-tree count the sweep will accept
    max_enum_vertices: int = 20

    def __post_init__(self):
        if self.max_enum_vertices <= 0:
            raise ValueError("max_enum_vertices must be positive")


DEFAULT_BOUNDS = Bounds()
