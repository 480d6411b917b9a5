"""The configurable limit for the exhaustive (oracle-grade) code paths.

The per-atom requirement sweep enumerates every subset of the atom and,
per subset, every submask of the trees that the atom's terminals can
give a foothold.  It raises :class:`~arbopack.errors.CapacityError`
naming the bound instead of silently attempting an infeasible amount of
work.
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
