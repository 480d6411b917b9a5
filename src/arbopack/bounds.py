"""Configurable limits for the exhaustive (oracle-grade) code paths.

Every enumeration in this package is gated by one of these bounds and
raises :class:`~arbopack.errors.CapacityError` naming the bound instead of
silently attempting an infeasible amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bounds:
    #: largest vertex count a 2^n subset sweep will accept
    max_enum_vertices: int = 20
    #: hard step limit for the branching-packing backtracking search
    max_pack_steps: int = 2_000_000

    def __post_init__(self):
        for name in ("max_enum_vertices", "max_pack_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_BOUNDS = Bounds()
