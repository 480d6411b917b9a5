"""The configurable limit for orientation's exhaustive requirement sweep.

Only the exact orientation fallback (``arbopack.exhaustive``)
enumerates: it sweeps every subset of the atom and, per subset, every
submask of the trees its terminals can give a foothold.  The sweep
raises :class:`~arbopack.errors.CapacityError` naming the bound instead
of attempting an infeasible amount of work.  The fallback runs only on
the atoms the fast orientation path stalls on.  The fast path, the
certificate of an atom it refutes, and packing are not bounded.
"""

from __future__ import annotations

from .graph_core import _Value


class Bounds(_Value):
    _fields = ("max_enum_vertices",)
    #: largest atom vertex count plus hit-tree count the sweep will accept
    max_enum_vertices: int

    def __init__(self, max_enum_vertices: int = 20):
        if max_enum_vertices <= 0:
            raise ValueError("max_enum_vertices must be positive")
        object.__setattr__(self, "max_enum_vertices", max_enum_vertices)


DEFAULT_BOUNDS = Bounds()


def _bounds_from(max_enum_vertices: int | None) -> Bounds:
    """The bounds a command line asks for: the defaults when it gives no limit."""
    if max_enum_vertices is None:
        return DEFAULT_BOUNDS
    return Bounds(max_enum_vertices=max_enum_vertices)
