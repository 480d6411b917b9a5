"""Packing of reachability arborescences in mixed graphs.

Given a mixed graph (undirected edges plus directed arcs) and roots
r_1..r_k, decide whether there are k edge/arc-disjoint mixed
arborescences where tree i spans exactly the vertices reachable from
r_i, and construct either the packing or a bi-set family certificate
proving that none exists.
"""

from .bounds import Bounds, DEFAULT_BOUNDS
from .errors import ArbopackError, CapacityError, InvariantError, ParseError
from .graph_core import (
    Arc,
    CheckResult,
    Edge,
    EdgeUse,
    MixedGraph,
    MixedPacking,
    MixedTree,
    Orientation,
    mixed_reachable_set,
    parse_mixed_graph,
)
from .decomposition import AtomDecomposition, BiSet, compute_atoms
from .orientation import SubpartitionCertificate
from .pipeline import BiSetFamilyCertificate, certificate_from_subpartition, solve

__version__ = "0.1.0"

# The names ``solve`` never reaches are bound on first use (PEP 562), so
# their modules are not compiled at import: the exact orientation
# fallback, which only an atom the fast path stalls on loads; the
# validators; and the two-stage route.
_LAZY = {
    "AuxiliaryGraph": "exhaustive",
    "CoverRequirement": "exhaustive",
    "build_auxiliary": "exhaustive",
    "orient_covering": "exhaustive",
    "validate_mixed_packing": "checks",
    "verify_certificate": "checks",
    "apply_orientation": "two_stage",
    "covering_orientation": "two_stage",
    "pack_atom_branchings": "two_stage",
    "pack_reachability": "two_stage",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


__all__ = [
    "Arc",
    "ArbopackError",
    "AtomDecomposition",
    "AuxiliaryGraph",
    "BiSet",
    "BiSetFamilyCertificate",
    "Bounds",
    "CapacityError",
    "CheckResult",
    "CoverRequirement",
    "DEFAULT_BOUNDS",
    "Edge",
    "EdgeUse",
    "InvariantError",
    "MixedGraph",
    "MixedPacking",
    "MixedTree",
    "Orientation",
    "ParseError",
    "SubpartitionCertificate",
    "apply_orientation",
    "build_auxiliary",
    "certificate_from_subpartition",
    "covering_orientation",
    "compute_atoms",
    "mixed_reachable_set",
    "orient_covering",
    "pack_atom_branchings",
    "pack_reachability",
    "parse_mixed_graph",
    "solve",
    "validate_mixed_packing",
    "verify_certificate",
]
