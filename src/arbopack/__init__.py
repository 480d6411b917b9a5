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
    apply_orientation,
    mixed_reachable_set,
    parse_mixed_graph,
)
from .decomposition import (
    AtomDecomposition,
    AuxiliaryGraph,
    BiSet,
    build_auxiliary,
    compute_atoms,
)
from .orientation import (
    CoverRequirement,
    SubpartitionCertificate,
    orient_covering,
)
from .packing import pack_atom_branchings, pack_reachability
from .pipeline import (
    BiSetFamilyCertificate,
    certificate_from_subpartition,
    covering_orientation,
    solve,
    validate_mixed_packing,
    verify_certificate,
)

__version__ = "0.1.0"

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
