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
    DirectedView,
    Edge,
    MixedGraph,
    Orientation,
    ViewArc,
    apply_orientation,
    arcs_view,
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
from .packing import (
    Arborescence,
    DigraphPacking,
    pack_atom_branchings,
    pack_reachability,
    validate_digraph_packing,
)
from .pipeline import (
    BiSetFamilyCertificate,
    EdgeUse,
    MixedPacking,
    MixedTree,
    certificate_from_subpartition,
    covering_orientation,
    solve,
    validate_mixed_packing,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Arborescence",
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
    "DigraphPacking",
    "DirectedView",
    "Edge",
    "EdgeUse",
    "InvariantError",
    "MixedGraph",
    "MixedPacking",
    "MixedTree",
    "Orientation",
    "ParseError",
    "SubpartitionCertificate",
    "ViewArc",
    "apply_orientation",
    "arcs_view",
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
    "validate_digraph_packing",
    "validate_mixed_packing",
    "verify_certificate",
]
