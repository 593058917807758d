"""Exact integer dynamics of Collatz and Syracuse-type maps.

Everything here works in arbitrary-precision integers and exact dyadic
arithmetic; no floats enter any result that a theorem-style check depends
on.  See the module docstrings for the individual engines:

- maps: descriptors, forward application, exact preimages
- trajectory: orbits, cycle detection, limit handling
- partition: convergent / divergent-to-cycle / undecided classification
- measure: preimage-forest measure with the power bound constant 2
- chains: mod-3 structure, families, chains, px+r criterion
- cli: `python -m syrdyn` front end for all of the above
"""

from .errors import (
    BoundViolation,
    ConnectionFailure,
    DescriptorParseError,
    DomainError,
    GcdViolation,
    InternalCheckError,
    InvalidDescriptor,
    InvalidParameters,
    NonIntegerBranch,
    NonPositiveImage,
    NotApplicable,
    NotInN2,
    OverlappingCycles,
    SyrdynError,
    ValidationError,
    VerificationFailure,
)
from .numeric import DyadicRational
from .maps import MapDescriptor, collatz, parse_descriptor, pxr, validate
from .trajectory import (
    CycleInfo,
    Limits,
    TrajectoryReport,
    TrajectoryStatus,
    check_power_cycle,
    find_cycles,
    iterate,
)
from .partition import PartitionResult, export_csv, partition, summary_dict
from .measure import (
    MeasureAssignment,
    MeasureValue,
    PowerBoundReport,
    PreimageForest,
    assign_measure,
    build_forest,
    check_power_bound,
    measure_of,
    power_bound_certificate,
)
from .chains import (
    Chain,
    ChainHeadForm,
    Family,
    NodeClass,
    PreimageTree,
    build_preimage_tree,
    chain_criterion,
    chain_of,
    classify,
    decompose,
    family_of,
    family_tails,
    search_family_witness,
    two_preimage_class,
    two_preimage_floor,
    verify_family_connection,
    verify_family_identity,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SyrdynError", "ValidationError", "InternalCheckError",
    "InvalidDescriptor", "GcdViolation", "NonIntegerBranch", "NonPositiveImage",
    "DescriptorParseError", "DomainError", "InvalidParameters", "NotInN2",
    "NotApplicable", "OverlappingCycles", "VerificationFailure",
    "BoundViolation", "ConnectionFailure",
    # numeric
    "DyadicRational",
    # maps
    "MapDescriptor", "collatz", "pxr", "parse_descriptor", "validate",
    # trajectory
    "Limits", "TrajectoryStatus", "TrajectoryReport", "CycleInfo",
    "iterate", "find_cycles", "check_power_cycle",
    # partition
    "PartitionResult", "partition", "export_csv", "summary_dict",
    # measure
    "MeasureValue", "PreimageForest", "MeasureAssignment", "PowerBoundReport",
    "build_forest", "assign_measure", "measure_of", "check_power_bound",
    "power_bound_certificate",
    # chains
    "NodeClass", "ChainHeadForm", "Family", "Chain", "PreimageTree",
    "classify", "decompose", "family_of", "chain_of",
    "build_preimage_tree", "chain_criterion", "two_preimage_class",
    "two_preimage_floor", "search_family_witness", "verify_family_identity",
    "family_tails", "verify_family_connection",
]
