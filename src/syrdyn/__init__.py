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

The core (errors, numeric, maps, trajectory, partition) is imported with
the package; every range subcommand and find_cycles needs it.  partition
must stay eager: the package binds the function `partition` under the
submodule's own name, and an import of the submodule that ran later would
set the package attribute to the module instead.  measure and chains load
on first access (PEP 562): reading `syrdyn.measure`, `syrdyn.chains` or any
of their names in `__all__` imports the submodule once and caches the name
here, so `import syrdyn` costs neither.
"""

import importlib

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

__version__ = "0.1.0"

# the public names of the engines that load on first use
_LAZY_NAMES = {
    "measure": (
        "MeasureValue", "PreimageForest", "MeasureAssignment", "PowerBoundReport",
        "build_forest", "assign_measure", "measure_of", "check_power_bound",
        "power_bound_certificate",
    ),
    "chains": (
        "NodeClass", "ChainHeadForm", "Family", "Chain", "PreimageTree",
        "classify", "decompose", "family_of", "chain_of",
        "build_preimage_tree", "chain_criterion", "two_preimage_class",
        "search_family_witness", "verify_family_identity", "family_tails",
        "verify_family_connection",
    ),
}

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
    # measure, chains: loaded on first access
    *_LAZY_NAMES["measure"],
    *_LAZY_NAMES["chains"],
]

# name -> the submodule that defines it; the submodules themselves are served too
_LAZY = {name: module for module, names in _LAZY_NAMES.items() for name in (module, *names)}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    engine = importlib.import_module(f"{__name__}.{module}")
    value = engine if name == module else getattr(engine, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
