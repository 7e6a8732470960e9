"""Multiperiod precast-beam production planning with integrated bar cutting."""

from .bound import BoundBreakdown, candidate_ratios, lower_bound
from .evaluation import (
    Chromosome,
    InfeasibilityReport,
    Schedule,
    classify_infeasibility,
    decode_schedule,
    exhaustive_optimum,
)
from .ga import GaParams, GaResult, Population, run
from .harness import TrialDesign, TrialResult, lbd, run_trials, snr
from .ilp import Assignment, IlpModel, build_model, check_assignment, emit_lp
from .instance import (
    BeamType,
    Instance,
    generate_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .patterns import (
    CuttingPattern,
    OverlappingPattern,
    PackingPattern,
    PatternSet,
    contains,
    enumerate_packing_patterns,
    generate_patterns,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BeamType",
    "BoundBreakdown",
    "Chromosome",
    "CuttingPattern",
    "GaParams",
    "GaResult",
    "IlpModel",
    "InfeasibilityReport",
    "Instance",
    "OverlappingPattern",
    "PackingPattern",
    "PatternSet",
    "Population",
    "Schedule",
    "TrialDesign",
    "TrialResult",
    "build_model",
    "candidate_ratios",
    "check_assignment",
    "classify_infeasibility",
    "contains",
    "decode_schedule",
    "emit_lp",
    "enumerate_packing_patterns",
    "exhaustive_optimum",
    "generate_instance",
    "generate_patterns",
    "lbd",
    "lower_bound",
    "parse_instance",
    "run",
    "run_trials",
    "serialize_instance",
    "snr",
    "validate_instance",
]
