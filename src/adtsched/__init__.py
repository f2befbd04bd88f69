"""Attack-defence tree parsing, preprocessing and minimal-agent scheduling."""

from .model import (
    Adt,
    AdtNode,
    NodeKind,
    Role,
    ValidationError,
    validate_adt,
)
from .parser import ParseError, export_dot, parse_adt, serialize_adt
from .preprocess import (
    AllZeroDurations,
    Case,
    Dag,
    DagKind,
    DagNode,
    DefenceConfig,
    FAILED,
    NameCollision,
    OPERATING,
    Variant,
    apply_defence_config,
    compute_time_unit,
    enumerate_defence_variants,
    enumerate_or_variants,
    expand_sand,
    normalize_time,
    preprocess_cases,
    unit_dag,
)
from .scheduler import (
    Bounds,
    InternalError,
    ScheduleResult,
    TooLarge,
    Violation,
    ZeroSlots,
    analyse,
    brute_force_min_agents,
    compute_bounds,
    min_schedule,
    schedule_candidate,
    verify_schedule,
)
from .report import render_table, to_csv, to_json
from .generator import InvalidParams

__version__ = "0.1.0"

__all__ = [
    "Adt", "AdtNode", "NodeKind", "Role", "ValidationError", "validate_adt",
    "ParseError", "parse_adt", "serialize_adt", "export_dot",
    "Dag", "DagNode", "DagKind", "DefenceConfig", "Variant", "Case",
    "OPERATING", "FAILED",
    "AllZeroDurations", "NameCollision",
    "compute_time_unit", "normalize_time", "expand_sand",
    "enumerate_defence_variants", "apply_defence_config",
    "enumerate_or_variants", "preprocess_cases", "unit_dag",
    "Bounds", "ScheduleResult", "Violation",
    "ZeroSlots", "TooLarge", "InternalError",
    "compute_bounds", "schedule_candidate", "min_schedule", "analyse",
    "verify_schedule", "brute_force_min_agents",
    "render_table", "to_json", "to_csv",
    "InvalidParams",
    "__version__",
]
