"""Exact computation of equivariant Serre polynomials of moduli spaces of
stable curves from those of the open strata, via a gluing pipeline on
truncated symmetric-function series."""

from .errors import (
    ExprParseError,
    OffDiagonalError,
    PreconditionError,
    TableFormatError,
)
from .hodge import HodgePoly
from .partitions import (
    Partition,
    check_partition,
    format_partition,
    mobius,
    partitions_of,
    weight,
    z_factor,
)
from .characters import character
from .series import (
    SymSeries,
    Truncation,
    complete_homogeneous,
    exp_series,
    log_series,
    power_sum,
    schur,
)
from .plethysm import (
    GluingMode,
    exp_gluing,
    gluing_operator,
    plethystic_exp,
    plethystic_log,
)
from .pipeline import (
    ModuliTable,
    SlotReport,
    build_slot_report,
    closed_moduli_series,
    is_stable,
    lambda_exponent,
    moduli_dim,
    open_moduli_series,
    required_inputs,
    satisfies_duality,
    slot_schur,
    stable_slots,
)
from .exprlang import (
    eval_expression,
    evaluate,
    parse_expression,
    parse_table,
    render_table,
)
from .dataset import dataset_text, embedded_dataset

__version__ = "1.0.0"

__all__ = [
    "ExprParseError",
    "GluingMode",
    "HodgePoly",
    "ModuliTable",
    "OffDiagonalError",
    "Partition",
    "PreconditionError",
    "SlotReport",
    "SymSeries",
    "TableFormatError",
    "Truncation",
    "build_slot_report",
    "character",
    "check_partition",
    "closed_moduli_series",
    "complete_homogeneous",
    "dataset_text",
    "embedded_dataset",
    "eval_expression",
    "evaluate",
    "exp_gluing",
    "exp_series",
    "format_partition",
    "gluing_operator",
    "is_stable",
    "lambda_exponent",
    "log_series",
    "mobius",
    "moduli_dim",
    "open_moduli_series",
    "parse_expression",
    "parse_table",
    "partitions_of",
    "plethystic_exp",
    "plethystic_log",
    "power_sum",
    "render_table",
    "required_inputs",
    "satisfies_duality",
    "schur",
    "slot_schur",
    "stable_slots",
    "weight",
    "z_factor",
]
