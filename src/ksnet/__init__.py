"""Exact two-hidden-layer superposition networks on the unit cube.

A network here is a sum of 2d+1 branch terms: each branch hashes a point
through a fixed rational inner map and feeds the result to a shared
piecewise-linear outer function.  Every coefficient is a rational number,
so fitted models reproduce their samples exactly and every floating-point
answer ships with a proven error bound.
"""

from .errors import (
    AssemblyError,
    DomainError,
    InputError,
    InternalInvariantError,
    IterationDiverged,
    KsnetError,
    ModelFormatError,
    ParameterError,
    SeparationFailure,
)
from .hashmaps import (
    DEFAULT_SERIES_TOLERANCE,
    HashParams,
    IncidenceSystem,
    SeparationVerdict,
    build_incidence,
    certify_separation,
    check_ranges,
    make_params,
    psi_eval,
    separation_check,
)
from .inner import (
    InnerSpec,
    default_inner_spec,
    phi_eval,
    verify_inner,
)
from .network import (
    FORMAT_VERSION,
    FastEvaluator,
    KNetModel,
    assemble,
    describe,
    dot,
    evaluate,
    evaluate_batch,
    load,
    save,
)
from .outer import (
    FitReport,
    OuterFunction,
    SampleSet,
    fit_exact,
    fit_iterative,
    grid_samples,
    merge_report,
)
from .rationals import (
    grid_points,
    parse_rational,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "DEFAULT_SERIES_TOLERANCE",
    "DomainError",
    "FORMAT_VERSION",
    "FastEvaluator",
    "FitReport",
    "HashParams",
    "IncidenceSystem",
    "InnerSpec",
    "InputError",
    "InternalInvariantError",
    "IterationDiverged",
    "KNetModel",
    "KsnetError",
    "ModelFormatError",
    "OuterFunction",
    "ParameterError",
    "SampleSet",
    "SeparationFailure",
    "SeparationVerdict",
    "assemble",
    "build_incidence",
    "certify_separation",
    "check_ranges",
    "default_inner_spec",
    "describe",
    "dot",
    "evaluate",
    "evaluate_batch",
    "fit_exact",
    "fit_iterative",
    "grid_points",
    "grid_samples",
    "load",
    "make_params",
    "merge_report",
    "parse_rational",
    "phi_eval",
    "psi_eval",
    "save",
    "separation_check",
    "verify_inner",
]
