"""Translate time-domain tracking specifications into frequency-domain bounds.

A specification (overshoot, rise time, settling time, settlement band,
frequency multiplier) generates a family of second-order curves; the
library selects or fits lower/upper bound transfer functions from that
family and verifies them by simulating their step responses back into
time-domain metrics.
"""

__version__ = "0.1.0"

from .envelope import (
    BoundPair,
    envelope_of,
    format_envelope,
    make_grid,
    select_restricted,
)
from .errors import NumericalError
from .family import (
    Spec,
    WdTable,
    build_wd,
    family_response,
    format_wd_table,
    parse_wd_table,
    read_wd_table,
)
from .pipeline import (
    PipelineResult,
    SummaryDoc,
    emit,
    format_summary,
    parse_summary,
    run_pipeline,
    summary_skeleton,
)
from .ratfit import (
    FitProblem,
    FitReport,
    cleanup,
    fit,
    format_fit_report,
    gain_adjust,
    report,
)
from .simulate import (
    FinalTD,
    StepTrace,
    format_trace,
    round_trip,
    settled_step_response,
    step_response,
)
from .sos_core import (
    SecondOrderParams,
    make_tf,
    overshoot,
    scale_omega,
    step_value,
    zeta_min,
)
from .tf_model import (
    FrequencyGrid,
    FrequencyResponse,
    RationalTF,
    dc_gain,
    eval_poly,
    freq_response,
    roots,
)
from .timing import (
    TimeDomainMetrics,
    ToleranceBand,
    extract_metrics,
    newton_inverse_interp,
    omega_n_for,
    unit_rise_time,
    unit_settling_time,
)

__all__ = [
    "__version__",
    "NumericalError",
    "RationalTF", "FrequencyGrid", "FrequencyResponse",
    "eval_poly", "freq_response", "roots", "dc_gain",
    "SecondOrderParams", "zeta_min", "overshoot", "step_value", "make_tf", "scale_omega",
    "ToleranceBand", "TimeDomainMetrics",
    "newton_inverse_interp", "unit_rise_time", "unit_settling_time",
    "omega_n_for", "extract_metrics",
    "Spec", "WdTable", "build_wd", "family_response",
    "format_wd_table", "parse_wd_table", "read_wd_table",
    "BoundPair", "make_grid", "envelope_of", "select_restricted", "format_envelope",
    "FitProblem", "FitReport", "fit", "cleanup", "gain_adjust", "report",
    "format_fit_report",
    "StepTrace", "FinalTD", "step_response", "settled_step_response", "round_trip",
    "format_trace",
    "PipelineResult", "SummaryDoc", "run_pipeline", "emit",
    "format_summary", "parse_summary", "summary_skeleton",
]
