"""End-to-end translation pipeline and its file outputs.

run_pipeline() carries a time-domain specification through the damping
sweep, bound construction (endpoint-restricted members or fitted
envelopes), and the round-trip simulation check. emit() writes the
deterministic text outputs; the summary document round-trips through
parse_summary() so results can be reloaded without pickling.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .envelope import BoundPair, envelope_of, format_envelope, make_grid, select_restricted
from .errors import NumericalError
from .family import Spec, WdTable, build_wd, family_response, format_wd_table
from .ratfit import FitProblem, FitReport, cleanup, fit, format_fit_report, gain_adjust, report
from .simulate import FinalTD, StepTrace, format_trace, round_trip
from .tf_model import FrequencyGrid, dc_gain, freq_response
from .timing import TimeDomainMetrics

__all__ = [
    "MODES",
    "PipelineResult",
    "SummaryDoc",
    "run_pipeline",
    "emit",
    "format_summary",
    "parse_summary",
    "summary_skeleton",
]

MODES = ("low", "high", "envelope")


@dataclass
class PipelineResult:
    """Everything one run produces, plus the paths emit() wrote."""

    spec: Spec
    mode: str
    wd: WdTable
    bounds: BoundPair
    final: FinalTD
    grid: FrequencyGrid
    fit_reports: tuple[FitReport, FitReport] | None = None
    traces: tuple[StepTrace, StepTrace] | None = None
    artifacts: list = field(default_factory=list)


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, NumericalError, OSError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def run_pipeline(spec: Spec, mode: str = "low", zeta_step: float = 0.05,
                 w_min: float = 0.01, w_max: float = 100.0, points: int = 200,
                 zeros: int = 0, poles: int = 2, adjust_gain: bool = False,
                 wd_table: WdTable | None = None) -> PipelineResult:
    """Translate the specification into bound transfer functions.

    mode "low" or "high" picks whole family members by magnitude at the
    corresponding grid endpoint; "envelope" fits rational functions of the
    requested orders to the family envelopes. A pre-computed wd_table
    bypasses the damping sweep.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    with _stage("grid"):
        grid = make_grid(w_min, w_max, points)
    with _stage("wd_table"):
        table = wd_table if wd_table is not None else build_wd(spec, zeta_step)

    fit_reports = None
    if mode in ("low", "high"):
        with _stage("select"):
            bounds = select_restricted(table, spec.wi, grid, mode)
    else:
        with _stage("envelope"):
            responses = family_response(table, spec.wi, grid.omegas)
            lo_data = envelope_of(responses, grid, "lower")
            hi_data = envelope_of(responses, grid, "upper")
        fitted = []
        for side, data in (("lower", lo_data), ("upper", hi_data)):
            with _stage("fit"):
                raw = fit(FitProblem(data, zeros, poles))
            with _stage("cleanup"):
                tf = cleanup(raw, ref_omega=grid.omegas[0])
                # the round trip needs a positive final value; gain_adjust
                # below rescales any non-zero DC gain to 1
                if not adjust_gain:
                    gain = dc_gain(tf)
                    if not gain > 0:
                        raise NumericalError(f"{side} bound has non-positive DC gain {gain!r}")
            if adjust_gain:
                with _stage("gain_adjust"):
                    tf = gain_adjust(tf, 1.0)
            fitted.append(tf)
        with _stage("fit"):
            bounds = BoundPair(fitted[0], fitted[1])
            fit_reports = (report(fitted[0], lo_data), report(fitted[1], hi_data))

    with _stage("round_trip"):
        final, traces = round_trip(bounds, spec)

    return PipelineResult(
        spec=spec, mode=mode, wd=table, bounds=bounds, final=final, grid=grid,
        fit_reports=fit_reports, traces=traces,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_coeffs(coeffs) -> str:
    return ",".join(_fmt(c) for c in coeffs)


def format_summary(result: PipelineResult) -> str:
    """Deterministic text summary; identical runs yield identical bytes."""
    spec = result.spec
    lines = [
        f"# trackbounds {__version__} summary",
        "format = 1",
        f"mode = {result.mode}",
        "",
        "[spec]",
        f"mp = {_fmt(spec.mp)}",
        f"tr = {_fmt(spec.tr)}",
        f"ts = {_fmt(spec.ts)}",
        f"dev = {_fmt(spec.dev)}",
        f"wi = {spec.wi}",
        "",
        "[wd_table]",
    ]
    lines += format_wd_table(result.wd).rstrip("\n").split("\n")
    lines += [
        "",
        "[bounds]",
        f"lower_num = {_fmt_coeffs(result.bounds.lower.num)}",
        f"lower_den = {_fmt_coeffs(result.bounds.lower.den)}",
        f"upper_num = {_fmt_coeffs(result.bounds.upper.num)}",
        f"upper_den = {_fmt_coeffs(result.bounds.upper.den)}",
    ]
    if result.fit_reports is not None:
        for name, rep in zip(("fit_lower", "fit_upper"), result.fit_reports):
            lines += [
                "",
                f"[{name}]",
                f"max_mag_error = {_fmt(rep.max_mag_error)}",
                f"max_phase_error_deg = {_fmt(rep.max_phase_error_deg)}",
            ]
    lines += ["", "[final_td]"]
    for name, m in (("lower", result.final.lower), ("upper", result.final.upper)):
        lines += [
            f"{name}_mp = {_fmt(m.mp)}",
            f"{name}_tr = {_fmt(m.tr)}",
            f"{name}_ts = {_fmt(m.ts)}",
            f"{name}_final = {_fmt(m.final_value)}",
        ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SummaryDoc:
    """Parsed skeleton of a summary document."""

    mode: str
    spec: Spec
    wd: tuple
    lower_num: tuple
    lower_den: tuple
    upper_num: tuple
    upper_den: tuple
    fit_lower: tuple | None
    fit_upper: tuple | None
    final: FinalTD


def summary_skeleton(result: PipelineResult) -> SummaryDoc:
    """The part of a result the summary document carries."""
    reports = result.fit_reports
    return SummaryDoc(
        mode=result.mode,
        spec=result.spec,
        wd=tuple((p.zeta, p.omega_n) for p in result.wd.pairs),
        lower_num=tuple(result.bounds.lower.num),
        lower_den=tuple(result.bounds.lower.den),
        upper_num=tuple(result.bounds.upper.num),
        upper_den=tuple(result.bounds.upper.den),
        fit_lower=None if reports is None else
        (reports[0].max_mag_error, reports[0].max_phase_error_deg),
        fit_upper=None if reports is None else
        (reports[1].max_mag_error, reports[1].max_phase_error_deg),
        final=result.final,
    )


def parse_summary(text: str) -> SummaryDoc:
    """Parse a summary document back into its skeleton."""
    sections: dict[str, list[str]] = {"": []}
    current = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        else:
            sections[current].append(line)

    def kv(section: str) -> dict[str, str]:
        out = {}
        for line in sections.get(section, []):
            if "=" not in line:
                raise ValueError(f"malformed summary line in [{section}]: {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
        return out

    head = kv("")
    if head.get("format") != "1":
        raise ValueError("unsupported summary format")
    spec_kv = kv("spec")
    spec = Spec(
        mp=float(spec_kv["mp"]), tr=float(spec_kv["tr"]), ts=float(spec_kv["ts"]),
        dev=float(spec_kv["dev"]), wi=int(spec_kv["wi"]),
    )
    wd_lines = sections.get("wd_table", [])
    if not wd_lines or wd_lines[0] != "zeta,omega_n":
        raise ValueError("summary wd_table section is malformed")
    wd = tuple(tuple(float(f) for f in line.split(",")) for line in wd_lines[1:])

    bounds_kv = kv("bounds")

    def coeffs(key: str) -> tuple:
        return tuple(float(f) for f in bounds_kv[key].split(","))

    def fit_pair(section: str) -> tuple | None:
        if section not in sections:
            return None
        d = kv(section)
        return (float(d["max_mag_error"]), float(d["max_phase_error_deg"]))

    final_kv = kv("final_td")

    def metrics(prefix: str) -> TimeDomainMetrics:
        return TimeDomainMetrics(
            mp=float(final_kv[f"{prefix}_mp"]), tr=float(final_kv[f"{prefix}_tr"]),
            ts=float(final_kv[f"{prefix}_ts"]), final_value=float(final_kv[f"{prefix}_final"]),
        )

    return SummaryDoc(
        mode=head["mode"], spec=spec, wd=wd,
        lower_num=coeffs("lower_num"), lower_den=coeffs("lower_den"),
        upper_num=coeffs("upper_num"), upper_den=coeffs("upper_den"),
        fit_lower=fit_pair("fit_lower"), fit_upper=fit_pair("fit_upper"),
        final=FinalTD(lower=metrics("lower"), upper=metrics("upper")),
    )


def _format_family_bode(result: PipelineResult):
    """bode_family.csv as text chunks: the header, then one per member."""
    responses = family_response(result.wd, result.spec.wi, result.grid.omegas)
    omegas = [repr(w) for w in result.grid.omegas.tolist()]
    yield "zeta,i,omega,mag,phase_deg\n"
    for i, rows in enumerate(responses, start=1):
        mags = np.abs(rows).tolist()
        phases = np.degrees(np.unwrap(np.angle(rows))).tolist()
        for params, mag, phase in zip(result.wd.pairs, mags, phases):
            head = f"{float(params.zeta)!r},{i},"
            yield "".join([f"{head}{w},{m!r},{p!r}\n" for w, m, p in zip(omegas, mag, phase)])


def emit(result: PipelineResult, out_dir) -> list:
    """Write the run's text outputs into out_dir; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, content):
        path = os.path.join(out_dir, name)
        with _stage("emit"), open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines([content] if isinstance(content, str) else content)
        written.append(path)

    write("summary.txt", format_summary(result))
    write("wd_table.csv", format_wd_table(result.wd))
    if result.fit_reports is not None:
        bode = [rep.response for rep in result.fit_reports]
    else:
        bode = [freq_response(tf, result.grid) for tf in (result.bounds.lower, result.bounds.upper)]
    for side, resp in zip(("lower", "upper"), bode):
        write(f"bode_{side}.csv", format_envelope(resp))
    write("bode_family.csv", _format_family_bode(result))
    if result.traces is not None:
        write("trace_lower.csv", format_trace(result.traces[0]))
        write("trace_upper.csv", format_trace(result.traces[1]))
    if result.fit_reports is not None:
        for side, rep in zip(("lower", "upper"), result.fit_reports):
            write(f"envelope_{side}.csv", format_envelope(rep.data))
        for side, rep in zip(("lower", "upper"), result.fit_reports):
            write(f"fit_report_{side}.csv", format_fit_report(rep))
    result.artifacts = list(written)
    return list(written)
