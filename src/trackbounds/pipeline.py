"""End-to-end translation pipeline and its file outputs.

run_pipeline() carries a time-domain specification through the damping
sweep, bound construction (endpoint-restricted members or fitted
envelopes), and the round trip. emit() simulates both bounds and writes the
text outputs. This module owns every artifact format but the wd table's (see
family): every float is written with repr, so the CSV files and the
summary, laid out by one list of keys, parse back without loss. The CSV
tables are formatted in chunks of rows, and bode_family.csv one member
block at a time, which emit writes as they come. For a large family, emit
forks a child that formats bode_family.csv's last multipliers while the
parent formats everything else, so two processes share the repr work.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .envelope import BoundPair, envelope_of, make_grid, select_restricted
from .errors import NumericalError
from .family import (Spec, WdTable, build_wd, check_omega_ns, format_wd_table, member_blocks,
                     member_terms, parse_wd_table)
from .ratfit import FitProblem, FitReport, check_orders, cleanup, fit, report
from .simulate import FinalTD, StepTrace, TimeDomainMetrics, round_trip, settled_trace
from .tf_model import FrequencyGrid, FrequencyResponse, dc_gain, freq_response

__all__ = [
    "MODES",
    "PipelineResult",
    "SummaryDoc",
    "run_pipeline",
    "emit",
    "format_envelope",
    "format_fit_report",
    "format_trace",
    "format_summary",
    "parse_summary",
    "summary_skeleton",
]

MODES = ("low", "high", "envelope")
# rows of a CSV table formatted at a time
_CSV_CHUNK_ROWS = 2**10
# fewest bode_family.csv rows a forked child formats: on a 2-vCPU VM a
# child's 10,000 rows cost emit 8% when the other vCPU is busy, while
# 15,000 save 15% then and 36% when it is idle
_MIN_CHILD_ROWS = 2**14
# bytes of the child's part of bode_family.csv copied at a time
_COPY_BYTES = 2**18
# emit's CPU cost, ns, of a bode_family.csv row, of a trace sample and of a
# grid point of the other tables (26 floats in envelope mode): the median
# over wide envelope families of the least of repeated timings, 2-vCPU VM
_ROW_NS, _SAMPLE_NS, _POINT_NS = 1290, 1130, 16300


@dataclass
class PipelineResult:
    """Everything one run produces."""

    spec: Spec
    mode: str
    wd: WdTable
    bounds: BoundPair
    final: FinalTD
    grid: FrequencyGrid
    fit_reports: tuple[FitReport, FitReport] | None = None


@contextmanager
def _stage(name: str):
    try:
        yield
    except (ValueError, NumericalError, OSError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def run_pipeline(spec: Spec, mode: str = "low", zeta_step: float = 0.05,
                 points: int = 200, zeros: int = 0, poles: int = 2,
                 wd_table: WdTable | None = None) -> PipelineResult:
    """Translate the specification into bound transfer functions.

    A pre-computed wd_table bypasses the damping sweep. The grid spans the
    table's family: points log-spaced from 0.1 * min omega_n to 10 * wi *
    max omega_n. mode "low" or "high" picks whole family members by
    magnitude at the corresponding grid endpoint; "envelope" fits rational
    functions of the requested orders to the family envelopes.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    with _stage("wd_table"):
        table = wd_table if wd_table is not None else build_wd(spec, zeta_step)
        check_omega_ns(table.omega_ns(), spec.wi)
    with _stage("grid"):
        omega_ns = table.omega_ns()
        grid = make_grid(0.1 * omega_ns.min(), 10 * spec.wi * omega_ns.max(), points)
    # checked in every mode, though only envelope mode fits
    with _stage("fit"):
        check_orders(zeros, poles)

    fit_reports = None
    if mode in ("low", "high"):
        with _stage("select"):
            bounds = select_restricted(table, spec.wi, grid, mode)
    else:
        with _stage("envelope"):
            envelopes = envelope_of(table, spec.wi, grid)
        fitted = []
        for side, data in zip(("lower", "upper"), envelopes):
            with _stage("fit"):
                raw = fit(FitProblem(data, zeros, poles))
            with _stage("cleanup"):
                tf = cleanup(raw, ref_omega=grid.omegas[0])
                gain = dc_gain(tf)
                if not gain > 0:
                    raise NumericalError(f"{side} bound has non-positive DC gain {gain!r}")
            fitted.append(tf)
        with _stage("fit"):
            bounds = BoundPair(fitted[0], fitted[1])
            fit_reports = tuple(map(report, fitted, envelopes))

    with _stage("round_trip"):
        final = round_trip(bounds, spec)

    return PipelineResult(spec=spec, mode=mode, wd=table, bounds=bounds, final=final, grid=grid,
                          fit_reports=fit_reports)


# the summary's keys in document order, for format_summary and parse_summary;
# each names a field of Spec, SummaryDoc, FitReport or, after the side's
# prefix, TimeDomainMetrics
_SPEC_KEYS = (("mp", float), ("tr", float), ("ts", float), ("dev", float), ("wi", int))
_BOUND_KEYS = ("lower_num", "lower_den", "upper_num", "upper_den")
_FIT_KEYS = ("max_mag_error", "max_phase_error_deg")
_FINAL_KEYS = (("mp", "mp"), ("tr", "tr"), ("ts", "ts"), ("final", "final_value"))
_SIDES = ("lower", "upper")


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
    fits = [None if rep is None else tuple(getattr(rep, key) for key in _FIT_KEYS)
            for rep in result.fit_reports or (None, None)]
    return SummaryDoc(
        mode=result.mode,
        spec=result.spec,
        wd=tuple((p.zeta, p.omega_n) for p in result.wd.pairs),
        lower_num=tuple(result.bounds.lower.num.tolist()),
        lower_den=tuple(result.bounds.lower.den.tolist()),
        upper_num=tuple(result.bounds.upper.num.tolist()),
        upper_den=tuple(result.bounds.upper.den.tolist()),
        fit_lower=fits[0],
        fit_upper=fits[1],
        final=result.final,
    )


def format_summary(result: PipelineResult) -> str:
    """Deterministic text summary; identical runs yield identical bytes."""
    doc = summary_skeleton(result)
    lines = [f"# trackbounds {__version__} summary", "format = 1", f"mode = {doc.mode}",
             "", "[spec]"]
    lines += [f"{key} = {kind(getattr(doc.spec, key))!r}" for key, kind in _SPEC_KEYS]
    lines += ["", "[wd_table]", format_wd_table(result.wd).rstrip("\n"), "", "[bounds]"]
    lines += [f"{key} = {','.join(map(repr, getattr(doc, key)))}" for key in _BOUND_KEYS]
    for side in _SIDES:
        fit_errors = getattr(doc, f"fit_{side}")
        if fit_errors is not None:
            lines += ["", f"[fit_{side}]"]
            lines += [f"{key} = {float(v)!r}" for key, v in zip(_FIT_KEYS, fit_errors)]
    lines += ["", "[final_td]"]
    for side in _SIDES:
        metrics = getattr(doc.final, side)
        lines += [f"{side}_{key} = {float(getattr(metrics, field))!r}"
                  for key, field in _FINAL_KEYS]
    return "\n".join(lines) + "\n"


def parse_summary(text: str) -> SummaryDoc:
    """Parse a summary document back into its skeleton.

    A missing section, or a key missing or unreadable, raises ValueError
    naming both.
    """
    fields: dict[str, dict[str, str]] = {"": {}}
    wd_lines = []
    current = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            fields[current] = {}
        elif current == "wd_table":
            wd_lines.append(line)
        else:
            key, eq, raw_value = line.partition("=")
            if not eq:
                raise ValueError(f"malformed summary line in [{current}]: {line!r}")
            fields[current][key.strip()] = raw_value.strip()

    def value(section: str, key: str, kind=float):
        try:
            return kind(fields[section][key])
        except (KeyError, ValueError):
            raise ValueError(f"summary [{section}] has no valid {key!r}") from None

    if fields[""].get("format") != "1":
        raise ValueError("unsupported summary format")
    try:
        table = parse_wd_table("\n".join(wd_lines))
    except ValueError as exc:
        raise ValueError(f"summary [wd_table]: {exc}") from None
    fits = [tuple(value(f"fit_{side}", key) for key in _FIT_KEYS)
            if f"fit_{side}" in fields else None for side in _SIDES]

    def metrics(side: str) -> TimeDomainMetrics:
        return TimeDomainMetrics(**{field: value("final_td", f"{side}_{key}")
                                    for key, field in _FINAL_KEYS})

    return SummaryDoc(
        mode=value("", "mode", str),
        spec=Spec(**{key: value("spec", key, kind) for key, kind in _SPEC_KEYS}),
        wd=tuple((p.zeta, p.omega_n) for p in table.pairs),
        **{key: value("bounds", key, lambda v: tuple(map(float, v.split(","))))
           for key in _BOUND_KEYS},
        fit_lower=fits[0],
        fit_upper=fits[1],
        final=FinalTD(metrics("lower"), metrics("upper")),
    )


def _csv(header: str, *columns):
    """CSV text in chunks: the header, then _CSV_CHUNK_ROWS rows at a time,
    row k of the columns as repr'd floats."""
    yield header + "\n"
    row = ",".join(["%r"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        rows = np.column_stack([c[start:start + _CSV_CHUNK_ROWS] for c in columns])
        yield (row * len(rows)) % tuple(rows.ravel().tolist())


def _envelope_csv(resp: FrequencyResponse):
    return _csv("omega,mag,phase_deg", resp.grid.omegas, resp.magnitude(), np.degrees(resp.phase()))


def _fit_report_csv(rep: FitReport):
    return _csv("omega,mag_data,mag_fit,mag_err,phase_data_deg,phase_fit_deg,phase_err_deg",
                rep.data.grid.omegas, rep.data.magnitude(), rep.response.magnitude(),
                rep.mag_error, np.degrees(rep.data.phase()), np.degrees(rep.response.phase()),
                rep.phase_error_deg)


def _trace_csv(trace: StepTrace):
    return _csv("t,y", trace.times, trace.values)


def format_envelope(resp: FrequencyResponse) -> str:
    """CSV rendering with columns omega, mag, phase_deg."""
    return "".join(_envelope_csv(resp))


def format_fit_report(rep: FitReport) -> str:
    """CSV rendering: data, fit, and error columns per frequency."""
    return "".join(_fit_report_csv(rep))


def format_trace(trace: StepTrace) -> str:
    """CSV rendering with columns t, y."""
    return "".join(_trace_csv(trace))


def _member_rows(table: WdTable, block, omegas: np.ndarray, omega_reprs: list):
    """bode_family.csv rows of one member block, a chunk per member."""
    x, y = member_terms(table, block, omegas)
    phases = np.arctan2(y, x)
    np.degrees(np.negative(phases, out=phases), out=phases)
    mags = np.add(np.square(x, out=x), np.square(y, out=y), out=x)
    np.divide(1.0, np.sqrt(mags, out=mags), out=mags)
    for i, block_mags, block_phases in zip(block, mags, phases):
        for params, mag, phase in zip(table.pairs, block_mags, block_phases):
            head = f"{float(params.zeta)!r},{i},"
            yield "".join([f"{head}{w},{m!r},{p!r}\n"
                           for w, m, p in zip(omega_reprs, mag.tolist(), phase.tolist())])


def _family_rows(result: PipelineResult, blocks, multipliers: range):
    """bode_family.csv rows of the multipliers, in chunks, over the member
    blocks cut to their range."""
    omegas = result.grid.omegas
    omega_reprs = [repr(w) for w in omegas.tolist()]
    for block in blocks:
        cut = range(max(block.start, multipliers.start), min(block.stop, multipliers.stop))
        if cut:
            # a block's arrays are freed with its generator, before the next's
            yield from _member_rows(result.wd, cut, omegas, omega_reprs)


def _child_split(result: PipelineResult, traces) -> int:
    """First multiplier of bode_family.csv that a forked child formats, or
    wi + 1 for none.

    The child takes about half of emit's formatting, each family row,
    trace sample and grid point weighed by its measured cost. It takes
    none when its share is under _MIN_CHILD_ROWS rows, when another thread
    is alive (fork copies only the calling thread) or without os.fork.
    """
    wi, points = result.spec.wi, len(result.grid)
    member = len(result.wd) * points
    samples = sum(len(t.times) for t in traces)
    cost = _ROW_NS * wi * member + _SAMPLE_NS * samples + _POINT_NS * points
    count = min(wi, round(cost / 2 / (_ROW_NS * member)))
    if (count * member < _MIN_CHILD_ROWS or threading.active_count() > 1
            or not hasattr(os, "fork")):
        return wi + 1
    return wi + 1 - count


@contextmanager
def _formatted_aside(out_dir, chunks):
    """Writes chunks from a forked child into an unnamed temporary file in
    out_dir while the body runs, and yields a function that waits for the
    child and appends that file to the file at a path. The child is killed
    and reaped if the body leaves before then."""
    with tempfile.TemporaryFile("w+", encoding="ascii", newline="\n", dir=out_dir) as part:
        pid = os.fork()
        if pid == 0:
            # the child never returns to the caller, nor flushes its stdio
            status = 1
            try:
                part.writelines(chunks)
                part.flush()
                status = 0
            finally:
                os._exit(status)

        def append_to(path):
            nonlocal pid
            status = os.waitpid(pid, 0)[1]
            pid = 0
            if status:
                raise OSError(f"the child formatting {os.path.basename(path)} exited "
                              f"with status {os.waitstatus_to_exitcode(status)}")
            with open(path, "ab") as fh:
                offset = 0
                while chunk := os.pread(part.fileno(), _COPY_BYTES, offset):
                    offset += fh.write(chunk)

        try:
            yield append_to
        finally:
            if pid:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def emit(result: PipelineResult, out_dir) -> list:
    """Write the run's text outputs into out_dir; returns the paths written.

    The family's budget is checked, and both bounds' settled_traces are
    simulated, before out_dir is created. For a large family, a forked
    child formats bode_family.csv's last multipliers into an unnamed
    temporary file in out_dir while this process writes every other file
    and the first multipliers, and then appends the child's part: the
    bytes are those of formatting the whole file here.
    """
    wi, tfs = result.spec.wi, (result.bounds.lower, result.bounds.upper)
    with _stage("emit"):
        family_blocks = list(member_blocks(result.wd, wi, result.grid.omegas))
        traces = [settled_trace(tf, result.spec) for tf in tfs]
        os.makedirs(out_dir, exist_ok=True)
    split = _child_split(result, traces)
    written = []

    def write(name: str, chunks):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(chunks)
        written.append(path)
        return path

    if result.fit_reports is not None:
        bode = [rep.response for rep in result.fit_reports]
    else:
        bode = [freq_response(tf, result.grid) for tf in tfs]
    tail_rows = _family_rows(result, family_blocks, range(split, wi + 1))
    with _stage("emit"), (_formatted_aside(out_dir, tail_rows) if split <= wi
                          else nullcontext(lambda path: None)) as append_tail:
        write("summary.txt", [format_summary(result)])
        write("wd_table.csv", [format_wd_table(result.wd)])
        for side, resp in zip(("lower", "upper"), bode):
            write(f"bode_{side}.csv", _envelope_csv(resp))
        family_path = write("bode_family.csv", chain(
            ["zeta,i,omega,mag,phase_deg\n"], _family_rows(result, family_blocks, range(1, split))))
        for side, trace in zip(("lower", "upper"), traces):
            write(f"trace_{side}.csv", _trace_csv(trace))
        if result.fit_reports is not None:
            for side, rep in zip(("lower", "upper"), result.fit_reports):
                write(f"envelope_{side}.csv", _envelope_csv(rep.data))
                write(f"fit_report_{side}.csv", _fit_report_csv(rep))
        append_tail(family_path)
    return written
