"""Tests for the end-to-end pipeline, summary documents, emit, and the CLI."""

import dataclasses
import hashlib
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import family_response

from trackbounds import (
    NumericalError,
    RationalTF,
    StepTrace,
    emit,
    format_summary,
    format_trace,
    freq_response,
    make_grid,
    make_tf,
    parse_summary,
    read_wd_table,
    run_pipeline,
    scale_omega,
    summary_skeleton,
)
from trackbounds import envelope, family, pipeline
from trackbounds.cli import main


@pytest.fixture(scope="module")
def result_low(example_spec, example_wd_table):
    return run_pipeline(example_spec, mode="low", wd_table=example_wd_table)


@pytest.fixture(scope="module")
def result_high(example_spec, example_wd_table):
    return run_pipeline(example_spec, mode="high", wd_table=example_wd_table)


@pytest.fixture(scope="module")
def result_env(example_spec, example_wd_table):
    return run_pipeline(example_spec, mode="envelope", wd_table=example_wd_table)


class TestRunPipeline:
    def test_low_mode_selects_published_pair(self, result_low, example_wd_table):
        low = result_low.bounds
        assert result_low.mode == "low"
        # lower: most heavily damped base member short of the last entry
        assert np.allclose(low.lower.num, [0.3923], rtol=5e-3)
        assert np.allclose(low.lower.den, [1.0, 1.149, 0.3923], rtol=5e-3)
        # upper: least damped member of the fifth-harmonic family
        assert np.allclose(low.upper.num, [2.843], rtol=5e-3)
        assert np.allclose(low.upper.den, [1.0, 1.743, 2.843], rtol=5e-3)
        # both are whole family members, coefficient for coefficient
        member_low = make_tf(example_wd_table.pairs[8])
        member_up = make_tf(scale_omega(example_wd_table.pairs[0], 5))
        assert np.array_equal(low.lower.num, member_low.num)
        assert np.array_equal(low.lower.den, member_low.den)
        assert np.array_equal(low.upper.num, member_up.num)
        assert np.array_equal(low.upper.den, member_up.den)

    def test_high_mode_selects_published_pair(self, result_high):
        high = result_high.bounds
        assert result_high.mode == "high"
        assert np.allclose(high.lower.num, [0.1137], rtol=5e-3)
        assert np.allclose(high.lower.den, [1.0, 0.3486, 0.1137], rtol=5e-3)
        assert np.allclose(high.upper.num, [13.59], rtol=5e-3)
        assert np.allclose(high.upper.den, [1.0, 7.13, 13.59], rtol=5e-3)

    def test_low_mode_result_shape(self, result_low, example_wd_table, example_spec):
        assert result_low.mode == "low"
        assert result_low.wd is example_wd_table
        assert result_low.spec is example_spec
        assert result_low.fit_reports is None
        assert result_low.traces is not None
        assert result_low.final.upper.mp == pytest.approx(0.15, abs=2e-3)
        assert result_low.final.lower.final_value == pytest.approx(1.0, abs=1e-3)

    def test_built_table_selects_extreme_members(self, example_spec):
        result = run_pipeline(example_spec, mode="low")
        assert len(result.wd) == 10
        assert result.wd.pairs[0].zeta == pytest.approx(0.5169308662051555, abs=1e-12)
        # upper: least damped member of the fifth-harmonic family, within a
        # couple of percent of the table published for this specification
        member_up = make_tf(scale_omega(result.wd.pairs[0], 5))
        assert np.array_equal(result.bounds.upper.num, member_up.num)
        assert np.array_equal(result.bounds.upper.den, member_up.den)
        assert np.allclose(result.bounds.upper.den, [1.0, 1.743, 2.843], rtol=0.02)
        # lower: the base member with the smallest low-end magnitude
        mags = [abs(freq_response(make_tf(p), result.grid).values[0])
                for p in result.wd.pairs]
        best = make_tf(result.wd.pairs[int(np.argmin(mags))])
        assert np.array_equal(result.bounds.lower.num, best.num)
        assert np.array_equal(result.bounds.lower.den, best.den)

    def test_envelope_mode_fits_both_bounds(self, result_env):
        env = result_env.bounds
        assert result_env.mode == "envelope"
        assert result_env.fit_reports is not None
        assert np.allclose(env.lower.den, [1.0, 0.3903, 0.1168], rtol=0.10)
        assert env.lower.num_degree == 0
        # each report carries its envelope data and the bound's response on the grid
        for rep, tf in zip(result_env.fit_reports, (env.lower, env.upper)):
            assert rep.data.grid is result_env.grid
            assert np.array_equal(rep.response.values,
                                  freq_response(tf, result_env.grid).values)
        assert result_env.fit_reports[0].max_mag_error < 0.25
        assert result_env.fit_reports[1].max_mag_error < 0.35

    @pytest.mark.parametrize("mode, calls", [
        ("low", 2), ("high", 2), ("envelope", 2),
    ], ids=["low-2", "high-2", "envelope-2"])
    def test_each_bound_finds_its_poles_once(self, monkeypatch, example_spec,
                                             example_wd_table, mode, calls):
        # one call per bound: its transfer function keeps its poles for the
        # stability check, the round trip and, in envelope mode, the cleanup
        count = 0
        np_roots = np.roots

        def counting_roots(p):
            nonlocal count
            count += 1
            return np_roots(p)

        monkeypatch.setattr(np, "roots", counting_roots)
        run_pipeline(example_spec, mode=mode, wd_table=example_wd_table)
        assert count == calls

    def test_negative_dc_gain_fails_in_cleanup(self, monkeypatch, capsys, example_spec,
                                               example_wd_table, example_wd_path):
        # cleanup keeps this stable fit whole, and its DC gain is -1
        monkeypatch.setattr(pipeline, "fit", lambda problem: RationalTF([-0.1], [1, 0.4, 0.1]))
        with pytest.raises(NumericalError) as exc:
            run_pipeline(example_spec, mode="envelope", wd_table=example_wd_table)
        assert str(exc.value) == "cleanup: lower bound has non-positive DC gain -1.0"
        code = main(TestCli.BASE + ["--mode", "envelope", "--wd-table", str(example_wd_path)])
        assert code == 2
        assert "cleanup: lower bound has non-positive DC gain -1.0" in capsys.readouterr().err

    def test_family_responses_are_made_once_per_emit(self, monkeypatch, example_spec,
                                                      example_wd_table, tmp_path):
        # every consumer reads the members' closed form from member_terms:
        # the envelope stage and bode_family.csv each compute the family's
        # wi * pairs * points entries once, over two member blocks here,
        # and a restricted pick only multipliers 1 and wi at one frequency;
        # emit's forked child logs its entries to the same file
        log = tmp_path / "computed.txt"

        def counting(consumer):
            def counting_member_terms(table, multipliers, omegas):
                x, y = family.member_terms(table, multipliers, omegas)
                with open(log, "a", encoding="ascii") as fh:
                    fh.write(f"{consumer} {x.size}\n")
                return x, y
            return counting_member_terms

        def computed():
            totals = {}
            for line in log.read_text(encoding="ascii").splitlines():
                consumer, size = line.split()
                totals[consumer] = totals.get(consumer, 0) + int(size)
            log.unlink()
            return totals

        for module in (envelope, pipeline):
            monkeypatch.setattr(module, "member_terms", counting(module.__name__))
        entries = example_spec.wi * len(example_wd_table) * 2000
        result = run_pipeline(example_spec, mode="envelope", points=2000,
                              wd_table=example_wd_table)
        assert computed() == {"trackbounds.envelope": entries}
        assert 1 < pipeline._child_split(result) <= example_spec.wi
        emit(result, tmp_path / "out")
        assert computed() == {"trackbounds.pipeline": entries}
        run_pipeline(example_spec, mode="low", wd_table=example_wd_table)
        assert computed() == {"trackbounds.envelope": 2 * len(example_wd_table)}

    def test_mode_validation(self, example_spec):
        with pytest.raises(ValueError, match="mode"):
            run_pipeline(example_spec, mode="mid")

    def test_errors_carry_stage_names(self, example_spec):
        with pytest.raises(ValueError, match="^grid: "):
            run_pipeline(example_spec, points=1)

    @pytest.mark.parametrize("injected", [False, True], ids=["swept", "injected"])
    def test_grid_spans_the_family(self, example_spec, example_wd_table, injected):
        # a decade below the slowest member to a decade above the fastest
        result = run_pipeline(example_spec, points=150,
                              wd_table=example_wd_table if injected else None)
        omega_ns = result.wd.omega_ns()
        grid = make_grid(0.1 * omega_ns.min(), 10 * example_spec.wi * omega_ns.max(), 150)
        assert np.array_equal(result.grid.omegas, grid.omegas)

    @pytest.mark.parametrize("bounds", [{"w_min": 1.0}, {"w_max": 1e3}])
    def test_grid_range_is_not_an_option(self, example_spec, bounds):
        with pytest.raises(TypeError):
            run_pipeline(example_spec, **bounds)

    @pytest.mark.parametrize("counts, stage", [
        ({"points": 200.9}, "grid"), ({"poles": 2.5}, "fit"), ({"poles": True}, "fit"),
        ({"zeros": 0.0}, "fit"),
        # low and high mode fit nothing, but check the orders all the same
        ({"mode": "low", "poles": 2.5, "zeros": -3}, "fit"),
        ({"mode": "low", "zeros": -1}, "fit"),
        ({"mode": "high", "zeros": 7, "poles": 0}, "fit"),
    ])
    def test_non_integral_counts_fail_in_their_stage(self, example_spec, example_wd_table,
                                                     counts, stage):
        counts = {"mode": "envelope", **counts}
        with pytest.raises(ValueError, match=f"^{stage}: .* must be an integer"):
            run_pipeline(example_spec, wd_table=example_wd_table, **counts)

    @pytest.mark.parametrize("mode", ["low", "high", "envelope"])
    def test_numerator_order_checked_in_every_mode(self, example_spec, example_wd_table, mode):
        with pytest.raises(ValueError, match="^fit: numerator degree must not exceed"):
            run_pipeline(example_spec, mode=mode, zeros=3, poles=2, wd_table=example_wd_table)


class TestSummary:
    @pytest.mark.parametrize("which", ["low", "high", "env"])
    def test_round_trip_equals_skeleton(self, which, request):
        result = request.getfixturevalue(f"result_{which}")
        doc = parse_summary(format_summary(result))
        assert doc == summary_skeleton(result)

    def test_identical_runs_format_identically(self, example_spec, example_wd_table):
        a = run_pipeline(example_spec, mode="low", wd_table=example_wd_table)
        b = run_pipeline(example_spec, mode="low", wd_table=example_wd_table)
        assert format_summary(a) == format_summary(b)

    def test_unsupported_format_rejected(self, result_low):
        text = format_summary(result_low).replace("format = 1", "format = 2")
        with pytest.raises(ValueError, match="format"):
            parse_summary(text)

    def test_malformed_section_rejected(self, result_low):
        text = format_summary(result_low).replace("mp = 0.15", "mp 0.15")
        with pytest.raises(ValueError, match="malformed"):
            parse_summary(text)

    @pytest.mark.parametrize("old, new, section, key", [
        ("lower_den =", "lower_dem =", "bounds", "lower_den"),
        ("lower_mp = ", "lower_mp = x", "final_td", "lower_mp"),
        ("wi = 5", "wi = 5.0", "spec", "wi"),
        ("zeta,omega_n", "zeta;omega_n", "wd_table", "zeta,omega_n"),
    ])
    def test_bad_key_names_section_and_key(self, result_low, old, new, section, key):
        text = format_summary(result_low).replace(old, new)
        with pytest.raises(ValueError, match=rf"\[{section}\].*'{key}'"):
            parse_summary(text)

    def test_nan_metric_rejected(self, result_low):
        text = format_summary(result_low)
        start = text.index("lower_mp = ")
        text = text[:start] + "lower_mp = nan" + text[text.index("\n", start):]
        with pytest.raises(ValueError, match="overshoot"):
            parse_summary(text)

    def test_missing_section_names_section_and_key(self, result_env):
        text = format_summary(result_env)
        truncated = text[:text.index("[final_td]")]
        with pytest.raises(ValueError, match=r"\[final_td\].*'lower_mp'"):
            parse_summary(truncated)


class TestEmit:
    def test_low_mode_file_set(self, result_low, tmp_path):
        written = emit(result_low, tmp_path)
        names = sorted(os.path.basename(p) for p in written)
        assert names == [
            "bode_family.csv", "bode_lower.csv", "bode_upper.csv",
            "summary.txt", "trace_lower.csv", "trace_upper.csv", "wd_table.csv",
        ]
        assert all(os.path.isfile(p) for p in written)

    def test_envelope_mode_file_set(self, result_env, tmp_path):
        written = emit(result_env, tmp_path)
        names = sorted(os.path.basename(p) for p in written)
        assert names == [
            "bode_family.csv", "bode_lower.csv", "bode_upper.csv",
            "envelope_lower.csv", "envelope_upper.csv",
            "fit_report_lower.csv", "fit_report_upper.csv",
            "summary.txt", "trace_lower.csv", "trace_upper.csv", "wd_table.csv",
        ]

    def test_wd_table_file_round_trips(self, result_low, tmp_path):
        emit(result_low, tmp_path)
        assert read_wd_table(tmp_path / "wd_table.csv").pairs == result_low.wd.pairs

    def test_summary_file_round_trips(self, result_low, tmp_path):
        emit(result_low, tmp_path)
        text = (tmp_path / "summary.txt").read_text(encoding="ascii")
        assert parse_summary(text) == summary_skeleton(result_low)

    def test_bode_rows_match_frequency_response(self, result_low, tmp_path):
        emit(result_low, tmp_path)
        lines = (tmp_path / "bode_lower.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,mag,phase_deg"
        assert len(lines) == 1 + len(result_low.grid)
        first = [float(v) for v in lines[1].split(",")]
        resp = freq_response(result_low.bounds.lower, result_low.grid)
        assert first[0] == float(result_low.grid.omegas[0])
        assert first[1] == float(resp.magnitude()[0])

    def test_fit_report_rows_cover_the_grid(self, result_env, tmp_path):
        emit(result_env, tmp_path)
        lines = (tmp_path / "fit_report_lower.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(result_env.grid)
        mag_err = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(mag_err) == result_env.fit_reports[0].max_mag_error

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_envelope_rows_equal_fit_report_data_columns(self, result_env, tmp_path, side):
        emit(result_env, tmp_path)
        envelope = (tmp_path / f"envelope_{side}.csv").read_text().splitlines()
        fit_rows = (tmp_path / f"fit_report_{side}.csv").read_text().splitlines()
        assert len(envelope) == len(fit_rows) == 1 + len(result_env.grid)
        for env_row, fit_row in zip(envelope[1:], fit_rows[1:]):
            omega, mag_data, _, _, phase_data_deg, _, _ = fit_row.split(",")
            assert env_row == f"{omega},{mag_data},{phase_data_deg}"

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_bode_rows_equal_fit_report_fit_columns(self, result_env, tmp_path, side):
        emit(result_env, tmp_path)
        bode = (tmp_path / f"bode_{side}.csv").read_text().splitlines()
        fit_rows = (tmp_path / f"fit_report_{side}.csv").read_text().splitlines()
        assert len(bode) == len(fit_rows) == 1 + len(result_env.grid)
        for bode_row, fit_row in zip(bode[1:], fit_rows[1:]):
            omega, _, mag_fit, _, _, phase_fit_deg, _ = fit_row.split(",")
            assert bode_row == f"{omega},{mag_fit},{phase_fit_deg}"

    def test_envelope_run_parses_back_exactly(self, result_env, tmp_path):
        # every float is written with repr, so each field reads back as the
        # very float the result holds
        emit(result_env, tmp_path)

        def columns(name):
            header, *rows = (tmp_path / name).read_text().splitlines()
            return header, [list(col) for col in zip(*([float(v) for v in row.split(",")]
                                                         for row in rows))]

        def as_lists(*arrays):
            return [np.asarray(a, dtype=float).tolist() for a in arrays]

        def bode(resp):
            return as_lists(resp.grid.omegas, resp.magnitude(), np.degrees(resp.phase()))

        for side, trace, rep in zip(("lower", "upper"), result_env.traces,
                                    result_env.fit_reports):
            assert columns(f"trace_{side}.csv") == ("t,y", as_lists(trace.times, trace.values))
            assert columns(f"bode_{side}.csv") == ("omega,mag,phase_deg", bode(rep.response))
            assert columns(f"envelope_{side}.csv") == ("omega,mag,phase_deg", bode(rep.data))
            omega, mag_data, phase_data = bode(rep.data)
            _, mag_fit, phase_fit = bode(rep.response)
            assert columns(f"fit_report_{side}.csv") == (
                "omega,mag_data,mag_fit,mag_err,phase_data_deg,phase_fit_deg,phase_err_deg",
                [omega, mag_data, mag_fit, rep.mag_error.tolist(),
                 phase_data, phase_fit, rep.phase_error_deg.tolist()])
        pairs = result_env.wd.pairs
        assert columns("wd_table.csv") == (
            "zeta,omega_n", [[p.zeta for p in pairs], [p.omega_n for p in pairs]])
        # every member row of bode_family.csv against the complex reference
        header, (zeta, i, omega, mag, phase_deg) = columns("bode_family.csv")
        wi, points = result_env.spec.wi, len(result_env.grid)
        ref = family_response(result_env.wd, wi, result_env.grid.omegas)
        assert header == "zeta,i,omega,mag,phase_deg"
        assert zeta == [p.zeta for p in pairs for _ in range(points)] * wi
        assert i == [float(k) for k in range(1, wi + 1) for _ in range(len(pairs) * points)]
        assert omega == result_env.grid.omegas.tolist() * (wi * len(pairs))
        np.testing.assert_allclose(mag, np.abs(ref).ravel(), rtol=1e-14, atol=0)
        np.testing.assert_allclose(np.radians(phase_deg), np.angle(ref).ravel(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_chunk_boundaries_keep_every_row(self, result_low, tmp_path, extra):
        # a trace of exactly one CSV chunk, and of one chunk and one row
        times = np.arange(pipeline._CSV_CHUNK_ROWS + extra) / 3.0
        trace = StepTrace(times, np.sqrt(times), 1 / 3.0)
        reference = "t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in
                                      zip(trace.times.tolist(), trace.values.tolist()))
        assert format_trace(trace) == reference
        emit(dataclasses.replace(result_low, traces=(trace, trace)), tmp_path)
        assert (tmp_path / "trace_lower.csv").read_bytes() == reference.encode("ascii")

    def test_peak_memory_is_bounded(self, result_env, example_spec, example_wd_table,
                                    tmp_path):
        # wi * pairs * points = 750,000 bode_family.csv rows, written one
        # member block and one CSV chunk at a time; a forked child formats
        # the last multipliers, which the same generator formats here again
        # for its peak
        result = run_pipeline(dataclasses.replace(example_spec, wi=50), mode="envelope",
                              points=1500, wd_table=example_wd_table)
        wi = result.spec.wi
        split = pipeline._child_split(result)
        assert 1 < split <= wi
        blocks = list(family.member_blocks(result.wd, wi, result.grid.omegas))
        emit(result_env, tmp_path)  # a small emit first, so no first use is counted
        tracemalloc.start()
        try:
            emit(result, tmp_path)
            peaks = [tracemalloc.get_traced_memory()[1]]
            tracemalloc.reset_peak()
            with open(tmp_path / "tail.csv", "w", encoding="ascii", newline="\n") as fh:
                fh.writelines(pipeline._family_rows(result, blocks, range(split, wi + 1)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 3 * 8 * family._BLOCK_ENTRIES + 2**20

    def test_repeat_emits_are_byte_identical(self, result_low, tmp_path):
        assert_same_files(emit(result_low, tmp_path / "a"), emit(result_low, tmp_path / "b"))


@pytest.fixture(scope="module")
def result_blocks(example_spec, example_wd_table):
    """75,000 family rows in member blocks of multipliers 1-4 and 5, enough
    for emit to fork."""
    result = run_pipeline(example_spec, mode="envelope", points=1500, wd_table=example_wd_table)
    blocks = family.member_blocks(result.wd, result.spec.wi, result.grid.omegas)
    assert [list(block) for block in blocks] == [[1, 2, 3, 4], [5]]
    assert pipeline._child_split(result) == 2
    return result


def assert_same_files(first: list, second: list):
    assert [os.path.basename(p) for p in first] == [os.path.basename(p) for p in second]
    for pa, pb in zip(first, second):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read(), os.path.basename(pa)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedEmit:
    """emit with bode_family.csv's last multipliers formatted by a forked child."""

    @pytest.mark.parametrize("split", [None, 3, 5, 1],
                             ids=["estimated", "inside-a-block", "on-a-block-edge",
                                  "every-multiplier"])
    def test_writes_the_in_process_bytes(self, result_blocks, tmp_path, monkeypatch, split):
        monkeypatch.setattr(pipeline, "_child_split", lambda result: result.spec.wi + 1)
        serial = emit(result_blocks, tmp_path / "serial")
        monkeypatch.undo()
        if split is not None:
            monkeypatch.setattr(pipeline, "_child_split", lambda result: split)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        forked = emit(result_blocks, tmp_path / "forked")
        assert len(forks) == 1
        assert_same_files(serial, forked)
        assert sorted(os.listdir(tmp_path / "forked")) == sorted(map(os.path.basename, serial))
        assert_no_child()

    def test_failing_child_fails_naming_emit(self, result_blocks, tmp_path, monkeypatch):
        wi = result_blocks.spec.wi
        member_rows = pipeline._member_rows

        def failing(table, block, omegas, omega_reprs):
            if wi in block:
                raise RuntimeError("formatting failed")
            return member_rows(table, block, omegas, omega_reprs)

        monkeypatch.setattr(pipeline, "_member_rows", failing)
        with pytest.raises(OSError, match=r"^emit: the child formatting bode_family.csv "
                                          r"exited with status 1$"):
            emit(result_blocks, tmp_path)
        assert_no_child()

    def test_failure_after_the_fork_leaves_no_child(self, result_blocks, tmp_path,
                                                    monkeypatch):
        def failing(trace):
            raise RuntimeError("trace failed")

        monkeypatch.setattr(pipeline, "_trace_csv", failing)
        with pytest.raises(RuntimeError, match="trace failed"):
            emit(result_blocks, tmp_path)
        assert_no_child()
        # the files written before the failure, and no temporary file
        assert sorted(os.listdir(tmp_path)) == [
            "bode_family.csv", "bode_lower.csv", "bode_upper.csv", "summary.txt", "wd_table.csv"]

    def test_deadline_while_waiting_kills_the_child(self, result_blocks, tmp_path,
                                                    monkeypatch):
        # a signal handler that raises, as a SIGALRM deadline does, while
        # emit waits for a child that would take a minute
        wi = result_blocks.spec.wi
        member_rows = pipeline._member_rows

        def slow(table, block, omegas, omega_reprs):
            if wi in block:
                time.sleep(60)
            return member_rows(table, block, omegas, omega_reprs)

        class Deadline(Exception):
            pass

        def expire(signum, frame):
            raise Deadline

        monkeypatch.setattr(pipeline, "_member_rows", slow)
        previous = signal.signal(signal.SIGALRM, expire)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(Deadline):
                emit(result_blocks, tmp_path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert_no_child()

    @pytest.mark.parametrize("guard", ["thread", "no-fork"])
    def test_formats_in_process_where_fork_is_unsafe(self, result_blocks, tmp_path,
                                                     monkeypatch, guard):
        forked = emit(result_blocks, tmp_path / "forked")

        def no_fork():
            raise AssertionError("emit forked")

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if guard == "thread":
            monkeypatch.setattr(os, "fork", no_fork)
            thread.start()
        else:
            monkeypatch.delattr(os, "fork")
        try:
            serial = emit(result_blocks, tmp_path / "serial")
        finally:
            stop.set()
            if guard == "thread":
                thread.join(10)
        assert not thread.is_alive()
        assert_same_files(forked, serial)

    def test_worked_example_is_formatted_in_process(self, result_env, tmp_path, monkeypatch):
        # its 10,000 family rows are below the child's floor
        assert pipeline._child_split(result_env) == result_env.spec.wi + 1

        def no_fork():
            raise AssertionError("emit forked")

        monkeypatch.setattr(os, "fork", no_fork)
        emit(result_env, tmp_path)


def run_ok(capsys, args) -> str:
    """stdout of a CLI run that exits 0 and writes nothing to stderr, so
    that a warning it leaks fails the test."""
    code = main(args)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


class TestCli:
    BASE = ["--mp", "0.15", "--tr", "5", "--ts", "30", "--dev", "0.03", "--wi", "5"]

    def test_success_prints_parseable_summary(self, capsys, example_wd_path):
        out = run_ok(capsys, self.BASE + ["--mode", "low", "--wd-table", str(example_wd_path)])
        doc = parse_summary(out)
        assert doc.mode == "low"
        assert doc.spec.mp == 0.15
        assert len(doc.wd) == 10

    def test_out_directory_is_written(self, capsys, tmp_path, example_wd_path):
        out_dir = tmp_path / "run"
        run_ok(capsys, self.BASE + ["--wd-table", str(example_wd_path), "--out", str(out_dir)])
        assert (out_dir / "summary.txt").is_file()
        assert (out_dir / "bode_upper.csv").is_file()

    def test_invalid_spec_exits_one(self, capsys):
        code = main(["--mp", "1.5", "--tr", "5", "--ts", "30",
                     "--dev", "0.03", "--wi", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "validation error" in err
        assert "overshoot" in err

    @pytest.mark.parametrize("args", [
        ["--poles", "-1"], ["--mode", "high", "--zeros", "7", "--poles", "0"],
        ["--mode", "low", "--zeros", "3"],
    ])
    def test_invalid_orders_exit_one_in_every_mode(self, capsys, example_wd_path, args):
        code = main(self.BASE + args + ["--wd-table", str(example_wd_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("trackbounds: validation error: fit: ")

    def test_missing_table_file_exits_three(self, capsys, tmp_path):
        code = main(self.BASE + ["--wd-table", str(tmp_path / "absent.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "i/o failure" in err

    def test_degenerate_fit_exits_two(self, capsys, tmp_path):
        # one member: both envelopes are exactly T = 1/(s^2 + s + 1), so
        # T + T*s + T*s^2 = 1 and the columns of the (0,3) fit's system are
        # linearly dependent
        path = tmp_path / "one_pair.csv"
        path.write_text("zeta,omega_n\n0.5,1.0\n", encoding="ascii")
        code = main(self.BASE + ["--wi", "1", "--mode", "envelope", "--poles", "3",
                                 "--wd-table", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "trackbounds: numerical failure: fit: degenerate fit")

    @pytest.mark.parametrize("flag", ["--wmin", "--wmax"])
    def test_grid_range_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + [flag, "1"])
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, stage", [
        # cleanup removes every pole of a (2,5) fit
        (BASE + ["--mode", "envelope", "--zeros", "2", "--poles", "5"], "cleanup"),
        # fast poles over a long settling horizon: the lower bound alone
        # needs about 5.3e8 simulation steps
        (["--mp", "0.15", "--tr", "0.001", "--ts", "3000", "--dev", "0.03", "--wi", "5"],
         "round_trip"),
        # work sized from user input is checked against a budget before it runs
        (BASE + ["--points", "200000000"], "grid"),
        (BASE + ["--zeta-step", "1e-7"], "wd_table"),
        (BASE + ["--wi", "100000", "--mode", "envelope"], "envelope"),
        (BASE + ["--mode", "envelope", "--points", "20000", "--poles", "9000"], "fit"),
        # within the budget, but |s|**200 overflows on the grid
        (BASE + ["--mode", "envelope", "--points", "401", "--poles", "200"], "fit"),
        # natural frequencies whose squares, the members' coefficients, are
        # zero, subnormal or infinite
        (["--mp", "0.15", "--tr", "inf", "--ts", "inf", "--dev", "0.03", "--wi", "5"],
         "wd_table"),
        (["--mp", "0.15", "--tr", "1e308", "--ts", "1e308", "--dev", "0.03", "--wi", "5"],
         "wd_table"),
        (["--mp", "0.15", "--tr", "1e-300", "--ts", "30", "--dev", "0.03", "--wi", "5"],
         "wd_table"),
        # members 300 decades apart: at the top of the grid, (omega /
        # omega_n)**2 of the slowest member overflows, so the lower magnitude
        # envelope would read 0 there
        (BASE + ["--mode", "envelope", "--wd-table", "{wide}"], "envelope"),
        # the same grid in high mode: the slowest member's magnitude at the
        # top reads 0, so no member can be picked
        (BASE + ["--mode", "high", "--wd-table", "{wide}"], "select"),
        # an injected table's natural frequencies get the sweep's check: here
        # the members' coefficients, omega_n**2, overflow
        (BASE + ["--mode", "low", "--wd-table", "{fast}"], "wd_table"),
        (BASE + ["--mode", "high", "--wd-table", "{fast}"], "wd_table"),
        (BASE + ["--mode", "envelope", "--wd-table", "{fast}"], "wd_table"),
        # the grid spans 5e98 to 3e102 rad/s: undoing the fit's frequency
        # normalization needs 1e100**4, which overflows
        (["--mp", "0.15", "--tr", "1e-100", "--ts", "1e-99", "--dev", "0.03", "--wi", "5",
          "--mode", "envelope", "--poles", "4"], "fit"),
    ])
    def test_unusable_bound_fails_fast_naming_its_stage(self, capsys, tmp_path, args, stage):
        tables = {"wide": "0.5,1e-150\n0.6,1e150\n", "fast": "0.5,1e200\n0.6,2e200\n"}
        for name, rows in tables.items():
            (tmp_path / f"{name}.csv").write_text("zeta,omega_n\n" + rows, encoding="ascii")
        start = time.perf_counter()
        code = main([arg.format(**{name: tmp_path / f"{name}.csv" for name in tables})
                     for arg in args])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"trackbounds: numerical failure: {stage}: ")
        assert elapsed < 2.0

    @pytest.mark.parametrize("ts", ["inf", "1e308", "1e200"])
    def test_endless_settling_horizon_fails_in_round_trip(self, capsys, ts):
        # 3 * ts overflows to inf, or needs about 4e201 steps: both are
        # checked against the budget as floats, and the count prints short
        args = ["--mp", "0.15", "--tr", "5", "--ts", ts, "--dev", "0.03", "--wi", "5"]
        start = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("trackbounds: numerical failure: round_trip: simulation needs ")
        assert len(err) < 250
        assert elapsed < 2.0

    def test_oversized_family_output_fails_naming_emit(self, capsys, tmp_path):
        # low mode evaluates the family at one frequency only; bode_family.csv
        # needs all of it, wi * pairs * points = 5e6 entries, checked before
        # any file is written
        code = main(self.BASE + ["--points", "100000", "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("trackbounds: numerical failure: emit: ")
        assert not (tmp_path / "run").exists()

    def test_unwritable_out_directory_fails_naming_emit(self, capsys, tmp_path, example_wd_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(self.BASE + ["--wd-table", str(example_wd_path), "--out", str(taken)])
        assert code == 3
        assert capsys.readouterr().err.startswith("trackbounds: i/o failure: emit: ")

    def test_dropped_right_half_plane_zero_keeps_a_positive_gain(self, capsys):
        # the lower (1,2) fit gets a far right-half-plane zero; cleanup drops
        # it and keeps the bound's gain positive at the reference frequency
        out = run_ok(capsys, self.BASE + ["--mode", "envelope", "--zeros", "1", "--poles", "2"])
        doc = parse_summary(out)
        assert doc.final.lower.final_value > 0 and doc.final.upper.final_value > 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "9fb8229269576c0b0eaa6edf6f680780df5d3a4aed7c6442cf5e5af4eb0473d7")

    def test_slow_lower_bound_extends_its_trace(self, capsys, tmp_path, example_wd_path):
        # the (4,6) lower fit rings for minutes: its poles size the trace at
        # 1792 s, past 3 * ts = 90 s
        doc = parse_summary(run_ok(capsys, self.BASE + ["--mode", "envelope", "--zeros", "4",
                                                        "--poles", "6", "--wd-table",
                                                        str(example_wd_path),
                                                        "--out", str(tmp_path)]))
        last_t = (tmp_path / "trace_lower.csv").read_text().splitlines()[-1].split(",")[0]
        assert float(last_t) == pytest.approx(1792.169, rel=1e-5)
        assert 90.0 < doc.final.lower.ts < float(last_t)

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--bogus"])
        assert excinfo.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mp", "0.15"])
        assert excinfo.value.code == 1


class TestWorkedExampleBytes:
    """SHA-256 of stdout and every --out file of the worked example's CLI runs.

    The runs take tests/data/example_wd_table.csv, so no damping sweep moves
    their numbers. A change that alters any of these bytes re-pins them
    here and says in CHANGES.md which bytes changed and why.
    """

    PINNED = {
        "low": {
            "stdout": "df2cf7c6d63253101e6191e9af711c41250ebaae8c129bf17e91e6d7b918d9fd",
            "bode_family.csv": "288caa3c28fc60a81502d415fe8184a5e5dca5650cb2110bfa3e5761ad493a1a",
            "bode_lower.csv": "02c6c539f76c7ef00064a9d650d9aa0ac9a5fa2ee8973312408aa0591904453e",
            "bode_upper.csv": "e5905e6b90955f40577f57bb2d7138da1466525685015a5c8ac42f1165da0049",
            "summary.txt": "df2cf7c6d63253101e6191e9af711c41250ebaae8c129bf17e91e6d7b918d9fd",
            "trace_lower.csv": "6b6044088d6ba2c1041c95e9af2e1f4886d8a64513ce8afdd9e663892e777106",
            "trace_upper.csv": "fbc0f8d86f37ed49ffb714b79d640e8b3835e3f4896ec032beea92ae9db5b97d",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
        "high": {
            "stdout": "74b2e58c23e138236e953d9a56daac8cb75475e00dfa47d5c100b80c3dcfd7cd",
            "bode_family.csv": "288caa3c28fc60a81502d415fe8184a5e5dca5650cb2110bfa3e5761ad493a1a",
            "bode_lower.csv": "74fe483ef426edcc9be84c24fd277349e04fbab35fe94bfb17d98d4d8959adc6",
            "bode_upper.csv": "501e42c3df9f9b57220bf770ff5a96db50612bd7183331f9acda30e937e435b5",
            "summary.txt": "74b2e58c23e138236e953d9a56daac8cb75475e00dfa47d5c100b80c3dcfd7cd",
            "trace_lower.csv": "8ee5c6e013572193039b83cdd318703cf9e81764358bd84d9e82e4a50cf6f019",
            "trace_upper.csv": "eb72e224e073413efd0e1e8af743d70ccaa3a21c76dbb5f72ed506e15b770a73",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
        "envelope": {
            "stdout": "4455b67bf72c92447f81b606f0ff2d68b5d1e7070d97b14342331db79ca100b9",
            "bode_family.csv": "288caa3c28fc60a81502d415fe8184a5e5dca5650cb2110bfa3e5761ad493a1a",
            "bode_lower.csv": "e99d399587c890ac5fef1a7e2808786f5353e4c1f957729d7ec4c4569485fd17",
            "bode_upper.csv": "b9a59c458b465766cadcc14e3cda0fb46b5c1d0f79461358bcda5e92cce2e03d",
            "envelope_lower.csv": "5e8bf46802d4ccdf91abc099177ea469aa89a0c49da2fa54f7e5267f3c9072b0",
            "envelope_upper.csv": "bdd22cbe8ee5dcbc37a1d55388dd70fc091854ab2edd11d0b5b3f2411b70855d",
            "fit_report_lower.csv": "e5a0f8e8096988a00acb545ee2bd6ecbe64fb7f15a7320bd6b68a9e15d4fa5ef",
            "fit_report_upper.csv": "0aaed278c3ef53766bc0d5724de04a9618d52f601ad75cb030d214abcdc489e6",
            "summary.txt": "4455b67bf72c92447f81b606f0ff2d68b5d1e7070d97b14342331db79ca100b9",
            "trace_lower.csv": "5e3233b7331464f7d7fa9fa0463ecf995c7ff103c2e46cfa517518729d92ff9c",
            "trace_upper.csv": "555542a278718eb4b7376ec3f054590c759df7130ea12592cc1aad34329bbc9a",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_output_hashes(self, capsys, tmp_path, example_wd_path, mode):
        out = run_ok(capsys, TestCli.BASE + ["--mode", mode, "--wd-table", str(example_wd_path),
                                             "--out", str(tmp_path)])
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        hashes["stdout"] = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert hashes == self.PINNED[mode]
