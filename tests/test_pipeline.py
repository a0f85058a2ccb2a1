"""Tests for the end-to-end pipeline, summary documents, emit, and the CLI."""

import os
import time

import numpy as np
import pytest

from trackbounds import (
    emit,
    format_summary,
    freq_response,
    make_tf,
    parse_summary,
    read_wd_table,
    run_pipeline,
    scale_omega,
    summary_skeleton,
)
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
            assert rep.fitted is tf
            assert rep.data.grid is result_env.grid
            assert np.array_equal(rep.response.values,
                                  freq_response(tf, result_env.grid).values)
        assert result_env.fit_reports[0].max_mag_error < 0.25
        assert result_env.fit_reports[1].max_mag_error < 0.35

    def test_mode_validation(self, example_spec):
        with pytest.raises(ValueError, match="mode"):
            run_pipeline(example_spec, mode="mid")

    def test_errors_carry_stage_names(self, example_spec):
        with pytest.raises(ValueError, match="^grid: "):
            run_pipeline(example_spec, w_min=10.0, w_max=1.0)


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

    def test_repeat_emits_are_byte_identical(self, result_low, tmp_path):
        first = emit(result_low, tmp_path / "a")
        second = emit(result_low, tmp_path / "b")
        for pa, pb in zip(first, second):
            assert os.path.basename(pa) == os.path.basename(pb)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()


class TestCli:
    BASE = ["--mp", "0.15", "--tr", "5", "--ts", "30", "--dev", "0.03", "--wi", "5"]

    def test_success_prints_parseable_summary(self, capsys, example_wd_path):
        code = main(self.BASE + ["--mode", "low", "--wd-table", str(example_wd_path)])
        out = capsys.readouterr().out
        assert code == 0
        doc = parse_summary(out)
        assert doc.mode == "low"
        assert doc.spec.mp == 0.15
        assert len(doc.wd) == 10

    def test_out_directory_is_written(self, capsys, tmp_path, example_wd_path):
        out_dir = tmp_path / "run"
        code = main(self.BASE + ["--wd-table", str(example_wd_path),
                                 "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        assert (out_dir / "summary.txt").is_file()
        assert (out_dir / "bode_upper.csv").is_file()

    def test_invalid_spec_exits_one(self, capsys):
        code = main(["--mp", "1.5", "--tr", "5", "--ts", "30",
                     "--dev", "0.03", "--wi", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "validation error" in err
        assert "overshoot" in err

    def test_missing_table_file_exits_three(self, capsys, tmp_path):
        code = main(self.BASE + ["--wd-table", str(tmp_path / "absent.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "i/o failure" in err

    def test_degenerate_fit_exits_two(self, capsys):
        code = main(self.BASE + ["--mode", "envelope", "--wmin", "1",
                                 "--wmax", "1.0000000000002", "--points", "30"])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err
        assert "fit" in err

    @pytest.mark.parametrize("args, stage", [
        # the lower fit gets a far right-half-plane zero whose removal
        # flips the sign of its DC gain
        (BASE + ["--mode", "envelope", "--zeros", "1", "--poles", "2"], "cleanup"),
        # fast poles over a long settling horizon: the lower bound alone
        # needs about 5.3e8 simulation steps
        (["--mp", "0.15", "--tr", "0.001", "--ts", "3000", "--dev", "0.03", "--wi", "5"],
         "round_trip"),
        # work sized from user input is checked against a budget before it runs
        (BASE + ["--points", "200000000"], "grid"),
        (BASE + ["--zeta-step", "1e-7"], "wd_table"),
        (BASE + ["--wi", "100000", "--mode", "envelope"], "envelope"),
        (BASE + ["--mode", "envelope", "--points", "20000", "--poles", "9000"], "fit"),
        # within the budget, but |s|**200 overflows on the default grid
        (BASE + ["--mode", "envelope", "--points", "401", "--poles", "200"], "fit"),
    ])
    def test_unusable_bound_fails_fast_naming_its_stage(self, capsys, args, stage):
        start = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"trackbounds: numerical failure: {stage}: ")
        assert elapsed < 2.0

    def test_oversized_family_output_fails_naming_emit(self, capsys, tmp_path):
        # low mode evaluates the family at one frequency only; bode_family.csv
        # needs all of it, wi * pairs * points = 5e6 entries
        code = main(self.BASE + ["--points", "100000", "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("trackbounds: numerical failure: emit: ")

    def test_gain_adjust_rescues_negative_dc_gain(self, capsys):
        # rescaling to unit DC gain flips the sign the cleanup left behind
        code = main(self.BASE + ["--mode", "envelope", "--zeros", "1", "--poles", "2",
                                 "--gain-adjust"])
        doc = parse_summary(capsys.readouterr().out)
        assert code == 0
        assert doc.final.lower.final_value == pytest.approx(1.0, rel=1e-6)
        assert doc.final.upper.final_value == pytest.approx(1.0, rel=1e-6)

    def test_slow_lower_bound_extends_its_trace(self, capsys, tmp_path):
        # the (0,4) lower fit rings for minutes: 3 * ts = 90 s doubles three times
        code = main(self.BASE + ["--mode", "envelope", "--zeros", "0", "--poles", "4",
                                 "--gain-adjust", "--out", str(tmp_path)])
        doc = parse_summary(capsys.readouterr().out)
        assert code == 0
        last_t = (tmp_path / "trace_lower.csv").read_text().splitlines()[-1].split(",")[0]
        assert float(last_t) == pytest.approx(720.0, rel=1e-12)
        assert doc.final.lower.ts > 90.0

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.BASE + ["--bogus"])
        assert excinfo.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mp", "0.15"])
        assert excinfo.value.code == 1
