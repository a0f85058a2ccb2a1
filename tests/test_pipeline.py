"""Tests for the end-to-end pipeline, summary documents, emit, and the CLI."""

import hashlib
import os
import time

import numpy as np
import pytest

from trackbounds import (
    emit,
    family_response,
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

    @pytest.mark.parametrize("old, new, section, key", [
        ("lower_den =", "lower_dem =", "bounds", "lower_den"),
        ("lower_mp = ", "lower_mp = x", "final_td", "lower_mp"),
        ("wi = 5", "wi = 5.0", "spec", "wi"),
    ])
    def test_bad_key_names_section_and_key(self, result_low, old, new, section, key):
        text = format_summary(result_low).replace(old, new)
        with pytest.raises(ValueError, match=rf"\[{section}\].*'{key}'"):
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
        header, family = columns("bode_family.csv")
        first = family_response(result_env.wd, 1, result_env.grid.omegas)[0, 0]
        points = len(result_env.grid)
        assert header == "zeta,i,omega,mag,phase_deg"
        assert [col[:points] for col in family] == [
            [pairs[0].zeta] * points, [1.0] * points,
            *as_lists(result_env.grid.omegas, np.abs(first),
                      np.degrees(np.unwrap(np.angle(first))))]

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


class TestWorkedExampleBytes:
    """SHA-256 of stdout and every --out file of the worked example's CLI runs.

    The runs take tests/data/example_wd_table.csv, so no damping sweep moves
    their numbers. A change that alters any of these bytes re-pins them
    here and says in CHANGES.md which bytes changed and why.
    """

    PINNED = {
        "low": {
            "stdout": "96efce6257a3857f29370a019d85fddda3ac922dd922d620fde20632062fdade",
            "bode_family.csv": "1de150469886451d741d9d42f6a3d8d8a2d360be6face64fb0e54c3f5ceb5582",
            "bode_lower.csv": "0859bb8f841135b44716f2b3cc6cfb9d55076c2a3fdd52b65418a21e511b3073",
            "bode_upper.csv": "92d46d8a51563096fc48ab0da4926498d4d9b1d9c62e88605bb4b41c591a3c39",
            "summary.txt": "96efce6257a3857f29370a019d85fddda3ac922dd922d620fde20632062fdade",
            "trace_lower.csv": "f05d0b8c39f66caec5fe1e9c74a15df2d8acf412b5e29fd0407cf6bffa435fed",
            "trace_upper.csv": "5eee7a8f8861da7a7d1ec8becf4b72696f26903d1faf3d55ed1e7c5d080a43a8",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
        "high": {
            "stdout": "4b24d56fd8908f5a8cf420f5f5130b1451a6a240006134e42a2aa2c4d7e679d3",
            "bode_family.csv": "1de150469886451d741d9d42f6a3d8d8a2d360be6face64fb0e54c3f5ceb5582",
            "bode_lower.csv": "21262a3251ac82504aa5973add4553007705b81fe56cf0c73fb5299a2d81fc8a",
            "bode_upper.csv": "e4a6d5e494d88ad73d962a59291f90634076ca216d3942461b81b219270d8348",
            "summary.txt": "4b24d56fd8908f5a8cf420f5f5130b1451a6a240006134e42a2aa2c4d7e679d3",
            "trace_lower.csv": "7af67e8e7be8a2668f73a9a1d182c2e0093f5ac9f258f9e2adcdf2488340b484",
            "trace_upper.csv": "19e76de4c11a8ab61d4991a3288e895223fa8407a0f99408a86b21171077cee6",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
        "envelope": {
            "stdout": "2a925780de93b449c3126a29bd1d6262270fa051ab0e0510837a184d5e40d283",
            "bode_family.csv": "1de150469886451d741d9d42f6a3d8d8a2d360be6face64fb0e54c3f5ceb5582",
            "bode_lower.csv": "2933744d4c2fb0b4a2e609fe41429430a02b92328fb405bc075812df2fd894dd",
            "bode_upper.csv": "824fcc5efd91358478a5b3a8b4817e8782e45b7c9f4211af85b3f20851ad1d46",
            "envelope_lower.csv": "b3a07d2b37ae42a1eb12b99a667d934f32bf556ff9e2994c8bbdd348f6454071",
            "envelope_upper.csv": "e67806dd7ce23eb641107c74f5adf697cde21489ae03c669d3503e9d8bbe92a7",
            "fit_report_lower.csv": "f9b2f1bfe6ae5fe97874118ef8342a18e95cfd9a1d6ac1ebe7762e6190a44851",
            "fit_report_upper.csv": "637eb3f3d0a5c2bd7c7a82b8ff78b3a4d404782d5ee6a0123e46ead6236fb75b",
            "summary.txt": "2a925780de93b449c3126a29bd1d6262270fa051ab0e0510837a184d5e40d283",
            "trace_lower.csv": "58e0d0938c650b0dd4c0a0398a40a443051cc33f37e9eb8d52ecbc9b56ea1091",
            "trace_upper.csv": "76dd9e48ff669819150e16956654c5a057a7e1a771704f0f4d10d38f8234d298",
            "wd_table.csv": "6646c38af96695e07ed0429128be6ce7360fba10a2652e8ee78944562aa7a873",
        },
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_output_hashes(self, capsys, tmp_path, example_wd_path, mode):
        code = main(TestCli.BASE + ["--mode", mode, "--wd-table", str(example_wd_path),
                                    "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        hashes["stdout"] = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert hashes == self.PINNED[mode]
