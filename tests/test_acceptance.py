"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints a single [criterion N] PASS line when it succeeds (visible
with pytest -s); a failed criterion shows up as the test's failure line.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from test_tf_model import random_stable_tf
from trackbounds import (
    BoundPair,
    FitProblem,
    SecondOrderParams,
    Spec,
    build_wd,
    envelope_of,
    fit,
    freq_response,
    make_grid,
    make_tf,
    newton_inverse_interp,
    report,
    round_trip,
    select_restricted,
    step_response,
    step_value,
    zeta_min,
)

SPEC = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)


def _published_pairs(example_wd_table):
    return [(p.zeta, p.omega_n) for p in example_wd_table.pairs]


class TestAcceptance:
    def test_criterion_01_minimum_damping_closed_form(self):
        z = zeta_min(0.15)
        assert z == pytest.approx(0.51696, abs=1e-4)
        print(f"\n[criterion 1] PASS zeta_min(0.15) = {z:.6f} (0.51696 +/- 1e-4)")

    def test_criterion_02_family_sweep_matches_table_and_oracle(self, example_wd_table):
        start = time.perf_counter()
        table = build_wd(SPEC, 0.05)
        elapsed = time.perf_counter() - start
        assert len(table) == 10
        ref = _published_pairs(example_wd_table)
        for pair, (zeta_ref, omega_ref) in zip(table.pairs, ref):
            assert pair.zeta == pytest.approx(zeta_ref, abs=1e-3)
            assert abs(pair.omega_n - omega_ref) / omega_ref <= 0.15
            w_oracle = oracles.oracle_omega_n(pair.zeta, SPEC.tr, SPEC.ts, SPEC.dev)
            assert abs(pair.omega_n - w_oracle) / w_oracle <= 0.002
        assert elapsed < 5.0
        print(f"\n[criterion 2] PASS 10 pairs, zeta +/-1e-3, omega_n within 15% "
              f"of the published table and 0.2% of the oracle ({elapsed:.2f} s)")

    def test_criterion_03_round_trip_binding_property(self):
        start = time.perf_counter()
        table = build_wd(SPEC, 0.05)
        worst_ratio_lo, worst_ratio_hi, worst_mp = 1.0, 1.0, 0.0
        for pair in table.pairs:
            tf = make_tf(pair)
            m = round_trip(BoundPair(tf, tf), SPEC).lower
            ratio = max(m.tr / SPEC.tr, m.ts / SPEC.ts)
            worst_ratio_lo = min(worst_ratio_lo, ratio)
            worst_ratio_hi = max(worst_ratio_hi, ratio)
            worst_mp = max(worst_mp, m.mp)
            assert 0.99 <= ratio <= 1.01
            assert m.mp <= 0.151
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"\n[criterion 3] PASS binding ratio in [{worst_ratio_lo:.4f}, "
              f"{worst_ratio_hi:.4f}], max Mp {worst_mp:.4f} ({elapsed:.2f} s)")

    def test_criterion_04_low_frequency_restriction(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 200)
        pair = select_restricted(example_wd_table, SPEC.wi, grid, "low")
        assert np.allclose(pair.lower.num, [0.3923], rtol=5e-3)
        assert np.allclose(pair.lower.den, [1.0, 1.149, 0.3923], rtol=5e-3)
        assert np.allclose(pair.upper.num, [2.843], rtol=5e-3)
        assert np.allclose(pair.upper.den, [1.0, 1.743, 2.843], rtol=5e-3)
        print("\n[criterion 4] PASS low-end pair matches published coefficients "
              "to 0.5%")

    def test_criterion_05_high_frequency_restriction(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 200)
        pair = select_restricted(example_wd_table, SPEC.wi, grid, "high")
        assert np.allclose(pair.lower.num, [0.1137], rtol=5e-3)
        assert np.allclose(pair.lower.den, [1.0, 0.3486, 0.1137], rtol=5e-3)
        assert np.allclose(pair.upper.num, [13.59], rtol=5e-3)
        assert np.allclose(pair.upper.den, [1.0, 7.13, 13.59], rtol=5e-3)
        print("\n[criterion 5] PASS high-end pair matches published coefficients "
              "to 0.5%")

    def test_criterion_06_envelope_fits(self, example_wd_table):
        start = time.perf_counter()
        grid = make_grid(0.01, 100.0, 200)
        lo_data, hi_data = envelope_of(example_wd_table, SPEC.wi, grid)

        lo_fit = fit(FitProblem(lo_data, 0, 2))
        assert np.allclose(lo_fit.num, [0.1168], rtol=0.10)
        assert np.allclose(lo_fit.den, [1.0, 0.3903, 0.1168], rtol=0.10)

        hi_fit = fit(FitProblem(hi_data, 1, 2))
        assert np.allclose(hi_fit.den, [1.0, 6.79, 13.0], rtol=0.10)
        assert abs(hi_fit.num[0]) <= 0.05

        lo_rep = report(lo_fit, lo_data)
        hi_rep = report(hi_fit, hi_data)
        assert abs(lo_rep.max_mag_error - 0.131) <= 0.5 * 0.131
        assert abs(lo_rep.max_phase_error_deg - (-3.60)) <= 0.5 * 3.60
        assert abs(hi_rep.max_mag_error - 0.1799) <= 0.5 * 0.1799
        assert abs(hi_rep.max_phase_error_deg - 1.74) <= 0.5 * 1.74
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        print(f"\n[criterion 6] PASS envelope fits within 10% of published "
              f"coefficients, max errors within 50% of published ({elapsed:.2f} s)")

    def test_criterion_07_exact_recovery_fitting(self):
        start = time.perf_counter()
        rng = np.random.default_rng(211)
        grid = make_grid(0.01, 100.0, 60)
        for _ in range(50):
            tf = random_stable_tf(rng)
            data = freq_response(tf, grid)
            fitted = fit(FitProblem(data, tf.num_degree, tf.den_degree))
            ref_num = tf.num / tf.den[0]
            ref_den = tf.den / tf.den[0]
            assert np.max(np.abs(fitted.num - ref_num) / np.abs(ref_num)) <= 1e-6
            assert np.max(np.abs(fitted.den - ref_den) / np.abs(ref_den)) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        print(f"\n[criterion 7] PASS 50 random transfer functions recovered to "
              f"1e-6 relative ({elapsed:.2f} s)")

    def test_criterion_08_simulator_fidelity(self):
        rng = np.random.default_rng(223)
        worst = 0.0
        for k in range(50):
            params = SecondOrderParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 0.99))
            tf = make_tf(params)
            h = 0.01 / params.omega_n
            trace = step_response(tf, 20.0 / params.omega_n, step_size=h)
            err = np.max(np.abs(trace.values - step_value(params, trace.times)))
            worst = max(worst, err)
            assert err <= 1e-6
            if k < 5:
                fine = step_response(tf, 20.0 / params.omega_n, step_size=h / 2.0)
                assert np.max(np.abs(trace.values - fine.values[::2])) <= 1e-7
        print(f"\n[criterion 8] PASS 50 simulations within {worst:.2e} of the "
              f"closed form; step halving moves samples <= 1e-7")

    def test_criterion_09_inverse_interpolation(self):
        rng = np.random.default_rng(227)
        worst = 0.0
        for _ in range(100):
            zeta = rng.uniform(0.15, 0.95)
            target = rng.uniform(0.15, 0.85)
            t_newton = oracles.newton_on_step(zeta, target)
            t_oracle = oracles.oracle_step_crossing(zeta, target)
            worst = max(worst, abs(t_newton - t_oracle))
            assert abs(t_newton - t_oracle) <= 1e-6
        for _ in range(30):
            coeffs = np.zeros(6)
            coeffs[0] = rng.normal()
            coeffs[1] = rng.uniform(1.0, 2.0)
            for k, divisor in zip(range(2, 6), (2.0, 6.0, 24.0, 120.0)):
                coeffs[k] = rng.normal() * 0.3 / divisor
            ts = np.linspace(0.0, 1.0, 6)
            ys = np.polyval(coeffs[::-1], ts)
            lo, hi = min(ys[2], ys[3]), max(ys[2], ys[3])
            target = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            t_star = newton_inverse_interp(ts, ys, target)
            assert abs(np.polyval(coeffs[::-1], t_star) - target) <= 1e-9
        print(f"\n[criterion 9] PASS 100 step crossings within {worst:.2e} of "
              f"bisection; quintic data inverted to 1e-9")

    def test_criterion_10_cli_determinism(self, tmp_path, example_wd_path):
        runs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            cmd = [
                sys.executable, "-m", "trackbounds",
                "--mp", "0.15", "--tr", "5", "--ts", "30",
                "--dev", "0.03", "--wi", "5",
                "--mode", "envelope", "--wd-table", str(example_wd_path),
                "--out", str(out_dir),
            ]
            proc = subprocess.run(cmd, capture_output=True, check=True)
            # outside pytest a numpy warning is printed, not raised
            assert proc.stderr == b""
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs.append((proc.stdout, files))
        assert runs[0][0] == runs[1][0]
        assert sorted(runs[0][1]) == sorted(runs[1][1])
        for name in runs[0][1]:
            assert runs[0][1][name] == runs[1][1][name]
        assert "summary.txt" in runs[0][1]
        print(f"\n[criterion 10] PASS two CLI runs produced byte-identical "
              f"stdout and {len(runs[0][1])} identical files")
