"""Tests for rational fitting, root cleanup, gain adjustment, and reports."""

import warnings

import numpy as np
import pytest

from trackbounds import (
    FitProblem,
    FrequencyGrid,
    FrequencyResponse,
    NumericalError,
    RationalTF,
    cleanup,
    dc_gain,
    envelope_of,
    family_response,
    fit,
    format_fit_report,
    freq_response,
    gain_adjust,
    make_grid,
    report,
)

from test_tf_model import random_stable_tf


@pytest.fixture(scope="module")
def family_envelopes(example_wd_table):
    grid = make_grid(0.01, 100.0, 200)
    members = family_response(example_wd_table, 5, grid.omegas)
    lower = envelope_of(members, grid, "lower")
    upper = envelope_of(members, grid, "upper")
    return lower, upper


def normalized(coeffs):
    return np.asarray(coeffs, dtype=float) / coeffs[0]


class TestFitProblem:
    def test_order_validation(self):
        grid = make_grid(0.1, 10.0, 20)
        data = FrequencyResponse(grid, np.ones(20, dtype=complex))
        with pytest.raises(ValueError):
            FitProblem(data, 2, 1)
        with pytest.raises(ValueError):
            FitProblem(data, 0, 0)

    def test_sample_count_validation(self):
        grid = make_grid(0.1, 10.0, 4)
        data = FrequencyResponse(grid, np.ones(4, dtype=complex))
        with pytest.raises(ValueError, match="samples"):
            FitProblem(data, 2, 2)


class TestFit:
    def test_first_order_exact_recovery(self):
        tf = RationalTF([1.0], [1.0, 1.0])
        grid = make_grid(0.01, 100.0, 20)
        fitted = fit(FitProblem(freq_response(tf, grid), 0, 1))
        assert np.allclose(fitted.num, [1.0], rtol=1e-6)
        assert np.allclose(fitted.den, [1.0, 1.0], rtol=1e-6)

    def test_random_exact_recovery(self):
        rng = np.random.default_rng(83)
        grid = make_grid(0.01, 100.0, 60)
        for _ in range(10):
            tf = random_stable_tf(rng)
            data = freq_response(tf, grid)
            fitted = fit(FitProblem(data, tf.num_degree, tf.den_degree))
            ref_n = tf.num / tf.den[0]
            ref_d = tf.den / tf.den[0]
            assert np.allclose(fitted.num, ref_n, rtol=1e-6, atol=1e-9 * np.max(np.abs(ref_n)))
            assert np.allclose(fitted.den, ref_d, rtol=1e-6, atol=1e-9)
            resid = freq_response(fitted, grid).values - data.values
            assert np.linalg.norm(resid) <= 1e-8

    def test_lower_envelope_matches_published_fit(self, family_envelopes):
        lower, _ = family_envelopes
        fitted = fit(FitProblem(lower, 0, 2))
        assert np.allclose(fitted.num, [0.1168], rtol=0.10)
        assert np.allclose(fitted.den, [1.0, 0.3903, 0.1168], rtol=0.10)

    def test_upper_envelope_matches_published_fit(self, family_envelopes):
        _, upper = family_envelopes
        fitted = fit(FitProblem(upper, 1, 2))
        assert np.allclose(fitted.den, [1.0, 6.79, 13.0], rtol=0.10)
        assert abs(fitted.num[0]) <= 0.05  # the s-coefficient is negligible
        assert abs(fitted.num[1] - 13.0) / 13.0 < 0.10

    def test_residual_non_increasing_with_denominator_order(self):
        # fixed data: a fourth-order all-pole low-pass sampled across its
        # dynamics, so each richer denominator genuinely fits better
        angles = np.pi / 2.0 + np.pi / 8.0 * np.array([1.0, 3.0])
        poles = np.concatenate([np.exp(1j * angles), np.conj(np.exp(1j * angles))])
        den = np.real(np.poly(poles))
        tf = RationalTF([den[-1]], den)
        grid = make_grid(0.05, 20.0, 60)
        data = freq_response(tf, grid)

        def solved_residual(n, m):
            fitted = fit(FitProblem(data, n, m))
            w_g = np.exp(np.mean(np.log(grid.omegas)))
            sn = 1j * grid.omegas / w_g
            den_n = np.array([c * w_g ** (k - m) for k, c in
                              zip(range(m, -1, -1), fitted.den)])
            num_n = np.array([c * w_g ** (k - m) for k, c in
                              zip(range(n, -1, -1), fitted.num)])
            r = data.values * np.polyval(den_n, sn) - np.polyval(num_n, sn)
            return float(np.linalg.norm(np.concatenate([r.real, r.imag])))

        residuals = [solved_residual(0, m) for m in (2, 3, 4)]
        assert residuals[0] >= residuals[1] >= residuals[2]

    def test_degenerate_grid_raises(self):
        omegas = 1.0 + np.arange(30) * 1e-11
        grid = FrequencyGrid(omegas)
        vals = 1.0 / (1j * omegas + 1.0)
        data = FrequencyResponse(grid, vals)
        with pytest.raises(NumericalError, match="degenerate fit"):
            fit(FitProblem(data, 2, 3))

    def test_overflowing_orders_raise_degenerate_fit(self):
        # |s| reaches 100 on this grid, so s**200 overflows to inf
        grid = make_grid(0.01, 100.0, 401)
        data = freq_response(RationalTF([1.0], [1.0, 1.0, 1.0]), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="degenerate fit"):
                fit(FitProblem(data, 0, 200))

    def test_zero_data_sample_rejected(self):
        grid = make_grid(0.1, 10.0, 20)
        vals = np.ones(20, dtype=complex)
        vals[7] = 0.0
        data = FrequencyResponse(grid, vals)
        with pytest.raises(ValueError, match="1/T'"):
            fit(FitProblem(data, 0, 1))


class TestCleanup:
    def test_clean_tf_returned_unchanged(self):
        tf = RationalTF([2.0], [1.0, 1.4, 1.0])
        assert cleanup(tf) is tf

    def test_right_half_plane_pole_removed(self):
        # den (s+1)(s-2); DC magnitude preserved
        tf = RationalTF([1.0], [1.0, -1.0, -2.0])
        cleaned = cleanup(tf)
        assert np.allclose(cleaned.den, [1.0, 1.0], rtol=1e-12)
        assert np.allclose(cleaned.num, [0.5], rtol=1e-12)
        assert abs(dc_gain(cleaned)) == pytest.approx(abs(dc_gain(tf)), rel=1e-12)

    def test_far_zero_removed_with_loose_tolerance(self):
        tf = RationalTF([0.002, 13.0], [1.0, 6.79, 13.0])
        cleaned = cleanup(tf, zero_tol=1e-2)
        assert cleaned.num_degree == 0
        assert np.allclose(cleaned.den, [1.0, 6.79, 13.0], rtol=1e-12)
        assert abs(dc_gain(cleaned) - 1.0) < 1e-12

    def test_far_zero_kept_at_default_tolerance(self):
        # the published fit itself keeps this zero; the default threshold
        # only strips roots more than four decades beyond the poles
        tf = RationalTF([0.002, 13.0], [1.0, 6.79, 13.0])
        assert cleanup(tf) is tf

    def test_origin_pole_needs_reference_frequency(self):
        tf = RationalTF([1.0], [1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="ref_omega"):
            cleanup(tf)
        cleaned = cleanup(tf, ref_omega=0.01)
        assert np.allclose(cleaned.den, [1.0, 1.0], rtol=1e-12)
        grid = FrequencyGrid(np.array([0.01, 0.02]))
        old = np.abs(freq_response(tf, grid).values[0])
        new = np.abs(freq_response(cleaned, grid).values[0])
        assert abs(old - new) / old < 1e-10

    def test_all_poles_removed_raises(self):
        tf = RationalTF([1.0], np.real(np.poly([1.0, 2.0])))
        with pytest.raises(NumericalError, match="all poles removed"):
            cleanup(tf)

    def test_gain_preserved_for_random_cleanups(self):
        rng = np.random.default_rng(97)
        grid = make_grid(0.01, 100.0, 20)
        for _ in range(10):
            base = random_stable_tf(rng)
            # inject one right-half-plane zero so cleanup must rewrite
            num = np.polymul(base.num, [1.0, -rng.uniform(0.5, 5.0)])
            den = np.polymul(base.den, [1.0, rng.uniform(0.5, 5.0)])
            tf = RationalTF(num, den)
            cleaned = cleanup(tf, ref_omega=0.01)
            old = np.abs(freq_response(tf, grid).values[0])
            new = np.abs(freq_response(cleaned, grid).values[0])
            assert abs(old - new) / old < 1e-10

    def test_tolerance_validation(self):
        tf = RationalTF([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cleanup(tf, zero_tol=0.0)
        with pytest.raises(ValueError):
            cleanup(tf, zero_tol=1.0)
        with pytest.raises(ValueError):
            cleanup(tf, ref_omega=-1.0)


class TestGainAdjust:
    def test_scales_to_target(self):
        tf = RationalTF([0.2], [1.0, 1.0])
        adjusted = gain_adjust(tf)
        assert np.allclose(adjusted.num, [1.0], rtol=1e-12)
        assert dc_gain(adjusted) == pytest.approx(1.0, rel=1e-12)

    def test_identity_when_already_matching(self):
        tf = RationalTF([3.0], [1.0, 2.0, 3.0])
        adjusted = gain_adjust(tf)
        assert np.allclose(adjusted.num, tf.num, rtol=1e-12)

    def test_pole_at_origin_rejected(self):
        tf = RationalTF([1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="origin"):
            gain_adjust(tf)

    def test_zero_dc_gain_rejected(self):
        tf = RationalTF([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="zero DC gain"):
            gain_adjust(tf)


class TestReport:
    def test_self_fit_has_zero_errors(self):
        tf = RationalTF([2.0], [1.0, 0.5, 2.0])
        grid = make_grid(0.01, 100.0, 40)
        rep = report(tf, freq_response(tf, grid))
        assert np.all(rep.mag_error == 0.0)
        assert np.all(rep.phase_error_deg == 0.0)
        assert rep.max_mag_error == 0.0
        assert rep.max_phase_error_deg == 0.0

    def test_error_convention_is_data_minus_fit(self):
        grid = make_grid(0.01, 10.0, 40)
        data = freq_response(RationalTF([1.2], [1.0, 1.2]), grid)
        fitted = RationalTF([1.0], [1.0, 1.0])
        rep = report(fitted, data)
        resp = freq_response(fitted, grid)
        assert np.allclose(rep.mag_error,
                           np.abs(data.magnitude() - resp.magnitude()))
        assert np.allclose(rep.phase_error_deg,
                           np.degrees(data.phase() - resp.phase()))

    def test_max_phase_error_keeps_sign(self):
        grid = make_grid(0.01, 10.0, 40)
        # fit lags the data: data - fit phase is positive where it matters
        data = freq_response(RationalTF([2.0], [1.0, 2.0]), grid)
        fitted = RationalTF([1.0], [1.0, 1.0])
        rep = report(fitted, data)
        assert rep.max_phase_error_deg > 0.0
        assert rep.max_phase_error_deg == np.max(rep.phase_error_deg)

    def test_lower_envelope_report_matches_published_errors(self, family_envelopes):
        lower, _ = family_envelopes
        rep = report(fit(FitProblem(lower, 0, 2)), lower)
        assert abs(rep.max_mag_error - 0.131) <= 0.5 * 0.131
        assert rep.max_phase_error_deg < 0.0
        assert abs(rep.max_phase_error_deg - (-3.6015)) <= 0.5 * 3.6015

    def test_upper_envelope_report_matches_published_errors(self, family_envelopes):
        _, upper = family_envelopes
        rep = report(fit(FitProblem(upper, 1, 2)), upper)
        assert abs(rep.max_mag_error - 0.1799) <= 0.5 * 0.1799
        assert rep.max_phase_error_deg > 0.0
        assert abs(rep.max_phase_error_deg - 1.7387) <= 0.5 * 1.7387


class TestFormatFitReport:
    def test_columns_parse_back(self):
        tf = RationalTF([1.0], [1.0, 1.0])
        grid = make_grid(0.1, 10.0, 8)
        data = freq_response(RationalTF([1.1], [1.0, 1.0]), grid)
        rep = report(tf, data)
        text = format_fit_report(rep)
        lines = text.strip().splitlines()
        header = "omega,mag_data,mag_fit,mag_err,phase_data_deg,phase_fit_deg,phase_err_deg"
        assert lines[0] == header
        assert len(lines) == 9
        row = [float(v) for v in lines[3].split(",")]
        assert len(row) == 7
        assert row[3] == pytest.approx(abs(row[1] - row[2]), rel=1e-12)
        assert row[6] == pytest.approx(row[4] - row[5], rel=1e-12)
