"""Tests for polynomial and transfer-function primitives."""

import numpy as np
import pytest

from trackbounds import (
    FrequencyGrid,
    FrequencyResponse,
    NumericalError,
    RationalTF,
    dc_gain,
    eval_poly,
    freq_response,
    make_grid,
    roots,
)


def random_stable_tf(rng, max_zeros=3, max_poles=4):
    """Random strictly stable proper transfer function."""
    m = int(rng.integers(1, max_poles + 1))
    n = int(rng.integers(0, min(m, max_zeros) + 1))

    def lhp_roots(count):
        out = []
        while len(out) < count:
            if count - len(out) >= 2 and rng.random() < 0.5:
                re = -rng.uniform(0.2, 3.0)
                im = rng.uniform(0.3, 4.0)
                out.extend([re + 1j * im, re - 1j * im])
            else:
                out.append(-rng.uniform(0.2, 5.0))
        return out

    den = np.real(np.poly(lhp_roots(m)))
    num = np.real(np.poly(lhp_roots(n))) if n else np.array([1.0])
    # scale so the DC gain lands in a benign range
    gain = rng.uniform(0.1, 10.0) * den[-1] / num[-1]
    return RationalTF(gain * num, den)


class TestEvalPoly:
    def test_constant(self):
        assert eval_poly(np.array([1.0]), 2.0 + 3.0j) == 1.0 + 0.0j

    def test_value_at_zero_is_trailing_coefficient(self):
        assert eval_poly(np.array([1.0, 0.3486, 0.1137]), 0.0) == 0.1137

    def test_known_root(self):
        assert eval_poly(np.array([1.0, 2.0, 1.0]), -1.0) == 0.0

    def test_scalar_argument_gives_python_complex(self):
        # cleanup divides these values; numpy's complex division rounds differently
        assert type(eval_poly(np.array([1.0, 0.3486, 0.1137]), 0.5j)) is complex

    def test_array_argument_shape(self):
        s = 1j * np.linspace(0.1, 1.0, 7)
        vals = eval_poly(np.array([1.0, 1.0]), s)
        assert vals.shape == (7,)
        assert np.allclose(vals, s + 1.0)

    def test_matches_polyval_on_random_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            deg = int(rng.integers(0, 7))
            coeffs = rng.normal(size=deg + 1)
            coeffs[0] = coeffs[0] or 1.0
            s = rng.normal(size=9) + 1j * rng.normal(size=9)
            mine = eval_poly(coeffs, s)
            ref = np.polyval(coeffs, s)
            assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)


class TestRationalTF:
    def test_leading_zeros_are_stripped(self):
        tf = RationalTF(np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.0, 1.0]))
        assert tf.num.tolist() == [2.0]
        assert tf.den.tolist() == [1.0, 1.0]

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0]))

    def test_biproper_accepted(self):
        tf = RationalTF(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert tf.num_degree == tf.den_degree == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(np.array([1.0]), np.array([0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(np.array([np.nan]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RationalTF(np.array([1.0]), np.array([1.0, np.inf]))


class TestFrequencyGrid:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0, 1.0, 2.0]))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.0, 1.0]))

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0]))


class TestFreqResponse:
    def test_first_order_at_unit_frequency(self):
        tf = RationalTF(np.array([1.0]), np.array([1.0, 1.0]))
        grid = FrequencyGrid(np.array([1.0, 2.0]))
        resp = freq_response(tf, grid)
        assert abs(resp.values[0] - (0.5 - 0.5j)) < 1e-15

    def test_unity_function(self):
        tf = RationalTF(np.array([1.0]), np.array([1.0]))
        grid = make_grid(0.01, 100.0, 20)
        resp = freq_response(tf, grid)
        assert np.allclose(resp.values, 1.0)
        assert np.allclose(resp.phase(), 0.0)

    def test_low_frequency_magnitude_matches_dc_gain(self):
        tf = RationalTF(np.array([0.1137]), np.array([1.0, 0.3486, 0.1137]))
        grid = FrequencyGrid(np.array([1e-6, 1e-5]))
        resp = freq_response(tf, grid)
        assert abs(resp.magnitude()[0] - 1.0) < 1e-6

    def test_pole_on_grid_raises(self):
        tf = RationalTF(np.array([1.0]), np.array([1.0, 0.0, 1.0]))
        grid = FrequencyGrid(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(NumericalError, match="omega = 1.0"):
            freq_response(tf, grid)

    def test_phase_is_unwrapped_and_anchored_low(self):
        tf = RationalTF(np.array([1.0]), np.array([1.0, 0.2, 1.0]))
        grid = make_grid(0.01, 100.0, 400)
        phase = freq_response(tf, grid).phase()
        # continuous: no jump close to 2*pi between neighbors
        assert np.max(np.abs(np.diff(phase))) < np.pi
        # anchored near zero at the low end, ends near -pi
        assert abs(phase[0]) < 0.1
        assert abs(phase[-1] + np.pi) < 0.1

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        grid = make_grid(0.05, 50.0, 30)
        for _ in range(10):
            tf = random_stable_tf(rng)
            pos = eval_poly(tf.num, 1j * grid.omegas) / eval_poly(tf.den, 1j * grid.omegas)
            neg = eval_poly(tf.num, -1j * grid.omegas) / eval_poly(tf.den, -1j * grid.omegas)
            assert np.allclose(neg, np.conj(pos), rtol=1e-12)

    def test_response_of_product_is_product_of_responses(self):
        rng = np.random.default_rng(17)
        grid = make_grid(0.05, 50.0, 25)
        for _ in range(8):
            a = random_stable_tf(rng)
            b = random_stable_tf(rng)
            prod = RationalTF(np.polymul(a.num, b.num), np.polymul(a.den, b.den))
            lhs = freq_response(prod, grid).values
            rhs = freq_response(a, grid).values * freq_response(b, grid).values
            assert np.allclose(lhs, rhs, rtol=1e-10)


class TestRoots:
    def test_double_root(self):
        r = roots(np.array([1.0, 2.0, 1.0]))
        assert np.allclose(sorted(r.real), [-1.0, -1.0], atol=1e-8)
        assert np.allclose(r.imag, 0.0, atol=1e-8)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="no roots"):
            roots(np.array([3.0]))

    def test_reconstruction_and_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            deg = int(rng.integers(1, 7))
            coeffs = np.concatenate([[1.0], rng.normal(size=deg)])
            r = roots(coeffs)
            rebuilt = np.real(np.poly(r))
            scale = np.max(np.abs(coeffs))
            assert np.allclose(rebuilt, coeffs, atol=1e-8 * scale)
            residuals = np.abs(eval_poly(coeffs, r))
            assert np.all(residuals <= 1e-8 * scale)

    def test_published_quadratic(self):
        r = roots(np.array([1.0, 0.3486, 0.1137]))
        assert np.allclose(r.real, -0.1743, atol=1e-10)
        assert np.allclose(np.abs(r), np.sqrt(0.1137), rtol=1e-12)


class TestDcGain:
    def test_unity(self):
        tf = RationalTF(np.array([0.1137]), np.array([1.0, 0.3486, 0.1137]))
        assert dc_gain(tf) == 1.0

    def test_with_numerator_dynamics(self):
        tf = RationalTF(np.array([0.002, 13.0]), np.array([1.0, 6.79, 13.0]))
        assert dc_gain(tf) == 1.0

    def test_pole_at_origin_rejected(self):
        tf = RationalTF(np.array([1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="origin"):
            dc_gain(tf)


class TestFrequencyResponseContainer:
    def test_length_mismatch_rejected(self):
        grid = FrequencyGrid(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            FrequencyResponse(grid, np.array([1.0 + 0j, 2.0 + 0j]))

    def test_magnitude_and_phase(self):
        grid = FrequencyGrid(np.array([1.0, 2.0]))
        resp = FrequencyResponse(grid, np.array([1.0 + 1.0j, -2.0 + 0.0j]))
        assert np.allclose(resp.magnitude(), [np.sqrt(2.0), 2.0])
        assert abs(resp.phase()[0] - np.pi / 4) < 1e-15
