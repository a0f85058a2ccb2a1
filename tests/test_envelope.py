"""Tests for envelope extraction and the endpoint restriction criteria."""

import tracemalloc

import numpy as np
import pytest
from oracles import complex_hull, family_response, family_tfs
from trackbounds import (
    BoundPair,
    FrequencyResponse,
    NumericalError,
    RationalTF,
    SecondOrderParams,
    Spec,
    WdTable,
    build_wd,
    envelope_of,
    format_envelope,
    freq_response,
    make_grid,
    make_tf,
    scale_omega,
    select_restricted,
)
from trackbounds import family


class TestMakeGrid:
    def test_decade_spacing(self):
        grid = make_grid(0.01, 100.0, 5)
        assert np.allclose(grid.omegas, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-14)

    def test_endpoints_exact(self):
        grid = make_grid(0.01, 100.0, 200)
        assert grid.omegas[0] == pytest.approx(0.01, rel=1e-15)
        assert grid.omegas[-1] == pytest.approx(100.0, rel=1e-15)
        assert grid.omegas.size == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            make_grid(-1.0, 10.0, 10)
        with pytest.raises(ValueError):
            make_grid(0.1, 10.0, 1)

    def test_point_count_must_be_an_integer(self):
        for points in (200.9, 10.0, True):
            with pytest.raises(ValueError, match="grid point count must be an integer >= 2"):
                make_grid(0.01, 100.0, points)
        assert make_grid(0.01, 100.0, np.int64(7)).omegas.size == 7


def assert_envelope_equals(env, ref):
    """Same magnitudes to rtol 1e-14 and phases to 1e-14 rad."""
    np.testing.assert_allclose(env.magnitude(), ref.magnitude(), rtol=1e-14, atol=0)
    np.testing.assert_allclose(env.phase(), ref.phase(), rtol=0, atol=1e-14)


class TestEnvelopeOf:
    def test_single_tf_identity(self):
        # a one-pair table at wi = 1 has one member, both of its envelopes
        pair = SecondOrderParams(1.0, 0.5)
        grid = make_grid(0.01, 100.0, 50)
        ref = freq_response(make_tf(pair), grid)
        for env in envelope_of(WdTable((pair,)), 1, grid):
            assert_envelope_equals(env, ref)

    def test_dominated_member_is_the_lower_envelope(self):
        # at zeta >= 1/sqrt(2) magnitude and phase both fall with omega/omega_n,
        # so the i = 1 member is below and the i = wi member above everywhere
        pair = SecondOrderParams(1.3, 0.8)
        grid = make_grid(0.01, 100.0, 40)
        lo, hi = envelope_of(WdTable((pair,)), 3, grid)
        assert_envelope_equals(lo, freq_response(make_tf(pair), grid))
        assert_envelope_equals(hi, freq_response(make_tf(scale_omega(pair, 3)), grid))

    def test_envelopes_bound_every_member(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 101)
        members = [tf for i in range(1, 6)
                   for tf in family_tfs(example_wd_table, i)]
        lo, hi = envelope_of(example_wd_table, 5, grid)
        for tf in members:
            resp = freq_response(tf, grid)
            assert np.all(lo.magnitude() <= resp.magnitude() + 1e-15)
            assert np.all(hi.magnitude() >= resp.magnitude() - 1e-15)
            assert np.all(lo.phase() <= resp.phase() + 1e-12)
            assert np.all(hi.phase() >= resp.phase() - 1e-12)

    def test_matches_the_complex_hull(self, checked_family):
        table, wi, grid = checked_family
        hull = complex_hull(family_response(table, wi, grid.omegas), grid)
        for env, ref in zip(envelope_of(table, wi, grid), hull):
            assert_envelope_equals(env, ref)

    def test_peak_memory_is_three_float_arrays(self, example_wd_table):
        # three float arrays of one member block, however large the family:
        # here wi * pairs * points = 750,000 entries, which the complex hull
        # read at 64 B each
        grid = make_grid(0.01, 100.0, 1500)
        envelope_of(example_wd_table, 50, grid)
        tracemalloc.start()
        try:
            envelope_of(example_wd_table, 50, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * family._BLOCK_ENTRIES + 2**20

    def test_side_validation(self, example_wd_table):
        grid = make_grid(0.1, 10.0, 10)
        for wi in (0, True, 2.5):
            with pytest.raises(ValueError, match="integer >= 1"):
                envelope_of(example_wd_table, wi, grid)

    def test_budget_is_checked_before_any_allocation(self, example_wd_table):
        grid = make_grid(0.1, 10.0, 200)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="family entries exceed the budget"):
                envelope_of(example_wd_table, 100_000, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_overflowing_member_raises(self, example_wd_table):
        # (omega / omega_n)**2 overflows at the top of the grid: the lower
        # magnitude envelope would read 0 there
        grid = make_grid(0.01, 1e160, 200)
        with pytest.raises(NumericalError, match="not all finite positive normal floats"):
            envelope_of(example_wd_table, 5, grid)


class TestComplexEnvelope:
    def test_round_trip_through_single_tf(self):
        pair = SecondOrderParams(0.7, 0.6)
        grid = make_grid(0.01, 100.0, 64)
        _, env = envelope_of(WdTable((pair,)), 1, grid)
        ref = freq_response(make_tf(pair), grid)
        assert np.allclose(env.values, ref.values, rtol=1e-12)


class TestSelectRestricted:
    def test_low_end_matches_published_pair(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 200)
        pair = select_restricted(example_wd_table, 5, grid, "low")
        assert isinstance(pair, BoundPair)
        assert np.allclose(pair.lower.num, [0.3923], rtol=5e-3)
        assert np.allclose(pair.lower.den, [1.0, 1.149, 0.3923], rtol=5e-3)
        assert np.allclose(pair.upper.num, [2.843], rtol=5e-3)
        assert np.allclose(pair.upper.den, [1.0, 1.743, 2.843], rtol=5e-3)

    def test_high_end_matches_published_pair(self, example_wd_table):
        grid = make_grid(0.01, 100.0, 200)
        pair = select_restricted(example_wd_table, 5, grid, "high")
        assert isinstance(pair, BoundPair)
        assert np.allclose(pair.lower.num, [0.1137], rtol=5e-3)
        assert np.allclose(pair.lower.den, [1.0, 0.3486, 0.1137], rtol=5e-3)
        assert np.allclose(pair.upper.num, [13.59], rtol=5e-3)
        assert np.allclose(pair.upper.den, [1.0, 7.13, 13.59], rtol=5e-3)

    def test_single_member_table(self):
        p = SecondOrderParams(1.1, 0.55)
        table = WdTable((p,))
        grid = make_grid(0.01, 100.0, 30)
        pair = select_restricted(table, 1, grid, "low")
        ref = make_tf(p)
        assert np.array_equal(pair.lower.num, ref.num)
        assert np.array_equal(pair.upper.num, ref.num)

    def test_high_end_lower_bound_has_smallest_omega_n(self):
        rng = np.random.default_rng(71)
        grid = make_grid(0.01, 100.0, 50)
        for _ in range(10):
            zs = np.sort(rng.uniform(0.2, 0.95, size=5))
            if np.any(np.diff(zs) < 1e-3):
                continue
            wns = rng.uniform(0.1, 5.0, size=5)
            table = WdTable(tuple(
                SecondOrderParams(float(w), float(z)) for w, z in zip(wns, zs)
            ))
            pair = select_restricted(table, 1, grid, "high")
            smallest = table.pairs[int(np.argmin(wns))]
            ref = make_tf(smallest)
            assert np.array_equal(pair.lower.den, ref.den)

    def test_low_end_brute_force_and_expansion(self):
        rng = np.random.default_rng(73)
        grid = make_grid(1e-3, 10.0, 50)
        for _ in range(10):
            zs = np.sort(rng.uniform(0.72, 0.99, size=4))
            if np.any(np.diff(zs) < 1e-3):
                continue
            wns = rng.uniform(0.3, 3.0, size=4)
            table = WdTable(tuple(
                SecondOrderParams(float(w), float(z)) for w, z in zip(wns, zs)
            ))
            pair = select_restricted(table, 1, grid, "low")
            members = family_tfs(table, 1)
            mags = [freq_response(tf, grid).magnitude()[0] for tf in members]
            brute = members[int(np.argmin(mags))]
            assert np.array_equal(pair.lower.den, brute.den)
            # low-frequency expansion: |T|^-2 = 1 + (4z^2-2)(w/wn)^2 + ...
            coefs = (4.0 * zs**2 - 2.0) / wns**2
            analytic = members[int(np.argmax(coefs))]
            assert np.array_equal(pair.lower.den, analytic.den)

    def test_magnitude_tie_resolved_toward_lower_damping(self):
        # both members share (4*zeta^2-2)/omega_n^2, so their magnitudes at
        # a very low frequency agree beyond 1e-12 relative
        a = SecondOrderParams(1.0, 0.8)
        b = SecondOrderParams(np.sqrt(1.24 / 0.56), 0.9)
        table = WdTable((a, b))
        grid = make_grid(1e-4, 1.0, 30)
        pair = select_restricted(table, 1, grid, "low")
        ref = make_tf(a)
        assert np.array_equal(pair.lower.den, ref.den)
        assert np.array_equal(pair.upper.den, ref.den)

    def test_chained_near_ties_scan_in_zeta_order(self):
        # (4*zeta^2-2)/omega_n^2 grows by 1.2e-4 per member, so at w = 1e-4
        # each magnitude is about 0.6e-12 relative below the previous one:
        # only the third member beats the first by more than 1e-12
        members = [SecondOrderParams(np.sqrt((4 * z * z - 2) / (0.56 + k * 1.2e-4)), z)
                   for k, z in enumerate((0.8, 0.85, 0.9))]
        table = WdTable(tuple(members))
        grid = make_grid(1e-4, 1.0, 30)
        mags = [freq_response(make_tf(p), grid).magnitude()[0] for p in members]
        steps = [1 - mags[k + 1] / mags[k] for k in range(2)]
        assert all(0.5e-12 < d < 0.7e-12 for d in steps)
        pair = select_restricted(table, 1, grid, "low")
        assert np.array_equal(pair.lower.den, make_tf(members[2]).den)
        assert np.array_equal(pair.upper.den, make_tf(members[0]).den)

    @staticmethod
    def brute_force(members, grid, k, want):
        # scan in zeta order; a later member wins only by more than 1e-12
        mags = [freq_response(tf, grid).magnitude()[k] for tf in members]
        best = 0
        for j, mag in enumerate(mags):
            if want == "min" and mag < mags[best] * (1 - 1e-12):
                best = j
            elif want == "max" and mag > mags[best] * (1 + 1e-12):
                best = j
        return members[best]

    def test_matches_brute_force_over_family_members(self):
        # 100 seeded specs: mp 1e-3-0.9, tr 0.01-100 s, ts 0.1-100 x tr,
        # dev 1e-3-0.5 and wi 1-29, at both damping steps
        rng = np.random.default_rng(79)

        def log_uniform(lo, hi):
            return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

        for zeta_step in (0.05, 0.01) * 50:
            tr = log_uniform(0.01, 100.0)
            spec = Spec(mp=log_uniform(1e-3, 0.9), tr=tr, ts=tr * log_uniform(0.1, 100.0),
                        dev=log_uniform(1e-3, 0.5), wi=int(rng.integers(1, 30)))
            table = build_wd(spec, zeta_step)
            grid = make_grid(rng.uniform(1e-3, 0.1), rng.uniform(10.0, 1e3), 20)
            for end, k in (("low", 0), ("high", -1)):
                pair = select_restricted(table, spec.wi, grid, end)
                lower = self.brute_force(family_tfs(table, 1), grid, k, "min")
                upper = self.brute_force(family_tfs(table, spec.wi), grid, k, "max")
                for got, ref in ((pair.lower, lower), (pair.upper, upper)):
                    assert np.array_equal(got.num, ref.num)
                    assert np.array_equal(got.den, ref.den)

    def test_end_validation(self, example_wd_table):
        grid = make_grid(0.1, 10.0, 10)
        with pytest.raises(ValueError):
            select_restricted(example_wd_table, 5, grid, "middle")


class TestBoundPair:
    def test_stability_required(self):
        stable = make_tf(SecondOrderParams(1.0, 0.5))
        unstable = RationalTF([1.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="stable"):
            BoundPair(stable, unstable)


class TestFormatEnvelope:
    def test_header_and_degrees(self):
        grid = make_grid(1.0, 10.0, 3)
        resp = FrequencyResponse(grid, np.array([1.0, 0.5, 0.1])
                                 * np.exp(1j * np.array([0.0, -np.pi / 2, -np.pi])))
        text = format_envelope(resp)
        lines = text.strip().splitlines()
        assert lines[0] == "omega,mag,phase_deg"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(10.0, rel=1e-12)
        assert float(last[2]) == pytest.approx(-180.0, rel=1e-12)
