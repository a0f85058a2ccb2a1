"""Tests for crossing solvers, rise/settling times, and trace metrics."""

import warnings

import numpy as np
import pytest

import oracles
from trackbounds import (
    NumericalError,
    SecondOrderParams,
    Spec,
    ToleranceBand,
    TimeDomainMetrics,
    build_wd,
    extract_metrics,
    make_tf,
    newton_inverse_interp,
    omega_n_for,
    omega_ns_for,
    step_response,
    step_value,
    timing,
    unit_rise_time,
    unit_settling_time,
)

BAND = ToleranceBand(0.03)
WORKED = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)

# frozen reference values from the independent bisection oracle in oracles.py
RISE_051696 = 1.670969076362589
RISE_091723 = 2.9612920311054034
RISE_096687 = 3.195725676852441
SETTLE_051696 = 5.5814280585890765
SETTLE_091723 = 4.569946158127828


@pytest.fixture(scope="module")
def frozen_oracles():
    """Recompute the frozen constants so drift in either side is caught."""
    return {
        "rise_051696": oracles.oracle_rise_time(0.51696),
        "rise_091723": oracles.oracle_rise_time(0.91723),
        "rise_096687": oracles.oracle_rise_time(0.96687),
        "settle_051696": oracles.oracle_settling_time(0.51696, 0.03),
        "settle_091723": oracles.oracle_settling_time(0.91723, 0.03),
    }


def test_oracle_constants_are_current(frozen_oracles):
    assert abs(frozen_oracles["rise_051696"] - RISE_051696) < 1e-9
    assert abs(frozen_oracles["rise_091723"] - RISE_091723) < 1e-9
    assert abs(frozen_oracles["rise_096687"] - RISE_096687) < 1e-9
    assert abs(frozen_oracles["settle_051696"] - SETTLE_051696) < 1e-7
    assert abs(frozen_oracles["settle_091723"] - SETTLE_091723) < 1e-7


class TestNewtonInverseInterp:
    def test_linear_data_is_exact(self):
        t = np.arange(6.0)
        assert abs(newton_inverse_interp(t, 3.0 * t + 1.0, 8.5) - 2.5) < 1e-12

    def test_quintic_polynomials_are_exact(self):
        # gently curved monotone quintics: one root in the window, which
        # Newton-Raphson reaches from the secant start
        rng = np.random.default_rng(31)
        for _ in range(25):
            coeffs = np.zeros(6)
            coeffs[4] = rng.uniform(1.0, 2.0)  # linear term
            coeffs[5] = rng.normal()
            for pos, fact in zip((3, 2, 1, 0), (2.0, 6.0, 24.0, 120.0)):
                coeffs[pos] = rng.normal() * 0.3 / fact  # t^2 .. t^5 terms
            t = np.linspace(0.0, 1.0, 6)
            f = np.polyval(coeffs, t)
            target = float(rng.uniform(min(f[1], f[4]), max(f[1], f[4])))
            t_hat = newton_inverse_interp(t, f, target)
            # reference root of p(t) = target inside the window
            shifted = coeffs.copy()
            shifted[-1] -= target
            r = np.roots(shifted)
            real = r[np.abs(r.imag) < 1e-9].real
            real = real[(real >= -1e-6) & (real <= 1.0 + 1e-6)]
            assert real.size
            assert min(abs(real - t_hat)) < 1e-9

    def test_step_response_crossing(self):
        t = np.linspace(1.9, 2.4, 6)
        f = np.array([oracles.step_scalar(0.51696, ti) for ti in t])
        t_hat = newton_inverse_interp(t, f, 0.9)
        assert abs(t_hat - 2.1605660) < 1e-3
        assert abs(t_hat - oracles.oracle_step_crossing(0.51696, 0.9)) < 1e-6

    def test_random_step_windows_match_bisection(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            zeta = float(rng.uniform(0.1, 0.99))
            target = float(rng.uniform(0.05, 0.95))
            t_hat = oracles.newton_on_step(zeta, target)
            assert abs(t_hat - oracles.oracle_step_crossing(zeta, target)) < 1e-6

    def test_sample_count_enforced(self):
        t = np.arange(5.0)
        with pytest.raises(ValueError, match="six"):
            newton_inverse_interp(t, t, 2.0)
        rows = np.arange(12.0).reshape(2, 6)
        with pytest.raises(ValueError, match="six"):
            newton_inverse_interp(rows, rows, 2.0)

    def test_equal_spacing_enforced(self):
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.5])
        with pytest.raises(ValueError, match="equally spaced"):
            newton_inverse_interp(t, t, 2.0)

    def test_unbracketed_target_rejected(self):
        t = np.arange(6.0)
        with pytest.raises(ValueError, match="bracketed"):
            newton_inverse_interp(t, t, 9.0)

    def test_flat_data_raises_numerical(self):
        t = np.arange(6.0)
        f = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(NumericalError, match="diverged"):
            newton_inverse_interp(t, f, 0.5)

    @pytest.mark.parametrize("lo, hi", [
        (69000.0, 69000.01), (69000.0, 69000.001), (68999.99, 69000.03), (69000.0, 69000.000012),
    ])
    def test_linspace_samples_far_from_zero_are_equally_spaced(self, lo, hi):
        # their spacings differ by a few ulps of 6.9e4, far above 1e-12
        t = np.linspace(lo, hi, 6)
        t_hat = newton_inverse_interp(t, 2.0 * (t - lo), hi - lo)
        assert abs(t_hat - (lo + hi) / 2) <= 1e-10 * hi

    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(83)
        times, values, targets = [], [], []
        for _ in range(12):
            zeta = float(rng.uniform(0.1, 0.99))
            t = float(rng.uniform(0.2, 2.0)) + 0.1 * np.arange(6.0)
            times.append(t)
            values.append(step_value(SecondOrderParams(1.0, zeta), t))
            targets.append(float(rng.uniform(values[-1][0], values[-1][-1])))
        t = np.arange(6.0)
        failing = [  # unequal spacing, an infinite time, unbracketed, flat, diverging
            (np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.5]), t, 2.0),
            (np.array([0.0, 1.0, 2.0, 3.0, 4.0, np.inf]), t, 2.0),
            (t, t, 9.0),
            (t, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), 0.5),
            (t, np.array([0.0, 1e-300, 1.0, -1e300, 1e300, 1.0]), 0.5),
        ]
        for tf, ff, target in failing:
            times.append(tf)
            values.append(ff)
            targets.append(target)
        rows, status = timing._invert_rows(np.array(times), np.array(values), np.array(targets))
        assert rows.shape == status.shape == (len(times),)
        for k, (tf, ff, target) in enumerate(zip(times, values, targets)):
            ref = oracles.loop_newton_inverse(tf, ff, target)
            assert np.isnan(rows[k]) if ref is None else rows[k] == ref
            try:
                assert rows[k] == newton_inverse_interp(tf, ff, target)
            except (ValueError, NumericalError):
                assert np.isnan(rows[k])
        assert np.isnan(rows[-len(failing):]).all()
        assert np.isfinite(rows[:-len(failing)]).all()
        assert (status[:-len(failing)] == timing._OK).all()
        assert (status[-len(failing):] != timing._OK).all()


def newton_statuses(monkeypatch):
    """Status of every row the crossing solver hands to Newton-Raphson."""
    solve = timing._invert_rows
    statuses = []

    def recorded(times, values, target):
        est, status = solve(times, values, target)
        statuses.extend(status.tolist())
        return est, status

    monkeypatch.setattr(timing, "_invert_rows", recorded)
    return statuses


class TestRefinedCrossing:
    def test_unsolved_crossing_stops_at_the_level_cap(self, monkeypatch):
        def diverge(times, values, target):
            return np.full(len(times), np.nan), np.full(len(times), timing._DIVERGED)

        pairs = len(build_wd(WORKED, zeta_step=0.01))
        timing._unit_times.cache_clear()
        step = timing.closed_form_step
        widths = []

        def sampled(decay, root, wd, phi, t):
            widths.append(t.shape)
            return step(decay, root, wd, phi, t)

        monkeypatch.setattr(timing, "_invert_rows", diverge)
        monkeypatch.setattr(timing, "closed_form_step", sampled)
        with pytest.raises(NumericalError, match="did not converge"):
            build_wd(WORKED, zeta_step=0.01)
        # every level evaluates every row, and never more than 17 samples of
        # it, while the last level's grid has 5 * 2**19 + 1 points
        assert len(widths) == 20
        assert all(rows == 3 * pairs and width <= 17 for rows, width in widths)

    @pytest.mark.parametrize("zeta_step", [0.05, 0.01])
    def test_worked_example_sweep_never_raises(self, monkeypatch, zeta_step):
        # no row of any refinement level fails its Newton-Raphson solve
        statuses = newton_statuses(monkeypatch)
        build_wd(WORKED, zeta_step=zeta_step)
        assert statuses and set(statuses) == {timing._OK}

    def test_batch_rows_are_independent(self):
        # each damping ratio solved with others gives its one-ratio result
        rng = np.random.default_rng(89)
        for dev in (0.005, 0.03, 0.2):
            zetas = rng.uniform(0.05, 0.99, 25)
            band = ToleranceBand(dev)
            batch = omega_ns_for(zetas, 3.0, 20.0, band)
            single = [omega_n_for(float(z), 3.0, 20.0, band) for z in zetas]
            assert batch.tolist() == single
            assert omega_ns_for(zetas[::-1], 3.0, 20.0, band).tolist() == single[::-1]

    def test_batch_matches_full_grid_loop(self):
        # sampling only near each bracket gives the whole-window results
        rng = np.random.default_rng(97)
        zetas = np.concatenate([rng.uniform(0.05, 0.99, 12), [1e-3, 0.999]])
        rows = [np.concatenate(parts) for parts in
                zip(timing._rise_rows(zetas), timing._settling_rows(zetas, ToleranceBand(0.02)))]
        batch = timing._crossings(*rows)
        for k, (zeta, lo, hi, target) in enumerate(zip(*rows)):
            params = SecondOrderParams(1.0, float(zeta))
            ref = oracles.loop_refined_crossing(lambda t: step_value(params, t), lo, hi, target)
            assert batch[k] == ref

    def test_fine_sweep_emits_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                build_wd(WORKED, zeta_step=0.01)


class TestUnitRiseTime:
    def test_low_damping_member(self):
        t = unit_rise_time(0.51696)
        assert abs(t - 1.6708) < 2e-3
        assert abs(t - RISE_051696) < 2e-6

    def test_mid_damping_member(self):
        # the bisection oracle fixes this value; see the frozen constants
        assert abs(unit_rise_time(0.91723) - RISE_091723) < 2e-6

    def test_high_damping_member(self):
        t = unit_rise_time(0.96687)
        assert abs(t - 3.200) < 5e-3
        assert abs(t - RISE_096687) < 2e-6

    def test_random_damping_matches_oracle(self):
        rng = np.random.default_rng(71)
        for zeta in rng.uniform(0.05, 0.99, 40):
            assert abs(unit_rise_time(zeta) - oracles.oracle_rise_time(zeta)) < 1e-7

    def test_damping_near_0_6_matches_oracle(self):
        # here two coarse refinement levels can agree to 1e-6 while sharing
        # one interpolation error of about 2.5e-7
        rng = np.random.default_rng(73)
        for zeta in rng.uniform(0.59, 0.61, 20):
            assert abs(unit_rise_time(zeta) - oracles.oracle_rise_time(zeta)) < 1e-8

    def test_window_cap_brackets_both_crossings(self):
        # the response reaches 0.9 by the end of the capped window
        zetas = np.concatenate([np.linspace(1e-4, 0.99999, 20001),
                                1 - np.geomspace(1e-5, 0.4, 2000)])
        t_end = np.minimum(np.pi / np.sqrt(1 - zetas**2), timing._RISE_WINDOW)
        values = [step_value(SecondOrderParams(1.0, float(z)), float(t))
                  for z, t in zip(zetas, t_end)]
        assert min(values) >= 0.908

    def test_near_critical_damping_needs_no_extra_levels(self, monkeypatch):
        # the first peak recedes without bound as zeta -> 1; the crossings do not
        statuses = newton_statuses(monkeypatch)
        unit_rise_time(0.9)
        at_0_9 = len(statuses)
        statuses.clear()
        unit_rise_time(0.99999)
        assert len(statuses) <= at_0_9

    def test_monotone_in_damping(self):
        zs = np.linspace(0.2, 0.95, 12)
        rises = [unit_rise_time(z) for z in zs]
        assert all(a < b for a, b in zip(rises, rises[1:]))

    def test_repeatable(self):
        assert unit_rise_time(0.7) == unit_rise_time(0.7)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                unit_rise_time(bad)


class TestUnitSettlingTime:
    def test_low_damping_member(self):
        t = unit_settling_time(0.51696, BAND)
        assert abs(t - 5.58) < 0.02
        assert abs(t - SETTLE_051696) < 1e-5

    def test_mid_damping_member(self):
        t = unit_settling_time(0.91723, BAND)
        assert abs(t - 4.57) < 0.02
        assert abs(t - SETTLE_091723) < 1e-5

    def test_random_damping_matches_oracle(self):
        rng = np.random.default_rng(59)
        cases = [(float(rng.uniform(0.15, 0.98)), 0.03) for _ in range(12)]
        cases += [(float(rng.uniform(0.05, 0.99)), float(rng.choice([0.005, 0.01, 0.05, 0.2])))
                  for _ in range(10)]
        for zeta, dev in cases:
            mine = unit_settling_time(zeta, ToleranceBand(dev))
            ref = oracles.oracle_settling_time(zeta, dev)
            assert abs(mine - ref) < 1e-8

    @pytest.mark.parametrize("zeta", [1e-4, 1 - 1e-5])
    def test_extreme_damping_converges(self, zeta):
        # every crossing comes from a converged Newton estimate, also where
        # the response barely decays or barely overshoots
        assert np.isfinite(unit_rise_time(zeta))
        wide = unit_settling_time(zeta, ToleranceBand(0.9))
        narrow = unit_settling_time(zeta, ToleranceBand(0.001))
        assert np.isfinite(wide) and np.isfinite(narrow)
        assert narrow >= wide

    @pytest.mark.parametrize("zeta, dev", [
        (0.00010035583950070108, 0.001747851604547699),
        (0.0001021720018258611, 0.001079952052013441),
        (0.00011892759354763438, 0.0022425820621359183),
    ])
    def test_late_band_entry_converges(self, zeta, dev):
        # the band is entered near t = 6e4, where absolute sample times
        # round unequally by more than the solver's spacing tolerance
        t = unit_settling_time(zeta, ToleranceBand(dev))
        assert abs(abs(oracles.step_scalar(zeta, t) - 1.0) - dev) < 1e-12

    def test_tighter_band_settles_no_sooner(self):
        for zeta in (0.3, 0.52, 0.7, 0.9):
            loose = unit_settling_time(zeta, ToleranceBand(0.05))
            tight = unit_settling_time(zeta, ToleranceBand(0.02))
            assert tight >= loose - 1e-9

    def test_band_validation(self):
        with pytest.raises(ValueError):
            ToleranceBand(1.0)
        with pytest.raises(ValueError):
            ToleranceBand(0.0)
        with pytest.raises(ValueError):
            ToleranceBand(-0.1)


class TestOmegaNFor:
    def test_published_family_seed(self):
        wn = omega_n_for(0.51696, 5.0, 30.0, BAND)
        assert abs(wn - 0.3342) < 2e-3
        ref = max(RISE_051696 / 5.0, SETTLE_051696 / 30.0)
        assert abs(wn - ref) < 1e-6

    def test_settling_dominated_branch(self):
        wn = omega_n_for(0.51696, 1e9, 30.0, BAND)
        assert abs(wn - 0.186) < 1e-3
        assert abs(wn - SETTLE_051696 / 30.0) < 1e-6

    def test_worked_example_sweep_matches_oracle(self):
        table = build_wd(WORKED, zeta_step=0.01)
        for zeta, wn in zip(table.zetas(), table.omega_ns()):
            ref = oracles.oracle_omega_n(zeta, WORKED.tr, WORKED.ts, WORKED.dev)
            assert abs(wn - ref) <= 1e-9 * ref

    def test_homogeneity_is_exact(self):
        a = omega_n_for(0.6, 5.0, 30.0, BAND)
        b = omega_n_for(0.6, 10.0, 60.0, BAND)
        assert b == a / 2.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            omega_n_for(0.5, 0.0, 30.0, BAND)
        with pytest.raises(ValueError):
            omega_n_for(0.5, 5.0, -1.0, BAND)


class TestUnitTimesCache:
    def test_specs_differing_in_tr_ts_share_one_solve(self, monkeypatch):
        solves = []
        crossings = timing._crossings

        def counted(*rows):
            solves.append(len(rows[0]))
            return crossings(*rows)

        monkeypatch.setattr(timing, "_crossings", counted)
        specs = [WORKED, Spec(mp=0.15, tr=2.0, ts=50.0, dev=0.03, wi=5),
                 Spec(mp=0.15, tr=1e3, ts=7.0, dev=0.03, wi=5)]
        hits = [build_wd(spec).omega_ns() for spec in specs]
        assert len(solves) == 1
        for spec, hit in zip(specs, hits):
            timing._unit_times.cache_clear()
            assert np.array_equal(build_wd(spec).omega_ns(), hit)
        assert len(solves) == 1 + len(specs)

    def test_key_is_the_damping_grid_and_dev(self):
        zetas = [0.3, 0.5, 0.7]
        omega_ns_for(zetas, 5.0, 30.0, BAND)
        omega_ns_for(np.array(zetas), 2.0, 10.0, BAND)
        info = timing._unit_times.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        omega_ns_for(zetas, 5.0, 30.0, ToleranceBand(0.05))
        info = timing._unit_times.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)

    def test_callers_cannot_change_cached_times(self):
        zetas = [0.3, 0.5, 0.7]
        first = omega_ns_for(zetas, 5.0, 30.0, BAND)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(omega_ns_for(zetas, 5.0, 30.0, BAND), expected)
        rise, settle = timing._unit_times(np.array(zetas).tobytes(), BAND.dev)
        assert not rise.flags.writeable and not settle.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            settle[0] = 0.0

    def test_failed_solve_is_not_cached(self, monkeypatch):
        def fail(times, values, target):
            raise NumericalError("forced failure")

        with monkeypatch.context() as patched:
            patched.setattr(timing, "_invert_rows", fail)
            with pytest.raises(NumericalError, match="forced failure"):
                build_wd(WORKED)
        assert timing._unit_times.cache_info().currsize == 0
        table = build_wd(WORKED)
        assert np.array_equal(table.omega_ns(),
                              omega_ns_for(table.zetas(), WORKED.tr, WORKED.ts, BAND))


class TestExtractMetrics:
    def test_constant_unit_trace(self):
        t = np.linspace(0.0, 10.0, 50)
        m = extract_metrics(t, np.ones(50), BAND)
        assert m.mp == 0.0
        assert m.tr == 0.0
        assert m.ts == 0.0
        assert m.final_value == 1.0

    def test_plateaued_ramp_has_exact_zero_overshoot(self):
        t = np.linspace(0.0, 15.0, 600)
        m = extract_metrics(t, np.clip(t / 5.0, 0.0, 1.0), BAND)
        assert m.mp == 0.0
        assert abs(m.tr - 4.0) < 1e-9  # 10% to 90% of a ramp to 1 over 5 s
        assert abs(m.ts - 5.0 * (1.0 - BAND.dev)) < 0.05
        assert m.final_value == 1.0

    def test_exponential_trace_rise_time(self):
        t = np.linspace(0.0, 15.0, 600)
        m = extract_metrics(t, 1.0 - np.exp(-t), BAND)
        # strictly increasing trace: the peak exceeds the tail-mean final
        # value by a sliver, so mp is tiny but not exactly zero
        assert m.mp < 1e-6
        # rise of 1 - e^{-t}: t10 = ln(10/9), t90 = ln(10)
        assert abs(m.tr - (np.log(10.0) - np.log(10.0 / 9.0))) < 2e-3
        assert m.ts > 0.0

    def test_closed_form_member_trace(self):
        p = SecondOrderParams(0.3371943060017473, 0.5169126432375071)
        t = np.arange(0.0, 90.0, 0.01)
        m = extract_metrics(t, step_value(p, t), BAND)
        peak = oracles.step_scalar(p.zeta, np.pi / np.sqrt(1 - p.zeta**2))
        assert abs(m.mp - (peak - 1.0)) < 1e-3
        assert abs(m.tr - oracles.oracle_rise_time(p.zeta) / p.omega_n) < 1e-3
        assert abs(m.ts - oracles.oracle_settling_time(p.zeta, 0.03) / p.omega_n) < 1e-2
        assert abs(m.final_value - 1.0) < 1e-3

    def test_simulated_member_trace(self):
        tf = make_tf(SecondOrderParams(0.3371943060017473, 0.5169126432375071))
        trace = step_response(tf, 90.0)
        m = extract_metrics(trace.times, trace.values, BAND)
        assert abs(m.mp - 0.150) < 2e-3
        assert abs(m.tr - 5.00) < 0.05

    def test_unsettled_trace_rejected(self):
        p = SecondOrderParams(1.0, 0.2)
        t = np.arange(0.0, 3.0, 0.01)
        with pytest.raises(ValueError, match="unsettled"):
            extract_metrics(t, step_value(p, t), BAND)

    def test_degenerate_final_rejected(self):
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match="degenerate"):
            extract_metrics(t, np.full(50, -0.5), BAND)

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="20 samples"):
            extract_metrics(t, np.ones(10), BAND)

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            TimeDomainMetrics(mp=-0.1, tr=1.0, ts=1.0, final_value=1.0)
        with pytest.raises(ValueError):
            TimeDomainMetrics(mp=0.1, tr=-1.0, ts=1.0, final_value=1.0)
