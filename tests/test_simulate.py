"""Tests for step-response simulation and round-trip verification."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import (loop_step_response, modal_terms, oracle_modal_step, oracle_rise_time,
                     oracle_settling_time, step_scalar)
from test_tf_model import random_stable_tf
from trackbounds import (
    MODES,
    BoundPair,
    FinalTD,
    NumericalError,
    RationalTF,
    SecondOrderParams,
    Spec,
    StepTrace,
    TimeDomainMetrics,
    ToleranceBand,
    build_wd,
    dc_gain,
    format_trace,
    make_grid,
    make_tf,
    overshoot,
    round_trip,
    run_pipeline,
    select_restricted,
    settled_trace,
    simulate,
    step_response,
    step_value,
    timing,
    unit_times,
    zeta_min,
)

MEMBER1 = SecondOrderParams(0.3371943060017473, 0.5169126432375071)


class TestStepTrace:
    def test_fields_and_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        y = np.zeros(11)
        trace = StepTrace(t, y, 0.1)
        assert trace.times.shape == trace.values.shape
        with pytest.raises(ValueError, match="matching"):
            StepTrace(t, y[:-1], 0.1)
        with pytest.raises(ValueError, match="matching"):
            StepTrace(t.reshape(1, -1), y.reshape(1, -1), 0.1)
        with pytest.raises(ValueError, match="positive"):
            StepTrace(t, y, 0.0)

    def test_nan_step_size_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="positive"):
            StepTrace(t, np.zeros(11), float("nan"))

    def test_arrays_are_copied(self):
        t = np.linspace(0.0, 1.0, 11)
        y = np.zeros(11)
        trace = StepTrace(t, y, 0.1)
        y[0] = 99.0
        assert trace.values[0] == 0.0


class TestStepResponse:
    def test_trace_layout(self):
        trace = step_response(make_tf(MEMBER1), 30.0, step_size=0.29)
        assert trace.times[0] == 0.0
        assert trace.values[0] == 0.0
        assert trace.step_size == 0.29
        assert len(trace.times) == 104
        assert np.allclose(np.diff(trace.times), 0.29, rtol=1e-12)

    def test_member_matches_closed_form(self):
        tf = make_tf(MEMBER1)
        trace = step_response(tf, 30.0)
        exact = step_value(MEMBER1, trace.times)
        assert np.max(np.abs(trace.values - exact)) <= 1e-6

    def test_random_members_match_closed_form(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            params = SecondOrderParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 0.99))
            tf = make_tf(params)
            trace = step_response(tf, 20.0 / params.omega_n, step_size=0.01 / params.omega_n)
            exact = step_value(params, trace.times)
            assert np.max(np.abs(trace.values - exact)) <= 1e-6

    def test_seeded_members_match_closed_form(self):
        # lightly damped members over long horizons at the default step, where
        # an approximate integrator's phase error builds up
        rng = np.random.default_rng(1)
        for _ in range(300):
            params = SecondOrderParams(10 ** rng.uniform(-2, 2), rng.uniform(0.05, 0.99))
            trace = step_response(make_tf(params), 40.0 / (params.zeta * params.omega_n))
            exact = step_value(params, trace.times)
            assert np.max(np.abs(trace.values - exact)) <= 1e-12

    def test_step_halving_converges(self):
        rng = np.random.default_rng(103)
        for _ in range(3):
            params = SecondOrderParams(rng.uniform(0.1, 10.0), rng.uniform(0.1, 0.99))
            tf = make_tf(params)
            h = 0.01 / params.omega_n
            coarse = step_response(tf, 10.0 / params.omega_n, step_size=h)
            fine = step_response(tf, 10.0 / params.omega_n, step_size=h / 2.0)
            assert np.max(np.abs(coarse.values - fine.values[::2])) <= 1e-7

    def test_long_run_reaches_unit_final_value(self):
        trace = step_response(make_tf(MEMBER1), 115.0)
        assert abs(trace.values[-1] - 1.0) <= 1e-4

    def test_time_compression_is_exact(self):
        # doubling omega_n compresses time: y2(t) = y1(2 t), sample for sample
        slow = step_response(make_tf(SecondOrderParams(0.7, 0.4)), 20.0, step_size=0.02)
        fast = step_response(make_tf(SecondOrderParams(1.4, 0.4)), 10.0, step_size=0.01)
        assert np.max(np.abs(slow.values - fast.values)) <= 1e-9

    def test_biproper_function(self):
        trace = step_response(RationalTF([1.0, 2.0], [1.0, 1.0]), 10.0)
        exact = 2.0 - np.exp(-trace.times)
        assert trace.values[0] == 1.0
        assert np.max(np.abs(trace.values - exact)) <= 1e-6

    def test_static_function_rejected(self):
        with pytest.raises(ValueError, match="static"):
            step_response(RationalTF([2.0], [4.0]), 10.0)

    def test_end_time_validation(self):
        with pytest.raises(ValueError, match="end time"):
            step_response(make_tf(MEMBER1), 0.0)

    def test_unstable_system_rejected(self):
        with pytest.raises(NumericalError, match="strictly stable"):
            step_response(RationalTF([1.0], [1.0, -1.0]), 10.0)

    def test_marginal_system_rejected(self):
        with pytest.raises(NumericalError, match="strictly stable"):
            step_response(RationalTF([1.0], [1.0, 0.0, 1.0]), 10.0)

    def test_step_budget_checked_before_allocation(self):
        # about 6.7e9 steps of two states would need over 100 GB
        with pytest.raises(NumericalError, match="budget"):
            step_response(make_tf(MEMBER1), 1e9)

    def test_trace_memory_is_its_two_arrays(self):
        # 8,000,001 samples: times and values are 61 MiB each, held uncopied
        tracemalloc.start()
        try:
            trace = step_response(make_tf(MEMBER1), 80_000.0, step_size=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.values.size == 8_000_001
        assert peak <= 130 * 2**20
        assert not trace.times.flags.writeable and not trace.values.flags.writeable

    def test_high_order_long_trace_within_budget(self):
        # 1.5e6 steps of 12 states: the budget counts the samples and the block
        # powers, not a per-step state history
        den = np.poly(-0.5 * 1.3 ** np.arange(12))
        tf = RationalTF([den[-1]], den)
        trace = step_response(tf, 15000.0, step_size=0.01)
        assert trace.values.size == 1_500_001
        assert trace.values[-1] == pytest.approx(1.0, abs=1e-12)
        exact = oracle_modal_step(tf, trace.times[:3000])
        assert np.max(np.abs(trace.values[:3000] - exact)) <= 1e-6

    def test_block_powers_count_against_the_budget(self, monkeypatch):
        # 101 samples fit easily; the 129 powers of the 13-square step matrix do not
        monkeypatch.setattr(simulate, "_MAX_TRACE_VALUES", 20000)
        den = np.poly(-0.5 * 1.3 ** np.arange(12))
        with pytest.raises(NumericalError, match="budget"):
            step_response(RationalTF([den[-1]], den), 1.0, step_size=0.01)
        step_response(make_tf(MEMBER1), 1.0, step_size=0.01)

    def test_any_positive_step_size_is_exact(self):
        # 0.4 s is 0.13 / omega_n: a coarse step samples the closed form too
        tf = make_tf(MEMBER1)
        trace = step_response(tf, 30.0, step_size=0.4)
        assert np.max(np.abs(trace.values - step_value(MEMBER1, trace.times))) <= 1e-12
        for step in (0.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                step_response(tf, 30.0, step_size=step)

    def test_first_order_bound_over_a_long_horizon(self):
        # at the default step h = 3e7 s, h |pole| is 2.4e-3: the scaling
        # exponent must come from it, not from h times the input column's 1
        tf = RationalTF([4.91e-10], [1.0, 7.96e-11])
        trace = step_response(tf, 3e11)
        exact = -dc_gain(tf) * np.expm1(-7.96e-11 * trace.times)
        assert np.max(np.abs(trace.values - exact)) <= 1e-12 * dc_gain(tf)

    def test_step_past_the_end_time_rejected(self):
        # checked before the step matrix, which an infinite step fills with nan
        for step in (40.0, float("inf")):
            with pytest.raises(ValueError, match="exceeds the end time"):
                step_response(make_tf(MEMBER1), 30.0, step_size=step)


def _worked_example_fitted_traces(example_wd_table, example_spec):
    result = run_pipeline(example_spec, mode="envelope", wd_table=example_wd_table)
    tfs = (result.bounds.lower, result.bounds.upper)
    return tfs, [settled_trace(tf, example_spec) for tf in tfs]


class TestBlockPropagation:
    """Block propagation reproduces the one-step-at-a-time loop of the same
    exact step."""

    @staticmethod
    def assert_matches_loop(tf, trace):
        loop = loop_step_response(tf, trace.step_size, trace.values.size - 1)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(loop))))
        assert np.max(np.abs(trace.values - loop)) <= tol

    @pytest.mark.parametrize("t_end, step, samples", [
        (30.0, 0.29, 104), (31.75, 0.25, 128), (64.0, 0.25, 257)])
    def test_lengths_around_the_block_size(self, t_end, step, samples):
        tf = make_tf(MEMBER1)
        trace = step_response(tf, t_end, step_size=step)
        assert trace.values.size == samples
        self.assert_matches_loop(tf, trace)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5, 64, 65, 313])
    def test_block_counts_around_the_doubling_steps(self, blocks):
        # the last block is partly filled, and the last doubling of the block
        # starts is clipped unless the count is a power of two
        tf = make_tf(MEMBER1)
        samples = 128 * (blocks - 1) + 77
        trace = step_response(tf, (samples - 1) * 0.25, step_size=0.25)
        assert trace.values.size == samples
        self.assert_matches_loop(tf, trace)

    def test_long_lightly_damped_trace(self):
        # 40,001 samples at the default step 0.05 / omega_n, still ringing
        tf = make_tf(SecondOrderParams(10.0, 0.05))
        trace = step_response(tf, 200.0)
        assert trace.values.size == 40_001
        self.assert_matches_loop(tf, trace)

    @pytest.mark.parametrize("tf", [
        RationalTF([1.0, 2.0], [1.0, 1.0]),
        RationalTF([2.0, 1.0], [1.0, 2.0, 3.0, 1.0]),
    ], ids=["biproper", "third_order_with_zero"])
    def test_orders_and_feedthrough(self, tf):
        self.assert_matches_loop(tf, step_response(tf, 40.0))

    def test_trace_at_the_step_cap(self):
        tf = make_tf(SecondOrderParams(10.0, 0.5))
        trace = step_response(tf, 60.0)
        assert trace.step_size == pytest.approx(0.05 / 10.0, rel=1e-12)
        self.assert_matches_loop(tf, trace)

    def test_seeded_functions(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            tf = random_stable_tf(rng, max_zeros=4)
            self.assert_matches_loop(tf, step_response(tf, rng.uniform(1.0, 60.0)))

    def test_worked_example_fitted_bounds(self, example_wd_table, example_spec):
        tfs, traces = _worked_example_fitted_traces(example_wd_table, example_spec)
        for tf, trace in zip(tfs, traces):
            self.assert_matches_loop(tf, trace)


class TestModalStepResponse:
    """Simulated traces against the exact partial-fraction step response."""

    def test_worked_example_fitted_bounds(self, example_wd_table, example_spec):
        tfs, traces = _worked_example_fitted_traces(example_wd_table, example_spec)
        for tf, trace in zip(tfs, traces):
            exact = oracle_modal_step(tf, trace.times)
            assert np.max(np.abs(trace.values - exact)) <= 1e-6

    def test_seeded_simple_pole_functions(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            tf = random_stable_tf(rng, max_zeros=4)
            trace = step_response(tf, rng.uniform(5.0, 60.0))
            exact = oracle_modal_step(tf, trace.times)
            assert np.max(np.abs(trace.values - exact)) <= 1e-6


class TestSettledStepResponse:
    """The trace settled_trace simulates for a bound, with one horizon sized
    from its poles, and the metrics the simulated reader (_trace_metrics)
    takes off it against the exact DC gain."""

    @staticmethod
    def settle(tf, ts, dev):
        trace = settled_trace(tf, Spec(mp=0.5, tr=ts, ts=ts, dev=dev, wi=1))
        return simulate._trace_metrics(trace, dc_gain(tf), dev), trace

    @staticmethod
    def exact(tf, ts, dev):
        return round_trip(BoundPair(tf, tf), Spec(mp=0.5, tr=ts, ts=ts, dev=dev, wi=1)).lower

    def test_settled_immediately_for_fast_system(self):
        m, trace = self.settle(make_tf(MEMBER1), 30.0, 0.03)
        assert trace.times[-1] == pytest.approx(90.0, rel=1e-9)
        assert abs(trace.values[-1] - 1.0) <= 1e-3
        assert m.final_value == 1.0

    def test_slow_oscillator_extends_the_window(self):
        # needs about seven seconds to ring down, past 3 * ts = 1.2 s: the
        # modal horizon ln(1 / (dev * sqrt(1 - zeta**2))) / (zeta * omega_n)
        params = SecondOrderParams(10.0, 0.05)
        m, trace = self.settle(make_tf(params), 0.4, 0.03)
        horizon = np.log(1.0 / (0.03 * np.sqrt(1.0 - 0.05**2))) / 0.5
        assert horizon == pytest.approx(7.02, abs=5e-3)
        assert trace.times[-1] == pytest.approx(horizon, rel=2e-4)
        # the last band exit lies inside the trace, and none follows it
        assert 1.2 < m.ts < trace.times[-1]
        later = step_value(params, np.linspace(trace.times[-1], 4.0 * horizon, 20001))
        assert np.all(np.abs(later - 1.0) <= 0.03)

    def test_negative_final_value_raises_at_once(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated a bound of negative DC gain")

        monkeypatch.setattr(simulate, "step_response", never)
        with pytest.raises(NumericalError, match="degenerate final value -1.0"):
            self.settle(RationalTF([-1.0], [1.0, 1.0]), 5.0, 0.03)
        with pytest.raises(NumericalError, match="degenerate final value -1.0"):
            self.exact(RationalTF([-1.0], [1.0, 1.0]), 5.0, 0.03)

    def test_static_bound_raises_at_once(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulated a static bound")

        monkeypatch.setattr(simulate, "step_response", never)
        with pytest.raises(ValueError, match="static"):
            self.settle(RationalTF([2.0], [4.0]), 5.0, 0.03)
        with pytest.raises(ValueError, match="static"):
            self.exact(RationalTF([2.0], [4.0]), 5.0, 0.03)

    def test_lightly_damped_trace_settles_within_its_horizon(self):
        # rings down only after ln(1 / (dev * sqrt(1 - zeta**2))) / zeta = 921 s
        tf = make_tf(SecondOrderParams(1.0, 0.01))
        m, trace = self.settle(tf, 0.001, 0.0001)
        assert trace.times[-1] == pytest.approx(921.03, rel=1e-4)
        assert 900.0 < m.ts < trace.times[-1]
        assert m.mp == pytest.approx(overshoot(0.01), rel=1e-4)
        # the member's exact metrics, which round_trip reports, agree
        exact = self.exact(tf, 0.001, 0.0001)
        assert m.ts == pytest.approx(exact.ts, rel=1e-4)
        assert m.tr == pytest.approx(exact.tr, rel=1e-3)

    @pytest.mark.parametrize("a", [0.0, 100.0])
    def test_repeated_pole_round_trips(self, a):
        # (a s + 1) / (s + 1)**2 has no finite residue at its double pole;
        # its step response is 1 - (1 + (1 - a) t) exp(-t)
        m, trace = self.settle(RationalTF([a, 1.0], [1.0, 2.0, 1.0]), 1.0, 0.03)
        assert 3.0 < trace.times[-1] < 30.0
        t = np.linspace(0.0, trace.times[-1], 200001)
        outside = np.abs((1.0 + (1.0 - a) * t) * np.exp(-t)) > 0.03
        assert not outside[-1]
        assert m.final_value == 1.0
        assert m.ts == pytest.approx(t[outside][-1], abs=1e-3)


class TestRoundTripContract:
    @staticmethod
    def seeded_specs(n=200, seed=2026):
        # log-uniform draws: mp 1e-3 to 0.9, tr 0.01 to 100 s, ts 0.1 to 100
        # times tr, dev 1e-3 to 0.5, and wi 1 to 29
        rng = np.random.default_rng(seed)
        for _ in range(n):
            tr = 10 ** rng.uniform(-2, 2)
            yield Spec(mp=10 ** rng.uniform(-3, np.log10(0.9)), tr=tr,
                       ts=tr * 10 ** rng.uniform(-1, 2),
                       dev=10 ** rng.uniform(-3, np.log10(0.5)), wi=int(rng.integers(1, 30)))

    @pytest.fixture(scope="class")
    def seeded_tables(self):
        return [(spec, build_wd(spec)) for spec in self.seeded_specs()]

    def test_seeded_bounds_meet_the_spec_against_their_dc_gain(self, seeded_tables):
        # low and high mode pick whole family members, which meet the spec
        # by construction; every bound of a run that succeeds, envelope fits
        # at (0, 2) included, is measured against its exact DC gain
        worst, envelope_bounds = 0.0, 0
        for spec, table in seeded_tables:
            for mode in ("low", "high", "envelope"):
                try:
                    result = run_pipeline(spec, mode=mode, wd_table=table)
                except NumericalError:
                    assert mode == "envelope"
                    continue
                for tf, m in ((result.bounds.lower, result.final.lower),
                              (result.bounds.upper, result.final.upper)):
                    assert m.final_value == dc_gain(tf)
                    if mode == "envelope":
                        envelope_bounds += 1
                    else:
                        worst = max(worst, m.mp / spec.mp, m.tr / spec.tr, m.ts / spec.ts)
        assert worst <= 1.001
        assert envelope_bounds >= 200

    @staticmethod
    def check_traces(result, counts, key, samples=10**4):
        """Each bound's settled_trace against its modal form, to 1e-9 of its
        DC gain at up to samples evenly spaced samples, the last among them,
        where sum_i |c_i| <= 1e3 dc; a trace over the simulator's budget is
        counted under key instead."""
        for tf in (result.bounds.lower, result.bounds.upper):
            with np.errstate(divide="ignore", invalid="ignore"):
                amplitude = np.sum(np.abs(modal_terms(tf)[1]))
            dc = dc_gain(tf)
            if not amplitude <= 1e3 * dc:
                continue
            try:
                trace = settled_trace(tf, result.spec)
            except NumericalError as exc:
                assert str(exc).startswith("simulation needs "), str(exc)
                counts[key] += 1
                continue
            size = trace.times.size
            kept = np.linspace(0, size - 1, min(size, samples)).round().astype(int)
            exact = oracle_modal_step(tf, trace.times[kept])
            assert np.max(np.abs(trace.values[kept] - exact)) <= 1e-9 * dc

    # The envelope bounds' known defects on the seeded set, counted in runs:
    # how each run exits (the CLI's exit code and the failing stage), and of
    # the runs that exit 0, those where a bound's simulated metric exceeds
    # the spec by more than 1% (F1, per bound and metric, and in all), where
    # the lower bound rises above the lower envelope or the upper bound falls
    # below the upper one by more than 0.1 dB anywhere on the grid (F2), and
    # where the lower bound's magnitude exceeds the upper bound's (F5), and
    # where a bound's DC gain is off 1, the family's, by more than 1% (DC).
    # The counts pin today's defects so that they show: a change that moves
    # one re-pins it and says why.
    LEDGER = {
        (0, 2): {"exit 0": 200, "F1 runs": 51, "F1 lower tr": 43, "F1 lower ts": 8,
                 "F2 runs": 163, "DC lower": 105, "DC upper": 102, "F5 runs": 6},
        (1, 2): {"exit 0": 200, "F1 runs": 51, "F1 lower tr": 43, "F1 lower ts": 8,
                 "F2 runs": 160, "DC lower": 105, "DC upper": 102, "F5 runs": 6},
        (0, 3): {"exit 0": 182, "exit 2 in cleanup": 3, "exit 2 in fit": 14,
                 "exit 2 in round_trip": 1, "F1 runs": 164, "F1 lower tr": 131, "F1 lower ts": 27,
                 "F1 upper mp": 23, "F1 upper ts": 2, "F2 runs": 169, "DC lower": 105,
                 "DC upper": 101},
        (0, 4): {"exit 0": 185, "exit 2 in fit": 14, "exit 2 in round_trip": 1, "F1 runs": 173,
                 "F1 lower mp": 145, "F1 lower tr": 22, "F1 lower ts": 52, "F1 upper mp": 74,
                 "F1 upper tr": 6, "F1 upper ts": 4, "F2 runs": 183, "F5 runs": 66,
                 "DC lower": 171, "DC upper": 183},
        (1, 3): {"exit 0": 186, "exit 2 in fit": 14, "F1 runs": 127, "F1 lower mp": 101,
                 "F1 lower tr": 10, "F1 lower ts": 11, "F1 upper mp": 65, "F1 upper tr": 11,
                 "F1 upper ts": 12, "F2 runs": 136, "F5 runs": 61, "DC lower": 169,
                 "DC upper": 181},
    }

    @pytest.mark.parametrize("zeros, poles", LEDGER)
    def test_envelope_defect_ledger(self, seeded_tables, zeros, poles):
        counts = Counter()
        for spec, table in seeded_tables:
            try:
                result = run_pipeline(spec, mode="envelope", zeros=zeros, poles=poles,
                                      wd_table=table)
            except (ValueError, NumericalError) as exc:
                code = 1 if isinstance(exc, ValueError) else 2
                counts[f"exit {code} in {str(exc).partition(':')[0]}"] += 1
                continue
            counts["exit 0"] += 1
            final = result.final
            misses = [f"F1 {side} {key}"
                      for side, metrics in (("lower", final.lower), ("upper", final.upper))
                      for key in ("mp", "tr", "ts")
                      if getattr(metrics, key) > 1.01 * getattr(spec, key)]
            counts.update(misses)
            lower, upper = (rep.response.magnitude() for rep in result.fit_reports)
            env_lower, env_upper = (rep.data.magnitude() for rep in result.fit_reports)
            crossing_db = 20 * np.log10(max(np.max(lower / env_lower), np.max(env_upper / upper)))
            counts["F1 runs"] += bool(misses)
            counts["F2 runs"] += bool(crossing_db > 0.1)
            counts["F5 runs"] += bool(np.any(lower > upper))
            counts["DC lower"] += bool(abs(final.lower.final_value - 1) > 0.01)
            counts["DC upper"] += bool(abs(final.upper.final_value - 1) > 0.01)
            self.check_traces(result, counts, "traces over budget")
        assert +counts == self.LEDGER[zeros, poles]

    @staticmethod
    def whole_space_draws(n=200, seed=1):
        # every input Spec and the CLI accept: mp and dev each log-uniform in
        # [1e-9, 0.999] or one minus log-uniform in [1e-6, 0.1], tr log-uniform
        # in [1e-6, 1e6] and ts = tr * 10**U(-3, 4), wi 1 to 59, any mode, a
        # zeta step of the four below 1 - zeta_min(mp) (build_wd rejects a
        # larger one), and orders up to (4, 4)
        rng = np.random.default_rng(seed)

        def fraction():
            if rng.random() < 0.5:
                return 10 ** rng.uniform(-9, np.log10(0.999))
            return 1 - 10 ** rng.uniform(-6, -1)

        for _ in range(n):
            tr = 10 ** rng.uniform(-6, 6)
            spec = Spec(mp=fraction(), tr=tr, ts=tr * 10 ** rng.uniform(-3, 4), dev=fraction(),
                        wi=int(rng.integers(1, 60)))
            steps = [z for z in (0.005, 0.01, 0.05, 0.2) if z < 1 - zeta_min(spec.mp)]
            poles = int(rng.integers(1, 5))
            mode = MODES[rng.integers(3)]
            step = steps[rng.integers(len(steps))]
            yield spec, {"mode": mode, "zeta_step": step,
                         "zeros": int(rng.integers(0, poles + 1)), "poles": poles}

    # How the whole-space runs exit, per mode and failing stage, and how
    # many bounds of the runs that exit 0 have a settled_trace over the
    # simulator's budget, so that emit fails on them. The round trip reads
    # family members without a trace, and fails only on the trace budget of
    # a higher-order envelope bound; cleanup fails where it removes every
    # pole, or once where a stable fit has a negative DC gain.
    WHOLE_SPACE = {"low exit 0": 62, "low traces over budget": 3,
                   "high exit 0": 66, "high traces over budget": 22,
                   "envelope exit 0": 59, "envelope traces over budget": 5,
                   "envelope exit 2 in cleanup": 5, "envelope exit 2 in fit": 5,
                   "envelope exit 2 in round_trip": 3}
    STAGES = ("grid", "wd_table", "fit", "select", "envelope", "cleanup", "round_trip")

    def test_whole_space_runs_succeed_soundly_or_fail_in_a_stage(self):
        # every validated input gives a sound bound pair or a numerical
        # failure naming its stage, in bounded time
        counts = Counter()
        for spec, options in self.whole_space_draws():
            mode = options["mode"]
            start = time.perf_counter()
            try:
                result = run_pipeline(spec, **options)
            except (ValueError, NumericalError) as exc:
                stage = str(exc).partition(":")[0]
                assert stage in self.STAGES, str(exc)
                counts[f"{mode} exit {1 if isinstance(exc, ValueError) else 2} in {stage}"] += 1
            else:
                counts[f"{mode} exit 0"] += 1
                self.check_traces(result, counts, f"{mode} traces over budget")
                for tf, m in ((result.bounds.lower, result.final.lower),
                              (result.bounds.upper, result.final.upper)):
                    assert np.max(tf.poles.real) < 0
                    assert m.final_value == dc_gain(tf) > 0
                    assert np.all(np.isfinite([m.mp, m.tr, m.ts]))
            assert time.perf_counter() - start < 10.0
        assert counts == self.WHOLE_SPACE


def _trace(times, values):
    return StepTrace(times, values, times[1] - times[0])


class TestTraceMetrics:
    """The metrics the simulated reader, _trace_metrics, takes off a trace
    such as settled_trace's, against its final value."""

    def test_constant_unit_trace(self):
        m = simulate._trace_metrics(_trace(np.linspace(0.0, 10.0, 50), np.ones(50)), 1.0, 0.03)
        assert m.mp == 0.0
        assert m.tr == 0.0
        assert m.ts == 0.0
        assert m.final_value == 1.0

    def test_plateaued_ramp_has_exact_zero_overshoot(self):
        t = np.linspace(0.0, 15.0, 600)
        m = simulate._trace_metrics(_trace(t, np.clip(t / 5.0, 0.0, 1.0)), 1.0, 0.03)
        assert m.mp == 0.0
        assert abs(m.tr - 4.0) < 1e-9  # 10% to 90% of a ramp to 1 over 5 s
        assert abs(m.ts - 5.0 * (1.0 - 0.03)) < 0.05
        assert m.final_value == 1.0

    def test_exponential_trace_rise_time(self):
        t = np.linspace(0.0, 15.0, 600)
        m = simulate._trace_metrics(_trace(t, 1.0 - np.exp(-t)), 1.0, 0.03)
        # strictly increasing trace: the peak stays below the final value 1,
        # so mp is zero
        assert m.mp < 1e-6
        # rise of 1 - e^{-t}: t10 = ln(10/9), t90 = ln(10)
        assert abs(m.tr - (np.log(10.0) - np.log(10.0 / 9.0))) < 2e-3
        assert m.ts > 0.0

    def test_closed_form_member_trace(self):
        t = np.arange(0.0, 90.0, 0.01)
        m = simulate._trace_metrics(_trace(t, step_value(MEMBER1, t)), 1.0, 0.03)
        peak = step_scalar(MEMBER1.zeta, np.pi / np.sqrt(1 - MEMBER1.zeta**2))
        assert abs(m.mp - (peak - 1.0)) < 1e-3
        assert abs(m.tr - oracle_rise_time(MEMBER1.zeta) / MEMBER1.omega_n) < 1e-3
        assert abs(m.ts - oracle_settling_time(MEMBER1.zeta, 0.03) / MEMBER1.omega_n) < 1e-2
        assert abs(m.final_value - 1.0) < 1e-3

    def test_simulated_member_trace(self):
        tf = make_tf(MEMBER1)
        m = simulate._trace_metrics(step_response(tf, 90.0), dc_gain(tf), 0.03)
        assert abs(m.mp - 0.150) < 2e-3
        assert abs(m.tr - 5.00) < 0.05

    def test_unsettled_trace_rejected(self):
        t = np.arange(0.0, 3.0, 0.01)
        trace = _trace(t, step_value(SecondOrderParams(1.0, 0.2), t))
        with pytest.raises(NumericalError, match="unsettled"):
            simulate._trace_metrics(trace, 1.0, 0.03)

    def test_trace_that_never_rises_rejected(self):
        # settles inside a band of 0.5 around 1.0 without reaching 0.9
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(NumericalError, match="no rise"):
            simulate._trace_metrics(_trace(t, 0.6 * (1.0 - np.exp(-t))), 1.0, 0.5)

    def test_criterion_3_members_through_the_simulated_reader(self):
        # criterion 3's assertions on the reader that bounds other than
        # family members still take: each worked-example member binds its
        # rise or settling requirement to 1% and overshoots at most 0.151
        spec = Spec(mp=0.15, tr=5.0, ts=30.0, dev=0.03, wi=5)
        pairs = build_wd(spec, 0.05).pairs
        assert len(pairs) == 10
        for pair in pairs:
            tf = make_tf(pair)
            m = simulate._trace_metrics(settled_trace(tf, spec), 1.0, spec.dev)
            assert 0.99 <= max(m.tr / spec.tr, m.ts / spec.ts) <= 1.01
            assert m.mp <= 0.151

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            TimeDomainMetrics(mp=-0.1, tr=1.0, ts=1.0, final_value=1.0)
        with pytest.raises(ValueError):
            TimeDomainMetrics(mp=0.1, tr=-1.0, ts=1.0, final_value=1.0)

    @pytest.mark.parametrize("field, match", [
        ("mp", "overshoot"), ("tr", "rise and settling"), ("ts", "rise and settling")])
    def test_nan_metric_rejected(self, field, match):
        values = {"mp": 0.1, "tr": 1.0, "ts": 1.0, "final_value": 1.0, field: float("nan")}
        with pytest.raises(ValueError, match=match):
            TimeDomainMetrics(**values)


class TestMemberRoundTrip:
    """Bounds k/(s^2 + a s + b) with a**2 < 4b read as scaled family members."""

    def test_seeded_members_match_the_closed_form(self):
        # zeta 0.05 to 0.99, omega_n log-uniform 1e-3 to 1e3, k/b 0.5 to 2,
        # with a leading coefficient that is not 1
        rng = np.random.default_rng(2027)
        for _ in range(50):
            zeta, omega_n = rng.uniform(0.05, 0.99), 10 ** rng.uniform(-3, 3)
            gain, lead = rng.uniform(0.5, 2.0), 10 ** rng.uniform(-2, 2)
            dev = 10 ** rng.uniform(-3, np.log10(0.2))
            tf = RationalTF([lead * gain * omega_n**2],
                            [lead, lead * 2 * zeta * omega_n, lead * omega_n**2])
            spec = Spec(mp=0.5, tr=1.0, ts=1.0, dev=dev, wi=1)
            m = round_trip(BoundPair(tf, tf), spec).lower
            assert m.mp == pytest.approx(np.exp(-zeta * np.pi / np.sqrt(1 - zeta**2)), rel=1e-9)
            assert m.tr == pytest.approx(oracle_rise_time(zeta, omega_n), rel=1e-9)
            assert m.ts == pytest.approx(oracle_settling_time(zeta, dev, omega_n), rel=1e-9)
            assert m.final_value == pytest.approx(gain, rel=1e-9)

    def test_both_members_in_one_batch(self, monkeypatch):
        # one crossing search for the two bounds' six crossings
        batches = []
        crossings = timing._crossings

        def recorded(zeta, lo, hi, target):
            batches.append(len(zeta))
            return crossings(zeta, lo, hi, target)

        monkeypatch.setattr(timing, "_crossings", recorded)
        lower = make_tf(SecondOrderParams(0.4, 0.9))
        upper = make_tf(SecondOrderParams(3.0, 0.5))
        round_trip(BoundPair(lower, upper), Spec(mp=0.2, tr=5.0, ts=30.0, dev=0.03, wi=5))
        assert batches == [6]

    @pytest.mark.parametrize("tf", [
        RationalTF([1.0], [1.0, 2.0, 1.0]), RationalTF([1.0], [1.0, 3.0, 1.0]),
        RationalTF([1.0, 1.0], [1.0, 1.0, 1.0]), RationalTF([1.0], [1.0, 2.0, 2.0, 1.0])],
        ids=["critical", "overdamped", "with_zero", "third_order"])
    def test_other_bounds_are_simulated(self, monkeypatch, tf):
        # only the bound's own coefficients choose the reader
        calls = []
        step_response = simulate.step_response
        monkeypatch.setattr(simulate, "step_response",
                            lambda *args: calls.append(None) or step_response(*args))
        m = round_trip(BoundPair(tf, tf), Spec(mp=0.5, tr=10.0, ts=10.0, dev=0.03, wi=1))
        assert len(calls) == 2
        assert m.lower == m.upper


class TestFinalTD:
    """The worked example's low-frequency bounds, both family members, by
    each reader against the independent closed-form oracles."""

    @staticmethod
    def check(result, example_wd_table, example_spec):
        # the upper bound is the least-damped member of the wi-th harmonic
        # family: full overshoot, timings wi times faster than the base spec
        base = example_wd_table.pairs[0]
        w_up = example_spec.wi * base.omega_n
        assert result.upper.mp == pytest.approx(overshoot(base.zeta), abs=1e-3)
        assert result.upper.tr == pytest.approx(oracle_rise_time(base.zeta, w_up), rel=0.01)
        assert result.upper.ts == pytest.approx(
            oracle_settling_time(base.zeta, example_spec.dev, w_up), rel=0.02)
        assert result.upper.final_value == pytest.approx(1.0, abs=1e-3)
        # the lower bound is the most heavily damped base member: essentially
        # no overshoot, and it still meets the requested timings
        assert result.lower.mp <= 0.01
        assert result.lower.tr <= example_spec.tr
        assert result.lower.ts <= example_spec.ts
        assert result.lower.final_value == pytest.approx(1.0, abs=1e-3)

    @staticmethod
    def bounds(example_wd_table, example_spec):
        grid = make_grid(0.01, 100.0, 200)
        return select_restricted(example_wd_table, example_spec.wi, grid, "low")

    def test_low_frequency_bounds_round_trip(self, example_wd_table, example_spec):
        result = round_trip(self.bounds(example_wd_table, example_spec), example_spec)
        assert isinstance(result, FinalTD)
        self.check(result, example_wd_table, example_spec)

    def test_low_frequency_bounds_through_the_simulated_reader(self, example_wd_table,
                                                               example_spec):
        bounds = self.bounds(example_wd_table, example_spec)
        result = FinalTD(*[
            simulate._trace_metrics(settled_trace(tf, example_spec), dc_gain(tf), example_spec.dev)
            for tf in (bounds.lower, bounds.upper)])
        self.check(result, example_wd_table, example_spec)


class TestFormatTrace:
    def test_csv_layout(self):
        trace = step_response(make_tf(MEMBER1), 3.0, step_size=0.29)
        text = format_trace(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 1 + len(trace.times)
        assert lines[1] == "0.0,0.0"
        row = [float(v) for v in lines[5].split(",")]
        assert row[0] == pytest.approx(trace.times[4], rel=1e-15)
        assert row[1] == pytest.approx(trace.values[4], rel=1e-15)
