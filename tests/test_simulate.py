"""Tests for step-response simulation and round-trip verification."""

import numpy as np
import pytest
from oracles import loop_step_response, oracle_modal_step
from test_tf_model import random_stable_tf
from trackbounds import (
    FinalTD,
    NumericalError,
    RationalTF,
    SecondOrderParams,
    StepTrace,
    ToleranceBand,
    format_trace,
    make_grid,
    make_tf,
    overshoot,
    round_trip,
    run_pipeline,
    select_restricted,
    settled_step_response,
    simulate,
    step_response,
    step_value,
    unit_rise_time,
    unit_settling_time,
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

    def test_step_size_accuracy_contract(self):
        tf = make_tf(MEMBER1)
        with pytest.raises(NumericalError, match="accuracy contract"):
            step_response(tf, 30.0, step_size=0.4)
        with pytest.raises(ValueError, match="positive"):
            step_response(tf, 30.0, step_size=0.0)


def _worked_example_fitted_traces(example_wd_table, example_spec):
    result = run_pipeline(example_spec, mode="envelope", wd_table=example_wd_table)
    return (result.bounds.lower, result.bounds.upper), result.traces


class TestBlockPropagation:
    """Block propagation reproduces the one-step-at-a-time RK4 loop."""

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
    def test_settled_immediately_for_fast_system(self):
        trace = settled_step_response(make_tf(MEMBER1), 30.0, ToleranceBand(0.03))
        assert trace.times[-1] == pytest.approx(90.0, rel=1e-9)
        assert abs(trace.values[-1] - 1.0) <= 1e-3

    def test_slow_oscillator_extends_the_window(self):
        # needs about seven seconds to ring down, so 1.2 s doubles three times
        tf = make_tf(SecondOrderParams(10.0, 0.05))
        trace = settled_step_response(tf, 0.4, ToleranceBand(0.03))
        assert trace.times[-1] == pytest.approx(9.6, rel=1e-9)

    def test_negative_final_value_raises_at_once(self):
        tf = RationalTF([-1.0], [1.0, 1.0])
        with pytest.raises(NumericalError, match="degenerate final value"):
            settled_step_response(tf, 5.0, ToleranceBand(0.03))

    def test_never_settling_trace_raises(self):
        tf = make_tf(SecondOrderParams(1.0, 0.01))
        with pytest.raises(NumericalError, match="extension budget"):
            settled_step_response(tf, 0.001, ToleranceBand(0.0001))


class TestFinalTD:
    def test_low_frequency_bounds_round_trip(self, example_wd_table, example_spec):
        grid = make_grid(0.01, 100.0, 200)
        bounds = select_restricted(example_wd_table, example_spec.wi, grid, "low")
        result, _ = round_trip(bounds, example_spec)
        assert isinstance(result, FinalTD)
        # the upper bound is the least-damped member of the wi-th harmonic
        # family: full overshoot, timings wi times faster than the base spec
        base = example_wd_table.pairs[0]
        w_up = example_spec.wi * base.omega_n
        assert result.upper.mp == pytest.approx(overshoot(base.zeta), abs=1e-3)
        assert result.upper.tr == pytest.approx(unit_rise_time(base.zeta) / w_up, rel=0.01)
        assert result.upper.ts == pytest.approx(
            unit_settling_time(base.zeta, ToleranceBand(example_spec.dev)) / w_up, rel=0.02)
        assert result.upper.final_value == pytest.approx(1.0, abs=1e-3)
        # the lower bound is the most heavily damped base member: essentially
        # no overshoot, and it still meets the requested timings
        assert result.lower.mp <= 0.01
        assert result.lower.tr <= example_spec.tr
        assert result.lower.ts <= example_spec.ts
        assert result.lower.final_value == pytest.approx(1.0, abs=1e-3)


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
