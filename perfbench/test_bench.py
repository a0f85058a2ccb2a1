"""Tests of the benchmark's own instruments.

    PYTHONPATH=src python -m pytest perfbench -q

They pin the deterministic layer counts of the paper's worked example and
check that the output checks flag bad bounds, so a later change to the
library that moves a count, or a broken check, shows here first.
"""

import dataclasses
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import trackbounds  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKED = trackbounds.Spec(**workloads.WORKED)


def traced_counts(mode: str):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        trackbounds.pipeline.run_pipeline(WORKED, mode=mode)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert tracer.missing == []
    return tracer.counts[0]


@pytest.mark.parametrize("mode", ["low", "high", "envelope"])
def test_worked_example_counts(mode):
    counts = traced_counts(mode)
    assert counts["timing.newton_calls"] == 107
    assert counts["timing.newton_fallbacks"] == 25
    assert counts["wd.pairs"] == 10
    assert counts["simulate.step_calls"] == 2
    assert counts["simulate.samples_kept"] == 20002
    assert counts["simulate.samples_computed"] == 20002
    if mode == "envelope":
        # 10 pairs x 5 multipliers x 200 points, once per side
        assert counts["tf_model.freq_points.envelope"] == 20000
        assert counts["ratfit.fit_calls"] == 2
        assert counts["ratfit.roots_removed"] == 0


def test_counts_repeat_exactly():
    assert traced_counts("envelope") == traced_counts("envelope")


def test_uninstall_restores_bindings():
    before = trackbounds.simulate.step_response
    tracer = tracing.Tracer()
    tracer.install()
    assert trackbounds.simulate.step_response is not before
    tracer.uninstall()
    assert trackbounds.simulate.step_response is before


def test_missing_binding_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install((("trackbounds.pipeline", "no_such_stage", "pipeline"),
                    ("trackbounds.no_such_module", "fit", "ratfit")))
    tracer.uninstall()
    assert tracer.missing == ["trackbounds.pipeline.no_such_stage",
                              "trackbounds.no_such_module.fit"]


def test_self_time_excludes_children():
    spans = [["pipeline.run_pipeline", 0.0, 1.0, -1, 0, False],
             ["simulate.step_response", 0.2, 0.5, 0, 0, False],
             ["simulate.step_response", 0.6, 0.9, 0, 0, True],
             ["pipeline.run_pipeline", 2.0, 2.5, -1, 1, False]]
    times = tracing.op_times(spans)
    assert times[0]["self"]["pipeline.run_pipeline"] == pytest.approx(400.0)
    assert times[0]["incl"]["simulate.step_response"] == pytest.approx(600.0)
    assert times[1]["self"]["pipeline.run_pipeline"] == pytest.approx(500.0)


def test_open_spans_close_at_the_signal():
    tracer = tracing.Tracer()
    tracer.spans = [["simulate.settled_step_response", 0.0, None, -1, 0, True]]
    tracer.close_open_spans()
    assert tracer.spans[0][2] > 0.0


def worked_skeleton(mode="low"):
    return trackbounds.summary_skeleton(trackbounds.run_pipeline(WORKED, mode=mode))


def test_checks_pass_the_worked_example():
    result = trackbounds.run_pipeline(WORKED, mode="envelope")
    problems, rt_errors = checks.result_problems(result)
    assert problems == []
    assert len(rt_errors) == 2 and max(rt_errors) < 1e-3


def test_checks_flag_an_unstable_bound():
    doc = dataclasses.replace(worked_skeleton(), lower_den=(1.0, -0.2, 1.0))
    problems, _ = checks.summary_problems(doc)
    assert any("lower: not strictly stable" in p for p in problems)


def test_checks_flag_a_negative_gain_bound():
    doc = worked_skeleton("high")
    doc = dataclasses.replace(doc, upper_num=tuple(-c for c in doc.upper_num))
    problems, _ = checks.summary_problems(doc)
    assert problems == ["upper: DC gain not positive"]


def test_checks_flag_a_dishonest_final_value():
    doc = worked_skeleton()
    final = dataclasses.replace(doc.final, lower=dataclasses.replace(
        doc.final.lower, final_value=2.0 * doc.final.lower.final_value))
    problems, _ = checks.summary_problems(dataclasses.replace(doc, final=final))
    assert len(problems) == 1 and problems[0].startswith("lower: final value")


def test_closed_form_overshoot():
    # zeta = 0.5: exp(-pi * 0.5 / sqrt(0.75))
    assert checks.closed_form_overshoot([4.0], [1.0, 2.0, 4.0]) == pytest.approx(
        math.exp(-math.pi / math.sqrt(3.0)))
    assert checks.closed_form_overshoot([1.0], [1.0, 3.0, 1.0]) == 0.0
    assert checks.closed_form_overshoot([1.0, 1.0], [1.0, 2.0, 4.0]) is None


def test_cli_outcomes(tmp_path):
    cli = workloads.CliPaper(0, str(tmp_path), "")
    d1 = workloads.CLI_CASES[4]
    low = workloads.CLI_CASES[0]
    stage_fail = b"trackbounds: numerical failure: round_trip: did not settle\n"
    assert cli.judge(d1, 2, b"", stage_fail)[0] == workloads.OK
    assert cli.judge(d1, 1, b"", b"MemoryError\n")[0] == workloads.FAILED
    assert cli.judge(d1, None, b"", b"")[0] == workloads.FAILED
    assert cli.judge(low, 2, b"", stage_fail)[0] == workloads.FAILED
    expected = cli.expected["low"].encode("ascii")
    assert cli.judge(low, 0, expected, b"")[0] == workloads.OK
    assert cli.judge(low, 0, expected.replace(b"mode = low", b"mode = high"), b"")[0] \
        == workloads.INCORRECT


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


@pytest.mark.parametrize("cls", [workloads.Sweep, workloads.Family])
def test_inputs_repeat_for_a_seed(cls, tmp_path):
    first = next(cls(7, str(tmp_path)).blocks())
    again = next(cls(7, str(tmp_path)).blocks())
    other = next(cls(8, str(tmp_path)).blocks())
    assert first == again and first != other
