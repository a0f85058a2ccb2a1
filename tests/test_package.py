"""Tests for the package's public names."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter

import trackbounds
from trackbounds.cli import build_parser

MODULES = ("errors", "tf_model", "sos_core", "timing", "family", "envelope", "ratfit",
           "simulate", "pipeline")
# exported before the package's names were built from its modules' lists
EXPORTED = """
    __version__ NumericalError RationalTF FrequencyGrid FrequencyResponse eval_poly
    freq_response dc_gain SecondOrderParams zeta_min overshoot step_value make_tf
    scale_omega ToleranceBand TimeDomainMetrics newton_inverse_interp unit_times
    omega_ns_for Spec WdTable build_wd
    member_blocks member_terms format_wd_table parse_wd_table read_wd_table BoundPair
    make_grid envelope_of select_restricted format_envelope FitProblem FitReport fit cleanup
    report format_fit_report StepTrace FinalTD step_response settled_trace round_trip
    format_trace PipelineResult SummaryDoc run_pipeline emit format_summary parse_summary
    summary_skeleton
""".split()
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
# bindings the benchmark's tracer names that refactors have since removed
KNOWN_MISSING = {"trackbounds.family.omega_n_for", "trackbounds.pipeline.extract_metrics",
                 "trackbounds.envelope.freq_response", "trackbounds.pipeline.settled_step_response"}


def test_every_public_name_resolves_once():
    assert [name for name, n in Counter(trackbounds.__all__).items() if n > 1] == []
    assert [name for name in trackbounds.__all__ if not hasattr(trackbounds, name)] == []


def test_exports_are_the_modules_lists():
    modules = [importlib.import_module(f"trackbounds.{name}") for name in MODULES]
    assert trackbounds.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(trackbounds, name) is getattr(module, name), name
    assert len(EXPORTED) == 51
    assert set(EXPORTED) <= set(trackbounds.__all__)
    assert "MODES" in trackbounds.__all__


def test_package_import_leaves_out_the_cli():
    code = "import sys, trackbounds; print('trackbounds.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"


def test_benchmark_tracer_bindings_resolve():
    # the tracer imports only the standard library; a binding it cannot
    # resolve leaves its layer out of a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = tracer.BINDINGS + tracer.CLI_BINDINGS
    unresolved = {f"{module}.{attr}" for module, attr, _ in bindings
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved <= KNOWN_MISSING
    assert len(unresolved) < len(bindings)


def test_readme_flag_table_matches_the_parser():
    # every flag in the first column of the README's table once, and every
    # parser option but --help
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        table = re.search(r"\nFlags:\n\n((?:\|.*\n)+)", fh.read()).group(1)
    documented = [flag for row in table.splitlines()[2:]
                  for flag in re.findall(r"--[a-z][a-z-]*", row.split("|")[1])]
    options = [opt for action in build_parser()._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    assert sorted(documented) == sorted(options)
