"""trackbounds benchmark.

    python3 perfbench/run.py --workload {sweep,family,cli_paper} --seed N \
        --seconds S --trace {0,1} [--record PATH]

Run from the root of a source checkout; the library is imported from src/.
Prints every metric by name and unit, then, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. The exit code is not 0 when the benchmark itself cannot run.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# one BLAS thread in this process and every child; numpy loads later, in main()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("sweep", "family", "cli_paper")
SETUP_PROBES = 5
PROBE_DEADLINE_S = 60.0
IMPORT_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="PATH", help="also write the run record here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workload(name: str, seed: int, work_dir: str):
    import workloads

    if name == "sweep":
        return workloads.Sweep(seed, work_dir)
    if name == "family":
        return workloads.Family(seed, work_dir)
    return workloads.CliPaper(seed, work_dir, SRC)


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it,
    or the median when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def spread(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_probe_seconds(args) -> list:
    """Fresh interpreters up to the first timed operation, timed from spawn."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_DEADLINE_S)
            line = proc.stdout.readline() if ready else b""
            end = time.perf_counter()
            if line.strip() != b"ready":
                raise RuntimeError("set-up probe did not reach its first operation")
            times.append(end - start)
            proc.wait(PROBE_DEADLINE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return times


def import_probe_ms() -> list:
    """Wall time of a fresh interpreter that imports trackbounds and exits."""
    command = [sys.executable, "-c", "import trackbounds"]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, timeout=PROBE_DEADLINE_S, check=True)
        out.append((time.perf_counter() - start) * 1e3)
    return out


def measure(workload, seconds: float):
    """Closed loop over whole input blocks until `seconds` have passed."""
    results, ops = [], []
    start = time.perf_counter()
    hard_stop = 2 * seconds + 30
    for block in workload.blocks():
        for op in block:
            results.append(workload.run_op(op))
            ops.append(op)
            if time.perf_counter() - start > hard_stop:
                return results, ops, len(results)
        if time.perf_counter() - start >= seconds:
            return results, ops, len(block)


def end_to_end(results, block_size, setup_s, battery_errors, is_cli) -> dict:
    latencies = [r.latency_ms for r in results]
    ok = [r for r in results if r.outcome == "ok"]
    busy_s = sum(latencies) / 1e3
    tail_ms, tail_pct = tail(latencies)
    rt_errors = [e for r in results for e in r.rt_errors]
    if is_cli:
        # largest child per pass, median over passes; a child killed at its
        # deadline is left out, as its size says how far it got in the time
        passes = [results[i:i + block_size] for i in range(0, len(results), block_size)]
        rss_samples = [max((r.rss_mb for r in p if not r.deadline_missed), default=0.0)
                       for p in passes]
    else:
        rss_samples = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms", spread(latencies)),
        "latency_tail_ms": (tail_ms, "ms", {**spread(latencies), "percentile": tail_pct}),
        "ops_per_s": (len(ok) / busy_s, "1/s", {"n": len(results), "busy_s": busy_s}),
        "ok_frac": (len(ok) / len(results), "frac", {"n": len(results)}),
        "setup_s": (statistics.median(setup_s), "s", spread(setup_s)),
        "peak_rss_mb": (statistics.median(rss_samples), "MB", spread(rss_samples)),
        "rt_mp_err_max": (max(battery_errors), "frac",
                          {**spread(battery_errors), "workload_ops": spread(rt_errors),
                           "workload_ops_max": max(rt_errors, default=None)}),
    }
    return metrics


def traced(workload, seconds: float, is_cli: bool, spans_path: str):
    """Per-layer run: every operation runs once untraced and once traced,
    the order alternating by block; the pairs give the tracing overhead."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    if not is_cli:
        tracer.install()
    results, ops, counted, pairs = [], [], [], []
    case_wall = {c.name: [] for c in workloads.CLI_CASES}
    start = time.perf_counter()
    for index, block in enumerate(workload.blocks()):
        for op in block:
            op_id = len(results)
            run = {}
            for kind in ("untraced", "traced")[::1 if index % 2 == 0 else -1]:
                if kind == "untraced":
                    run[kind] = workload.run_op(op)
                elif is_cli:
                    run[kind] = run_traced_child(workload, op, tracer, op_id)
                else:
                    run[kind] = workload.run_op(op, tracer, op_id)
            results.append(run["traced"])
            ops.append(op)
            if index == 0:
                counted.append(op_id)
            if is_cli:
                case_wall[op.name].append(run["untraced"].latency_ms)
            if run["untraced"].outcome == run["traced"].outcome == "ok":
                pairs.append((run["untraced"].latency_ms, run["traced"].latency_ms))
        if time.perf_counter() - start >= seconds:
            break
    tracer.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, range(len(results)), counted)
    untraced_ms = sum(u for u, _ in pairs)
    metrics["trace.overhead_frac"] = (
        sum(t for _, t in pairs) / untraced_ms - 1.0 if untraced_ms else 0.0, "frac")
    metrics["trace.spans"] = (len(tracer.spans) / len(results), "count")
    missing = sorted(set(tracer.missing))
    metrics["trace.missing_layers"] = (len(missing), "count")
    metrics["cli.import_ms"] = (statistics.median(import_probe_ms()), "ms")
    for name, walls in case_wall.items():
        metrics[f"cli.wall_ms.{name}"] = (statistics.median(walls) if walls else 0.0, "ms")
    return results, ops, {k: (v, unit, {}) for k, (v, unit) in metrics.items()}, missing


def run_traced_child(workload, case, tracer, op_id):
    """One CLI invocation under cli_child.py; its spans join this tracer."""
    dump = os.path.join(workload.work_dir, "child_trace.json")
    if os.path.exists(dump):
        os.remove(dump)
    prefix = [sys.executable, os.path.join(HERE, "cli_child.py"), dump, "--"]
    result = workload.run_op(case, command_prefix=prefix)
    if os.path.exists(dump):
        with open(dump, encoding="ascii") as fh:
            data = json.load(fh)
        base = len(tracer.spans)
        for name, start, end, parent, _op, failed in data["spans"]:
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                                 op_id, failed])
        tracer.counts[op_id].update(data["counts"])
        tracer.missing.extend(data["missing"])
    return result


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trackbounds", "__init__.py")):
        print(f"perfbench: no trackbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import trackbounds
    import workloads

    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        workload.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        is_cli = args.workload == "cli_paper"
        missing, battery_problems = [], []
        if args.trace:
            spans_path = os.path.join(ROOT, ".perfbench_out",
                                      f"spans-{args.workload}-{args.seed}.csv")
            results, ops, metrics, missing = traced(workload, args.seconds, is_cli, spans_path)
        else:
            setup_s = setup_probe_seconds(args)
            results, ops, block_size = measure(workload, args.seconds)
            battery_problems, battery_errors = workloads.accuracy_battery()
            metrics = end_to_end(results, block_size, setup_s, battery_errors, is_cli)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    incorrect = sum(r.outcome == "incorrect" for r in results)
    failed = sum(r.outcome != "ok" for r in results)
    problems = {f"accuracy battery: {p}": 1 for p in battery_problems}
    for r in results:
        if r.outcome != "ok":
            key = f"{r.case or 'op'}: {r.outcome}: {r.detail}"[:200]
            problems[key] = problems.get(key, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "trackbounds": trackbounds.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit(),
        "inputs": workload.input_properties(ops),
        "problems": problems,
        "missing_layers": missing,
        "metrics": {k: {"value": v, "unit": u, **extra} for k, (v, u, extra) in metrics.items()},
    }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    for name, (value, unit, _extra) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for key, count in problems.items():
        print(f"not ok x{count}: {key}")
    print(json.dumps({
        "correct": incorrect == 0 and not battery_problems and len(results) > 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _e) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
