"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/seeds.py --workload sweep --seeds 1-10 --seconds 10 \
        [--trace 0] [--out perfbench/records/NAME.json]

Runs run.py once per seed, one run at a time, and prints for every metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
sample count over the runs, with the interquartile spread as a share of
the median next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list, bound) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    share = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": share, "bound": bound}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", metavar="PATH", help="write the runs and the summary here")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    runs = []
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for seed in args.seeds:
            record_path = os.path.join(tmp, f"{seed}.json")
            command = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                          "--seconds", repr(seconds), "--trace",
                                          str(args.trace), "--record", record_path]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=False)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            runs.append({"seed": seed, "result": result, "record": record})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']} {values}", flush=True)

    names = list(runs[0]["result"]["metrics"])
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = summarise(values, bounds.get(name))
        s = summary[name]
        verdict = ""
        if s["bound"] is not None:
            verdict = "steady" if s["iqr_share"] < s["bound"] / 3 else (
                "within bound" if s["iqr_share"] <= s["bound"] else "TOO WIDE")
        print(f"{name:28s} median {s['median']:12.6g} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
              f"n {s['n']:2d} iqr/median {s['iqr_share']:.4f} bound {s['bound']} {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
