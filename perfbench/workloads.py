"""Seeded inputs and the operations of the three benchmark workloads.

Every workload is closed loop with one caller. Its inputs come in blocks
drawn from the seed; a block balances the factors that set an operation's
cost, so runs on different seeds measure the same mix and the run stops
only at a block boundary.

sweep      one spec through run_pipeline, no emit. Modes rotate low, high and
           envelope (0,2); zeta_step is 0.01 for a third of the specs.
family     envelope mode with emit: wide families (wi 10-50) on dense grids
           (up to a few thousand points), mp and dev drawn per op.
cli_paper  one `python -m trackbounds` process at a time on the paper's
           worked configurations, including defects D1 and D2, each under a
           wall-clock deadline and an address-space cap.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import trackbounds
from trackbounds import pipeline

import checks

MODES = ("low", "high", "envelope")
MPS = (0.05, 0.10, 0.15, 0.20, 0.25)
DEVS = (0.02, 0.03, 0.05)
# the paper's worked example
WORKED = {"mp": 0.15, "tr": 5.0, "ts": 30.0, "dev": 0.03, "wi": 5}
# the worked example's wd table as the paper publishes it
PUBLISHED_WD = """zeta,omega_n
0.5169126432375071,0.3371943060017473
0.5669363649478762,0.35832945734337834
0.6169355522810027,0.3819685850956856
0.6669742695629216,0.40841155713324273
0.7168630339814233,0.43794976880916375
0.7668869563365814,0.4702127178203499
0.8168986720984375,0.458257569495584
0.866994093816242,0.5489080068645383
0.9172355506165306,0.6263385665915839
0.9668741032034028,0.7374279625834648
"""

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"


def accuracy_battery() -> tuple[list, list]:
    """Round-trip overshoot errors on fixed specs, the same for every seed.

    The worked example samples its traces at t_end/1e4; the two wi=10 specs
    put their upper bounds at the simulator's step cap of 0.05/|fastest
    pole|. Returns the problems found and the errors of the pure
    second-order bounds.
    """
    problems, errors = [], []
    for spec in (tuple(WORKED.values()), (0.25, 1.0, 8.0, 0.02, 10), (0.05, 2.0, 16.0, 0.02, 10)):
        for mode in MODES:
            result = trackbounds.run_pipeline(trackbounds.Spec(*spec), mode=mode)
            found, rt_errors = checks.result_problems(result)
            problems += [f"{spec} {mode}: {p}" for p in found]
            errors += rt_errors
    return problems, errors


@dataclass
class OpResult:
    """One operation: failed means no result (error, crash or deadline miss),
    incorrect means a result that fails the output checks."""

    latency_ms: float
    outcome: str
    rt_errors: list = field(default_factory=list)
    detail: str = ""
    rss_mb: float = 0.0
    case: str = ""
    deadline_missed: bool = False


@dataclass(frozen=True)
class PipelineOp:
    spec: tuple  # (mp, tr, ts, dev, wi)
    mode: str
    zeta_step: float = 0.05
    points: int = 200
    emit: bool = False

    def run_kwargs(self) -> dict:
        return {"mode": self.mode, "zeta_step": self.zeta_step, "points": self.points}


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class InProcess:
    """Operations that call the library in this process."""

    def __init__(self, seed: int, work_dir: str):
        self.rng = np.random.default_rng(seed)
        self.out_dir = os.path.join(work_dir, "out")

    def blocks(self):
        while True:
            yield self.block()

    def warm_up(self) -> None:
        result = self.run_op(self.warm_up_op)
        if result.outcome != OK:
            raise RuntimeError(f"warm-up operation failed: {result.detail}")

    def run_op(self, op: PipelineOp, tracer=None, op_id=None) -> OpResult:
        spec = trackbounds.Spec(*op.spec)
        start = time.perf_counter()
        if tracer is not None:
            tracer.op = op_id
        try:
            with _deadline(self.deadline_s):
                result = pipeline.run_pipeline(spec, **op.run_kwargs())
                if op.emit:
                    pipeline.emit(result, self.out_dir)
        except DeadlineExceeded as exc:
            return OpResult(self.deadline_s * 1e3, FAILED, detail=str(exc), deadline_missed=True)
        except Exception as exc:  # any error is a failed operation, not a crash
            return OpResult((time.perf_counter() - start) * 1e3, FAILED, detail=repr(exc))
        finally:
            if tracer is not None:
                tracer.op = None
        latency_ms = (time.perf_counter() - start) * 1e3
        problems, rt_errors = checks.result_problems(result)
        if op.emit:
            with open(os.path.join(self.out_dir, "summary.txt"), encoding="ascii") as fh:
                if fh.read() != trackbounds.format_summary(result):
                    problems.append("summary.txt differs from format_summary")
        return OpResult(latency_ms, INCORRECT if problems else OK, rt_errors, "; ".join(problems))


class Sweep(InProcess):
    """A designer's or a batch study's per-spec translation."""

    deadline_s = 10.0
    warm_up_op = PipelineOp(tuple(WORKED.values()), "envelope")

    def block(self) -> list:
        rng = self.rng
        # every (mode, zeta_step, mp) once: zeta_step 0.01 in one slot of three
        combos = [(mode, 0.01 if slot == 2 else 0.05, mp)
                  for mode in MODES for slot in range(3) for mp in MPS]
        ops = []
        for j in rng.permutation(len(combos)):
            mode, zeta_step, mp = combos[j]
            tr = _log_uniform(rng, 0.5, 20.0)
            ts = tr * float(rng.uniform(3.0, 8.0))
            spec = (mp, tr, ts, float(rng.choice(DEVS)), int(rng.integers(1, 11)))
            ops.append(PipelineOp(spec, mode, zeta_step))
        return ops

    @staticmethod
    def input_properties(ops) -> dict:
        seen = set()
        repeats = 0
        for op in ops:
            key = (op.spec[0], op.spec[3], op.zeta_step)
            repeats += key in seen
            seen.add(key)
        n = max(1, len(ops))
        return {
            "ops": len(ops),
            "mode_share": {m: sum(op.mode == m for op in ops) / n for m in MODES},
            "zeta_step_0.01_share": sum(op.zeta_step == 0.01 for op in ops) / n,
            "repeat_share_mp_dev_zeta_step": repeats / n,
            "wi_range": [min(op.spec[4] for op in ops), max(op.spec[4] for op in ops)]
            if ops else [],
        }


def wd_pairs(mp: float, zeta_step: float) -> int:
    """Rows of the wd table: zeta from the overshoot-limited minimum while below 1."""
    r = math.log(mp) / math.pi
    return math.ceil((1.0 - math.sqrt(r * r / (1.0 + r * r))) / zeta_step)


class Family(InProcess):
    """Wide envelope families written out with emit."""

    deadline_s = 30.0
    warm_up_op = PipelineOp(tuple({**WORKED, "wi": 20}.values()), "envelope",
                            points=500, emit=True)

    def block(self) -> list:
        rng = self.rng
        strata = len(MPS)

        def stratified():
            return [(k + rng.uniform()) / strata for k in rng.permutation(strata)]

        # family width and bode_family.csv rows (wi * pairs * points), which
        # set an op's cost, are stratified over the block; every mp once
        ops = []
        for mp, w, r in zip(rng.permutation(MPS), stratified(), stratified()):
            wi = round(10 + 40 * w)
            rows = 6e4 * 4 ** r
            points = int(min(3000, max(200, round(rows / (wi * wd_pairs(mp, 0.05))))))
            tr = _log_uniform(rng, 1.0, 10.0)
            ts = tr * float(rng.uniform(3.0, 8.0))
            spec = (float(mp), tr, ts, float(rng.choice(DEVS)), wi)
            ops.append(PipelineOp(spec, "envelope", points=points, emit=True))
        return ops

    @staticmethod
    def input_properties(ops) -> dict:
        if not ops:
            return {"ops": 0}
        rows = [op.spec[4] * op.points * wd_pairs(op.spec[0], op.zeta_step) for op in ops]
        return {
            "ops": len(ops),
            "wi_range": [min(op.spec[4] for op in ops), max(op.spec[4] for op in ops)],
            "points_range": [min(op.points for op in ops), max(op.points for op in ops)],
            "family_rows_range": [min(rows), max(rows)],
        }


@dataclass(frozen=True)
class CliCase:
    name: str
    args: tuple
    # "exact": exit 0 and stdout equal to the library's format_summary;
    # "bounded": exit 0 with a valid bound pair, or exit 2 naming the stage
    expect: str
    mode: str = "low"
    wd_table: bool = False


def _spec_args(mp, tr, ts, dev, wi) -> tuple:
    return ("--mp", repr(mp), "--tr", repr(tr), "--ts", repr(ts), "--dev", repr(dev),
            "--wi", str(wi))


_WORKED_ARGS = _spec_args(**WORKED)
CLI_CASES = (
    CliCase("low", _WORKED_ARGS + ("--mode", "low"), "exact", "low"),
    CliCase("high", _WORKED_ARGS + ("--mode", "high"), "exact", "high"),
    CliCase("envelope_out", _WORKED_ARGS + ("--mode", "envelope", "--out", "{out}"),
            "exact", "envelope"),
    CliCase("wd_table", _WORKED_ARGS + ("--mode", "envelope", "--wd-table", "{wd}"),
            "exact", "envelope", wd_table=True),
    # D1: the paper's upper-bound fit order applied to both bounds
    CliCase("d1_zeros1_poles2",
            _WORKED_ARGS + ("--mode", "envelope", "--zeros", "1", "--poles", "2"), "bounded"),
    # D2: a stiff spec that asks the simulator for about 1e9 RK4 steps
    CliCase("d2_stiff", _spec_args(0.15, 0.001, 3000.0, 0.03, 5), "bounded"),
)


class CliPaper:
    """One trackbounds process at a time on the paper's worked configurations."""

    deadline_s = 2.0
    address_space_bytes = 1 << 30
    # a traced child gets this long after SIGTERM to write its spans
    grace_s = 2.0

    def __init__(self, seed: int, work_dir: str, src_dir: str):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.wd_path = os.path.join(work_dir, "wd_table.csv")
        self.out_dir = os.path.join(work_dir, "cli_out")
        with open(self.wd_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(PUBLISHED_WD)
        table = trackbounds.parse_wd_table(PUBLISHED_WD)
        spec = trackbounds.Spec(**WORKED)
        self.expected = {}
        for case in CLI_CASES:
            if case.expect == "exact":
                result = trackbounds.run_pipeline(
                    spec, mode=case.mode, wd_table=table if case.wd_table else None)
                self.expected[case.name] = trackbounds.format_summary(result)
        self.first_stdout = {}

    def blocks(self):
        while True:
            yield [CLI_CASES[j] for j in self.rng.permutation(len(CLI_CASES))]

    def warm_up(self) -> None:
        result = self.run_op(CLI_CASES[0])
        if result.outcome != OK:
            raise RuntimeError(f"warm-up invocation failed: {result.detail}")

    def argv(self, case: CliCase) -> list:
        return [a.format(out=self.out_dir, wd=self.wd_path) for a in case.args]

    def spawn(self, command: list, deadline_s: float, term_first: bool = False):
        """Run one child under the deadline and the address-space cap.

        Returns (wall ms, exit code or None on a deadline miss, stdout,
        stderr, peak RSS MB). A child that misses the deadline is killed and
        reaped before this returns.
        """
        cap = self.address_space_bytes

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        out_path = os.path.join(self.work_dir, "child.out")
        err_path = os.path.join(self.work_dir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.work_dir, preexec_fn=limit)
            reaped = {}

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped["end"] = time.perf_counter()
                reaped["status"] = status
                reaped["usage"] = usage

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(deadline_s)
            missed = waiter.is_alive()
            if missed and term_first:
                proc.terminate()
                waiter.join(self.grace_s)
            if waiter.is_alive():
                proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        wall_ms = deadline_s * 1e3 if missed else (reaped["end"] - start) * 1e3
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return (wall_ms, None if missed else proc.returncode, stdout, stderr,
                reaped["usage"].ru_maxrss / 1024.0)

    def run_op(self, case: CliCase, command_prefix=None) -> OpResult:
        prefix = command_prefix or [sys.executable, "-m", "trackbounds"]
        wall_ms, code, stdout, stderr, rss = self.spawn(
            prefix + self.argv(case), self.deadline_s, term_first=command_prefix is not None)
        outcome, rt_errors, detail = self.judge(case, code, stdout, stderr)
        return OpResult(wall_ms, outcome, rt_errors, detail, rss, case.name, code is None)

    def judge(self, case: CliCase, code, stdout: bytes, stderr: bytes):
        """(outcome, rt_errors, detail) of one invocation."""
        if code is None:
            return FAILED, [], f"missed the {self.deadline_s} s deadline"
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        if code == 2 and case.expect == "bounded" and checks.STAGE_FAILURE.search(tail[0]):
            return OK, [], tail[0]
        if code != 0:
            return FAILED, [], f"exit {code}: {tail[0]}"
        text = stdout.decode("ascii", "replace")
        problems = []
        if case.expect == "exact" and text != self.expected[case.name]:
            problems.append("stdout differs from the library's format_summary")
        if self.first_stdout.setdefault(case.name, text) != text:
            problems.append("stdout differs from an earlier identical invocation")
        if "{out}" in case.args:
            with open(os.path.join(self.out_dir, "summary.txt"), encoding="ascii") as fh:
                if fh.read() != text:
                    problems.append("--out summary.txt differs from stdout")
        try:
            doc_problems, rt_errors = checks.summary_problems(trackbounds.parse_summary(text))
        except (ValueError, KeyError) as exc:
            doc_problems, rt_errors = [f"unparseable summary: {exc!r}"], []
        problems += doc_problems
        return (INCORRECT if problems else OK), rt_errors, "; ".join(problems)

    @staticmethod
    def input_properties(ops) -> dict:
        return {
            "ops": len(ops),
            "cases": [c.name for c in CLI_CASES],
            "deadline_s": CliPaper.deadline_s,
            "address_space_cap_bytes": CliPaper.address_space_bytes,
        }
