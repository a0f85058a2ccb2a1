"""Command-line front end.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O
failure. The summary document goes to stdout; --out additionally writes
the tabular outputs into a directory.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NumericalError
from .family import Spec, read_wd_table
from .pipeline import MODES, emit, format_summary, run_pipeline

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors (exit 1), not numerical ones
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="trackbounds",
        description="Translate a time-domain tracking specification into "
                    "lower/upper frequency-domain bound transfer functions.",
    )
    p.add_argument("--mp", type=float, required=True,
                   help="peak overshoot fraction, e.g. 0.15")
    p.add_argument("--tr", type=float, required=True,
                   help="rise time upper limit, seconds")
    p.add_argument("--ts", type=float, required=True,
                   help="settling time upper limit, seconds")
    p.add_argument("--dev", type=float, required=True,
                   help="settlement band half-width fraction, e.g. 0.03")
    p.add_argument("--wi", type=int, required=True,
                   help="largest natural-frequency multiplier of the family")
    p.add_argument("--mode", choices=MODES, default="low",
                   help="bound construction mode (default: low)")
    p.add_argument("--zeta-step", type=float, default=0.05,
                   help="damping sweep step (default: 0.05)")
    p.add_argument("--wmin", type=float, default=0.01,
                   help="grid minimum, rad/s (default: 0.01)")
    p.add_argument("--wmax", type=float, default=100.0,
                   help="grid maximum, rad/s (default: 100)")
    p.add_argument("--points", type=int, default=200,
                   help="grid point count (default: 200)")
    p.add_argument("--zeros", type=int, default=0,
                   help="envelope fit numerator degree (default: 0)")
    p.add_argument("--poles", type=int, default=2,
                   help="envelope fit denominator degree (default: 2)")
    p.add_argument("--gain-adjust", action="store_true",
                   help="rescale fitted bounds to unit DC gain")
    p.add_argument("--wd-table", metavar="PATH", default=None,
                   help="inject a pre-computed (zeta, omega_n) table instead of sweeping")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="directory for tabular outputs")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = Spec(mp=args.mp, tr=args.tr, ts=args.ts, dev=args.dev, wi=args.wi)
        table = read_wd_table(args.wd_table) if args.wd_table else None
        result = run_pipeline(
            spec, mode=args.mode, zeta_step=args.zeta_step,
            w_min=args.wmin, w_max=args.wmax, points=args.points,
            zeros=args.zeros, poles=args.poles, adjust_gain=args.gain_adjust,
            wd_table=table,
        )
        if args.out:
            emit(result, args.out)
        sys.stdout.write(format_summary(result))
        return 0
    except ValueError as exc:
        print(f"trackbounds: validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"trackbounds: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"trackbounds: i/o failure: {exc}", file=sys.stderr)
        return 3
