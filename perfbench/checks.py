"""Output checks applied to every benchmark operation.

The checks use numpy and the closed-form second-order overshoot, not the
code under test, except for the summary round trip, which is a property of
the library's own document format. They call the package-level names
(trackbounds.format_summary, ...), which the tracer never wraps.
"""

from __future__ import annotations

import math
import re

import numpy as np

import trackbounds

# A numerical failure must name the pipeline stage it happened in.
STAGE_FAILURE = re.compile(r"numerical failure: [a-z_]+: ")


def bound_problems(num, den) -> list[str]:
    """Reasons a bound num/den is unacceptable: it must be strictly stable
    and have a positive DC gain."""
    num = np.trim_zeros(np.asarray(num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(den, dtype=float), "f")
    problems = []
    if den.size < 2:
        problems.append("static bound")
    elif np.max(np.roots(den).real) >= 0:
        problems.append("not strictly stable")
    if den.size == 0 or num.size == 0 or den[-1] == 0 or not num[-1] / den[-1] > 0:
        problems.append("DC gain not positive")
    return problems


def closed_form_overshoot(num, den) -> float | None:
    """Peak overshoot fraction of a pure second-order bound k/(a s^2 + b s + c);
    None for any other structure."""
    num = np.trim_zeros(np.asarray(num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(den, dtype=float), "f")
    if num.size != 1 or den.size != 3:
        return None
    a, b, c = (float(x) for x in den)
    zeta = b / (2.0 * math.sqrt(a * c))
    if zeta >= 1:
        return 0.0
    return math.exp(-zeta * math.pi / math.sqrt(1.0 - zeta * zeta))


def summary_problems(doc) -> tuple[list[str], list[float]]:
    """Check the bounds and round-trip metrics of a SummaryDoc.

    Returns the problems found and, for each pure second-order bound, the
    gap between its simulated and its closed-form overshoot.
    """
    problems = []
    rt_errors = []
    sides = (("lower", doc.lower_num, doc.lower_den, doc.final.lower),
             ("upper", doc.upper_num, doc.upper_den, doc.final.upper))
    for side, num, den, measured in sides:
        side_problems = [f"{side}: {p}" for p in bound_problems(num, den)]
        problems += side_problems
        if side_problems:
            continue
        dc = float(num[-1]) / float(den[-1])
        # a settled trace ends inside the band around the true DC gain
        if abs(measured.final_value - dc) > doc.spec.dev * dc:
            problems.append(f"{side}: final value {measured.final_value!r} is off DC gain {dc!r}")
        mp = closed_form_overshoot(num, den)
        if mp is not None:
            rt_errors.append(abs(measured.mp - mp))
    return problems, rt_errors


def result_problems(result) -> tuple[list[str], list[float]]:
    """summary_problems of a library result, plus its summary round trip."""
    skeleton = trackbounds.summary_skeleton(result)
    problems, rt_errors = summary_problems(skeleton)
    if trackbounds.parse_summary(trackbounds.format_summary(result)) != skeleton:
        problems.append("summary does not round-trip")
    return problems, rt_errors
