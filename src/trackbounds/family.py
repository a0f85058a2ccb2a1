"""Tracking specification and the damping sweep it generates.

A specification (mp, tr, ts, dev, wi) is translated into a table of
(omega_n, zeta) pairs: zeta sweeps from the overshoot-limited minimum in
fixed steps while below 1, and each zeta gets the smallest natural frequency
meeting both timing requirements. The table round-trips through a small CSV
format so externally computed sweeps can be injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import NumericalError
from .sos_core import SecondOrderParams, zeta_min
from .timing import ToleranceBand, omega_n_for

__all__ = [
    "Spec",
    "WdTable",
    "build_wd",
    "family_response",
    "format_wd_table",
    "parse_wd_table",
    "read_wd_table",
]

_WD_HEADER = "zeta,omega_n"
# largest damping sweep; its run time grows with the pairs, three crossings each
_MAX_WD_PAIRS = 1000
# largest family response, wi * pairs * points complex entries (64 MiB)
_MAX_FAMILY_ENTRIES = 2**22


@dataclass(frozen=True)
class Spec:
    """Time-domain tracking specification.

    mp   peak overshoot fraction
    tr   10%-90% rise time upper limit, seconds
    ts   settling time upper limit, seconds
    dev  settlement band half-width fraction
    wi   largest natural-frequency multiplier of the curve family
    """

    mp: float
    tr: float
    ts: float
    dev: float
    wi: int

    def __post_init__(self):
        if not 0 < self.mp < 1:
            raise ValueError("overshoot must be a fraction in (0, 1)")
        if not self.tr > 0:
            raise ValueError("rise time must be positive")
        if not self.ts > 0:
            raise ValueError("settling time must be positive")
        if not 0 < self.dev < 1:
            raise ValueError("tolerance band must be a fraction in (0, 1)")
        if not isinstance(self.wi, Integral) or isinstance(self.wi, bool) or self.wi < 1:
            raise ValueError("frequency multiplier count must be an integer >= 1")
        object.__setattr__(self, "wi", int(self.wi))


@dataclass(frozen=True, eq=False)
class WdTable:
    """Sweep of (omega_n, zeta) pairs, strictly increasing in zeta."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("table must hold at least one pair")
        if not all(isinstance(p, SecondOrderParams) for p in pairs):
            raise ValueError("table entries must be SecondOrderParams")
        zetas = [p.zeta for p in pairs]
        if any(b <= a for a, b in zip(zetas, zetas[1:])):
            raise ValueError("damping ratios must be strictly increasing")
        object.__setattr__(self, "pairs", pairs)

    def zetas(self) -> np.ndarray:
        return np.array([p.zeta for p in self.pairs])

    def omega_ns(self) -> np.ndarray:
        return np.array([p.omega_n for p in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)


def build_wd(spec: Spec, zeta_step: float = 0.05) -> WdTable:
    """Sweep zeta from zeta_min(mp) in fixed steps while below 1."""
    z_min = zeta_min(spec.mp)
    if not 0 < zeta_step < 1 - z_min:
        raise ValueError("zeta step must lie in (0, 1 - zeta_min)")
    if (1 - z_min) / zeta_step > _MAX_WD_PAIRS:
        raise NumericalError(f"zeta step {zeta_step!r} needs more than {_MAX_WD_PAIRS} pairs")
    band = ToleranceBand(spec.dev)
    pairs = []
    k = 0
    while True:
        z = z_min + k * zeta_step
        if z >= 1:
            break
        pairs.append(SecondOrderParams(omega_n_for(z, spec.tr, spec.ts, band), z))
        k += 1
    return WdTable(tuple(pairs))


def family_response(table: WdTable, wi: int, omegas) -> np.ndarray:
    """Complex responses H[i-1, k, j] of pair k scaled by i = 1..wi at omegas[j].

    Evaluates wn^2 / (s^2 + 2*zeta*wn*s + wn^2) at s = j*omega by
    broadcasting, in the operation order of eval_poly's Horner rule, so
    every entry equals freq_response of make_tf(scale_omega(pair, i)).
    """
    if not isinstance(wi, Integral) or isinstance(wi, bool) or wi < 1:
        raise ValueError("frequency multiplier count must be an integer >= 1")
    entries = int(wi) * len(table) * len(omegas)
    if entries > _MAX_FAMILY_ENTRIES:
        raise NumericalError(f"{entries} family entries exceed the budget of {_MAX_FAMILY_ENTRIES}")
    wn = table.omega_ns()[None, :, None] * np.arange(1, int(wi) + 1)[:, None, None]
    z = table.zetas()[None, :, None]
    s = 1j * np.asarray(omegas, dtype=float)
    wn2 = wn * wn
    return wn2 / ((s + 2 * z * wn) * s + wn2)


def format_wd_table(table: WdTable) -> str:
    lines = [_WD_HEADER]
    lines += [f"{float(p.zeta)!r},{float(p.omega_n)!r}" for p in table.pairs]
    return "\n".join(lines) + "\n"


def parse_wd_table(text: str) -> WdTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _WD_HEADER:
        raise ValueError(f"line 1: expected header {_WD_HEADER!r}")
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two comma-separated fields")
        try:
            z = float(parts[0])
            wn = float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: fields must be numeric") from None
        try:
            pairs.append(SecondOrderParams(wn, z))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return WdTable(tuple(pairs))


def read_wd_table(path) -> WdTable:
    with open(path, "r", encoding="ascii") as fh:
        return parse_wd_table(fh.read())
