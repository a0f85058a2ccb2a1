"""Tracking specification and the damping sweep it generates.

A specification (mp, tr, ts, dev, wi) is translated into a table of
(omega_n, zeta) pairs: zeta sweeps from the overshoot-limited minimum in
fixed steps while below 1, and each zeta gets the smallest natural frequency
meeting both timing requirements. The table round-trips through a small CSV
format so externally computed sweeps can be injected. The family's members
are read in closed form, a block of consecutive multipliers at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_count
from .sos_core import SecondOrderParams, zeta_min
from .timing import ToleranceBand, omega_ns_for

__all__ = [
    "Spec",
    "WdTable",
    "build_wd",
    "format_wd_table",
    "member_blocks",
    "member_terms",
    "parse_wd_table",
    "read_wd_table",
]

_WD_HEADER = "zeta,omega_n"
# largest damping sweep; its run time and the crossing solver's arrays grow
# with the pairs, three crossings each
_MAX_WD_PAIRS = 1000
# largest family, wi * pairs * points entries; it bounds the envelope's run
# time and the rows of bode_family.csv, while memory is bounded per block
_MAX_FAMILY_ENTRIES = 2**22
# entries of one member block, unless a single multiplier holds more
_BLOCK_ENTRIES = 2**16


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
        object.__setattr__(self, "wi", check_count(self.wi, 1, "frequency multiplier count"))


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
        # built once, read-only: member_terms reads them for every block
        for name, values in (("_zetas", zetas), ("_omega_ns", [p.omega_n for p in pairs])):
            array = np.array(values)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def zetas(self) -> np.ndarray:
        return self._zetas

    def omega_ns(self) -> np.ndarray:
        return self._omega_ns

    def __len__(self) -> int:
        return len(self.pairs)


def check_omega_ns(omega_ns: np.ndarray, wi: int) -> None:
    """NumericalError unless the members' coefficients, the squares of
    omega_ns and of wi * omega_ns, are all finite normal floats."""
    with np.errstate(over="ignore", under="ignore"):
        squares = np.square([omega_ns, wi * omega_ns])
    if not np.all(np.isfinite(squares) & (squares >= np.finfo(float).tiny)):
        raise NumericalError(f"natural frequency squares from {float(squares.min())!r} "
                             f"to {float(squares.max())!r} are not all finite normal floats")


def build_wd(spec: Spec, zeta_step: float = 0.05) -> WdTable:
    """Sweep zeta from zeta_min(mp) in fixed steps while below 1."""
    z_min = zeta_min(spec.mp)
    if not 0 < zeta_step < 1 - z_min:
        raise ValueError("zeta step must lie in (0, 1 - zeta_min)")
    if (1 - z_min) / zeta_step > _MAX_WD_PAIRS:
        raise NumericalError(f"zeta step {zeta_step!r} needs more than {_MAX_WD_PAIRS} pairs")
    zetas = []
    while (z := z_min + len(zetas) * zeta_step) < 1:
        zetas.append(z)
    omega_ns = omega_ns_for(zetas, spec.tr, spec.ts, ToleranceBand(spec.dev))
    check_omega_ns(omega_ns, spec.wi)
    return WdTable(tuple(SecondOrderParams(wn, z) for wn, z in zip(omega_ns.tolist(), zetas)))


def member_blocks(table: WdTable, wi: int, omegas):
    """Ranges of consecutive multipliers, together 1..wi, whose members hold
    at most _BLOCK_ENTRIES entries at omegas, or one multiplier each.

    Checks wi, and the budget of wi * pairs * points family entries, when
    called: before any member is computed.
    """
    wi, member = check_count(wi, 1, "frequency multiplier count"), len(table) * np.size(omegas)
    if (entries := wi * member) > _MAX_FAMILY_ENTRIES:
        raise NumericalError(f"{entries} family entries exceed the budget of {_MAX_FAMILY_ENTRIES}")
    step = max(1, _BLOCK_ENTRIES // member)
    return (range(i, min(i + step, wi + 1)) for i in range(1, wi + 1, step))


def member_terms(table: WdTable, multipliers, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Terms x and y of the members at omegas, each of shape (multipliers, pairs, points).

    Member (k, i), pair k with its natural frequency scaled by i, responds
    at omegas[j] as 1/(x + jy), with v = omegas[j] / (i * omega_n[k]),
    x = 1 - v^2 and y = 2 * zeta[k] * v: magnitude 1/sqrt(x^2 + y^2) and
    phase -atan2(y, x). The multipliers come from member_blocks, or from a
    family it has checked; a term that overflows is left at inf for the
    caller's checks.
    """
    omegas = np.asarray(omegas, dtype=float)
    wn = table.omega_ns()[None, :, None] * np.asarray(multipliers)[:, None, None]
    with np.errstate(all="ignore"):
        x = omegas / wn
        y = x * (2 * table.zetas()[:, None])
        np.subtract(1.0, np.square(x, out=x), out=x)
    return x, y


def format_wd_table(table: WdTable) -> str:
    lines = [_WD_HEADER]
    lines += [f"{float(p.zeta)!r},{float(p.omega_n)!r}" for p in table.pairs]
    return "\n".join(lines) + "\n"


def parse_wd_table(text: str) -> WdTable:
    # numbered as in the text, blank lines included; an empty text reads
    # as a blank line 1
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()] or [(1, "")]
    if lines[0][1].strip() != _WD_HEADER:
        raise ValueError(f"line {lines[0][0]}: expected header {_WD_HEADER!r}")
    pairs = []
    for lineno, line in lines[1:]:
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
