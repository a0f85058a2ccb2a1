"""Rational least-squares fitting of sampled frequency responses.

fit() linearizes T(s) = B(s)/A(s) with monic A of fixed degree m: at each
grid frequency the relation B(jw) = T'(jw) * A(jw) contributes one complex
equation in the unknown coefficients, which is split into real and
imaginary parts and solved as one overdetermined real system. Frequencies
are normalized by their geometric mean before assembly so the Vandermonde
powers stay balanced, and the coefficients are rescaled afterwards.

cleanup() screens the result: right-half-plane roots and roots whose
magnitude is insignificant against the dominant denominator scale (too
close to the origin or too far beyond the dynamics) are removed, with the
numerator rescaled so the magnitude at a reference frequency is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tf_model import FrequencyResponse, RationalTF, dc_gain, eval_poly, freq_response, roots

__all__ = [
    "FitProblem",
    "FitReport",
    "fit",
    "cleanup",
    "gain_adjust",
    "report",
    "format_fit_report",
]

_COND_LIMIT = 1e12
# largest least-squares system, 2 * points * (m + n + 1) real entries (32 MiB)
_MAX_FIT_ENTRIES = 2**22


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Sampled data plus requested numerator (n) and denominator (m) degrees."""

    data: FrequencyResponse
    n: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("at least one pole is required")
        if not 0 <= self.n <= self.m:
            raise ValueError("numerator degree must not exceed denominator degree")
        if len(self.data) < self.m + self.n + 1:
            raise ValueError("not enough frequency samples for the requested orders")


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fit's data, its response over the data grid, and their differences.

    mag_error is |mag(data) - mag(fit)|; phase_error_deg is signed,
    data minus fit, both phases unwrapped from the lowest frequency.
    max_phase_error_deg keeps the sign of the largest-magnitude entry.
    """

    fitted: RationalTF
    data: FrequencyResponse
    response: FrequencyResponse
    mag_error: np.ndarray
    phase_error_deg: np.ndarray
    max_mag_error: float
    max_phase_error_deg: float


def fit(problem: FitProblem) -> RationalTF:
    """Solve the linearized fit by least squares."""
    data = problem.data
    n, m = problem.n, problem.m
    entries = 2 * len(data) * (m + n + 1)
    if entries > _MAX_FIT_ENTRIES:
        raise NumericalError(f"{entries} least-squares entries exceed the budget of {_MAX_FIT_ENTRIES}")
    omegas = data.grid.omegas
    vals = data.values
    if np.any(vals == 0):
        raise ValueError("cannot form 1/T' from a zero data sample")

    w_g = math.exp(float(np.mean(np.log(omegas))))
    sn = 1j * omegas / w_g

    # one complex row per frequency: T'*(a_0 + ... + a_{m-1} s^{m-1})
    #                                - (b_0 + ... + b_n s^n) = -s^m * T'
    # high powers of |sn| > 1 can overflow; that is checked below, since
    # lstsq would report a non-finite system as a LinAlgError
    with np.errstate(over="ignore", invalid="ignore"):
        cols = [vals * sn**i for i in range(m)]
        cols += [-(sn**j) for j in range(n + 1)]
        mat = np.column_stack(cols)
        rhs = -(sn**m) * vals

    a_mat = np.vstack([mat.real, mat.imag])
    y = np.concatenate([rhs.real, rhs.imag])
    if not (np.all(np.isfinite(a_mat)) and np.all(np.isfinite(y))):
        raise NumericalError("degenerate fit: the system overflows, reduce the requested orders")
    x, _, rank, sv = np.linalg.lstsq(a_mat, y, rcond=None)
    if rank < m + n + 1 or sv[-1] == 0 or sv[0] / sv[-1] > _COND_LIMIT:
        raise NumericalError("degenerate fit: reduce the requested orders")

    a = x[:m]
    b = x[m:]
    # undo the frequency normalization and keep the denominator monic:
    # a coefficient of s^k picks up w_g**(m - k)
    den = np.empty(m + 1)
    den[0] = 1.0
    for k in range(m):
        den[m - k] = a[k] * w_g ** (m - k)
    num = np.array([b[j] * w_g ** (m - j) for j in range(n, -1, -1)])
    return RationalTF(num, den)


def _screen_roots(rts: np.ndarray, zero_tol: float, scale: float) -> list:
    kept = []
    for r in rts:
        if r.real > 0:
            continue
        mag = abs(r)
        if mag == 0 or mag < zero_tol * scale:
            continue
        if scale > 0 and mag > scale / zero_tol:
            continue
        kept.append(r)
    return kept


def cleanup(tf: RationalTF, zero_tol: float = 1e-4, ref_omega: float | None = None) -> RationalTF:
    """Drop unstable and insignificant roots, preserving gain at a reference.

    Roots in the right half plane are always removed. Remaining roots are
    judged against the dominant denominator scale M = max |den root|: those
    with magnitude below zero_tol*M (including exact origin poles) or above
    M/zero_tol are dynamically insignificant and removed too. The numerator
    is rescaled so the magnitude at ref_omega (DC when None) is unchanged.
    """
    if not 0 < zero_tol < 1:
        raise ValueError("zero tolerance must lie in (0, 1)")
    if ref_omega is not None and not ref_omega > 0:
        raise ValueError("reference frequency must be positive")

    den_roots = roots(tf.den) if tf.den_degree >= 1 else np.array([])
    num_roots = roots(tf.num) if tf.num_degree >= 1 else np.array([])
    scale = float(np.max(np.abs(den_roots))) if den_roots.size else (
        float(np.max(np.abs(num_roots))) if num_roots.size else 0.0)

    kept_den = _screen_roots(den_roots, zero_tol, scale)
    kept_num = _screen_roots(num_roots, zero_tol, scale)
    if len(kept_den) == len(den_roots) and len(kept_num) == len(num_roots):
        return tf
    if not kept_den and den_roots.size:
        raise NumericalError("all poles removed")
    if len(kept_num) > len(kept_den):
        raise NumericalError("cleanup removed too many poles: result would be improper")

    num_new = tf.num[0] * np.real(np.poly(kept_num)) if kept_num else tf.num[:1].copy()
    den_new = tf.den[0] * np.real(np.poly(kept_den)) if kept_den else tf.den[:1].copy()

    s_ref = 1j * (0.0 if ref_omega is None else ref_omega)
    old_num_v = eval_poly(tf.num, s_ref)
    old_den_v = eval_poly(tf.den, s_ref)
    new_num_v = eval_poly(num_new, s_ref)
    new_den_v = eval_poly(den_new, s_ref)
    if 0 in (old_num_v, old_den_v, new_num_v, new_den_v):
        raise ValueError(
            "gain preservation needs a reference frequency where the function "
            "is finite and non-zero; pass a positive ref_omega"
        )
    factor = abs(old_num_v / old_den_v) / abs(new_num_v / new_den_v)
    return RationalTF(num_new * factor, den_new)


def gain_adjust(tf: RationalTF) -> RationalTF:
    """Scale the numerator so the DC gain is 1."""
    g = dc_gain(tf)
    if g == 0:
        raise ValueError("zero DC gain cannot be rescaled")
    return RationalTF(tf.num * (1.0 / g), tf.den)


def report(fitted: RationalTF, data: FrequencyResponse) -> FitReport:
    """Per-frequency magnitude and phase errors of a fit against its data."""
    resp = freq_response(fitted, data.grid)
    mag_error = np.abs(data.magnitude() - resp.magnitude())
    phase_error_deg = np.degrees(data.phase() - resp.phase())
    worst = int(np.argmax(np.abs(phase_error_deg)))
    return FitReport(
        fitted=fitted,
        data=data,
        response=resp,
        mag_error=mag_error,
        phase_error_deg=phase_error_deg,
        max_mag_error=float(np.max(mag_error)),
        max_phase_error_deg=float(phase_error_deg[worst]),
    )


def format_fit_report(rep: FitReport) -> str:
    """CSV rendering: data, fit, and error columns per frequency."""
    mag_d = rep.data.magnitude()
    mag_f = rep.response.magnitude()
    ph_d = np.degrees(rep.data.phase())
    ph_f = np.degrees(rep.response.phase())
    lines = ["omega,mag_data,mag_fit,mag_err,phase_data_deg,phase_fit_deg,phase_err_deg"]
    for k, w in enumerate(rep.data.grid.omegas):
        lines.append(
            f"{float(w)!r},{float(mag_d[k])!r},{float(mag_f[k])!r},"
            f"{float(rep.mag_error[k])!r},{float(ph_d[k])!r},{float(ph_f[k])!r},"
            f"{float(rep.phase_error_deg[k])!r}"
        )
    return "\n".join(lines) + "\n"
