"""The left-definite space: inner product, norm, bound constants, inequalities.

The scalar product is

    <u, v> = sum_n p(n) Du(n) conj(Dv(n)) + sum_n q(n) u(n) conj(v(n)),

evaluated over the stored window (the inner-product sums start at n = 0, the
lemma sums at n = 1 or l = 1; each function follows its own source formula).
Verification is exact for sequences whose differences vanish near the window
end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import _at, _sum_over
from .coeffs import CoefficientSet, Sequence, _integer, _real, _require
from .errors import NonCauchyError, ValidationError, WindowError

__all__ = [
    "BoundReport",
    "BoundConstants",
    "CauchyDiagnostics",
    "inequality_report",
    "h1_inner",
    "h1_norm",
    "l2_norm",
    "bound_constants",
    "check_lemma1",
    "check_lemma2",
    "check_pointwise_bound",
    "cauchy_diagnostics",
]

INEQ_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs <= rhs, with roundoff slack."""

    lhs: float
    rhs: float
    margin: float
    holds: bool
    tolerance_used: float


def _slack(lhs, rhs):
    """The default slack 1e-12 * max(1, |lhs|, |rhs|), elementwise."""
    return INEQ_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def inequality_report(lhs: float, rhs: float, tolerance: float | None = None) -> BoundReport:
    """Package lhs <= rhs with slack tolerance (default 1e-12 * max(1, lhs, rhs))."""
    if tolerance is None:
        tolerance = float(_slack(lhs, rhs))
    return BoundReport(lhs=lhs, rhs=rhs, margin=rhs - lhs,
                       holds=lhs <= rhs + tolerance, tolerance_used=tolerance)


@dataclass(frozen=True)
class BoundConstants:
    """The explicit constants of the pointwise bound |u(m)| <= C_N ||u||."""

    r: int
    C_r: float
    C_N: float


@dataclass(frozen=True)
class CauchyDiagnostics:
    """Numerical limits and contraction distances for a Cauchy family."""

    grad_limit: Sequence        # limit of sqrt(p) * Du_n in l2
    pointwise_limit: Sequence   # entrywise limit u
    weighted_limit: Sequence    # limit of sqrt(q) * u_n
    norm_distances: list        # ||u_n - u|| in the left-definite norm
    l2_grad_distances: list     # ||sqrt(p) Du_n - grad_limit||_2


def _common_window(coeffs: CoefficientSet, u: Sequence, v: Sequence):
    """(L, p(0..L-2), q(0..L-1)) for offset-0 u and v of the same length L >= 2."""
    if u.offset != 0 or v.offset != 0:
        raise WindowError("inner product expects offset-0 sequences")
    if len(u) != len(v):
        raise WindowError("inner product expects equal lengths")
    L = len(u)
    if L < 2:
        raise WindowError("inner product needs length >= 2")
    return L, coeffs.p.window(0, L - 2, "p"), coeffs.q.window(0, L - 1, "q")


def _on(seq: Sequence, length: int, fill) -> np.ndarray:
    """The entries of seq on indices 0..length-1, with `fill` where it stores none."""
    out = np.full(length, fill, dtype=seq.values.dtype)
    lo, hi = min(seq.offset, length), min(seq.end, length)
    out[lo:hi] = seq.values[lo - seq.offset:hi - seq.offset]
    return out


def _h1_inner(pv, qv, uv, vv, last):
    """<u, v> over indices 0..last along axis 0, for p, q, u and v from
    index 0 (p one entry shorter); last broadcasts against the trailing axes."""
    du, dv = np.diff(uv, axis=0), np.diff(vv, axis=0)
    return (_sum_over(pv * du * np.conj(dv), 0, last - 1)
            + _sum_over(qv * uv * np.conj(vv), 0, last))


def h1_inner(coeffs: CoefficientSet, u: Sequence, v: Sequence) -> complex:
    """The left-definite scalar product over the stored window."""
    L, pv, qv = _common_window(coeffs, u, v)
    return complex(_h1_inner(pv, qv, u.values, v.values, L - 1))


def h1_norm(coeffs: CoefficientSet, u: Sequence) -> float:
    """sqrt(<u, u>); the imaginary part of <u, u> is roundoff only."""
    val = h1_inner(coeffs, u, u)
    return float(np.sqrt(max(val.real, 0.0)))


def l2_norm(u: Sequence) -> float:
    """Euclidean norm of the stored entries (any offset)."""
    return float(np.linalg.norm(u.values))


def _bound_constants(pv, qv, N):
    """r, C_r and C_N of `bound_constants` along axis 0, for p and q from
    index 0; N broadcasts against the trailing axes."""
    positive = qv[1:] > 0
    if not positive.any(axis=0).all():
        raise ValidationError("q identically zero on available window")
    r = np.maximum(N, positive.argmax(axis=0) + 1)
    top = int(r.max())
    if top >= len(pv):
        raise WindowError(f"p window [0, {len(pv)}) does not cover 1..{top}")
    C_r = np.sqrt(_sum_over(1.0 / pv[:top + 1], 1, r))
    return r, C_r, C_r + _sum_over(qv, 1, r) ** -0.5


def bound_constants(coeffs: CoefficientSet, N: int) -> BoundConstants:
    """Smallest r >= N with sum_{n=1}^{r} q(n) > 0, and its C_r, C_N.

    C_r = (sum_{l=1}^{r} 1/p(l))^(1/2), C_N = C_r + (sum_{n=1}^{r} q(n))^(-1/2).
    Since q >= 0, r is the larger of N and the first n >= 1 with q(n) > 0.
    """
    N = _integer(N, "N", 1)
    coeffs.q.require(1, N, "q")
    r, C_r, C_N = _bound_constants(coeffs.p.values, coeffs.q.values, N)
    return BoundConstants(r=int(r), C_r=float(C_r), C_N=float(C_N))


def _grad_energy(pv, uv, lo, hi):
    """sum_{l=lo}^{hi} p(l) |Du(l)|^2 along axis 0, for p and u from index 0."""
    return _sum_over(pv[:-1] * np.abs(np.diff(uv, axis=0)) ** 2, lo, hi)


def _lemma1(pv, uv, n, m, lo, hi):
    """(lhs, rhs) of Lemma 1 along axis 0, for p and u on indices 0..L-1:

        |u(m)| <= |u(n)| + (sum_{l=lo}^{hi} p|Du|^2)^(1/2) (sum_{l=n}^{m-1} 1/p(l))^(1/2).

    p must be real, positive and finite; the callers check it.  n, m, lo
    and hi broadcast against the trailing axes.
    """
    pfac = np.sqrt(_sum_over(1.0 / pv, n, m - 1))
    return abs(_at(uv, m)), abs(_at(uv, n)) + np.sqrt(_grad_energy(pv, uv, lo, hi)) * pfac


def check_lemma1(p: Sequence, u: Sequence, n: int, m: int) -> BoundReport:
    """|u(m)| <= |u(n)| + (sum_l p|Du|^2)^(1/2) (sum_{l=n}^{m-1} 1/p(l))^(1/2).

    The energy sum runs over the stored window of u, l = max(1, offset) to
    end - 2.  Raises ValidationError unless every entry of p stored below
    the end of u is real and positive.
    """
    if m < n:
        raise ValidationError("need m >= n")
    u.require(n, m, "u")
    lo, hi = max(1, u.offset), u.end - 2
    if hi >= lo:
        p.require(lo, hi, "p")
    if m > n:
        p.require(n, m - 1, "p")
    pv = _real("p", _on(p, u.end, 1.0))
    _require("p", pv > 0, 0, "not strictly positive")
    lhs, rhs = _lemma1(pv, _on(u, u.end, 0.0), n, m, lo, hi)
    return inequality_report(float(lhs), float(rhs))


def _lemma2(pv, qv, uv, m, r, hi):
    """(lhs, rhs) of Lemma 2 along axis 0, for p, q and u on indices 0..L-1,
    with the sums over n = 1..r and the energy over l = 1..hi; m, r and hi
    broadcast against the trailing axes."""
    qsum = _sum_over(qv, 1, r)
    if np.any(qsum <= 0):
        raise ValidationError("sum of q over 1..r must be positive")
    C_r = np.sqrt(_sum_over(1.0 / pv, 1, r))
    lhs = abs(_at(uv, m)) * qsum
    rhs = (np.sqrt(qsum) * np.sqrt(_sum_over(qv * np.abs(uv) ** 2, 1, r))
           + C_r * np.sqrt(_grad_energy(pv, uv, 1, hi)) * qsum)
    return lhs, rhs


def check_lemma2(coeffs: CoefficientSet, u: Sequence, m: int, r: int) -> BoundReport:
    """The summed pointwise bound with the explicit constant C_r.

    lhs = |u(m)| sum q; rhs = (sum q)^(1/2) (sum q|u|^2)^(1/2)
    + C_r (sum_l p|Du|^2)^(1/2) sum q, all sums over n = 1..r.
    """
    m = _integer(m, "m", None)   # read by position, not through a window
    if not (1 <= m <= r):
        raise ValidationError("need 1 <= m <= r")
    coeffs.q.require(1, r, "q")
    coeffs.p.require(1, r, "p")
    u.require(1, r, "u")
    hi = u.end - 2
    if hi >= 1:
        coeffs.p.require(1, hi, "p")
    L = u.end
    lhs, rhs = _lemma2(_on(coeffs.p, L, 1.0), _on(coeffs.q, L, 0.0), _on(u, L, 0.0),
                       m, r, hi)
    return inequality_report(float(lhs), float(rhs))


def _pointwise_bound(pv, qv, uv, m, N, last):
    """(lhs, rhs) of |u(m)| <= C_N ||u|| along axis 0, for p, q and u from
    index 0 and the norm over indices 0..last; m, N and last broadcast
    against the trailing axes."""
    _, _, C_N = _bound_constants(pv, qv, N)
    L = len(uv)
    norm = np.sqrt(np.maximum(_h1_inner(pv[:L - 1], qv[:L], uv, uv, last).real, 0.0))
    return abs(_at(uv, m)), C_N * norm


def check_pointwise_bound(coeffs: CoefficientSet, u: Sequence, m: int,
                          N: int) -> BoundReport:
    """|u(m)| <= C_N ||u|| for 1 <= m <= N."""
    if not (1 <= m <= N):
        raise ValidationError("need 1 <= m <= N")
    coeffs.q.require(1, N, "q")
    L, _, _ = _common_window(coeffs, u, u)
    u.require(m, m, "u")
    lhs, rhs = _pointwise_bound(coeffs.p.values, coeffs.q.values, u.values, m, N, L - 1)
    return inequality_report(float(lhs), float(rhs))


def cauchy_diagnostics(coeffs: CoefficientSet, family) -> CauchyDiagnostics:
    """Contraction diagnostics for a numerically Cauchy family.

    The last family member serves as the limit proxy (no extrapolation), so
    the last norm distance is 0.  Raises NonCauchyError unless the norm
    distances to the proxy are non-increasing.
    """
    family = list(family)
    if len(family) < 2:
        raise ValidationError("family needs at least two members")
    L, pv, qv = _common_window(coeffs, family[0], family[-1])
    for u in family:
        if u.offset != 0 or len(u) != L:
            raise WindowError("family members must share the window")

    limit = family[-1]
    sqrtp, sqrtq = np.sqrt(pv), np.sqrt(qv)

    grad_limit = Sequence(0, sqrtp * np.diff(limit.values))
    weighted_limit = Sequence(0, sqrtq * limit.values)

    diffs = [Sequence(0, u.values - limit.values) for u in family]
    norm_distances = [h1_norm(coeffs, d) for d in diffs]
    l2_grad_distances = [
        float(np.linalg.norm(sqrtp * np.diff(u.values) - grad_limit.values))
        for u in family
    ]

    eps = 1e-12 * max(1.0, max(norm_distances))
    decreasing = all(b <= a + eps for a, b in zip(norm_distances, norm_distances[1:]))
    if not decreasing:
        raise NonCauchyError(f"family does not contract (distances {norm_distances})")

    return CauchyDiagnostics(
        grad_limit=grad_limit,
        pointwise_limit=limit,
        weighted_limit=weighted_limit,
        norm_distances=norm_distances,
        l2_grad_distances=l2_grad_distances,
    )
