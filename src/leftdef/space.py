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

from .coeffs import CoefficientSet, Sequence
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


def inequality_report(lhs: float, rhs: float, tolerance: float | None = None) -> BoundReport:
    """Package lhs <= rhs with slack tolerance (default 1e-12 * max(1, lhs, rhs))."""
    if tolerance is None:
        tolerance = INEQ_TOL * max(1.0, abs(lhs), abs(rhs))
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
    if u.offset != 0 or v.offset != 0:
        raise WindowError("inner product expects offset-0 sequences")
    if len(u) != len(v):
        raise WindowError("inner product expects equal lengths")
    L = len(u)
    if L < 2:
        raise WindowError("inner product needs length >= 2")
    coeffs.p.require(0, L - 2, "p")
    coeffs.q.require(0, L - 1, "q")
    return L


def h1_inner(coeffs: CoefficientSet, u: Sequence, v: Sequence) -> complex:
    """The left-definite scalar product over the stored window."""
    L = _common_window(coeffs, u, v)
    pv = coeffs.p.window(0, L - 2)
    qv = coeffs.q.window(0, L - 1)
    du, dv = np.diff(u.values), np.diff(v.values)
    return complex(np.sum(pv * du * np.conj(dv)) +
                   np.sum(qv * u.values * np.conj(v.values)))


def h1_norm(coeffs: CoefficientSet, u: Sequence) -> float:
    """sqrt(<u, u>); the imaginary part of <u, u> is roundoff only."""
    val = h1_inner(coeffs, u, u)
    return float(np.sqrt(max(val.real, 0.0)))


def l2_norm(u: Sequence) -> float:
    """Euclidean norm of the stored entries (any offset)."""
    return float(np.linalg.norm(u.values))


def bound_constants(coeffs: CoefficientSet, N: int) -> BoundConstants:
    """Smallest r >= N with sum_{n=1}^{r} q(n) > 0, and its C_r, C_N.

    C_r = (sum_{l=1}^{r} 1/p(l))^(1/2), C_N = C_r + (sum_{n=1}^{r} q(n))^(-1/2).
    Since q >= 0, r is the larger of N and the first n >= 1 with q(n) > 0.
    """
    if N < 1:
        raise ValidationError("need N >= 1")
    coeffs.q.require(1, N, "q")
    positive = coeffs.q.values[1:] > 0
    if not np.any(positive):
        raise ValidationError("q identically zero on available window")
    r = max(N, int(np.argmax(positive)) + 1)
    coeffs.p.require(1, r, "p")
    qsum = float(np.sum(coeffs.q.window(1, r)))
    C_r = float(np.sqrt(np.sum(1.0 / coeffs.p.window(1, r))))
    return BoundConstants(r=r, C_r=C_r, C_N=C_r + qsum ** -0.5)


def _grad_energy(p: Sequence, u: Sequence) -> float:
    """sum_{l>=1} p(l) |Du(l)|^2 over the stored window (the 'infinite' sum)."""
    lo = max(1, u.offset)
    hi = u.end - 2
    if hi < lo:
        return 0.0
    p.require(lo, hi, "p")
    du = np.diff(u.window(lo, hi + 1))
    return float(np.sum(p.window(lo, hi) * np.abs(du) ** 2))


def check_lemma1(p: Sequence, u: Sequence, n: int, m: int) -> BoundReport:
    """|u(m)| <= |u(n)| + (sum_l p|Du|^2)^(1/2) (sum_{l=n}^{m-1} 1/p(l))^(1/2)."""
    if m < n:
        raise ValidationError("need m >= n")
    u.require(n, m, "u")
    lhs = abs(u.at(m))
    grad = _grad_energy(p, u)
    if m > n:
        p.require(n, m - 1, "p")
        pfac = float(np.sqrt(np.sum(1.0 / p.window(n, m - 1))))
    else:
        pfac = 0.0
    rhs = abs(u.at(n)) + np.sqrt(grad) * pfac
    return inequality_report(lhs, rhs)


def check_lemma2(coeffs: CoefficientSet, u: Sequence, m: int, r: int) -> BoundReport:
    """The summed pointwise bound with the explicit constant C_r.

    lhs = |u(m)| sum q; rhs = (sum q)^(1/2) (sum q|u|^2)^(1/2)
    + C_r (sum_l p|Du|^2)^(1/2) sum q, all sums over n = 1..r.
    """
    if not (1 <= m <= r):
        raise ValidationError("need 1 <= m <= r")
    coeffs.q.require(1, r, "q")
    coeffs.p.require(1, r, "p")
    u.require(1, r, "u")
    qv = coeffs.q.window(1, r)
    qsum = float(np.sum(qv))
    if qsum <= 0:
        raise ValidationError("sum of q over 1..r must be positive")
    uv = u.window(1, r)
    C_r = float(np.sqrt(np.sum(1.0 / coeffs.p.window(1, r))))
    lhs = abs(u.at(m)) * qsum
    rhs = (np.sqrt(qsum) * np.sqrt(float(np.sum(qv * np.abs(uv) ** 2)))
           + C_r * np.sqrt(_grad_energy(coeffs.p, u)) * qsum)
    return inequality_report(lhs, rhs)


def check_pointwise_bound(coeffs: CoefficientSet, u: Sequence, m: int,
                          N: int) -> BoundReport:
    """|u(m)| <= C_N ||u|| for 1 <= m <= N."""
    if not (1 <= m <= N):
        raise ValidationError("need 1 <= m <= N")
    bc = bound_constants(coeffs, N)
    return inequality_report(abs(u.at(m)), bc.C_N * h1_norm(coeffs, u))


def cauchy_diagnostics(coeffs: CoefficientSet, family, threshold: float = 1e-8,
                       ) -> CauchyDiagnostics:
    """Contraction diagnostics for a numerically Cauchy family.

    The last family member serves as the limit proxy (no extrapolation).
    Raises NonCauchyError unless the norm distances to the proxy are
    non-increasing and end below the threshold.
    """
    family = list(family)
    if len(family) < 2:
        raise ValidationError("family needs at least two members")
    L = _common_window(coeffs, family[0], family[-1])
    for u in family:
        if u.offset != 0 or len(u) != L:
            raise WindowError("family members must share the window")

    limit = family[-1]
    pv = coeffs.p.window(0, L - 2)
    qv = coeffs.q.window(0, L - 1)
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
    if not decreasing or min(norm_distances) > threshold:
        raise NonCauchyError(
            "family does not contract below the threshold "
            f"(distances {norm_distances})"
        )

    resid = np.abs(weighted_limit.values - sqrtq * limit.values)
    scale = max(1.0, float(np.max(np.abs(weighted_limit.values))))
    if np.any(resid > 1e-9 * scale):
        raise NonCauchyError("weighted limit inconsistent with pointwise limit")

    return CauchyDiagnostics(
        grad_limit=grad_limit,
        pointwise_limit=limit,
        weighted_limit=weighted_limit,
        norm_distances=norm_distances,
        l2_grad_distances=l2_grad_distances,
    )
