"""Seeded verification campaigns over random instances.

Each campaign draws a fixed number of random cases from a deterministic RNG,
evaluates one identity or inequality per case, and reports the number of
failures together with the worst normalized residual or smallest margin.
The CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    greens_identity_residual,
    product_rule_residual,
    summation_by_parts_residual,
)
from .coeffs import CoefficientSet, Sequence, _check_coefficients
from .operators import _apply_L, _wronskian_drift, recurrence
from .space import check_lemma1, check_lemma2, check_pointwise_bound

__all__ = ["CampaignResult", "run_campaign", "run_all", "CAMPAIGNS"]


@dataclass(frozen=True)
class CampaignResult:
    name: str
    cases: int
    failures: int
    worst: float    # max residual/tolerance ratio, or max lhs-rhs excess ratio

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _random_complex(rng, size, magnitude=10.0):
    return (rng.uniform(-magnitude, magnitude, size)
            + 1j * rng.uniform(-magnitude, magnitude, size))


def _q_nontrivial_coeffs(rng, length) -> CoefficientSet:
    q = rng.uniform(0.0, 5.0, length)
    q[1 + rng.integers(0, length - 1)] += 0.5  # guarantee a positive entry past 0
    return CoefficientSet(
        p=Sequence(0, rng.uniform(0.1, 10.0, length)),
        q=Sequence(0, q),
        w=Sequence(1, rng.uniform(-5.0, 5.0, length)),
    )


def product_rule_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        n = int(rng.integers(2, 201))
        f = Sequence(0, _random_complex(rng, n))
        g = Sequence(0, _random_complex(rng, n))
        scale = max(1.0, float(np.max(np.abs(f.values)) * np.max(np.abs(g.values))))
        ratio = product_rule_residual(f, g) / (1e-12 * scale)
        worst = max(worst, ratio)
        failures += ratio > 1.0
    return CampaignResult("product-rule", cases, failures, worst)


def summation_by_parts_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        n = int(rng.integers(3, 201))
        f = Sequence(0, _random_complex(rng, n))
        g = Sequence(0, _random_complex(rng, n))
        j = int(rng.integers(0, n - 2))
        N = int(rng.integers(j, n - 1))
        scale = max(1.0, float(np.max(np.abs(f.values)) * np.max(np.abs(g.values))))
        ratio = summation_by_parts_residual(f, g, j, N) / (1e-12 * scale)
        worst = max(worst, ratio)
        failures += ratio > 1.0
    return CampaignResult("summation-by-parts", cases, failures, worst)


def greens_identity_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        N = int(rng.integers(1, 199))
        p = Sequence(0, rng.uniform(0.1, 10.0, N + 1))
        u = Sequence(0, _random_complex(rng, N + 2))
        v = Sequence(0, _random_complex(rng, N + 2))
        scale = max(1.0, float(np.max(p.values.real)
                               * np.max(np.abs(u.values))
                               * np.max(np.abs(v.values))))
        ratio = greens_identity_residual(p, u, v, N) / (1e-12 * scale)
        worst = max(worst, ratio)
        failures += ratio > 1.0
    return CampaignResult("greens-identity", cases, failures, worst)


# Cases per array pass of the two recurrence campaigns.  A block of 32 keeps
# the working set (two complex solutions of length N + 2 = 202 per case and
# the temporaries of the checks) near 1.5 MB; blocks of 50 run about 20%
# faster but grow peak RSS by about 2.5 MB over solving case by case.
BLOCK = 32


def _tame_blocks(seed: int, cases: int, N: int):
    """Solved blocks of random instances with moderate recurrence growth.

    Each case draws, in this order, p, q on 0..N and w on 1..N+1, a real
    lambda and four complex initial values: (u(0), u(1)) of phi and of
    theta.  Yields ((pv, qv, wv, lam), u) for B cases: p(0..N), q(1..N) and
    w(1..N) of shape (len, 1, B), lam of shape (B,), and the solutions u of
    shape (N+2, 2, B) with phi and theta on axis 1.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, cases, BLOCK):
        B = min(BLOCK, cases - start)
        p, q, w = np.empty((N + 1, B)), np.empty((N + 1, B)), np.empty((N + 1, B))
        lam = np.empty(B)
        init = np.empty((B, 4), dtype=complex)
        for k in range(B):
            p[:, k] = rng.uniform(1.0, 2.0, N + 1)
            q[:, k] = rng.uniform(0.0, 0.5, N + 1)
            w[:, k] = rng.uniform(-0.5, 0.5, N + 1)
            lam[k] = rng.uniform(-10.0, 10.0)
            init[k] = _random_complex(rng, 4, magnitude=1.0)
        _check_coefficients(p, q, w)
        args = (p[:, None], q[1:, None], w[:-1, None], lam)
        yield args, recurrence(*args, init[:, 0::2].T, init[:, 1::2].T)


def wronskian_campaign(seed: int, cases: int, N: int = 200) -> CampaignResult:
    worst, failures = 0.0, 0
    for (pv, _, _, _), u in _tame_blocks(seed, cases, N):
        drift, bound = _wronskian_drift(pv, u[:, :1], u[:, 1:])
        worst = max(worst, float(np.max(drift / bound)))
        failures += int(np.sum(drift > bound))
    return CampaignResult("wronskian-constancy", cases, failures, worst)


def solver_consistency_campaign(seed: int, cases: int, N: int = 200) -> CampaignResult:
    """Residual of apply_L(u) = lam w u for the same draws as the Wronskian run."""
    worst, failures = 0.0, 0
    for args, u in _tame_blocks(seed, cases, N):
        ratio = _residual_ratio(*args, u)
        worst = max(worst, float(np.max(ratio)))
        failures += int(np.sum(ratio > 1.0))
    return CampaignResult("solver-consistency", cases, failures, worst)


def _residual_ratio(pv, qv, wv, lam, uv):
    """max_n |(Lu)(n) - lam w(n) u(n)| / (1e-10 * per-index term magnitude),
    along axis 0, for pv = p(0..N), qv = q(1..N), wv = w(1..N), uv = u(0..N+1)."""
    lhs, pdu = _apply_L(pv, qv, uv)
    rhs = lam * wv * uv[1:-1]
    scale = np.maximum(1.0, np.abs(rhs))
    for term in (pdu[1:], pdu[:-1], qv * uv[1:-1]):
        np.maximum(scale, np.abs(term), out=scale)
    lhs -= rhs
    return np.max(np.abs(lhs) / (1e-10 * scale), axis=0)


def solution_residual_ratio(coeffs: CoefficientSet, sol) -> float:
    """max_n |(Lu)(n) - lam w(n) u(n)| / (1e-10 * per-index term magnitude)."""
    N = sol.values.end - 2
    return float(_residual_ratio(coeffs.p.real_window(0, N), coeffs.q.real_window(1, N),
                                 coeffs.w.real_window(1, N), sol.lam,
                                 sol.values.window(0, N + 1)))


def _supported_u(rng, length):
    """Complex u vanishing near both window ends (differences die inside)."""
    u = np.zeros(length, dtype=np.complex128)
    hi = length - 3
    u[1:hi + 1] = _random_complex(rng, hi)
    return Sequence(0, u)


def lemma1_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        p = Sequence(0, rng.uniform(0.1, 10.0, length))
        u = _supported_u(rng, length)
        n = int(rng.integers(1, length - 1))
        m = int(rng.integers(n, length - 1))
        rep = check_lemma1(p, u, n, m)
        worst = max(worst, (rep.lhs - rep.rhs) / rep.tolerance_used)
        failures += not rep.holds
    return CampaignResult("lemma1", cases, failures, worst)


def lemma2_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        coeffs = _q_nontrivial_coeffs(rng, length)
        u = _supported_u(rng, length)
        r = length - 1
        m = int(rng.integers(1, r + 1))
        rep = check_lemma2(coeffs, u, m, r)
        worst = max(worst, (rep.lhs - rep.rhs) / rep.tolerance_used)
        failures += not rep.holds
    return CampaignResult("lemma2", cases, failures, worst)


def pointwise_bound_campaign(seed: int, cases: int) -> CampaignResult:
    rng = np.random.default_rng(seed)
    worst, failures = 0.0, 0
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        coeffs = _q_nontrivial_coeffs(rng, length)
        u = _supported_u(rng, length)
        N = int(rng.integers(1, length - 1))
        m = int(rng.integers(1, N + 1))
        rep = check_pointwise_bound(coeffs, u, m, N)
        worst = max(worst, (rep.lhs - rep.rhs) / rep.tolerance_used)
        failures += not rep.holds
    return CampaignResult("pointwise-bound", cases, failures, worst)


CAMPAIGNS = {
    "product-rule": product_rule_campaign,
    "summation-by-parts": summation_by_parts_campaign,
    "greens-identity": greens_identity_campaign,
    "wronskian-constancy": wronskian_campaign,
    "solver-consistency": solver_consistency_campaign,
    "lemma1": lemma1_campaign,
    "lemma2": lemma2_campaign,
    "pointwise-bound": pointwise_bound_campaign,
}


def run_campaign(name: str, seed: int, cases: int) -> CampaignResult:
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(CAMPAIGNS)}")
    return CAMPAIGNS[name](seed, cases)


def run_all(seed: int, cases: int) -> list:
    return [fn(seed, cases) for fn in CAMPAIGNS.values()]
