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


CAMPAIGNS = {}


def _campaign(name: str):
    """Register a case generator ``gen(rng, cases)`` as the campaign `name`.

    The generator yields (ratio, failed) for each case, or (largest ratio,
    number failed) for each block of cases; the campaign counts the failed
    cases and reports the largest ratio, at least 0.  The registered
    function takes (seed, cases) and replaces the generator under its
    module-level name.
    """
    def register(gen):
        def campaign(seed: int, cases: int) -> CampaignResult:
            worst, failures = 0.0, 0
            for ratio, failed in gen(np.random.default_rng(seed), cases):
                worst = max(worst, float(ratio))
                failures += int(failed)
            return CampaignResult(name, cases, failures, worst)
        campaign.__name__ = campaign.__qualname__ = gen.__name__
        campaign.__doc__ = gen.__doc__
        CAMPAIGNS[name] = campaign
        return campaign
    return register


@_campaign("product-rule")
def product_rule_campaign(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(2, 201))
        f = Sequence(0, _random_complex(rng, n))
        g = Sequence(0, _random_complex(rng, n))
        scale = max(1.0, float(np.max(np.abs(f.values)) * np.max(np.abs(g.values))))
        ratio = product_rule_residual(f, g) / (1e-12 * scale)
        yield ratio, ratio > 1.0


@_campaign("summation-by-parts")
def summation_by_parts_campaign(rng, cases):
    for _ in range(cases):
        n = int(rng.integers(3, 201))
        f = Sequence(0, _random_complex(rng, n))
        g = Sequence(0, _random_complex(rng, n))
        j = int(rng.integers(0, n - 2))
        N = int(rng.integers(j, n - 1))
        scale = max(1.0, float(np.max(np.abs(f.values)) * np.max(np.abs(g.values))))
        ratio = summation_by_parts_residual(f, g, j, N) / (1e-12 * scale)
        yield ratio, ratio > 1.0


@_campaign("greens-identity")
def greens_identity_campaign(rng, cases):
    for _ in range(cases):
        N = int(rng.integers(1, 199))
        p = Sequence(0, rng.uniform(0.1, 10.0, N + 1))
        u = Sequence(0, _random_complex(rng, N + 2))
        v = Sequence(0, _random_complex(rng, N + 2))
        scale = max(1.0, float(np.max(p.values)
                               * np.max(np.abs(u.values))
                               * np.max(np.abs(v.values))))
        ratio = greens_identity_residual(p, u, v, N) / (1e-12 * scale)
        yield ratio, ratio > 1.0


# Cases per array pass of the two recurrence campaigns.  A block of 32 keeps
# the working set (two complex solutions of length N + 2 = 202 per case and
# the temporaries of the checks) near 1.5 MB; blocks of 50 run about 20%
# faster but grow peak RSS by about 2.5 MB over solving case by case.
BLOCK = 32


def _tame_blocks(rng, cases: int):
    """Solved blocks of random instances with moderate recurrence growth.

    Each case draws, in this order, p, q on 0..N and w on 1..N+1, a real
    lambda and four complex initial values: (u(0), u(1)) of phi and of
    theta, with N = 200.  Yields ((pv, qv, wv, lam), u) for B cases:
    p(0..N), q(1..N) and w(1..N) of shape (len, 1, B), lam of shape (B,),
    and the solutions u of shape (N+2, 2, B) with phi and theta on axis 1.
    """
    N = 200
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


@_campaign("wronskian-constancy")
def wronskian_campaign(rng, cases):
    for (pv, _, _, _), u in _tame_blocks(rng, cases):
        drift, bound = _wronskian_drift(pv, u[:, :1], u[:, 1:])
        yield np.max(drift / bound), np.sum(drift > bound)


@_campaign("solver-consistency")
def solver_consistency_campaign(rng, cases):
    """Residual of apply_L(u) = lam w u for the same draws as the Wronskian run."""
    for args, u in _tame_blocks(rng, cases):
        ratio = _residual_ratio(*args, u)
        yield np.max(ratio), np.sum(ratio > 1.0)


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
    return float(_residual_ratio(coeffs.p.window(0, N), coeffs.q.window(1, N),
                                 coeffs.w.window(1, N), sol.lam,
                                 sol.values.window(0, N + 1)))


def _supported_u(rng, length):
    """Complex u vanishing near both window ends (differences die inside)."""
    u = np.zeros(length, dtype=np.complex128)
    hi = length - 3
    u[1:hi + 1] = _random_complex(rng, hi)
    return Sequence(0, u)


@_campaign("lemma1")
def lemma1_campaign(rng, cases):
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        p = Sequence(0, rng.uniform(0.1, 10.0, length))
        u = _supported_u(rng, length)
        n = int(rng.integers(1, length - 1))
        m = int(rng.integers(n, length - 1))
        rep = check_lemma1(p, u, n, m)
        yield (rep.lhs - rep.rhs) / rep.tolerance_used, not rep.holds


@_campaign("lemma2")
def lemma2_campaign(rng, cases):
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        coeffs = _q_nontrivial_coeffs(rng, length)
        u = _supported_u(rng, length)
        r = length - 1
        m = int(rng.integers(1, r + 1))
        rep = check_lemma2(coeffs, u, m, r)
        yield (rep.lhs - rep.rhs) / rep.tolerance_used, not rep.holds


@_campaign("pointwise-bound")
def pointwise_bound_campaign(rng, cases):
    for _ in range(cases):
        length = int(rng.integers(8, 60))
        coeffs = _q_nontrivial_coeffs(rng, length)
        u = _supported_u(rng, length)
        N = int(rng.integers(1, length - 1))
        m = int(rng.integers(1, N + 1))
        rep = check_pointwise_bound(coeffs, u, m, N)
        yield (rep.lhs - rep.rhs) / rep.tolerance_used, not rep.holds


def run_campaign(name: str, seed: int, cases: int) -> CampaignResult:
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(CAMPAIGNS)}")
    return CAMPAIGNS[name](seed, cases)


def run_all(seed: int, cases: int) -> list:
    return [fn(seed, cases) for fn in CAMPAIGNS.values()]
