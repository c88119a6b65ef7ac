"""Seeded verification campaigns over random instances.

Each campaign draws a fixed number of random cases from a deterministic RNG,
evaluates one identity or inequality per case, and reports the number of
failures together with the worst normalized residual or smallest margin.
All eight campaigns draw their cases one by one, in a fixed order, and check
them in blocks of `BLOCK` cases per array pass: cases of different lengths
are zero-padded along axis 0 and each column is checked over its own length.
The Wronskian and solver-consistency campaigns read the same solved blocks
of recurrence cases; run alone, each draws and solves them for its own
check, and `run_all` draws and solves each block once for both.
The CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import _greens_identity, _index, _product_rule, _summation_by_parts
from .coeffs import CoefficientSet, _check_coefficients, _require
from .operators import _apply_L, _wronskian_drift, recurrence
from .space import _lemma1, _lemma2, _pointwise_bound, _slack

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


CAMPAIGNS = {}
_SHARED = {}   # block source -> {name: check} of the campaigns that read it


def _tally(checks: dict, blocks, cases: int) -> dict:
    """The CampaignResult of each campaign of `checks`, a {name: check}
    mapping whose checks map every one of `blocks` to (largest ratio, number
    failed).  A campaign counts the failed cases and reports the largest
    ratio, at least 0."""
    worst, failures = dict.fromkeys(checks, 0.0), dict.fromkeys(checks, 0)
    for block in blocks:
        for name, check in checks.items():
            ratio, failed = check(block)
            worst[name] = max(worst[name], float(ratio))
            failures[name] += int(failed)
    return {name: CampaignResult(name, cases, failures[name], worst[name])
            for name in checks}


def _campaign(name: str, source=None):
    """Register the campaign `name`.

    Without a `source`, the decorated function is a block generator
    ``gen(rng, cases)`` that yields (largest ratio, number failed) for each
    block of cases.  With one, it is a check that maps each block the
    generator ``source(rng, cases)`` yields to that pair, and the campaigns
    of one source share it: `run_all` draws each of its blocks once and
    applies all of their checks to it.  The registered function takes
    (seed, cases), computes its own check only, and replaces the decorated
    function under its module-level name; its pairs stay reachable, block
    by block, as its ``blocks(rng, cases)``.
    """
    def register(fn):
        gen, check = (source, fn) if source else (fn, lambda pair: pair)

        def campaign(seed: int, cases: int) -> CampaignResult:
            return _tally({name: check}, gen(np.random.default_rng(seed), cases), cases)[name]
        campaign.__name__ = campaign.__qualname__ = fn.__name__
        campaign.__doc__ = fn.__doc__
        campaign.blocks = lambda rng, cases: map(check, gen(rng, cases))
        if source:
            _SHARED.setdefault(source, {})[name] = check
        CAMPAIGNS[name] = campaign
        return campaign
    return register


# Cases per array pass.  A block of 32 keeps the working set of a solved
# recurrence block (phi and theta, complex of length N + 2 = 202 per case,
# and the temporaries of one check at a time) near 1.5 MB; blocks of 50 run
# about 20% faster there but grow peak RSS by about 2.5 MB over solving case
# by case.
BLOCK = 32


def _block_sizes(cases: int) -> list:
    return [min(BLOCK, cases - start) for start in range(0, cases, BLOCK)]


def _padded(sizes, draws) -> np.ndarray:
    """A block's draws as zero-padded arrays, index on axis 1, case on axis 2.

    Case k drew arrays of lengths sizes[k][0], sizes[k][1], ... in turn, and
    draws lists the arrays drawn, case after case; array j of case k lands
    in out[j, :sizes[k][j], k].  One uniform call may draw several arrays
    of the same range at once, since it yields the same numbers.
    """
    sizes = np.asarray(sizes)
    width = int(sizes.max())
    out = np.zeros(sizes.shape + (width,))
    out[np.arange(width) < sizes[..., None]] = np.concatenate(draws)
    return out.transpose(1, 2, 0).copy()


def _check_finite(**arrays):
    """The finiteness check of a `Sequence`, made once for a whole block."""
    for name, a in arrays.items():
        _require(name, np.isfinite(a), 0, "is not finite")


def _complex_pairs(parts):
    """Complex arrays from consecutive (real, imaginary) pairs."""
    return [re + 1j * im for re, im in zip(parts[::2], parts[1::2])]


def _residual_block(residual, scale):
    """The largest residual / (1e-12 * scale) of a block and how many exceed 1."""
    ratio = residual / (1e-12 * scale)
    return np.max(ratio), np.sum(ratio > 1.0)


def _excess(lhs, rhs):
    """The largest (lhs - rhs) / slack of a block and its number of cases
    that fail lhs <= rhs + slack, with the slack of `inequality_report`."""
    slack = _slack(lhs, rhs)
    return np.max((lhs - rhs) / slack), np.sum(~(lhs <= rhs + slack))


def _pair_block(n, draws):
    """Complex f, g and their scale max(1, max|f| max|g|) from a block whose
    case k drew Re f, Im f, Re g and Im g of length n[k] in one call."""
    f, g = _complex_pairs(_padded(np.repeat(n[:, None], 4, axis=1), draws))
    _check_finite(f=f, g=g)
    return f, g, np.maximum(1.0, np.max(np.abs(f), axis=0) * np.max(np.abs(g), axis=0))


@_campaign("product-rule")
def product_rule_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            n = int(rng.integers(2, 201))
            draws.append(rng.uniform(-10.0, 10.0, 4 * n))
            cols.append(n)
        n = np.array(cols)
        f, g, scale = _pair_block(n, draws)
        yield _residual_block(_product_rule(f, g, n), scale)


@_campaign("summation-by-parts")
def summation_by_parts_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            n = int(rng.integers(3, 201))
            draws.append(rng.uniform(-10.0, 10.0, 4 * n))
            j = int(rng.integers(0, n - 2))
            cols.append((n, j, int(rng.integers(j, n - 1))))
        n, j, N = np.array(cols).T
        f, g, scale = _pair_block(n, draws)
        yield _residual_block(_summation_by_parts(f, g, j, N), scale)


@_campaign("greens-identity")
def greens_identity_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            N = int(rng.integers(1, 199))
            draws += [rng.uniform(0.1, 10.0, N + 1),          # p(0..N)
                      rng.uniform(-10.0, 10.0, 4 * (N + 2))]  # Re u, Im u, Re v, Im v
            cols.append(N)
        N = np.array(cols)
        p, *parts = _padded(np.column_stack([N + 1] + [N + 2] * 4), draws)
        u, v = _complex_pairs(parts)
        _check_finite(p=p, u=u, v=v)
        scale = np.maximum(1.0, np.max(p, axis=0) * np.max(np.abs(u), axis=0)
                           * np.max(np.abs(v), axis=0))
        yield _residual_block(_greens_identity(p[:-1], u, v, N), scale)


def _tame_blocks(rng, cases: int):
    """Solved blocks of random instances with moderate recurrence growth,
    the block source of the Wronskian and solver-consistency campaigns.

    Each case draws, in this order, p, q on 0..N and w on 1..N+1, a real
    lambda and four complex initial values: (u(0), u(1)) of phi and of
    theta, with N = 200.  Yields ((pv, qv, wv, lam), u) for B cases:
    p(0..N), q(1..N) and w(1..N) of shape (len, 1, B), lam of shape (B,),
    and the solutions u of shape (N+2, 2, B) with phi and theta on axis 1.
    """
    N = 200
    for B in _block_sizes(cases):
        p, q, w = np.empty((N + 1, B)), np.empty((N + 1, B)), np.empty((N + 1, B))
        lam = np.empty(B)
        init = np.empty((B, 4), dtype=complex)
        for k in range(B):
            p[:, k] = rng.uniform(1.0, 2.0, N + 1)
            q[:, k] = rng.uniform(0.0, 0.5, N + 1)
            w[:, k] = rng.uniform(-0.5, 0.5, N + 1)
            lam[k] = rng.uniform(-10.0, 10.0)
            init[k] = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        _check_coefficients(p, q, w)
        args = (p[:, None], q[1:, None], w[:-1, None], lam)
        yield args, recurrence(*args, init[:, 0::2].T, init[:, 1::2].T)


@_campaign("wronskian-constancy", _tame_blocks)
def wronskian_campaign(block):
    """Drift of the Wronskian of phi and theta over each case's window."""
    (pv, _, _, _), u = block
    drift, bound = _wronskian_drift(pv, u[:, :1], u[:, 1:])
    return np.max(drift / bound), np.sum(drift > bound)


@_campaign("solver-consistency", _tame_blocks)
def solver_consistency_campaign(block):
    """Residual of apply_L(u) = lam w u for phi and theta of each case, on
    the solved blocks that the Wronskian check reads too."""
    args, u = block
    ratio = _residual_ratio(*args, u)
    return np.max(ratio), np.sum(ratio > 1.0)


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
    return float(_residual_ratio(coeffs.p.window(0, N, "p"), coeffs.q.window(1, N, "q"),
                                 coeffs.w.window(1, N, "w"), sol.lam,
                                 sol.values.window(0, N + 1)))


def _supported(length, draws, count):
    """The padded arrays of a lemma block: `count` coefficient arrays of each
    case's length, then a complex u on 0..length-1 that vanishes outside
    1..length-3, drawn as its real and then its imaginary parts."""
    *coeffs, ur, ui = _padded(np.column_stack([length] * count + [length - 3] * 2), draws)
    u = np.zeros(ur.shape, dtype=complex)
    u[1:] = (ur + 1j * ui)[:-1]
    _check_finite(u=u)
    return coeffs, u


def _positive_padding(p, length):
    """p with 1 past each case's length, so that the padding passes p > 0."""
    return np.where(_index(p) < length, p, 1.0)


@_campaign("lemma1")
def lemma1_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            length = int(rng.integers(8, 60))
            draws += [rng.uniform(0.1, 10.0, length),              # p
                      rng.uniform(-10.0, 10.0, 2 * (length - 3))]  # u(1..length-3)
            n = int(rng.integers(1, length - 1))
            cols.append((length, n, int(rng.integers(n, length - 1))))
        length, n, m = np.array(cols).T
        (p,), u = _supported(length, draws, 1)
        yield _excess(*_lemma1(_positive_padding(p, length), u, n, m, 1, length - 2))


def _coefficient_case(rng, draws) -> tuple:
    """Draw the coefficients and u of one lemma2 or pointwise-bound case.

    Appends q, p, w and u(1..length-3) to draws and returns (length, b):
    q(b) gets 0.5 more, so that q has a positive entry past index 0.
    """
    length = int(rng.integers(8, 60))
    draws.append(rng.uniform(0.0, 5.0, length))
    bump = 1 + int(rng.integers(0, length - 1))
    draws += [rng.uniform(0.1, 10.0, length), rng.uniform(-5.0, 5.0, length),
              rng.uniform(-10.0, 10.0, 2 * (length - 3))]
    return length, bump


def _coefficient_block(length, bump, draws):
    """p, q and u of a block of `_coefficient_case` draws, with the checks a
    CoefficientSet makes on p, q and w."""
    (q, p, w), u = _supported(length, draws, 3)
    q[bump, np.arange(len(bump))] += 0.5
    p = _positive_padding(p, length)
    _check_coefficients(p, q, w)
    return p, q, u


@_campaign("lemma2")
def lemma2_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            length, bump = _coefficient_case(rng, draws)
            cols.append((length, bump, int(rng.integers(1, length))))  # m in 1..r
        length, bump, m = np.array(cols).T
        p, q, u = _coefficient_block(length, bump, draws)
        yield _excess(*_lemma2(p, q, u, m, length - 1, length - 2))


@_campaign("pointwise-bound")
def pointwise_bound_campaign(rng, cases):
    for B in _block_sizes(cases):
        cols, draws = [], []
        for _ in range(B):
            length, bump = _coefficient_case(rng, draws)
            N = int(rng.integers(1, length - 1))
            cols.append((length, bump, N, int(rng.integers(1, N + 1))))
        length, bump, N, m = np.array(cols).T
        p, q, u = _coefficient_block(length, bump, draws)
        yield _excess(*_pointwise_bound(p, q, u, m, N, length - 1))


def run_campaign(name: str, seed: int, cases: int) -> CampaignResult:
    if name not in CAMPAIGNS:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(CAMPAIGNS)}")
    return CAMPAIGNS[name](seed, cases)


def run_all(seed: int, cases: int) -> list:
    """Every campaign, in CAMPAIGNS order.  The campaigns of a shared block
    source take one pass over it together, so each block is drawn and solved
    once for all of their checks; the others run one by one."""
    shared = {}
    for source, checks in _SHARED.items():
        shared.update(_tally(checks, source(np.random.default_rng(seed), cases), cases))
    return [shared[name] if name in shared else campaign(seed, cases)
            for name, campaign in CAMPAIGNS.items()]
