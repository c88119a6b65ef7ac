"""Seeded verification campaigns over random instances.

Each campaign draws a fixed number of random cases from a deterministic RNG
and reports its failed cases and `worst`, the largest per-case ratio
(residual / tolerance, (lhs - rhs) / slack, or drift / bound): a case fails
when its ratio passes 1, and `worst` is 0 when there are no cases.
A campaign is a block draw ``draw(rng, count)`` plus a block check
registered with ``@_campaign(name, draw, solve=...)``.  One loop, `_blocks`,
cuts the cases into blocks of at most `BLOCK` cases and draws each block in
one call; an optional `solve` turns the block into what the check reads.
The check takes one array pass per block, each column over its own length,
and returns the per-case arrays (ratio, failed); `_tally` alone reduces
them.  Every draw takes the stream case after case, so drawing a cases and
then b cases equals drawing a + b.  Six campaigns draw each case as a row
of scalars and 1-d arrays of varying length; `_per_case` turns that into a
block draw, the rows as columns and the arrays zero-padded (`_padded`).
The Wronskian and solver-consistency campaigns share the source
(`_tame_block`, `_solve_tame`) of N = 200 cases: one `rng.uniform` call
draws a block and one real recurrence pass solves it.  Run alone, each
draws and solves its blocks for its own check, and `run_all` draws and
solves each block once for both.
The CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import RESIDUAL_TOL, _greens_identity, _index, _product_rule, _summation_by_parts
from .coeffs import CoefficientSet, _integer
from .errors import ValidationError
from .operators import _apply_L, _wronskian_drift, recurrence
from .space import _lemma1, _lemma2, _pointwise_bound, _slack

__all__ = ["CampaignResult", "run_campaign", "run_all", "CAMPAIGNS"]


@dataclass(frozen=True)
class CampaignResult:
    name: str
    cases: int
    failures: int
    worst: float    # largest per-case ratio (a case fails past 1); 0 with no cases


CAMPAIGNS = {}
_SOURCES = {}   # (draw, solve) -> {name: check} of the campaigns that read its blocks


# Cases per array pass.  A block of 32 keeps the working set of a solved
# recurrence block (its real solutions, 4 x 202 doubles per case, the complex
# phi and theta assembled from them, and the temporaries of one check at a
# time) near 1.6 MB; blocks of 64 run about 5% faster but grow peak RSS by
# about 2 MB, and blocks of 128 by about 6.5 MB.
BLOCK = 32


def _padded(draws) -> np.ndarray:
    """A block's draws as zero-padded arrays, index on axis 1, case on axis 2.

    draws[k] lists the 1-d arrays that case k drew, and array j of case k
    lands in out[j, :len, k].
    """
    sizes = np.array([[len(a) for a in case] for case in draws])
    width = int(sizes.max())
    out = np.zeros(sizes.shape + (width,))
    out[np.arange(width) < sizes[..., None]] = np.concatenate([a for case in draws for a in case])
    return out.transpose(1, 2, 0).copy()


def _per_case(case):
    """The block draw ``draw(rng, count)`` of a per-case draw ``case(rng)``,
    which returns one case's row of scalars and its list of 1-d arrays: the
    pair (columns, arrays) of `count` cases drawn one by one, their rows as
    one column per scalar and their arrays `_padded`."""
    def draw(rng, count: int):
        rows, draws = zip(*[case(rng) for _ in range(count)])
        return np.array(rows).T, _padded(draws)
    return draw


def _blocks(source, rng, cases: int):
    """The blocks of `cases` cases of source = (draw, solve): each is
    ``solve(draw(rng, count))`` of the next count <= `BLOCK` cases."""
    draw, solve = source
    for start in range(0, cases, BLOCK):
        yield solve(draw(rng, min(BLOCK, cases - start)))


def _tally(checks: dict, source, seed: int, cases: int) -> dict:
    """The CampaignResult of each campaign of `checks`, a {name: check}
    mapping whose checks map every block of `source`, see `_blocks`, to the
    per-case arrays (ratio, failed).  A campaign counts the failed entries
    and reports the largest ratio, or 0.0 when there are no cases."""
    seed, cases = _integer(seed, "seed"), _integer(cases, "cases")
    worst, failures = dict.fromkeys(checks, -np.inf), dict.fromkeys(checks, 0)
    for block in _blocks(source, np.random.default_rng(seed), cases):
        for name, check in checks.items():
            ratio, failed = check(*block)
            worst[name] = max(worst[name], float(np.max(ratio)))
            failures[name] += int(np.sum(failed))
    return {name: CampaignResult(name, cases, failures[name], worst[name] if cases else 0.0)
            for name in checks}


def _campaign(name: str, draw, solve=lambda block: block):
    """Register the campaign `name`, whose check is the decorated function:
    it maps each block of the source (draw, solve), see `_blocks`, unpacked
    into its arguments, to the per-case arrays (ratio, failed).  The
    registered function takes (seed, cases), computes this check only and
    replaces the check under its module-level name; its
    ``blocks(rng, cases)`` yields the pairs block by block.  `run_all`
    applies all checks of one source to each of its blocks."""
    source = (draw, solve)

    def register(check):
        def campaign(seed: int, cases: int) -> CampaignResult:
            return _tally({name: check}, source, seed, cases)[name]
        campaign.__name__ = campaign.__qualname__ = check.__name__
        campaign.__doc__ = check.__doc__
        campaign.blocks = lambda rng, cases: (check(*b) for b in _blocks(source, rng, cases))
        _SOURCES.setdefault(source, {})[name] = check
        CAMPAIGNS[name] = campaign
        return campaign
    return register


def _complex_pairs(parts):
    """Complex arrays from consecutive (real, imaginary) pairs."""
    return [re + 1j * im for re, im in zip(parts[::2], parts[1::2])]


def _residual_block(residual, scale):
    """Each case's residual / (RESIDUAL_TOL * scale) and whether it exceeds 1."""
    ratio = residual / (RESIDUAL_TOL * scale)
    return ratio, ratio > 1.0


def _excess(lhs, rhs):
    """Each case's (lhs - rhs) / slack and whether it fails lhs <= rhs + slack,
    with the slack of `inequality_report`."""
    slack = _slack(lhs, rhs)
    return (lhs - rhs) / slack, ~(lhs <= rhs + slack)


def _pair_block(parts):
    """Complex f, g and their scale max(1, max|f| max|g|) from the padded
    Re f, Im f, Re g and Im g of a block."""
    f, g = _complex_pairs(parts)
    return f, g, np.maximum(1.0, np.max(np.abs(f), axis=0) * np.max(np.abs(g), axis=0))


def _product_rule_case(rng):
    n = int(rng.integers(2, 201))
    return (n,), [*rng.uniform(-10.0, 10.0, (4, n))]   # Re f, Im f, Re g, Im g


@_campaign("product-rule", _per_case(_product_rule_case))
def product_rule_campaign(cols, parts):
    f, g, scale = _pair_block(parts)
    return _residual_block(_product_rule(f, g, cols[0]), scale)


def _summation_by_parts_case(rng):
    n = int(rng.integers(3, 201))
    parts = rng.uniform(-10.0, 10.0, (4, n))
    j = int(rng.integers(0, n - 2))
    return (j, int(rng.integers(j, n - 1))), [*parts]


@_campaign("summation-by-parts", _per_case(_summation_by_parts_case))
def summation_by_parts_campaign(cols, parts):
    f, g, scale = _pair_block(parts)
    return _residual_block(_summation_by_parts(f, g, *cols), scale)


def _greens_identity_case(rng):
    N = int(rng.integers(1, 199))
    return (N,), [rng.uniform(0.1, 10.0, N + 1),              # p(0..N)
                  *rng.uniform(-10.0, 10.0, (4, N + 2))]      # Re u, Im u, Re v, Im v


@_campaign("greens-identity", _per_case(_greens_identity_case))
def greens_identity_campaign(cols, arrays):
    p, *parts = arrays
    u, v = _complex_pairs(parts)
    scale = np.maximum(1.0, np.max(p, axis=0) * np.max(np.abs(u), axis=0)
                       * np.max(np.abs(v), axis=0))
    return _residual_block(_greens_identity(p[:-1], u, v, cols[0]), scale)


# The bounds of each entry of a tame case's row, in draw order: p and q on
# 0..N and w on 1..N+1 with N = 200, a real lambda, then the real and the
# imaginary parts of (u(0), u(1)) of phi and of theta.
_TAME_LO, _TAME_HI = (np.repeat(ends, [201, 201, 201, 1, 8]) for ends in
                      zip((1.0, 2.0), (0.0, 0.5), (-0.5, 0.5), (-10.0, 10.0), (-1.0, 1.0)))


def _tame_block(rng, count: int):
    """`count` random instances with moderate recurrence growth, the cases of
    the Wronskian and solver-consistency campaigns, as one row per case.
    numpy's per-entry `random_uniform` draws each entry as
    lo + (hi - lo) * next_double in C order, so one call with per-entry
    bounds takes the stream and gives the values, bit for bit, of one call
    per array of each case."""
    return rng.uniform(_TAME_LO, _TAME_HI, (count, _TAME_LO.size))


def _solve_tame(draws):
    """((pv, qv, wv, lam), u) of a block of `_tame_block` rows: p(0..N),
    q(1..N) and w(1..N) of shape (len, 1, B), lam of shape (B,), and the
    solutions u of shape (N+2, 2, B) with phi and theta on axis 1.  The
    recurrence is real, so one real pass solves the real and the imaginary
    parts of the initial data together, on axis 1 of its (N+2, 2, 2, B)
    result; re + 1j * im rounds nothing, so u is the complex solve bit for
    bit."""
    x = draws.T.copy()   # entry on axis 0; a contiguous copy runs the passes ~10% faster
    p, q, w = x[:603].reshape(3, 201, -1)
    init = x[604:].reshape(2, 4, -1)   # parts of phi(0), phi(1), theta(0), theta(1)
    args = (p[:, None], q[1:, None], w[:-1, None], x[603])
    parts = recurrence(*args, init[:, 0::2], init[:, 1::2]).real
    return args, parts[:, 0] + 1j * parts[:, 1]


@_campaign("wronskian-constancy", _tame_block, _solve_tame)
def wronskian_campaign(args, u):
    """Drift of the Wronskian of phi and theta over each case's window."""
    drift, bound = _wronskian_drift(args[0], u[:, :1], u[:, 1:])
    return drift / bound, drift > bound


@_campaign("solver-consistency", _tame_block, _solve_tame)
def solver_consistency_campaign(args, u):
    """Residual of apply_L(u) = lam w u for phi and theta of each case, on
    the solved blocks that the Wronskian check reads too: one entry per
    solution, shape (2, B)."""
    ratio = _residual_ratio(*args, u)
    return ratio, ratio > 1.0


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


def _supported(arrays):
    """The coefficient arrays of a lemma block, and the complex u on
    0..length-1 that vanishes outside 1..length-3, from its last two padded
    arrays: the real and imaginary parts of u(1..length-3)."""
    *coeffs, ur, ui = arrays
    u = np.zeros(ur.shape, dtype=complex)
    u[1:] = (ur + 1j * ui)[:-1]
    return coeffs, u


def _positive_padding(p, length):
    """p with 1 past each case's length, so that the padding passes the p > 0
    check of `_lemma1` and keeps 1/p finite."""
    return np.where(_index(p) < length, p, 1.0)


def _lemma1_case(rng):
    length = int(rng.integers(8, 60))
    arrays = [rng.uniform(0.1, 10.0, length),                  # p
              *rng.uniform(-10.0, 10.0, (2, length - 3))]      # u(1..length-3)
    n = int(rng.integers(1, length - 1))
    return (length, n, int(rng.integers(n, length - 1))), arrays


@_campaign("lemma1", _per_case(_lemma1_case))
def lemma1_campaign(cols, arrays):
    length, n, m = cols
    (p,), u = _supported(arrays)
    return _excess(*_lemma1(_positive_padding(p, length), u, n, m, 1, length - 2))


def _coefficient_case(rng) -> tuple:
    """The row (length, b) and the arrays q, p and u(1..length-3) of one
    lemma2 or pointwise-bound case: q(b) gets 0.5 more, so that q has a
    positive entry past index 0.  A weight w is drawn between p and u, and
    dropped, to keep the settled draw order; neither lemma reads w."""
    length = int(rng.integers(8, 60))
    q = rng.uniform(0.0, 5.0, length)
    bump = 1 + int(rng.integers(0, length - 1))
    p = rng.uniform(0.1, 10.0, length)
    rng.uniform(-5.0, 5.0, length)
    return (length, bump), [q, p, *rng.uniform(-10.0, 10.0, (2, length - 3))]


def _coefficient_block(length, bump, arrays):
    """p, q and u of a block of `_coefficient_case` draws."""
    (q, p), u = _supported(arrays)
    q[bump, np.arange(len(bump))] += 0.5
    return _positive_padding(p, length), q, u


def _lemma2_case(rng):
    row, arrays = _coefficient_case(rng)
    return row + (int(rng.integers(1, row[0])),), arrays   # m in 1..r


@_campaign("lemma2", _per_case(_lemma2_case))
def lemma2_campaign(cols, arrays):
    length, bump, m = cols
    p, q, u = _coefficient_block(length, bump, arrays)
    return _excess(*_lemma2(p, q, u, m, length - 1, length - 2))


def _pointwise_bound_case(rng):
    row, arrays = _coefficient_case(rng)
    N = int(rng.integers(1, row[0] - 1))
    return row + (N, int(rng.integers(1, N + 1))), arrays


@_campaign("pointwise-bound", _per_case(_pointwise_bound_case))
def pointwise_bound_campaign(cols, arrays):
    length, bump, N, m = cols
    p, q, u = _coefficient_block(length, bump, arrays)
    return _excess(*_pointwise_bound(p, q, u, m, N, length - 1))


def run_campaign(name: str, seed: int, cases: int) -> CampaignResult:
    if not isinstance(name, str) or name not in CAMPAIGNS:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(CAMPAIGNS)}")
    return CAMPAIGNS[name](seed, cases)


def run_all(seed: int, cases: int) -> list:
    """Every campaign, in CAMPAIGNS order.  The campaigns of a shared block
    source take one pass over it together, so each block is drawn and solved
    once for all of their checks; the others run one by one."""
    shared = {}
    for source, checks in _SOURCES.items():
        if len(checks) > 1:
            shared.update(_tally(checks, source, seed, cases))
    return [shared[name] if name in shared else campaign(seed, cases)
            for name, campaign in CAMPAIGNS.items()]
