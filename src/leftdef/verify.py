"""Seeded verification campaigns over random instances.

Each campaign draws a fixed number of random cases from a deterministic RNG
and reports its failed cases and `worst`, the largest per-case ratio
(residual / tolerance, (lhs - rhs) / slack, or drift / bound): a case fails
when its ratio passes 1, and `worst` is 0 when there are no cases.
A campaign is a block draw ``draw(rng, count)`` plus a block check
registered with ``@_campaign(name, draw, solve)``.  One loop, `_blocks`,
cuts the cases into blocks of at most `BLOCK` cases and draws each block in
one call, and `solve` turns the block into what the check reads.
The check takes one array pass per block, each column over its own length,
and returns the per-case arrays (ratio, failed); `_tally` alone reduces
them.  Every draw takes a fixed-width row of the stream per case, so
drawing a cases and then b cases equals drawing a + b.  Six campaigns draw
a block of rows of numbers in [0, 1) in one call (`_rows`) and decode it in
their `solve`: the integers by floor from each row's first entries, then
each array at its largest length (`_arrays`), filled past each case's
length.  The Wronskian and solver-consistency campaigns share the source
(`_tame_block`, `_solve_tame`) of N = 200 cases: one `rng.uniform` call
draws a block and one real recurrence pass solves it.  Run alone, each
draws and solves its blocks for its own check, and `run_all` draws and
solves each block once for both.
The CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import RESIDUAL_TOL, _greens_identity, _product_rule, _summation_by_parts
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
# phi and theta assembled from them, and one check's temporaries) at 1.6 MB,
# the tracemalloc peak of `run_all(7, 1000)`; blocks of 64 run about 5% faster
# but grow peak RSS by about 2 MB, and blocks of 128 by about 6.5 MB.
BLOCK = 32


def _rows(width: int):
    """The block draw of `width` numbers in [0, 1) per case: one
    ``rng.random((count, width))`` call, so each case takes exactly `width`
    numbers of the stream."""
    return lambda rng, count: rng.random((count, width))


def _integers(lo, size, x):
    """lo + floor(size * x), an integer in lo..lo + size - 1 for x in [0, 1);
    size may be each case's own."""
    return lo + (size * x).astype(int)


def _arrays(x, width, table, length):
    """The arrays of a block of row entries x, one per row (lo, hi, cut, fill)
    of `table`, index on axis 1 and case on axis 2: array i takes the next
    `width` entries of each row as lo + (hi - lo) * x, and `fill` from the
    case's length - cut on."""
    lo, hi, cut, fill = np.array(table, dtype=float).T[:, :, None, None]
    a = lo + (hi - lo) * x.T.reshape(len(table), width, -1)
    return np.where(np.arange(width)[:, None] < length - cut, a, fill)


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


def _campaign(name: str, draw, solve):
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


_PAIRS = [(-10.0, 10.0, 0, 0.0)] * 4   # Re f, Im f, Re g, Im g on 0..n-1


def _product_rule_rows(x):
    n = _integers(2, 199, x[:, 0])
    return n[None], _arrays(x[:, 1:], 200, _PAIRS, n)


@_campaign("product-rule", _rows(1 + 4 * 200), _product_rule_rows)
def product_rule_campaign(cols, parts):
    f, g, scale = _pair_block(parts)
    return _residual_block(_product_rule(f, g, cols[0]), scale)


def _summation_by_parts_rows(x):
    n = _integers(3, 198, x[:, 0])
    j = _integers(0, n - 2, x[:, 1])
    return np.array([n, j, _integers(j, n - 1 - j, x[:, 2])]), _arrays(x[:, 3:], 200, _PAIRS, n)


@_campaign("summation-by-parts", _rows(3 + 4 * 200), _summation_by_parts_rows)
def summation_by_parts_campaign(cols, parts):
    f, g, scale = _pair_block(parts)
    return _residual_block(_summation_by_parts(f, g, *cols[1:]), scale)


def _greens_identity_rows(x):
    N = _integers(1, 198, x[:, 0])   # p on 0..N, then u and v on 0..N+1
    return N[None], _arrays(x[:, 1:], 200, [(0.1, 10.0, 1, 0.0), *_PAIRS], N + 2)


@_campaign("greens-identity", _rows(1 + 5 * 200), _greens_identity_rows)
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
    solutions u of shape (N+2, 2, B) with phi and theta on axis 1.  lam and
    the initial data are real-typed, so one real pass solves the real and
    the imaginary parts of the initial data together, on axis 1 of its
    float64 (N+2, 2, 2, B) result; re + 1j * im rounds nothing, so u is the
    complex solve bit for bit."""
    x = draws.T.copy()   # entry on axis 0; a contiguous copy runs the passes ~10% faster
    p, q, w = x[:603].reshape(3, 201, -1)
    init = x[604:].reshape(2, 4, -1)   # parts of phi(0), phi(1), theta(0), theta(1)
    args = (p[:, None], q[1:, None], w[:-1, None], x[603])
    parts = recurrence(*args, init[:, 0::2], init[:, 1::2])
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


# The arrays of a lemma case of length 8..59: p on 0..length-1, with 1 past
# it so that the padding passes the p > 0 check and keeps 1/p finite, and the
# real and imaginary parts of u(1..length-3).
_P, _U = (0.1, 10.0, 0, 1.0), [(-10.0, 10.0, 3, 0.0)] * 2


def _supported(arrays):
    """The coefficient arrays of a lemma block, and the complex u on
    0..length-1 that vanishes outside 1..length-3, from its last two padded
    arrays: the real and imaginary parts of u(1..length-3)."""
    *coeffs, ur, ui = arrays
    u = np.zeros(ur.shape, dtype=complex)
    u[1:] = (ur + 1j * ui)[:-1]
    return coeffs, u


def _lemma1_rows(x):
    length = _integers(8, 52, x[:, 0])
    n = _integers(1, length - 2, x[:, 1])
    m = _integers(n, length - 1 - n, x[:, 2])
    return np.array([length, n, m]), _arrays(x[:, 3:], 59, [_P, *_U], length)


@_campaign("lemma1", _rows(3 + 3 * 59), _lemma1_rows)
def lemma1_campaign(cols, arrays):
    length, n, m = cols
    (p,), u = _supported(arrays)
    return _excess(*_lemma1(p, u, n, m, 1, length - 2))


def _coefficient_rows(x, k: int):
    """length, bump and the arrays q, p, Re u and Im u of a block of lemma2
    or pointwise-bound rows, whose first k entries are integers: q(bump)
    gets 0.5 more, so that q has a positive entry past index 0."""
    length = _integers(8, 52, x[:, 0])
    bump = _integers(1, length - 1, x[:, 1])
    arrays = _arrays(x[:, k:], 59, [(0.0, 5.0, 0, 0.0), _P, *_U], length)
    arrays[0, bump, np.arange(len(bump))] += 0.5
    return length, bump, arrays


def _lemma2_rows(x):
    length, bump, arrays = _coefficient_rows(x, 3)
    return np.array([length, bump, _integers(1, length - 1, x[:, 2])]), arrays   # m in 1..r


@_campaign("lemma2", _rows(3 + 4 * 59), _lemma2_rows)
def lemma2_campaign(cols, arrays):
    length, _, m = cols
    (q, p), u = _supported(arrays)
    return _excess(*_lemma2(p, q, u, m, length - 1, length - 2))


def _pointwise_bound_rows(x):
    length, bump, arrays = _coefficient_rows(x, 4)
    N = _integers(1, length - 2, x[:, 2])
    return np.array([length, bump, N, _integers(1, N, x[:, 3])]), arrays


@_campaign("pointwise-bound", _rows(4 + 4 * 59), _pointwise_bound_rows)
def pointwise_bound_campaign(cols, arrays):
    length, _, N, m = cols
    (q, p), u = _supported(arrays)
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
