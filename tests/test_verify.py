import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftdef import (
    CoefficientSet,
    InitKind,
    Sequence,
    ValidationError,
    check_lemma1,
    check_lemma2,
    check_pointwise_bound,
    greens_identity_residual,
    product_rule_residual,
    solve_recurrence,
    summation_by_parts_residual,
    wronskian_constancy_report,
)
from leftdef import verify
from leftdef.calculus import (
    RESIDUAL_TOL,
    _greens_identity,
    _product_rule,
    _summation_by_parts,
)
from leftdef.space import _lemma1, _lemma2, _pointwise_bound
from leftdef.verify import BLOCK, CAMPAIGNS, run_all, run_campaign, solution_residual_ratio


def reference_campaigns(seed, cases, N=200):
    """Both recurrence campaigns one case at a time, on the same draws."""
    rng = np.random.default_rng(seed)
    wronskian, consistency = [0.0, 0], [0.0, 0]
    for _ in range(cases):
        c = CoefficientSet(p=Sequence(0, rng.uniform(1.0, 2.0, N + 1)),
                           q=Sequence(0, rng.uniform(0.0, 0.5, N + 1)),
                           w=Sequence(1, rng.uniform(-0.5, 0.5, N + 1)))
        lam = float(rng.uniform(-10.0, 10.0))
        init = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
        phi = solve_recurrence(c, lam, InitKind.VALUE_PAIR, init[0], init[1], N)
        theta = solve_recurrence(c, lam, InitKind.VALUE_PAIR, init[2], init[3], N)
        rep = wronskian_constancy_report(c, phi, theta)
        wronskian[0] = max(wronskian[0], rep.lhs / rep.rhs)
        wronskian[1] += not rep.holds
        for sol in (phi, theta):
            ratio = solution_residual_ratio(c, sol)
            consistency[0] = max(consistency[0], ratio)
            consistency[1] += ratio > 1.0
    return {"wronskian-constancy": wronskian, "solver-consistency": consistency}


@pytest.mark.parametrize("cases", [1, BLOCK, BLOCK + 1, 37])
def test_batched_campaigns_match_case_by_case_reference(cases):
    seed = 11 + cases
    ref = reference_campaigns(seed, cases)
    for name, (worst, failures) in ref.items():
        r = run_campaign(name, seed, cases)
        assert r.cases == cases
        assert (r.failures, r.worst) == (failures, worst)


def tame_cases(rng, count):
    """`count` rows of the Wronskian and solver-consistency source drawn case
    by case, one `rng.uniform` call per array as `reference_campaigns` does:
    p, q, w, lambda, then the real and the imaginary parts of the four
    initial values."""
    rows = []
    for _ in range(count):
        pqw = [rng.uniform(lo, hi, 201) for lo, hi in ((1.0, 2.0), (0.0, 0.5), (-0.5, 0.5))]
        lam = rng.uniform(-10.0, 10.0)
        rows.append(np.concatenate(pqw + [[lam], rng.uniform(-1.0, 1.0, (2, 4)).ravel()]))
    return np.array(rows)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 5])
@pytest.mark.parametrize("count", [1, 5, BLOCK])
def test_tame_block_draw_equals_per_case_draws(seed, count):
    block, per_case, split = (np.random.default_rng(seed) for _ in range(3))
    got = verify._tame_block(block, count)
    assert got.tobytes() == tame_cases(per_case, count).tobytes()
    assert block.bit_generator.state == per_case.bit_generator.state
    # Two draws in a row take the stream of one draw of both counts.
    head = verify._tame_block(split, count // 2)
    tail = verify._tame_block(split, count - count // 2)
    assert np.concatenate([head, tail]).tobytes() == got.tobytes()
    assert split.bit_generator.state == block.bit_generator.state


def _bits(results):
    return [(r.name, r.cases, type(r.failures), r.failures, type(r.worst), r.worst.hex())
            for r in results]


@pytest.mark.parametrize("seed, cases", [(seed, cases) for seed in (0, 5, 42)
                                         for cases in (0, 1, BLOCK, BLOCK + 1, 37)]
                         + [(7, 1000)])
def test_run_all_matches_each_campaign_alone(seed, cases):
    want = [run_campaign(name, seed, cases) for name in CAMPAIGNS]
    assert [r.name for r in want] == list(CAMPAIGNS)
    assert _bits(run_all(seed, cases)) == _bits(want)


# The worst ratio of each campaign of run_all(7, 100), in the settled per-case
# draw order.  A new order moves a nonzero value by O(1) relative; the
# tolerance leaves room only for vectorized complex products that round
# differently on another CPU.
PINNED_WORST = {
    "product-rule": float.fromhex("0x1.a1862800e823dp-12"),
    "summation-by-parts": float.fromhex("0x1.42eae39a18f76p-9"),
    "greens-identity": float.fromhex("0x1.59b7ecb840d6dp-9"),
    "wronskian-constancy": float.fromhex("0x1.2d09351f425fep-21"),
    "solver-consistency": float.fromhex("0x1.362042d63e109p-14"),
    "lemma1": 0.0,
    "lemma2": float.fromhex("-0x1.68bce254e0619p+39"),
    "pointwise-bound": float.fromhex("-0x1.a5b1ae084de6bp+39"),
}


def test_run_all_pins_the_draw_order():
    results = run_all(7, 100)
    assert [r.name for r in results] == list(PINNED_WORST)
    for r in results:
        assert (r.cases, r.failures) == (100, 0)
        assert r.worst == pytest.approx(PINNED_WORST[r.name], rel=1e-9, abs=0)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(verify, name, counted)
    return calls


def test_run_all_solves_each_recurrence_block_once(monkeypatch):
    solves = _count_calls(monkeypatch, "recurrence")
    run_all(3, 2 * BLOCK + 1)
    assert len(solves) == 3


def test_run_all_calls_each_single_source_campaign_once(monkeypatch):
    # perfbench/spans.py times verify.<name>.case_s by wrapping these functions,
    # so run_all runs a campaign whose source it shares with no other through
    # its own CAMPAIGNS entry rather than tallying its check itself.
    calls = []
    for name, campaign in list(CAMPAIGNS.items()):
        def counted(seed, cases, name=name, campaign=campaign):
            calls.append(name)
            return campaign(seed, cases)
        monkeypatch.setitem(CAMPAIGNS, name, counted)
    run_all(3, 5)
    shared = {"wronskian-constancy", "solver-consistency"}
    assert sorted(calls) == sorted(set(CAMPAIGNS) - shared)


@pytest.mark.parametrize("name, own, other", [
    ("wronskian-constancy", "_wronskian_drift", "_residual_ratio"),
    ("solver-consistency", "_residual_ratio", "_wronskian_drift"),
])
def test_recurrence_campaign_alone_runs_its_own_check_only(monkeypatch, name, own, other):
    solves = _count_calls(monkeypatch, "recurrence")
    mine, theirs = _count_calls(monkeypatch, own), _count_calls(monkeypatch, other)
    run_campaign(name, 3, 2 * BLOCK + 1)
    assert (len(solves), len(mine), len(theirs)) == (3, 3, 0)


def _random_complex(rng, n):
    return rng.uniform(-10.0, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n)


def _scale(*arrays):
    return max(1.0, float(np.prod([np.max(np.abs(a)) for a in arrays])))


def _residual_case(residual, scale):
    ratio = residual / (RESIDUAL_TOL * scale)
    return ratio, ratio > 1.0


def _report_case(rep):
    return (rep.lhs - rep.rhs) / rep.tolerance_used, not rep.holds


def _supported_u(rng, length):
    u = np.zeros(length, dtype=complex)
    u[1:length - 2] = _random_complex(rng, length - 3)
    return Sequence(0, u)


def _lemma_coeffs(rng, length):
    q = rng.uniform(0.0, 5.0, length)
    q[1 + rng.integers(0, length - 1)] += 0.5
    return CoefficientSet(p=Sequence(0, rng.uniform(0.1, 10.0, length)),
                          q=Sequence(0, q),
                          w=Sequence(1, rng.uniform(-5.0, 5.0, length)))


def _product_rule_case(rng):
    n = int(rng.integers(2, 201))
    f, g = _random_complex(rng, n), _random_complex(rng, n)
    return _residual_case(product_rule_residual(Sequence(0, f), Sequence(0, g)),
                          _scale(f) * _scale(g))


def _summation_by_parts_case(rng):
    n = int(rng.integers(3, 201))
    f, g = _random_complex(rng, n), _random_complex(rng, n)
    j = int(rng.integers(0, n - 2))
    N = int(rng.integers(j, n - 1))
    return _residual_case(summation_by_parts_residual(Sequence(0, f), Sequence(0, g), j, N),
                          _scale(f) * _scale(g))


def _greens_identity_case(rng):
    N = int(rng.integers(1, 199))
    p = rng.uniform(0.1, 10.0, N + 1)
    u, v = _random_complex(rng, N + 2), _random_complex(rng, N + 2)
    residual = greens_identity_residual(Sequence(0, p), Sequence(0, u), Sequence(0, v), N)
    return _residual_case(residual, max(1.0, np.max(p) * np.max(np.abs(u)) * np.max(np.abs(v))))


def _lemma1_case(rng):
    length = int(rng.integers(8, 60))
    p = Sequence(0, rng.uniform(0.1, 10.0, length))
    u = _supported_u(rng, length)
    n = int(rng.integers(1, length - 1))
    return _report_case(check_lemma1(p, u, n, int(rng.integers(n, length - 1))))


def _lemma2_case(rng):
    length = int(rng.integers(8, 60))
    coeffs = _lemma_coeffs(rng, length)
    u = _supported_u(rng, length)
    return _report_case(check_lemma2(coeffs, u, int(rng.integers(1, length)), length - 1))


def _pointwise_bound_case(rng):
    length = int(rng.integers(8, 60))
    coeffs = _lemma_coeffs(rng, length)
    u = _supported_u(rng, length)
    N = int(rng.integers(1, length - 1))
    return _report_case(check_pointwise_bound(coeffs, u, int(rng.integers(1, N + 1)), N))


REFERENCE_CASES = {
    "product-rule": _product_rule_case,
    "summation-by-parts": _summation_by_parts_case,
    "greens-identity": _greens_identity_case,
    "lemma1": _lemma1_case,
    "lemma2": _lemma2_case,
    "pointwise-bound": _pointwise_bound_case,
}


def reference_cases(name, seed, cases):
    """(ratio, failed) of each case of a campaign through the public checks."""
    rng = np.random.default_rng(seed)
    return [REFERENCE_CASES[name](rng) for _ in range(cases)]


# How far a case's ratio in a block may sit from the case-by-case one.  A block
# sums each column over its padded length, the public checks over the window
# alone, so sums may round differently.  For the residual campaigns either
# order errs by at most about n * eps * (sum of |terms|)
# <= 200 * 2.2e-16 * 200 * (4 * scale) = 3.5e-11 * scale, and far less in
# practice: below 0.1 in units of the 1e-12 * scale contract.  The
# inequality ratios (lhs - rhs) / (1e-12 * rhs) carry a margin of the order
# of rhs on these draws, so a last-bit change of a sum of positive terms
# moves them by about 1e-16 relative.  The product rule takes no sum and
# must agree bit for bit.
BLOCK_TOL = {
    "product-rule": {},
    "summation-by-parts": {"abs": 0.1},
    "greens-identity": {"abs": 0.1},
    "lemma1": {"rel": 1e-12},
    "lemma2": {"rel": 1e-12},
    "pointwise-bound": {"rel": 1e-12},
}


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
@pytest.mark.parametrize("cases", [0, 1, BLOCK, BLOCK + 1, 37])
def test_block_campaigns_match_case_by_case_reference(name, cases):
    seed = 101 + cases
    want = reference_cases(name, seed, cases)
    got = [case for block in CAMPAIGNS[name].blocks(np.random.default_rng(seed), cases)
           for case in zip(*block)]
    assert [bool(failed) for _, failed in got] == [bool(failed) for _, failed in want]
    tol = {"rel": 0, "abs": 0, **BLOCK_TOL[name]}
    for (ratio, _), (ref, _) in zip(got, want):
        assert ratio == pytest.approx(ref, **tol)
    r = run_campaign(name, seed, cases)
    assert (r.cases, r.failures) == (cases, sum(failed for _, failed in want))
    assert r.worst == max((float(ratio) for ratio, _ in got), default=0.0) <= 1.0


def test_failure_rules_pass_at_equality():
    # A case fails only past its bound: a residual ratio of exactly 1 and
    # lhs == rhs + slack both pass.
    ratio, failed = verify._residual_block(np.array([RESIDUAL_TOL]), np.array([1.0]))
    assert ratio.tolist() == [1.0] and failed.tolist() == [False]
    lhs, rhs = np.array([0.5 + 1e-12]), np.array([0.5])
    assert lhs == rhs + verify._slack(lhs, rhs)
    assert verify._excess(lhs, rhs)[1].tolist() == [False]


def test_empty_campaign():
    for name in ("wronskian-constancy", "solver-consistency"):
        r = run_campaign(name, 0, 0)
        assert (r.cases, r.failures, r.worst) == (0, 0, 0.0)


@pytest.mark.parametrize("seed, cases", [
    (0, -5), (-1, 3), (True, 3), (0, False), (1.5, 3), (0, 2.0), ("1", 3), (None, 3),
    (np.int64(-2), 3), (0, np.float64(4)),
])
@pytest.mark.parametrize("run", [
    lambda seed, cases: run_campaign("lemma1", seed, cases),
    lambda seed, cases: CAMPAIGNS["solver-consistency"](seed, cases),
    run_all,
], ids=["run_campaign", "campaign", "run_all"])
def test_bad_seed_or_cases_is_validation_error(run, seed, cases):
    # Each case breaks one argument: the seed unless it is the valid 0.
    what, value = ("cases", cases) if seed == 0 else ("seed", seed)
    with pytest.raises(ValidationError,
                       match=f"^{what} must be an integer >= 0, got {re.escape(repr(value))}$"):
        run(seed, cases)


@pytest.mark.parametrize("name", ["nope", ["lemma1"], None])
def test_unknown_suite_is_validation_error(name):
    with pytest.raises(ValidationError, match=f"unknown suite {re.escape(repr(name))}"):
        run_campaign(name, 0, 1)


def test_numpy_integer_seed_and_cases_pass():
    r = run_campaign("lemma2", np.int64(7), np.uint16(40))
    assert r == run_campaign("lemma2", 7, 40) and type(r.cases) is int


# -- array cores on padded blocks ----------------------------------------------

GARBAGE = 7.0 - 3.0j   # what a block holds past a column's window


def _block(columns, fill=GARBAGE):
    """Columns of different lengths padded with `fill` into one (len, B) array."""
    width = max(len(c) for c in columns)
    out = np.full((width, len(columns)), fill,
                  dtype=np.result_type(*columns, np.asarray(fill)))
    for k, c in enumerate(columns):
        out[:len(c), k] = c
    return out


seeds = st.integers(0, 2**32 - 1)


@st.composite
def sbp_columns(draw):
    n = draw(st.integers(3, 200))
    j = draw(st.integers(0, n - 2))
    return n, j, draw(st.integers(j, n - 2)), draw(seeds)


@st.composite
def lemma1_columns(draw):
    length = draw(st.integers(2, 60))
    n = draw(st.integers(0, length - 1))
    return length, n, draw(st.integers(n, length - 1)), draw(seeds)


@st.composite
def lemma2_columns(draw):
    length = draw(st.integers(2, 60))
    r = draw(st.integers(1, length - 1))
    return length, r, draw(st.integers(1, r)), draw(st.integers(0, r - 1)), draw(seeds)


@st.composite
def pointwise_columns(draw):
    length = draw(st.integers(2, 60))
    N = draw(st.integers(1, length - 1))
    return (length, N, draw(st.integers(1, N)), draw(st.integers(0, length - 2)),
            draw(seeds))


def _columns(strategy):
    return st.lists(strategy, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@example(cols=[(2, 0), (200, 1)])
@given(cols=_columns(st.tuples(st.integers(2, 200), seeds)))
def test_product_rule_core_matches_each_column(cols):
    f, g = [], []
    for n, seed in cols:
        rng = np.random.default_rng(seed)
        f.append(_random_complex(rng, n))
        g.append(_random_complex(rng, n))
    got = _product_rule(_block(f), _block(g), np.array([n for n, _ in cols]))
    for k in range(len(cols)):
        assert got[k] == product_rule_residual(Sequence(0, f[k]), Sequence(0, g[k]))


@settings(max_examples=60, deadline=None)
@example(cols=[(3, 0, 0, 0), (3, 1, 1, 1), (200, 198, 198, 2), (200, 0, 198, 3),
               (57, 20, 20, 4)])
@given(cols=_columns(sbp_columns()))
def test_summation_by_parts_core_matches_each_column(cols):
    f, g = [], []
    for n, _, _, seed in cols:
        rng = np.random.default_rng(seed)
        f.append(_random_complex(rng, n))
        g.append(_random_complex(rng, n))
    _, j, N, _ = np.array(cols).T
    got = _summation_by_parts(_block(f), _block(g), j, N)
    for k, (n, jk, Nk, _) in enumerate(cols):
        want = summation_by_parts_residual(Sequence(0, f[k]), Sequence(0, g[k]), jk, Nk)
        assert abs(got[k] - want) <= RESIDUAL_TOL * _scale(f[k]) * _scale(g[k])


@settings(max_examples=60, deadline=None)
@example(cols=[(1, 0), (198, 1), (1, 2)])
@given(cols=_columns(st.tuples(st.integers(1, 198), seeds)))
def test_greens_identity_core_matches_each_column(cols):
    p, u, v = [], [], []
    for N, seed in cols:
        rng = np.random.default_rng(seed)
        p.append(rng.uniform(0.1, 10.0, N + 1))
        u.append(_random_complex(rng, N + 2))
        v.append(_random_complex(rng, N + 2))
    got = _greens_identity(_block(p, 5.0), _block(u), _block(v), np.array([N for N, _ in cols]))
    for k, (N, _) in enumerate(cols):
        want = greens_identity_residual(Sequence(0, p[k]), Sequence(0, u[k]),
                                        Sequence(0, v[k]), N)
        scale = max(1.0, np.max(p[k]) * np.max(np.abs(u[k])) * np.max(np.abs(v[k])))
        assert abs(got[k] - want) <= RESIDUAL_TOL * scale


def _assert_report(lhs, rhs, rep):
    """A block column's (lhs, rhs) against the public report of that case; the
    sums of positive terms may differ in their rounding only."""
    assert lhs == pytest.approx(rep.lhs, rel=1e-13, abs=0)
    assert rhs == pytest.approx(rep.rhs, rel=1e-13, abs=0)


@settings(max_examples=60, deadline=None)
@example(cols=[(2, 0, 0, 0), (2, 0, 1, 1), (60, 30, 30, 2), (60, 0, 59, 3),
               (8, 4, 4, 4)])
@given(cols=_columns(lemma1_columns()))
def test_lemma1_core_matches_each_column(cols):
    p, u = [], []
    for length, _, _, seed in cols:
        rng = np.random.default_rng(seed)
        p.append(rng.uniform(0.1, 10.0, length))
        u.append(_random_complex(rng, length))
    length, n, m, _ = np.array(cols).T
    lhs, rhs = _lemma1(_block(p, 3.0), _block(u), n, m, 1, length - 2)
    for k, (_, nk, mk, _) in enumerate(cols):
        _assert_report(lhs[k], rhs[k], check_lemma1(Sequence(0, p[k]), Sequence(0, u[k]), nk, mk))
        if nk == mk:
            assert lhs[k] == rhs[k]


def _coefficients(rng, length, zeros):
    """p, q and w of one column, with q zero on 0..zeros."""
    q = rng.uniform(0.1, 5.0, length)
    q[:zeros + 1] = 0.0
    return rng.uniform(0.1, 10.0, length), q, rng.uniform(-5.0, 5.0, length)


@settings(max_examples=60, deadline=None)
@example(cols=[(2, 1, 1, 0, 0), (60, 59, 59, 58, 1), (60, 30, 1, 0, 2), (9, 8, 3, 5, 3)])
@given(cols=_columns(lemma2_columns()))
def test_lemma2_core_matches_each_column(cols):
    p, q, w, u = [], [], [], []
    for length, _, _, zeros, seed in cols:
        rng = np.random.default_rng(seed)
        for arrays, a in zip((p, q, w), _coefficients(rng, length, zeros)):
            arrays.append(a)
        u.append(_random_complex(rng, length))
    length, r, m, _, _ = np.array(cols).T
    lhs, rhs = _lemma2(_block(p, 3.0), _block(q, 3.0), _block(u), m, r, length - 2)
    for k, (_, rk, mk, _, _) in enumerate(cols):
        c = CoefficientSet(p=Sequence(0, p[k]), q=Sequence(0, q[k]), w=Sequence(1, w[k]))
        _assert_report(lhs[k], rhs[k], check_lemma2(c, Sequence(0, u[k]), mk, rk))


@settings(max_examples=60, deadline=None)
@example(cols=[(2, 1, 1, 0, 0), (60, 59, 59, 58, 1), (60, 2, 1, 40, 2), (30, 5, 5, 0, 3)])
@given(cols=_columns(pointwise_columns()))
def test_pointwise_bound_core_matches_each_column(cols):
    p, q, w, u = [], [], [], []
    for length, _, _, zeros, seed in cols:
        rng = np.random.default_rng(seed)
        for arrays, a in zip((p, q, w), _coefficients(rng, length, zeros)):
            arrays.append(a)
        u.append(_random_complex(rng, length))
    length, N, m, _, _ = np.array(cols).T
    lhs, rhs = _pointwise_bound(_block(p, 3.0), _block(q, 3.0), _block(u), m, N, length - 1)
    for k, (_, Nk, mk, _, _) in enumerate(cols):
        c = CoefficientSet(p=Sequence(0, p[k]), q=Sequence(0, q[k]), w=Sequence(1, w[k]))
        _assert_report(lhs[k], rhs[k], check_pointwise_bound(c, Sequence(0, u[k]), mk, Nk))


def test_lemma1_core_checks_p_of_every_column():
    p = np.ones((8, 3))
    p[5, 2] = -1.0
    u = np.ones((8, 3), dtype=complex)
    with pytest.raises(ValidationError, match=r"p\(5\) not strictly positive"):
        _lemma1(p, u, 1, 4, 1, 6)
    with pytest.raises(ValidationError, match="real-valued"):
        _lemma1(np.ones((8, 3)) + 1e-300j, u, 1, 4, 1, 6)
