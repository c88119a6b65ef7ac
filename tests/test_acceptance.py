"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from leftdef import (
    Sequence,
    ValidationError,
    bound_constants,
    cauchy_diagnostics,
    check_lemma2,
    eigen_pencil,
    eigen_shooting,
    h1_norm,
    make_preset,
    shooting_range,
)
from leftdef.coeffs import CoefficientSet
from leftdef.verify import run_campaign

SEED = 42
CASES = 1000


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def indefinite_coeffs(rng, N):
    signs = rng.choice([-1.0, 1.0], N + 1)
    signs[0], signs[1] = 1.0, -1.0
    return CoefficientSet(
        p=Sequence(0, rng.uniform(0.5, 2.0, N + 1)),
        q=Sequence(0, rng.uniform(0.0, 1.0, N + 1)),
        w=Sequence(1, signs * rng.uniform(0.5, 5.0, N + 1)),
    )


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    results = [run_campaign(name, SEED, CASES)
               for name in ("product-rule", "summation-by-parts", "greens-identity")]
    elapsed = time.perf_counter() - t0
    ok = all(r.failures == 0 for r in results) and elapsed <= 5.0
    report(1, f"identity residuals, 3x{CASES} cases in {elapsed:.2f}s", ok)


def test_criterion_2_wronskian_constancy():
    t0 = time.perf_counter()
    r = run_campaign("wronskian-constancy", SEED, CASES)
    elapsed = time.perf_counter() - t0
    ok = r.failures == 0 and elapsed <= 10.0
    report(2, f"Wronskian constancy, {CASES} cases N=200 in {elapsed:.2f}s", ok)


def test_criterion_3_solver_consistency():
    r = run_campaign("solver-consistency", SEED, CASES)
    report(3, f"apply_L reproduces lambda*w*u for {2 * CASES} solutions",
           r.failures == 0)


def test_criterion_4_lemma_suite():
    results = [run_campaign(name, SEED, CASES)
               for name in ("lemma1", "lemma2", "pointwise-bound")]
    c = make_preset("constant", {"p": 1.0, "q": 1.0, "w": 1.0}, length=12)
    eq = check_lemma2(c, Sequence(0, np.full(12, -3.0 + 0j)), 3, 8)
    tight = abs(eq.lhs - eq.rhs) <= 1e-12 * max(1.0, eq.lhs, eq.rhs)
    ok = all(r.failures == 0 for r in results) and eq.holds and tight
    report(4, f"lemma inequalities, 3x{CASES} cases plus equality case", ok)


def test_criterion_5_bound_constants_exact():
    q = np.zeros(8)
    q[1] = 1.0
    c = CoefficientSet(p=Sequence(0, np.ones(8)), q=Sequence(0, q),
                       w=Sequence(1, np.ones(8)))
    bc = bound_constants(c, 1)
    ok = bc.r == 1 and bc.C_r == 1.0 and bc.C_N == 2.0
    report(5, "r=1, C_r=1, C_N=2 exactly for the unit spike", ok)


def test_criterion_6_positive_definiteness():
    rng = np.random.default_rng(SEED)
    c = make_preset("random", {"q_range": (0.1, 5.0)}, length=32, rng_seed=SEED)
    ok = True
    for _ in range(CASES):
        u = Sequence(0, rng.normal(size=30) + 1j * rng.normal(size=30))
        ok = ok and h1_norm(c, u) > 0
    degenerate = make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=10)
    ok = ok and not degenerate.q_nontrivial
    ok = ok and h1_norm(degenerate, Sequence(0, np.full(10, 3.0))) == 0.0
    try:
        bound_constants(degenerate, 1)
        ok = False
    except ValidationError:
        pass
    report(6, f"{CASES} random nonzero norms positive; q=0 guard fires", ok)


def test_criterion_7_cauchy_diagnostics():
    L = 40
    c = make_preset("random", {"q_range": (0.1, 2.0)}, length=L, rng_seed=9)
    u = np.zeros(L, dtype=complex)
    u[:11] = 2.0 ** -np.arange(11)
    e1 = np.zeros(L, dtype=complex)
    e1[1] = 1.0
    families = [
        [Sequence(0, np.where(np.arange(L) < n, u, 0)) for n in range(2, L + 1)],
        [Sequence(0, u + e1 / n) for n in range(1, 15)],
        [Sequence(0, 2.0 ** -np.maximum(np.arange(L) - n, 0) * u)
         for n in range(1, L)],
    ]
    ok = True
    for fam in families:
        d = cauchy_diagnostics(c, fam)
        dist = d.norm_distances
        ok = ok and all(b <= a for a, b in zip(dist, dist[1:]))
        ok = ok and min(dist) <= 1e-10
        sqrtq = np.sqrt(c.q.values.real[:L])
        resid = np.abs(d.weighted_limit.values - sqrtq * d.pointwise_limit.values)
        scale = max(1.0, float(np.max(np.abs(d.weighted_limit.values))))
        ok = ok and np.all(resid <= 1e-9 * scale)
    report(7, "three Cauchy families contract monotonically below 1e-10", ok)


def test_criterion_8_spectrum_closed_form():
    ok = True
    elapsed_128 = 0.0
    for N in (8, 32, 128):
        c = make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=N + 2)
        exact = 4 * np.sin(np.arange(1, N + 1) * np.pi / (2 * (N + 1))) ** 2
        t0 = time.perf_counter()
        shoot = eigen_shooting(c, N, -0.1, 4.1)
        pencil = eigen_pencil(c, N)
        dt = time.perf_counter() - t0
        if N == 128:
            elapsed_128 = dt
        for res in (shoot, pencil):
            ok = ok and len(res.eigenvalues) == N
            ok = ok and np.max(np.abs(np.asarray(res.eigenvalues) - exact)) <= 1e-8
    ok = ok and elapsed_128 <= 10.0
    report(8, f"closed-form spectra at N=8,32,128 ({elapsed_128:.2f}s at 128)", ok)


def _cross_validation_instances():
    rng = np.random.default_rng(SEED)
    return [indefinite_coeffs(rng, 32) for _ in range(100)]


def test_criterion_9_method_cross_validation():
    ok = True
    for c in _cross_validation_instances():
        shoot = eigen_shooting(c, 32)
        pencil = eigen_pencil(c, 32)
        lo, hi = shooting_range(c, 32)
        in_range = [x for x in pencil.eigenvalues if lo <= x <= hi]
        ok = ok and len(shoot.eigenvalues) == len(in_range)
        if not ok:
            break
        for a, b in zip(shoot.eigenvalues, in_range):
            ok = ok and abs(a - b) <= 1e-8 * max(1.0, abs(b))
        fsL = np.max(np.abs(np.concatenate([[0.0], c.p.values.real])))
        scale = max(1.0, 4 * fsL + float(np.max(np.abs(c.w.values.real)))
                    * max(abs(x) for x in pencil.eigenvalues))
        ok = ok and all(r <= 1e-8 * scale for r in pencil.residuals)
    report(9, "100 indefinite-weight instances, shooting == pencil to 1e-8", ok)


def test_criterion_10_weight_negation_symmetry():
    ok = True
    instances = _cross_validation_instances()
    for i, c in enumerate(instances):
        neg = CoefficientSet(p=c.p, q=c.q,
                             w=Sequence(1, -c.w.values.real))
        ev = np.asarray(eigen_pencil(c, 32).eigenvalues)
        ev_neg = np.asarray(eigen_pencil(neg, 32).eigenvalues)
        diff = np.max(np.abs(np.sort(-ev_neg) - np.sort(ev)))
        ok = ok and diff <= 1e-10 * max(1.0, float(np.max(np.abs(ev))))
        if i < 5:
            sh = eigen_shooting(c, 32)
            sh_neg = eigen_shooting(neg, 32)
            d2 = np.max(np.abs(np.sort(-np.asarray(sh_neg.eigenvalues))
                               - np.sort(np.asarray(sh.eigenvalues))))
            ok = ok and d2 <= 1e-10 * max(1.0, float(np.max(np.abs(ev))))
    report(10, "negating w negates the spectrum to 1e-10", ok)
