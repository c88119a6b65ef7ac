import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftdef import (
    NonCauchyError,
    Sequence,
    ValidationError,
    bound_constants,
    cauchy_diagnostics,
    check_lemma1,
    check_lemma2,
    check_pointwise_bound,
    h1_inner,
    h1_norm,
    l2_norm,
    make_preset,
)
from leftdef.coeffs import CoefficientSet


def coeffs_ones(length=12, q=1.0):
    return make_preset("constant", {"p": 1.0, "q": q, "w": 1.0}, length=length)


def indicator(k, length):
    u = np.zeros(length, dtype=complex)
    u[k] = 1.0
    return Sequence(0, u)


class TestInnerProduct:
    def test_indicator_interior(self):
        c = coeffs_ones()
        u = indicator(4, 10)
        # only p(3), p(4) and q(4) contribute
        assert h1_inner(c, u, u) == pytest.approx(3.0)

    def test_constant_with_zero_q(self):
        c = coeffs_ones(q=0.0)
        u = Sequence(0, np.full(10, 2.5 + 1j))
        assert h1_inner(c, u, u) == 0.0

    def test_conjugate_symmetry(self):
        c = make_preset("random", length=20, rng_seed=9)
        rng = np.random.default_rng(9)
        u = Sequence(0, rng.normal(size=18) + 1j * rng.normal(size=18))
        v = Sequence(0, rng.normal(size=18) + 1j * rng.normal(size=18))
        a, b = h1_inner(c, u, v), h1_inner(c, v, u)
        assert abs(np.conj(b) - a) <= 1e-13 * max(1.0, abs(a))

    def test_sesquilinearity(self):
        c = make_preset("random", length=20, rng_seed=10)
        rng = np.random.default_rng(10)
        u, v, w = (Sequence(0, rng.normal(size=18) + 1j * rng.normal(size=18))
                   for _ in range(3))
        al, be = 1.5 - 0.5j, -2.0 + 1.0j
        combo = Sequence(0, al * u.values + be * v.values)
        lhs = h1_inner(c, combo, w)
        rhs = al * h1_inner(c, u, w) + be * h1_inner(c, v, w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_cauchy_schwarz_and_triangle(self):
        c = make_preset("random", length=24, rng_seed=11)
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = Sequence(0, rng.normal(size=20) + 1j * rng.normal(size=20))
            v = Sequence(0, rng.normal(size=20) + 1j * rng.normal(size=20))
            nu, nv = h1_norm(c, u), h1_norm(c, v)
            ip = abs(h1_inner(c, u, v))
            tol = 1e-12 * max(1.0, nu * nv)
            assert ip <= nu * nv + tol
            s = Sequence(0, u.values + v.values)
            assert h1_norm(c, s) <= nu + nv + tol


class TestNorms:
    def test_h1_norm_indicator(self):
        assert h1_norm(coeffs_ones(), indicator(4, 10)) == pytest.approx(np.sqrt(3))

    def test_h1_norm_zero(self):
        assert h1_norm(coeffs_ones(), Sequence(0, np.zeros(6))) == 0.0

    def test_h1_norm_matches_independent_l2_oracle(self):
        c = make_preset("random", length=30, rng_seed=12)
        rng = np.random.default_rng(12)
        u = Sequence(0, rng.normal(size=28) + 1j * rng.normal(size=28))
        pv = c.p.values.real[:27]
        qv = c.q.values.real[:28]
        oracle = np.sqrt(
            np.linalg.norm(np.sqrt(pv) * np.diff(u.values)) ** 2
            + np.linalg.norm(np.sqrt(qv) * u.values) ** 2
        )
        assert h1_norm(c, u) == pytest.approx(oracle, rel=1e-12)

    def test_l2_norm(self):
        assert l2_norm(Sequence(0, np.zeros(4))) == 0.0
        assert l2_norm(indicator(2, 5)) == 1.0
        assert l2_norm(Sequence(1, [3.0, 4.0])) == 5.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_l2_norm_matches_numpy(self, vals):
        assert l2_norm(Sequence(0, vals)) == pytest.approx(
            float(np.linalg.norm(vals)), rel=1e-12, abs=1e-300)


class TestBoundConstants:
    def _spike_q(self, p_val, length=8):
        q = np.zeros(length)
        q[1] = 1.0
        return CoefficientSet(
            p=Sequence(0, np.full(length, p_val)),
            q=Sequence(0, q),
            w=Sequence(1, np.ones(length)),
        )

    def test_unit_p(self):
        bc = bound_constants(self._spike_q(1.0), 1)
        assert bc.r == 1 and bc.C_r == 1.0 and bc.C_N == 2.0

    def test_p_equals_four(self):
        bc = bound_constants(self._spike_q(4.0), 1)
        assert bc.C_r == pytest.approx(0.5)
        assert bc.C_N == pytest.approx(1.5)

    def test_zero_q_errors(self):
        c = make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=8)
        with pytest.raises(ValidationError, match="identically zero"):
            bound_constants(c, 1)

    def test_minimal_r_past_N(self):
        q = np.zeros(10)
        q[5] = 2.0
        c = CoefficientSet(p=Sequence(0, np.ones(10)), q=Sequence(0, q),
                           w=Sequence(1, np.ones(10)))
        bc = bound_constants(c, 2)
        assert bc.r == 5

    @staticmethod
    def _scan_r(q, N):
        """The first r >= N with sum_{n=1}^{r} q(n) > 0, by summing afresh for each r."""
        for cand in range(N, len(q)):
            if np.sum(q[1:cand + 1]) > 0:
                return cand
        return None

    @settings(max_examples=150, deadline=None)
    @example(q=[0.0] * 9 + [2.0], N=1)
    @example(q=[0.0] * 9 + [5e-324], N=9)
    @example(q=[3.0] + [0.0] * 7, N=2)
    @given(q=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=2,
                      max_size=30),
           N=st.integers(1, 29))
    def test_r_matches_cumulative_scan(self, q, N):
        q = np.array(q)
        N = min(N, len(q) - 1)
        c = CoefficientSet(p=Sequence(0, np.ones(len(q))), q=Sequence(0, q),
                           w=Sequence(1, np.ones(len(q))))
        want = self._scan_r(q, N)
        if want is None:
            with pytest.raises(ValidationError, match="identically zero"):
                bound_constants(c, N)
        else:
            bc = bound_constants(c, N)
            assert bc.r == want
            assert bc.C_N == bc.C_r + float(np.sum(q[1:want + 1])) ** -0.5


class TestLemmaChecks:
    def test_lemma1_m_equals_n(self):
        p = Sequence(0, np.ones(10))
        u = Sequence(0, np.arange(10, dtype=float))
        rep = check_lemma1(p, u, 4, 4)
        assert rep.holds and rep.margin >= 0

    def test_lemma1_constant_u(self):
        p = Sequence(0, np.ones(10))
        u = Sequence(0, np.full(10, 7.0))
        rep = check_lemma1(p, u, 2, 6)
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs)

    def test_lemma2_zero_u(self):
        c = coeffs_ones()
        rep = check_lemma2(c, Sequence(0, np.zeros(12)), 3, 8)
        assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_lemma2_constant_equality(self):
        c = coeffs_ones()
        rep = check_lemma2(c, Sequence(0, np.full(12, -3.0 + 0j)), 3, 8)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-12 * max(1.0, rep.lhs)

    def test_pointwise_bound_indicator(self):
        q = np.zeros(10)
        q[1] = 1.0
        c = CoefficientSet(p=Sequence(0, np.ones(10)), q=Sequence(0, q),
                           w=Sequence(1, np.ones(10)))
        rep = check_pointwise_bound(c, indicator(1, 10), 1, 1)
        assert rep.lhs == 1.0
        assert rep.rhs == pytest.approx(2 * np.sqrt(3))
        assert rep.holds

    def test_lemma_chain_domination(self):
        # The pointwise constant really dominates the lemma2-derived bound.
        rng = np.random.default_rng(21)
        for _ in range(100):
            length = int(rng.integers(8, 40))
            q = rng.uniform(0.0, 5.0, length)
            q[1] += 0.5
            c = CoefficientSet(p=Sequence(0, rng.uniform(0.1, 10.0, length)),
                               q=Sequence(0, q),
                               w=Sequence(1, rng.uniform(-5, 5, length)))
            u = np.zeros(length, dtype=complex)
            u[1:length - 2] = (rng.uniform(-10, 10, length - 3)
                               + 1j * rng.uniform(-10, 10, length - 3))
            u = Sequence(0, u)
            r = length - 1
            m = int(rng.integers(1, r + 1))
            lem2 = check_lemma2(c, u, m, r)
            qsum = float(np.sum(c.q.window(1, r)))
            pw = check_pointwise_bound(c, u, m, r)
            assert pw.rhs >= lem2.rhs / qsum - 1e-12 * max(1.0, pw.rhs)

    @pytest.mark.parametrize("p, match", [
        (-np.ones(8), "not strictly positive"),
        (np.ones(8) + 1j, "real-valued"),
        # A zero p, not only a negative one, is rejected.
        (np.array([1.0, 0, 2, 1, 1, 1, 1, 1]), r"p\(1\) not strictly positive"),
        # Of two bad entries the error names the smaller index.
        (np.array([1.0, 1, 1, 1, -1, 1, 0, 1]), r"^p\(4\) not strictly positive$"),
    ])
    def test_lemma1_rejects_bad_p(self, p, match):
        u = Sequence(0, np.arange(8.0) ** 2)
        with pytest.raises(ValidationError, match=match):
            check_lemma1(Sequence(0, p), u, 1, 4)

    def test_argument_validation(self):
        p = Sequence(0, np.ones(8))
        u = Sequence(0, np.ones(8))
        with pytest.raises(ValidationError):
            check_lemma1(p, u, 5, 3)
        with pytest.raises(ValidationError):
            check_lemma2(coeffs_ones(), u, 5, 3)
        with pytest.raises(ValidationError):
            check_pointwise_bound(coeffs_ones(), u, 0, 3)


class TestPositiveDefiniteness:
    def test_random_nonzero_norms_positive(self):
        rng = np.random.default_rng(30)
        c = make_preset("random", {"q_range": (0.1, 5.0)}, length=20, rng_seed=30)
        for _ in range(200):
            u = Sequence(0, rng.normal(size=18) + 1j * rng.normal(size=18))
            assert h1_norm(c, u) > 0

    def test_degenerate_family_caught_by_guard(self):
        c = make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=10)
        assert not c.q_nontrivial
        # constant u has zero norm exactly when q vanishes
        assert h1_norm(c, Sequence(0, np.full(10, 4.0))) == 0.0
        with pytest.raises(ValidationError):
            bound_constants(c, 1)


class TestCauchyDiagnostics:
    def _coeffs(self, length=40):
        return make_preset("random", {"q_range": (0.1, 2.0)}, length=length,
                           rng_seed=9)

    def _supported(self, length=40):
        u = np.zeros(length, dtype=complex)
        u[:11] = 2.0 ** -np.arange(11)
        return u

    def test_truncation_family_hits_zero(self):
        L = 40
        u = self._supported(L)
        fam = [Sequence(0, np.where(np.arange(L) < n, u, 0)) for n in range(2, L + 1)]
        d = cauchy_diagnostics(self._coeffs(L), fam)
        # distances vanish exactly once the truncation passes the support
        assert all(x == 0.0 for x in d.norm_distances[10:])
        assert d.norm_distances[0] > 0

    def test_one_over_n_family_rate(self):
        L = 40
        base = self._supported(L)
        e1 = np.zeros(L, dtype=complex)
        e1[1] = 1.0
        c = self._coeffs(L)
        K = 14
        fam = [Sequence(0, base + e1 / n) for n in range(1, K + 1)]
        d = cauchy_diagnostics(c, fam)
        e1_norm = h1_norm(c, Sequence(0, e1))
        for i, n in enumerate(range(1, K + 1)):
            assert d.norm_distances[i] == pytest.approx(
                (1.0 / n - 1.0 / K) * e1_norm, abs=1e-12)

    def test_geometric_tail_family_monotone(self):
        L = 40
        u = self._supported(L)
        fam = [Sequence(0, 2.0 ** -np.maximum(np.arange(L) - n, 0) * u)
               for n in range(1, L)]
        d = cauchy_diagnostics(self._coeffs(L), fam)
        assert all(b <= a for a, b in zip(d.norm_distances, d.norm_distances[1:]))
        assert all(b <= a + 1e-15 for a, b in
                   zip(d.l2_grad_distances, d.l2_grad_distances[1:]))

    def test_weighted_limit_invariant(self):
        L = 40
        c = self._coeffs(L)
        u = self._supported(L)
        fam = [Sequence(0, u * (1 + 1e-3 / n)) for n in range(1, 10)]
        d = cauchy_diagnostics(c, fam)
        sqrtq = np.sqrt(c.q.values.real[:L])
        resid = np.abs(d.weighted_limit.values - sqrtq * d.pointwise_limit.values)
        scale = max(1.0, float(np.max(np.abs(d.weighted_limit.values))))
        assert np.all(resid <= 1e-9 * scale)

    def test_non_cauchy_family_rejected(self):
        L = 20
        c = self._coeffs(L)
        rng = np.random.default_rng(0)
        fam = [Sequence(0, rng.normal(size=L)) for _ in range(6)]
        with pytest.raises(NonCauchyError):
            cauchy_diagnostics(c, fam)
