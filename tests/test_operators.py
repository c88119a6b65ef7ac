import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftdef import (
    CoefficientSet,
    InitKind,
    Sequence,
    SolverOverflowError,
    ValidationError,
    WindowError,
    apply_L,
    bound_constants,
    cauchy_diagnostics,
    check_lemma1,
    check_lemma2,
    finite_section,
    greens_identity_residual,
    h1_inner,
    h1_norm,
    make_preset,
    product_rule_residual,
    recurrence,
    solve_recurrence,
    summation_by_parts_residual,
    wronskian,
    wronskian_constancy_report,
    wronskian_sequence,
)
from leftdef.verify import solution_residual_ratio


def constant_coeffs(p=1.0, q=0.0, w=1.0, length=16):
    return make_preset("constant", {"p": p, "q": q, "w": w}, length=length)


class TestApplyL:
    def test_constant_u_zero_q(self):
        c = constant_coeffs()
        out = apply_L(c, Sequence(0, np.full(10, 3.0)))
        assert out.offset == 1
        np.testing.assert_allclose(out.values, 0.0)

    def test_constant_u_general_q(self):
        c = make_preset("power", {"q_scale": 2.0, "q_exp": 1.0}, length=10)
        out = apply_L(c, Sequence(0, np.full(8, 5.0)))
        # Du = 0 leaves q(n) * u(n) = 2n * 5
        expect = [2 * n * 5.0 for n in range(1, 7)]
        np.testing.assert_allclose(out.values.real, expect)

    def test_second_difference_of_squares(self):
        c = constant_coeffs()
        u = Sequence(0, np.arange(5, dtype=float) ** 2)
        out = apply_L(c, u)
        np.testing.assert_allclose(out.values.real, [-2.0, -2.0, -2.0])

    def test_window_too_short(self):
        c = constant_coeffs(length=2)
        with pytest.raises(Exception):
            apply_L(c, Sequence(0, [1.0, 2.0]))


class TestSolveRecurrence:
    def test_linear_solution_at_lambda_zero(self):
        c = constant_coeffs()
        sol = solve_recurrence(c, 0.0, InitKind.VALUE_PAIR, 0.0, 1.0, 10)
        np.testing.assert_allclose(sol.values.values.real, np.arange(12))

    def test_period_six_at_lambda_one(self):
        c = constant_coeffs()
        sol = solve_recurrence(c, 1.0, InitKind.VALUE_PAIR, 0.0, 1.0, 8)
        np.testing.assert_allclose(
            sol.values.values.real, [0, 1, 1, 0, -1, -1, 0, 1, 1, 0], atol=1e-14)

    def test_residual_against_apply_L_oracle(self):
        c = make_preset("random", length=102, rng_seed=5)
        sol = solve_recurrence(c, 2 + 1j, InitKind.VALUE_PAIR, 1.0, 0.5 - 0.25j, 100)
        assert solution_residual_ratio(c, sol) <= 1.0

    def test_quasiderivative_init(self):
        c = constant_coeffs(p=2.0)
        sol = solve_recurrence(c, 0.5, InitKind.VALUE_AND_QUASIDERIVATIVE,
                               1.0, 3.0, 6)
        # u(0) = u(1) - b/p(0)
        assert sol.values.at(0) == pytest.approx(1.0 - 3.0 / 2.0)
        assert sol.values.at(1) == pytest.approx(1.0)

    def test_linearity_of_solution_space(self):
        c = make_preset("random", length=40, rng_seed=8)
        lam = 1.5
        a = solve_recurrence(c, lam, InitKind.VALUE_PAIR, 1.0, 0.0, 30)
        b = solve_recurrence(c, lam, InitKind.VALUE_PAIR, 0.0, 1.0, 30)
        al, be = 2.0 - 1.0j, -0.5 + 3.0j
        combo = solve_recurrence(c, lam, InitKind.VALUE_PAIR, al, be, 30)
        mix = al * a.values.values + be * b.values.values
        scale = max(1.0, np.max(np.abs(mix)))
        assert np.max(np.abs(combo.values.values - mix)) <= 1e-10 * scale

    def test_overflow_raises(self):
        c = constant_coeffs(length=80)
        with pytest.raises(SolverOverflowError):
            solve_recurrence(c, -1e8, InitKind.VALUE_PAIR, 0.0, 1.0, 78)

    def test_nonfinite_lambda_rejected(self):
        c = constant_coeffs()
        with pytest.raises(ValidationError):
            solve_recurrence(c, np.nan, InitKind.VALUE_PAIR, 0.0, 1.0, 5)


def random_columns(rng, N, cols):
    """Per-column coefficients p(0..N), q(0..N) and w(1..N) as (len, cols) arrays."""
    return (rng.uniform(0.5, 2.0, (N + 1, cols)), rng.uniform(0.0, 1.0, (N + 1, cols)),
            rng.uniform(-2.0, 2.0, (N, cols)))


def column_coeffs(p, q, w, k):
    return CoefficientSet(p=Sequence(0, p[:, k]), q=Sequence(0, q[:, k]),
                          w=Sequence(1, w[:, k]))


def scalar_loop(pv, qv, wv, lam, u0, u1):
    """The recurrence step by step in numpy complex128 scalar arithmetic."""
    N = len(qv)
    u = np.empty(N + 2, dtype=np.complex128)
    u[0], u[1] = u0, u1
    for n in range(1, N + 1):
        u[n + 1] = ((pv[n] + pv[n - 1] + qv[n - 1] - lam * wv[n - 1]) * u[n]
                    - pv[n - 1] * u[n - 1]) / pv[n]
    return u


class TestRecurrence:
    @pytest.mark.parametrize("lam", [1.5, 1.5 + 0j, -0.75 + 0.3j])
    def test_matches_complex_scalar_loop(self, lam):
        # The result is float64 only for a real-typed lambda and initial data.
        c = make_preset("random", length=300, rng_seed=9)
        args = (c.p.window(0, 250), c.q.window(1, 250), c.w.window(1, 250))
        for init in ((0.25 - 1j, 1.0 + 0.5j), (0.25, 1.0)):
            u = recurrence(*args, lam, *init)
            real = isinstance(lam, float) and isinstance(init[0], float)
            assert u.dtype == (np.float64 if real else np.complex128)
            np.testing.assert_array_equal(u, scalar_loop(*args, lam, *init))

    @pytest.mark.parametrize("kind", list(InitKind))
    def test_batched_columns_equal_solve_recurrence_bitwise(self, kind):
        rng = np.random.default_rng(21)
        N, cols = 40, 7
        p, q, w = random_columns(rng, N, cols)
        lam = rng.uniform(-3, 3, cols) + 1j * rng.uniform(-1, 1, cols)
        a = rng.normal(size=(cols, 2)) + 1j * rng.normal(size=(cols, 2))
        b = rng.normal(size=(cols, 2)) + 1j * rng.normal(size=(cols, 2))
        if kind is InitKind.VALUE_PAIR:
            u0, u1 = a, b
        else:  # u(0) = u(1) - (p Du)(0) / p(0), in solve_recurrence's arithmetic
            u0 = np.array([[complex(a[k, j]) - complex(b[k, j]) / float(p[0, k])
                            for j in range(2)] for k in range(cols)])
            u1 = a
        u = recurrence(p[:, :, None], q[1:, :, None], w[:, :, None], lam[:, None], u0, u1)
        assert u.shape == (N + 2, cols, 2) and u.dtype == np.complex128
        for k in range(cols):
            c = column_coeffs(p, q, w, k)
            for j in range(2):
                ref = solve_recurrence(c, lam[k], kind, a[k, j], b[k, j], N).values.values
                assert u[:, k, j].tobytes() == ref.tobytes()

    def test_shared_coefficients_broadcast(self):
        c = make_preset("random", length=30, rng_seed=2)
        N = 28
        lams = np.array([0.5, -1.0 + 0.25j, 3.0])
        u = recurrence(c.p.window(0, N), c.q.window(1, N),
                       c.w.window(1, N), lams, 0.0, 1.0)
        for k, lam in enumerate(lams):
            ref = solve_recurrence(c, lam, InitKind.VALUE_PAIR, 0.0, 1.0, N).values.values
            assert u[:, k].tobytes() == ref.tobytes()

    def test_one_overflowing_column_raises(self):
        N = 78
        p, q, w = np.ones(N + 1), np.zeros(N), np.ones(N)
        lams = np.array([1.0, 2.0, -1e8, 0.5])
        with pytest.raises(SolverOverflowError, match=r"column \(2,\)"):
            recurrence(p, q, w, lams, 0.0, 1.0)
        recurrence(p, q, w, np.delete(lams, 2), 0.0, 1.0)

    def test_window_shapes_checked(self):
        with pytest.raises(WindowError):
            recurrence(np.ones(5), np.zeros(4), np.ones(3), 1.0, 0.0, 1.0)
        with pytest.raises(WindowError):
            recurrence(np.ones(1), np.zeros(0), np.ones(0), 1.0, 0.0, 1.0)


def complex_loop(pv, qv, wv, lam, u0, u1):
    """`recurrence`'s complex loop with its broadcasting and no canonicalising
    step: the reference that a real lambda's real loop is held to."""
    c = pv[1:] + pv[:-1] + qv - lam * wv
    shape = np.broadcast_shapes(c.shape[1:], np.shape(u0), np.shape(u1))
    vr, ur = (np.broadcast_to(np.real(x), shape) for x in (u0, u1))
    vi, ui = (np.broadcast_to(np.imag(x), shape) for x in (u0, u1))
    re, im = [vr, ur], [vi, ui]
    for cr, ci, pm, inv in zip(np.real(c), np.imag(c), pv[:-1], 1.0 / pv[1:]):
        vr, vi, ur, ui = (ur, ui, ((cr * ur - ci * ui) - pm * vr) * inv,
                          ((cr * ui + ci * ur) - pm * vi) * inv)
        re.append(ur)
        im.append(ui)
    u = np.empty((len(c) + 2,) + shape, dtype=complex)
    u.real, u.imag = re, im
    return u


def assert_canonical_reference(u, ref):
    """u equals ref by == on both parts, bit for bit once ref's zeros are
    +0.0, and holds no -0.0."""
    assert np.array_equal(u.real, ref.real) and np.array_equal(u.imag, ref.imag)
    assert u.tobytes() == (ref + 0.0).tobytes()
    parts = u.view(float)
    assert not np.any((parts == 0.0) & np.signbit(parts))


small = st.floats(-2.0, 2.0)
initial_data = st.one_of(small.map(complex), st.builds(complex, small, small))


@settings(max_examples=80, deadline=None)
@example(N=12, seed=0, lam=9.5, kind=InitKind.VALUE_PAIR, a=0j, b=0j)
@example(N=12, seed=1, lam=-9.5, kind=InitKind.VALUE_AND_QUASIDERIVATIVE, a=0j, b=0j)
@example(N=5, seed=2, lam=0.5, kind=InitKind.VALUE_PAIR, a=-0.0 + 0j, b=1 - 0.0j)
@example(N=5, seed=3, lam=1.25, kind=InitKind.VALUE_PAIR, a=1 + 0j, b=0.5j)
@given(N=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), lam=st.floats(-10.0, 10.0),
       kind=st.sampled_from(list(InitKind)), a=initial_data, b=initial_data)
def test_real_lambda_equals_complex_loop(N, seed, lam, kind, a, b):
    # A real lambda runs the real loop, as a float and as a complex with zero
    # imaginary part; real, complex and zero initial data, both kinds.
    p, q, w = random_columns(np.random.default_rng(seed), N, 1)
    c = column_coeffs(p, q, w, 0)
    pv, qv, wv = c.p.window(0, N), c.q.window(1, N), c.w.window(1, N)
    u1, u0 = (b, a) if kind is InitKind.VALUE_PAIR else (a, a - b / pv[0])
    ref = complex_loop(pv, qv, wv, lam, u0, u1)
    for lam_in in (lam, complex(lam)):
        assert_canonical_reference(solve_recurrence(c, lam_in, kind, a, b, N).values.values, ref)


@settings(max_examples=40, deadline=None)
@example(B=3, seed=0, zero=True)
@given(B=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), zero=st.booleans())
def test_real_lambda_block_equals_complex_loop(B, seed, zero):
    # The blocks of the Wronskian and solver-consistency campaigns: phi and
    # theta on axis 1 of (N+2, 2, B) from complex initial data, and from their
    # real and imaginary parts as one more real axis, (N+2, 2, 2, B), which is
    # how the campaigns solve them; with `zero`, phi is the zero solution in
    # every column.
    rng = np.random.default_rng(seed)
    N = 60
    p, q, w = (rng.uniform(lo, hi, (N + 1, B)) for lo, hi in ((1.0, 2.0), (0.0, 0.5), (-0.5, 0.5)))
    lam = rng.uniform(-10.0, 10.0, B)
    init = rng.uniform(-1.0, 1.0, (4, B)) + 1j * rng.uniform(-1.0, 1.0, (4, B))
    if zero:
        init[:2] = 0.0
    coeffs = (p[:, None], q[1:, None], w[:-1, None], lam)
    args = coeffs + (init[0::2], init[1::2])
    u = recurrence(*args)
    assert u.shape == (N + 2, 2, B)
    assert_canonical_reference(u, complex_loop(*args))
    parts = np.stack([init.real, init.imag])
    real_args = coeffs + (parts[:, 0::2], parts[:, 1::2])
    r = recurrence(*real_args)
    assert r.shape == (N + 2, 2, 2, B) and r.dtype == np.float64
    ref = complex_loop(*real_args)
    assert not np.any(ref.imag)
    assert r.tobytes() == (ref.real + 0.0).tobytes()
    assert not np.any((r == 0.0) & np.signbit(r))
    assert (r[:, 0] + 1j * r[:, 1]).tobytes() == u.tobytes()


class TestWronskian:
    def test_equal_arguments_vanish(self):
        c = constant_coeffs()
        u = Sequence(0, np.arange(8, dtype=float) ** 2 + 1)
        for n in range(6):
            assert wronskian(c, u, u, n) == 0

    def test_direct_substitution(self):
        c = constant_coeffs()
        one = Sequence(0, np.ones(8))
        n_seq = Sequence(0, np.arange(8, dtype=float))
        for n in range(6):
            assert wronskian(c, one, n_seq, n) == pytest.approx(1.0)

    def test_antisymmetry_exact(self):
        c = make_preset("random", length=12, rng_seed=3)
        rng = np.random.default_rng(4)
        u = Sequence(0, rng.normal(size=10) + 1j * rng.normal(size=10))
        v = Sequence(0, rng.normal(size=10) + 1j * rng.normal(size=10))
        w_uv = wronskian_sequence(c, u, v).values
        w_vu = wronskian_sequence(c, v, u).values
        np.testing.assert_array_equal(w_uv, -w_vu)

    def test_constancy_for_lambda_zero_pair(self):
        c = constant_coeffs()
        phi = solve_recurrence(c, 0.0, InitKind.VALUE_PAIR, 1.0, 1.0, 12)
        theta = solve_recurrence(c, 0.0, InitKind.VALUE_PAIR, 0.0, 1.0, 12)
        w = wronskian_sequence(c, phi.values, theta.values)
        np.testing.assert_allclose(w.values.real, 1.0, atol=1e-12)
        rep = wronskian_constancy_report(c, phi, theta)
        assert rep.holds

    def test_self_pair_reports_zero(self):
        c = constant_coeffs()
        phi = solve_recurrence(c, 0.25, InitKind.VALUE_PAIR, 1.0, 2.0, 10)
        rep = wronskian_constancy_report(c, phi, phi)
        assert rep.lhs == 0.0 and rep.holds

    def test_mismatched_lambda_rejected(self):
        c = constant_coeffs()
        phi = solve_recurrence(c, 0.0, InitKind.VALUE_PAIR, 1.0, 1.0, 8)
        theta = solve_recurrence(c, 1.0, InitKind.VALUE_PAIR, 0.0, 1.0, 8)
        with pytest.raises(ValidationError):
            wronskian_constancy_report(c, phi, theta)

    @pytest.mark.parametrize("solutions", ["complex", "real"])
    def test_pointwise_equals_sequence_bitwise(self, solutions):
        c = make_preset("random", length=24, rng_seed=5)
        if solutions == "complex":
            phi = solve_recurrence(c, 0.7 - 0.2j, InitKind.VALUE_PAIR, 1.0, 0.5j, 20).values
            theta = solve_recurrence(c, 0.7 - 0.2j, InitKind.VALUE_PAIR, 0.0, 1.0, 20).values
        else:
            rng = np.random.default_rng(6)
            phi, theta = Sequence(0, rng.normal(size=22)), Sequence(0, rng.normal(size=22))
        seq = wronskian_sequence(c, phi, theta)
        for n in range(seq.offset, seq.end):
            value, ref = wronskian(c, phi, theta, n), complex(seq.at(n))
            assert (value.real.hex(), value.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def coeffs_of(p_len, q_len, w_len, q=0.0):
    return CoefficientSet(p=Sequence(0, np.ones(p_len)), q=Sequence(0, np.full(q_len, q)),
                          w=Sequence(1, np.ones(w_len)))


def short_residual_ratio():
    sol = solve_recurrence(constant_coeffs(length=12), 0.5, InitKind.VALUE_PAIR, 0.0, 1.0, 10)
    return solution_residual_ratio(coeffs_of(5, 12, 12), sol)


@pytest.mark.parametrize("call, message", [
    (lambda: finite_section(coeffs_of(6, 6, 3), 5), r"w window \[1, 4\) does not cover 1\.\.5"),
    (lambda: solve_recurrence(coeffs_of(7, 4, 6), 1.0, InitKind.VALUE_PAIR, 0.0, 1.0, 5),
     r"q window \[0, 4\) does not cover 1\.\.5"),
    (lambda: wronskian(coeffs_of(3, 3, 3), Sequence(0, np.ones(8)), Sequence(0, np.ones(8)), 4),
     r"p window \[0, 3\) does not cover 4\.\.4"),
    (short_residual_ratio, r"p window \[0, 5\) does not cover 0\.\.10"),
    (lambda: greens_identity_residual(Sequence(0, np.ones(6)), Sequence(0, np.ones(7)),
                                      Sequence(0, np.ones(4)), 5),
     r"v window \[0, 4\) does not cover 0\.\.6"),
    (lambda: bound_constants(CoefficientSet(Sequence(0, np.ones(3)), Sequence(0, np.eye(6)[5]),
                                            Sequence(1, np.ones(5))), 2),
     r"p window \[0, 3\) does not cover 1\.\.5"),
    (lambda: apply_L(coeffs_of(6, 6, 5), Sequence(1, np.ones(5))), "u must start at index 0"),
    (lambda: wronskian_sequence(coeffs_of(9, 9, 8), Sequence(0, np.ones(3)),
                                Sequence(5, np.ones(3))), "no shared window for the Wronskian"),
    (lambda: product_rule_residual(Sequence(0, [1.0]), Sequence(0, [2.0])),
     "product rule needs length >= 2"),
    (lambda: h1_inner(coeffs_of(6, 6, 5), Sequence(1, np.ones(4)), Sequence(1, np.ones(4))),
     "inner product expects offset-0 sequences"),
    (lambda: h1_inner(coeffs_of(6, 6, 5), Sequence(0, np.ones(4)), Sequence(0, np.ones(5))),
     "inner product expects equal lengths"),
    (lambda: h1_norm(coeffs_of(6, 6, 5), Sequence(0, [1.0])), "inner product needs length >= 2"),
    (lambda: cauchy_diagnostics(coeffs_of(6, 6, 5), [Sequence(0, np.ones(4)),
                                                     Sequence(0, np.ones(5)),
                                                     Sequence(0, np.ones(4))]),
     "family members must share the window"),
    (lambda: Sequence(0, np.ones(4)).at(np.int64(-1)),
     r"sequence window \[0, 4\) does not cover -1\.\.-1"),
    # Without its guard, each of the next six reads a fill value or a
    # truncated sum, or names the wrong window.
    (lambda: bound_constants(CoefficientSet(Sequence(0, np.ones(10)), Sequence(0, [0.0, 1.0, 1.0]),
                                            Sequence(1, np.ones(10))), 5),
     r"q window \[0, 3\) does not cover 1\.\.5"),
    (lambda: check_lemma1(Sequence(0, np.ones(3)), Sequence(0, np.arange(8.0)), 1, 5),
     r"p window \[0, 3\) does not cover 1\.\.6"),
    (lambda: check_lemma1(Sequence(1, np.ones(10)), Sequence(0, np.arange(8.0)), 0, 3),
     r"p window \[1, 11\) does not cover 0\.\.2"),
    (lambda: check_lemma2(coeffs_of(3, 12, 12, q=1.0), Sequence(0, np.arange(10.0)), 1, 5),
     r"p window \[0, 3\) does not cover 1\.\.5"),
    (lambda: check_lemma2(coeffs_of(12, 12, 12, q=1.0), Sequence(0, np.arange(4.0)), 1, 5),
     r"u window \[0, 4\) does not cover 1\.\.5"),
    (lambda: check_lemma2(coeffs_of(6, 12, 12, q=1.0), Sequence(0, np.arange(10.0)), 1, 5),
     r"p window \[0, 6\) does not cover 1\.\.8"),
    (lambda: apply_L(coeffs_of(12, 12, 12), Sequence(0, [1.0, 2.0])),
     "insufficient window to apply L at any interior index"),
    (lambda: summation_by_parts_residual(Sequence(0, np.arange(6.0)), Sequence(1, np.arange(6.0)),
                                         1, 3),
     "sequences must share offset and length"),
], ids=["finite_section", "solve_recurrence", "wronskian", "solution_residual_ratio",
        "greens_identity_residual", "bound_constants", "apply_L", "wronskian_sequence",
        "product_rule_residual", "h1_inner-offset", "h1_inner-lengths", "h1_norm",
        "cauchy_diagnostics", "negative-index", "bound_constants-q", "check_lemma1-energy",
        "check_lemma1-n-to-m", "check_lemma2-p-to-r", "check_lemma2-u", "check_lemma2-energy",
        "apply_L-short-u", "summation_by_parts_residual-aligned"])
def test_window_error_names_the_short_sequence(call, message):
    with pytest.raises(WindowError, match=f"^{message}$"):
        call()


def test_short_window_is_reported_before_init_kind():
    with pytest.raises(WindowError, match="^p window"):
        solve_recurrence(coeffs_of(3, 8, 8), 1.0, "no such kind", 0.0, 1.0, 5)
