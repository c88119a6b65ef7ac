import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leftdef import (
    InertiaError,
    InitKind,
    LeftDefError,
    Sequence,
    SolverOverflowError,
    ValidationError,
    apply_L,
    eigen_pencil,
    eigen_shooting,
    finite_section,
    make_preset,
    shooting_range,
    solve_recurrence,
)
from leftdef import spectrum
from leftdef.coeffs import CoefficientSet


def free_laplacian(length=16):
    return make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=length)


def closed_form(N):
    k = np.arange(1, N + 1)
    return 4 * np.sin(k * np.pi / (2 * (N + 1))) ** 2


def u_end(c, lam, N):
    """u(N+1) of the solution with u(0) = 0, u(1) = 1: its zeros in lam are the eigenvalues."""
    return float(solve_recurrence(c, lam, InitKind.VALUE_PAIR, 0.0, 1.0, N).values.at(N + 1).real)


def dense_L(fs):
    """The section's L as a dense matrix, for the dense oracles."""
    return np.diag(fs.L_diag) + np.diag(fs.L_offdiag, 1) + np.diag(fs.L_offdiag, -1)


def indefinite_coeffs(rng, N):
    """Random section coefficients with |w| bounded away from 0, both signs."""
    signs = rng.choice([-1.0, 1.0], N + 1)
    signs[0], signs[1] = 1.0, -1.0  # force indefiniteness
    return CoefficientSet(
        p=Sequence(0, rng.uniform(0.5, 2.0, N + 1)),
        q=Sequence(0, rng.uniform(0.0, 1.0, N + 1)),
        w=Sequence(1, signs * rng.uniform(0.5, 5.0, N + 1)),
    )


class TestFiniteSection:
    def test_free_laplacian_assembly(self):
        fs = finite_section(free_laplacian(), 3)
        np.testing.assert_array_equal(fs.L_diag, [2, 2, 2])
        np.testing.assert_array_equal(fs.L_offdiag, [-1, -1])
        np.testing.assert_array_equal(fs.W_diag, [1, 1, 1])

    def test_mixed_assembly(self):
        c = CoefficientSet(p=Sequence(0, [1.0, 2.0, 3.0, 4.0]),
                           q=Sequence(0, [0.0, 1.0, 1.0, 1.0]),
                           w=Sequence(1, [1.0, 1.0, 1.0]))
        fs = finite_section(c, 3)
        np.testing.assert_array_equal(fs.L_diag, [4, 6, 8])
        np.testing.assert_array_equal(fs.L_offdiag, [-2, -3])

    def test_matches_apply_L_with_dirichlet_padding(self):
        rng = np.random.default_rng(6)
        c = make_preset("random", length=20, rng_seed=6)
        N = 18
        fs = finite_section(c, N)
        interior = rng.normal(size=N)
        padded = Sequence(0, np.concatenate([[0.0], interior, [0.0]]))
        via_L = apply_L(c, padded).values.real
        via_fs = fs.apply_L(interior)
        scale = max(1.0, np.max(np.abs(via_fs)))
        np.testing.assert_allclose(via_fs, via_L, atol=1e-13 * scale)

    def test_L_positive_definite(self):
        c = make_preset("random", length=34, rng_seed=14)
        fs = finite_section(c, 32)
        scipy.linalg.cholesky(dense_L(fs))  # raises if not positive definite


class TestShooting:
    def test_one_step_root(self):
        c = free_laplacian()
        assert u_end(c, 2.0, 1) == 0.0
        assert u_end(c, 0.0, 1) == pytest.approx(2.0)

    def test_lambda_zero_never_dirichlet_eigenvalue(self):
        c = free_laplacian()
        for N in (1, 4, 8):
            assert u_end(c, 0.0, N) == pytest.approx(N + 1)

    def test_sign_changes_across_closed_form_roots(self):
        c = free_laplacian()
        N = 8
        for lam in closed_form(N):
            below = u_end(c, lam - 1e-6, N)
            above = u_end(c, lam + 1e-6, N)
            assert below * above < 0

    def test_eigen_shooting_closed_form(self):
        c = free_laplacian()
        res = eigen_shooting(c, 8, 0.0, 4.1, tol=1e-10)
        assert len(res.eigenvalues) == 8
        np.testing.assert_allclose(res.eigenvalues, closed_form(8), atol=1e-8)
        assert len(res.brackets) == 8
        # A tolerance below the float spacing stops at adjacent floats.
        fine = eigen_shooting(c, 8, 0.0, 4.1, tol=1e-30)
        np.testing.assert_allclose(fine.eigenvalues, closed_form(8), atol=1e-12)

    def test_negative_weight_negates_roots(self):
        pos = make_preset("constant", {"p": 1.0, "q": 0.0, "w": 1.0}, length=16)
        neg = make_preset("constant", {"p": 1.0, "q": 0.0, "w": -1.0}, length=16)
        a = eigen_shooting(pos, 8, 0.0, 4.1, tol=1e-10)
        b = eigen_shooting(neg, 8, -4.1, 0.0, tol=1e-10)
        np.testing.assert_allclose(sorted(-x for x in b.eigenvalues),
                                   a.eigenvalues, atol=1e-9)

    def test_agrees_with_pencil_on_indefinite_weight(self):
        rng = np.random.default_rng(13)
        c = indefinite_coeffs(rng, 32)
        shoot = eigen_shooting(c, 32)
        pencil = eigen_pencil(c, 32)
        lo, hi = shooting_range(c, 32)
        in_range = [x for x in pencil.eigenvalues if lo <= x <= hi]
        assert len(shoot.eigenvalues) == len(in_range)
        for a, b in zip(shoot.eigenvalues, in_range):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_one_sided_window_keeps_given_end(self):
        c = free_laplacian()
        exact = closed_form(4)
        above = eigen_shooting(c, 4, lambda_min=2.0)
        np.testing.assert_allclose(above.eigenvalues, exact[exact > 2.0], atol=1e-10)
        below = eigen_shooting(c, 4, lambda_max=2.0)
        np.testing.assert_allclose(below.eigenvalues, exact[exact < 2.0], atol=1e-10)

    def test_one_sided_window_beyond_range_is_empty(self):
        c = free_laplacian()
        lo, hi = shooting_range(c, 4)
        for window in ({"lambda_min": hi + 1.0}, {"lambda_min": hi},
                       {"lambda_max": lo - 1.0}):
            res = eigen_shooting(c, 4, **window)
            assert res.eigenvalues == [] and res.brackets == []
        with pytest.raises(ValidationError):
            eigen_shooting(c, 4, hi + 1.0, hi)

    def test_one_sided_window_needs_only_its_own_side(self):
        # The eigenvalues are about -sqrt(2), sqrt(2) and 2 / w(2).  For w(2) =
        # 1.2e-308 the last is 1.67e308, below the largest double, where B is
        # clipped; for w(2) = 5e-324 it lies beyond it, the count at B misses
        # it, and only the window below 0, which needs just -B, answers.
        c, N = explicit([1.0, 1.2e-308, -1.0])
        exact = np.array([-np.sqrt(2.0), np.sqrt(2.0), 2.0 / 1.2e-308])
        np.testing.assert_allclose(eigen_shooting(c, N).eigenvalues, exact, rtol=1e-12)
        np.testing.assert_allclose(eigen_shooting(c, N, lambda_min=0.0).eigenvalues,
                                   exact[1:], rtol=1e-12)
        for w2 in (1.2e-308, 5e-324):
            c, N = explicit([1.0, w2, -1.0])
            below = eigen_shooting(c, N, lambda_max=0.0)
            assert below.eigenvalues == [pytest.approx(-np.sqrt(2.0), rel=1e-12)]
        with pytest.raises(SolverOverflowError, match="beyond the float range"):
            shooting_range(c, N)
        for window in ({}, {"lambda_min": 0.0}):
            with pytest.raises(SolverOverflowError, match="beyond the float range"):
                eigen_shooting(c, N, **window)

    def test_eigenvalue_near_the_float_limit(self):
        # The eigenvalue is about 2 / 2.5e-308 = 8e307: (lo + hi) / 2 of the
        # window overflows, lo / 2 + hi / 2 does not.
        c, N = explicit([1.0, 2.5e-308, -1.0])
        res = eigen_shooting(c, N, 7e307, 1.7e308)
        assert len(res.eigenvalues) == 1
        assert res.eigenvalues[0] == pytest.approx(2.0 / 2.5e-308, rel=1e-12)

    def test_brackets_hold_their_eigenvalues(self):
        c = indefinite_coeffs(np.random.default_rng(20), 12)
        res = eigen_shooting(c, 12)
        assert len(res.brackets) == len(res.eigenvalues) == 12
        for (lo, hi), x in zip(res.brackets, res.eigenvalues):
            assert lo <= x <= hi
            assert hi - lo <= 1e-12 * max(1.0, abs(x))

    def test_bad_config(self):
        c = free_laplacian()
        with pytest.raises(ValidationError):
            eigen_shooting(c, 4, 2.0, 1.0)
        with pytest.raises(ValidationError):
            eigen_shooting(c, 4, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValidationError):
            eigen_shooting(c, 4, 0.0, np.inf)

    @pytest.mark.parametrize("guess", [np.nan, np.inf, -np.inf])
    def test_non_finite_guess_rejected(self, guess):
        with pytest.raises(ValidationError, match="need finite guesses"):
            eigen_shooting(free_laplacian(), 4, guesses=[1.0, guess])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("window", [(None, None), (0.0, 4.1), (None, 2.0)])
    def test_non_finite_tol_rejected(self, tol, window):
        # A NaN or infinite width test would stop the bisection at once.
        with pytest.raises(ValidationError, match="need finite tol > 0"):
            eigen_shooting(free_laplacian(), 4, *window, tol=tol)


class TestPencil:
    def test_closed_form(self):
        res = eigen_pencil(free_laplacian(), 8)
        np.testing.assert_allclose(res.eigenvalues, closed_form(8), atol=1e-8)
        assert all(r <= 1e-10 for r in res.residuals)

    def test_zero_weight_entry_excluded(self):
        c = CoefficientSet(p=Sequence(0, np.ones(5)),
                           q=Sequence(0, np.zeros(5)),
                           w=Sequence(1, [1.0, 0.0, 2.0]))
        res = eigen_pencil(c, 3)
        assert res.no_finite_count == 1
        assert len(res.eigenvalues) == 2
        # brute-force 3x3 generalized eigenproblem as independent oracle
        fs = finite_section(c, 3)
        vals = scipy.linalg.eig(dense_L(fs), np.diag(fs.W_diag))[0]
        finite = sorted(v.real for v in vals if np.isfinite(v))
        np.testing.assert_allclose(res.eigenvalues, finite, atol=1e-10)

    def test_residuals_small_for_random_indefinite(self):
        rng = np.random.default_rng(15)
        c = indefinite_coeffs(rng, 16)
        res = eigen_pencil(c, 16)
        fs = finite_section(c, 16)
        scale = np.max(np.abs(fs.L_diag)) + np.max(np.abs(fs.W_diag)) * max(
            abs(x) for x in res.eigenvalues)
        assert all(r <= 1e-8 * scale for r in res.residuals)

    def test_realness_and_sorted(self):
        rng = np.random.default_rng(16)
        c = indefinite_coeffs(rng, 24)
        res = eigen_pencil(c, 24)
        ev = np.asarray(res.eigenvalues)
        assert ev.dtype.kind == "f"
        assert np.all(np.diff(ev) > 0)

    def test_closed_form_above_old_dense_cap(self):
        res = eigen_pencil(free_laplacian(602), 600)
        np.testing.assert_allclose(res.eigenvalues, closed_form(600), atol=1e-8)
        assert res.no_finite_count == 0

    def test_tiny_weight_raises_instead_of_wrong_spectrum(self):
        # The exact spectrum is about [-1.414, 1.414, 2e300]; the congruence
        # scales by 1e150 and loses the first two.  The checks see the whole
        # spectrum, so a window without the column that overflows raises too.
        c, N = explicit([1.0, 1e-300, -1.0])
        for window in [(None, None), (None, 0.0), (-2.0, 0.0), (0.0, 2.0)]:
            with pytest.raises(SolverOverflowError):
                eigen_pencil(c, N, *window)

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        c = indefinite_coeffs(rng, 12)
        scaled = CoefficientSet(
            p=Sequence(0, 3.0 * c.p.values.real),
            q=Sequence(0, 3.0 * c.q.values.real),
            w=Sequence(1, c.w.values.real.copy()),
        )
        a = np.asarray(eigen_pencil(c, 12).eigenvalues)
        b = np.asarray(eigen_pencil(scaled, 12).eigenvalues)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-9)

    @pytest.mark.parametrize("w", [None, [1.0, 0.0, -2.0, 0.0, 0.0, 3.0, -1.0, 0.0]])
    def test_window_is_the_masked_whole_spectrum(self, w):
        # Each window returns bit for bit the eigenvalues and residuals of the
        # unwindowed call in (lambda_min, lambda_max], including zero weights
        # and windows that hold no eigenvalue.
        if w is None:
            c, N = indefinite_coeffs(np.random.default_rng(21), 24), 24
        else:
            c, N = explicit(w)
        full = eigen_pencil(c, N)
        lam, res = np.array(full.eigenvalues), np.array(full.residuals)
        mid = lam[len(lam) // 2]
        for lo, hi in [(None, None), (mid, None), (None, mid), (lam[0], lam[-1]),
                       (lam[-1], None), (None, lam[0] - 1.0), (mid + 1e-9, mid + 2e-9),
                       (-1e300, 1e300)]:
            got = eigen_pencil(c, N, lo, hi)
            inside = (((-np.inf if lo is None else lo) < lam)
                      & (lam <= (np.inf if hi is None else hi)))
            assert got.eigenvalues == lam[inside].tolist()
            assert got.residuals == res[inside].tolist()
            assert got.no_finite_count == full.no_finite_count

    @pytest.mark.parametrize("window", [(np.nan, None), (None, np.nan), (None, np.inf),
                                        (-np.inf, None), (3.0, 1.0), (1.0, 1.0)])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValidationError, match="need finite lambda_min < lambda_max"):
            eigen_pencil(free_laplacian(), 4, *window)


def test_shooting_range_contains_pencil_spectrum():
    rng = np.random.default_rng(18)
    for _ in range(20):
        c = indefinite_coeffs(rng, 16)
        lo, hi = shooting_range(c, 16)
        ev = eigen_pencil(c, 16).eigenvalues
        assert all(lo <= x <= hi for x in ev)


def test_shooting_range_accepts_zero_weight():
    c = CoefficientSet(p=Sequence(0, np.ones(7)), q=Sequence(0, np.zeros(7)),
                       w=Sequence(1, [1.0, 0.0, -2.0, 0.0, 0.5]))
    lo, hi = shooting_range(c, 5)
    ev = eigen_pencil(c, 5).eigenvalues
    assert len(ev) == 3
    assert all(lo <= x <= hi for x in ev)


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.1, 5.0), st.floats(-5.0, -0.1))


def explicit(w, p=None, q=None):
    n = len(w)
    return CoefficientSet(p=Sequence(0, np.ones(n + 1) if p is None else p),
                          q=Sequence(0, np.zeros(n + 1) if q is None else q),
                          w=Sequence(1, np.asarray(w, dtype=float))), n


@st.composite
def pencils(draw):
    """Random, periodic (clustered spectrum) and zero-weight sections, N = 1..40."""
    N = draw(st.integers(1, 40))
    if draw(st.booleans()):
        def cycle(values):
            return draw(st.lists(values, min_size=1, max_size=3))
        c = make_preset("periodic", {"p": cycle(st.floats(0.5, 2.0)),
                                     "q": cycle(st.floats(0.0, 1.0)),
                                     "w": cycle(WEIGHTS)}, length=N + 1)
        return c, N

    def floats(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
    return explicit(draw(st.lists(WEIGHTS, min_size=N, max_size=N)),
                    p=floats(0.1, 10.0, N + 1), q=floats(0.0, 5.0, N + 1))


@given(pencils())
@settings(max_examples=200, deadline=None)
@example(explicit([0.0, 0.0, 0.0, 0.0]))
@example(explicit([0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 3.0, 0.0]))
@example(explicit([0.0]))
@example(explicit([-1.0]))
# Two mirror halves joined by p(4) = 1e-10: eigenvalues come in close pairs.
@example(explicit([1.0, -2.0, 1.5, 0.7, 0.7, 1.5, -2.0, 1.0],
                  p=np.array([1.0, 1.5, 2.0, 1.2, 1e-10, 1.2, 2.0, 1.5, 1.0]),
                  q=np.full(9, 0.3)))
# An eigenvalue near 2 / 5e-324 lies beyond the float range.
@example(explicit([1.0, 5e-324, -1.0]))
def test_pencil_matches_dense_generalized_eig(instance):
    c, N = instance
    fs = finite_section(c, N)
    w = fs.W_diag
    nzero = int(np.sum(w == 0))
    # The N - nzero smallest |alpha/beta| of the QZ oracle are the finite ones.
    vals = scipy.linalg.eig(dense_L(fs), np.diag(w), right=False)
    vals = vals[np.argsort(np.where(np.isfinite(vals), np.abs(vals), np.inf))]
    ref = np.sort(vals[:N - nzero].real)
    if not np.all(np.isfinite(ref)):
        for solver in (eigen_pencil, eigen_shooting):
            with pytest.raises(LeftDefError):
                solver(c, N)
        return
    res = eigen_pencil(c, N)
    ev = np.asarray(res.eigenvalues)

    assert res.no_finite_count == nzero
    assert ev.size == ref.size == len(res.residuals)
    assert (np.sum(ev > 0), np.sum(ev < 0)) == (np.sum(w > 0), np.sum(w < 0))
    lam_max = np.max(np.abs(ref), initial=0.0)
    np.testing.assert_allclose(ev, ref, rtol=0, atol=1e-9 * max(1.0, lam_max))
    scale = np.max(np.abs(fs.L_diag)) + np.max(np.abs(w)) * lam_max
    assert all(r <= 1e-8 * scale for r in res.residuals)

    # Ostrowski and Gershgorin: every finite eigenvalue lies within B / 2 of zero.
    assert np.all(np.abs(ref) <= shooting_range(c, N)[1] / 2)

    shoot = np.asarray(eigen_shooting(c, N).eigenvalues)
    assert shoot.size == ref.size
    assert np.all(np.abs(shoot - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(shoot - ev) <= 1e-8 * np.maximum(1.0, np.abs(ev)))


def test_underflowing_section_raises_inertia_error():
    # |W|^-1/2 L |W|^-1/2 has entries near 1e-400, which underflow to 0.
    c = CoefficientSet(Sequence(0, np.full(4, 1e-200)), Sequence(0, np.zeros(4)),
                       Sequence(1, np.full(3, 1e200)))
    with pytest.raises(InertiaError, match="^L is not numerically positive definite$"):
        eigen_pencil(c, 3)


def test_pencil_inertia_violation_raises(monkeypatch):
    original = scipy.linalg.eigh_tridiagonal

    def flipped(d, e):
        lam, Y = original(d, e)
        return -lam[::-1], Y[:, ::-1]

    c = indefinite_coeffs(np.random.default_rng(19), 8)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", flipped)
    with pytest.raises(InertiaError):
        eigen_pencil(c, 8)


def reference_range(c, N):
    """`shooting_range` by its formula: B = 4 max L_diag / min |w != 0| in [1, largest double]."""
    fs = finite_section(c, N)
    w = np.abs(fs.W_diag[fs.W_diag != 0])
    with np.errstate(over="ignore"):
        B = 4.0 * np.max(fs.L_diag) / np.min(w) if w.size else 1.0
    B = float(min(max(B, 1.0), np.finfo(float).max))
    return (-B, B)


def reference_bisection(c, N, lambda_min=None, lambda_max=None, tol=1e-12):
    """`eigen_shooting` with one point per bracket: (eigenvalues, brackets)."""
    fs = finite_section(c, N)
    start = reference_range(c, N) if lambda_min is None or lambda_max is None else None
    base = (-np.sum(fs.W_diag < 0) if lambda_min is None
            else spectrum._sturm_count(fs, lambda_min)[0])
    top = np.sum(fs.W_diag > 0) if lambda_max is None else spectrum._sturm_count(fs, lambda_max)[0]
    index = np.arange(1, top - base + 1)
    lo = np.full(index.size, start[0] if lambda_min is None else float(lambda_min))
    hi = np.full(index.size, start[1] if lambda_max is None else float(lambda_max))
    while True:
        mid = 0.5 * (lo + hi)
        act = np.flatnonzero((hi - lo > tol * np.maximum(1.0, np.abs(mid)))
                             & (lo < mid) & (mid < hi))
        if act.size == 0:
            break
        left = spectrum._sturm_count(fs, mid[act]) - base >= index[act]
        hi[act] = np.where(left, mid[act], hi[act])
        lo[act] = np.where(left, lo[act], mid[act])
    return (0.5 * (lo + hi)).tolist(), list(zip(lo.tolist(), hi.tolist()))


# Two mirror halves joined by p(4) = 1e-10: eigenvalues come in close pairs.
CLUSTER = explicit([1.0, -2.0, 1.5, 0.7, 0.7, 1.5, -2.0, 1.0],
                   p=np.array([1.0, 1.5, 2.0, 1.2, 1e-10, 1.2, 2.0, 1.5, 1.0]),
                   q=np.full(9, 0.3))
WINDOWS = [(None, None), (None, 0.5), (-0.5, None), (-3.0, 2.0)]


# Guesses as a recipe: the pencil's eigenvalues moved by a relative shift of
# alternating sign (None: left out), other values, and whether all come twice.
GUESSES = st.tuples(
    st.sampled_from([None, 0.0, 1e-15, 1e-13, 1e-9, 1e-3, 0.5]),
    st.lists(st.one_of(st.floats(-10.0, 10.0),
                       st.sampled_from([-1.7e308, -1e3, -3.0, -0.5, 0.0, 0.5, 2.0, 1e3, 1.7e308])),
             max_size=6),
    st.booleans())
PENCIL = (0.0, [], False)


def guess_values(c, N, recipe):
    shift, extra, twice = recipe
    guesses = list(extra)
    if shift is not None:
        ev = np.asarray(eigen_pencil(c, N).eigenvalues)
        guesses += (ev * (1.0 + shift * (-1.0) ** np.arange(ev.size))).tolist()
    return guesses * 2 if twice else guesses


@given(pencils(), st.sampled_from(WINDOWS), st.sampled_from([1e-12, 1e-6, 1e-30]), GUESSES)
@settings(max_examples=200, deadline=None)
@example(CLUSTER, (None, None), 1e-12, PENCIL)
@example(CLUSTER, (None, None), 1e-30, (1e-13, [0.0, 1.7e308], True))
@example(explicit([0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 3.0, 0.0]), (None, None), 1e-30,
         PENCIL)
@example(explicit([0.0]), (None, None), 1e-12, (None, [1.0], False))
# A window wider than the float range: its width overflows, its half-width does not.
@example(CLUSTER, (-1.7e308, 1.7e308), 1e-12, (1e-9, [-1e300, 1e300], True))
def test_multisection_brackets_keep_the_dstebz_invariant(instance, window, tol, recipe):
    # Each bracket of index i has G(lo) < i <= G(hi), and it stops at the
    # width or when no float lies strictly inside, with and without guesses.
    # Guesses (right, wrong, outside the window or repeated) only add counted
    # points, so the answer stays within tol of the solve without them.
    c, N = instance
    fs = finite_section(c, N)
    res = eigen_shooting(c, N, *window, tol=tol, guesses=guess_values(c, N, recipe))
    cold = eigen_shooting(c, N, *window, tol=tol)
    base = (-np.sum(fs.W_diag < 0) if window[0] is None
            else spectrum._sturm_count(fs, window[0])[0])
    top = np.sum(fs.W_diag > 0) if window[1] is None else spectrum._sturm_count(fs, window[1])[0]
    for r in (res, cold):
        assert len(r.brackets) == len(r.eigenvalues) == top - base
        if not r.brackets:
            continue
        lo, hi = map(np.array, zip(*r.brackets))
        index = np.arange(1, lo.size + 1)
        assert np.all(spectrum._sturm_count(fs, lo) - base < index)
        assert np.all(index <= spectrum._sturm_count(fs, hi) - base)
        mid = 0.5 * (lo + hi)
        assert np.all((hi - lo <= tol * np.maximum(1.0, np.abs(mid)))
                      | (np.nextafter(lo, np.inf) >= hi))
    # Below the float spacing the counts themselves round, so two brackets of
    # adjacent floats may lie a few ulps apart (3 eps in 1,500 draws).
    cold = np.asarray(cold.eigenvalues)
    assert np.all(np.abs(np.asarray(res.eigenvalues) - cold)
                  <= max(tol, 16 * np.finfo(float).eps) * np.maximum(1.0, np.abs(cold)))


@pytest.mark.parametrize("seed", range(6))
def test_one_point_per_bracket_is_bisection(monkeypatch, seed):
    # With a vector width of 1 every pass has K = 1: bit for bit the halving loop.
    rng = np.random.default_rng(seed)
    c, N = indefinite_coeffs(rng, 24), 24
    if seed % 2:
        w = c.w.values.real.copy()
        w[rng.choice(N, 5, replace=False)] = 0.0
        c = CoefficientSet(p=c.p, q=c.q, w=Sequence(1, w))
    monkeypatch.setattr(spectrum, "_WIDTH", 1)
    for window in WINDOWS:
        for tol in (1e-12, 1e-30):
            res = eigen_shooting(c, N, *window, tol=tol)
            eigenvalues, brackets = reference_bisection(c, N, *window, tol=tol)
            assert res.eigenvalues == eigenvalues
            assert res.brackets == brackets


def test_no_multisection_point_is_counted_twice(monkeypatch):
    # Indices that share a bracket share its points, so one whole solve, the
    # first count of the window ends included, counts each point once: on
    # the criterion-9 family at N = 32, with and without zero weights.
    count, calls = spectrum._sturm_count, []

    def recorded(fs, lams):
        calls.append(np.atleast_1d(lams))
        return count(fs, lams)

    monkeypatch.setattr(spectrum, "_sturm_count", recorded)
    rng = np.random.default_rng(42)
    for k in range(100):
        c = indefinite_coeffs(rng, 32)
        if k % 4 == 0:
            w = c.w.values.real.copy()
            w[rng.choice(32, 5, replace=False)] = 0.0
            c = CoefficientSet(p=c.p, q=c.q, w=Sequence(1, w))
        calls.clear()
        eigen_shooting(c, 32)
        points = np.concatenate(calls)
        assert np.unique(points).size == points.size


def test_pencil_guesses_need_one_count(monkeypatch):
    # On the criterion-9 family at N = 32, with and without zero weights, the
    # counts at the pencil's eigenvalues +- tol/4 certify every index, so a
    # solve makes one count, next to the window ends -B and B, and no pass.  The pencil's
    # wrong values on the tiny-weight case are not certified: their indices
    # take passes, and row 3 is shooting's 0.30003, not the pencil's 1.0710.
    count, calls = spectrum._sturm_count, []

    def recorded(fs, lams):
        calls.append(np.atleast_1d(lams))
        return count(fs, lams)

    monkeypatch.setattr(spectrum, "_sturm_count", recorded)
    rng = np.random.default_rng(42)
    for k in range(100):
        c = indefinite_coeffs(rng, 32)
        if k % 4 == 0:
            w = c.w.values.real.copy()
            w[rng.choice(32, 5, replace=False)] = 0.0
            c = CoefficientSet(p=c.p, q=c.q, w=Sequence(1, w))
        guesses = eigen_pencil(c, 32).eigenvalues
        calls.clear()
        res = eigen_shooting(c, 32, guesses=guesses)
        assert len(calls) == 1
        assert len(res.eigenvalues) == len(guesses)
    c, N = explicit([1.0, -1.0, 1e-16, 2.0, -0.5, 1e-16, 1.0])
    guesses = eigen_pencil(c, N).eigenvalues
    assert guesses[2] == pytest.approx(1.0709887937131, rel=1e-12)
    calls.clear()
    res = eigen_shooting(c, N, guesses=guesses)
    assert len(calls) > 1
    assert res.eigenvalues[2] == pytest.approx(0.30002754750318, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the pencil errs by about "
                   "eps * max|lambda| = 4.4 here and exits 0")
def test_pencil_agrees_with_shooting_on_the_tiny_weight_case():
    # `spectrum --coeffs <doc> --n 7 --method pencil` prints 1.0709887937131004
    # on row 3, where shooting gives 0.30002754750319827.
    c, N = explicit([1.0, -1.0, 1e-16, 2.0, -0.5, 1e-16, 1.0])
    pencil, shooting = eigen_pencil(c, N).eigenvalues, eigen_shooting(c, N).eigenvalues
    assert len(pencil) == len(shooting) == N
    for a, b in zip(pencil, shooting):
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


@pytest.mark.parametrize("window", [(-3.0, 3.0), (-1.0, 2.0)])
def test_guesses_on_the_window_ends_add_no_point(window):
    # Only a guess strictly inside the window is counted, so guesses at its
    # ends leave the answer as it is without guesses, brackets included.
    c = make_preset("random", length=20, rng_seed=3)
    plain = eigen_shooting(c, 12, *window)
    ends = eigen_shooting(c, 12, *window, guesses=list(window))
    assert plain.brackets
    assert ends == plain


# A tiny weight, small weights next to a zero, a B clipped to the largest
# double, and no nonzero weight (B = 1).
@pytest.mark.parametrize("w", [[1.0, 1e-300, -1.0], [1e-30, -2.0, 3.0, 0.0],
                               [1.0, 1.2e-308, -1.0], [0.0, 0.0]])
def test_shooting_range_matches_the_bound(w):
    c, N = explicit(w)
    assert shooting_range(c, N) == reference_range(c, N)
    assert all(type(B) is float for B in shooting_range(c, N))
    rng = np.random.default_rng(22)
    for N in (1, 5, 17, 40):
        c = indefinite_coeffs(rng, N)
        assert shooting_range(c, N) == reference_range(c, N)


def test_shooting_range_raises_beyond_the_float_range():
    # An eigenvalue near 2 / 5e-324 lies beyond the largest double, where B is clipped.
    c, N = explicit([1.0, 5e-324, -1.0])
    with pytest.raises(SolverOverflowError, match="beyond the float range"):
        shooting_range(c, N)
