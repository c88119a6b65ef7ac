"""Finite-section eigensolvers for the pencil L u = lambda W u.

The section truncates to indices 1..N with u(0) = u(N+1) = 0, which makes L
a symmetric positive-definite tridiagonal matrix (p > 0, q >= 0) while the
diagonal weight W may be indefinite.  Two independent solvers cross-validate.
Shooting counts the sign changes of the recurrence solution u(0) = 0,
u(1) = 1, which are the negative pivots of L - lambda W, as a signed count G
(Sylvester's law of inertia gives the counts: #(w > 0) positive and #(w < 0)
negative eigenvalues, and Ostrowski's quantitative form the range: all lie
within 2 max L_diag / min |w != 0| of zero), and finds each eigenvalue by
its index in G by multisection on one sorted set of counted points, from
which each bracket is read: each pass counts several points of every
distinct bracket in one vectorized call.  Guesses, such as the pencil's eigenvalues, are certified
by counts, never trusted: the counts just below and above a guess confirm
its index or leave it to the passes.  The congruence keeps the pencil in
tridiagonal storage: the rows with w = 0 are removed by a Schur complement,
T = |W|^-1/2 L |W|^-1/2 is factored as C C^T with C bidiagonal, and the
symmetric tridiagonal C^T J C, J = sign(w), has the pencil's eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky_banded, eigh_tridiagonal, solve_banded

from .coeffs import CoefficientSet, _integer
from .errors import InertiaError, SolverOverflowError, ValidationError
from .operators import InitKind, solve_recurrence

__all__ = [
    "FiniteSection",
    "SpectralResult",
    "finite_section",
    "shooting_function",
    "shooting_range",
    "eigen_shooting",
    "eigen_pencil",
]


@dataclass(frozen=True)
class FiniteSection:
    """Tridiagonal L and diagonal W of the Dirichlet truncation on 1..N."""

    N: int
    L_diag: np.ndarray      # p(n-1) + p(n) + q(n), n = 1..N
    L_offdiag: np.ndarray   # -p(n), n = 1..N-1
    W_diag: np.ndarray      # w(n), n = 1..N

    def apply_L(self, u: np.ndarray) -> np.ndarray:
        """L u for a length-N vector, or column by column for an N-by-m matrix."""
        ut = np.asarray(u).T
        out = self.L_diag * ut
        out[..., :-1] += self.L_offdiag * ut[..., 1:]
        out[..., 1:] += self.L_offdiag * ut[..., :-1]
        return out.T


@dataclass(frozen=True)
class SpectralResult:
    """Sorted real eigenvalues with per-method diagnostics.

    ``residuals`` (pencil) are ||L u - lambda W u|| / ||u||; ``brackets``
    (shooting) are the final multisection brackets (lo, hi), one per eigenvalue.
    """

    eigenvalues: list
    method: str
    residuals: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    no_finite_count: int = 0


def finite_section(coeffs: CoefficientSet, N: int) -> FiniteSection:
    """Assemble the N-by-N Dirichlet section matrices."""
    N = _integer(N, "N", 1)
    pv = coeffs.p.window(0, N, "p")
    qv = coeffs.q.window(1, N, "q")
    wv = coeffs.w.window(1, N, "w")
    return FiniteSection(
        N=N,
        L_diag=pv[:-1] + pv[1:] + qv,
        L_offdiag=-pv[1:N],
        W_diag=wv.copy(),
    )


def shooting_function(coeffs: CoefficientSet, lam: float, N: int) -> float:
    """u_lam(N+1) for the solution with u(0) = 0, u(1) = 1; zeros are eigenvalues."""
    sol = solve_recurrence(coeffs, float(lam), InitKind.VALUE_PAIR, 0.0, 1.0, N)
    return float(sol.values.at(N + 1).real)


def _sturm_count(fs: FiniteSection, lams) -> np.ndarray:
    """Signed Sturm count of the pencil, vectorized over real lam: the
    number of eigenvalues in (0, lam) for lam >= 0, and minus the number in
    (lam, 0) for lam < 0, so differences count the eigenvalues in any
    interval.

    The LDL^T pivots of the tridiagonal L - lam W are d(n) = p(n) u(n+1)/u(n)
    for the shooting solution u(0) = 0, u(1) = 1, so the number of negative
    pivots is the number of sign changes of u on 1..N+1, and also the number
    of eigenvalues of L - lam W below zero; L is positive definite, so that
    is how many pencil eigenvalues lie between 0 and lam.  Tiny pivots are
    pushed away from zero, sign-preserving.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    a, w = fs.L_diag, fs.W_diag
    b2 = np.concatenate([[0.0], fs.L_offdiag ** 2])  # no coupling above row 1
    d = np.ones_like(lams)
    cnt = np.zeros(lams.shape, dtype=np.int64)
    with np.errstate(over="ignore"):
        for i in range(fs.N):
            d = a[i] - lams * w[i] - b2[i] / d
            d = np.copysign(np.maximum(np.abs(d), 1e-290), d)
            cnt += d < 0
    return np.where(lams >= 0, cnt, -cnt)


# Points per multisection pass: each of the m distinct active brackets gets
# the largest odd K <= _WIDTH / m, so a small section fills one wide vector
# and more than _WIDTH / 3 distinct active brackets are halved (K = 1).
_WIDTH = 512


def _inertia(fs: FiniteSection) -> tuple:
    """(-#(w < 0), #(w > 0)): the signed counts beyond every eigenvalue."""
    return -int(np.sum(fs.W_diag < 0)), int(np.sum(fs.W_diag > 0))


def _bound(fs: FiniteSection) -> float:
    """B = 4 max L_diag / min |w != 0|, clipped to [1, largest double].

    Each L_diag(n) = p(n-1) + p(n) + q(n) is at least its row's off-diagonal
    sum, so by Gershgorin lambda_max(L) <= 2 max L_diag, and by Ostrowski's
    quantitative law of inertia every finite eigenvalue has |lambda| <=
    lambda_max(L) / min |w != 0| <= B / 2, unless the clip at the largest
    double cuts B.  Zero weights only add infinite eigenvalues, and with no
    nonzero weight B = 1.
    """
    with np.errstate(over="ignore", divide="ignore"):
        B = 4.0 * np.max(fs.L_diag) / np.min(np.abs(fs.W_diag[fs.W_diag != 0]), initial=np.inf)
    return float(np.clip(B, 1.0, np.finfo(float).max))


def _check_reach(fs: FiniteSection, counts, missing) -> None:
    """Raise unless the count at each missing window end, -B or B, is its inertia count."""
    if any(m and int(g) != t for m, g, t in zip(missing, counts, _inertia(fs))):
        raise SolverOverflowError("an eigenvalue lies beyond the float range")


def shooting_range(coeffs: CoefficientSet, N: int) -> tuple:
    """A symmetric lambda range (-B, B) containing every finite section eigenvalue.

    L is positive definite, so by Sylvester's law of inertia the pencil has
    exactly #(w > 0) positive and #(w < 0) negative finite eigenvalues, and
    by Ostrowski's quantitative form each has |lambda| <= B / 2 for B =
    4 max L_diag / min |w != 0|, clipped to [1, largest double].
    Raises SolverOverflowError when the signed counts at -B and B are not
    -#(w < 0) and #(w > 0), that is, when an eigenvalue lies beyond the
    largest double.
    """
    fs = finite_section(coeffs, N)
    B = _bound(fs)
    _check_reach(fs, _sturm_count(fs, [-B, B]), (True, True))
    return (-B, B)


def _check_window(lambda_min, lambda_max):
    """A given end of (lambda_min, lambda_max] is finite; two given ends are ordered."""
    ends = [x for x in (lambda_min, lambda_max) if x is not None]
    if not np.all(np.isfinite(ends)) or (len(ends) == 2 and lambda_min >= lambda_max):
        raise ValidationError("need finite lambda_min < lambda_max")


def eigen_shooting(coeffs: CoefficientSet, N: int, lambda_min: float | None = None,
                   lambda_max: float | None = None, tol: float = 1e-12, *,
                   guesses=()) -> SpectralResult:
    """Every eigenvalue in (lambda_min, lambda_max], by Sturm multisection on its index.

    The window is `eigen_pencil`'s.  With G the signed count `_sturm_count`,
    the eigenvalue of index i = G(lo) + 1 .. G(hi), [lo, hi] the window, is
    the least lam with G(lam) >= i.  The only state is a set of counted
    points in ascending order with their counts, starting from the window
    ends counted in one call.  The bracket of index i is the first point
    whose count reaches i and the point before it, so G(lo) < i <= G(hi)
    holds by construction, as in LAPACK dstebz, and indices that share a
    bracket share its points.  Each pass puts K evenly spaced points, the
    exact midpoint among them, into every distinct active bracket and counts
    them all in one call (Lo, Philippe and Sameh 1987); K is the largest odd
    number <= 512 / (distinct active brackets).  Brackets only shrink, so a
    pass keeps just the window ends and the bracket ends.  A bracket stops
    when its width is at most tol * max(1, |midpoint|) or no float lies
    strictly inside.  A missing end starts at -B or B of `shooting_range`,
    counted with the rest of the first count, and its count must be
    -#(w < 0) or #(w > 0), else SolverOverflowError: an eigenvalue on that
    side lies beyond the float range.  A given end beyond the spectrum
    leaves no index.  ``brackets`` holds the final [lo, hi] of each eigenvalue.

    ``guesses`` (finite, for example `eigen_pencil`'s eigenvalues) are
    certified by counts, never trusted: each guess g strictly inside the
    window adds the points g - d and g + d, d = tol/4 * max(1, |g|), to the
    first count, next to the window ends.  Where G(g - d) < i <= G(g + d),
    the bracket of index i is already narrower than the stop width and takes
    no pass; a wrong, missing or duplicate guess only leaves its indices to
    the passes.  Every answer still comes from the counts alone; without
    guesses the first count holds the two window ends only.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError("need finite tol > 0")
    guesses = np.asarray(guesses, dtype=float).ravel()
    if not np.all(np.isfinite(guesses)):
        raise ValidationError("need finite guesses")
    _check_window(lambda_min, lambda_max)
    fs = finite_section(coeffs, N)
    B = _bound(fs)
    x = np.array([-B if lambda_min is None else lambda_min,
                  B if lambda_max is None else lambda_max], dtype=float)
    inside = guesses[(x[0] < guesses) & (guesses < x[1])]
    d = 0.25 * tol * np.maximum(1.0, np.abs(inside))
    near = np.concatenate([inside - d, inside + d])
    x = np.concatenate([x[:1], np.unique(near[(x[0] < near) & (near < x[1])]), x[1:]])
    g = _sturm_count(fs, x)
    _check_reach(fs, g[[0, -1]], (lambda_min is None, lambda_max is None))
    while True:
        # Each rise of the running maximum of g ends a bracket that starts one point before.
        rise = np.diff(np.maximum.accumulate(g)) > 0
        lo, hi = x[:-1][rise], x[1:][rise]
        # Halves, so that neither the midpoint nor the width overflows.
        mid = 0.5 * lo + 0.5 * hi
        # Stop at the width, or when no float lies strictly inside.
        act = ((0.5 * hi - 0.5 * lo > 0.5 * tol * np.maximum(1.0, np.abs(mid)))
               & (lo < mid) & (mid < hi))
        if not act.any():
            break
        a, m, b = lo[act, None], mid[act, None], hi[act, None]
        # h points on each side of the midpoint, none of them outside [a, b].
        h = max(_WIDTH // a.size - 1, 0) // 2
        step = np.arange(1, h + 1) / (h + 1)
        new = np.hstack([m - (m - a) * step[::-1], m, m + (b - m) * step]).ravel()
        # Brackets only shrink: keep just the window ends and the bracket ends.
        keep = np.concatenate([[True], rise]) | np.concatenate([rise, [True]])
        x = np.concatenate([x[keep], new])
        g = np.concatenate([g[keep], _sturm_count(fs, new)])
        order = np.argsort(x)
        x, g = x[order], g[order]
    # The bracket of index i: the first point whose count reaches i, and the one before.
    j = np.searchsorted(np.maximum.accumulate(g), np.arange(g[0] + 1, g[-1] + 1))
    lo, hi = x[j - 1], x[j]
    return SpectralResult(eigenvalues=(0.5 * lo + 0.5 * hi).tolist(), method="shooting",
                          brackets=list(zip(lo.tolist(), hi.tolist())))


def _eliminate_zero_weights(fs: FiniteSection):
    """Schur complement of L on the indices with w = 0.

    Eliminating a vertex of a path graph joins its two neighbours, so the
    reduced L on the kept indices is again SPD tridiagonal.  Indices are
    shifted by one to pad a dummy vertex at each end, joined by zero edges,
    so the first and last rows need no special case.  The zeros are
    eliminated left to right; when z goes, its row reads
    ``d[z] u(z) + e[z] u(left) + e_right[z] u(z+1) = 0`` with ``left`` the
    nearest kept index below z, which `_fill_zero_weights` solves right to
    left for the eliminated entries of an eigenvector.
    """
    d = np.concatenate([[1.0], fs.L_diag, [1.0]])
    e = np.concatenate([[0.0, 0.0], fs.L_offdiag, [0.0]])  # edge to the left neighbour
    e_right = e[1:].copy()                                   # edge to k + 1 in L
    zeros = np.flatnonzero(fs.W_diag == 0) + 1
    left = np.empty_like(zeros)
    lk = 0
    for i, z in enumerate(zeros):
        if z == 1 or fs.W_diag[z - 2] != 0:
            lk = z - 1
        left[i] = lk
        d[lk] -= e[z] ** 2 / d[z]
        d[z + 1] -= e_right[z] ** 2 / d[z]
        e[z + 1] = -e[z] * e_right[z] / d[z]
    keep = np.flatnonzero(fs.W_diag != 0) + 1
    elim = (zeros, left, d[zeros], e[zeros], e_right[zeros])
    return d[keep], e[keep[1:]], keep, elim


def _fill_zero_weights(N: int, keep: np.ndarray, elim, U_keep: np.ndarray) -> np.ndarray:
    """Embed eigenvectors of the reduced pencil into 1..N, solving the w = 0 rows."""
    U = np.zeros((N + 2, U_keep.shape[1]))
    U[keep] = U_keep
    for z, lk, piv, el, er in zip(*(a[::-1] for a in elim)):
        U[z] = -(el * U[lk] + er * U[z + 1]) / piv
    return U[1:-1]


def eigen_pencil(coeffs: CoefficientSet, N: int, lambda_min: float | None = None,
                 lambda_max: float | None = None) -> SpectralResult:
    """The finite eigenvalues of (L, W) in (lambda_min, lambda_max], by a congruence.

    The window is `eigen_shooting`'s, checked by `_check_window`.  Indices
    with w = 0 carry infinite eigenvalues; they are removed by a Schur
    complement of L, which keeps it SPD tridiagonal, and counted in
    ``no_finite_count``.  On the rest, T = |W|^-1/2 L |W|^-1/2 = C C^T with
    C lower bidiagonal, and with J = sign(w) the pencil L u = lambda W u has
    exactly the eigenvalues of the symmetric tridiagonal C^T J C.  Its
    eigenvectors y give u = |W|^-1/2 C^-T y, and the eliminated entries
    follow from their rows of L u = 0.  Residuals are ||L u - lambda W u||
    / ||u||.  Since L is positive definite, Sylvester's law of inertia fixes
    the number of positive and negative eigenvalues to the number of
    positive and negative w(n); a result that breaks it raises InertiaError.
    A non-finite eigenvector entry or residual, from a weight so small that
    the congruence loses the spectrum, raises SolverOverflowError.  Both
    checks see the whole spectrum; the window applies only after them.
    """
    _check_window(lambda_min, lambda_max)
    fs = finite_section(coeffs, N)
    a, b, keep, elim = _eliminate_zero_weights(fs)
    if keep.size == 0:
        return SpectralResult(eigenvalues=[], method="pencil", no_finite_count=fs.N)
    w = fs.W_diag[fs.W_diag != 0]
    s = 1.0 / np.sqrt(np.abs(w))
    J = np.sign(w)
    with np.errstate(over="ignore"):
        T = np.array([a * s * s, np.append(b * s[:-1] * s[1:], 0.0)])
    if not np.all(np.isfinite(T)):
        raise SolverOverflowError("a weight so small that |W|^-1/2 L |W|^-1/2 overflows")
    try:
        C = cholesky_banded(T, lower=True)
    except np.linalg.LinAlgError as exc:
        raise InertiaError("L is not numerically positive definite") from exc
    c, sub = C[0], C[1, :-1]

    diag = c * c * J
    diag[:-1] += sub * sub * J[1:]
    lam, Y = eigh_tridiagonal(diag, sub * J[1:] * c[1:])
    inertia = (-int(np.sum(lam < 0)), int(np.sum(lam > 0)))
    if inertia != _inertia(fs):
        raise InertiaError(f"pencil inertia {inertia} != signs of w {_inertia(fs)}")
    V = solve_banded((0, 1), np.array([np.insert(sub, 0, 0.0), c]), Y,
                     overwrite_b=True, check_finite=False)
    V *= s[:, None]
    U = V if keep.size == fs.N else _fill_zero_weights(fs.N, keep, elim, V)

    with np.errstate(over="ignore", invalid="ignore"):
        R = fs.apply_L(U)
        R -= fs.W_diag[:, None] * U * lam
        residuals = np.linalg.norm(R, axis=0) / np.linalg.norm(U, axis=0)
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(residuals))):
        raise SolverOverflowError("an eigenvector or residual is not finite: a weight "
                                  "too small for |W|^-1/2 L |W|^-1/2")
    inside = (((-np.inf if lambda_min is None else lambda_min) < lam)
              & (lam <= (np.inf if lambda_max is None else lambda_max)))
    return SpectralResult(eigenvalues=lam[inside].tolist(), method="pencil",
                          residuals=residuals[inside].tolist(),
                          no_finite_count=fs.N - keep.size)
