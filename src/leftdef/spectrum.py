"""Finite-section eigensolvers for the pencil L u = lambda W u.

The section truncates to indices 1..N with u(0) = u(N+1) = 0, which makes L
a symmetric positive-definite tridiagonal matrix (p > 0, q >= 0) while the
diagonal weight W may be indefinite.  Two independent solvers cross-validate.
Shooting counts the sign changes of the recurrence solution u(0) = 0,
u(1) = 1, which are the negative pivots of L - lambda W, as a signed count G
(Sylvester's law of inertia gives the range: #(w > 0) positive and #(w < 0)
negative eigenvalues), and finds each eigenvalue by its index in G by
multisection on one sorted set of counted points, from which each bracket
is read: each pass counts several points of every distinct bracket in one
vectorized call.  The congruence keeps the pencil in tridiagonal storage:
the rows with w = 0 are removed by a Schur complement, T = |W|^-1/2 L
|W|^-1/2 is factored as C C^T with C bidiagonal, and the symmetric
tridiagonal C^T J C, J = sign(w), has the pencil's eigenvalues.
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


def _range(fs: FiniteSection) -> tuple:
    """`shooting_range` of a built section."""
    target = _inertia(fs)
    for k in (np.arange(64), np.arange(64, 1024)):
        B = np.ldexp(1.0, k)
        neg, pos = _sturm_count(fs, np.concatenate([-B, B])).reshape(2, -1)
        hit = np.flatnonzero((neg == target[0]) & (pos == target[1]))
        if hit.size:
            B = float(B[hit[0]])
            return (-B, B)
    raise SolverOverflowError("an eigenvalue lies beyond the float range")


def shooting_range(coeffs: CoefficientSet, N: int) -> tuple:
    """A symmetric lambda range containing every finite section eigenvalue.

    L is positive definite, so by Sylvester's law of inertia the pencil has
    exactly #(w > 0) positive and #(w < 0) negative finite eigenvalues.  B
    is the least power of two 1, 2, 4, ... at which the signed counts at -B
    and B reach -#(w < 0) and #(w > 0), with 2^0..2^63 counted in one pass
    and 2^64..2^1023 in a second only when needed; zero weights only add
    infinite eigenvalues, which no count sees.
    Raises SolverOverflowError when no finite power of two meets the counts.
    """
    return _range(finite_section(coeffs, N))


def _check_window(lambda_min, lambda_max):
    """A given end of (lambda_min, lambda_max] is finite; two given ends are ordered."""
    ends = [x for x in (lambda_min, lambda_max) if x is not None]
    if not np.all(np.isfinite(ends)) or (len(ends) == 2 and lambda_min >= lambda_max):
        raise ValidationError("need finite lambda_min < lambda_max")


def eigen_shooting(coeffs: CoefficientSet, N: int, lambda_min: float | None = None,
                   lambda_max: float | None = None,
                   tol: float = 1e-12) -> SpectralResult:
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
    strictly inside.  A missing end starts at `shooting_range`, whose counts
    are -#(w < 0) and #(w > 0); a given end beyond the spectrum leaves no
    index.  ``brackets`` holds the final [lo, hi] of each eigenvalue.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError("need finite tol > 0")
    _check_window(lambda_min, lambda_max)
    fs = finite_section(coeffs, N)
    start = _range(fs) if lambda_min is None or lambda_max is None else (None, None)
    x = np.array([start[0] if lambda_min is None else lambda_min,
                  start[1] if lambda_max is None else lambda_max], dtype=float)
    g = _sturm_count(fs, x)
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
