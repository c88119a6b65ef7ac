"""Forward-difference calculus and its summation identities as residual checks.

Each residual function evaluates both sides of an identity independently and
returns the worst absolute discrepancy; the contract is that the result stays
below 1e-12 times the magnitude scale of the data.
"""

from __future__ import annotations

import numpy as np

from .coeffs import Sequence
from .errors import WindowError

__all__ = [
    "forward_difference",
    "product_rule_residual",
    "summation_by_parts_residual",
    "greens_identity_residual",
    "RESIDUAL_TOL",
]

RESIDUAL_TOL = 1e-12


def forward_difference(u: Sequence) -> Sequence:
    """(Du)(n) = u(n+1) - u(n), on the same offset, one entry shorter."""
    if len(u) < 2:
        raise WindowError("forward difference needs length >= 2")
    return Sequence(u.offset, np.diff(u.values))


def _check_aligned(f: Sequence, g: Sequence):
    if f.offset != g.offset or len(f) != len(g):
        raise WindowError("sequences must share offset and length")


def _index(a: np.ndarray) -> np.ndarray:
    """The axis-0 positions of a, shaped to broadcast against its trailing axes."""
    return np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1))


def _at(a: np.ndarray, i):
    """a[i] along axis 0, with i broadcast against the trailing axes."""
    i = np.broadcast_to(i, a.shape[1:])
    return np.take_along_axis(a, i[None], axis=0)[0]


def _sum_over(terms: np.ndarray, lo, hi):
    """sum_{k=lo}^{hi} terms[k] along axis 0; lo and hi broadcast against the
    trailing axes, and an empty range sums to 0.

    Scalar bounds sum the slice lo..hi itself, as ``np.sum(terms[lo:hi + 1])``;
    per-column bounds zero the entries outside each column's range.  numpy
    sums pairwise only along the axis contiguous in memory, so each column
    is then made contiguous first (summed in sequence, 200 terms erred 2-4
    times more).
    """
    if np.ndim(lo) == np.ndim(hi) == 0:
        return terms[lo:max(hi + 1, 0)].sum(axis=0)
    part = terms[np.min(lo):max(np.max(hi) + 1, 0)]
    k = np.min(lo) + _index(part)
    part = np.where((lo <= k) & (k <= hi), part, 0)
    return np.sum(np.ascontiguousarray(np.moveaxis(part, 0, -1)), axis=-1)


def _product_rule(fv, gv, n):
    """max_k |D(fg)(k) - g(k+1) Df(k) - f(k) Dg(k)| over k = 0..n-2 along
    axis 0, for f and g on 0..n-1 (entries past n-1 are ignored); n
    broadcasts against the trailing axes."""
    lhs = np.diff(fv * gv, axis=0)
    rhs = gv[1:] * np.diff(fv, axis=0) + fv[:-1] * np.diff(gv, axis=0)
    err = np.abs(lhs - rhs)
    return np.max(np.where(_index(err) < n - 1, err, 0.0), axis=0)


def product_rule_residual(f: Sequence, g: Sequence) -> float:
    """Max deviation in D(fg)(n) = g(n+1) Df(n) + f(n) Dg(n) over the window."""
    _check_aligned(f, g)
    if len(f) < 2:
        raise WindowError("product rule needs length >= 2")
    return float(_product_rule(f.values, g.values, len(f)))


def _summation_by_parts(fv, gv, j, N):
    """|lhs - rhs| of summation by parts over n = j..N along axis 0, for f
    and g from index 0; j and N broadcast against the trailing axes."""
    lhs = _sum_over(gv[1:] * np.diff(fv, axis=0), j, N)
    rhs = (_at(fv, N + 1) * _at(gv, N + 1) - _at(fv, j) * _at(gv, j)
           - _sum_over(fv[:-1] * np.diff(gv, axis=0), j, N))
    return abs(lhs - rhs)


def summation_by_parts_residual(f: Sequence, g: Sequence, j: int, N: int) -> float:
    """Residual of the summation-by-parts formula over n = j..N.

    Compares sum g(n+1) Df(n) against (fg)(N+1) - (fg)(j) - sum f(n) Dg(n).
    """
    _check_aligned(f, g)
    if j > N:
        raise WindowError("need j <= N")
    f.require(j, N + 1, "f")
    g.require(j, N + 1, "g")
    return float(_summation_by_parts(f.window(j, N + 1), g.window(j, N + 1), 0, N - j))


def _greens_identity(pv, uv, vv, N):
    """|lhs - rhs| of the Green identity over n = 1..N along axis 0, for p
    from index 0 and u, v from index 0 (one entry longer than p); N
    broadcasts against the trailing axes."""
    pdu = pv * np.diff(uv, axis=0)          # (p Du)(n), n = 0, 1, ...
    lhs = _sum_over(pdu[1:] * np.conj(np.diff(vv, axis=0)[1:]), 0, N - 1)
    rhs = (
        _at(pdu, N) * np.conj(_at(vv, N + 1))
        - pdu[0] * np.conj(vv[1])
        - _sum_over(np.diff(pdu, axis=0) * np.conj(vv[1:-1]), 0, N - 1)
    )
    return abs(lhs - rhs)


def greens_identity_residual(p: Sequence, u: Sequence, v: Sequence, N: int) -> float:
    """Residual of the discrete Green identity over n = 1..N.

    Compares sum (p Du)(n) conj(Dv(n)) against the boundary terms
    (p Du)(N) conj(v(N+1)) - (p Du)(0) conj(v(1)) minus
    sum D(p Du)(n-1) conj(v(n)).  Conjugation sits on the second argument.
    """
    if N < 1:
        raise WindowError("need N >= 1")
    p.require(0, N, "p")
    u.require(0, N + 1, "u")
    v.require(0, N + 1, "v")
    return float(_greens_identity(p.window(0, N), u.window(0, N + 1),
                                  v.window(0, N + 1), N))
