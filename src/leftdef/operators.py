"""The difference operator L, the recurrence solver, and the Wronskian.

L acts by (Lu)(n) = -D(p Du)(n-1) + q(n) u(n) for n >= 1, mapping a sequence
on 0..N+1 to one on 1..N.  Solutions of L u = lambda w u are produced by the
forward recurrence

    u(n+1) = [(p(n) + p(n-1) + q(n) - lambda w(n)) u(n) - p(n-1) u(n-1)] / p(n)

which is well defined because p is strictly positive.  `recurrence` runs it
over arrays whose trailing axes batch lambdas, initial data and coefficients;
`solve_recurrence` is its validated one-solution form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, Sequence, _integer
from .errors import SolverOverflowError, ValidationError, WindowError
from .space import BoundReport, inequality_report

__all__ = [
    "InitKind",
    "Solution",
    "apply_L",
    "recurrence",
    "solve_recurrence",
    "wronskian",
    "wronskian_sequence",
    "wronskian_constancy_report",
]


class InitKind(enum.Enum):
    """How the two initial data are interpreted."""

    VALUE_PAIR = "value_pair"                    # (u(0), u(1))
    VALUE_AND_QUASIDERIVATIVE = "value_and_quasiderivative"  # (u(1), (p Du)(0))


@dataclass(frozen=True)
class Solution:
    """A recurrence solution on 0..N+1 and its eigenparameter."""

    lam: complex
    values: Sequence


def _apply_L(pv, qv, uv):
    """(Lu)(n) for n = 1..N and the flux (p Du)(n) for n = 0..N, along axis 0.

    pv holds p(0..N), qv holds q(1..N) and uv holds u(0..N+1); trailing axes
    broadcast.
    """
    pdu = pv * np.diff(uv, axis=0)
    Lu = qv * uv[1:-1]
    Lu -= np.diff(pdu, axis=0)
    return Lu, pdu


def apply_L(coeffs: CoefficientSet, u: Sequence) -> Sequence:
    """Evaluate (Lu)(n) = -[p(n) Du(n) - p(n-1) Du(n-1)] + q(n) u(n) for n = 1..N.

    N is the largest interior index the windows of u, p and q allow.
    """
    if u.offset != 0:
        raise WindowError("u must start at index 0")
    N = min(u.end - 2, coeffs.p.end - 1, coeffs.q.end - 1)
    if N < 1:
        raise WindowError("insufficient window to apply L at any interior index")
    out, _ = _apply_L(coeffs.p.window(0, N), coeffs.q.window(1, N),
                      u.window(0, N + 1))
    return Sequence(1, out)


def _rows(a: np.ndarray) -> list:
    """The entries of a along axis 0: Python floats when a is 1-d (the same
    IEEE double arithmetic as numpy scalars, several times faster), else
    array rows."""
    return a.tolist() if a.ndim == 1 else list(a)


def _real_loop(c, pm, inv, u01) -> list:
    """Rows u(0..N+1) of the real recurrence u(n+1) = (c(n) u(n) - p(n-1) u(n-1)) / p(n)
    from the real initial rows u01, with pm = p(0..N-1) and inv = 1/p(1..N)."""
    v, u = _rows(u01)
    out = [v, u]
    for ck, pk, ik in zip(c, pm, inv):
        v, u = u, (ck * u - pk * v) * ik
        out.append(u)
    return out


def recurrence(pv, qv, wv, lam, u0, u1) -> np.ndarray:
    """Solutions u(0..N+1) of L u = lam w u from u(0) = u0 and u(1) = u1.

    Axis 0 is the index: pv holds p(0..N), qv and wv hold q(1..N) and
    w(1..N).  The trailing axes of all six arguments broadcast, so one call
    solves a block of columns with their own lambda, initial data and
    coefficients.  The result has shape (N+2,) + the broadcast trailing
    shape and numpy's result dtype of c and the initial data: float64 when
    lam, u0 and u1 are real-typed, else complex128.  The diagonal term
    c(n) = p(n) + p(n-1) + q(n) - lam w(n) is formed once and the loop runs
    over n only,

        u(n+1) = (c(n) u(n) - p(n-1) u(n-1)) / p(n).

    When no entry of c and of the initial data has a nonzero imaginary part
    (every lam real, as every eigenvalue of the left-definite problem is),
    the recurrence runs in real arithmetic.  Otherwise the complex products
    are written out in real arithmetic, one rounding per operation whatever
    the array shape (numpy's vectorized complex multiply may fuse a product
    and a sum).  Both loops divide by multiplying with 1/p(n), as complex128
    division by a real does, so every column equals its own 0-d call bit
    for bit.  A zero imaginary part adds only signed zeros to the complex
    loop's sums, so the two loops give equal values that differ at most in
    the sign of a zero; the closing ``u += 0.0`` turns every -0.0 into
    +0.0, after which they agree bit for bit: a float64 result is the real
    part of its complex128 solve, and a block that mixes real and complex
    columns matches its columns solved alone.  p must be positive; no
    rescaling is applied, and non-finite growth in any column raises
    SolverOverflowError.
    """
    pv, qv, wv = (np.asarray(x, dtype=float) for x in (pv, qv, wv))
    N = qv.shape[0] if qv.ndim else 0
    if N < 1 or pv.shape[:1] != (N + 1,) or wv.shape[:1] != (N,):
        raise WindowError("need p(0..N), q(1..N) and w(1..N) along axis 0, N >= 1")
    shape = np.broadcast_shapes(pv.shape[1:], qv.shape[1:], wv.shape[1:],
                                np.shape(lam), np.shape(u0), np.shape(u1))
    # Align the trailing axes of the coefficients with `shape`, from the right.
    pv, qv, wv = (x.reshape(x.shape[:1] + (1,) * (len(shape) + 1 - x.ndim) + x.shape[1:])
                  for x in (pv, qv, wv))
    c = pv[1:] + pv[:-1] + qv - lam * wv
    u01 = np.stack([np.broadcast_to(x, shape) for x in (u0, u1)])
    u01 = u01.astype(np.result_type(c, u01), copy=False)
    pm, inv = _rows(pv[:-1]), _rows(1.0 / pv[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        if not (np.any(np.imag(c)) or np.any(np.imag(u01))):
            u = np.array(_real_loop(_rows(np.real(c)), pm, inv, u01.real))
            u = u.astype(u01.dtype, copy=False)
        else:
            vr, ur = _rows(u01.real)
            vi, ui = _rows(u01.imag)
            re, im = [vr, ur], [vi, ui]
            for cr, ci, pk, ik in zip(_rows(np.real(c)), _rows(np.imag(c)), pm, inv):
                vr, vi, ur, ui = (ur, ui, ((cr * ur - ci * ui) - pk * vr) * ik,
                                  ((cr * ui + ci * ur) - pk * vi) * ik)
                re.append(ur)
                im.append(ui)
            u = np.empty((N + 2,) + shape, dtype=complex)
            u.real, u.imag = re, im
        u += 0.0
    bad = ~np.all(np.isfinite(u), axis=0)
    if np.any(bad):
        col = tuple(np.argwhere(bad)[0].tolist())
        where = f" in column {col}" if col else ""
        raise SolverOverflowError(f"recurrence overflowed before index {N + 1}{where} "
                                  f"(lambda={np.broadcast_to(lam, shape)[col]})")
    return u


def solve_recurrence(coeffs: CoefficientSet, lam: complex, init_kind: InitKind,
                     a: complex, b: complex, N: int) -> Solution:
    """Solve L u = lam w u forward up to index N+1 from two initial data.

    For VALUE_PAIR the data are (a, b) = (u(0), u(1)); for
    VALUE_AND_QUASIDERIVATIVE they are (a, b) = (u(1), (p Du)(0)), so
    u(0) = u(1) - b / p(0).  No rescaling is applied; non-finite growth
    raises SolverOverflowError.
    """
    if not np.isfinite(complex(lam).real) or not np.isfinite(complex(lam).imag):
        raise ValidationError("lambda must be finite")
    N = _integer(N, "N", 1)
    pv, qv, wv = (coeffs.p.window(0, N, "p"), coeffs.q.window(1, N, "q"),
                  coeffs.w.window(1, N, "w"))

    init_kind = InitKind(init_kind)
    if init_kind is InitKind.VALUE_PAIR:
        u0, u1 = complex(a), complex(b)
    else:
        u1 = complex(a)
        u0 = u1 - complex(b) / pv[0]

    u = recurrence(pv, qv, wv, lam, u0, u1)
    return Solution(lam=complex(lam), values=Sequence(0, u))


def _cross(f0, f1, t0, t1):
    """f0*t1 - f1*t0 with componentwise products, so swapping (f, t) flips
    the sign bitwise (complex a*b is not bitwise commutative in numpy)."""
    re = (f0.real * t1.real - f0.imag * t1.imag) - (f1.real * t0.real - f1.imag * t0.imag)
    im = (f0.real * t1.imag + f0.imag * t1.real) - (f1.real * t0.imag + f1.imag * t0.real)
    return re + 1j * im


def wronskian(coeffs: CoefficientSet, phi: Sequence, theta: Sequence, n: int) -> complex:
    """W(n) = p(n) (phi(n) Dtheta(n) - Dphi(n) theta(n)).

    Evaluated in the algebraically equal cross form
    p(n) (phi(n) theta(n+1) - phi(n+1) theta(n)), which is exactly
    antisymmetric in floating point.
    """
    f, t = phi.window(n, n + 1, "phi"), theta.window(n, n + 1, "theta")
    return complex(_wronskian(coeffs.p.window(n, n, "p"), f, t)[0])


def _wronskian_window(coeffs: CoefficientSet, phi: Sequence, theta: Sequence):
    """The largest shared window lo..hi of W: (lo, p(lo..hi), phi and theta on lo..hi+1)."""
    lo = max(phi.offset, theta.offset, coeffs.p.offset)
    hi = min(phi.end, theta.end) - 2
    hi = min(hi, coeffs.p.end - 1)
    if hi < lo:
        raise WindowError("no shared window for the Wronskian")
    return (lo, coeffs.p.window(lo, hi), phi.window(lo, hi + 1),
            theta.window(lo, hi + 1))


def _wronskian(pv, f, t):
    """W(n) = p(n) (f(n) t(n+1) - f(n+1) t(n)) along axis 0, pv one entry shorter."""
    return pv * _cross(f[:-1], f[1:], t[:-1], t[1:])


def _wronskian_drift(pv, f, t):
    """The drift max_n |W(n) - W(lo)| and its bound, along axis 0 (see
    `wronskian_constancy_report`)."""
    w = _wronskian(pv, f, t)
    drift = np.max(np.abs(w - w[0]), axis=0)
    scale = np.maximum.reduce([np.ones_like(drift), np.abs(w[0]),
                               np.max(np.abs(pv * f[:-1] * t[1:]), axis=0),
                               np.max(np.abs(pv * f[1:] * t[:-1]), axis=0)])
    return drift, 1e-9 * scale


def wronskian_sequence(coeffs: CoefficientSet, phi: Sequence,
                       theta: Sequence) -> Sequence:
    """W(n) over the largest shared window (vectorized)."""
    lo, pv, fv, tv = _wronskian_window(coeffs, phi, theta)
    return Sequence(lo, _wronskian(pv, fv, tv))


def wronskian_constancy_report(coeffs: CoefficientSet, phi: Solution,
                               theta: Solution) -> BoundReport:
    """Check max_n |W(n) - W(0)| against 1e-9 times the working magnitude.

    The magnitude scale includes the individual products inside W, which is
    where the cancellation error of growing solutions lives.
    """
    if phi.lam != theta.lam:
        raise ValidationError("Wronskian constancy needs a shared lambda")
    _, pv, fv, tv = _wronskian_window(coeffs, phi.values, theta.values)
    drift, bound = _wronskian_drift(pv, fv, tv)
    return inequality_report(float(drift), float(bound), tolerance=0.0)
