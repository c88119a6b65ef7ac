"""One rule for integer arguments: every size N and index of the public API
goes through `coeffs._integer`, so a bool, a non-integer or a value below
range is a ValidationError, and a numpy integer acts as the int it holds."""

import dataclasses
import re

import numpy as np
import pytest

from leftdef import (
    CoefficientSet,
    InitKind,
    Sequence,
    ValidationError,
    bound_constants,
    cauchy_diagnostics,
    check_lemma1,
    check_lemma2,
    check_pointwise_bound,
    eigen_pencil,
    eigen_shooting,
    finite_section,
    greens_identity_residual,
    make_preset,
    shooting_range,
    solve_recurrence,
    summation_by_parts_residual,
    wronskian,
)

C = make_preset("random", length=12, rng_seed=4)
U = Sequence(0, np.linspace(-1.0, 2.0, 12))
V = Sequence(0, np.cos(np.arange(12.0)))

TAKES_N = {
    "finite_section": lambda N: finite_section(C, N),
    "eigen_pencil": lambda N: eigen_pencil(C, N),
    "eigen_shooting": lambda N: eigen_shooting(C, N),
    "shooting_range": lambda N: shooting_range(C, N),
    "solve_recurrence": lambda N: solve_recurrence(C, 0.5, InitKind.VALUE_PAIR, 0.0, 1.0, N),
    "bound_constants": lambda N: bound_constants(C, N),
    "greens_identity_residual": lambda N: greens_identity_residual(C.p, U, V, N),
}


def same(a, b) -> bool:
    """a and b hold equal values of the same types, dataclass field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return type(a) is type(b) and np.array_equal(a, b)


@pytest.mark.parametrize("N", [2.5, np.float64(3), True, "3", 0, -1])
@pytest.mark.parametrize("name", TAKES_N)
def test_section_length_must_be_an_integer_from_one(name, N):
    with pytest.raises(ValidationError,
                       match=f"^N must be an integer >= 1, got {re.escape(repr(N))}$"):
        TAKES_N[name](N)


@pytest.mark.parametrize("name", TAKES_N)
def test_numpy_integer_section_length_acts_as_int(name):
    for N in (1, 3, 9):
        assert same(TAKES_N[name](np.int64(N)), TAKES_N[name](N))


@pytest.mark.parametrize("call, what", [
    (lambda: wronskian(C, U, V, 1.5), "phi index"),
    (lambda: check_lemma1(C.p, U, 1.5, 3), "u index"),
    (lambda: check_lemma1(C.p, U, 1, 3.5), "u index"),
    (lambda: check_lemma2(C, U, 1.5, 3), "m"),
    (lambda: check_lemma2(C, U, 1, 3.5), "q index"),
    (lambda: check_pointwise_bound(C, U, 1.5, 3), "u index"),
    (lambda: check_pointwise_bound(C, U, 1, 3.5), "q index"),
    (lambda: summation_by_parts_residual(U, V, 1.5, 3), "f index"),
    (lambda: summation_by_parts_residual(U, V, 1, 3.5), "f index"),
    (lambda: U.at(1.5), "sequence index"),
], ids=["wronskian-n", "lemma1-n", "lemma1-m", "lemma2-m", "lemma2-r", "pointwise-m",
        "pointwise-N", "summation-j", "summation-N", "at"])
def test_index_must_be_an_integer(call, what):
    with pytest.raises(ValidationError, match=f"^{what} must be an integer, got \\d\\.5$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: check_lemma2(CoefficientSet(Sequence(0, np.ones(6)), Sequence(0, np.zeros(6)),
                                         Sequence(1, np.ones(5))), Sequence(0, np.ones(6)), 1, 2),
     "sum of q over 1..r must be positive"),
    (lambda: cauchy_diagnostics(C, [U]), "family needs at least two members"),
    (lambda: CoefficientSet(Sequence(0, np.ones(3)), Sequence(0, np.zeros(3)),
                            Sequence(0, np.ones(3))), "w must start at index 1"),
    (lambda: make_preset("random", {"p_range": (0.0, 1.0)}, length=2),
     "random ranges must keep p > 0 and q >= 0"),
], ids=["check_lemma2", "cauchy_diagnostics", "CoefficientSet", "make_preset-random-ranges"])
def test_guard_is_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
