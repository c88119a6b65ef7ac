"""Record what the `leftdef` library returns for a fixed set of calls, for diffing two trees.

    PYTHONPATH=<tree>/src python tools/api_snapshot.py > snapshot.txt

One line per call gives its arguments and its result: floats as `float.hex`,
complex numbers as a pair of them, arrays as dtype, shape and the SHA-256 of
their bytes, dataclasses field by field, and a raised error as its type and
message.  The calls cover `verify.run_all`, the per-block (largest ratio,
number failed) of each campaign's ``blocks``, the public functions of
`calculus`, `space`, `operators` and `spectrum` on seeded instances
(`recurrence` also with real values in complex-typed input and with
complex initial data under a block of real lambdas,
`cauchy_diagnostics` also on a family that does not contract, shooting
also with the pencil's eigenvalues as guesses, and on a weight that puts an
eigenvalue near the largest double), and invalid integer arguments: a
non-integer, bool or below-range N for every function that takes one, a 1.5
index through each window read, and a negative seed for each preset.  Run it
on two source trees and `diff` the snapshots: equal lines mean bit-identical
results.  See `tools/cli_snapshot.py` for the same over the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from leftdef import (
    CoefficientSet,
    InitKind,
    Sequence,
    apply_L,
    bound_constants,
    cauchy_diagnostics,
    check_lemma1,
    check_lemma2,
    check_pointwise_bound,
    eigen_pencil,
    eigen_shooting,
    finite_section,
    forward_difference,
    greens_identity_residual,
    h1_inner,
    h1_norm,
    l2_norm,
    make_preset,
    product_rule_residual,
    recurrence,
    shooting_range,
    solve_recurrence,
    summation_by_parts_residual,
    wronskian,
    wronskian_constancy_report,
    wronskian_sequence,
)
from leftdef.coeffs import PRESETS
from leftdef.space import inequality_report
from leftdef.verify import CAMPAIGNS, run_all


def show(x) -> str:
    """x with every float as float.hex, so equal text means equal bits."""
    if x is None or isinstance(x, (bool, np.bool_, str)):
        return repr(x.item() if isinstance(x, np.bool_) else x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return f"({show(x.real)}, {show(x.imag)})"
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{list(x.shape)} {hashlib.sha256(x.tobytes()).hexdigest()[:16]}"
    if isinstance(x, Sequence):
        return f"Sequence({x.offset}, {show(x.values)})"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(show(v) for v in x) + "]"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + "(" + ", ".join(
            f"{f.name}={show(getattr(x, f.name))}" for f in dataclasses.fields(x)) + ")"
    raise TypeError(f"cannot show {type(x).__name__}")


def record(label: str, call) -> None:
    try:
        result = show(call())
    except Exception as exc:  # an error is part of what the snapshot records
        result = f"{type(exc).__name__}: {exc}"
    print(f"{label} -> {result}")


def complex_sequence(rng, n: int) -> Sequence:
    return Sequence(0, rng.uniform(-10.0, 10.0, n) + 1j * rng.uniform(-10.0, 10.0, n))


def supported(rng, length: int) -> Sequence:
    """A complex u on 0..length-1 that vanishes outside 1..length-3."""
    u = np.zeros(length, dtype=complex)
    u[1:length - 2] = complex_sequence(rng, length - 3).values
    return Sequence(0, u)


def solution(sol) -> tuple:
    return sol.lam, sol.values


def wronskian_value(value):
    # Older trees return an object from `wronskian` that holds the complex as `.value`.
    return getattr(value, "value", value)


INSTANCES = {
    "random:seed=3,length=40": lambda: make_preset("random", length=40, rng_seed=3),
    "random:seed=11,length=40": lambda: make_preset("random", length=40, rng_seed=11),
    "power:length=40": lambda: make_preset("power", length=40),
    "periodic:w=[1,0,-2],length=40": lambda: make_preset("periodic", {"w": [1, 0, -2]},
                                                           length=40),
    "constant:q=0,length=40": lambda: make_preset("constant", length=40),
}


def campaigns() -> None:
    for seed in (0, 7, 42):
        for cases in (0, 1, 33, 1000):
            record(f"run_all({seed}, {cases})", lambda: [
                (r.name, r.cases, r.failures, r.worst) for r in run_all(seed, cases)])
    for name, campaign in CAMPAIGNS.items():
        for seed in (0, 7, 42):
            for cases in (0, 1, 33, 200):
                record(f"{name}.blocks({seed}, {cases})", lambda: [
                    (float(np.max(ratio)), int(np.sum(failed)))
                    for ratio, failed in campaign.blocks(np.random.default_rng(seed), cases)])


def calculus(rng) -> None:
    for n in (2, 17, 200):
        f, g = complex_sequence(rng, n), complex_sequence(rng, n)
        p = Sequence(0, rng.uniform(0.1, 10.0, n))
        record(f"forward_difference(n={n})", lambda: forward_difference(f))
        record(f"product_rule_residual(n={n})", lambda: product_rule_residual(f, g))
        for j, N in ((0, n - 2), (n // 2, n - 2), (n - 2, n - 2)):
            record(f"summation_by_parts_residual(n={n}, j={j}, N={N})",
                   lambda: summation_by_parts_residual(f, g, j, N))
        record(f"greens_identity_residual(n={n}, N={n - 2})",
               lambda: greens_identity_residual(p, f, g, n - 2))


def space(rng) -> None:
    record("inequality_report(1.0, 1.0)", lambda: inequality_report(1.0, 1.0))
    record("inequality_report(2.0, 1.0, 0.5)", lambda: inequality_report(2.0, 1.0, 0.5))
    for label, make in INSTANCES.items():
        c, length = make(), 40
        u, v = supported(rng, length), supported(rng, length)
        record(f"h1_inner({label})", lambda: h1_inner(c, u, v))
        record(f"h1_norm({label})", lambda: h1_norm(c, u))
        record(f"l2_norm({label})", lambda: l2_norm(u))
        for N in (1, 10, 38):
            record(f"bound_constants({label}, {N})", lambda: bound_constants(c, N))
        for n, m in ((1, 1), (3, 20), (1, 38)):
            record(f"check_lemma1({label}, {n}, {m})", lambda: check_lemma1(c.p, u, n, m))
        for m, r in ((1, 1), (5, 20), (20, 39)):
            record(f"check_lemma2({label}, {m}, {r})", lambda: check_lemma2(c, u, m, r))
        for m, N in ((1, 1), (7, 30), (38, 38)):
            record(f"check_pointwise_bound({label}, {m}, {N})",
                   lambda: check_pointwise_bound(c, u, m, N))
        family = [Sequence(0, u.values * (1 + 0.5 ** k)) for k in range(1, 40, 3)] + [u]
        record(f"cauchy_diagnostics({label})", lambda: cauchy_diagnostics(c, family))
    # Distances ||u||, 2 ||u||, 0 to the last member: a family that does not contract.
    c = make_preset("random", length=40, rng_seed=3)
    u = Sequence(0, np.cos(np.arange(40.0)))
    growing = [Sequence(0, k * u.values) for k in (2.0, 3.0, 1.0)]
    record("cauchy_diagnostics(random:seed=3,length=40, [2u, 3u, u])",
           lambda: cauchy_diagnostics(c, growing))


def operators(rng) -> None:
    for label, make in INSTANCES.items():
        c, N = make(), 30
        u = complex_sequence(rng, N + 2)
        record(f"apply_L({label})", lambda: apply_L(c, u))
        for lam in (0.0, 1.5, -2.25 + 0.5j):
            a, b = complex(*rng.uniform(-1.0, 1.0, 2)), complex(*rng.uniform(-1.0, 1.0, 2))
            for kind in InitKind:
                record(f"solve_recurrence({label}, {lam}, {kind.name})",
                       lambda: solution(solve_recurrence(c, lam, kind, a, b, N)))
            phi = solve_recurrence(c, lam, InitKind.VALUE_PAIR, 0.0, 1.0, N)
            theta = solve_recurrence(c, lam, InitKind.VALUE_PAIR, 1.0, 0.0, N)
            for n in (0, 13, N):
                record(f"wronskian({label}, {lam}, {n})",
                       lambda: wronskian_value(wronskian(c, phi.values, theta.values, n)))
            record(f"wronskian_sequence({label}, {lam})",
                   lambda: wronskian_sequence(c, phi.values, theta.values))
            record(f"wronskian_constancy_report({label}, {lam})",
                   lambda: wronskian_constancy_report(c, phi, theta))
        pv, qv, wv = c.p.window(0, N), c.q.window(1, N), c.w.window(1, N)
        lams = rng.uniform(-5.0, 5.0, 7)
        record(f"recurrence({label}, 7 lambdas)", lambda: recurrence(pv, qv, wv, lams, 0.0, 1.0))
        # The result's dtype follows the inputs': complex for a complex-typed
        # lambda or complex initial data, even when every value is real.
        record(f"recurrence({label}, 1.5+0j)", lambda: recurrence(pv, qv, wv, 1.5 + 0j, 0.0, 1.0))
        record(f"recurrence({label}, 1.5, complex data)",
               lambda: recurrence(pv, qv, wv, 1.5, 0.0, 1.0 + 0j))
        record(f"recurrence({label}, 7 lambdas, complex data)",
               lambda: recurrence(pv, qv, wv, lams, 0.5 - 0.25j, 1.0 + 0.75j))


def spectrum() -> None:
    for label, make in INSTANCES.items():
        c = make()
        for N in (1, 8, 38):
            record(f"finite_section({label}, {N})", lambda: finite_section(c, N))
            record(f"shooting_range({label}, {N})", lambda: shooting_range(c, N))
            for window in ((None, None), (-1.0, None), (None, 2.0), (-3.0, 3.0)):
                record(f"eigen_shooting({label}, {N}, {window})",
                       lambda: eigen_shooting(c, N, *window))
                record(f"eigen_pencil({label}, {N}, {window})",
                       lambda: eigen_pencil(c, N, *window))
                record(f"eigen_shooting({label}, {N}, {window}, guesses=pencil)",
                       lambda: eigen_shooting(c, N, *window,
                                              guesses=eigen_pencil(c, N, *window).eigenvalues))
    # w(2) = 1.2e-308 puts an eigenvalue near 1.67e308, just below the largest double.
    c = CoefficientSet(Sequence(0, np.ones(4)), Sequence(0, np.zeros(4)),
                       Sequence(1, np.array([1.0, 1.2e-308, -1.0])))
    record("shooting_range(w=[1,1.2e-308,-1], 3)", lambda: shooting_range(c, 3))
    for window in ((None, None), (0.0, None), (None, 0.0)):
        record(f"eigen_shooting(w=[1,1.2e-308,-1], 3, {window})",
               lambda: eigen_shooting(c, 3, *window))


def invalid_arguments() -> None:
    c = make_preset("random", length=12, rng_seed=4)
    u, v = Sequence(0, np.linspace(-1.0, 2.0, 12)), Sequence(0, np.cos(np.arange(12.0)))
    takes_N = {
        "finite_section": lambda N: finite_section(c, N),
        "eigen_pencil": lambda N: eigen_pencil(c, N),
        "eigen_shooting": lambda N: eigen_shooting(c, N),
        "shooting_range": lambda N: shooting_range(c, N),
        "solve_recurrence": lambda N: solution(
            solve_recurrence(c, 0.5, InitKind.VALUE_PAIR, 0.0, 1.0, N)),
        "bound_constants": lambda N: bound_constants(c, N),
        "greens_identity_residual": lambda N: greens_identity_residual(c.p, u, v, N),
    }
    for name, call in takes_N.items():
        for N in (2.5, np.float64(3), True, "3", 0, -1):
            record(f"{name}(N={N!r})", lambda: call(N))
    for label, call in {
        "wronskian(n=1.5)": lambda: wronskian_value(wronskian(c, u, v, 1.5)),
        "check_lemma1(n=1.5)": lambda: check_lemma1(c.p, u, 1.5, 3),
        "check_lemma2(m=1.5)": lambda: check_lemma2(c, u, 1.5, 3),
        "check_pointwise_bound(m=1.5)": lambda: check_pointwise_bound(c, u, 1.5, 3),
        "summation_by_parts_residual(j=1.5)": lambda: summation_by_parts_residual(u, v, 1.5, 3),
        "Sequence.at(1.5)": lambda: u.at(1.5),
    }.items():
        record(label, call)
    for name in PRESETS:
        record(f"make_preset({name!r}, length=4, rng_seed=-7)",
               lambda: make_preset(name, length=4, rng_seed=-7))


def snapshot() -> None:
    rng = np.random.default_rng(2015)
    campaigns()
    calculus(rng)
    space(rng)
    operators(rng)
    spectrum()
    invalid_arguments()


if __name__ == "__main__":
    snapshot()
