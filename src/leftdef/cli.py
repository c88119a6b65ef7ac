"""Command-line interface: batch solves, norms, bounds, verification, spectra.

Each command states its result once, as a JSON document and as CSV rows, and
`_write` prints the form that ``--format`` asks for, to stdout or ``--out``.
CSV cells are ``%.17g``; JSON values are JSON numbers, with a complex entry
as ``[re, im]``.  Both read back to the same doubles.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import spectrum as spec_mod
from .coeffs import Sequence, check_preset, load_coefficients, make_preset
from .errors import DisagreementError, LeftDefError
from .operators import (
    InitKind,
    apply_L,
    solve_recurrence,
    wronskian_constancy_report,
    wronskian_sequence,
)
from .space import bound_constants, h1_norm, l2_norm
from .verify import CAMPAIGNS, run_all, run_campaign


def parse_preset(text: str):
    """Inline preset grammar: name:key=value,key=value,...

    Values are scalars, so the (lo, hi) pairs ``*_range`` of the random
    preset can only be given through a --coeffs document.
    """
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise ValueError(f"bad preset parameter {item!r}")
            if key.endswith("_range"):
                raise ValueError(f"{key} takes a (lo, hi) pair; give it in a --coeffs document")
            try:
                params[key] = float(val)
            except ValueError:
                raise ValueError(f"preset parameter {key!r} is not a number: {val!r}") from None
    return name, params


def _coeffs_from_args(args):
    if args.coeffs:
        for option in ("preset", "length", "seed"):
            if getattr(args, option) is not None:
                raise SystemExit2(f"--coeffs and --{option} exclude each other")
        return load_coefficients(Path(args.coeffs).read_text())
    if not args.preset:
        raise SystemExit2("one of --coeffs or --preset is required")
    length = 64 if args.length is None else args.length
    seed = 0 if args.seed is None else args.seed
    _check_seed(seed)
    try:
        name, params = parse_preset(args.preset)
        check_preset(name, params)
    except ValueError as exc:  # ValidationError is a ValueError
        raise SystemExit2(str(exc)) from exc
    return make_preset(name, params, length=length, rng_seed=seed)


class SystemExit2(Exception):
    """Configuration error: exit status 2."""


def _number(text: str, option: str) -> complex:
    """The complex value of `option`; a malformed one is a configuration error."""
    try:
        return complex(text)
    except ValueError:
        raise SystemExit2(f"{option} is not a number: {text!r}") from None


def _parse_values(text: str) -> Sequence:
    return Sequence(0, np.array([_number(v, "--u") for v in text.split(",")]))


def _check_seed(seed: int):
    if seed < 0:
        raise SystemExit2(f"--seed must be >= 0, got {seed}")


def _write(args, doc, header: str, rows):
    """Print ``json.dumps(doc())``, or the CSV line `header` and the lines ``rows()``.

    `doc` and `rows` are zero-argument callables, and only the one that
    ``--format`` asks for is called, so the other form is never built.  An
    item of ``rows()`` may hold several lines joined by newlines.
    """
    if args.format == "json":
        text = json.dumps(doc()) + "\n"
    else:
        text = "\n".join(itertools.chain([header], rows())) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _complex(seq: Sequence):
    """(n, re, im) for each entry of `seq`, as Python ints and floats."""
    return zip(range(seq.offset, seq.end), seq.values.real.tolist(), seq.values.imag.tolist())


def _table(offset: int, *columns) -> str:
    """The CSV lines ``n,<cell>,...`` for n = offset, offset + 1, ..., with
    cells ``%.17g`` from the equal-length float arrays `columns`, joined by
    newlines.  One ``%`` on a repeated row template formats every line at
    once: the bytes of an f-string per row in a fraction of the time."""
    k, rows = len(columns) + 1, len(columns[0])
    cells = [0] * (k * rows)
    cells[0::k] = range(offset, offset + rows)
    for j, column in enumerate(columns, 1):
        cells[j::k] = column.tolist()
    return "\n".join(["%d" + ",%.17g" * len(columns)] * rows) % tuple(cells)


def _write_sequence(args, seq: Sequence, name: str):
    """Write `seq` as rows `n,<name>` with JSON numbers or, when any entry is
    complex, as rows `n,re,im` with JSON pairs ``[re, im]``."""
    if np.any(seq.values.imag != 0.0):
        _write(args, lambda: {"offset": seq.offset,
                              name: [{"n": n, "value": [re, im]} for n, re, im in _complex(seq)]},
               "n,re,im", lambda: [_table(seq.offset, seq.values.real, seq.values.imag)])
    else:
        _write(args, lambda: {"offset": seq.offset,
                              name: [{"n": n, "value": v} for n, v in
                                     enumerate(seq.values.real.tolist(), seq.offset)]},
               f"n,{name}", lambda: [_table(seq.offset, seq.values.real)])


def _init_from_args(args):
    if args.pdu0 is not None:
        if args.u0 is not None:
            raise SystemExit2("give either --u0/--u1 or --u1/--pdu0, not both")
        if args.u1 is None:
            raise SystemExit2("--pdu0 needs --u1")
        return (InitKind.VALUE_AND_QUASIDERIVATIVE, _number(args.u1, "--u1"),
                _number(args.pdu0, "--pdu0"))
    if args.u0 is None or args.u1 is None:
        raise SystemExit2("need --u0 and --u1 (or --u1 with --pdu0)")
    return InitKind.VALUE_PAIR, _number(args.u0, "--u0"), _number(args.u1, "--u1")


def cmd_apply(args):
    coeffs = _coeffs_from_args(args)
    u = _parse_values(args.u)
    _write_sequence(args, apply_L(coeffs, u), "Lu")


def cmd_solve(args):
    coeffs = _coeffs_from_args(args)
    lam = _number(args.lam, "--lambda")
    kind, a, b = _init_from_args(args)
    sol = solve_recurrence(coeffs, lam, kind, a, b, args.n)
    _write_sequence(args, sol.values, "u")


def cmd_wronskian(args):
    coeffs = _coeffs_from_args(args)
    lam = _number(args.lam, "--lambda")
    phi0, phi1, theta0, theta1 = (_number(getattr(args, dest), f"--{dest}")
                                  for dest in ("phi0", "phi1", "theta0", "theta1"))
    kind = InitKind.VALUE_PAIR
    phi = solve_recurrence(coeffs, lam, kind, phi0, phi1, args.n)
    theta = solve_recurrence(coeffs, lam, kind, theta0, theta1, args.n)
    w = wronskian_sequence(coeffs, phi.values, theta.values)
    rep = wronskian_constancy_report(coeffs, phi, theta)

    def rows():
        return [_table(w.offset, w.values.real, w.values.imag),
                f"constancy,{rep.lhs:.17g},{'holds' if rep.holds else 'FAILS'}"]

    _write(args, lambda: {
        "wronskian": [{"n": n, "value": [re, im]} for n, re, im in _complex(w)],
        "constancy": {"max_drift": rep.lhs, "bound": rep.rhs, "holds": rep.holds},
    }, "n,re,im", rows)


def cmd_norm(args):
    coeffs = _coeffs_from_args(args)
    u = _parse_values(args.u)
    h1, l2 = h1_norm(coeffs, u), l2_norm(u)
    _write(args, lambda: {"h1_norm": h1, "l2_norm": l2},
           "quantity,value", lambda: [f"h1_norm,{h1:.17g}", f"l2_norm,{l2:.17g}"])


def cmd_bounds(args):
    coeffs = _coeffs_from_args(args)
    bc = bound_constants(coeffs, args.n)
    _write(args, lambda: {"r": bc.r, "C_r": bc.C_r, "C_N": bc.C_N},
           "quantity,value", lambda: [f"r,{bc.r}", f"C_r,{bc.C_r:.17g}", f"C_N,{bc.C_N:.17g}"])


def cmd_verify(args):
    if args.cases < 0:
        raise SystemExit2(f"--cases must be >= 0, got {args.cases}")
    _check_seed(args.seed)
    if args.suite == "all":
        results = run_all(args.seed, args.cases)
    else:
        results = [run_campaign(args.suite, args.seed, args.cases)]
    total_failures = sum(r.failures for r in results)

    def rows():
        yield from (f"{r.name},{r.cases},{r.failures},{r.worst:.17g}" for r in results)
        yield f"total,{sum(r.cases for r in results)},{total_failures},"

    _write(args, lambda: [{"suite": r.name, "cases": r.cases, "failures": r.failures,
                           "worst": r.worst} for r in results],
           "suite,cases,failures,worst", rows)
    return 0 if total_failures == 0 else 1


def _check_agreement(shooting, pencil, tol):
    """Equal-length columns agree elementwise to max(1e-8, tol) * max(1, |shooting|),
    else DisagreementError: shooting is only as close as its stop width tol.
    Columns of unequal length are not compared: an eigenvalue on a window end
    can fall on either side of it in either method."""
    s, p = np.array(shooting.eigenvalues), np.array(pencil.eigenvalues)
    if s.size != p.size:
        return
    bound = max(1e-8, tol)
    gap = np.abs(p - s) / np.maximum(1.0, np.abs(s))
    bad = np.flatnonzero(gap > bound)
    if bad.size:
        k = bad[0]
        raise DisagreementError(
            f"row {k + 1}: pencil {p[k]:.17g} and shooting {s[k]:.17g} differ by "
            f"{gap[k]:.3g} relative to max(1, |shooting|), more than {bound:.3g}")


def cmd_spectrum(args):
    coeffs = _coeffs_from_args(args)
    spec_mod._check_tol(args.tol)  # also under --method pencil, which does not use it
    section = (coeffs, args.n, args.lambda_min, args.lambda_max)
    shooting = pencil = None
    if args.method in ("pencil", "both"):
        pencil = spec_mod.eigen_pencil(*section)
    if args.method in ("shooting", "both"):
        # The pencil's eigenvalues are certified by counts, never trusted: an
        # index whose counts confirm its guess starts from a bracket narrower
        # than tol, and the others from the window.
        shooting = spec_mod.eigen_shooting(
            *section, tol=args.tol, guesses=() if pencil is None else pencil.eigenvalues)
    if shooting is not None and pencil is not None:
        _check_agreement(shooting, pencil, args.tol)
    results = [r for r in (shooting, pencil) if r is not None]

    def rows():
        # a method that found fewer eigenvalues leaves its cells empty
        columns = itertools.zip_longest(*(r.eigenvalues for r in results))
        for k, row in enumerate(columns, 1):
            yield ",".join([str(k)] + ["" if v is None else f"{v:.17g}" for v in row])

    _write(args, lambda: [{
        "method": r.method,
        "eigenvalues": r.eigenvalues,
        "residuals": r.residuals,
        "no_finite_count": r.no_finite_count,
    } for r in results], "k," + ",".join(r.method for r in results), rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="leftdef",
        description="Left-definite discrete Sturm-Liouville toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coeffs=True):
        if coeffs:
            p.add_argument("--coeffs", help="path to a coefficient JSON document")
            p.add_argument("--preset", help="inline preset, e.g. constant:p=1,q=0,w=1")
            p.add_argument("--length", type=int,
                           help="window length for inline presets (default 64)")
            p.add_argument("--seed", type=int, help="preset RNG seed (default 0)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("apply", help="apply the operator L to a sequence")
    p.add_argument("--u", required=True, help="comma-separated values, offset 0")
    add_common(p)

    p = sub.add_parser("solve", help="solve the recurrence L u = lambda w u")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--u0", help="u(0) for the value-pair initialization")
    p.add_argument("--u1", help="u(1)")
    p.add_argument("--pdu0", help="(p Du)(0) for the quasi-derivative initialization")
    p.add_argument("--n", type=int, required=True, help="solve up to index n+1")
    add_common(p)

    p = sub.add_parser("wronskian", help="Wronskian of two recurrence solutions")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--phi0", default="1")
    p.add_argument("--phi1", default="1")
    p.add_argument("--theta0", default="0")
    p.add_argument("--theta1", default="1")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("norm", help="left-definite and l2 norms of a sequence")
    p.add_argument("--u", required=True)
    add_common(p)

    p = sub.add_parser("bounds", help="bound constants r, C_r, C_N")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run seeded verification campaigns")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    add_common(p, coeffs=False)

    p = sub.add_parser("spectrum", help="finite-section eigenvalues")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["shooting", "pencil", "both"], default="both")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The command is looked up by name on each call, so the cached parser
    # holds no function that a wrapper or a test double could replace.
    fn = globals()[f"cmd_{args.command}"]
    try:
        status = fn(args)
    except SystemExit2 as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except (LeftDefError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if status is None else status


if __name__ == "__main__":
    sys.exit(main())
