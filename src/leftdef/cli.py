"""Command-line interface: batch solves, norms, bounds, verification, spectra."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import spectrum as spec_mod
from .coeffs import PRESETS, Sequence, load_coefficients, make_preset
from .errors import LeftDefError
from .operators import (
    InitKind,
    apply_L,
    solve_recurrence,
    wronskian_constancy_report,
    wronskian_sequence,
)
from .space import bound_constants, h1_norm, l2_norm
from .verify import CAMPAIGNS, run_all, run_campaign

FMT = "%.17g"


def _num(x) -> str:
    return FMT % x


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
            params[key] = float(val)
    return name, params


def _coeffs_from_args(args):
    if getattr(args, "coeffs", None):
        return load_coefficients(Path(args.coeffs).read_text())
    if getattr(args, "preset", None):
        try:
            name, params = parse_preset(args.preset)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from exc
        _check_seed(args)
        if name not in PRESETS:
            raise SystemExit2(
                f"unknown preset {name!r}, choose from {', '.join(PRESETS)}")
        return make_preset(name, params, length=args.length, rng_seed=args.seed)
    raise SystemExit2("one of --coeffs or --preset is required")


def _parse_values(text: str) -> Sequence:
    return Sequence(0, np.array([complex(v) for v in text.split(",")]))


class SystemExit2(Exception):
    """Configuration error: exit status 2."""


def _check_seed(args):
    if args.seed < 0:
        raise SystemExit2(f"--seed must be >= 0, got {args.seed}")


def _emit(lines, args):
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _sequence_rows(seq: Sequence):
    rows = []
    complex_any = bool(np.any(seq.values.imag != 0.0))
    for i, v in enumerate(seq.values):
        n = seq.offset + i
        if complex_any:
            rows.append((n, (_num(v.real), _num(v.imag))))
        else:
            rows.append((n, (_num(v.real),)))
    return rows, complex_any


def _emit_sequence(seq: Sequence, args, value_name="u"):
    rows, complex_any = _sequence_rows(seq)
    if args.format == "json":
        payload = {
            "offset": seq.offset,
            value_name: [
                {"n": n, "value": list(vals) if complex_any else vals[0]}
                for n, vals in rows
            ],
        }
        _emit([json.dumps(payload)], args)
    else:
        header = "n,re,im" if complex_any else f"n,{value_name}"
        _emit([header] + [",".join([str(n)] + list(vals)) for n, vals in rows], args)


def _init_from_args(args):
    if args.pdu0 is not None:
        if args.u0 is not None:
            raise SystemExit2("give either --u0/--u1 or --u1/--pdu0, not both")
        if args.u1 is None:
            raise SystemExit2("--pdu0 needs --u1")
        return InitKind.VALUE_AND_QUASIDERIVATIVE, complex(args.u1), complex(args.pdu0)
    if args.u0 is None or args.u1 is None:
        raise SystemExit2("need --u0 and --u1 (or --u1 with --pdu0)")
    return InitKind.VALUE_PAIR, complex(args.u0), complex(args.u1)


def cmd_apply(args):
    coeffs = _coeffs_from_args(args)
    u = _parse_values(args.u)
    _emit_sequence(apply_L(coeffs, u), args, value_name="Lu")


def cmd_solve(args):
    coeffs = _coeffs_from_args(args)
    kind, a, b = _init_from_args(args)
    sol = solve_recurrence(coeffs, complex(args.lam), kind, a, b, args.n)
    _emit_sequence(sol.values, args)


def cmd_wronskian(args):
    coeffs = _coeffs_from_args(args)
    kind = InitKind.VALUE_PAIR
    phi = solve_recurrence(coeffs, complex(args.lam), kind,
                           complex(args.phi0), complex(args.phi1), args.n)
    theta = solve_recurrence(coeffs, complex(args.lam), kind,
                             complex(args.theta0), complex(args.theta1), args.n)
    w = wronskian_sequence(coeffs, phi.values, theta.values)
    rep = wronskian_constancy_report(coeffs, phi, theta)
    if args.format == "json":
        _emit([json.dumps({
            "wronskian": [{"n": w.offset + i, "value": [v.real, v.imag]}
                          for i, v in enumerate(w.values)],
            "constancy": {"max_drift": rep.lhs, "bound": rep.rhs, "holds": rep.holds},
        })], args)
    else:
        lines = ["n,re,im"]
        lines += [f"{w.offset + i},{_num(v.real)},{_num(v.imag)}"
                  for i, v in enumerate(w.values)]
        lines.append(f"constancy,{_num(rep.lhs)},{'holds' if rep.holds else 'FAILS'}")
        _emit(lines, args)


def cmd_norm(args):
    coeffs = _coeffs_from_args(args)
    u = _parse_values(args.u)
    h1, l2 = h1_norm(coeffs, u), l2_norm(u)
    if args.format == "json":
        _emit([json.dumps({"h1_norm": h1, "l2_norm": l2})], args)
    else:
        _emit(["quantity,value", f"h1_norm,{_num(h1)}", f"l2_norm,{_num(l2)}"], args)


def cmd_bounds(args):
    coeffs = _coeffs_from_args(args)
    bc = bound_constants(coeffs, args.n)
    if args.format == "json":
        _emit([json.dumps({"r": bc.r, "C_r": bc.C_r, "C_N": bc.C_N})], args)
    else:
        _emit(["quantity,value", f"r,{bc.r}", f"C_r,{_num(bc.C_r)}",
               f"C_N,{_num(bc.C_N)}"], args)


def cmd_verify(args):
    if args.cases < 0:
        raise SystemExit2(f"--cases must be >= 0, got {args.cases}")
    _check_seed(args)
    if args.suite == "all":
        results = run_all(args.seed, args.cases)
    else:
        results = [run_campaign(args.suite, args.seed, args.cases)]
    total_failures = sum(r.failures for r in results)
    if args.format == "json":
        _emit([json.dumps([{"suite": r.name, "cases": r.cases, "failures": r.failures,
                            "worst": r.worst} for r in results])], args)
    else:
        lines = ["suite,cases,failures,worst"]
        for r in results:
            lines.append(f"{r.name},{r.cases},{r.failures},{_num(r.worst)}")
        lines.append(f"total,{sum(r.cases for r in results)},{total_failures},")
        _emit(lines, args)
    return 0 if total_failures == 0 else 1


def cmd_spectrum(args):
    coeffs = _coeffs_from_args(args)
    results = []
    if args.method in ("shooting", "both"):
        results.append(spec_mod.eigen_shooting(
            coeffs, args.n, args.lambda_min, args.lambda_max, tol=args.tol))
    if args.method in ("pencil", "both"):
        # The shooting window (lambda_min, lambda_max], so that rows line up.
        pencil = spec_mod.eigen_pencil(coeffs, args.n)
        lam = np.array(pencil.eigenvalues)
        lo, hi = (-np.inf if args.lambda_min is None else args.lambda_min,
                  np.inf if args.lambda_max is None else args.lambda_max)
        inside = (lo < lam) & (lam <= hi)
        results.append(replace(pencil, eigenvalues=lam[inside].tolist(),
                               residuals=np.array(pencil.residuals)[inside].tolist()))
    if args.format == "json":
        _emit([json.dumps([{
            "method": r.method,
            "eigenvalues": r.eigenvalues,
            "residuals": r.residuals,
            "no_finite_count": r.no_finite_count,
        } for r in results])], args)
    else:
        header = "k," + ",".join(r.method for r in results)
        lines = [header]
        rows = max(len(r.eigenvalues) for r in results)
        for k in range(rows):
            cells = [str(k + 1)]
            for r in results:
                cells.append(_num(r.eigenvalues[k]) if k < len(r.eigenvalues) else "")
            lines.append(",".join(cells))
        _emit(lines, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftdef",
        description="Left-definite discrete Sturm-Liouville toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coeffs=True):
        if coeffs:
            p.add_argument("--coeffs", help="path to a coefficient JSON document")
            p.add_argument("--preset", help="inline preset, e.g. constant:p=1,q=0,w=1")
            p.add_argument("--length", type=int, default=64,
                           help="window length for inline presets")
            p.add_argument("--seed", type=int, default=0, help="preset RNG seed")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("apply", help="apply the operator L to a sequence")
    p.add_argument("--u", required=True, help="comma-separated values, offset 0")
    add_common(p)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("solve", help="solve the recurrence L u = lambda w u")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--u0", help="u(0) for the value-pair initialization")
    p.add_argument("--u1", help="u(1)")
    p.add_argument("--pdu0", help="(p Du)(0) for the quasi-derivative initialization")
    p.add_argument("--n", type=int, required=True, help="solve up to index n+1")
    add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("wronskian", help="Wronskian of two recurrence solutions")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--phi0", default="1")
    p.add_argument("--phi1", default="1")
    p.add_argument("--theta0", default="0")
    p.add_argument("--theta1", default="1")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_wronskian)

    p = sub.add_parser("norm", help="left-definite and l2 norms of a sequence")
    p.add_argument("--u", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("bounds", help="bound constants r, C_r, C_N")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run seeded verification campaigns")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(CAMPAIGNS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    add_common(p, coeffs=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="finite-section eigenvalues")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["shooting", "pencil", "both"], default="both")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
    except SystemExit2 as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except (LeftDefError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if status is None else status


if __name__ == "__main__":
    sys.exit(main())
