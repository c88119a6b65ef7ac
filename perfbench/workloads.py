"""Workload inputs, CLI commands and output checks for the leftdef benchmark.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written into
the run's work directory; leftdef sees only those files and the command
lines.  Each command carries a check that recomputes what the README promises
from the benchmark's own copy of the coefficients, so a wrong answer counts as
a failed operation.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CAMPAIGNS = ("product-rule", "summation-by-parts", "greens-identity",
             "wronskian-constancy", "solver-consistency", "lemma1", "lemma2",
             "pointwise-bound")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its result.

    ``check(status, text)`` returns None when the output is correct and a
    one-line reason otherwise; ``text`` is what the command printed, or the
    content of ``out_path`` for commands that write through ``--out``.
    """

    argv: list
    check: Callable[[int, str], str | None]
    out_path: Path | None = None


@dataclass(frozen=True)
class Workload:
    commands: list       # the timed phase cycles through these in order
    warmup: Command      # run once during set-up


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_triple(path: Path, p, q, w) -> Path:
    path.write_text(json.dumps({"p": p.tolist(), "q": q.tolist(), "w": w.tolist()}))
    return path


# -- spectrum ---------------------------------------------------------------

def _spectrum_check(p, q, w, N, methods):
    """Exit 0, Sylvester inertia, shooting == pencil to 1e-8, pencil residuals.

    Inertia: L is positive definite, so the pencil has as many positive /
    negative / infinite eigenvalues as w(1..N) has entries > 0 / < 0 / = 0.
    The residual bound is the one acceptance criterion 9 applies.
    """
    wN = w[:N]
    npos, nneg, nzero = int(np.sum(wN > 0)), int(np.sum(wN < 0)), int(np.sum(wN == 0))
    pmax, wmax = float(np.max(p)), float(np.max(np.abs(w)))

    def check(status, out):
        if status != 0:
            return f"exit status {status}"
        results = {r["method"]: r for r in json.loads(out)}
        if sorted(results) != sorted(methods):
            return f"methods {sorted(results)} != {sorted(methods)}"
        for method, r in results.items():
            ev = np.asarray(r["eigenvalues"], dtype=float)
            if np.any(np.diff(ev) < 0):
                return f"{method}: eigenvalues not sorted"
            inertia = (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
            if inertia != (npos, nneg):
                return f"{method}: inertia {inertia} != w signs {(npos, nneg)}"
        if "pencil" in results:
            r = results["pencil"]
            if r["no_finite_count"] != nzero:
                return f"pencil: no_finite_count {r['no_finite_count']} != {nzero}"
            ev = np.asarray(r["eigenvalues"], dtype=float)
            scale = max(1.0, 4 * pmax + wmax * float(np.max(np.abs(ev), initial=0.0)))
            worst = max(r["residuals"], default=0.0)
            if len(r["residuals"]) != ev.size or worst > 1e-8 * scale:
                return f"pencil: residual {worst:.3g} above {1e-8 * scale:.3g}"
        if len(results) == 2:
            a = np.asarray(results["shooting"]["eigenvalues"])
            b = np.asarray(results["pencil"]["eigenvalues"])
            gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
            if gap.size and gap.max() > 1e-8:
                return f"shooting and pencil differ by {gap.max():.3g} relative"
        return None

    return check


def _spectrum_workload(workdir: Path, instances, N, method) -> Workload:
    commands = []
    for k, (p, q, w) in enumerate(instances):
        path = _write_triple(workdir / f"coeffs-{k}.json", p, q, w)
        methods = ("shooting", "pencil") if method == "both" else (method,)
        argv = ["spectrum", "--coeffs", str(path), "--n", str(N),
                "--method", method, "--format", "json"]
        commands.append(Command(argv, _spectrum_check(p, q, w, N, methods)))
    return Workload(commands, commands[0])


def spectrum_n32_both(seed: int, workdir: Path) -> Workload:
    """The acceptance-criterion-9 family: 100 indefinite weights at N=32."""
    rng = np.random.default_rng(seed)
    N = 32
    instances = []
    for _ in range(100):
        signs = rng.choice([-1.0, 1.0], N + 1)
        signs[0], signs[1] = 1.0, -1.0
        instances.append((rng.uniform(0.5, 2.0, N + 1), rng.uniform(0.0, 1.0, N + 1),
                          signs * rng.uniform(0.5, 5.0, N + 1)))
    return _spectrum_workload(workdir, instances, N, "both")


def spectrum_n512_pencil(seed: int, workdir: Path) -> Workload:
    """20 draws from the ``random`` preset's ranges at N=512 (the dense cap)."""
    rng = np.random.default_rng(seed)
    N = 512
    instances = [(rng.uniform(0.1, 10.0, N + 1), rng.uniform(0.0, 5.0, N + 1),
                  rng.uniform(-5.0, 5.0, N + 1)) for _ in range(20)]
    return _spectrum_workload(workdir, instances, N, "pencil")


# -- verify -----------------------------------------------------------------

def _verify_check(cases):
    def check(status, out):
        if status != 0:
            return f"exit status {status}"
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        names = [r[0] for r in rows[:-1]]
        if names != list(CAMPAIGNS):
            return f"campaigns {names}"
        for name, n, failures, _ in rows[:-1]:
            if int(n) != cases or int(failures) != 0:
                return f"{name}: {failures} failures in {n} cases"
        if rows[-1][:3] != ["total", str(cases * len(CAMPAIGNS)), "0"]:
            return f"total row {rows[-1]}"
        return None

    return check


def verify_all(seed: int, workdir: Path) -> Workload:
    """``verify --suite all --cases 1000`` over four campaign seeds."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31, 4)

    def command(s, cases):
        argv = ["verify", "--suite", "all", "--seed", str(s), "--cases", str(cases)]
        return Command(argv, _verify_check(cases))

    # The warm-up runs every campaign on a few cases: the same code paths at
    # a hundredth of the cost, so set-up time tracks imports and lazy set-up.
    return Workload([command(s, 1000) for s in seeds], command(seeds[0], 10))


# -- long window ------------------------------------------------------------

LONG = 100_000


def _read_rows(text: str, skip_footer=0):
    lines = text.splitlines()
    body = lines[1:len(lines) - skip_footer]
    return lines[0], np.loadtxt(io.StringIO("\n".join(body)), delimiter=",",
                                ndmin=2), lines[len(lines) - skip_footer:]


def _solve_check(p, q, w, lam, u0, u1, N):
    """Rows n = 0..N+1, the given initial data, and the README apply_L contract."""

    def check(status, out):
        if status != 0:
            return f"exit status {status}"
        header, rows, _ = _read_rows(out)
        if header != "n,u" or rows.shape != (N + 2, 2):
            return f"solve output {header!r} with shape {rows.shape}"
        u = rows[:, 1]
        if u[0] != u0 or u[1] != u1:
            return "solve output does not start with the initial data"
        pdu = p[:N + 1] * np.diff(u)
        Lu = -np.diff(pdu) + q[1:N + 1] * u[1:-1]
        rhs = lam * w[:N] * u[1:-1]
        scale = np.maximum.reduce([np.ones(N), np.abs(pdu[1:]), np.abs(pdu[:-1]),
                                   np.abs(q[1:N + 1] * u[1:-1]), np.abs(rhs)])
        ratio = float(np.max(np.abs(Lu - rhs) / (1e-10 * scale)))
        return None if ratio <= 1.0 else f"apply_L residual {ratio:.3g} x contract"

    return check


def _wronskian_check(p, phi, theta, N):
    """W(n) = p(0)(phi(0) theta(1) - phi(1) theta(0)) for n = 0..N to 1e-9."""
    exact = p[0] * (phi[0] * theta[1] - phi[1] * theta[0])

    def check(status, out):
        if status != 0:
            return f"exit status {status}"
        header, rows, footer = _read_rows(out, skip_footer=1)
        if header != "n,re,im" or rows.shape != (N + 1, 3):
            return f"wronskian output {header!r} with shape {rows.shape}"
        drift = float(np.max(np.hypot(rows[:, 1] - exact, rows[:, 2])))
        if drift > 1e-9 * max(1.0, abs(exact)):
            return f"Wronskian drift {drift:.3g} from {exact:.6g}"
        if not footer or not footer[0].endswith(",holds"):
            return f"constancy report {footer}"
        return None

    return check


def _bounds_check(p, q, n):
    """r = n (q > 0 everywhere), C_r and C_N from their definitions to 1e-12."""
    C_r = float(np.sqrt(np.sum(1.0 / p[1:n + 1])))
    C_N = C_r + float(np.sum(q[1:n + 1])) ** -0.5

    def check(status, out):
        if status != 0:
            return f"exit status {status}"
        got = dict(line.split(",") for line in out.strip().splitlines()[1:])
        if int(got["r"]) != n:
            return f"r={got['r']} != {n}"
        for name, want in (("C_r", C_r), ("C_N", C_N)):
            if abs(float(got[name]) - want) > 1e-12 * want:
                return f"{name}={got[name]} != {want!r}"
        return None

    return check


def _periodic_preset(rng):
    """A period-2 preset and a lambda inside one of its stability bands.

    Inside a band the monodromy over one period has |trace| < 2, so every
    solution stays bounded over the whole window and nothing overflows.
    """
    pc, qc, wc = rng.uniform(0.5, 2.0, 2), rng.uniform(0.1, 1.0, 2), rng.uniform(0.5, 2.0, 2)
    lam_max = (4 * pc.max() + qc.max()) / wc.min()
    while True:
        lam = float(rng.uniform(0.0, lam_max))
        M = np.eye(2)
        for n in (1, 2):  # transfer (u(n-1), u(n)) -> (u(n), u(n+1))
            a = pc[n % 2] + pc[(n - 1) % 2] + qc[n % 2] - lam * wc[n % 2]
            M = np.array([[0.0, 1.0], [-pc[(n - 1) % 2] / pc[n % 2], a / pc[n % 2]]]) @ M
        if abs(np.trace(M)) < 1.8:
            break
    params = {"p": pc.tolist(), "q": qc.tolist(), "w": wc.tolist()}
    idx = np.arange(LONG + 1)
    return ("periodic", params, pc[idx[:-1] % 2], qc[idx[:-1] % 2], wc[idx[1:] % 2], lam)


def _constant_preset(rng):
    """A constant preset; lam w in (q, 4p + q) is the band of bounded solutions."""
    p, q = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
    w = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    lam = (q + rng.uniform(0.1, 0.9) * 4 * p) / w
    params = {"p": p, "q": q, "w": w}
    return ("constant", params, np.full(LONG, p), np.full(LONG, q), np.full(LONG, w), lam)


def long_window(seed: int, workdir: Path) -> Workload:
    """``bounds``, ``solve`` and ``wronskian`` on six length-1e5 presets via --out."""
    rng = np.random.default_rng(seed)
    N = LONG - 1
    out_path = workdir / "out.csv"
    commands = []
    for k in range(6):
        name, params, p, q, w, lam = (_constant_preset if k % 2 else _periodic_preset)(rng)
        doc = workdir / f"preset-{k}.json"
        doc.write_text(json.dumps({"preset": {"name": name, "params": params,
                                              "length": LONG}}))
        common = ["--coeffs", str(doc), "--out", str(out_path)]
        n = int(rng.integers(1, LONG // 2))
        commands.append(Command(["bounds", "--n", str(n), *common],
                                _bounds_check(p, q, n), out_path))
        u0, u1 = rng.uniform(-1.0, 1.0, 2)
        commands.append(Command(
            ["solve", f"--lambda={_fmt(lam)}", f"--u0={_fmt(u0)}", f"--u1={_fmt(u1)}",
             "--n", str(N), *common],
            _solve_check(p, q, w, lam, u0, u1, N), out_path))
        while True:
            phi, theta = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
            if abs(phi[0] * theta[1] - phi[1] * theta[0]) > 0.25:
                break
        commands.append(Command(
            ["wronskian", f"--lambda={_fmt(lam)}", f"--phi0={_fmt(phi[0])}",
             f"--phi1={_fmt(phi[1])}", f"--theta0={_fmt(theta[0])}",
             f"--theta1={_fmt(theta[1])}", "--n", str(N), *common],
            _wronskian_check(p, phi, theta, N), out_path))
    return Workload(commands, commands[0])


WORKLOADS = {
    "spectrum-n32-both": spectrum_n32_both,
    "spectrum-n512-pencil": spectrum_n512_pencil,
    "verify-all": verify_all,
    "long-window": long_window,
}
