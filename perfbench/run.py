"""leftdef benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectrum-n32-both --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
The run starts fresh interpreters with ``src`` on PYTHONPATH, so it measures
the leftdef source tree next to this directory, not an installed copy.  With
``--trace 0`` it makes SETUPS set-ups (interpreter start, ``import leftdef``,
input generation, one warm-up command) and reports their median as
``setup_s``; the last of them goes on to the timed closed loop.  With
``--trace 1`` it runs one set-up and reports the per-layer metrics.

The last line printed is the JSON result; the lines before it give every
metric by name with its unit, and the run environment.  Results are
comparable only when the environment line matches apart from ``git_sha``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TIMEOUT_S = 170.0


def environment() -> dict:
    """What a result depends on besides the code: compare results only when equal."""
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool):
    """Start a worker; return (seconds until it was ready, its JSON summary).

    The worker reports when it finished set-up on the system-wide monotonic
    clock, so set-up time runs from just before the interpreter is started.
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.monotonic()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            raise WorkerError("worker timed out") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with status {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    return summary["ready"] - t0, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="leftdef benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leftdef" / "__init__.py").is_file():
        print(f"error: no leftdef source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    # SIGTERM unwinds through run_worker, which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + TIMEOUT_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    setups, attempted, failed, errors = [], 0, 0, []
    try:
        for _ in range(0 if args.trace else SETUPS - 1):
            setup_s, summary = run_worker(args, deadline, setup_only=True)
            setups.append(setup_s)
            attempted += summary["attempted"]
            failed += summary["failed"]
            errors += summary["errors"]
        setup_s, summary = run_worker(args, deadline, setup_only=False)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    attempted += summary["attempted"]
    failed += summary["failed"]
    errors += summary["errors"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("env " + json.dumps(environment()))
    for error in errors:
        print(f"FAILED {error}")
    n = summary["op_latencies"]
    if args.trace:
        metrics = {name: (value, units[name]) for name, value in summary["layers"].items()}
        for layer, share in summary["shares"].items():
            print(f"share {layer:<10} {100 * share:6.2f} % of traced command time")
    else:
        completed = summary["completed"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (summary["op_p50_s"], "s"),
            "ops_per_s": (completed / summary["op_busy_s"], "1/s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
        print(f"{'setup_s':<14} median of {len(setups)} set-ups: "
              + " ".join(f"{s:.4f}" for s in setups))
        print(f"{'op_p50_s':<14} over {n} commands")
        if "op_p90_s" in summary:
            beyond = n - int(0.9 * n)
            print(f"{'op_p90_s':<14} {summary['op_p90_s']:.6g} s  ({n} commands,"
                  f" about {beyond} beyond it)")
        else:
            print(f"{'op_p90_s':<14} not reported: {n} commands leave fewer than ten beyond it")
        if args.workload == "verify-all":
            print(f"{'cases_per_s':<14} {8000 * metrics['ops_per_s'][0]:.6g} 1/s"
                  "  (8 campaigns x 1000 cases per command)")
        print(f"{'failed_ratio':<14} {failed / attempted:.6g}  ({failed} of {attempted}"
              " commands, warm-ups included)")
    if list(metrics) != list(units):
        print(f"error: metrics {list(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
