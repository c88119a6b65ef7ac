"""One benchmark process: set up a workload, then run it as a closed loop.

Started by run.py with leftdef's ``src`` directory on PYTHONPATH.  Set-up is
``import leftdef``, input generation and one checked warm-up command; unless
``--setup-only``, the worker then drives ``leftdef.cli.main(argv)`` in this
process, one command after another, for ``--seconds`` seconds.  It prints one
line, a JSON summary for run.py that includes when set-up ended on the
``time.monotonic`` clock.

With ``--trace 1`` every command runs twice, once plain and once with the
tracer's wrappers installed, alternating which goes first; the traced runs
give the per-layer metrics and the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_command(cli, command):
    """Run one CLI command in-process: (exit status, output, stderr, seconds)."""
    if command.out_path:
        command.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(command.argv)
        except SystemExit as exc:      # argparse rejects a command line
            status = exc.code
        except Exception:              # an escaped exception is a failed command
            status = "exception: " + traceback.format_exc(limit=1).splitlines()[-1]
    elapsed = time.perf_counter() - t0
    if command.out_path:
        text = command.out_path.read_text() if command.out_path.exists() else ""
    else:
        text = out.getvalue()
    return status, text, err.getvalue(), elapsed


class Loop:
    """Closed-loop client state: latencies, attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    def run(self, command) -> float:
        status, text, stderr, elapsed = run_command(self.cli, command)
        self.attempted += 1
        try:
            error = command.check(status, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            self.errors.append(f"{command.argv[0]}: {error} {stderr.strip()[:200]}")
        self.latencies.append(elapsed)
        self.output_bytes += len(text)
        return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import leftdef.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: leftdef imported from {cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    workdir = ROOT / "perfbench" / "out" / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(cli)
        loop.run(workload.warmup)
        ready = time.monotonic()
        summary = {}
        if not args.setup_only:
            summary = timed(loop, workload, args)
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary.update(ready=ready, attempted=loop.attempted, failed=len(loop.errors),
                       errors=loop.errors[:5])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary), flush=True)
    return 0


def timed(loop, workload, args) -> dict:
    commands = workload.commands
    setup_errors = len(loop.errors)
    loop.latencies.clear()
    loop.output_bytes = 0
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        pairs = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        command = commands[i % len(commands)]
        if tracer is None:
            loop.run(command)
        else:
            tracer.command = i
            plain_first = i % 2 == 0
            times = {}
            for traced in ((False, True) if plain_first else (True, False)):
                if traced:
                    tracer.install()
                try:
                    times[traced] = loop.run(command)
                finally:
                    if traced:
                        tracer.uninstall()
            pairs.append(times[True] / times[False])
        i += 1

    lat = loop.latencies
    summary = {"commands": i, "op_latencies": len(lat),
               "op_p50_s": statistics.median(lat),
               "op_busy_s": sum(lat),
               "completed": len(lat) - (len(loop.errors) - setup_errors)}
    if len(lat) >= 100:   # p90 only with at least ten samples beyond it
        summary["op_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    if tracer is not None:
        layers, summary["shares"] = tracer.summary(commands=i)
        layers["cli.output_bytes"] = loop.output_bytes / len(lat)
        layers["trace.overhead_ratio"] = statistics.median(pairs) - 1.0
        layers["trace.spans"] = len(tracer.start) / i
        summary["layers"] = layers
        out = ROOT / "perfbench" / "out"
        tracer.save(out / f"spans-{args.workload}.npz")
    return summary


if __name__ == "__main__":
    sys.exit(main())
