"""Record what `leftdef` prints for a fixed set of commands, for diffing two trees.

    PYTHONPATH=<tree>/src python tools/cli_snapshot.py > snapshot.txt

Each command runs in-process through `leftdef.cli.main`, once per format and
once more per format with `--out`.  One line per run gives the exit status,
the length and SHA-256 of stdout and of the `--out` file with the text itself
when it is shorter than 2 KB, and stderr.  Run it on two source trees and `diff` the
snapshots: equal lines mean equal exit status and equal bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from leftdef.cli import main
from leftdef.verify import CAMPAIGNS

CONST = ("--preset", "constant:p=1,q=0,w=1")
RANDOM = ("--preset", "random", "--seed", "3", "--length", "20")


def commands(tmp: Path):
    coeffs = tmp / "coeffs.json"
    coeffs.write_text('{"p": [1,1,1,1], "q": [0,1,0,0], "w": [1,1,1]}')
    zero_w = tmp / "zero-w.json"
    zero_w.write_text(json.dumps({"preset": {"name": "periodic",
                                             "params": {"w": [1, 0, -2]}, "length": 10}}))
    tiny_w = tmp / "tiny-w.json"
    tiny_w.write_text(json.dumps({"p": [1] * 8, "q": [0] * 8,
                                  "w": [1, -1, 1e-16, 2, -0.5, 1e-16, 1]}))
    wide_range = tmp / "wide-range.json"
    wide_range.write_text(json.dumps({"preset": {"name": "random",
                                                 "params": {"w_range": [-1e308, 1e308]}}}))
    reversed_range = tmp / "reversed-range.json"
    reversed_range.write_text(json.dumps({"preset": {"name": "random",
                                                     "params": {"p_range": [1, 0.5]}}}))
    long_window = ("--preset", "periodic:p=1,q=0.5,w=1", "--length", "2000")
    yield from [
        # the README commands
        ("solve", *CONST, "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "5"),
        ("apply", *CONST, "--u", "0,1,4,9,16"),
        ("wronskian", *CONST, "--lambda", "0", "--phi0", "1", "--phi1", "1",
         "--theta0", "0", "--theta1", "1", "--n", "8"),
        ("norm", "--preset", "constant:p=1,q=1,w=1", "--length", "10",
         "--u", "0,0,0,0,1,0,0,0,0,0"),
        ("bounds", "--coeffs", str(coeffs), "--n", "1"),
        ("spectrum", *CONST, "--n", "8", "--method", "both"),
        ("verify", "--suite", "all", "--seed", "42", "--cases", "1000"),
        # real and complex solve and apply
        ("solve", *RANDOM, "--lambda", "1.5", "--u0", "1", "--u1", "0.5", "--n", "10"),
        ("solve", *RANDOM, "--lambda", "1.5+0.5j", "--u0", "1", "--u1", "0.5j", "--n", "10"),
        ("solve", *RANDOM, "--lambda", "-2", "--u1", "1", "--pdu0", "3", "--n", "12"),
        ("solve", *long_window, "--lambda", "0.7", "--u0", "0", "--u1", "1", "--n", "1990"),
        # a real lambda with complex data takes the complex loop; the zero
        # solution at a lambda that makes c(n) negative prints no -0
        ("solve", *RANDOM, "--lambda", "1.5", "--u0", "1", "--u1", "0.5j", "--n", "10"),
        ("solve", *RANDOM, "--lambda", "50", "--u0", "0", "--u1", "0", "--n", "10"),
        ("solve", *long_window, "--lambda", "0.7", "--u0", "0.5", "--u1", "1j", "--n", "1990"),
        ("apply", *RANDOM, "--u", "1+2j,0,3-1j,4,5j,-0.0"),
        ("apply", *RANDOM, "--u", "0.1,-2.5,1e-300,7,1e300,3"),
        ("wronskian", *RANDOM, "--lambda", "0.3-1j", "--n", "15"),
        ("wronskian", *long_window, "--lambda", "0.7", "--n", "1990"),
        ("bounds", *long_window, "--n", "1500"),
        # spectrum windows, methods and zero weights
        ("spectrum", *CONST, "--n", "4", "--lambda-min", "2"),
        ("spectrum", *CONST, "--n", "4", "--lambda-max", "1.5"),
        ("spectrum", *CONST, "--n", "4", "--lambda-min", "0.5", "--lambda-max", "3"),
        ("spectrum", *CONST, "--n", "4", "--lambda-min", "5"),
        ("spectrum", *CONST, "--n", "4", "--method", "pencil", "--lambda-max", "-1"),
        ("spectrum", *RANDOM, "--n", "12", "--method", "shooting"),
        ("spectrum", *RANDOM, "--n", "12", "--method", "both", "--lambda-min", "-3"),
        ("spectrum", "--coeffs", str(zero_w), "--n", "8", "--method", "both"),
        ("spectrum", "--preset", "constant:w=0", "--n", "4", "--length", "8"),
        # verify: every suite alone and all together
        *(("verify", "--suite", name, "--seed", "7", "--cases", "40")
          for name in sorted(CAMPAIGNS)),
        ("verify", "--suite", "all", "--seed", "3", "--cases", "2"),
        # errors
        ("solve", *CONST, "--lambda", "abc", "--u0", "0", "--u1", "1", "--n", "3"),
        ("spectrum", "--preset", "constant:p=-1", "--n", "3"),
        ("spectrum", "--coeffs", str(tiny_w), "--n", "7", "--method", "both"),
        # ROADMAP item 7: the pencil alone prints wrong rows 1-5 and exits 0
        ("spectrum", "--coeffs", str(tiny_w), "--n", "7", "--method", "pencil"),
        ("spectrum", "--coeffs", str(wide_range), "--n", "4"),
        ("spectrum", "--coeffs", str(reversed_range), "--n", "4"),
        ("verify", "--seed", "-1"),
    ]


def digest(data: bytes) -> str:
    text = data.decode() if len(data) < 2048 else ""
    return f"{len(data)} {hashlib.sha256(data).hexdigest()[:16]} {text!r}"


def snapshot() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in commands(tmp):
            for fmt in ("csv", "json"):
                for out in (None, tmp / "out"):
                    full = [*argv, "--format", fmt] + (["--out", str(out)] if out else [])
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        status = main(full)
                    written = b""
                    if out and out.exists():
                        written = out.read_bytes()
                        out.unlink()
                    shown = " ".join(a.replace(str(tmp), "<tmp>") for a in full)
                    print(f"{shown} | status {status} | stdout "
                          f"{digest(stdout.getvalue().encode())} | out {digest(written)} | "
                          f"stderr {stderr.getvalue()!r}")


if __name__ == "__main__":
    snapshot()
