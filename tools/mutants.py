"""Statement-deletion gauge: does a test notice when a guard is gone?

    python tools/mutants.py

A mutant replaces one statement of `src/leftdef` with `pass` at its
indentation: every `raise` statement, and every expression statement whose
call is named `_require*`, `_check*` or `require`.  The statement's other
lines become blank, so line numbers stay.  Each mutant runs the tier-1 suite
(`python -m pytest -x -q -p no:cacheprovider`) in a temporary copy of `src`,
`tests` and `pyproject.toml`, never in the checkout; a failing suite, or a run
past 300 s, kills it.  The suite must first pass unmutated.

Prints each surviving mutant as `file:line: statement`, then
`N mutants, K killed, S survived`, and exits 1 if any survived.  Needs only
the stdlib; two mutants run at a time.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/leftdef"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT = 300
WORKERS = 2


def _guarded(node) -> bool:
    """Whether node is a raise or a call of a `_require*`, `_check*` or `require`."""
    if isinstance(node, ast.Raise):
        return True
    if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
        return False
    func = node.value.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name.startswith(("_require", "_check")) or name == "require"


def mutants():
    """(path, line, statement, mutated source) for every guard of the package."""
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        source = path.read_bytes()
        lines = source.splitlines(keepends=True)
        rel = path.relative_to(ROOT).as_posix()
        guards = [n for n in ast.walk(ast.parse(source)) if _guarded(n)]
        for node in sorted(guards, key=lambda n: (n.lineno, n.col_offset)):
            first, last = node.lineno - 1, node.end_lineno - 1
            body = lines[first][:node.col_offset] + b"pass" + lines[last][node.end_col_offset:]
            mutated = lines[:first] + [body] + [b"\n"] * (last - first) + lines[last + 1:]
            yield rel, node.lineno, ast.unparse(node), b"".join(mutated)


def _suite_passes(rel=None, mutated=None) -> bool:
    """Whether the tier-1 suite passes on a copy of the tree, with `rel` replaced."""
    with tempfile.TemporaryDirectory(prefix="leftdef-mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy2(ROOT / "pyproject.toml", tmp)
        if rel is not None:
            (tmp / rel).write_bytes(mutated)
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(PYTEST, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main() -> int:
    if not _suite_passes():
        print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
        return 2
    todo = list(mutants())
    with ThreadPoolExecutor(WORKERS) as pool:
        survived = list(pool.map(lambda m: _suite_passes(m[0], m[3]), todo))
    for (rel, line, statement, _), alive in zip(todo, survived):
        if alive:
            print(f"{rel}:{line}: {statement}")
    count = sum(survived)
    print(f"{len(todo)} mutants, {len(todo) - count} killed, {count} survived")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
