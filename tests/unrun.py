"""The statements of src/ccopkit that the tier-1 tests never run.

Runs pytest in this process under a line tracer (sys.settrace and
threading.settrace) that records only frames of src/ccopkit, then prints,
module by module, every statement that no test executed: one line each,
with its line number and its first line of source.  Docstrings, imports,
`def` and `class` statements, `global`/`nonlocal` and the bare `try:` that
holds a body are not listed, since they either run at import or hold no
code of their own.  A compound statement (if, for, while, with) counts as
run when its header ran; its body is judged statement by statement.

    python tests/unrun.py                  # the tier-1 tests but Hypothesis's
    python tests/unrun.py tests/test_cli.py -k load   # any pytest arguments

By default the tests marked `hypothesis` (every @given test) are left out:
their draws change with Hypothesis's version, so a statement that only
they reach would come and go with it, and a gate on an empty list must not.

The standard library only; the traced run takes two to five times as long
as a plain one.  It exits with pytest's exit code, so that a failing test is not
mistaken for a list.  pytest does not collect this file (like mutants.py).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ccopkit"

_SKIPPED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Global, ast.Nonlocal, ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))
_BODIES = ("body", "orelse", "handlers", "finalbody", "cases")
_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree: ast.Module):
    """(statement, its own lines) of every statement worth listing, in
    source order; its own lines run from its first to its last, less those
    of the statements nested in it."""
    out = []

    def walk(node):
        for name in _BODIES:
            for k, child in enumerate(getattr(node, name, None) or []):
                docstring = (k == 0 and name == "body" and isinstance(node, _DOCUMENTED)
                             and isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if isinstance(child, ast.stmt) and not docstring and not isinstance(child, _SKIPPED):
                    nested = {line for inner in _BODIES for grand in getattr(child, inner, None) or []
                              for line in range(grand.lineno, grand.end_lineno + 1)}
                    out.append((child, set(range(child.lineno, child.end_lineno + 1)) - nested))
                walk(child)  # a statement, an except clause or a match case

    walk(tree)
    return sorted(out, key=lambda item: item[0].lineno)


def _trace(run):
    """run() under a tracer of the frames of SRC; returns (its result, the
    executed lines per file)."""
    hit: dict[str, set[int]] = {}
    ours: dict = {}  # co_filename -> its set in hit, or None for other files
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines = ours.get(frame.f_code.co_filename)
            if lines is not None:
                lines.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            # at interpreter shutdown a frame's co_filename can be None
            path = os.path.abspath(name) if isinstance(name, str) else ""
            ours[name] = hit.setdefault(path, set()) if path.startswith(prefix) else None
        if ours[name] is None:
            return None
        ours[name].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hit


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # the ccopkit of this tree, as PYTHONPATH=src gives it
    os.chdir(ROOT)
    import pytest

    args = argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "-m", "not hypothesis"]
    code, hit = _trace(lambda: pytest.main(args))
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hit.get(str(path), set())
        missed = [(node, own) for node, own in _statements(ast.parse(source)) if not own & ran]
        if not missed:
            continue
        print(f"\n{path.relative_to(ROOT)}: {len(missed)} statements never run")
        for node, _ in missed:
            print(f"  {node.lineno:4d}  {lines[node.lineno - 1].strip()}")
        total += len(missed)
    print(f"\n{total} statements of src/ccopkit never run (pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
