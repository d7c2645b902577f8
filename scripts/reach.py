#!/usr/bin/env python3
"""The functions of ``src/cocycle`` that no digest, benchmark or acceptance run reaches.

Traces every Python call with ``sys.setprofile`` while it runs

* the commands of ``scripts/cli_digest.py``, except those on the N = 1000 walks;
* one seed-1 job of each ``perfbench`` workload, with its output check;
* ``tests/test_acceptance.py``, in-process through ``pytest.main``;

then prints one line per ``def`` of ``src/cocycle`` (methods and nested
functions included) that never started: its file and line, its qualified
name and its line count, and a last line with the totals.  A method whose
body only raises ``NotImplementedError`` and which every subclass in its
module overrides (the abstract ``HopfSystem`` stubs) is marked ``[stub]``:
it is an interface, not dead code.

    python3 scripts/reach.py
"""

import ast
import contextlib
import io
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cocycle"
WORKLOADS = ("certify", "calculus", "extend")


def _is_stub(node) -> bool:
    """The body is (a docstring and) ``raise NotImplementedError``."""
    body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc
    return getattr(exc, "id", None) == "NotImplementedError" or getattr(
        getattr(exc, "func", None), "id", None) == "NotImplementedError"


def functions(path: pathlib.Path) -> list:
    """``(first line, last line, qualified name, stub)`` of every def in one module.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    tree = ast.parse(path.read_text())
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    methods = {c.name: {n.name for n in c.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
               for c in classes}
    subclasses = {c.name: [s.name for s in classes if any(getattr(b, "id", None) == c.name for b in s.bases)]
                  for c in classes}
    out = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                subs = subclasses.get(owner, [])
                stub = _is_stub(child) and bool(subs) and all(child.name in methods[s] for s in subs)
                out.append((first, child.end_lineno, prefix + child.name, stub))
                visit(child, prefix + child.name + ".", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", child.name)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return out


def run_digest_commands():
    sys.path.insert(0, str(ROOT / "scripts"))
    import cli_digest
    from cocycle.cli import main as cli_main

    with tempfile.TemporaryDirectory() as work:
        for label, argv in cli_digest.commands(ROOT, pathlib.Path(work)):
            if "{walk1000}" not in label:
                cli_digest.run(cli_main, argv)


def run_benchmark_jobs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks
    import inputs
    import jobs

    checker = checks.Checker(ROOT)
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            jobs.build_tables(workload)
            job_dir = pathlib.Path(work) / workload
            files = inputs.make(workload, 1, 0, job_dir)
            jobs.save(jobs.JOBS[workload](files, job_dir), job_dir)
            checker.check(workload, job_dir, files)


def run_acceptance():
    import pytest

    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        raise SystemExit(f"tests/test_acceptance.py failed:\n{out.getvalue()[-3000:]}")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_digest_commands()
        run_benchmark_jobs()
        run_acceptance()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    started = {(code.co_filename, code.co_firstlineno) for code in seen}

    total = unreached = lines = stubs = 0
    for path in sorted(SRC.glob("*.py")):
        for first, last, name, stub in functions(path):
            total += 1
            if (str(path), first) in started:
                continue
            unreached += 1
            lines += last - first + 1
            stubs += stub
            print(f"{path.relative_to(ROOT)}:{first} {name} {last - first + 1}{' [stub]' if stub else ''}")
    print(f"unreached: {unreached} of {total} defs, {lines} lines; {stubs} of them [stub]")


if __name__ == "__main__":
    main()
