#!/usr/bin/env python3
"""Digests of the `cocycle` command's output over a fixed set of commands.

Prints one line per command: the sha256 of its standard output, of its
standard error, its exit code, then the command with its input files named
by placeholders.  Two checkouts print the same lines exactly when every
command gives the same bytes and codes, so a byte-identity claim is the empty
diff of two runs:

    python3 scripts/cli_digest.py > after.txt
    python3 scripts/cli_digest.py --root ../parent > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/`` and ``tests/golden/`` are used
(default: the one holding this script).  The commands are every golden run
of ``tests/test_cli.py``; ``signature``, ``pvar`` and ``extend`` on seeded
2-D walks at N = 200 and 1000, depths 2-4, and ``signature`` at depth 5 and
``extend`` to level 5 at N = 200; ``pvar`` and ``extend`` on seeded level-3
Butcher-character paths at N = 60 and N = 300; one certificate overflow
(exit 4), one refused input and two refused options (exit 2; the options
follow the input, so the refusal names no file).  Each command runs in-process through
``cocycle.cli.main``; the inputs are written with numpy and ``json`` alone,
so they do not depend on the checkout.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

GOLDEN_FILES = {"walk": "walk.csv", "form2": "form2.json", "butcher": "butcher.json",
                "func": "func.json", "walk40": "walk40.csv"}


def golden_runs(root: pathlib.Path) -> dict:
    """The ``GOLDEN_RUNS`` literal of ``tests/test_cli.py``, read without importing the tests."""
    tree = ast.parse((root / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_RUNS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("no GOLDEN_RUNS in tests/test_cli.py")


def write_walk(path: pathlib.Path, seed: int, N: int):
    """A 2-D Gaussian walk scaled by 1/sqrt(N) on a uniform grid in [0, 1], as CSV."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros((1, 2)), (rng.normal(size=(N - 1, 2)) / np.sqrt(N)).cumsum(axis=0)])
    rows = (f"{t!r},{a!r},{b!r}\n" for t, (a, b) in zip(np.linspace(0.0, 1.0, N).tolist(), pts.tolist()))
    path.write_text("t,x1,x2\n" + "".join(rows))


def write_butcher(path: pathlib.Path, seed: int, N: int):
    """A level-3 Butcher-character path over labels {1, 2}, as path JSON.

    Tree values follow walks scaled by N^(-size/2); each forest coefficient is
    the product of its trees' values.  The forests are listed by hand, in the
    interchange spelling, so the file does not depend on the checkout.
    """
    trees = ["1", "2", "1[1]", "1[2]", "2[1]", "2[2]",
             "1[1[1]]", "1[1[2]]", "1[2[1]]", "1[2[2]]", "2[1[1]]", "2[1[2]]", "2[2[1]]", "2[2[2]]",
             "1[1,1]", "1[1,2]", "1[2,2]", "2[1,1]", "2[1,2]", "2[2,2]"]
    size = {t: 1 + t.count("[") + t.count(",") for t in trees}
    rng = np.random.default_rng(seed)
    walks = {t: np.concatenate([[0.0], (rng.normal(size=N - 1) * N ** (-size[t] / 2)).cumsum()]) for t in trees}
    forests = [(t,) for t in trees]  # a forest lists its trees in string order
    forests += [tuple(sorted((a, b))) for i, a in enumerate(trees) for b in trees[i:] if size[a] + size[b] <= 3]
    forests += [("1", "1", "1"), ("1", "1", "2"), ("1", "2", "2"), ("2", "2", "2")]
    values = []
    for j in range(N):
        coeffs = [{"index": "()", "value": 1.0}]
        for f in forests:
            coeffs.append({"index": " ".join(f), "value": float(np.prod([walks[t][j] for t in f]))})
        values.append([c for c in coeffs if c["value"] != 0.0])
    times = np.linspace(0.0, 1.0, N).tolist()
    path.write_text(json.dumps({"system": "butcher", "d": 2, "n": 3, "times": times, "values": values}))


def commands(root: pathlib.Path, work: pathlib.Path) -> list:
    """(label, argv) of every command, the label naming input files by placeholders."""
    files = {k: root / "tests" / "golden" / f for k, f in GOLDEN_FILES.items()}
    out = []
    runs = golden_runs(root)
    for name in sorted(runs):
        out.append((runs[name], files))
    out.append((runs["certify_walk"] + ["--theta", "400"], files))
    out.append((runs["extend_walk"][:2] + ["1", "{walk}"], files))  # below the path level: exit 2
    out.append((["signature", "{walk}", "--schedule", "ltr"], files))  # options no command reads: exit 2
    out.append((["pvar", "{walk}", "--theta", "2"], files))
    files = {f"walk{N}": work / f"walk{N}.csv" for N in (200, 1000)}
    for N in (200, 1000):
        write_walk(files[f"walk{N}"], seed=N, N=N)
        for depth in (2, 3, 4):
            out.append((["signature", "--depth", str(depth), f"{{walk{N}}}"], files))
            out.append((["pvar", "--p", "2.5", "--depth", str(depth), f"{{walk{N}}}"], files))
        for depth, level, p in ((2, 3, 2.5), (3, 4, 2.5), (2, 4, 1.5)):
            out.append((["extend", "--depth", str(depth), "--to-level", str(level), "--p", str(p), f"{{walk{N}}}"], files))
    # the deepest levels on the small walk, where each prefix level sums the most terms
    out.append((["signature", "--depth", "5", "{walk200}"], files))
    out.append((["extend", "--depth", "3", "--to-level", "5", "--p", "2.5", "{walk200}"], files))
    files = {"butcher3": work / "butcher3.json", "butcher300": work / "butcher300.json"}
    write_butcher(files["butcher3"], seed=3, N=60)
    out.append((["pvar", "--system", "butcher", "--p", "2.5", "{butcher3}"], files))
    out.append((["extend", "--system", "butcher", "--to-level", "4", "--p", "2.5", "{butcher3}"], files))
    write_butcher(files["butcher300"], seed=300, N=300)  # its norm tables span many blocks
    out.append((["pvar", "--system", "butcher", "--p", "2.5", "{butcher300}"], files))
    out.append((["extend", "--system", "butcher", "--to-level", "4", "--p", "2.5", "{butcher300}"], files))
    return [(" ".join(argv), [a.format(**files) for a in argv]) for argv, files in out]


def run(main, argv) -> tuple:
    """(stdout, stderr, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parent.parent)
    root = parser.parse_args().root.resolve()
    sys.path.insert(0, str(root / "src"))
    from cocycle.cli import main as cli_main

    with tempfile.TemporaryDirectory() as work:
        for label, argv in commands(root, pathlib.Path(work)):
            out, err, code = run(cli_main, argv)
            digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
            print(*digest, code, label, flush=True)


if __name__ == "__main__":
    main()
