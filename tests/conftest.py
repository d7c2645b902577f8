import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))



CHILD_ADDRESS_SPACE = 2 << 30  # bytes
CHILD_TIMEOUT = 20  # seconds


def run_cli_bounded(argv) -> subprocess.CompletedProcess:
    """``python -m cocycle.cli argv`` in a child process capped at 2 GiB of address
    space and 20 s, so a runaway allocation or loop fails the test instead of
    hanging the suite; ``subprocess.TimeoutExpired`` is raised on the timeout."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cocycle.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, preexec_fn=cap, env=env,
    )


def random_grouplike(system, rng, factors=3, scale=0.6):
    """Product of segment exponentials: a generic word-system group element."""
    out = system.unit()
    for _ in range(factors):
        v = system.zero()
        v.levels[1][:] = rng.normal(size=system.d) * scale / factors
        out = system.mul(out, system.exp(v))
    return out


def random_character(system, rng, scale=0.6):
    """Random forest character: free on trees, multiplicative on forests."""
    tree_vals = {}
    t = system.zero()
    t.levels[0][0] = 1.0
    for k in range(1, system.n + 1):
        for i, forest in enumerate(system._forests[k]):
            val = 1.0
            for tree in forest:
                if tree not in tree_vals:
                    tree_vals[tree] = rng.normal() * scale
                val *= tree_vals[tree]
            t.levels[k][i] = val
    return t


def tensor_max_dev(a, b):
    return max(float(np.abs(x - y).max()) for x, y in zip(a.levels, b.levels))


def path_max_dev(p1, p2):
    return max(tensor_max_dev(a, b) for a, b in zip(p1.values, p2.values))


def reference_dumps(obj) -> str:
    """The recursive isinstance writer that ``serialize.dumps`` must match byte for byte
    (except on numpy booleans, which it wrote as the strings "True" and "False")."""
    import json

    out = []

    def write(obj):
        if isinstance(obj, dict):
            out.append("{")
            for i, (k, v) in enumerate(obj.items()):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k)))
                out.append(":")
                write(v)
            out.append("}")
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for i, v in enumerate(obj):
                if i:
                    out.append(",")
                write(v)
            out.append("]")
        elif isinstance(obj, bool):
            out.append("true" if obj else "false")
        elif isinstance(obj, (int, np.integer)):
            out.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            x = float(obj)
            if not np.isfinite(x):
                raise OverflowError(f"non-finite value {x!r} in output")
            out.append(format(x, ".17g"))
        elif obj is None:
            out.append("null")
        else:
            out.append(json.dumps(str(obj)))

    write(obj)
    return "".join(out)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def eval_calls(monkeypatch):
    """The arguments of every per-row ``eval`` of a one-form made while the test runs."""
    from cocycle import one_forms

    calls = []
    for cls in vars(one_forms).values():
        if isinstance(cls, type) and issubclass(cls, one_forms.TimeVaryingOneForm) and "eval" in vars(cls):
            monkeypatch.setattr(cls, "eval", lambda *args, f=cls.eval: calls.append(args[1:]) or f(*args))
    return calls


@pytest.fixture
def tensor_inits(monkeypatch):
    """The system of every ``GradedTensor`` built while the test runs."""
    from cocycle.algebra import GradedTensor

    calls = []
    init = GradedTensor.__init__
    monkeypatch.setattr(GradedTensor, "__init__", lambda self, system, levels: calls.append(system) or init(self, system, levels))
    return calls
