"""The stacked-size guard: a deep truncation level is refused with exit 2 before any system is built."""

import itertools
import json
import pathlib

import pytest

from cocycle import trees
from cocycle.serialize import MAX_STACKED_COEFFICIENTS, InputError, require_stacked_size
from conftest import run_cli_bounded

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("d, n", [(1, 8), (2, 5), (3, 4)])
def test_forest_counts_match_the_enumeration(d, n):
    counts = list(itertools.islice(trees.forest_counts(d), n + 1))
    assert counts == [len(level) for level in trees.forests_by_degree(d, n)]


def test_guard_refuses_exactly_above_the_limit():
    # words: (n + 1) levels of dimension one, or 2^(n+1) - 1 coefficients at d = 2
    require_stacked_size("nilpotent", 1, MAX_STACKED_COEFFICIENTS - 1, 1)
    require_stacked_size("nilpotent", 2, 25, 1)
    require_stacked_size("nilpotent", 2, 2, MAX_STACKED_COEFFICIENTS // 7)
    for args in (("nilpotent", 1, MAX_STACKED_COEFFICIENTS, 1), ("nilpotent", 2, 26, 1),
                 ("nilpotent", 2, 2, MAX_STACKED_COEFFICIENTS // 7 + 1), ("nilpotent", 3, 10**300, 2)):
        with pytest.raises(InputError, match="stacked coefficients"):
            require_stacked_size(*args)
    # forests: the summed counts of degrees 0..n, per point
    total = sum(itertools.islice(trees.forest_counts(2), 6))
    require_stacked_size("butcher", 2, 5, MAX_STACKED_COEFFICIENTS // total)
    with pytest.raises(InputError):
        require_stacked_size("butcher", 2, 5, MAX_STACKED_COEFFICIENTS // total + 1)


def _one_point(tmp_path, system, d, n):
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps({"system": system, "d": d, "n": n, "times": [0.0],
                                "values": [[{"index": "()", "value": 1.0}]]}))
    return path


@pytest.mark.parametrize("case", ["signature depth", "integrate p", "word json", "butcher json", "extend level"])
def test_deep_levels_exit_2_in_seconds(case, tmp_path):
    csv = tmp_path / "three.csv"
    csv.write_text("t,x1,x2\n0,0,0\n1,1,0.5\n2,0.3,1\n")
    argv = {
        "signature depth": ["signature", "--depth", "30", csv],
        "integrate p": ["integrate", "--p", "1e300", "--form", f"{GOLDEN}/form2.json", f"{GOLDEN}/walk.csv"],
        "word json": ["signature", _one_point(tmp_path, "nilpotent", 2, 40)],
        "butcher json": ["signature", _one_point(tmp_path, "butcher", 1, 40)],
        "extend level": ["extend", "--to-level", "40", "--p", "2.5", f"{GOLDEN}/walk.csv"],
    }[case]
    proc = run_cli_bounded(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    doc = json.loads(proc.stderr)
    assert doc["exit"] == 2 and doc["error"] == "InputError"
    assert "stacked coefficients" in doc["message"]
