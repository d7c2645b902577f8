import json

import numpy as np
import pytest

from cocycle import serialize
from cocycle.algebra import tensor_system
from cocycle.paths import signature_piecewise_linear
from conftest import path_max_dev, random_character, reference_dumps, tensor_max_dev


def test_float_formatting_roundtrips():
    for x in (1.0, 0.1, 1 / 3, 1e-17, -2.5e300):
        assert float(serialize.format_float(x)) == x


def test_non_finite_rejected():
    with pytest.raises(OverflowError):
        serialize.format_float(float("inf"))
    with pytest.raises(OverflowError):
        serialize.dumps({"x": float("nan")})


def test_dumps_is_valid_json():
    obj = {"a": [1, 2.5, None, True], "b": {"c": "text"}}
    assert json.loads(serialize.dumps(obj)) == obj


class _Label(str):
    def __str__(self):
        return "label:" + super().__str__()


def test_dumps_matches_reference_writer():
    obj = {
        "nested": ((1, (2.5, [None, ()])), [], {}),
        "numpy": [np.int64(-7), np.uint8(255), np.float64(0.1), np.float32(0.1), np.float16(-2.5)],
        "floats": [0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 1 / 3, 2.0**53 + 2, -1e22],
        "ints": [0, -1, 10**40, True, False],
        1: "int key", 2.5: "float key", None: "none key", (1, "a"): "tuple key", np.int64(3): "numpy key",
        "ünï©ødé ✓ \"quoted\"\n": "€ \u2028 \x00 \ud83d",
        _Label("sub"): [_Label("value"), bytes(b"raw"), complex(1, 2), np.array([1.0, 2.0])],
    }
    assert serialize.dumps(obj) == reference_dumps(obj)
    for leaf in (1.5, np.float64(2.0), "text", None, 3, [np.float32(1e-8)]):
        assert serialize.dumps(leaf) == reference_dumps(leaf)
    for bad in (float("inf"), np.float64("-inf"), np.float32("nan")):
        messages = []
        for write in (serialize.dumps, reference_dumps):
            with pytest.raises(OverflowError) as exc:
                write({"ok": [1.0, {"x": bad}], "later": float("nan")})
            messages.append(str(exc.value))
        assert messages == [f"non-finite value {float(bad)!r} in output"] * 2


def test_dumps_writes_numpy_booleans_as_json_booleans():
    assert serialize.dumps({"ok": np.True_, "bad": np.False_}) == '{"ok":true,"bad":false}'
    assert serialize.dumps([np.bool_(1), True, False]) == "[true,true,false]"
    assert json.loads(serialize.dumps({"ok": np.True_})) == {"ok": True}


def test_tensor_roundtrip_word(rng):
    s = tensor_system("nilpotent", 2, 3)
    t = s.zero()
    for k in range(4):
        t.levels[k][:] = rng.normal(size=s.dim(k))
    back = serialize.tensor_from_obj(json.loads(serialize.dumps(serialize.tensor_to_obj(t))))
    assert tensor_max_dev(t, back) == 0.0


def test_tensor_roundtrip_forest(rng):
    s = tensor_system("butcher", 2, 3)
    t = random_character(s, rng)
    back = serialize.tensor_from_obj(serialize.tensor_to_obj(t))
    assert tensor_max_dev(t, back) == 0.0


def test_path_roundtrip(rng):
    pts = rng.normal(size=(6, 2)).cumsum(axis=0)
    path = signature_piecewise_linear(pts, 2)
    back = serialize.path_from_obj(serialize.path_to_obj(path))
    assert path_max_dev(path, back) == 0.0
    assert np.array_equal(path.times, back.times)


def test_index_parse():
    idx = serialize.parse_index("nilpotent", "1.2.1")
    assert idx.degree == 3 and idx.payload == (1, 2, 1)
    idx = serialize.parse_index("butcher", "1[2] 2")
    assert idx.degree == 3
    assert serialize.parse_index("nilpotent", "()").degree == 0


def test_bad_tensor_rejected():
    with pytest.raises(serialize.InputError):
        serialize.tensor_from_obj({"system": "nilpotent", "d": 2})


def test_csv_parsing():
    times, pts = serialize.read_csv_path("t,x1,x2\n0,1,2\n1,3,4\n")
    assert times.tolist() == [0.0, 1.0]
    assert pts.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty"),
        ("a,b\n0,1\n", "header"),
        ("t,x2\n0,1\n", "x1"),
        ("t,x1\n0,1,9\n", "fields"),
        ("t,x1\n0,one\n", "line 2"),
        ("t,x1\n0,1\n0,2\n", "increasing"),
        ("t,x1\n0,1\n", "two samples"),
    ],
)
def test_csv_errors_carry_location(text, message):
    with pytest.raises(serialize.InputError, match=message):
        serialize.read_csv_path(text)


def test_one_form_file_validation():
    good = {
        "d": 1,
        "target_dim": 1,
        "degree": 1,
        "derivatives": [[[0.0]], [[[1.0]]]],
    }
    f = serialize.one_form_from_obj(good)
    assert f.in_dim == 1 and f.out_shape == (1, 1)
    bad = dict(good, derivatives=[[[0.0]]])
    with pytest.raises(serialize.InputError, match="arrays"):
        serialize.one_form_from_obj(bad)
    asym = {
        "d": 2,
        "target_dim": 1,
        "degree": 2,
        "derivatives": [
            np.zeros((1, 2)).tolist(),
            np.zeros((1, 2, 2)).tolist(),
            [[[ [0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        ],
    }
    with pytest.raises(ValueError, match="symmetric"):
        serialize.one_form_from_obj(asym)


def test_function_file_validation():
    good = {
        "in_dim": 1,
        "out_dim": 1,
        "degree": 2,
        "derivatives": [[0.0], [[0.0]], [[[2.0]]]],
    }
    f = serialize.function_from_obj(good)
    assert f.out_shape == (1,)
    with pytest.raises(serialize.InputError, match="shape"):
        serialize.function_from_obj(dict(good, derivatives=[[0.0], [[0.0, 1.0]], [[[2.0]]]]))


def test_polynomial_gamma_zero_is_kept():
    # an explicit gamma of 0 is a value, not a request for the default
    form = serialize.one_form_from_obj(
        {"d": 1, "target_dim": 1, "degree": 1, "gamma": 0, "derivatives": [[[0.0]], [[[1.0]]]]}
    )
    func = serialize.function_from_obj(
        {"in_dim": 1, "out_dim": 1, "degree": 1, "gamma": 0, "derivatives": [[0.0], [[1.0]]]}
    )
    assert form.gamma == 0.0 and func.gamma == 0.0


@pytest.mark.parametrize(
    "obj",
    [
        {"d": 1, "target_dim": 1, "degree": 1, "derivatives": [[[float("nan")]], [[[1.0]]]]},
        {"d": 1, "target_dim": 1, "degree": 0, "gamma": float("inf"), "derivatives": [[[1.0]]]},
        {"in_dim": 1, "out_dim": 1, "degree": 1, "derivatives": [[0.0], [[float("-inf")]]]},
    ],
    ids=["nan-derivative", "inf-gamma", "inf-function-derivative"],
)
def test_non_finite_polynomial_files_rejected(obj):
    read = serialize.one_form_from_obj if "d" in obj else serialize.function_from_obj
    with pytest.raises(serialize.InputError, match="non-finite"):
        read(obj)


@pytest.mark.parametrize("kind", ["nilpotent", "butcher"])
def test_each_index_string_parsed_once(kind, rng, monkeypatch):
    if kind == "nilpotent":
        path = signature_piecewise_linear(rng.normal(size=(12, 2)), 3)
    else:
        from cocycle.paths import path_from_increments

        b2 = tensor_system("butcher", 2, 2)
        path = path_from_increments(b2, np.arange(12.0), [random_character(b2, rng) for _ in range(11)])
    obj = serialize.path_to_obj(path)
    names = {c["index"] for value in obj["values"] for c in value}
    calls = []
    parse = serialize.parse_index
    monkeypatch.setattr(serialize, "parse_index", lambda *args: calls.append(args[1]) or parse(*args))
    serialize._parsed_index.cache_clear()
    back = serialize.path_from_obj(obj)
    assert sorted(calls) == sorted(names)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(back.levels, path.levels))
    assert serialize.dumps(serialize.path_to_obj(back)) == serialize.dumps(obj)
