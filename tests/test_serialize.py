import json

import numpy as np
import pytest

from cocycle import serialize
from cocycle.algebra import tensor_system
from cocycle.paths import signature_piecewise_linear
from conftest import path_max_dev, random_character, tensor_max_dev


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
