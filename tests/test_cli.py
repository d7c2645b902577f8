import io
import json
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from cocycle.cli import main

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"


def run_cli(args, stdin_text=None, capsys=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(args)
    finally:
        sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


def schema(name):
    with open(SCHEMAS / f"{name}.schema.json") as fh:
        return json.load(fh)


@pytest.fixture
def line_csv(tmp_path):
    f = tmp_path / "line.csv"
    f.write_text("t,x1\n0,0\n1,1\n")
    return str(f)


@pytest.fixture
def wiggle_csv(tmp_path):
    ts = np.linspace(0.0, 1.0, 9)
    xs = ts + 0.3 * np.sin(2 * ts)
    f = tmp_path / "wiggle.csv"
    f.write_text("t,x1\n" + "\n".join(f"{t},{x}" for t, x in zip(ts, xs)) + "\n")
    return str(f)


@pytest.fixture
def form_file(tmp_path):
    f = tmp_path / "form.json"
    f.write_text(json.dumps({
        "d": 1, "target_dim": 1, "degree": 1, "gamma": 2.0,
        "derivatives": [[[0.0]], [[[1.0]]]],
    }))
    return str(f)


@pytest.fixture
def func_file(tmp_path):
    f = tmp_path / "func.json"
    f.write_text(json.dumps({
        "in_dim": 1, "out_dim": 1, "degree": 2, "gamma": 3.0,
        "derivatives": [[0.0], [[0.0]], [[[2.0]]]],
    }))
    return str(f)


def test_signature_known_values(line_csv, capsys):
    code, out, _ = run_cli(["signature", "--depth", "2", line_csv], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    final = {row["index"]: row["value"] for row in obj["values"][-1]}
    assert final["1"] == 1.0
    assert final["1.1"] == 0.5


def test_signature_from_stdin(capsys):
    code, out, _ = run_cli(["signature", "--depth", "1"], stdin_text="t,x1\n0,0\n2,5\n", capsys=capsys)
    assert code == 0
    assert json.loads(out)["times"] == [0.0, 2.0]


def test_pvar_total_variation(capsys, tmp_path):
    f = tmp_path / "mono.csv"
    f.write_text("t,x1\n0,0\n1,0.4\n2,1.1\n3,2.0\n")
    code, out, _ = run_cli(["pvar", "--p", "1", "--depth", "1", str(f)], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("pvar"))
    assert np.isclose(obj["p_variation"], 2.0)


def test_extend_matches_direct_signature(wiggle_csv, capsys, tmp_path):
    code, sig2, _ = run_cli(["signature", "--depth", "2", wiggle_csv], capsys=capsys)
    assert code == 0
    sig2_file = tmp_path / "sig2.json"
    sig2_file.write_text(sig2)
    code, out3, _ = run_cli(
        ["extend", "--to-level", "3", "--p", "1.5", str(sig2_file)], capsys=capsys
    )
    assert code == 0
    obj3 = json.loads(out3)
    jsonschema.validate(obj3, schema("path"))
    code, direct, _ = run_cli(["signature", "--depth", "3", wiggle_csv], capsys=capsys)
    direct_obj = json.loads(direct)
    got = {r["index"]: r["value"] for r in obj3["values"][-1]}
    want = {r["index"]: r["value"] for r in direct_obj["values"][-1]}
    for key, val in want.items():
        assert abs(got[key] - val) < 1e-9


def test_integrate_trace(wiggle_csv, form_file, capsys):
    code, out, _ = run_cli(
        ["integrate", "--form", form_file, "--p", "2", wiggle_csv], capsys=capsys
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("trace"))
    xs = 1.0 + 0.3 * np.sin(2.0)
    assert abs(obj["trace"][-1]["value"][0] - xs**2 / 2) < 1e-12
    assert obj["certificate"]["integrable"]["ok"] is True


def test_iterate_product_compose_consistency(wiggle_csv, form_file, func_file, capsys):
    code, it_out, _ = run_cli(
        ["iterate", "--form", form_file, "--form2", form_file, "--p", "2", wiggle_csv],
        capsys=capsys,
    )
    assert code == 0
    code, pr_out, _ = run_cli(
        ["product", "--form", form_file, "--form2", form_file, "--p", "2", wiggle_csv],
        capsys=capsys,
    )
    assert code == 0
    code, co_out, _ = run_cli(
        ["compose", "--form", form_file, "--f", func_file, "--p", "2", wiggle_csv],
        capsys=capsys,
    )
    assert code == 0
    it = json.loads(it_out)["trace"][-1]["value"][0]
    pr = json.loads(pr_out)["trace"][-1]["value"][0]
    co = json.loads(co_out)["trace"][-1]["value"][0]
    # product = compose with the square, and equals twice the symmetric iterated
    assert abs(pr - co) < 1e-12
    assert abs(2.0 * it - pr) < 1e-10
    for text in (it_out, pr_out, co_out):
        jsonschema.validate(json.loads(text), schema("trace"))


def test_enhance_multiplicative(wiggle_csv, form_file, capsys):
    code, out, _ = run_cli(
        ["enhance", "--form", form_file, "--p", "2", wiggle_csv], capsys=capsys
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    assert obj["multiplicativity_residual"] < 1e-10


def test_certify_reports(wiggle_csv, form_file, capsys):
    code, out, _ = run_cli(
        ["certify", "--form", form_file, "--p", "2", wiggle_csv], capsys=capsys
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("certify"))
    assert obj["integrable"]["ok"] is True


def test_malformed_csv_exit_2(capsys):
    code, out, err = run_cli(["signature"], stdin_text="t,x1\n0,zero\n1,1\n", capsys=capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputError"
    assert "line 2" in payload["message"]


def test_malformed_json_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run_cli(["extend", "--to-level", "3", str(f)], capsys=capsys)
    assert code == 2


def test_certificate_failure_exit_3(wiggle_csv, capsys, tmp_path):
    f = tmp_path / "rough_form.json"
    f.write_text(json.dumps({
        "d": 1, "target_dim": 1, "degree": 1, "gamma": 0.5,
        "derivatives": [[[0.0]], [[[1.0]]]],
    }))
    code, _, err = run_cli(
        ["integrate", "--form", str(f), "--p", "2", wiggle_csv], capsys=capsys
    )
    assert code == 3
    assert json.loads(err)["error"] == "CertificateError"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_exit_4(capsys, tmp_path):
    f = tmp_path / "huge.csv"
    f.write_text("t,x1\n0,0\n1,1e300\n")
    code, _, err = run_cli(["signature", "--depth", "4", str(f)], capsys=capsys)
    assert code == 4


def test_determinism_across_runs(wiggle_csv, form_file, func_file, capsys, tmp_path):
    sig_file = tmp_path / "sig.json"
    commands = [
        ["signature", "--depth", "2", wiggle_csv],
        ["pvar", "--p", "2", wiggle_csv],
        ["extend", "--to-level", "3", "--p", "1.5", str(sig_file)],
        ["integrate", "--form", form_file, "--p", "2", wiggle_csv],
        ["iterate", "--form", form_file, "--form2", form_file, "--p", "2", wiggle_csv],
        ["product", "--form", form_file, "--form2", form_file, "--p", "2", wiggle_csv],
        ["compose", "--form", form_file, "--f", func_file, "--p", "2", wiggle_csv],
        ["enhance", "--form", form_file, "--p", "2", wiggle_csv],
        ["certify", "--form", form_file, "--p", "2", wiggle_csv],
    ]
    code, sig_out, _ = run_cli(commands[0], capsys=capsys)
    sig_file.write_text(sig_out)
    for cmd in commands:
        outputs = []
        for _ in range(3):
            code, out, _ = run_cli(cmd, capsys=capsys)
            assert code == 0, cmd
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2], cmd


def test_console_entry_point(line_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle.cli", "signature", "--depth", "2", line_csv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 2


def test_golden_signature_output(capsys):
    golden_dir = pathlib.Path(__file__).resolve().parent / "golden"
    code, out, _ = run_cli(
        ["signature", "--depth", "2", str(golden_dir / "line.csv")], capsys=capsys
    )
    assert code == 0
    assert out == (golden_dir / "signature_line.json").read_text()


def test_system_flag_gates_csv(line_csv, capsys):
    code, _, err = run_cli(
        ["signature", "--system", "butcher", "--depth", "2", line_csv], capsys=capsys
    )
    assert code == 2
    assert "translation" in json.loads(err)["message"]


def test_extend_forest_path_json(capsys, tmp_path):
    from cocycle import serialize
    from cocycle.algebra import tensor_system
    from cocycle.paths import path_from_increments
    from conftest import random_character

    rng = np.random.default_rng(3)
    b2 = tensor_system("butcher", 1, 2)
    incs = [random_character(b2, rng, scale=0.4) for _ in range(5)]
    path = path_from_increments(b2, np.arange(6.0), incs)
    f = tmp_path / "forest_path.json"
    f.write_text(serialize.dumps(serialize.path_to_obj(path)))
    code, out, _ = run_cli(
        ["extend", "--to-level", "3", "--p", "2.5", "--system", "butcher", str(f)],
        capsys=capsys,
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    assert obj["system"] == "butcher" and obj["n"] == 3


@pytest.fixture
def forest_json(tmp_path):
    from cocycle import serialize
    from cocycle.algebra import tensor_system
    from cocycle.paths import path_from_increments
    from conftest import random_character

    rng = np.random.default_rng(3)
    b2 = tensor_system("butcher", 1, 2)
    incs = [random_character(b2, rng, scale=0.4) for _ in range(5)]
    path = path_from_increments(b2, np.arange(6.0), incs)
    f = tmp_path / "forest_path.json"
    f.write_text(serialize.dumps(serialize.path_to_obj(path)))
    return str(f)


@pytest.mark.parametrize("command", ["integrate", "certify", "iterate"])
def test_forest_path_coupling_exit_2(command, forest_json, form_file, capsys):
    extra = ["--form2", form_file] if command == "iterate" else []
    code, out, err = run_cli(
        [command, "--form", form_file, *extra, "--p", "2", forest_json], capsys=capsys
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputError" and payload["exit"] == 2


@pytest.mark.parametrize(
    "argv, text",
    [
        (["pvar", "--p", "2"], "t,x1\n0,0\nnan,1\n2,3\n"),
        (["pvar", "--p", "2"], "t,x1\n0,0\n1,inf\n2,3\n"),
        (["pvar", "--p", "2"], '{"system": "nilpotent", "d": 1, "n": 1, "times": [0, NaN],'
                               ' "values": [[], [{"index": "1", "value": 1.0}]]}'),
        (["pvar", "--p", "2"], '{"system": "nilpotent", "d": 1, "n": 1, "times": [0, 1],'
                               ' "values": [[], [{"index": "1", "value": Infinity}]]}'),
        (["signature", "--depth", "0"], "t,x1\n0,0\n1,1\n"),
        (["pvar", "--p", "0.5"], "t,x1\n0,0\n1,1\n"),
    ],
    ids=["nan-time", "inf-coordinate", "json-nan-time", "json-inf-coefficient",
         "depth-0", "p-below-1"],
)
def test_bad_input_exit_2(argv, text, capsys):
    code, out, err = run_cli(argv, stdin_text=text, capsys=capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputError" and payload["exit"] == 2
