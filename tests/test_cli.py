import io
import json
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def refusal(err, code):
    """The one JSON document on stderr of a command that exited with ``code``, checked against its schema."""
    payload = json.loads(err)
    jsonschema.validate(payload, schema("error"))
    assert payload["exit"] == code
    return payload


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
    payload = refusal(err, 2)
    assert payload["error"] == "InputError"
    assert "line 2" in payload["message"]


@pytest.mark.parametrize("line5", ["3,oops", "3,3,3"], ids=["parse", "fields"])
def test_csv_first_bad_line_wins(line5, capsys):
    """A non-finite line 3 is reported before a malformed line 5, as a line-by-line reader would."""
    code, out, err = run_cli(["signature"], stdin_text=f"t,x1\n0,0\n1,nan\n2,2\n{line5}\n", capsys=capsys)
    assert code == 2
    assert out == ""
    payload = refusal(err, 2)
    assert payload["error"] == "InputError"
    assert payload["message"] == "line 3: non-finite value"


def test_malformed_json_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run_cli(["extend", "--to-level", "3", str(f)], capsys=capsys)
    assert code == 2
    refusal(err, 2)


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
    assert refusal(err, 3)["error"] == "CertificateError"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_exit_4(capsys, tmp_path):
    f = tmp_path / "huge.csv"
    f.write_text("t,x1\n0,0\n1,1e300\n")
    code, _, err = run_cli(["signature", "--depth", "4", str(f)], capsys=capsys)
    assert code == 4
    refusal(err, 4)


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


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# golden stdout files, pinned byte for byte: a 12-point 2-D walk with a
# degree-1 form (and a quadratic function for compose), an 8-point level-2
# Butcher-character path over d = 2, and a 40-point 2-D walk whose certificate
# quotients sit at rounding level, so an ulp in a power shows in the output
GOLDEN_RUNS = {
    "integrate_walk": ["integrate", "--form", "{form2}", "--p", "2", "{walk}"],
    "iterate_walk": ["iterate", "--form", "{form2}", "--form2", "{form2}", "--p", "2", "{walk}"],
    "product_walk": ["product", "--form", "{form2}", "--form2", "{form2}", "--p", "2", "{walk}"],
    "compose_walk": ["compose", "--form", "{form2}", "--f", "{func}", "--p", "2", "{walk}"],
    "certify_walk": ["certify", "--form", "{form2}", "--p", "2", "{walk}"],
    "certify_walk40": ["certify", "--form", "{form2}", "--p", "2", "{walk40}"],
    "pvar_walk": ["pvar", "--p", "2.5", "--depth", "3", "{walk}"],
    "extend_walk": ["extend", "--to-level", "3", "--p", "2.5", "{walk}"],
    "enhance_walk": ["enhance", "--form", "{form2}", "--p", "2", "{walk}"],
    "pvar_butcher": ["pvar", "--system", "butcher", "--p", "2.5", "{butcher}"],
    "extend_butcher": ["extend", "--system", "butcher", "--to-level", "3", "--p", "2.5", "{butcher}"],
    "extend_walk_level4": ["extend", "--to-level", "4", "--p", "1.5", "{walk}"],
    "extend_butcher_level4": ["extend", "--system", "butcher", "--to-level", "4", "--p", "2.5", "{butcher}"],
}


def golden_files(argv):
    """``argv`` with its golden input placeholders filled in."""
    files = {k: GOLDEN_DIR / f for k, f in
             (("walk", "walk.csv"), ("form2", "form2.json"), ("butcher", "butcher.json"),
              ("func", "func.json"), ("walk40", "walk40.csv"))}
    return [a.format(**files) for a in argv]


def golden_argv(name):
    return golden_files(GOLDEN_RUNS[name])


# the extend run once sewn by the omega schedule keeps its name: every order
# printed the left-fold prefixes, so its run and bytes are extend_walk's
GOLDEN_ALIASES = {"extend_walk_omega": "extend_walk"}


@pytest.mark.parametrize("name", sorted({**GOLDEN_RUNS, **GOLDEN_ALIASES}))
def test_golden_command_output(name, capsys):
    name = GOLDEN_ALIASES.get(name, name)
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted({**GOLDEN_RUNS, **GOLDEN_ALIASES}))
def test_golden_objects_dump_as_reference_writer(name, capsys, monkeypatch):
    # the type-dispatch writer gives the bytes of the recursive reference on every golden object
    from cocycle import cli, serialize
    from conftest import reference_dumps

    name = GOLDEN_ALIASES.get(name, name)
    objs = []
    monkeypatch.setattr(cli, "dumps", lambda obj: objs.append(obj) or serialize.dumps(obj))
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert len(objs) == 1 and serialize.dumps(objs[0]) == reference_dumps(objs[0]) == out[:-1]


def test_golden_certificate_overflow(capsys):
    # w(s,t) ** 400 overflows as a Python float power: an OverflowError, exit 4
    code, out, err = run_cli(golden_argv("certify_walk") + ["--theta", "400"], capsys=capsys)
    assert (code, out) == (4, "")
    assert err == (GOLDEN_DIR / "certify_walk_theta400.err").read_text()
    refusal(err, 4)


@pytest.mark.parametrize("schedule", ["ltr", "dyadic", "omega"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_schedule_keeps_golden_output(name, schedule, capsys):
    # every command prints the left-fold prefixes, which no association order
    # changes, so no command takes --schedule: a golden run given it is a usage
    # error, and the golden bytes are those of the run without it
    code, out, err = run_cli(golden_argv(name) + ["--schedule", schedule], capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == f"cocycle: unrecognized arguments: --schedule {schedule}"
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


# options given after the input to a command that does not read them
UNREAD_OPTIONS = [
    ["signature", "{walk}", "--p", "2"],
    ["signature", "{walk}", "--theta", "2"],
    ["signature", "{walk}", "--tol", "1e-9"],
    ["pvar", "{walk}", "--theta", "2"],
    ["pvar", "{walk}", "--tol", "1e-9"],
    ["extend", "--to-level", "3", "{walk}", "--theta", "2"],
    *[GOLDEN_RUNS[f"{name}_walk"] + ["--tol", "1e-9"]
      for name in ("integrate", "iterate", "product", "compose", "enhance", "certify")],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_unread_options_are_refused(argv, capsys):
    code, out, err = run_cli(golden_files(argv), capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == "cocycle: unrecognized arguments: " + " ".join(argv[-2:])


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_unread_options_before_the_input_are_refused(argv, capsys):
    # the same refusals with the option right after the command: the option's
    # value is not taken for the input, so the refusal names the option alone
    code, out, err = run_cli(golden_files(argv[:1] + argv[-2:] + argv[1:-2]), capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == "cocycle: unrecognized arguments: " + argv[-2]


def test_second_input_is_refused(capsys):
    walk = str(GOLDEN_DIR / "walk.csv")
    code, out, err = run_cli(["signature", walk, walk], capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == "cocycle: unrecognized arguments: " + walk


@pytest.mark.parametrize(
    "argv, message",
    [
        (["signature", "--depth", "x"], "cocycle signature: argument --depth: invalid int value: 'x'"),
        (["pvar", "--p", "x"], "cocycle pvar: argument --p: invalid float value: 'x'"),
        (["extend"], "cocycle extend: the following arguments are required: --to-level"),
        (["pvar", "--system", "other"], "cocycle pvar: argument --system: invalid choice: 'other' (choose from 'nilpotent', 'butcher')"),
        (["walk"], "cocycle: argument command: invalid choice: 'walk' (choose from 'signature', 'pvar', 'extend', "
                   "'integrate', 'iterate', 'product', 'compose', 'enhance', 'certify')"),
        ([], "cocycle: the following arguments are required: command"),
    ],
    ids=["bad-int", "bad-float", "missing-option", "bad-choice", "bad-command", "no-command"],
)
def test_usage_errors_are_one_json_document(argv, message, capsys):
    code, out, err = run_cli(argv, stdin_text="", capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2) == {"error": "InputError", "message": message, "exit": 2}


@pytest.mark.parametrize("argv", [["-h"], ["extend", "-h"], ["certify", "--help"]], ids=["top", "extend", "certify"])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: cocycle")


def test_integrate_reads_recentred_forms_in_rows(capsys, monkeypatch):
    # the certificates and the sewing of integrate go through eval_rows only, never the per-row eval
    from cocycle.one_forms import TimeVaryingOneForm

    calls = []
    original = TimeVaryingOneForm.eval
    monkeypatch.setattr(TimeVaryingOneForm, "eval", lambda *args: calls.append(args[1:]) or original(*args))
    code, out, err = run_cli(golden_argv("integrate_walk"), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "integrate_walk.json").read_text()
    assert calls == []


@pytest.mark.parametrize("name", ["iterate_walk", "product_walk", "compose_walk", "enhance_walk"])
def test_dominated_commands_read_forms_in_rows(name, capsys, eval_calls):
    # the calculus forms, their certificates and their sewing make no per-row eval
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert eval_calls == []


def grid_inputs(tmp_path, N) -> dict:
    """An N-point 2-D walk as CSV and an N-point level-2 Butcher-character path as JSON."""
    from cocycle import serialize
    from cocycle.algebra import tensor_system
    from cocycle.paths import path_from_increments
    from conftest import random_character

    rng = np.random.default_rng(N)
    pts = np.vstack([np.zeros((1, 2)), (rng.normal(size=(N - 1, 2)) / np.sqrt(N)).cumsum(axis=0)])
    walk = tmp_path / f"walk{N}.csv"
    walk.write_text("t,x1,x2\n" + "".join(f"{t!r},{a!r},{b!r}\n" for t, (a, b) in zip(np.linspace(0.0, 1.0, N).tolist(), pts.tolist())))
    b2 = tensor_system("butcher", 2, 2)
    steps = [random_character(b2, rng, 0.4) for _ in range(N - 1)]
    forest = tmp_path / f"forest{N}.json"
    forest.write_text(serialize.dumps(serialize.path_to_obj(path_from_increments(b2, np.arange(float(N)), steps))))
    return {"walk": walk, "forest": forest, "form2": GOLDEN_DIR / "form2.json"}


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--to-level", "4", "--p", "1.5", "{walk}"],
        ["extend", "--system", "butcher", "--to-level", "3", "--p", "2.5", "{forest}"],
        ["enhance", "--form", "{form2}", "--p", "2", "{walk}"],
    ],
    ids=["extend-word", "extend-forest", "enhance"],
)
def test_cli_builds_no_tensor_per_grid_point(argv, tmp_path, capsys, tensor_inits):
    # sewing, enhancement and level extension read stacked levels: the tensors a run
    # builds do not grow with the grid
    built = []
    for N in (12, 60):
        files = grid_inputs(tmp_path, N)
        start = len(tensor_inits)
        code, out, err = run_cli([a.format(**files) for a in argv], capsys=capsys)
        assert (code, err) == (0, "")
        built.append(len(tensor_inits) - start)
    assert built[0] == built[1]


def test_system_flag_gates_csv(line_csv, capsys):
    code, _, err = run_cli(
        ["signature", "--system", "butcher", "--depth", "2", line_csv], capsys=capsys
    )
    assert code == 2
    assert "translation" in refusal(err, 2)["message"]


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
    payload = refusal(err, 2)
    assert payload["error"] == "InputError"


NAN_FORM = '{"d": 1, "target_dim": 1, "degree": 1, "derivatives": [[[NaN]], [[[1.0]]]]}'
ASYMMETRIC_FORM = json.dumps({
    "d": 2, "target_dim": 1, "degree": 2,
    "derivatives": [[[0.0, 0.0]], [[[1.0, 0.0], [0.0, 1.0]]],
                    [[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]],
})
LINEAR_FORM = '{"d": 1, "target_dim": 1, "degree": 1, "derivatives": [[[0.0]], [[[1.0]]]]}'
HUGE_FORM = '{"d": 1, "target_dim": 1, "degree": 1, "derivatives": [[[1e308]], [[[1.0]]]]}'
# a function on R^2, composed with the one-dimensional trace of form2.json
PLANE_FUNCTION = '{"in_dim": 2, "out_dim": 1, "degree": 1, "gamma": 3.0, "derivatives": [[0.1], [[0.5, 0.2]]]}'


def bad_index_path(system, index):
    """A two-point d = 2, level-2 path JSON whose second value has one more coefficient."""
    return (f'{{"system": "{system}", "d": 2, "n": 2, "times": [0, 1], "values": '
            f'[[{{"index": "()", "value": 1}}], [{{"index": "()", "value": 1}}, {{"index": {index}, "value": 0.5}}]]}}')


def form_args(argv, tmp_path, **forms):
    """Write the named form texts to files and substitute their paths."""
    files = {}
    for name, text in forms.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    return [a.format(**files) for a in argv]


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
        (["certify", "--p", "2", "--form", "{nan}"], "t,x1\n0,0\n1,1\n2,0\n"),
        (["integrate", "--p", "2", "--form", "{asymmetric}"], "t,x1,x2\n0,0,0\n1,1,0\n"),
        (["integrate", "--p", "2", "--theta", "nan", "--form", "{nan}"], "t,x1\n0,0\n1,1\n"),
        (["extend", "--depth", "2", "--to-level", "1"], "t,x1\n0,0\n1,1\n2,0\n"),
        (["compose", "--p", "2", "--form", str(GOLDEN_DIR / "form2.json"), "--f", "{plane}"],
         "t,x1,x2\n0,0,0\n1,1,0\n2,0,1\n"),
        (["pvar", "--p", "2"], bad_index_path("nilpotent", '"3"')),
        (["pvar", "--p", "2"], bad_index_path("nilpotent", '"0"')),
        (["pvar", "--p", "2"], bad_index_path("nilpotent", '"1.1.1"')),
        (["pvar", "--p", "2"], bad_index_path("butcher", '"1[1[1]]"')),
        (["pvar", "--p", "2"], bad_index_path("butcher", '"1[1"')),
        (["pvar", "--p", "2"], bad_index_path("nilpotent", "1")),
    ],
    ids=["nan-time", "inf-coordinate", "json-nan-time", "json-inf-coefficient",
         "depth-0", "p-below-1", "nan-form", "asymmetric-form", "theta-nan",
         "to-level-below-depth", "compose-function-dimension",
         "letter-above-d", "letter-0", "word-above-n", "tree-above-n", "unclosed-tree", "index-not-text"],
)
def test_bad_input_exit_2(argv, text, capsys, tmp_path):
    argv = form_args(argv, tmp_path, nan=NAN_FORM, asymmetric=ASYMMETRIC_FORM, plane=PLANE_FUNCTION)
    code, out, err = run_cli(argv, stdin_text=text, capsys=capsys)
    assert code == 2
    assert out == ""
    payload = refusal(err, 2)
    assert payload["error"] == "InputError"


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--p", "2", "--theta", "1e9", "--form", "{form}"],
        ["product", "--p", "2", "--form", "{huge}", "--form2", "{huge}"],
        ["enhance", "--p", "2", "--form", "{huge}"],
    ],
    ids=["theta-underflow", "huge-form-product", "huge-form-enhance"],
)
def test_numeric_failure_exit_4_one_json_document(argv, wiggle_csv, capsys, tmp_path):
    argv = form_args(argv, tmp_path, huge=HUGE_FORM, form=LINEAR_FORM) + [wiggle_csv]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 4
    assert out == ""
    refusal(err, 4)  # the whole of stderr is one JSON document


def test_enhance_two_point_path(form_file, capsys, tmp_path):
    f = tmp_path / "two.csv"
    f.write_text("t,x1\n0,0\n1,0.5\n")
    code, out, err = run_cli(["enhance", "--form", form_file, "--p", "2", str(f)], capsys=capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    assert obj["multiplicativity_residual"] == 0.0


def test_extend_large_coordinates(capsys, tmp_path):
    f = tmp_path / "big.csv"
    f.write_text("t,x1,x2\n0,0,0\n1,100000,-70000\n2,30000,90000\n3,-50000,20000\n")
    code, out, err = run_cli(
        ["extend", "--to-level", "4", "--p", "1.5", "--depth", "1", str(f)], capsys=capsys
    )
    assert (code, err) == (0, "")
    jsonschema.validate(json.loads(out), schema("path"))


def test_extend_constant_path_null_ratio(capsys, tmp_path):
    f = tmp_path / "constant.csv"
    f.write_text("t,x1,x2\n0,1,2\n1,1,2\n2,1,2\n")
    code, out, err = run_cli(["extend", "--to-level", "3", "--p", "1.5", str(f)], capsys=capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    assert obj["pvar_ratios"] == [None]
    assert all(v == [{"index": "()", "value": 1.0}] for v in obj["values"])


@pytest.mark.parametrize("system", ["nilpotent", "butcher"])
@pytest.mark.parametrize("schedule", ["ltr", "dyadic", "omega"])
def test_extend_one_point_path_null_ratio(system, schedule, capsys, tmp_path):
    # one value: no increments, so every product and norm table has zero rows;
    # extend sews by the left fold alone and refuses a --schedule
    f = tmp_path / "one.json"
    one = {"system": system, "d": 2, "n": 2, "times": [0.5], "values": [[{"index": "()", "value": 1.0}]]}
    f.write_text(json.dumps(one))
    argv = ["extend", "--system", system, "--to-level", "4", "--p", "2.5", str(f)]
    code, out, err = run_cli(argv + ["--schedule", schedule], capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == f"cocycle: unrecognized arguments: --schedule {schedule}"
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    jsonschema.validate(obj, schema("path"))
    assert obj["pvar_ratios"] == [None, None]
    assert obj["times"] == [0.5] and obj["values"] == [[{"index": "()", "value": 1.0}]]


def test_extend_far_from_origin_exit_3(capsys, tmp_path):
    # valid values far from the origin: their one-step increments fail the lift's relative
    # grouplike test by roundoff, and the lift refuses them as a certificate failure
    walk = np.random.default_rng(0).normal(size=(6, 2)).cumsum(axis=0)
    f = tmp_path / "far.json"
    f.write_text(offset_path_json(1e-6 * walk, 1e6, 2))
    code, out, err = run_cli(["extend", "--to-level", "3", "--p", "1.5", str(f)], capsys=capsys)
    assert (code, out) == (3, "")
    payload = refusal(err, 3)  # the whole of stderr is one JSON document
    assert payload["error"] == "CertificateError"
    assert all(word in payload["message"] for word in ("grouplike", "step", "residual", "tolerance"))


def hostile_path_json(data, pts, depth) -> str:
    """A path JSON: the signature of ``pts`` or a Butcher-character path, maybe tampered with."""
    from cocycle import serialize
    from cocycle.algebra import tensor_system
    from cocycle.paths import path_from_increments, signature_piecewise_linear
    from conftest import random_character

    N, d = pts.shape
    if data.draw(st.booleans(), "butcher"):
        system = tensor_system("butcher", d, depth)
        rng = np.random.default_rng(data.draw(st.integers(0, 99), "seed"))
        scale = float(np.abs(pts).max(initial=0.0)) or 1.0
        steps = [random_character(system, rng, scale) for _ in range(N - 1)]
        obj = serialize.path_to_obj(path_from_increments(system, np.arange(float(N)), steps))
    else:
        obj = serialize.path_to_obj(signature_piecewise_linear(pts, depth))
    tamper = data.draw(st.sampled_from(["none", "scalar", "coefficient", "empty"]), "tamper")
    value = obj["values"][data.draw(st.integers(0, N - 1), "tampered point")]
    if tamper == "scalar":  # a degree-0 coefficient other than 1, or none at all
        value[0]["value"] = data.draw(st.sampled_from([0.0, -1.0, 2.0, 1.0 + 1e-3]), "scalar")
        if value[0]["value"] == 0.0:
            del value[0]
    elif tamper == "coefficient":  # a value off the group, unit scalar kept
        value.append({"index": value[-1]["index"], "value": data.draw(st.floats(-1e3, 1e3), "coefficient")})
        if value[-1]["index"] == "()":
            del value[-1]
    elif tamper == "empty":
        obj["times"], obj["values"] = [], []
    return json.dumps(obj)  # overflowed values go in as Infinity or NaN


def offset_path_json(walk, offset, depth) -> str:
    """A word-system path JSON of the values exp(x_i), x_i = offset (1, 0.7) + walk_i.

    The values are grouplike, but far from the origin: the roundoff of the
    increments g_i^{-1} g_j scales with |g_i| |g_j|, not with the increments.
    """
    from cocycle import serialize
    from cocycle.algebra import tensor_system
    from cocycle.paths import SampledGroupPath

    N, d = walk.shape
    system = tensor_system("nilpotent", d, depth)
    lift = [np.zeros((N, system.dim(k))) for k in range(depth + 1)]
    lift[1] = offset * np.array([1.0, 0.7])[:d] + walk
    return serialize.dumps(serialize.path_to_obj(SampledGroupPath(system, np.arange(float(N)), system.exp_levels(lift))))


def hostile_polynomial_text(data, what, good: dict, dim_key: str) -> str:
    """The JSON text of a valid polynomial file, or of one malformed in a drawn way."""
    kind = data.draw(st.one_of(st.just("valid"), st.sampled_from([  # valid half the time
        "truncated", "not-object", "missing-key", "wrong-shape", "non-finite", "degree-mismatch", "text-values",
        "low-gamma", "huge"])), what)
    obj = json.loads(json.dumps(good))
    if kind == "truncated":
        return json.dumps(obj)[:-2]
    if kind == "not-object":
        return json.dumps(obj["derivatives"])
    if kind == "missing-key":
        del obj[data.draw(st.sampled_from(sorted(obj)), f"{what} key")]
    elif kind == "wrong-shape":
        obj[dim_key] += 1
    elif kind == "non-finite":
        obj["derivatives"][0] = np.full(np.shape(obj["derivatives"][0]), np.nan).tolist()
    elif kind == "degree-mismatch":
        obj["degree"] += 1
    elif kind == "text-values":
        obj["derivatives"] = "x"
    elif kind == "low-gamma":
        obj["gamma"] = 0.2
    elif kind == "huge":
        obj["derivatives"][0] = np.full(np.shape(obj["derivatives"][0]), 1e308).tolist()
    return json.dumps(obj)  # non-finite values go in as NaN


# for each command, a flag that only other commands take
FOREIGN_FLAGS = {
    "signature": ["--p", "2"], "pvar": ["--to-level", "3"], "extend": ["--theta", "2"],
    "integrate": ["--tol", "1e-9"], "certify": ["--form2", "{form}"], "enhance": ["--f", "{func}"],
    "iterate": ["--f", "{func}"], "product": ["--tol", "1e-9"], "compose": ["--form2", "{form}"],
}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_on_hostile_paths(data, tmp_path, capsys):
    """Any 2-6 point path, CSV or JSON, at any scale or far from the origin, with drawn one-form and
    function files and maybe one hostile argv token: exit 0, 2, 3 or 4, and JSON on the right stream."""
    N = data.draw(st.integers(2, 6), "points")
    d = data.draw(st.sampled_from([1, 2]), "d")
    shape = data.draw(st.sampled_from(["walk", "zeros", "constant", "offset"]), "shape")
    scale = 10.0 ** data.draw(st.integers(-300, 150), "exponent")
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    if shape in ("walk", "offset"):
        pts = np.array(data.draw(st.lists(st.lists(unit, min_size=d, max_size=d), min_size=N, max_size=N)))
    else:
        pts = np.zeros((N, d)) + (data.draw(unit) if shape == "constant" else 0.0)
    depth = data.draw(st.integers(1, 3), "depth")
    if shape == "offset":  # valid values exp(x_i) far from the origin, with small steps
        offset, step = data.draw(st.sampled_from([(1e6, 1e-6), (1e8, 1e-4), (1e9, 1e-3)]), "offset")
        depth = max(depth, 2)
        text = offset_path_json(pts * step, offset, depth)
    elif data.draw(st.booleans(), "json"):
        with np.errstate(over="ignore", invalid="ignore"):  # the CLI refuses what overflows
            text = hostile_path_json(data, pts * scale, depth)
    else:
        text = "t," + ",".join(f"x{j + 1}" for j in range(d)) + "\n"
        text += "".join(",".join(repr(float(x)) for x in (t, *row)) + "\n" for t, row in enumerate(pts * scale))
    p = repr(data.draw(st.floats(1.0, 3.5), "p"))
    files = {"form": tmp_path / "form.json", "func": tmp_path / "func.json"}
    files["form"].write_text(hostile_polynomial_text(data, "form", {
        "d": d, "target_dim": 1, "degree": 1, "gamma": 2.5,
        "derivatives": [[[0.5] * d], [[[1.0 - j - k for k in range(d)] for j in range(d)]]],
    }, "d"))
    files["func"].write_text(hostile_polynomial_text(data, "function", {
        "in_dim": 1, "out_dim": 1, "degree": 2, "derivatives": [[0.0], [[1.0]], [[[2.0]]]],
    }, "in_dim"))
    form, func = str(files["form"]), str(files["func"])
    to_level = str(depth + data.draw(st.integers(int(shape == "offset"), 2), "raise"))
    commands = {
        "signature": [], "pvar": ["--p", p], "extend": ["--p", p, "--to-level", to_level],
        "integrate": ["--p", p, "--form", form], "certify": ["--p", p, "--form", form],
        "enhance": ["--p", p, "--form", form], "iterate": ["--p", p, "--form", form, "--form2", form],
        "product": ["--p", p, "--form", form, "--form2", form], "compose": ["--p", p, "--form", form, "--f", func],
    }
    token = data.draw(st.one_of(st.just("none"), st.sampled_from(["unknown", "schedule", "foreign", "p-text"])),
                      "argv token")  # none half the time
    for command, options in commands.items():
        extra = {"none": [], "unknown": ["--bogus"], "schedule": ["--schedule", "ltr"],
                 "foreign": [a.format(**files) for a in FOREIGN_FLAGS[command]], "p-text": ["--p", "x"]}[token]
        argv = [command, "--depth", str(depth)] + options + extra
        code, out, err = run_cli(argv, stdin_text=text, capsys=capsys)
        assert code in (0, 2, 3, 4), (argv, err)
        if code == 0:
            json.loads(out)
        else:
            assert out == "", (argv, err)
            refusal(err, code)
        if token != "none":
            assert code == 2, (argv, err)


@pytest.mark.parametrize(
    "system, index, message",
    [
        ("nilpotent", "a", "invalid literal for int() with base 10: 'a'"),
        ("nilpotent", "1..2", "invalid literal for int() with base 10: ''"),
        ("butcher", "3", "((3, ()),)"),
        ("butcher", "[1]", "expected a label at position 0 in '[1]'"),
    ],
)
def test_bad_index_messages_kept(system, index, message, capsys):
    code, out, err = run_cli(["pvar", "--p", "2"], stdin_text=bad_index_path(system, json.dumps(index)), capsys=capsys)
    assert (code, out) == (2, "")
    assert refusal(err, 2)["message"] == f"bad path object: {message}"


def test_iterate_grows_each_pvar_row_once(capsys, monkeypatch):
    # the three controls summed by iterate share one DP row store over the base path
    from cocycle import paths

    stores = []

    class Counting(paths._PVarRows):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(paths, "_PVarRows", Counting)
    code, out, err = run_cli(golden_argv("iterate_walk"), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "iterate_walk.json").read_text()
    shared = list(stores)
    del stores[:]
    # the reference: one fresh store per control, as each control once had
    monkeypatch.setattr(paths.SampledGroupPath, "pvar_rows", lambda self, p: Counting(self.increment_norms, p))
    code, fresh_out, err = run_cli(golden_argv("iterate_walk"), capsys=capsys)
    assert (code, fresh_out) == (0, out)
    cells = [sum(len(r) - 1 for r in s.rows.values()) for s in shared]
    fresh_cells = [sum(len(r) - 1 for r in s.rows.values()) for s in stores]
    assert len(shared) == 1 and len(stores) == 3
    assert cells[0] > 0 and fresh_cells == cells * 3
    for store in stores:
        assert store.rows.keys() == shared[0].rows.keys()
        for i, row in store.rows.items():
            assert [x.hex() for x in row.tolist()] == [x.hex() for x in shared[0].rows[i].tolist()]


@pytest.mark.parametrize("name, levels", [("extend_walk", 2), ("extend_walk_level4", 3)])
def test_extend_raises_each_level_powers_once(name, levels, capsys, monkeypatch):
    # only each level's p-variation reads a control, so each level's (N, N)
    # powers are built once; the count keeps no store alive, as the path
    # holds them weakly
    from cocycle import paths

    built = []

    class Counting(paths._PVarRows):
        def __call__(self, i, j):
            if self.powers is None:
                built.append(len(self.norms()))
            return super().__call__(i, j)

    monkeypatch.setattr(paths, "_PVarRows", Counting)
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert len(built) == levels


@pytest.mark.parametrize("name", ["certify_walk", "integrate_walk"])
def test_certificates_query_controls_by_rows(name, capsys, monkeypatch):
    # every window of a certificate is read through Control.rows; a call is the
    # one-window query, which these commands never make
    from cocycle.paths import Control

    calls, rows = [], []
    call, query = Control.__call__, Control.rows
    monkeypatch.setattr(Control, "__call__", lambda self, i, j: calls.append((i, j)) or call(self, i, j))
    monkeypatch.setattr(Control, "rows", lambda self, i, j: rows.append(np.size(i)) or query(self, i, j))
    code, out, err = run_cli(golden_argv(name), capsys=capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert calls == [] and rows
