"""cocycle: signatures, extension, and rough/dominated-path integration.

All subcommands read a CSV path (``t,x1,...,xd``) or a path JSON from a file
(or stdin), print one deterministic JSON document to stdout, and exit with
0 on success, 2 on malformed input, 3 on a certificate failure and 4 on
a numeric failure (overflow, invalid or zero-division floating point).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import serialize
from .algebra import WordSystem
from .dominated import (
    DominatedPath,
    compose as compose_op,
    enhance as enhance_op,
    iterated_integral,
    product as product_op,
)
from .extension import extend_to_level
from .one_forms import (
    CertificateError,
    RoughOneForm,
    integrable_condition_check,
    slowly_varying_certificate,
)
from .paths import SampledGroupPath, control_from_pvar, p_variation, signature_piecewise_linear
from .serialize import InputError, dumps

CERTIFICATE_GRID_CAP = 48  # full slowly-varying certificates only below this


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.input, *more = args.input
        if more:
            parser.error("unrecognized arguments: " + " ".join(more))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            obj = args.run(args)
    except InputError as exc:
        _fail(exc, 2)
        return 2
    except CertificateError as exc:
        _fail(exc, 3)
        return 3
    except ArithmeticError as exc:
        _fail(exc, 4)
        return 4
    try:  # non-finite output values are refused here, as numeric failures
        sys.stdout.write(dumps(obj) + "\n")
    except OverflowError as exc:
        _fail(exc, 4)
        return 4
    return 0


def _fail(exc: Exception, code: int):
    payload = {"error": type(exc).__name__, "message": str(exc), "exit": code}
    sys.stderr.write(dumps(payload) + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: one JSON document and exit 2, like every refusal."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


class _Command(_Parser):
    """A subcommand: its options are read before its input, so the value of an
    option it does not take is refused with that option, never read as the input."""

    _reading_options = False

    def parse_known_args(self, args=None, namespace=None):
        if self._reading_options:  # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._reading_options = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._reading_options = False


@functools.cache  # one parser per process: a fresh one per call leaves cyclic garbage behind
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cocycle", description=__doc__)
    sub = parser.add_subparsers(required=True, dest="command", parser_class=_Command)

    def command(name, run, help, p=True, coupling=False):
        """A subcommand with the options it reads: --p where a p-variation enters,
        --theta and --form on the couplings."""
        c = sub.add_parser(name, help=help)
        c.add_argument("input", nargs="*", default=["-"], help="CSV/JSON input file (default stdin)")
        c.add_argument("--depth", type=int, default=2, help="signature truncation level")
        if p:
            c.add_argument("--p", type=float, default=2.0, help="p-variation exponent")
        if coupling:
            c.add_argument("--theta", type=float, default=None, help="sewing exponent override")
            c.add_argument("--form", required=True, help="polynomial one-form JSON file")
        c.add_argument(
            "--system", choices=["nilpotent", "butcher"], default=None,
            help="expected coefficient system (butcher paths must come as JSON)",
        )
        c.set_defaults(run=run)
        return c

    command("signature", cmd_signature, "running signature of a CSV path", p=False)
    command("pvar", cmd_pvar, "p-variation of a path")
    c = command("extend", cmd_extend, "extend a group path to a higher level")
    c.add_argument("--tol", type=float, default=1e-10, help="relative grouplike tolerance of the input")
    c.add_argument("--to-level", type=int, required=True, dest="to_level")
    command("integrate", cmd_integrate, "rough integration of a one-form file", coupling=True)
    c = command("iterate", cmd_iterate, "iterated integral of two one-form couplings", coupling=True)
    c.add_argument("--form2", required=True)
    c = command("product", cmd_product, "tensor product of two one-form couplings", coupling=True)
    c.add_argument("--form2", required=True)
    c = command("compose", cmd_compose, "compose a coupling with a polynomial function", coupling=True)
    c.add_argument("--f", required=True, dest="func", help="polynomial function JSON file")
    command("enhance", cmd_enhance, "group enhancement of a one-form coupling", coupling=True)
    command("certify", cmd_certify, "slowly-varying and integrable certificates", coupling=True)
    return parser


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc


def _read_json(source: str, what: str):
    try:
        return json.loads(_read_text(source))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what} JSON ({source}): {exc}") from exc


def _load_path(args, depth: int | None = None) -> SampledGroupPath:
    if args.depth < 1:
        raise InputError(f"--depth must be at least 1, got {args.depth}")
    p, theta = getattr(args, "p", None), getattr(args, "theta", None)  # only some commands take them
    if p is not None and not p >= 1:
        raise InputError(f"--p must be at least 1, got {p}")
    if theta is not None and not math.isfinite(theta):
        raise InputError(f"--theta must be finite, got {theta}")
    text = _read_text(args.input)
    want = getattr(args, "system", None)
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON input: {exc}") from exc
        path = serialize.path_from_obj(obj)
        if want is not None and path.system.kind != want:
            raise InputError(f"input path is {path.system.kind}, expected {want}")
        return path
    if want == "butcher":
        raise InputError(
            "CSV input builds word-system signatures only; provide forest-system "
            "paths as JSON (no automatic geometric-to-branched translation)"
        )
    times, pts = serialize.read_csv_path(text)
    depth = depth or args.depth
    serialize.require_stacked_size("nilpotent", pts.shape[1], depth, len(pts))
    return signature_piecewise_linear(pts, depth, times=times)


def cmd_signature(args) -> dict:
    return serialize.path_to_obj(_load_path(args))


def cmd_pvar(args) -> dict:
    depth = args.depth
    path = _load_path(args, depth=depth)
    value = p_variation(path, args.p)
    return {
        "p": args.p,
        "depth": path.level,
        "window": [float(path.times[0]), float(path.times[-1])],
        "p_variation": value,
    }


def cmd_extend(args) -> dict:
    path = _load_path(args)
    if args.to_level < path.level:
        raise InputError(f"--to-level {args.to_level} is below the path level {path.level}")
    serialize.require_stacked_size(path.system.kind, path.d, args.to_level, len(path))
    tol = max(args.tol, 1e-12) * np.maximum(1.0, path.system.norm(path.levels))
    if not path.system.grouplike_check(path.levels, tol):
        raise InputError("input path values fail the grouplike relations")
    extended, report = extend_to_level(path, args.to_level, args.p)
    obj = serialize.path_to_obj(extended)
    obj["pvar_ratios"] = [None if r is None else float(r) for r in report.pvar_ratios]
    return obj


def _coupling_from_form(args, form_file: str, base: SampledGroupPath | None = None) -> DominatedPath:
    """Rough-integration coupling of a one-form file, over ``base`` or the input path."""
    f = serialize.one_form_from_obj(_read_json(form_file, "one-form"))
    if base is None:
        base = _load_path(args, depth=max(args.depth, int(math.floor(args.p))))
    if not isinstance(base.system, WordSystem):
        raise InputError("one-form couplings need a word-system (nilpotent) path")
    if base.d != f.in_dim:
        raise InputError(f"path dimension {base.d} != one-form dimension {f.in_dim}")
    if base.level < math.floor(args.p):
        raise InputError(f"path level {base.level} is below [p] = {math.floor(args.p)}")
    form = RoughOneForm(f, base, args.p)
    omega = control_from_pvar(base, args.p)
    theta = args.theta if args.theta is not None else form.theta
    return DominatedPath.from_form(base, form, omega, theta, args.p)


def _trace_payload(d: DominatedPath) -> dict:
    cert: dict = {}
    report = integrable_condition_check(d.form, d.base, d.omega, d.theta, max_triples=512)
    cert["integrable"] = {
        "M": report.M,
        "holder_ratio": report.ratio,
        "theta": report.theta,
        "ok": bool(report.ok),
    }
    if len(d.base) <= CERTIFICATE_GRID_CAP:
        slow = slowly_varying_certificate(d.form, d.base, d.omega, d.theta, d.p)
        cert["slowly_varying"] = {
            "M": slow.M,
            "quotients": {str(k): v for k, v in slow.quotients.items()},
            "norm": slow.beta_norm,
        }
    rows = [
        {"t": float(t), "value": [float(x) for x in row]}
        for t, row in zip(d.base.times, d.trace)
    ]
    return {"trace": rows, "theta": d.theta, "p": d.p, "certificate": cert}


def cmd_integrate(args) -> dict:
    return _trace_payload(_coupling_from_form(args, args.form))


def cmd_iterate(args) -> dict:
    d1 = _coupling_from_form(args, args.form)
    d2 = _coupling_from_form(args, args.form2, d1.base)
    return _trace_payload(iterated_integral(d1, d2))


def cmd_product(args) -> dict:
    d1 = _coupling_from_form(args, args.form)
    d2 = _coupling_from_form(args, args.form2, d1.base)
    return _trace_payload(product_op(d1, d2))


def cmd_compose(args) -> dict:
    d = _coupling_from_form(args, args.form)
    f = serialize.function_from_obj(_read_json(args.func, "function"))
    if f.in_dim != d.dim:
        raise InputError(f"function dimension {f.in_dim} != coupling dimension {d.dim}")
    return _trace_payload(compose_op(d, f))


def cmd_enhance(args) -> dict:
    d = _coupling_from_form(args, args.form)
    enh = enhance_op(d)
    obj = serialize.path_to_obj(enh.as_sampled_path())
    obj["multiplicativity_residual"] = enh.multiplicativity_residual()
    return obj


def cmd_certify(args) -> dict:
    d = _coupling_from_form(args, args.form)
    slow = slowly_varying_certificate(d.form, d.base, d.omega, d.theta, d.p)
    integ = integrable_condition_check(d.form, d.base, d.omega, d.theta, max_triples=512)
    return {
        "theta": d.theta,
        "p": d.p,
        "slowly_varying": {
            "M": slow.M,
            "quotients": {str(k): v for k, v in slow.quotients.items()},
            "norm": slow.beta_norm,
            "worst_pair": list(slow.worst_pair) if slow.worst_pair else None,
        },
        "integrable": {
            "M": integ.M,
            "holder_ratio": integ.ratio,
            "ok": bool(integ.ok),
            "worst_triple": list(integ.worst_triple) if integ.worst_triple else None,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
