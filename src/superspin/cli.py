"""Command-line front end: JSON in, JSON out, deterministic under --seed.

Each subcommand is one row of ``build_parser``: its name, what ``--input``
decodes as (a payload class, a raw JSON object, or nothing: ``osc-exp``,
``frft`` and ``selftest`` read only flags), its flags and its compute.
``main`` is the one request path: read, decode, compute, ``_emit``, exit
code.  Computes look library functions up when they run, not when the
parser is built, which is once per process.

Output is 2-space-indented JSON, byte for byte what
``json.dumps(payload, indent=2, allow_nan=False)`` writes of the payload's
``to_dict`` form, and is written only once complete.  Computes return a
payload tree: a library object, or str-keyed dicts and lists of them and of
JSON scalars.  The one writer, ``grassmann._json_text``, takes nothing else
(TypeError); it writes each object's JSON tree, whose Grassmann cells hold
their values straight from the blade stack, as one format string applied
once to all the cell values.  An object's ``to_json()`` (no argument) is
that text and its ``to_dict()`` the parse of it.

Exit codes: 0 success, 1 domain violation (membership, singular body,
convergence domain, ...) or a failed ``selftest`` criterion, 2 malformed
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .clifford import (
    ExtendedSuperbivector,
    Supervector,
    apply_matrix,
    bivector_to_matrix,
    inner,
    matrix_to_bivector,
    reflect,
    reflection_matrix,
)
from .exceptions import AlgebraError
from .grassmann import DEFAULT_TOL, MAX_ORDER, _json_text
from .orthosymplectic import check_o0, check_so0, check_so0_algebra, decompose_rotation
from .spin import SpinElement, action_matrix, fractional_fourier, lift_rotation, oscillator_exp
from .supermatrix import Supermatrix, expm, logm


class InputError(Exception):
    """Malformed input: bad JSON, wrong schema, non-finite numbers."""


def _reject_constant(name: str):
    raise InputError(f"non-finite JSON constant {name!r}")


def _load_json(path: str | None):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc


def _emit(payload) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _parse(kind, data):
    """Decode a payload; any decoding failure is malformed input, not a
    domain violation."""
    try:
        return kind.from_dict(data)
    except (AlgebraError, KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise InputError(f"cannot decode {kind.__name__}: {exc}") from exc


def _algebra_payload(key: str, report) -> dict:
    return {key: report.ok, "defining_residual": report.defining_residual,
            "block_residual": report.block_residual}


def _group_payload(key: str, report) -> dict:
    deviation = report.sdet_deviation
    return {**_algebra_payload(key, report), "sdet": report.sdet,
            "sdet_deviation": deviation if math.isfinite(deviation) else None}


def _decompose(mat, args):
    dec = decompose_rotation(mat, args.tol)
    return {"X": dec.compact, "Y": dec.symmetric, "Z": dec.nilpotent,
            "residual": dec.residual}


def _lift(mat, args):
    element = lift_rotation(mat, args.tol)
    residual = (action_matrix(element) - mat).norm() / max(1.0, mat.norm())
    print(f"covering residual: {residual:.3e}", file=sys.stderr)
    return element


def _act(data, _args):
    vector = _parse(Supervector, data["vector"])
    if "matrix" in data:
        mat = _parse(Supermatrix, data["matrix"])
    elif "spin" in data:
        mat = action_matrix(_parse(SpinElement, data["spin"]))
    else:
        raise InputError("act expects a 'matrix' or 'spin' key")
    return apply_matrix(mat, vector)


def _reflect(data, _args):
    axis = _parse(Supervector, data["w"])
    mirror = reflection_matrix(axis)
    payload = {"matrix": mirror, "sdet": mirror.sdet()}
    if "x" in data:
        payload["reflected"] = reflect(axis, _parse(Supervector, data["x"]))
    return payload


def _osc_exp(_input, args):
    if args.plane > args.n:
        build_parser().error(f"argument --plane: {args.plane} exceeds --n {args.n}")
    expansion = oscillator_exp(args.theta, args.plane, args.m, args.n,
                               args.grassmann_order, cap=args.cap)
    return {"element": expansion.element, "truncation_bound": expansion.truncation_bound}


def _frft(_input, args):
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    if not all(math.isfinite(t) for t in thetas):
        raise InputError("thetas must be finite")
    element = fractional_fourier(thetas, args.m, args.grassmann_order)
    return {"element": element, "matrix": action_matrix(element)}


def _selftest(_input, args):
    from . import selftest  # here, so the other subcommands never load the suite

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_all(seed=seed, only=args.only)
    print(selftest.format_table(results), file=sys.stderr)
    return {
        "seed": seed,
        "results": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("value must be finite")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance {value} is negative")
    return value


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high] (no upper bound if high is None)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"[{low}, {high}]" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"{value} is out of range ({bound})")
        return value
    parse.__name__ = "int"
    return parse


def _criteria(text: str) -> list[int]:
    """argparse type: comma-separated acceptance criterion indices."""
    from . import selftest

    count = len(selftest.CRITERIA)
    try:
        indices = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        indices = []
    if not indices or not all(1 <= i <= count for i in indices):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a list of criterion indices in [1, {count}]")
    return indices


# Each option exists only on the subcommands that read it.
_OPTIONS = {
    "--tol": dict(type=_tolerance, default=DEFAULT_TOL,
                  help="comparison tolerance, finite and >= 0 (default 1e-9)"),
    "--seed": dict(type=int, default=None, help="seed of the acceptance suite"),
    "--only": dict(type=_criteria, default=None,
                   help="comma-separated criterion indices to run"),
    "--cap": dict(type=_int_in(0), default=8, help="fermionic degree cap"),
    "--m": dict(type=_int_in(0), default=3, help="bosonic dimension"),
    "--n": dict(type=_int_in(0), default=1,
                help="number of fermionic planes (q = 2n)"),
    "--N": dict(dest="grassmann_order", type=_int_in(0, MAX_ORDER), default=4,
                help="Grassmann algebra order"),
    "--theta": dict(type=_finite_float, required=True),
    "--plane": dict(type=_int_in(1), default=1, help="fermionic plane, 1..n"),
    "--thetas": dict(required=True, help="comma-separated orders, one per plane"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after.

    Each subcommand is one ``add`` row: its name; what ``--input`` decodes
    as (a payload class, ``dict`` for a raw JSON object, or None for no
    input); its compute, called as ``compute(decoded, args)`` and returning
    the payload; and its flags from ``_OPTIONS``."""
    parser = argparse.ArgumentParser(
        prog="superspin",
        description="Superspace rotations, spin lifts and Grassmann-valued "
                    "linear algebra; JSON on stdin/stdout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, kind, compute, *options, **extra):
        cmd = sub.add_parser(name, **extra)
        if kind is not None:
            cmd.add_argument("--input", "-i", default=None,
                             help="input JSON path (default: stdin)")
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
        cmd.set_defaults(kind=kind, compute=compute)

    add("check-o0", Supermatrix,
        lambda m, a: _group_payload("is_o0", check_o0(m, a.tol)), "--tol",
        help="inner-product-preservation test")
    add("check-so0", Supermatrix,
        lambda m, a: _group_payload("is_so0", check_so0(m, a.tol)), "--tol",
        help="superrotation membership test")
    add("check-so0-algebra", Supermatrix,
        lambda m, a: _algebra_payload("is_so0_algebra", check_so0_algebra(m, a.tol)),
        "--tol", help="Lie algebra membership test")
    add("sdet", Supermatrix, lambda m, _: m.sdet(), help="Berezinian of a supermatrix")
    add("exp", Supermatrix, lambda m, _: expm(m), help="supermatrix exponential")
    add("ln", Supermatrix, lambda m, _: logm(m),
        help="supermatrix logarithm near the identity")
    add("decompose", Supermatrix, _decompose, "--tol",
        help="three-exponential decomposition of a superrotation")
    add("lift", Supermatrix, _lift, "--tol", help="spin element covering a superrotation")
    add("act", dict, _act, help="apply a supermatrix or spin element to a vector")
    add("reflect", dict, _reflect, help="reflection along a supersphere vector")
    add("inner", dict,
        lambda d, _: inner(_parse(Supervector, d["x"]), _parse(Supervector, d["y"])),
        help="generalized inner product of supervectors")
    add("phi", ExtendedSuperbivector, lambda b, _: bivector_to_matrix(b),
        help="supermatrix of a superbivector's commutator action")
    add("phi-inv", Supermatrix, lambda m, a: matrix_to_bivector(m, a.tol), "--tol",
        help="superbivector of an algebra supermatrix")
    add("osc-exp", None, _osc_exp, "--cap", "--m", "--n", "--N", "--theta", "--plane",
        help="normal-ordered oscillator exponential")
    add("frft", None, _frft, "--m", "--N", "--thetas",
        help="fractional Fourier spin element")
    add("selftest", None, _selftest, "--seed", "--only", help="run the acceptance suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, read and decode the input, compute, emit; a payload that
    reports ``all_passed: false`` (a failed selftest criterion) exits 1."""
    args = build_parser().parse_args(argv)
    try:
        data = None if args.kind is None else _load_json(args.input)
        if args.kind not in (None, dict):
            data = _parse(args.kind, data)
        payload = args.compute(data, args)
        _emit(payload)
    except AlgebraError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"malformed input: {exc!r}", file=sys.stderr)
        return 2
    return int(isinstance(payload, dict) and payload.get("all_passed") is False)


if __name__ == "__main__":
    sys.exit(main())
