"""Command-line front end: JSON in, JSON out, deterministic under --seed.

Output is 2-space-indented JSON, byte for byte what
``json.dumps(payload, indent=2, allow_nan=False)`` writes of the payload's
``to_dict`` form, and is written only once complete.  Handlers hand the
library objects themselves to ``_emit``; the writer, ``grassmann._json_text``
(with ``indent`` the stdlib falls back to its pure-Python encoder), inlines
each object's ``to_json`` text, whose Grassmann cells are rendered straight
from the blade stack, and the objects' ``to_dict`` is the parse of that
text.  The argument parser is built once per process, so repeated ``main``
calls share it.

Exit codes: 0 success, 1 domain violation (membership, singular body,
convergence domain, ...), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import selftest
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


def _group_payload(report, key: str) -> dict:
    return {
        key: report.ok,
        "defining_residual": report.defining_residual,
        "block_residual": report.block_residual,
        "sdet": report.sdet,
        "sdet_deviation": (report.sdet_deviation
                           if math.isfinite(report.sdet_deviation) else None),
    }


def _cmd_check_o0(args):
    report = check_o0(_parse(Supermatrix, _load_json(args.input)), args.tol)
    _emit(_group_payload(report, "is_o0"))
    return 0


def _cmd_check_so0(args):
    report = check_so0(_parse(Supermatrix, _load_json(args.input)), args.tol)
    _emit(_group_payload(report, "is_so0"))
    return 0


def _cmd_check_so0_algebra(args):
    report = check_so0_algebra(_parse(Supermatrix, _load_json(args.input)), args.tol)
    _emit({
        "is_so0_algebra": report.ok,
        "defining_residual": report.defining_residual,
        "block_residual": report.block_residual,
    })
    return 0


def _cmd_sdet(args):
    _emit(_parse(Supermatrix, _load_json(args.input)).sdet())
    return 0


def _cmd_exp(args):
    _emit(expm(_parse(Supermatrix, _load_json(args.input))))
    return 0


def _cmd_ln(args):
    _emit(logm(_parse(Supermatrix, _load_json(args.input))))
    return 0


def _cmd_decompose(args):
    dec = decompose_rotation(_parse(Supermatrix, _load_json(args.input)), args.tol)
    _emit({
        "X": dec.compact,
        "Y": dec.symmetric,
        "Z": dec.nilpotent,
        "residual": dec.residual,
    })
    return 0


def _cmd_lift(args):
    mat = _parse(Supermatrix, _load_json(args.input))
    element = lift_rotation(mat, args.tol)
    residual = (action_matrix(element) - mat).norm() / max(1.0, mat.norm())
    print(f"covering residual: {residual:.3e}", file=sys.stderr)
    _emit(element)
    return 0


def _cmd_act(args):
    data = _load_json(args.input)
    vector = _parse(Supervector, data["vector"])
    if "matrix" in data:
        mat = _parse(Supermatrix, data["matrix"])
    elif "spin" in data:
        mat = action_matrix(_parse(SpinElement, data["spin"]))
    else:
        raise InputError("act expects a 'matrix' or 'spin' key")
    _emit(apply_matrix(mat, vector))
    return 0


def _cmd_reflect(args):
    data = _load_json(args.input)
    axis = _parse(Supervector, data["w"])
    mirror = reflection_matrix(axis)
    payload = {"matrix": mirror, "sdet": mirror.sdet()}
    if "x" in data:
        payload["reflected"] = reflect(axis, _parse(Supervector, data["x"]))
    _emit(payload)
    return 0


def _cmd_inner(args):
    data = _load_json(args.input)
    _emit(inner(_parse(Supervector, data["x"]), _parse(Supervector, data["y"])))
    return 0


def _cmd_phi(args):
    biv = _parse(ExtendedSuperbivector, _load_json(args.input))
    _emit(bivector_to_matrix(biv))
    return 0


def _cmd_phi_inv(args):
    mat = _parse(Supermatrix, _load_json(args.input))
    _emit(matrix_to_bivector(mat, args.tol))
    return 0


def _cmd_osc_exp(args):
    expansion = oscillator_exp(args.theta, args.plane, args.m, args.n,
                               args.grassmann_order, cap=args.cap)
    _emit({
        "element": expansion.element,
        "truncation_bound": expansion.truncation_bound,
    })
    return 0


def _cmd_frft(args):
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    if not all(math.isfinite(t) for t in thetas):
        raise InputError("thetas must be finite")
    element = fractional_fourier(thetas, args.m, args.grassmann_order)
    _emit({
        "element": element,
        "matrix": action_matrix(element),
    })
    return 0


def _cmd_selftest(args):
    results = selftest.run_all(seed=args.seed, only=args.only)
    print(selftest.format_table(results), file=sys.stderr)
    _emit({
        "seed": args.seed,
        "results": [
            {"index": r.index, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 1


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
    "--seed": dict(type=int, default=selftest.DEFAULT_SEED,
                   help="seed of the acceptance suite"),
    "--cap": dict(type=_int_in(0), default=8, help="fermionic degree cap"),
    "--m": dict(type=_int_in(0), default=3, help="bosonic dimension"),
    "--n": dict(type=_int_in(0), default=1,
                help="number of fermionic planes (q = 2n)"),
    "--N": dict(dest="grassmann_order", type=_int_in(0, MAX_ORDER), default=4,
                help="Grassmann algebra order"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="superspin",
        description="Superspace rotations, spin lifts and Grassmann-valued "
                    "linear algebra; JSON on stdin/stdout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *options, needs_input=True, **extra):
        cmd = sub.add_parser(name, **extra)
        if needs_input:
            cmd.add_argument("--input", "-i", default=None,
                             help="input JSON path (default: stdin)")
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
        cmd.set_defaults(handler=handler)
        return cmd

    add("check-o0", _cmd_check_o0, "--tol", help="inner-product-preservation test")
    add("check-so0", _cmd_check_so0, "--tol", help="superrotation membership test")
    add("check-so0-algebra", _cmd_check_so0_algebra, "--tol",
        help="Lie algebra membership test")
    add("sdet", _cmd_sdet, help="Berezinian of a supermatrix")
    add("exp", _cmd_exp, help="supermatrix exponential")
    add("ln", _cmd_ln, help="supermatrix logarithm near the identity")
    add("decompose", _cmd_decompose, "--tol",
        help="three-exponential decomposition of a superrotation")
    add("lift", _cmd_lift, "--tol", help="spin element covering a superrotation")
    add("act", _cmd_act, help="apply a supermatrix or spin element to a vector")
    add("reflect", _cmd_reflect, help="reflection along a supersphere vector")
    add("inner", _cmd_inner, help="generalized inner product of supervectors")
    add("phi", _cmd_phi, help="supermatrix of a superbivector's commutator action")
    add("phi-inv", _cmd_phi_inv, "--tol",
        help="superbivector of an algebra supermatrix")
    osc = add("osc-exp", _cmd_osc_exp, "--cap", "--m", "--n", "--N",
              needs_input=False, help="normal-ordered oscillator exponential")
    osc.add_argument("--theta", type=_finite_float, required=True)
    osc.add_argument("--plane", type=_int_in(1), default=1,
                     help="fermionic plane, 1..n")
    frft = add("frft", _cmd_frft, "--m", "--N", needs_input=False,
               help="fractional Fourier spin element")
    frft.add_argument("--thetas", required=True,
                      help="comma-separated orders, one per plane")
    st = add("selftest", _cmd_selftest, "--seed", needs_input=False,
             help="run the acceptance suite")
    st.add_argument("--only", type=_criteria, default=None,
                    help="comma-separated criterion indices to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "osc-exp" and args.plane > args.n:
        parser.error(f"argument --plane: {args.plane} exceeds --n {args.n}")
    try:
        return args.handler(args)
    except AlgebraError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"malformed input: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
