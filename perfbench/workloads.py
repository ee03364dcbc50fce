"""The benchmark workloads: seeded inputs, timed requests, oracles.

Every input comes from the workload seed through superspin's own seeded
generators, built once during set-up.  A request is one unit of user work;
its oracle runs after the timer stops.  Requests look library functions up
on the ``superspin`` modules at call time, so the tracer's patches apply.

- ``clifford-reflect``: reflections, inner/wedge, the commutator action, the
  phi round trip and oscillator exponentials at (4, 2, 4).  Dominated by
  CliffordElement.multiply and GrassmannNumber products; matrix products are
  a small share, so it bypasses any matrix-kernel change.
- ``cli-mixed``: in-process ``superspin.cli.main`` calls over ten subcommands
  (lift on two rotations) on (6, 2, 4) JSON payloads: wide, shallow
  matrices, the Gauss determinant path at p = 6, and JSON decode/encode plus
  argparse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Distinct inputs per workload and seed; each pass of the loop runs every one
# once.  The pools are small so that a run makes many passes and every input's
# median latency is taken over many moments of the run.
CLIFFORD_POOL = 20
CLI_SETS = 2

# Criterion 6's covering tolerance, also used for every residual check here.
RESIDUAL_TOL = 1e-8

# The cli-mixed round robin: (subcommand, the payload file it reads).  The
# subcommands' latencies form separate clusters, so the slots are laid out
# for the quantiles: with 11 slots the median falls in the middle of the
# sixth cluster (check-so0), and with lift, the slowest, given two slots on
# two rotations, p90 falls in the middle of the lift cluster rather than on
# the edge between two clusters, where it would jump from run to run.
CLI_COMMANDS = [
    ("check-so0", "rotation"), ("sdet", "rotation"), ("exp", "algebra"),
    ("decompose", "rotation"), ("lift", "rotation"), ("lift", "rotation-b"),
    ("reflect", "reflect"), ("inner", "pair"), ("act", "action"),
    ("phi-inv", "algebra"), ("check-so0-algebra", "algebra"),
]


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


@dataclass
class Workload:
    requests: list[Request]
    inputs: list  # JSON-ready dicts; their digest shows seed -> same inputs

    def digest(self) -> str:
        text = json.dumps(self.inputs, sort_keys=True, allow_nan=False)
        return hashlib.sha256(text.encode()).hexdigest()


def _seed_base(seed: int, index: int) -> int:
    return seed * 1000 + 10 * index


def _residual(got, want) -> float:
    return (got - want).norm() / max(1.0, want.norm())


def _matrix_inner(ss, x, y):
    """x^T Q y through the matrix route, the oracle for ``inner``."""
    gram = ss.q_gram_matrix(x.m, x.n, x.order).mat
    return (x.to_column().transpose() @ gram @ y.to_column()).entry(0, 0)


# -- clifford-reflect -----------------------------------------------------------


def clifford_reflect(ss, seed: int) -> Workload:
    m, n, order = 4, 2, 4
    rng = np.random.default_rng(seed)
    requests, inputs = [], []
    for i in range(CLIFFORD_POOL):
        base = _seed_base(seed, i)
        w = ss.random_sphere_vector(m, n, order, seed=base)
        x = ss.random_supervector(m, n, order, seed=base + 1)
        y = ss.random_supervector(m, n, order, seed=base + 2)
        biv = ss.matrix_to_bivector(ss.random_so0(m, n, order, seed=base + 3))
        if i % 4 == 0:
            k = int(rng.integers(-3, 4))
            theta, sign = k * math.pi, (-1.0) ** k
        else:
            theta, sign = float(rng.uniform(0.2, 2.9)), None
        requests.append(_clifford_request(ss, w, x, y, biv, theta, sign))
        inputs.append({"w": w.to_dict(), "x": x.to_dict(), "y": y.to_dict(),
                       "b": biv.to_dict(), "theta": theta})
    return Workload(requests, inputs)


def _clifford_request(ss, w, x, y, biv, theta, sign) -> Request:
    m, n, order = x.m, x.n, x.order
    expected_inner = _matrix_inner(ss, x, y)
    x_along_w = ss.inner(x, w)

    def run():
        once = ss.reflect(w, x)
        back = ss.reflect(w, once)
        product = ss.inner(x, y)
        ss.wedge(x, y)
        via_commutator = ss.commutator_action(biv, x)
        mat = ss.bivector_to_matrix(biv)
        via_matrix = ss.apply_matrix(mat, x)
        round_trip = ss.matrix_to_bivector(mat)
        osc = ss.oscillator_exp(theta, 1, m, n, order)
        return once, back, product, via_commutator, via_matrix, round_trip, osc

    def check(out):
        once, back, product, via_commutator, via_matrix, round_trip, osc = out
        if (ss.inner(once, w) + x_along_w).norm() > RESIDUAL_TOL:
            return "reflection does not flip the component along w"
        if not back.isclose(x, RESIDUAL_TOL):
            return "reflection is not an involution"
        if not product.isclose(expected_inner, RESIDUAL_TOL):
            return "inner product differs from x^T Q y"
        if not via_commutator.isclose(via_matrix, RESIDUAL_TOL):
            return "commutator route differs from matrix route"
        if not round_trip.isclose(biv, RESIDUAL_TOL):
            return "phi round trip failed"
        if sign is not None:
            exact = ss.CliffordElement.scalar(m, n, order, sign, osc.element.cap)
            if (osc.element - exact).norm() != 0.0 or osc.truncation_bound != 0.0:
                return f"oscillator at theta={theta!r} is not exactly {sign:+g}"
        elif not math.isfinite(osc.truncation_bound):
            return "oscillator truncation bound is not finite"
        return None

    return Request("reflect", run, check)


# -- cli-mixed ------------------------------------------------------------------


def cli_mixed(ss, seed: int, scratch_dir: str) -> Workload:
    """Writes the payload files into ``scratch_dir``, which the caller owns."""
    from superspin import cli

    m, n, order = 6, 2, 4
    requests, inputs = [], []
    for i in range(CLI_SETS):
        base = _seed_base(seed, i)
        rot = ss.random_rotation(m, n, order, seed=base)
        alg = ss.random_so0(m, n, order, seed=base + 1)
        w = ss.random_sphere_vector(m, n, order, seed=base + 2)
        x = ss.random_supervector(m, n, order, seed=base + 3)
        y = ss.random_supervector(m, n, order, seed=base + 4)
        rot_b = ss.random_rotation(m, n, order, seed=base + 5)
        payloads = {
            "rotation": rot.to_dict(),
            "rotation-b": rot_b.to_dict(),
            "algebra": alg.to_dict(),
            "reflect": {"w": w.to_dict(), "x": x.to_dict()},
            "pair": {"x": x.to_dict(), "y": y.to_dict()},
            "action": {"matrix": rot.to_dict(), "vector": x.to_dict()},
        }
        paths = {}
        for key, payload in payloads.items():
            paths[key] = os.path.join(scratch_dir, f"{key}-{i}.json")
            with open(paths[key], "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        inputs.append(payloads)
        oracles = _cli_oracles(ss, alg, w, x, _matrix_inner(ss, x, y))
        for command, payload_key in CLI_COMMANDS:
            argv = [command, "--input", paths[payload_key]]
            requests.append(_cli_request(cli, command, argv, oracles[command]))
    return Workload(requests, inputs)


def _cli_request(cli, command, argv, oracle) -> Request:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0:
            return f"{command}: exit code {code}: {err.strip()[:200]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{command}: stdout is not JSON ({exc})"
        return oracle(payload, err)

    return Request(command, run, check)


def _cli_oracles(ss, alg, w, x, expected_inner) -> dict:
    """Per-subcommand invariants on the decoded CLI output."""
    norm_x = ss.inner(x, x)
    x_along_w = ss.inner(x, w)

    def near(got, value, what):
        return None if (got - value).norm() <= RESIDUAL_TOL else \
            f"{what} = {got - value!r}"

    def check_so0(payload, _err):
        return None if payload["is_so0"] is True else "rotation not in SO_0"

    def sdet(payload, _err):
        return near(ss.GrassmannNumber.from_dict(payload), 1.0, "sdet(M) - 1")

    def exp(payload, _err):
        rotation = ss.Supermatrix.from_dict(payload)
        return None if ss.check_so0(rotation).ok else "exp of so_0 left SO_0"

    def decompose(payload, _err):
        residual = payload["residual"]
        return None if residual <= RESIDUAL_TOL else \
            f"decompose residual {residual:.3e}"

    def lift(payload, err):
        element = ss.SpinElement.from_dict(payload)
        if len(element.factors) != 3:
            return "lift did not return three factors"
        residual = float(err.rsplit(":", 1)[1])
        return None if residual <= RESIDUAL_TOL else \
            f"covering residual {residual:.3e}"

    def reflect(payload, _err):
        bad = near(ss.GrassmannNumber.from_dict(payload["sdet"]), -1.0,
                   "sdet(reflection) + 1")
        if bad:
            return bad
        image = ss.Supervector.from_dict(payload["reflected"])
        return near(ss.inner(image, w), -x_along_w, "<wxw, w> + <x, w>") or \
            near(ss.inner(image, image), norm_x, "<wxw, wxw> - <x, x>")

    def inner(payload, _err):
        return near(ss.GrassmannNumber.from_dict(payload), expected_inner,
                    "<x, y> - x^T Q y")

    def act(payload, _err):
        image = ss.Supervector.from_dict(payload)
        return near(ss.inner(image, image), norm_x, "<Mx, Mx> - <x, x>")

    def phi_inv(payload, _err):
        biv = ss.ExtendedSuperbivector.from_dict(payload)
        residual = _residual(ss.bivector_to_matrix(biv), alg)
        return None if residual <= RESIDUAL_TOL else \
            f"phi(phi_inv(X)) residual {residual:.3e}"

    def check_so0_algebra(payload, _err):
        return None if payload["is_so0_algebra"] is True else \
            "algebra element not in so_0"

    return {"check-so0": check_so0, "sdet": sdet, "exp": exp,
            "decompose": decompose, "lift": lift, "reflect": reflect,
            "inner": inner, "act": act, "phi-inv": phi_inv,
            "check-so0-algebra": check_so0_algebra}


def build(name: str, ss, seed: int, scratch_dir: str) -> Workload:
    if name == "clifford-reflect":
        return clifford_reflect(ss, seed)
    if name == "cli-mixed":
        return cli_mixed(ss, seed, scratch_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ["clifford-reflect", "cli-mixed"]
