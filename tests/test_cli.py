"""Command-line interface: schemas, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    ExtendedSuperbivector,
    GrassmannNumber,
    SpinElement,
    Supermatrix,
    Supervector,
    check_so0_algebra,
    matrix_to_bivector,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supervector,
)
from superspin.cli import main
from superspin.exceptions import AlgebraError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def rotation(tmp_path):
    mat = random_rotation(2, 1, 2, seed=5, factors=2)
    return mat, write_json(tmp_path, "rotation.json", mat.to_dict())


def test_check_so0_accepts_rotation(capsys, rotation):
    _, path = rotation
    code, out, _ = run_cli(capsys, "check-so0", "-i", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_so0"] is True
    assert payload["sdet_deviation"] <= 1e-9


def test_check_o0_reports_failure_without_error(capsys, tmp_path):
    from superspin import random_supermatrix

    mat = random_supermatrix(2, 1, 2, seed=9)
    path = write_json(tmp_path, "bad.json", mat.to_dict())
    code, out, _ = run_cli(capsys, "check-o0", "-i", path)
    assert code == 0
    assert json.loads(out)["is_o0"] is False


def test_sdet_roundtrips_json(capsys, rotation):
    mat, path = rotation
    code, out, _ = run_cli(capsys, "sdet", "-i", path)
    assert code == 0
    sdet = GrassmannNumber.from_dict(json.loads(out))
    assert (sdet - mat.sdet()).norm() <= 1e-12


def test_exp_ln_pipeline(capsys, tmp_path):
    algebra = random_so0(2, 1, 2, seed=7, scale=0.15).nilpotent_part()
    path = write_json(tmp_path, "algebra.json", algebra.to_dict())
    code, out, _ = run_cli(capsys, "exp", "-i", path)
    assert code == 0
    exp_payload = json.loads(out)
    path2 = write_json(tmp_path, "group.json", exp_payload)
    code, out, _ = run_cli(capsys, "ln", "-i", path2)
    assert code == 0
    recovered = Supermatrix.from_dict(json.loads(out))
    assert (recovered - algebra).norm() <= 1e-10


def test_ln_domain_violation_exit_code(capsys, tmp_path):
    w = random_sphere_vector(2, 1, 2, seed=3)
    from superspin import reflection_matrix

    path = write_json(tmp_path, "mirror.json", reflection_matrix(w).to_dict())
    code, _, err = run_cli(capsys, "ln", "-i", path)
    assert code == 1
    assert "domain violation" in err


def test_exp_with_overflowing_norm_is_a_domain_violation(tmp_path):
    body = np.eye(3, dtype=complex)
    body[0, 1] = body[1, 0] = 1e308
    path = write_json(tmp_path, "huge.json", Supermatrix.from_body(3, 0, body, 2).to_dict())
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "superspin", "exp", "-i", path],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("domain violation:")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", ["check-so0-algebra", "check-so0", "check-o0", "phi-inv"])
def test_an_overflowing_residual_is_a_domain_violation(capsys, tmp_path, command):
    """The golden (3, 1, 4) algebra payload with one coefficient at 1e308:
    its residual norm overflows, which is a domain violation (exit 1), with
    no numpy warning on the way (the suite raises RuntimeWarning)."""
    data = json.loads((Path(__file__).parent / "golden" / "check-so0-algebra.json").read_text())
    data["rows"][0][1]["terms"][0]["re"] = 1e308
    code, out, err = run_cli(capsys, command, "-i", write_json(tmp_path, "huge.json", data))
    assert code == 1 and out == ""
    assert err.startswith("domain violation")
    with pytest.raises(AlgebraError):
        check_so0_algebra(Supermatrix.from_dict(data))


def _coefficient_paths(value, path=()):
    """The key path of every coefficient's "re" in a JSON payload."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        if key == "re":
            yield path + (key,)
        yield from _coefficient_paths(child, path + (key,))


@pytest.mark.parametrize("command", ["phi", "phi-inv"])
def test_near_overflow_coefficients_in_phi_payloads_never_warn(command):
    """Every coefficient of the golden phi and phi-inv payloads set to
    +-1.7e308 in turn, with numpy warnings raised as errors: exit 0 with
    output, or exit 1 or 2 with empty stdout and one stderr line, never a
    warning.  phi's product S K overflows for a bosonic or mixed
    coefficient (a domain violation, exit 1); a doubled diagonal symplectic
    one overflows in the decoder (malformed input, exit 2)."""
    text = (Path(__file__).parent / "golden" / f"{command}.json").read_text()
    codes = set()
    for *parents, key in _coefficient_paths(json.loads(text)):
        for value in (1.7e308, -1.7e308):
            payload = json.loads(text)
            container = payload
            for parent in parents:
                container = container[parent]
            container[key] = value
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command])
            codes.add(code)
            assert code == 0 or (out.getvalue() == "" and err.getvalue().count("\n") == 1)
    assert codes == ({0, 1, 2} if command == "phi" else {0, 1})


@pytest.mark.parametrize("command, code", [
    ("sdet", 0), ("check-so0", 0), ("ln", 0), ("decompose", 1), ("lift", 1)])
def test_near_overflow_coefficients_in_matrix_payloads_never_warn(command, code):
    """The golden payload with one coefficient at +-1.7e308, numpy warnings
    raised as errors: the last term of the last diagonal cell for sdet,
    check-so0, decompose and lift (the Berezinian's X = M0^-1 (M - M0)
    overflows on the way), the last term of every cell for ln (its norm
    test overflows).  The exit codes are those of the computation with
    warnings ignored: sdet, check-so0 and ln print a result, decompose and
    lift report a domain violation (not a special superrotation), and so
    does ln for cell (3, 3), whose logarithm has a non-finite entry."""
    text = (Path(__file__).parent / "golden" / f"{command}.json").read_text()
    size = len(json.loads(text)["rows"])
    cells = ([(i, j) for i in range(size) for j in range(size)] if command == "ln"
             else [(size - 1, size - 1)])
    for i, j in cells:
        expected = 1 if command == "ln" and (i, j) == (3, 3) else code
        for value in (1.7e308, -1.7e308):
            payload = json.loads(text)
            payload["rows"][i][j]["terms"][-1]["re"] = value
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([command]) == expected
            if expected:
                assert out.getvalue() == "" and err.getvalue().startswith("domain violation")
            else:
                assert json.loads(out.getvalue())


def test_exp_of_an_overflowing_body_coefficient_never_warns():
    """Each body coefficient of the golden exp payload set to +-1.7e308,
    numpy warnings raised as errors.  The exit codes are those of the
    computation with warnings ignored: the squaring steps overflow, a domain
    violation (exit 1), except for a diagonal entry at -1.7e308, whose
    exponential decays (exit 0)."""
    text = (Path(__file__).parent / "golden" / "exp.json").read_text()
    rows = json.loads(text)["rows"]
    cells = [(i, j) for i, row in enumerate(rows) for j, cell in enumerate(row)
             if cell["terms"] and cell["terms"][0]["mask"] == 0]
    assert len(cells) == 10
    for i, j in cells:
        for value in (1.7e308, -1.7e308):
            payload = json.loads(text)
            payload["rows"][i][j]["terms"][0]["re"] = value
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["exp"])
            if i == j and value < 0:
                assert code == 0 and json.loads(out.getvalue())
            else:
                assert code == 1 and out.getvalue() == ""
                assert err.getvalue() == "domain violation: non-finite entry in blade slice\n"


@pytest.mark.parametrize("command, failing", [
    ("act", {"matrix": (37, 0), "vector": (12, 0)}),
    ("reflect", {"w": (40, 40), "x": (10, 0)}),
    ("inner", {"x": (0, 0), "y": (7, 0)}),
])
def test_near_overflow_coefficients_in_vector_payloads_never_warn(command, failing):
    """Every coefficient of the golden act, reflect and inner payloads set to
    +-1.7e308 and to 1e200 in turn, numpy warnings raised as errors.  The
    exit codes are those of the computation with warnings ignored:
    ``failing`` counts, per payload part, the coefficients at +-1.7e308 and
    at 1e200 whose product overflows (a domain violation, exit 1; any
    coefficient of reflect's axis leaves the supersphere); the rest exit 0
    with output."""
    text = (Path(__file__).parent / "golden" / f"{command}.json").read_text()
    counts = {}
    for *parents, key in _coefficient_paths(json.loads(text)):
        for value in (1.7e308, -1.7e308, 1e200):
            payload = json.loads(text)
            container = payload
            for parent in parents:
                container = container[parent]
            container[key] = value
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(payload))), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([command])
            if code:
                assert code == 1 and out.getvalue() == ""
                assert err.getvalue().startswith("domain violation")
            else:
                assert json.loads(out.getvalue())
            part = (parents[0], abs(value))
            counts[part] = counts.get(part, 0) + code
    assert counts == {(part, value): count
                      for part, (huge, large) in failing.items()
                      for value, count in ((1.7e308, 2 * huge), (1e200, large))}


def test_phi_of_an_overflowing_product_is_a_domain_violation(capsys, tmp_path):
    data = json.loads((Path(__file__).parent / "golden" / "phi.json").read_text())
    data["b"][0]["coeff"]["terms"][0]["re"] = 1.7e308
    code, out, err = run_cli(capsys, "phi", "-i", write_json(tmp_path, "huge.json", data))
    assert (code, out) == (1, "")
    assert err == "domain violation: non-finite entry in blade slice\n"


def test_ln_that_does_not_converge_is_a_domain_violation(capsys, tmp_path):
    body = np.eye(3, dtype=complex)
    body[:2, :2] = [[np.cos(1.045), -np.sin(1.045)], [np.sin(1.045), np.cos(1.045)]]
    path = write_json(tmp_path, "rotation.json",
                      Supermatrix.from_body(3, 0, body, 2).to_dict())
    code, out, err = run_cli(capsys, "ln", "-i", path)
    assert code == 1 and out == ""
    assert "did not converge" in err


def test_decompose_emits_spec_keys(capsys, rotation):
    mat, path = rotation
    code, out, _ = run_cli(capsys, "decompose", "-i", path)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"X", "Y", "Z", "residual"}
    assert payload["residual"] <= 1e-9
    for key in ("X", "Y", "Z"):
        Supermatrix.from_dict(payload[key])


def test_decompose_identity_is_all_zero(capsys, tmp_path):
    path = write_json(tmp_path, "eye2.json", Supermatrix.eye(2, 2, 2).to_dict())
    code, out, _ = run_cli(capsys, "decompose", "-i", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-14
    for key in ("X", "Y", "Z"):
        assert Supermatrix.from_dict(payload[key]).norm() == 0.0


def test_decompose_rejects_non_rotation(capsys, tmp_path):
    from superspin import random_supermatrix

    path = write_json(tmp_path, "junk.json",
                      random_supermatrix(2, 1, 2, seed=11).to_dict())
    code, _, err = run_cli(capsys, "decompose", "-i", path)
    assert code == 1


@pytest.mark.parametrize("nilpotent", [False, True], ids=["body", "with-nilpotent"])
@pytest.mark.parametrize("stretch", [1e6, 1e7, 1e8])
@pytest.mark.parametrize("command", ["decompose", "lift"])
def test_stretched_rotations_decompose_and_lift(capsys, tmp_path, command, stretch, nilpotent):
    """A symplectic body of condition number 1e12 to 1e16 is no singular body
    for the split, whose group factor is invertible by construction."""
    from test_orthosymplectic import stretched_rotation

    path = write_json(tmp_path, "stretched.json",
                      stretched_rotation(stretch, nilpotent).to_dict())
    code, out, err = run_cli(capsys, command, "-i", path)
    assert code == 0, err
    assert set(json.loads(out)) == ({"X", "Y", "Z", "residual"} if command == "decompose"
                                    else {"m", "n", "N", "factors"})


@pytest.mark.parametrize("command", ["decompose", "lift"])
def test_an_overflowing_polar_split_is_a_domain_violation(capsys, tmp_path, command):
    """At |D0| = 1e160, D0^T D0 overflows: exit 1 naming the singular body,
    not exit 2 with numpy's LinAlgError."""
    body = np.eye(5)
    body[3, 3], body[4, 4] = 1e160, 1e-160
    path = write_json(tmp_path, "huge.json", Supermatrix.from_body(3, 2, body, 4).to_dict())
    code, _, err = run_cli(capsys, command, "-i", path)
    assert code == 1
    assert err.startswith("domain violation:") and "not finite" in err


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("command", ["decompose", "lift"])
def test_empty_rotation_decomposes_and_lifts(capsys, tmp_path, command, order):
    """The (0|0) rotation, which check-so0 accepts, is not malformed input."""
    path = write_json(tmp_path, "empty.json", Supermatrix.eye(0, 0, order).to_dict())
    code, out, _ = run_cli(capsys, "check-so0", "-i", path)
    assert code == 0 and json.loads(out)["is_so0"] is True
    code, out, err = run_cli(capsys, command, "-i", path)
    assert code == 0, err
    payload = json.loads(out)
    if command == "decompose":
        assert payload["residual"] == 0.0
    else:
        assert len(SpinElement.from_dict(payload).factors) == 3


def test_lift_act_consistency(capsys, rotation, tmp_path):
    mat, path = rotation
    code, out, _ = run_cli(capsys, "lift", "-i", path)
    assert code == 0
    spin_payload = json.loads(out)
    vector = random_supervector(2, 1, 2, seed=21)
    act_input = write_json(tmp_path, "act.json",
                           {"spin": spin_payload, "vector": vector.to_dict()})
    code, out, _ = run_cli(capsys, "act", "-i", act_input)
    assert code == 0
    via_spin = Supervector.from_dict(json.loads(out))
    act_input2 = write_json(tmp_path, "act2.json",
                            {"matrix": mat.to_dict(), "vector": vector.to_dict()})
    code, out, _ = run_cli(capsys, "act", "-i", act_input2)
    assert code == 0
    via_matrix = Supervector.from_dict(json.loads(out))
    assert (via_spin - via_matrix).norm() <= 1e-8


def test_reflect_command(capsys, tmp_path):
    w = random_sphere_vector(3, 1, 4, seed=13)
    x = random_supervector(3, 1, 4, seed=14)
    path = write_json(tmp_path, "reflect.json",
                      {"w": w.to_dict(), "x": x.to_dict()})
    code, out, _ = run_cli(capsys, "reflect", "-i", path)
    assert code == 0
    payload = json.loads(out)
    sdet = GrassmannNumber.from_dict(payload["sdet"])
    assert (sdet + 1).norm() <= 1e-9
    Supervector.from_dict(payload["reflected"])


def test_reflect_rejects_off_sphere_vector(capsys, tmp_path):
    w = random_supervector(3, 1, 4, seed=15)
    path = write_json(tmp_path, "bad_w.json", {"w": w.to_dict()})
    code, _, err = run_cli(capsys, "reflect", "-i", path)
    assert code == 1


def test_inner_command(capsys, tmp_path):
    x = random_supervector(2, 1, 2, seed=16)
    y = random_supervector(2, 1, 2, seed=17)
    path = write_json(tmp_path, "inner.json",
                      {"x": x.to_dict(), "y": y.to_dict()})
    code, out, _ = run_cli(capsys, "inner", "-i", path)
    assert code == 0
    from superspin import inner

    got = GrassmannNumber.from_dict(json.loads(out))
    assert (got - inner(x, y)).norm() <= 1e-12


def _bad_vectors():
    good = random_supervector(2, 1, 2, seed=18).to_dict()

    def edit(change):
        data = json.loads(json.dumps(good))
        change(data)
        return data

    return {
        "parity": edit(lambda d: d["even"][0]["terms"].append({"mask": 1, "re": 1.0})),
        "mixed-order": edit(lambda d: d["odd"][1].update(N=3)),
        "counts": edit(lambda d: d["odd"].pop()),
    }


@pytest.mark.parametrize("case", ["parity", "mixed-order", "counts"])
@pytest.mark.parametrize("command", ["reflect", "act", "inner"])
def test_bad_supervector_payloads_are_malformed_input(capsys, tmp_path, command, case):
    bad, good = _bad_vectors()[case], random_supervector(2, 1, 2, seed=19).to_dict()
    payload = {
        "reflect": {"w": random_sphere_vector(2, 1, 2, seed=20).to_dict(), "x": bad},
        "act": {"matrix": random_rotation(2, 1, 2, seed=21).to_dict(), "vector": bad},
        "inner": {"x": good, "y": bad},
    }[command]
    code, out, err = run_cli(capsys, command, "-i", write_json(tmp_path, "bad.json", payload))
    assert code == 2 and out == ""
    assert "malformed input" in err


def test_a_coefficient_of_another_order_is_named_on_stderr(capsys, tmp_path):
    bad = _bad_vectors()["mixed-order"]
    payload = {"x": random_supervector(2, 1, 2, seed=19).to_dict(), "y": bad}
    code, out, err = run_cli(capsys, "inner", "-i", write_json(tmp_path, "bad.json", payload))
    assert (code, out) == (2, "")
    assert err == ("malformed input: cannot decode Supervector: "
                   "entry order differs from supervector order\n")


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    """Only ``selftest`` and ``--only`` read the suite, so the other
    subcommands never compile it."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, superspin.cli; sys.exit('superspin.selftest' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def _bad_bivectors():
    rng = np.random.default_rng(22)
    from superspin import random_grassmann

    good = ExtendedSuperbivector(
        2, 1, 2, b={(1, 2): random_grassmann(rng, 2, parity="even")},
        bq={(1, 1): random_grassmann(rng, 2, parity="odd")},
        bb={(1, 2): random_grassmann(rng, 2, parity="even")}).to_dict()

    def edit(change):
        data = json.loads(json.dumps(good))
        change(data)
        return data

    def term(family, mask):
        return lambda d: d[family][0]["coeff"]["terms"].append({"mask": mask, "re": 1.0})

    return {
        "b-parity": edit(term("b", 1)),
        "bq-parity": edit(term("bq", 3)),
        "B-parity": edit(term("B", 2)),
        "swapped-key": edit(lambda d: d["b"][0].update(j=2, k=1)),
        "diagonal-b-key": edit(lambda d: d["b"][0].update(k=1)),
        "bq-key-range": edit(lambda d: d["bq"][0].update(k=3)),
        "B-key-range": edit(lambda d: d["B"][0].update(j=0)),
        "swapped-B-key": edit(lambda d: d["B"][0].update(j=2, k=1)),
        "mixed-order": edit(lambda d: d["bq"][0]["coeff"].update(N=3)),
        "mask-range": edit(lambda d: d["b"][0]["coeff"]["terms"].append(
            {"mask": 4, "re": 1.0})),
        "order-17": {"m": 1, "n": 0, "N": 17},
        "order-negative": {"m": 1, "n": 0, "N": -1},
        "negative-m": {"m": -1, "n": 1, "N": 2},
        "negative-n": {"m": 2, "n": -1, "N": 2},
    }


BAD_BIVECTORS = sorted(_bad_bivectors())


@pytest.mark.parametrize("case", BAD_BIVECTORS)
def test_bad_bivector_payloads_are_malformed_input(capsys, tmp_path, case):
    path = write_json(tmp_path, "bad.json", _bad_bivectors()[case])
    code, out, err = run_cli(capsys, "phi", "-i", path)
    assert code == 2 and out == ""
    assert "malformed input" in err


@pytest.mark.parametrize("signature", [(1, 0, 17), (1, 0, -1), (-1, 1, 2), (1, -1, 2)],
                         ids=["order-17", "order-negative", "negative-m", "negative-n"])
@pytest.mark.parametrize("with_factor", [False, True], ids=["empty", "one-factor"])
def test_act_with_a_bad_spin_signature_is_malformed_input(capsys, tmp_path, signature,
                                                          with_factor):
    m, n, order = signature
    spin = {"m": m, "n": n, "N": order, "factors": []}
    if with_factor:
        spin["factors"].append({"m": m, "n": n, "N": order})
    payload = {"spin": spin, "vector": random_supervector(1, 0, 2, seed=23).to_dict()}
    code, out, err = run_cli(capsys, "act", "-i", write_json(tmp_path, "bad.json", payload))
    assert code == 2 and out == ""
    assert "malformed input" in err


def test_phi_and_inverse_roundtrip(capsys, tmp_path):
    import numpy as np

    from superspin import random_grassmann

    rng = np.random.default_rng(18)
    biv = ExtendedSuperbivector(
        2, 1, 2,
        b={(1, 2): random_grassmann(rng, 2, parity="even")},
        bq={(1, 1): random_grassmann(rng, 2, parity="odd")},
        bb={(1, 2): random_grassmann(rng, 2, parity="even")},
    )
    path = write_json(tmp_path, "biv.json", biv.to_dict())
    code, out, _ = run_cli(capsys, "phi", "-i", path)
    assert code == 0
    mat_payload = json.loads(out)
    path2 = write_json(tmp_path, "mat.json", mat_payload)
    code, out, _ = run_cli(capsys, "phi-inv", "-i", path2)
    assert code == 0
    recovered = ExtendedSuperbivector.from_dict(json.loads(out))
    assert (recovered - biv).norm() <= 1e-10


def test_phi_inv_rejects_non_algebra(capsys, tmp_path):
    path = write_json(tmp_path, "eye.json", Supermatrix.eye(2, 2, 2).to_dict())
    code, _, err = run_cli(capsys, "phi-inv", "-i", path)
    assert code == 1


def test_osc_exp_exact_at_pi(capsys):
    code, out, _ = run_cli(capsys, "osc-exp", "--theta", str(math.pi),
                           "--m", "2", "--n", "1", "--N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["truncation_bound"] == 0.0
    terms = payload["element"]["terms"]
    assert len(terms) == 1 and terms[0]["coeff"]["terms"][0]["re"] == -1.0


def test_frft_command(capsys):
    code, out, _ = run_cli(capsys, "frft", "--thetas", "2,2", "--m", "3", "--N", "2")
    assert code == 0
    payload = json.loads(out)
    mat = Supermatrix.from_dict(payload["matrix"])
    assert (mat - Supermatrix.eye(3, 4, 2)).norm() <= 1e-9


@pytest.mark.parametrize("thetas", ["nan", "1,inf"])
def test_frft_with_a_non_finite_theta_is_malformed_input(capsys, thetas):
    code, out, err = run_cli(capsys, "frft", "--thetas", thetas, "--m", "3", "--N", "2")
    assert code == 2 and out == ""
    assert "thetas must be finite" in err


def test_act_without_a_matrix_or_spin_is_malformed_input(capsys, tmp_path):
    path = write_json(tmp_path, "act.json",
                      {"vector": random_supervector(2, 1, 2, seed=21).to_dict()})
    code, out, err = run_cli(capsys, "act", "-i", path)
    assert code == 2 and out == ""
    assert "'matrix' or 'spin'" in err


def test_malformed_json_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 1, "q": 0')
    code, _, err = run_cli(capsys, "sdet", "-i", str(path))
    assert code == 2
    assert "malformed" in err


def test_wrong_schema_exit_code(capsys, tmp_path):
    path = write_json(tmp_path, "schema.json", {"rows": []})
    code, _, _ = run_cli(capsys, "sdet", "-i", str(path))
    assert code == 2


def test_non_finite_json_rejected(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"p": 1, "q": 0, "N": 0, "rows": [[{"N": 0, "terms": '
                    '[{"mask": 0, "re": NaN, "im": 0.0}]}]]}')
    code, _, _ = run_cli(capsys, "sdet", "-i", str(path))
    assert code == 2


def test_selftest_subset_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--only", "7", "--seed", "4")
    code2, out2, _ = run_cli(capsys, "selftest", "--only", "7", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["all_passed"] is True
    assert payload["results"][0]["index"] == 7


def test_a_failed_criterion_exits_1_and_still_writes_the_report(capsys, monkeypatch):
    from superspin import selftest

    def failing(seed):
        return selftest.CriterionResult(1, "patched to fail", False, f"seed {seed}")

    monkeypatch.setattr(selftest, "CRITERIA", (failing, *selftest.CRITERIA[1:]))
    code, out, err = run_cli(capsys, "selftest", "--only", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["results"] == [{"index": 1, "name": "patched to fail", "passed": False,
                                   "detail": f"seed {payload['seed']}"}]
    assert "[FAIL] criterion 1" in err


def test_emitted_json_reparses_to_equal_value(capsys, rotation):
    mat, path = rotation
    code, out, _ = run_cli(capsys, "exp", "-i", path)
    assert code == 0
    once = json.loads(out)
    again = Supermatrix.from_dict(once).to_dict()
    assert once == again


@pytest.mark.parametrize("argv", [
    ["osc-exp", "--theta", "1", "--cap", "-2"],
    ["osc-exp", "--theta", "1", "--plane", "0"],
    ["osc-exp", "--theta", "1", "--plane", "2", "--n", "1"],
    ["osc-exp", "--theta", "1", "--N", "17"],
    ["osc-exp", "--theta", "1", "--m", "-1"],
    ["frft", "--thetas", "1", "--N", "17"],
    ["frft", "--thetas", "1", "--N", "-1"],
    ["osc-exp", "--theta", "1", "--n", "-1"],
    ["selftest", "--only", "11"],
    ["selftest", "--only", "0"],
    ["selftest", "--only", "1,x"],
    ["osc-exp", "--theta", "nan"],
    ["osc-exp", "--theta", "-inf"],
    ["osc-exp", "--theta", "3.141592653589793", "--plane", "5", "--n", "2"],
    ["osc-exp", "--theta", "3.141592653589793", "--plane", "0"],
    ["osc-exp", "--theta", "3.141592653589793", "--m", "-1"],
    ["check-so0", "--tol=-1e-9"],
    ["check-so0", "--tol", "-0.5"],
    ["check-so0", "--tol", "-1e-9"],
    ["lift", "--tol", "-1"],
    ["phi-inv", "--tol=-1e-300"],
    ["check-so0-algebra", "--tol", "nan"],
    ["decompose", "--tol", "inf"],
])
def test_out_of_range_flags_are_malformed_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["osc-exp", "--theta", "1"], ["frft", "--thetas", "1"]])
def test_strict_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


def test_flags_at_their_limits_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "osc-exp", "--theta", "1", "--cap", "2",
                           "--plane", "2", "--n", "2", "--m", "0", "--N", "0")
    assert code == 0
    assert json.loads(out)["element"]["N"] == 0
    code, _, _ = run_cli(capsys, "frft", "--thetas", "1", "--N", "16", "--m", "1")
    assert code == 0
    # --cap 0 parses; the ladder operators then exceed it, a domain violation.
    code, _, err = run_cli(capsys, "osc-exp", "--theta", "1", "--cap", "0")
    assert code == 1 and "domain violation" in err


def _first_term(data):
    return next(t for row in data["rows"] for entry in row for t in entry["terms"])


NON_INTEGER_MATRIX_FIELDS = {
    "mask-fraction": ("sdet", lambda d: _first_term(d).update(
        mask=_first_term(d)["mask"] + 0.4)),
    "N-fraction": ("sdet", lambda d: d.update(N=2.9)),
    "p-text": ("sdet", lambda d: d.update(p="2")),
    "q-bool": ("check-so0", lambda d: d.update(q=True)),
    "entry-N-float": ("check-so0", lambda d: d["rows"][0][0].update(N=2.0)),
    "mask-text": ("exp", lambda d: _first_term(d).update(mask=str(_first_term(d)["mask"]))),
}


@pytest.mark.parametrize("command, edit", NON_INTEGER_MATRIX_FIELDS.values(),
                         ids=NON_INTEGER_MATRIX_FIELDS.keys())
def test_non_integer_matrix_fields_are_malformed_input(capsys, tmp_path, rotation,
                                                       command, edit):
    data = rotation[0].to_dict()
    edit(data)
    code, out, err = run_cli(capsys, command, "-i", write_json(tmp_path, "bad.json", data))
    assert code == 2 and out == ""
    assert "malformed input" in err and "must be an integer" in err


@pytest.mark.parametrize("command, key, field, value", [
    ("inner", "x", "n", "1"),
    ("act", "vector", "N", 2.0),
    ("phi", None, "j", 1.5),
    ("act", "spin", "m", 2.0),
])
def test_non_integer_vector_and_bivector_fields_are_malformed_input(
        capsys, tmp_path, command, key, field, value):
    x = random_supervector(2, 1, 2, seed=3)
    biv = matrix_to_bivector(random_so0(2, 1, 2, seed=4))
    payloads = {
        "inner": {"x": x.to_dict(), "y": x.to_dict()},
        "act": {"vector": x.to_dict(),
                "spin": {"m": 2, "n": 1, "N": 2, "factors": [biv.to_dict()]}},
        "phi": biv.to_dict(),
    }
    data = payloads[command]
    target = data if key is None else data[key]
    if field == "j":
        target = target["b"][0]
    target[field] = value
    code, out, err = run_cli(capsys, command, "-i", write_json(tmp_path, "bad.json", data))
    assert code == 2 and out == ""
    assert f"{field} must be an integer" in err


@pytest.mark.parametrize("value", [True, "0.25", None, [1.0]],
                         ids=["bool", "text", "null", "list"])
@pytest.mark.parametrize("part", ["re", "im"])
def test_non_number_vector_coefficients_are_malformed_input(capsys, tmp_path, part, value):
    """Matrix payloads are covered by ``BAD_PAYLOADS`` in test_payloads.py."""
    x = random_supervector(2, 1, 2, seed=3).to_dict()
    x["odd"][0]["terms"][0][part] = value
    data = {"x": x, "y": random_supervector(2, 1, 2, seed=4).to_dict()}
    code, out, err = run_cli(capsys, "inner", "-i", write_json(tmp_path, "bad.json", data))
    assert code == 2 and out == ""
    assert "malformed input" in err and f"{part} must be a number" in err


def test_zero_tolerance_is_accepted(capsys, rotation):
    _, path = rotation
    code, out, _ = run_cli(capsys, "check-so0", "--tol", "0", "-i", path)
    assert code == 0
    assert json.loads(out)["sdet_deviation"] <= 1e-9


def test_plane_check_applies_to_osc_exp_only(capsys):
    # --n exists only on osc-exp; elsewhere it is an unrecognised argument
    golden = Path(__file__).parent / "golden" / "sdet.json"
    for argv in (["sdet", "--n", "0", "-i", str(golden)],
                 ["frft", "--thetas", "1", "--n", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --n 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["osc-exp", "--theta", "1", "--n", "0"])
    assert exc.value.code == 2
    assert "exceeds --n 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sdet", "--tol", "1e-3"],
    ["check-so0", "--seed", "3"],
    ["selftest", "--tol", "1e-3"],
    ["lift", "--cap", "4"],
    ["decompose", "--N", "2"],
    ["frft", "--thetas", "1", "--cap", "4"],
])
def test_flags_exist_only_where_they_are_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sdet_of_singular_even_block_is_a_domain_violation(capsys, tmp_path):
    # q = 0 and p <= 4 used to return a nilpotent determinant here
    order = 2
    f12 = GrassmannNumber.blade(order, 0b11)
    grid = [[f12 if i == j == 0 else GrassmannNumber.scalar(order, float(i == j))
             for j in range(3)] for i in range(3)]
    mat = Supermatrix.from_entries(3, 0, grid, order)
    path = write_json(tmp_path, "singular.json", mat.to_dict())
    code, out, err = run_cli(capsys, "sdet", "-i", path)
    assert code == 1 and out == "" and "domain violation" in err


@pytest.mark.parametrize("p, q, block", [(2, 0, "A"), (0, 2, "D")])
def test_sdet_of_numerically_singular_body_is_a_domain_violation(capsys, tmp_path,
                                                                   p, q, block):
    # body diag(1, 1e-13) has condition number 1e13 > COND_LIMIT:
    # SingularBodyError at q = 0, NotInvertibleError at p = 0
    mat = Supermatrix.from_body(p, q, np.diag([1.0, 1e-13]), 2)
    path = write_json(tmp_path, "near_singular.json", mat.to_dict())
    code, out, err = run_cli(capsys, "sdet", "-i", path)
    assert code == 1 and out == ""
    assert f"domain violation: body of block {block} is numerically singular" in err


# -- exit-code contract under mutated payloads --------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
# each payload subcommand with its golden (3, 1, 4) input; check-o0 reads a matrix
PROBE_INPUTS = {command: (GOLDEN / f"{command}.json").read_text() for command in (
    "check-so0", "check-so0-algebra", "sdet", "exp", "ln", "decompose", "lift",
    "act", "reflect", "inner", "phi", "phi-inv")}
PROBE_INPUTS["check-o0"] = PROBE_INPUTS["check-so0"]
JUNK = [None, True, False, 0, 1, -1, 2 ** 70, 0.5, 1e308, math.nan, "", "x", [], [[]], {},
        {"N": 0, "terms": []}]


def _field_paths(value, path=()):
    """Every key or index path below the root of a JSON value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


# the root too: the whole payload replaced by junk, or no input at all
PROBE_PATHS = {command: [(), *_field_paths(json.loads(text))]
               for command, text in PROBE_INPUTS.items()}


@pytest.mark.parametrize("command", sorted(PROBE_INPUTS))
@settings(max_examples=50)
@given(data=st.data())
def test_mutated_payloads_keep_the_exit_code_contract(command, data):
    """One field set to a junk value or deleted: exit 0, 1 or 2, and no
    stdout unless the exit is 0.  A numpy RuntimeWarning is an error here,
    as everywhere in the suite: a near-overflow coefficient (1e308) makes a
    domain violation without a warning on the way."""
    payload = json.loads(PROBE_INPUTS[command])
    path = data.draw(st.sampled_from(PROBE_PATHS[command]))
    junk = data.draw(st.sampled_from(JUNK + ["delete"]))
    if not path:
        text = "" if junk == "delete" else json.dumps(junk)
    else:
        *parents, key = path
        container = payload
        for parent in parents:
            container = container[parent]
        if junk == "delete":
            del container[key]
        else:
            container[key] = junk
        text = json.dumps(payload)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command])
    assert code in (0, 1, 2), err.getvalue()
    assert code == 0 or out.getvalue() == ""
    assert path or code == 2, err.getvalue()
