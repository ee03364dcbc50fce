"""Command-line interface: schemas, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superspin import (
    ExtendedSuperbivector,
    GrassmannNumber,
    Supermatrix,
    Supervector,
    matrix_to_bivector,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supervector,
)
from superspin.cli import main


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
