"""CLI stdout against the golden corpus in tests/golden/.

A case reads its payload from ``<command>.json``, or, for the flag-only
commands listed in ``make_corpus.FLAG_COMMANDS``, runs its argument list.

Tolerance: every JSON key, every bool, int and string, and every Grassmann
term mask must match; coefficients and other floats may differ by at most
1e-12 absolute; a term may appear or vanish only when its modulus is below
1e-13.  Summation order inside the kernels is not fixed, so rounding noise
(a 1e-14 coefficient, say) can flip in and out of the canonical form.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from superspin import cli
from superspin.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COMMANDS = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".out"))

_spec = importlib.util.spec_from_file_location(
    "make_corpus", os.path.join(GOLDEN, "make_corpus.py"))
_make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_make_corpus)
FLAG_COMMANDS = _make_corpus.FLAG_COMMANDS

ABS_TOL = 1e-12
NOISE = 1e-13


def _is_terms(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(t, dict) and "mask" in t for t in value)


def _terms(value) -> dict[int, complex]:
    return {t["mask"]: complex(t["re"], t["im"]) for t in value}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mismatches(got, want, path="$") -> list[str]:
    """Where ``got`` differs from ``want`` beyond the tolerance above."""
    if _is_terms(want) and _is_terms(got):
        g, w = _terms(got), _terms(want)
        out = []
        for mask in sorted(set(g) | set(w)):
            if mask in g and mask in w:
                if abs(g[mask] - w[mask]) > ABS_TOL:
                    out.append(f"{path}[mask {mask}]: {g[mask]} != {w[mask]}")
            elif abs(g.get(mask, w.get(mask))) >= NOISE:
                side = "extra" if mask in g else "missing"
                out.append(f"{path}[mask {mask}]: {side} term")
        return out
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if _is_number(want) and _is_number(got):
        return [] if abs(got - want) <= ABS_TOL else [f"{path}: {got} != {want}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _expected(command: str) -> str:
    with open(os.path.join(GOLDEN, f"{command}.out"), encoding="utf-8") as handle:
        return handle.read()


def _argv(command: str) -> list[str]:
    if command in FLAG_COMMANDS:
        return FLAG_COMMANDS[command]
    return [command, "--input", os.path.join(GOLDEN, f"{command}.json")]


def test_corpus_covers_the_matrix_commands():
    assert set(COMMANDS) == {
        "check-so0", "sdet", "exp", "ln", "decompose", "lift", "reflect",
        "inner", "act", "phi", "phi-inv", "check-so0-algebra",
        "osc-exp", "osc-exp-cap10", "frft",
    }
    assert set(FLAG_COMMANDS) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(capsys, command):
    code = main(_argv(command))
    out = capsys.readouterr().out
    assert code == 0
    assert mismatches(json.loads(out), json.loads(_expected(command))) == []


def test_python_dash_m_runs_the_cli_from_a_source_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "superspin", "sdet", "--input", os.path.join(GOLDEN, "sdet.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert mismatches(json.loads(run.stdout), json.loads(_expected("sdet"))) == []


_RUN_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
import make_corpus
print(json.dumps({name: make_corpus.capture(argv)[::2]
                  for name, argv in json.loads(sys.argv[2]).items()}))
"""


def test_cli_runs_without_scipy():
    """Every golden command and selftest give the same stdout and exit code
    in a fresh interpreter where scipy cannot be imported."""
    argvs = {command: _argv(command) for command in COMMANDS}
    argvs["selftest"] = ["selftest"]
    src = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, GOLDEN, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    for name, argv in argvs.items():
        assert got[name] == list(_make_corpus.capture(argv)[::2]), name


@pytest.mark.parametrize("command", COMMANDS)
def test_emit_reproduces_golden_bytes(capsys, command):
    text = _expected(command)
    cli._emit(json.loads(text))
    assert capsys.readouterr().out == text


def test_tolerance_flags_real_differences():
    want = {"r": 1.0, "terms": [{"mask": 0, "re": 1.0, "im": 0.0},
                                {"mask": 15, "re": 1.4e-14, "im": 0.0}]}
    noise_gone = {"r": 1.0 + 5e-13, "terms": [{"mask": 0, "re": 1.0, "im": 0.0}]}
    assert mismatches(noise_gone, want) == []
    assert mismatches({"r": 1.0 + 2e-12, "terms": want["terms"]}, want)
    assert mismatches({"r": 1.0, "terms": [{"mask": 1, "re": 1.0, "im": 0.0}]}, want)
    assert mismatches({"r": 1.0, "terms": want["terms"], "x": 0}, want)
