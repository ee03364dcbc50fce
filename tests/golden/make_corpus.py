"""Write the golden CLI corpus: one payload and the expected stdout per subcommand.

Run from the repository root as

    PYTHONPATH=src python tests/golden/make_corpus.py

Every payload comes from superspin's seeded generators at (m, n, N) =
(3, 1, 4).  ``<command>.json`` holds the payload (compact JSON) and
``<command>.out`` the exact stdout of ``superspin <command> --input
<command>.json``.  The commands in ``FLAG_COMMANDS`` read no payload: each
``<name>.out`` is the stdout of ``superspin`` run with its argument list.
The payload-driven files were written by the code as it was before matrices
moved to packed blade stacks, and the flag-only files by the code as it was
before oscillator exponentials summed a cached table of ladder products;
``tests/test_golden.py`` compares the current stdout with them within a
stated tolerance.  Pass command names after the directory to rewrite only
those files, e.g. ``make_corpus.py tests/golden osc-exp frft``.

``make_corpus.py --snapshot DIR`` writes no corpus.  For every committed
payload and every flag command it writes ``<name>.stdout``,
``<name>.stderr`` and ``<name>.code`` (the exit code) into DIR, and adds
``selftest.stdout`` and ``selftest.code``; selftest's stderr, which holds
wall times, is left out.  Payloads are passed by file name from this
directory, so no path reaches stderr.  Snapshot two checkouts with the same
script, e.g. ``PYTHONPATH=<checkout>/src python tests/golden/make_corpus.py
--snapshot <dir>`` for each, and compare them with ``diff -r``.  Every
command but selftest runs twice in the one process, and the snapshot stops
with an error when the second run's stdout, stderr or exit code differs from
the first's.  That shows an output changed by state a module keeps
between calls, such as ``grassmann._templates`` or a ``functools.cache``
table; a value kept on an object (``Supervector``'s supersphere
measurement) is out of its reach, since each run decodes new objects, and
``tests/test_memo.py`` covers it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from superspin import (
    expm,
    matrix_to_bivector,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supervector,
)
from superspin.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

M, N_PLANES, ORDER = 3, 1, 4

FLAG_COMMANDS = {
    "osc-exp": ["osc-exp", "--theta", "1.3", "--m", "4", "--n", "2", "--N", "4",
                "--plane", "2"],
    "osc-exp-cap10": ["osc-exp", "--theta", "-2.2", "--m", "3", "--n", "1", "--N", "2",
                      "--cap", "10"],
    "frft": ["frft", "--thetas", "0.5,1.5", "--m", "3", "--N", "2"],
}


def payloads() -> dict[str, object]:
    rot = random_rotation(M, N_PLANES, ORDER, seed=11)
    alg = random_so0(M, N_PLANES, ORDER, seed=12)
    w = random_sphere_vector(M, N_PLANES, ORDER, seed=13)
    x = random_supervector(M, N_PLANES, ORDER, seed=14)
    y = random_supervector(M, N_PLANES, ORDER, seed=15)
    near_identity = expm(random_so0(M, N_PLANES, ORDER, seed=16, scale=0.1))
    return {
        "check-so0": rot.to_dict(),
        "sdet": rot.to_dict(),
        "exp": alg.to_dict(),
        "ln": near_identity.to_dict(),
        "decompose": rot.to_dict(),
        "lift": rot.to_dict(),
        "reflect": {"w": w.to_dict(), "x": x.to_dict()},
        "inner": {"x": x.to_dict(), "y": y.to_dict()},
        "act": {"matrix": rot.to_dict(), "vector": x.to_dict()},
        "phi": matrix_to_bivector(alg).to_dict(),
        "phi-inv": alg.to_dict(),
        "check-so0-algebra": alg.to_dict(),
    }


def capture(argv: list[str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``superspin`` run in-process on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def run(argv: list[str]) -> str:
    stdout, _, code = capture(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return stdout


def write_corpus(directory: str = HERE, only: list[str] | None = None) -> None:
    argvs = {}
    for command, payload in payloads().items():
        if only and command not in only:
            continue
        path = os.path.join(directory, f"{command}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        argvs[command] = [command, "--input", path]
    argvs.update((name, argv) for name, argv in FLAG_COMMANDS.items()
                 if not only or name in only)
    for name, argv in argvs.items():
        stdout = run(argv)
        with open(os.path.join(directory, f"{name}.out"), "w", encoding="utf-8") as handle:
            handle.write(stdout)


def write_snapshot(directory: str) -> None:
    directory = os.path.abspath(directory)
    os.makedirs(directory, exist_ok=True)
    os.chdir(HERE)
    argvs = {name[:-5]: [name[:-5], "--input", name]
             for name in sorted(os.listdir(HERE)) if name.endswith(".json")}
    argvs.update(FLAG_COMMANDS, selftest=["selftest"])
    for name, argv in argvs.items():
        stdout, stderr, code = capture(argv)
        if name != "selftest" and capture(argv) != (stdout, stderr, code):
            raise SystemExit(f"{name}: a second run in the same process gave another "
                             "stdout, stderr or exit code")
        files = {"stdout": stdout, "code": f"{code}\n"}
        if name != "selftest":  # selftest's stderr holds wall times
            files["stderr"] = stderr
        for suffix, text in files.items():
            with open(os.path.join(directory, f"{name}.{suffix}"), "w",
                      encoding="utf-8") as handle:
                handle.write(text)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--snapshot"]:
        write_snapshot(sys.argv[2])
    else:
        write_corpus(sys.argv[1] if len(sys.argv) > 1 else HERE, sys.argv[2:] or None)
