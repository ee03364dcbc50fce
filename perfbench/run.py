"""Benchmark entry point for superspin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/superspin`` must exist; nothing
needs installing).  Set-up is timed in three fresh interpreters: a probe, the
measuring one, and a second probe after it.  The measuring interpreter drives
one closed loop in passes over the seeded input pool for S seconds.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Lines before it
are a readable summary and the run metadata; both are also written to
``perfbench/out/``.

Each latency is scaled to a reference machine speed: the worker times a
fixed loop (the speed probe) between requests, and a pass's latencies are
multiplied by ``REFERENCE_PROBE_MS`` over that pass's median probe time.
Each input's latency is then its median over the passes.  The unscaled
figures are printed too, and every raw latency and probe time is kept in the
record in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from worker import speed_probe_ns  # noqa: E402
from workloads import NAMES  # noqa: E402

# The measuring worker runs between set-up probes, so that the set-up samples
# lie apart in time.
ROLES = ["probe", "measure", "probe"]

# Every child must end within this many seconds of the start.
TIME_LIMIT_S = 170.0

# The speed-probe time that scaled latencies refer to: a round figure within
# the probe's readings (1.9 to 3.1 ms) on the 2-vCPU Xeon VM the benchmark
# was tuned on.
REFERENCE_PROBE_MS = 2.5


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(role: str, args, deadline: float) -> tuple[dict, float, float]:
    """Run one worker to completion; returns its report, its set-up seconds
    and those seconds scaled by the speed probe timed just before the spawn
    and just after the set-up."""
    probe_before = speed_probe_ns()
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    seconds = report["ready"] - start
    probe = (probe_before + report["probe_ns"]) / 2
    return report, seconds, seconds * REFERENCE_PROBE_MS * 1e6 / probe


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a clone; git would report an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def per_input_ms(passes: dict, kind: str, scaled: bool = True) -> list[float]:
    """Each input's median latency over the passes of one kind, in ms,
    scaled to the reference speed unless ``scaled`` is false."""
    factors = [REFERENCE_PROBE_MS * 1e6 / probe if scaled else 1.0
               for probe in passes[f"{kind}_probe_ns"]]
    columns = zip(*([ns * f for ns in latencies]
                    for latencies, f in zip(passes[f"{kind}_ns"], factors)))
    return [statistics.median(column) / 1e6 for column in columns]


def latency_figures(ms: list[float], ok_share: float) -> dict[str, float]:
    return {"ops_per_s": len(ms) / (sum(ms) / 1e3) * ok_share,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8]}


def end_to_end(measured: dict, setup: list[float]) -> dict[str, float]:
    ok_share = 1 - len(measured["failures"]) / measured["attempted"]
    return {**latency_figures(per_input_ms(measured["passes"], "plain"), ok_share),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": measured["peak_rss_mb"]}


def per_layer(measured: dict, import_s: list[float]) -> dict[str, float]:
    passes = measured["passes"]
    metrics = dict(measured["layers"])
    metrics["cli.import_ms"] = statistics.median(import_s) * 1e3
    metrics["trace.overhead_frac"] = (sum(per_input_ms(passes, "traced"))
                                      / sum(per_input_ms(passes, "plain")) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "superspin" / "__init__.py").is_file():
        return fail(f"no superspin sources under {ROOT / 'src'}; run from a checkout")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = [(m["name"], m["unit"])
             for m in config["per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        reports, setup, setup_raw = [], [], []
        for role in ROLES:
            report, seconds, scaled = spawn(role, args, deadline)
            reports.append(report)
            setup_raw.append(seconds)
            setup.append(scaled)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        return fail(f"worker failed: {exc}")
    measured = reports[ROLES.index("measure")]

    digests = {r["inputs_sha256"] for r in reports}
    failures = list(measured["failures"])
    for report in reports:
        failures += [f"warm-up: {f}" for f in report["warmup_failures"]]
    if len(digests) != 1:
        failures.append("the same seed gave different inputs in different processes")
    if args.trace:
        metrics = per_layer(measured, [r["import_s"] for r in reports])
    else:
        metrics = end_to_end(measured, setup)
    missing = [name for name, _unit in table if name not in metrics]
    if missing:
        return fail(f"BENCHMARK.json names metrics the benchmark does not make: {missing}")
    attempted = measured["attempted"]
    failed = len(measured["failures"])
    passes = measured["passes"]
    pool = len(passes["plain_ns"][0])
    probe_ms = [ns / 1e6 for ns in passes["plain_probe_ns"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "commit": commit(),
        "source_sha256": source_digest(), "inputs_sha256": digests.pop(),
        "pool": pool, "passes": len(passes["plain_ns"]),
        "setup_samples_s": setup_raw, "setup_scaled_s": setup,
        "reference_probe_ms": REFERENCE_PROBE_MS,
        "speed_probe_ms": {"min": min(probe_ms), "median": statistics.median(probe_ms),
                           "max": max(probe_ms)},
        **measured["versions"],
    }
    if not all(math.isfinite(metrics[name]) for name, _unit in table):
        failures.append("a metric is not finite")
    correct = not failures

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"requests {attempted} = {attempted // pool} passes x {pool} inputs"]
    lines += [f"  {name:34s} {metrics[name]:14.6g} {unit}" for name, unit in table]
    if not args.trace:
        lines.append(f"  {'error_rate':34s} {failed / attempted:14.6g} fraction")
        unscaled = latency_figures(per_input_ms(passes, "plain", scaled=False),
                                   1 - failed / attempted)
        unscaled["setup_s"] = statistics.median(setup_raw)
        lines += [f"  unscaled {name:25s} {value:14.6g}" for name, value in unscaled.items()]
    lines += [f"  FAILED {f}" for f in failures[:10]]
    print("\n".join(lines))
    print("meta " + json.dumps(meta))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in table}}
    record = OUT_DIR / f"run-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result, "failures": failures,
                                  "passes": passes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
