"""One fresh interpreter running one workload; started by run.py.

Role ``probe`` imports superspin, builds the seeded inputs, runs one untimed
warm-up request, times the speed probe and exits: run.py times it from
spawn to the ``ready`` stamp for ``setup_s``.  Role ``measure`` does the same set-up, then drives the
closed loop (one caller, no threads) in passes over the whole input pool
until the given seconds are up, and prints one JSON object with the raw
measurements: one latency per request, grouped by pass, and the median
speed-probe time of each pass.

With ``--trace 1`` the loop alternates an untraced pass and a traced pass
over the same inputs; the traced passes give the per-layer totals and the
two kinds of pass together give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every run makes at least this many passes over the input pool, so that
# each input's latency is a median over passes spread across the run.
MIN_PASSES = 3

# The speed probe: a fixed loop, timed between requests, that tracks the machine's speed: the
# VM the benchmark was tuned on switches between speed states for seconds to
# minutes.  run.py scales each pass's latencies by the median probe time of
# that pass.  The probe touches nothing in superspin, so a change to the
# library cannot move it.
SPEED_PROBE_EVERY = 5  # requests between probes within a pass
SPEED_PROBE_REPS = 3
SPEED_PROBE_LOOP = 20_000


def speed_probe_ns() -> int:
    """The fastest of a few runs of the fixed loop, in ns."""
    times = []
    for _ in range(SPEED_PROBE_REPS):
        start = perf_counter_ns()
        acc, table = 0, {}
        for i in range(SPEED_PROBE_LOOP):
            acc += i * i % 7
            table[i & 63] = acc
        times.append(perf_counter_ns() - start)
    return min(times)


def import_superspin(workload: str):
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    import superspin
    if workload == "cli-mixed":
        import superspin.cli  # noqa: F401
    import_s = time.monotonic() - start
    if Path(superspin.__file__).resolve().parent != SRC / "superspin":
        raise SystemExit(f"superspin imported from {superspin.__file__}, not {SRC}")
    return superspin, import_s


class Loop:
    """Runs requests, times them, checks them outside the timer."""

    def __init__(self, requests, seed: int):
        self.requests = requests
        self._order = random.Random(seed)
        self.failures: list[str] = []
        self.attempted = 0

    def one(self, index: int, tracer=None) -> int:
        request = self.requests[index]
        if tracer is not None:
            tracer.request = self.attempted
            tracer.install()
        start = perf_counter_ns()
        try:
            out = request.run()
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"{request.label}: {type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                error = request.check(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"{request.label}: oracle raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
        return elapsed

    def one_pass(self, tracer=None) -> tuple[list[int], int]:
        """Runs every request once in a seeded random order; returns the
        latencies by request index and the median probe time of the pass.
        The order changes from pass to pass, so the repeats of one request
        fall at different moments of the run."""
        order = list(range(len(self.requests)))
        self._order.shuffle(order)
        latencies = [0] * len(order)
        probes = [speed_probe_ns()]
        for k, i in enumerate(order, 1):
            latencies[i] = self.one(i, tracer)
            if k % SPEED_PROBE_EVERY == 0 or k == len(order):
                probes.append(speed_probe_ns())
        return latencies, int(statistics.median(probes))

    def run(self, seconds: float, tracer=None) -> dict:
        """Passes over the pool for the given seconds: latencies in ns, one
        list per pass, and each pass's probe time.  With a tracer, untraced
        and traced passes alternate."""
        kinds = ["plain", "traced"] if tracer else ["plain"]
        out = {f"{kind}{part}": [] for kind in kinds for part in ("_ns", "_probe_ns")}
        deadline = time.monotonic() + seconds
        while len(out["plain_ns"]) < MIN_PASSES or time.monotonic() < deadline:
            for kind in kinds:
                latencies, probe = self.one_pass(tracer if kind == "traced" else None)
                out[f"{kind}_ns"].append(latencies)
                out[f"{kind}_probe_ns"].append(probe)
            if tracer:
                tracer.fold()
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["probe", "measure"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    # workloads and tracer import numpy, so they come after the timed import.
    ss, import_s = import_superspin(args.workload)
    import workloads

    scratch = os.path.join(args.out_dir, f"inputs-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        work = workloads.build(args.workload, ss, args.seed, scratch)
        loop = Loop(work.requests, args.seed)
        loop.one(0)  # warm-up, not counted
        warmup_failures, loop.failures, loop.attempted = loop.failures, [], 0
        ready = time.monotonic()
        report = {"ready": ready, "probe_ns": speed_probe_ns(), "import_s": import_s,
                  "inputs_sha256": work.digest(), "warmup_failures": warmup_failures}
        if args.role == "measure":
            report.update(measure(args, ss, loop))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(args, ss, loop: Loop) -> dict:
    import numpy
    import scipy

    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    out = {"passes": loop.run(args.seconds, tracer)}
    if tracer:
        traced_requests = len(out["passes"]["traced_ns"]) * len(loop.requests)
        out["layers"] = tracing.layer_metrics(tracer, traced_requests)
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.first_batch_dump(), handle)
    out.update({
        "attempted": loop.attempted,
        "failures": loop.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "superspin": ss.__version__},
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
