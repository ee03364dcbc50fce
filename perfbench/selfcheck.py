"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

From the root of a checkout, checks that:

- BENCHMARK.json names exactly the workloads the code runs;
- a one-second run of each workload prints every end-to-end metric (trace 0)
  and every per-layer metric (trace 1) with its unit, and is correct;
- the written spans nest: every child lies inside its parent and belongs to
  the same request, and no self time is negative;
- per-layer counts repeat exactly across two traced runs with the same seed;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import OUT_DIR  # noqa: E402
from tracer import COUNT_KINDS, END, PARENT, REQUEST, SOURCES, START, TAIL  # noqa: E402
from workloads import NAMES  # noqa: E402

SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def result_of(proc: subprocess.CompletedProcess, table, problems, tag) -> dict:
    if proc.returncode != 0:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{tag}: not correct: {proc.stdout[-800:]}")
    metrics = result.get("metrics", {})
    if list(metrics) != [name for name, unit in table]:
        problems.append(f"{tag}: metric names {list(metrics)}")
    summary = "\n".join(lines[:-1])
    for name, unit in table:
        if metrics.get(name, {}).get("unit") != unit:
            problems.append(f"{tag}: {name} lacks unit {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in summary.splitlines()):
            problems.append(f"{tag}: summary does not print {name} in {unit}")
    return metrics


def check_spans(workload: str, problems) -> None:
    dump = json.loads((OUT_DIR / f"spans-{workload}.json").read_text())
    spans = dump["spans"]
    if not spans:
        problems.append(f"{workload}: no spans written")
    covered = [0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent < 0:
            continue
        outer = spans[parent]
        if not (outer[START] <= record[START] and record[TAIL] <= outer[END]):
            problems.append(f"{workload}: span outside its parent: {record}")
            return
        if outer[REQUEST] != record[REQUEST]:
            problems.append(f"{workload}: span crosses requests: {record}")
            return
        covered[parent] += record[TAIL] - record[START]
    for record, children in zip(spans, covered):
        if record[END] - record[START] - children < 0:
            problems.append(f"{workload}: negative self time: {record}")
            return


def check_bare_directory(problems) -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(NAMES[0], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in config["workloads"]] != NAMES:
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    e2e_table = [(m["name"], m["unit"]) for m in config["end_to_end"]]
    layer_table = [(m["name"], m["unit"]) for m in config["per_layer"]]
    counts = [name for name, _unit in layer_table
              if name in SOURCES and SOURCES[name][0] in COUNT_KINDS]
    for workload in NAMES:
        result_of(run(workload, 0), e2e_table, problems, f"{workload} trace 0")
        first = result_of(run(workload, 1), layer_table, problems, f"{workload} trace 1")
        check_spans(workload, problems)
        second = result_of(run(workload, 1), layer_table, problems,
                           f"{workload} trace 1 again")
        for name in counts:
            if first and second and first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} differs between traced runs: "
                                f"{first[name]['value']} vs {second[name]['value']}")
        print(f"{workload}: checked", flush=True)
    check_bare_directory(problems)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
