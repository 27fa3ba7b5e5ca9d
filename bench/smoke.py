"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

For each workload it runs one end-to-end pass and two traced replays with
--scale 1, and checks that: the result line has exactly the contract's keys;
every metric BENCHMARK.json names is emitted with its unit and nothing else;
no job failed (fail_frac is 0); the stdout digest is the same for the
subprocess and the in-process runs; and the traced counts repeat exactly.
It also checks that the benchmark refuses to run without the sources.
Exits 0 when all hold, 1 with the first failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 7
SCALE = 1


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def bench(workload, trace, cwd=run.ROOT, script=run.BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc, workload, trace):
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                 f"{proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} failed jobs: {record['failures']}")
    expect(record["fail_frac"]["value"] == 0, f"{workload} fail_frac {record['fail_frac']}")
    return record, result


def check_metrics(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: emitted {sorted(got)} but BENCHMARK.json names {sorted(want)}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")


def check_refuses_without_sources(config):
    """A directory holding only BENCHMARK.json and the benchmark must fail."""
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in config["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("decide-wide", 0, cwd=bare, script=bare / "bench" / "run.py")
        expect(proc.returncode != 0, "benchmark ran without the sources")
        expect(not proc.stdout.strip(), "benchmark printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        expect([w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS),
               "BENCHMARK.json workloads differ from workloads.WORKLOADS")
        expect([m["name"] for m in config["per_layer"]] == list(run.PER_LAYER),
               "BENCHMARK.json per_layer differs from run.PER_LAYER")
        check_refuses_without_sources(config)
        for workload in workloads.WORKLOADS:
            record, result = parse(bench(workload, 0), workload, 0)
            check_metrics(result, config["end_to_end"], f"{workload} end-to-end")
            expect(all(m["value"] > 0 for m in result["metrics"].values()),
                   f"{workload}: an end-to-end metric is not positive")
            traced = [parse(bench(workload, 1), workload, 1) for _ in range(2)]
            for trace_record, trace_result in traced:
                check_metrics(trace_result, config["per_layer"], f"{workload} per-layer")
                expect(trace_record["stdout_sha256"] == record["stdout_sha256"],
                       f"{workload}: in-process stdout differs from the subprocess stdout")
            (first, first_result), (second, second_result) = traced
            expect(first["counts"] == second["counts"], f"{workload}: traced counts differ")
            counted = [m["name"] for m in config["per_layer"] if m["unit"] == "count"]
            expect([first_result["metrics"][n] for n in counted]
                   == [second_result["metrics"][n] for n in counted],
                   f"{workload}: count metrics differ between runs")
            print(f"ok {workload}: {record['jobs_per_pass']} jobs, "
                  f"stdout {record['stdout_sha256'][:12]}")
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
