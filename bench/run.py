"""Benchmark of the `mz` command line tool on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the code under test is the
checkout's own src/ (PYTHONPATH=src, nothing installed).  The seed makes
the job list (workloads.py); the program sees only the generated JSON files,
passed by path.  One client runs the jobs sequentially in a closed loop, so
the load never exceeds one CPU.

--trace 0 runs every job as a fresh `python -m mzspaces` subprocess, in
whole passes over the job list while one more pass fits in S seconds (at
least one pass), with a set-up sample (a fresh interpreter that imports
the CLI and runs no job) before every fifth job, and reports the end-to-end
metrics.  --trace 1 replays the same jobs in one child process
through `mzspaces.cli.main` (tracer.py) and reports the per-layer metrics.
Every job's output is checked by checks.py, independently of the library.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a record of the run: environment, job counts, the
SHA-256 of all job stdouts, fail_frac, the tail percentile, and all counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

JOB_TIMEOUT_S = 60
SETUP_EVERY = 5
SETUP_CODE = "import mzspaces.cli as cli; cli._build_parser()"
HASH_SEED = "0"
# Children start with -S: the package needs only the standard library, and
# .pth hooks in this interpreter's site-packages would add start-up cost and
# noise that belong to the machine, not to the program.
PYTHON = [sys.executable, "-S"]
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (end-to-end metric it should move, workload it shows on).
PER_LAYER = {
    "mzdecide.decide_mz.self_s": ("jobs_per_s, latency_tail_s", "decide-wide"),
    "mzdecide.decide_mz.subset_space": ("jobs_per_s, latency_tail_s", "decide-wide"),
    "quotient.crt_idempotents.calls": ("latency_tail_s", "decide-wide, moments-deep"),
    "quotient.crt_idempotents.self_s": ("latency_tail_s", "decide-wide, moments-deep"),
    "upoly.extended_gcd.self_s": ("latency_tail_s", "decide-wide, moments-deep"),
    "mzdecide.normalize.self_s": ("latency_p50_s", "moments-deep"),
    "functionals.dependency_relation.self_s": ("latency_p50_s", "moments-deep"),
    "linalg.left_dependency.self_s": ("latency_p50_s", "moments-deep"),
    "linalg.left_dependency.cells": ("latency_p50_s", "moments-deep"),
    "mzdecide.oracle_decide_mz.self_s": ("latency_tail_s", "moments-deep"),
    "functionals.evaluate.calls": ("latency_tail_s", "moments-deep"),
    "functionals.evaluate.self_s": ("latency_tail_s", "moments-deep"),
    "functionals.to_moments.self_s": ("jobs_per_s", "moments-deep"),
    "functionals.from_moments.self_s": ("jobs_per_s", "moments-deep"),
    "linalg.solve_linear_system.self_s": ("jobs_per_s", "moments-deep"),
    "linalg.solve_linear_system.cells": ("jobs_per_s", "moments-deep"),
    "upoly.apply_euler_op.calls": ("cpu_s_per_job", "moments-deep"),
    "upoly.apply_euler_op.self_s": ("cpu_s_per_job", "moments-deep"),
    "upoly.apply_der_op.calls": ("cpu_s_per_job", "moments-deep"),
    "upoly.apply_der_op.self_s": ("cpu_s_per_job", "moments-deep"),
    "certificates.certify_unit_interval.self_s": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "certificates.certify_exponential.self_s": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "certificates.power_moment.calls": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "certificates.power_moment.self_s": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "upoly.Poly.pow.self_s": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "scalars.is_prime.calls": ("jobs_per_s, latency_tail_s", "probes-certify"),
    "probes.trace_radical_test.self_s": ("latency_tail_s", "probes-certify"),
    "probes.MatrixQ.mul.calls": ("latency_tail_s", "probes-certify"),
    "probes.gvc_probe.self_s": ("latency_tail_s", "probes-certify"),
    "probes.ConstCoeffOp.apply.calls": ("latency_tail_s", "probes-certify"),
    "imagep.imd_decide.calls": ("latency_p50_s", "probes-certify"),
    "imagep.imd_decide.self_s": ("latency_p50_s", "probes-certify"),
    "imagep.charp_theorem_check.self_s": ("latency_p50_s", "probes-certify"),
    "imagep.ZXPoly.pow.self_s": ("latency_p50_s", "probes-certify"),
    "cli.main.self_s": ("latency_p50_s", "probes-certify"),
    "trace.overhead_frac": ("none; it qualifies the layer numbers", "all"),
}
# Share of all traced self time per src/mzspaces module, to see which layer
# a workload loads most.
LAYERS = ("cli", "mzdecide", "quotient", "functionals", "linalg", "upoly",
          "certificates", "scalars", "probes", "imagep")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = ("none; names the busiest layer", "all")


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".self_share", ".overhead_frac")):
        return "fraction"
    return "count"


def child_env():
    """The environment every child runs in: the checkout's src/ on the path,
    a fixed hash seed, and the default subset cap (MZ_* unset)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "MZ_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mzspaces").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def materialize(jobs, workdir: Path):
    """Write each job's inputs under its own directory; return argv lists."""
    argvs = []
    for index, job in enumerate(jobs):
        folder = workdir / f"{index:03d}"
        folder.mkdir()
        for name, data in job.files.items():
            (folder / name).write_text(json.dumps(data), encoding="utf-8")
        argvs.append([str(folder / a[1:]) if a.startswith("@") else a for a in job.argv])
    return argvs


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def sample_setup(env):
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser.

    Output is captured so that the wait ends when the child's pipes close:
    without pipes, a wait with a timeout polls the child every 50 ms, which
    would round every sample up to that grid."""
    started = time.perf_counter()
    subprocess.run([*PYTHON, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - started


class Verdicts:
    """Checks each distinct (job, exit code, stdout) once."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seen = {}
        self.reasons = []

    def failed(self, index, code, stdout) -> bool:
        key = (index, code, stdout)
        if key not in self.seen:
            reason = checks.check(self.jobs[index], code, stdout)
            self.seen[key] = reason
            if reason is not None:
                self.reasons.append(f"{self.jobs[index].name}: {reason}")
        return self.seen[key] is not None


def run_subprocesses(jobs, argvs, env, seconds, verdicts):
    """Whole passes over the job list, each job a fresh process, for as long
    as one more pass of average length still fits in `seconds`.  Before
    every SETUP_EVERY-th job a set-up sample runs, so that set-up is sampled
    across the whole run; its time is left out of the jobs' wall and CPU."""
    latencies = [[] for _ in jobs]
    setups = []
    first = [None] * len(jobs)
    pass_walls = []
    attempted = failed = 0
    cpu_s = 0.0
    sample_setup(env)  # fills the bytecode cache; not measured
    started = time.perf_counter()
    elapsed = 0.0
    while not pass_walls or elapsed * (len(pass_walls) + 1) / len(pass_walls) <= seconds:
        pass_wall = 0.0
        for index, argv in enumerate(argvs):
            if attempted % SETUP_EVERY == 0:
                setups.append(sample_setup(env))
            cpu_before = child_cpu_s()
            job_started = time.perf_counter()
            try:
                proc = subprocess.run([*PYTHON, "-m", "mzspaces", *argv], cwd=ROOT,
                                      env=env, capture_output=True, text=True,
                                      timeout=JOB_TIMEOUT_S)
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = "timeout", ""
            latency = time.perf_counter() - job_started
            latencies[index].append(latency)
            pass_wall += latency
            cpu_s += child_cpu_s() - cpu_before
            attempted += 1
            if first[index] is None:
                first[index] = stdout
            bad = verdicts.failed(index, code, stdout)
            if stdout != first[index]:
                bad = True
                verdicts.reasons.append(f"{jobs[index].name}: stdout changed between passes")
            failed += bad
        pass_walls.append(pass_wall)
        elapsed = time.perf_counter() - started
    return {"latencies": latencies, "setups": setups, "stdouts": first,
            "attempted": attempted, "failed": failed, "pass_walls": pass_walls,
            "wall_s": sum(pass_walls), "cpu_s": cpu_s,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def stdout_digest(stdouts):
    digest = hashlib.sha256()
    for text in stdouts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def end_to_end(jobs, argvs, env, seconds, verdicts, record):
    """Rates and CPU are totals over all passes.  latency_p50_s is the median
    over jobs of each job's median run: the job list has groups of jobs of
    different cost, and a median over all runs pooled would fall between two
    groups whenever the host's speed drifts within the run."""
    run = run_subprocesses(jobs, argvs, env, seconds, verdicts)
    samples = sorted(t for job in run["latencies"] for t in job)
    tail_index = max(len(samples) - TAIL_BEYOND - 1, 0)
    record.update({
        "passes": len(run["pass_walls"]),
        "setup_samples": len(run["setups"]),
        "stdout_sha256": stdout_digest(run["stdouts"]),
        "fail_frac": {"value": run["failed"] / run["attempted"], "unit": "fraction"},
        "latency_tail": {"percentile": round(100 * (tail_index + 1) / len(samples), 2),
                         "jobs": len(samples), "jobs_beyond": len(samples) - tail_index - 1},
        "pass_wall_s": [round(wall, 4) for wall in run["pass_walls"]],
    })
    metrics = {
        "setup_s": statistics.median(run["setups"]),
        "jobs_per_s": (run["attempted"] - run["failed"]) / run["wall_s"],
        "latency_p50_s": statistics.median(statistics.median(job) for job in run["latencies"]),
        "latency_tail_s": samples[tail_index],
        "cpu_s_per_job": run["cpu_s"] / run["attempted"],
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    return metrics, run["attempted"], run["failed"]


def traced(jobs, argvs, env, seconds, verdicts, record, workdir, spans_path):
    jobs_path, result_path = workdir / "argvs.json", workdir / "traced.json"
    jobs_path.write_text(json.dumps(argvs), encoding="utf-8")
    subprocess.run([*PYTHON, str(BENCH / "tracer.py"), str(jobs_path), str(seconds),
                    str(spans_path), str(result_path)], cwd=ROOT, env=env, check=True,
                   timeout=170)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    failed = sum(verdicts.failed(i, code, out)
                 for i, (code, out) in enumerate(zip(result["exits"], result["stdouts"])))
    passes = len(result["traced_s"])
    attempted = 2 * passes * len(jobs)
    failed = failed * 2 * passes + result["mismatches"]
    if result["mismatches"]:
        verdicts.reasons.append("in-process stdout changed between passes")
    if any(c != result["counts"][0] for c in result["counts"]):
        verdicts.reasons.append("traced counts changed between passes")
        failed += 1
    counts = result["counts"][0]
    self_s = {name: statistics.median(p.get(name, 0.0) for p in result["self_s"])
              for name in result["names"]}
    total_self = sum(self_s.values())
    metrics = {}
    for name in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_s.get(prefix, 0.0)
        elif stat == "self_share":
            metrics[name] = sum(v for k, v in self_s.items() if k.split(".")[0] == prefix) / total_self
        elif name != "trace.overhead_frac":
            metrics[name] = counts.get(name, 0)
    metrics["trace.overhead_frac"] = (statistics.median(result["traced_s"])
                                      / statistics.median(result["untraced_s"]) - 1)
    record.update({
        "passes": passes,
        "stdout_sha256": stdout_digest(result["stdouts"]),
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "counts": dict(sorted(counts.items())),
        "self_s_all": dict(sorted(self_s.items())),
        "untraced_pass_s": statistics.median(result["untraced_s"]),
        "spans_file": str(spans_path.relative_to(ROOT)),
    })
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=0,
                        help="keep only this many levels or shapes per tier (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "mzspaces" / "cli.py").is_file():
        print(f"no mzspaces sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind normally: subprocess.run kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = child_env()
    jobs = workloads.generate(args.workload, args.seed, args.scale)
    verdicts = Verdicts(jobs)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs_per_pass": len(jobs),
        "kinds": dict(sorted(Counter(job.kind for job in jobs).items())),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit_id(), "src_sha256": source_digest(),
        "child": {"python": "python -S", "PYTHONPATH": "src", "PYTHONHASHSEED": HASH_SEED,
                  "MZ_MAX_SUBSET_ROOTS": None},
    }
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        argvs = materialize(jobs, workdir)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            metrics, attempted, failed = traced(jobs, argvs, env, args.seconds, verdicts,
                                                record, workdir, spans_path)
            units = {name: per_layer_unit(name) for name in PER_LAYER}
        else:
            metrics, attempted, failed = end_to_end(jobs, argvs, env, args.seconds,
                                                    verdicts, record)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["failures"] = verdicts.reasons[:20]
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(record))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
