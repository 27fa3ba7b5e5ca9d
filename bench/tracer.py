"""In-process replay of a job list with spans around the library's layers.

Run as one child process (so the pinned environment applies):

    PYTHONPATH=src python bench/tracer.py JOBS.json SECONDS SPANS_OUT RESULT_OUT

JOBS.json is a list of argv lists for `mzspaces.cli.main`.  The replay
alternates untraced and traced passes over the list while one more pair
fits in SECONDS (at least one pair).  For a traced pass, each public
function in TRACED is rebound in every `mzspaces` module that holds it, or
on its class for methods, so each call records a span (job, name, start,
end, parent) and bumps its counters.  No file under src/ changes.  The spans of the last
traced pass go to SPANS_OUT; per-pass timings, counts and the captured
stdout of every job go to RESULT_OUT as JSON.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from collections import Counter, defaultdict


def _cells(matrix, *_args, **_kwargs):
    return {"cells": len(matrix) * len(matrix[0]) if matrix else 0}


def _subset_space(spec, *_args, **_kwargs):
    return {"subset_space": 2 ** len(spec.roots)}


# (module, attribute, counter).  The metric prefix is the module's short name
# plus the attribute, with a method's dunder name reduced to its operator.
TRACED = (
    ("mzspaces.cli", "main", None),
    ("mzspaces.mzdecide", "decide_mz", _subset_space),
    ("mzspaces.mzdecide", "normalize", None),
    ("mzspaces.mzdecide", "oracle_decide_mz", None),
    ("mzspaces.quotient", "crt_idempotents", None),
    ("mzspaces.functionals", "dependency_relation", None),
    ("mzspaces.functionals", "evaluate", None),
    ("mzspaces.functionals", "to_moments", None),
    ("mzspaces.functionals", "from_moments", None),
    ("mzspaces.linalg", "left_dependency", _cells),
    ("mzspaces.linalg", "solve_linear_system", _cells),
    ("mzspaces.upoly", "extended_gcd", None),
    ("mzspaces.upoly", "apply_euler_op", None),
    ("mzspaces.upoly", "apply_der_op", None),
    ("mzspaces.upoly", "Poly.__pow__", None),
    ("mzspaces.certificates", "certify_unit_interval", None),
    ("mzspaces.certificates", "certify_exponential", None),
    ("mzspaces.certificates", "power_moment", None),
    ("mzspaces.scalars", "is_prime", None),
    ("mzspaces.probes", "trace_radical_test", None),
    ("mzspaces.probes", "MatrixQ.__mul__", None),
    ("mzspaces.probes", "gvc_probe", None),
    ("mzspaces.probes", "ConstCoeffOp.apply", None),
    ("mzspaces.imagep", "imd_decide", None),
    ("mzspaces.imagep", "charp_theorem_check", None),
    ("mzspaces.imagep", "ZXPoly.__pow__", None),
)


def metric_prefix(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr.replace('__', '')}"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self.spans = []        # [job, name index, start, end, parent index]
        self.counts = Counter()
        self.job = -1
        self._stack = []

    def wrap(self, name, fn, counter):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            span = [self.job, index, 0.0, 0.0, stack[-1] if stack else -1]
            slot = len(spans)
            spans.append(span)
            stack.append(slot)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def self_times(self):
        """Per name: total span time minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (_, name, start, end, _), covered in zip(self.spans, child):
            out[self.names[name]] += end - start - covered
        return dict(out)


def install(tracer: Tracer):
    """Rebind every TRACED function; returns the undo list."""
    modules = [m for n, m in sys.modules.items() if n == "mzspaces" or n.startswith("mzspaces.")]
    undo = []
    for module_name, attr, counter in TRACED:
        module = importlib.import_module(module_name)
        name = metric_prefix(module_name, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, original, counter))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, counter)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)
    return undo


def uninstall(undo):
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


def replay(argvs, tracer=None):
    """Run every job through mzspaces.cli.main; (seconds, exits, stdouts)."""
    import mzspaces.cli

    exits, stdouts = [], []
    started = time.perf_counter()
    for job, argv in enumerate(argvs):
        if tracer is not None:
            tracer.job = job
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = mzspaces.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        exits.append(code)
        stdouts.append(out.getvalue())
    return time.perf_counter() - started, exits, stdouts


def write_spans(tracer: Tracer, path: str):
    origin = min((s[2] for s in tracer.spans), default=0.0)
    rows = [[job, name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent]
            for job, name, start, end, parent in tracer.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"unit": "us", "names": tracer.names,
                   "columns": ["job", "name", "start", "end", "parent"], "spans": rows}, fh)


def main(argv):
    jobs_path, seconds, spans_path, result_path = argv
    with open(jobs_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    untraced, traced, self_s, counts = [], [], [], []
    first = None
    mismatches = 0
    last = None
    started = time.perf_counter()
    elapsed = 0.0
    while not traced or elapsed * (len(traced) + 1) / len(traced) <= float(seconds):
        pass_s, exits, stdouts = replay(argvs)
        untraced.append(pass_s)
        tracer = Tracer()
        undo = install(tracer)
        try:
            elapsed_traced, exits_traced, stdouts_traced = replay(argvs, tracer)
        finally:
            uninstall(undo)
        traced.append(elapsed_traced)
        self_s.append(tracer.self_times())
        counts.append(dict(tracer.counts))
        if first is None:
            first = (exits, stdouts)
        for run in ((exits, stdouts), (exits_traced, stdouts_traced)):
            mismatches += sum(a != b for a, b in zip(zip(*run), zip(*first)))
        last = tracer
        elapsed = time.perf_counter() - started
    write_spans(last, spans_path)
    result = {"untraced_s": untraced, "traced_s": traced, "self_s": self_s, "counts": counts,
              "names": last.names, "exits": first[0], "stdouts": first[1],
              "mismatches": mismatches}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
