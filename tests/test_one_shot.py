"""The one-shot `mz` process, `mzspaces.__main__.run`: it runs `cli.main`
without the cyclic garbage collector and leaves by `os._exit`.

The process must print what the library call prints and exit with the code
it returns, on every exit path; `cli.main` and importing the entry module
must leave the collector alone; and the library must build no reference
cycles, since with the collector off nothing would free them.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mzspaces
from mzspaces import cli
from mzspaces import __main__ as entry

SRC = str(Path(mzspaces.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def _spec(roots, multiplicity: int) -> str:
    """Simple roots of one multiplicity and one functional that tells the
    first two apart."""
    first, second = map(str, roots[:2])
    return json.dumps({"roots": [[str(r), multiplicity] for r in roots],
                       "functionals": [{"parts": {first: ["1"], second: ["-1"]}}]})


def _matrix(n: int) -> str:
    return json.dumps([[str((i * j) % 5 - 2) for j in range(n)] for i in range(n)])


TO_MOMENTS = '{"roots": [["1/3", 1], ["2", 1]], "P0": [], "parts": {"1/3": ["1"], "2": ["1"]}}'
GVC = ["gvc-probe", "--op", '[{"exps": [2, 0], "c": "1/2"}]',
       "--p-poly", '[{"exps": [1, 0], "c": 1}, {"exps": [0, 1], "c": 1}]',
       "--q-poly", '[{"exps": [3, 1], "c": "2/3"}]', "--m-max"]
IMAGEP = ["imagep", "decide", "--p", "3", "--n"]

# Every exit path of the CLI but the internal error (exit 1), which no
# input reaches.
EXIT_PATHS = {
    "decide": ["decide", "--spec", _spec([1, -1, "1/2"], 2), "--oracle"],
    "oracle": ["oracle", "--spec", _spec([1, -1], 1)],
    "idempotents": ["idempotents", "--roots", '[["1/2", 1], ["2/3", 2]]', "--all"],
    "moments": ["moments", "--input", TO_MOMENTS, "--count", "5"],
    "certify": ["certify", "--rule", "exp", "--poly", '["-1/2", "1"]'],
    "trace-test": ["trace-test", "--matrix", _matrix(4)],
    "laurent": ["laurent", "--lam", "1/2", "--poly", '{"-1": "3/2", "2": "1"}'],
    "gvc-probe": [*GVC, "6"],
    "imagep-decide": [*IMAGEP, "1", "--input", '[{"zeta": [2], "x": [1], "c": 1}]'],
    "imagep-theorem": ["imagep", "theorem", "--p", "2", "--n", "1",
                       "--input", '{"f": [{"zeta": [1], "x": [1], "c": 1}]}'],
    "selftest": ["selftest", "--seed", "7"],
    "domain-error": ["trace-test", "--matrix", "[[1, 2]]"],
    "parse-error": ["decide", "--spec", "[1,"],
    "usage-missing": ["decide"],
    "usage-command": ["bogus"],
    "usage-none": [],
    "help": ["--help"],
    "help-subcommand": ["gvc-probe", "-h"],
    # More than a 64 KiB pipe buffer: about 1.4 MB.
    "large-report": ["moments", "--input", TO_MOMENTS, "--count", str(cli._MOMENTS_MAX_COUNT)],
}


def _masked(stderr: str) -> str:
    return re.sub(r"elapsed_ms=[0-9.]+", "elapsed_ms=", stderr)


def _in_process(capsys, argv):
    """(exit code, stdout, stderr) of the library call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_the_process_prints_and_exits_as_the_library_call(capsys, argv):
    child = subprocess.run([sys.executable, "-S", "-m", "mzspaces", *argv],
                           capture_output=True, env=ENV)
    code, out, err = _in_process(capsys, argv)
    assert child.returncode == code
    assert child.stdout == out.encode()
    assert _masked(child.stderr.decode()) == _masked(err)
    assert gc.isenabled()
    if "--help" in argv or "-h" in argv:
        assert child.stdout.startswith(b"usage: mz") and child.stderr == b""
    elif code == 0:
        assert b"elapsed_ms=" in child.stderr
    elif child.stdout:
        assert json.loads(child.stdout)["error"]["kind"] in ("domain", "parse")
    else:
        assert child.stderr.startswith(b"usage: mz") and b"error: " in child.stderr
    if argv == EXIT_PATHS["large-report"]:
        assert len(child.stdout) > 64 * 1024


@pytest.mark.parametrize("argv", [EXIT_PATHS["oracle"], EXIT_PATHS["usage-missing"]],
                         ids=["success", "usage"])
def test_the_console_script_is_the_same_process(argv):
    """The `mz` script calls `run()` after importing the entry module, under
    a name other than __main__."""
    script = "import sys; from mzspaces.__main__ import run; sys.exit(run())"
    by_script, by_module = (
        subprocess.run([sys.executable, "-S", *launcher, *argv], capture_output=True, env=ENV)
        for launcher in (["-c", script], ["-m", "mzspaces"]))
    assert by_script.returncode == by_module.returncode
    assert by_script.stdout == by_module.stdout
    assert _masked(by_script.stderr.decode()) == _masked(by_module.stderr.decode())


# The process as it was before run(): import cli and exit by sys.exit(main()).
PLAIN_ENTRY = ["-c", "import sys; from mzspaces.cli import main; sys.exit(main())"]


@pytest.mark.parametrize("argv", [EXIT_PATHS["oracle"], EXIT_PATHS["parse-error"],
                                  EXIT_PATHS["usage-missing"], EXIT_PATHS["help"]],
                         ids=["success", "parse", "usage", "help"])
def test_a_closed_stderr_ends_as_with_the_plain_entry(argv):
    """Started with fd 2 closed, the process prints and exits as the plain
    entry does.  sys.stderr is then None, and print sends the elapsed_ms
    line to stdout."""
    by_run, by_plain = (
        subprocess.run([sys.executable, "-S", *launcher, *argv], stdout=subprocess.PIPE,
                       env=ENV, preexec_fn=lambda: os.close(2))
        for launcher in (["-m", "mzspaces"], PLAIN_ENTRY))
    assert by_run.returncode == by_plain.returncode
    assert _masked(by_run.stdout.decode()) == _masked(by_plain.stdout.decode())
    if argv == EXIT_PATHS["oracle"]:
        assert by_run.returncode == 0 and b"elapsed_ms=" in by_run.stdout


@pytest.mark.parametrize("argv", [["laurent", "--lam", "1/2"], EXIT_PATHS["oracle"],
                                  EXIT_PATHS["selftest"]], ids=["laurent", "oracle", "selftest"])
def test_a_stderr_closed_by_the_shell_keeps_a_success(argv, tmp_path):
    """`mz ... 2>&-` through a bash launcher script, as pyenv's shims are:
    bash opens the script at the lowest free fd, 2, and the interpreter it
    execs inherits that fd, read-only, so sys.stderr exists and writing
    elapsed_ms to it fails with EBADF.  The report is out by then: exit 0,
    with stdout byte-identical to a run with stderr open."""
    launcher = tmp_path / "launch"
    launcher.write_text('#!/bin/bash\nexec "$@"\n')
    launcher.chmod(0o755)

    def closed(*command):
        return subprocess.run(["bash", "-c", '"$0" "$@" 2>&-', str(launcher), *command],
                              stdout=subprocess.PIPE, env=ENV)

    premise = closed(sys.executable, "-S", "-c", "import sys; print(sys.stderr is not None)")
    assert premise.stdout == b"True\n"
    by_closed = closed(sys.executable, "-S", "-m", "mzspaces", *argv)
    by_open = subprocess.run([sys.executable, "-S", "-m", "mzspaces", *argv],
                             capture_output=True, env=ENV)
    assert by_open.returncode == 0 and b"elapsed_ms=" in by_open.stderr
    assert by_closed.returncode == 0
    assert by_closed.stdout == by_open.stdout


@pytest.mark.parametrize("launcher, stderr_is_none", [(True, "False"), (False, "True")],
                         ids=["bash-launcher", "sh"])
def test_a_usage_error_with_stderr_closed_exits_2(launcher, stderr_is_none, tmp_path):
    """`mz decide 2>&-` is still a usage error, exit 2 with nothing on
    stdout, however the shell closed fd 2: through a bash launcher script
    the interpreter inherits a read-only fd 2 and writing the usage message
    fails with EBADF; started by sh itself it has no fd 2 and sys.stderr is
    None."""
    prefix = []
    if launcher:
        script = tmp_path / "launch"
        script.write_text('#!/bin/bash\nexec "$@"\n')
        script.chmod(0o755)
        prefix = [str(script)]

    def closed(*command):
        return subprocess.run(["sh", "-c", '"$0" "$@" 2>&-', *prefix, *command],
                              stdout=subprocess.PIPE, env=ENV)

    premise = closed(sys.executable, "-S", "-c", "import sys; print(sys.stderr is None)")
    assert premise.stdout == f"{stderr_is_none}\n".encode()
    child = closed(sys.executable, "-S", "-m", "mzspaces", *EXIT_PATHS["usage-missing"])
    assert (child.returncode, child.stdout) == (2, b"")


def test_importing_the_entry_module_leaves_the_collector_on():
    child = subprocess.run([sys.executable, "-S", "-c", "import gc, mzspaces.__main__; "
                            "print(gc.isenabled())"],
                           capture_output=True, text=True, env=ENV, check=True)
    assert child.stdout == "True\n"


def test_other_exceptions_propagate_from_run(monkeypatch):
    """Only SystemExit ends with its own code; an interrupt unwinds as it
    would without run(), and the process never reaches os._exit."""
    def interrupted():
        raise KeyboardInterrupt

    exits = []
    monkeypatch.setattr(cli, "main", interrupted)
    monkeypatch.setattr(entry.os, "_exit", exits.append)
    try:
        with pytest.raises(KeyboardInterrupt):
            entry.run()
    finally:
        gc.enable()
    assert exits == []


# The cycle gate.  Each child runs one family's small job and its large one
# (at least 10 times the input: degree, dimension, terms, count or m-max)
# once to load every module and cache they touch, then each again, and
# reports what gc.collect() found after each.  selftest has no size to grow.
CYCLES = """
import gc, json, os, sys
gc.disable()
import mzspaces.cli as cli
sys.stdout = open(os.devnull, "w")


def job(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, gc.collect()


small, large = json.loads(sys.argv[1])
job(small), job(large)
sys.__stdout__.write(json.dumps([job(small), job(large)]))
"""

FAMILIES = {
    "decide": (["decide", "--spec", _spec([1, -1], 1)],
               ["decide", "--spec", _spec([1, -1, 2, -2, 3, -3], 4)]),
    "oracle": (["oracle", "--spec", _spec([1, -1], 1)],
               ["oracle", "--spec", _spec([1, -1, 2, -2, 3, -3], 4)]),
    "idempotents": (["idempotents", "--roots", '[["1", 1], ["2", 1]]'],
                    ["idempotents", "--roots", json.dumps([[str(r), 2] for r in range(1, 21)])]),
    "moments": (["moments", "--input", TO_MOMENTS, "--count", "10"],
                ["moments", "--input", TO_MOMENTS, "--count", "150"]),
    "certify": (["certify", "--rule", "unit", "--poly", '["-1/2", "1"]'],
                ["certify", "--rule", "unit", "--poly", json.dumps(["-1/2"] + ["1"] * 20)]),
    "trace-test": (["trace-test", "--matrix", _matrix(2)],
                   ["trace-test", "--matrix", _matrix(20)]),
    "laurent": (["laurent", "--lam", "1/2", "--poly", '{"-1": "3/2", "2": "1"}'],
                ["laurent", "--lam", "1/2", "--poly",
                 json.dumps({str(k): f"{k + 11}/3" for k in range(-10, 20)})]),
    "gvc-probe": ([*GVC, "2"], [*GVC, "30"]),
    "imagep": ([*IMAGEP, "1", "--input", '[{"zeta": [2], "x": [1], "c": 1}]'],
               [*IMAGEP, "2", "--input", json.dumps([{"zeta": [a, b], "x": [b, a], "c": 1}
                                                     for a in range(5) for b in range(5)])]),
    "domain-error": (["trace-test", "--matrix", "[[1, 2]]"],
                     ["trace-test", "--matrix", json.dumps([list(range(21))] * 20)]),
    "parse-error": (["decide", "--spec", "[1,"], ["decide", "--spec", "[" + "1, " * 200]),
}


@pytest.mark.parametrize("small, large", FAMILIES.values(), ids=FAMILIES)
def test_a_job_leaves_no_reference_cycles(small, large):
    child = subprocess.run([sys.executable, "-S", "-c", CYCLES, json.dumps([small, large])],
                           capture_output=True, text=True, env=ENV, check=True)
    (small_code, small_cycles), (large_code, large_cycles) = json.loads(child.stdout)
    assert small_code == large_code
    assert small_cycles == large_cycles <= 10
