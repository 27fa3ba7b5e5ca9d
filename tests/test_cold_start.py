"""Import-graph gate for start-up: the modules one `mz` call loads.

Each case runs in a fresh `python -S` interpreter and reads sys.modules, so
the gate is deterministic and machine-independent; no time is measured.  The
parse-error cases run there too, before anything has loaded json.decoder.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mzspaces

SRC = str(Path(mzspaces.__file__).resolve().parents[1])
# argparse (with the gettext, locale and shutil it loads) and hashlib (with
# OpenSSL's _hashlib) cost about 19 ms of start-up, and json (with re and enum)
# about 15 ms, that no answer needs; the CLI reads and writes JSON through _json.
NEVER = {"dataclasses", "typing", "inspect", "argparse", "gettext", "locale", "shutil",
         "hashlib", "_hashlib", "json"}
# What json and fractions load: no call but selftest needs them, rationals
# included, since the library's rationals are scalars.Rational.
RATIONAL_ONLY = {"re", "enum", "decimal", "numbers", "fractions"}

SPEC = json.dumps({"roots": [["1/2", 1], ["-1/2", 1]],
                   "functionals": [{"parts": {"1/2": ["1/3"], "-1/2": ["-1/3"]}}]})
DECIDE = {"mzdecide", "functionals", "quotient", "upoly", "linalg", "scalars"}
PROBES = {"probes", "sparse", "scalars"}

# The snapshot of sys.modules is taken before json is imported to print it.
PROBE = """
import sys
import mzspaces.cli as cli
{run}
modules = sorted(sys.modules)
import json
print(json.dumps({{"code": code, "modules": modules}}))
"""


def _loaded(run: str):
    """(exit code, modules loaded, what the call printed) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE.format(run=run)],
                          capture_output=True, text=True, env=env, check=True)
    *printed, last = proc.stdout.splitlines()
    result = json.loads(last)
    return result["code"], set(result["modules"]), "\n".join(printed)


def _library(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("mzspaces.")} - {"cli", "errors"}


def test_importing_the_cli_loads_no_library_module():
    _, modules, _ = _loaded("cli._build_parser(); code = None")
    assert _library(modules) == set()
    assert not modules & (NEVER | RATIONAL_ONLY | {"random"})


@pytest.mark.parametrize("argv, expected", [
    (["decide", "--spec", SPEC], DECIDE),
    (["oracle", "--spec", SPEC], DECIDE),
    (["idempotents", "--roots", '[["1/2", 1], ["2/3", 2]]'], {"quotient", "upoly", "scalars"}),
    (["moments", "--input", '{"values": ["1/2", "2"], "roots": [["1/3", 1], ["2", 1]]}'],
     {"functionals", "quotient", "upoly", "linalg", "scalars"}),
    (["certify", "--rule", "unit", "--poly", '["-1/2", "1"]'],
     {"certificates", "upoly", "scalars"}),
    (["trace-test", "--matrix", '[["1/2", "1"], ["-1/4", "-1/2"]]'], PROBES),
    (["gvc-probe", "--op", '[{"exps": [2, 0], "c": "1/2"}]',
      "--p-poly", '[{"exps": [1, 0], "c": 1}]', "--q-poly", '[{"exps": [3, 1], "c": "2/3"}]'],
     PROBES),
    (["laurent", "--lam", "1/2", "--poly", '{"-1": "3/2", "2": "1"}'], PROBES),
    (["imagep", "decide", "--p", "3", "--n", "1", "--input", '[{"zeta": [2], "x": [1], "c": 1}]'],
     {"imagep", "sparse", "scalars"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_each_subcommand_loads_only_its_layers(argv, expected):
    code, modules, _ = _loaded(f"code = cli.main({argv!r})")
    assert code == 0
    assert _library(modules) == expected
    assert not modules & (NEVER | RATIONAL_ONLY | {"random"})


# All that trace-test and gvc-probe load besides the CLI: their layers and
# what `collections` (for namedtuple), `operator` and `math` bring with them.
PROBE_JOB_EXTRA = {"mzspaces.probes", "mzspaces.sparse", "mzspaces.scalars", "collections",
                   "_collections", "keyword", "reprlib", "itertools", "operator", "_operator",
                   "math"}
GVC_INPUTS = ('[{"exps": [2, 0], "c": "1/2"}]', '[{"exps": [3, 1], "c": "2/3"}]')


@pytest.mark.parametrize("argv", [
    ["trace-test", "--matrix", '[["1/2", "1"], ["-1/4", "-1/2"]]'],
    ["gvc-probe", "--op", GVC_INPUTS[0], "--p-poly", '[{"exps": [1, 2], "c": 1}]',
     "--q-poly", GVC_INPUTS[1]],
    ["gvc-probe", "--op", GVC_INPUTS[0], "--p-poly",
     '[{"exps": [1, 0], "c": 1}, {"exps": [0, 1], "c": 1}]', "--q-poly", GVC_INPUTS[1]],
    ["gvc-probe", "--op", '[{"exps": [1, 1], "c": 1}]', "--p-poly",
     '[{"exps": [1, 0], "c": 1}, {"exps": [0, 1], "c": 1}]', "--q-poly", GVC_INPUTS[1]],
], ids=["trace-test", "gvc-factored", "gvc-sliced", "gvc-whole"])
def test_probe_kernels_load_no_further_module(argv):
    """The packed trace rows and each gvc path (p factored over the touched
    variables, sliced, or whole) load nothing beyond PROBE_JOB_EXTRA."""
    _, before, _ = _loaded("cli._build_parser(); code = None")
    code, modules, _ = _loaded(f"code = cli.main({argv!r})")
    assert code == 0
    assert modules - before <= PROBE_JOB_EXTRA


def test_a_rational_gvc_probe_loads_fractions():
    """A rational gvc-probe loads fractions only when its caller does: the
    CLI run reads 1/2 as a scalars.Rational and leaves fractions unloaded,
    and a library caller that imports fractions and passes the same
    coefficient as a Fraction gets the CLI's report."""
    argv = ["gvc-probe", "--op", '[{"exps": [2, 0], "c": "1/2"}]',
            "--p-poly", '[{"exps": [1, 0], "c": 1}]', "--q-poly", '[{"exps": [3, 1], "c": 1}]']
    run = f"""
code = cli.main({argv!r})
print("fractions" in sys.modules)
from fractions import Fraction
from mzspaces.probes import ConstCoeffOp, MultiPolyQ, gvc_probe
report = gvc_probe(ConstCoeffOp(MultiPolyQ(2, {{(2, 0): Fraction(1, 2)}})),
                   MultiPolyQ(2, {{(1, 0): 1}}), MultiPolyQ(2, {{(3, 1): 1}}), 12)
print([report.m_max, list(report.hypothesis_violations),
       list(report.conclusion_violations), report.conclusion_transition])
"""
    code, modules, printed = _loaded(run)
    assert code == 0
    *cli_output, cli_loaded, library_report = printed.splitlines()
    assert cli_loaded == "False"
    assert "fractions" in modules
    payload = json.loads("\n".join(cli_output))
    assert library_report == str([payload["mMax"], payload["hypothesisViolations"],
                                  payload["conclusionViolations"],
                                  payload["conclusionTransition"]])
    assert payload["conclusionTransition"] == 4


def test_deep_nesting_is_a_domain_error():
    """50,000 nested arrays exceed the recursion limit of the scanner; the
    report is a domain error with exit 2, not an internal error."""
    code, _, printed = _loaded("code = cli.main(['decide', '--spec', '[' * 50000])")
    assert code == 2
    error = json.loads(printed)["error"]
    assert error["kind"] == "domain"
    assert error["message"].startswith("--spec: the JSON nests too deeply to read")


def test_only_selftest_loads_random():
    code, modules, _ = _loaded("code = cli.main(['selftest', '--seed', '1'])")
    assert code == 0
    assert "random" in modules
    assert "selftest" in _library(modules)
    assert not modules & NEVER


@pytest.mark.parametrize("text", ["{bad json", '["abc', "[1] x", "[1,", "\ufeff[1]"],
                         ids=["bad-json", "unterminated", "trailing", "truncated", "bom-file"])
def test_parse_errors_in_a_fresh_interpreter(text, tmp_path):
    """Before json.decoder is loaded, _json's scanner cannot build a
    JSONDecodeError (a SystemError on 3.10 and 3.11); the report must still
    be json.loads's error, with exit 2."""
    spec = text
    if text.startswith("\ufeff"):
        spec = str(tmp_path / "spec.json")
        Path(spec).write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    code, _, printed = _loaded(f"code = cli.main(['decide', '--spec', {spec!r}])")
    assert code == 2
    assert json.loads(printed) == {"error": {"kind": "parse", "message": expected.value.msg,
                                             "line": expected.value.lineno,
                                             "column": expected.value.colno}}
