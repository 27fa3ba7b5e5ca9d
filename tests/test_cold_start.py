"""Import-graph gate for start-up: the modules one `mz` call loads.

Each case runs in a fresh `python -S` interpreter and reads sys.modules, so
the gate is deterministic and machine-independent; no time is measured.
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
# OpenSSL's _hashlib) cost about 19 ms of start-up that no answer needs.
NEVER = {"dataclasses", "typing", "inspect", "argparse", "gettext", "locale", "shutil",
         "hashlib", "_hashlib"}

SPEC = json.dumps({"roots": [["1", 1], ["-1", 1]],
                   "functionals": [{"parts": {"1": ["1"], "-1": ["-1"]}}]})
DECIDE = {"mzdecide", "functionals", "quotient", "upoly", "linalg", "scalars"}
PROBES = {"probes", "sparse", "scalars"}

PROBE = """
import json, sys
import mzspaces.cli as cli
{run}
print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
"""


def _loaded(run: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE.format(run=run)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


def _library(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("mzspaces.")} - {"cli", "errors"}


def test_importing_the_cli_loads_no_library_module():
    _, modules = _loaded("cli._build_parser(); code = None")
    assert _library(modules) == set()
    assert not modules & (NEVER | {"random"})


@pytest.mark.parametrize("argv, expected", [
    (["decide", "--spec", SPEC], DECIDE),
    (["oracle", "--spec", SPEC], DECIDE),
    (["idempotents", "--roots", '[["1", 1], ["2", 2]]'], {"quotient", "upoly", "scalars"}),
    (["moments", "--input", '{"values": ["1", "2"], "roots": [["1", 1], ["2", 1]]}'],
     {"functionals", "quotient", "upoly", "linalg", "scalars"}),
    (["certify", "--rule", "unit", "--poly", '["-1/2", "1"]'],
     {"certificates", "upoly", "scalars"}),
    (["trace-test", "--matrix", '[["0", "1"], ["0", "0"]]'], PROBES),
    (["gvc-probe", "--op", '[{"exps": [1, 1], "c": "1"}]',
      "--p-poly", '[{"exps": [1, 0], "c": "1"}]', "--q-poly", '[{"exps": [1, 0], "c": "1"}]'],
     PROBES),
    (["laurent", "--lam", "-1", "--poly", '{"-1": "3", "2": "1"}'], PROBES),
    (["imagep", "decide", "--p", "3", "--n", "1", "--input", '[{"zeta": [2], "x": [1], "c": 1}]'],
     {"imagep", "sparse", "scalars"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_each_subcommand_loads_only_its_layers(argv, expected):
    code, modules = _loaded(f"code = cli.main({argv!r})")
    assert code == 0
    assert _library(modules) == expected
    assert not modules & (NEVER | {"random"})


def test_only_selftest_loads_random():
    code, modules = _loaded("code = cli.main(['selftest', '--seed', '1'])")
    assert code == 0
    assert "random" in modules
    assert "selftest" in _library(modules)
    assert not modules & NEVER
