import hashlib
import json
import math
import os
import random
import subprocess
import sys
from itertools import islice, product

import pytest

from mzspaces import certificates, cli, probes, upoly
from mzspaces.cli import main
from mzspaces.mzdecide import DEFAULT_MAX_SUBSET_ROOTS

SIGN_DIFFERENCE_SPEC = {
    "roots": [["1", 1], ["-1", 1]],
    "functionals": [{"parts": {"1": ["1"], "-1": ["-1"]}}],
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_decide_sign_difference_end_to_end(capsys):
    code, out, err = _run(capsys, [
        "decide", "--spec", json.dumps(SIGN_DIFFERENCE_SPEC), "--oracle",
    ])
    assert code == 0
    assert out["isMZ"] is False
    assert out["witnessSubset"] == ["1", "-1"]
    assert out["witnessIdempotent"] == ["1"]
    assert out["witnessMultiplier"] == ["0", "1"]
    assert out["oracleIsMZ"] is False
    assert out["oracleAgrees"] is True
    assert out["command"] == "decide"
    assert len(out["inputsDigest"]) == 64
    assert "elapsed_ms=" in err


def _degree_spec(multiplicity: int, planted: bool) -> str:
    """Roots 1, -1, 2, -2, 3, -3, 5, 7 of one multiplicity and one functional
    whose operator coefficients are drawn from 1..9 root by root; planted,
    the constant terms at 1 and -1 are 4 and -4, so that pair is balanced."""
    rng = random.Random(5)
    roots = ["1", "-1", "2", "-2", "3", "-3", "5", "7"]
    parts = {r: [str(rng.randint(1, 9)) for _ in range(multiplicity)] for r in roots}
    if planted:
        parts["1"][0], parts["-1"][0] = "4", "-4"
    return json.dumps({"roots": [[r, multiplicity] for r in roots],
                       "functionals": [{"P0": [], "parts": parts}]})


# Degree 320 (multiplicity 40); planted, the report carries a 119 KB witness.
@pytest.mark.parametrize("planted, is_mz, sha256", [
    (False, True, "86d2b100fb6c9c21b683c8296ab6a16feb0e27f067f2e7abdb5a96a6c3f1a974"),
    (True, False, "21d27e789ca239f99a0373101a2eaf48ab91fdc5345d7095bfbeaa09f5a93a40"),
], ids=["plain", "planted"])
def test_decide_oracle_frozen_at_degree_320(capsys, planted, is_mz, sha256):
    assert main(["decide", "--spec", _degree_spec(40, planted), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256
    report = json.loads(out)
    assert report["isMZ"] is report["oracleIsMZ"] is is_mz


def test_decide_reads_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SIGN_DIFFERENCE_SPEC), encoding="utf-8")
    code, out, _ = _run(capsys, ["decide", "--spec", str(path)])
    assert code == 0
    assert out["isMZ"] is False


def test_decide_positive_case(capsys):
    spec = {
        "roots": [["1", 1], ["-1", 1]],
        "functionals": [{"parts": {"1": ["1"], "-1": ["1"]}}],
    }
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 0
    assert out["isMZ"] is True
    assert "witnessSubset" not in out


def test_oracle_subcommand(capsys):
    code, out, _ = _run(capsys, ["oracle", "--spec", json.dumps(SIGN_DIFFERENCE_SPEC)])
    assert code == 0
    assert out["isMZ"] is False


def test_malformed_json_reports_position(capsys):
    code, out, _ = _run(capsys, ["decide", "--spec", "{bad json"])
    assert code == 2
    assert out["error"]["kind"] == "parse"
    assert out["error"]["line"] == 1
    assert out["error"]["column"] >= 1


def test_missing_file_is_a_domain_error(capsys):
    code, out, _ = _run(capsys, ["decide", "--spec", "/no/such/file.json"])
    assert code == 2
    assert out["error"]["kind"] == "domain"


def test_dependent_functionals_rejected(capsys):
    spec = {
        "roots": [["1", 1]],
        "functionals": [
            {"parts": {"1": ["1"]}},
            {"parts": {"1": ["2"]}},
        ],
    }
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"]["kind"] == "domain"


def test_idempotents_from_roots(capsys):
    code, out, _ = _run(capsys, [
        "idempotents", "--roots", '[["0", 1], ["1", 1]]', "--all",
    ])
    assert code == 0
    assert out["idempotents"] == {"0": ["1", "-1"], "1": ["0", "1"]}
    assert len(out["allIdempotents"]) == 4


def test_idempotents_from_modulus_that_splits(capsys):
    code, out, _ = _run(capsys, [
        "idempotents", "--modulus", '["0", "-1", "0", "1"]',
    ])
    assert code == 0
    assert out["roots"] == [["-1", 1], ["0", 1], ["1", 1]]


def test_idempotents_nonsplit_modulus_rejected(capsys):
    code, out, _ = _run(capsys, ["idempotents", "--modulus", '["1", "0", "1"]'])
    assert code == 2
    assert "split" in out["error"]["message"]


def _simple_roots(count):
    return json.dumps([[str(i), 1] for i in range(count)])


def test_idempotents_all_cap(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["idempotents", "--roots", _simple_roots(12), "--all"])
    assert code == 0
    assert len(out["allIdempotents"]) == 2 ** 12

    def never(*_args):
        raise AssertionError("the cap must be checked before any enumeration")

    monkeypatch.setattr("mzspaces.quotient.crt_idempotents", never)
    monkeypatch.setattr("mzspaces.quotient.all_idempotents", never)
    code, out, _ = _run(capsys, ["idempotents", "--roots", _simple_roots(13), "--all"])
    assert code == 2
    assert out["error"]["message"] == "--all with 13 roots exceeds the cap 12"


def test_idempotents_needs_exactly_one_source(capsys):
    code, out, _ = _run(capsys, ["idempotents"])
    assert code == 2
    code, out, _ = _run(capsys, [
        "idempotents", "--roots", "[[\"0\", 1]]", "--modulus", "[\"0\", \"1\"]",
    ])
    assert code == 2


@pytest.mark.parametrize("modulus", ['["2", "-3", "1"]', '["1", "0", "1"]'])
def test_idempotents_checks_exactly_one_source_before_the_root_search(capsys, monkeypatch,
                                                                      modulus):
    """Both sources given: the rejection comes before --modulus is factored."""
    def never(*_args):
        raise AssertionError("the root search must not run")

    monkeypatch.setattr(upoly, "rational_roots", never)
    code, out, _ = _run(capsys, ["idempotents", "--roots", '[["0", 1]]', "--modulus", modulus])
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": "give exactly one of --roots or --modulus"}


def test_moments_count_is_rejected_with_values(capsys):
    code, out, _ = _run(capsys, ["moments", "--input", '{"values": ["1"], "roots": [["0", 1]]}',
                                 "--count", "7"])
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": "--count applies only to a functional input"}


def test_moments_to_functional(capsys):
    code, out, _ = _run(capsys, [
        "moments", "--input",
        '{"values": ["2", "0"], "roots": [["1", 1], ["-1", 1]]}',
    ])
    assert code == 0
    assert out["P0"] == []
    assert out["parts"] == {"1": ["1"], "-1": ["1"]}


def test_moments_from_functional(capsys):
    code, out, _ = _run(capsys, [
        "moments", "--input",
        '{"P0": ["0", "1"], "roots": [["0", 2]]}', "--count", "4",
    ])
    assert code == 0
    assert out["values"] == ["0", "1", "0", "0"]


def test_moments_input_must_be_recognizable(capsys):
    code, out, _ = _run(capsys, ["moments", "--input", '{"nothing": 1}'])
    assert code == 2


def test_moment_values_must_be_an_array(capsys):
    code, out, _ = _run(capsys, ["moments", "--input", '{"values": 5, "roots": [["1", 1]]}'])
    assert code == 2
    assert out["error"]["message"] == "values must be an array of rationals"


def test_certify_unit_interval(capsys):
    code, out, _ = _run(capsys, [
        "certify", "--rule", "unit", "--poly", '["-1/2", "1"]',
    ])
    assert code == 0
    assert (out["p"], out["m"], out["valuation"], out["value"]) == (3, 2, -1, "1/12")


def test_certify_exponential(capsys):
    code, out, _ = _run(capsys, [
        "certify", "--rule", "exp", "--poly", '["0", "1", "1"]',
    ])
    assert code == 0
    assert (out["p"], out["m"], out["valuation"], out["value"]) == (2, 1, 0, "3")


def test_trace_test(capsys):
    code, out, _ = _run(capsys, [
        "trace-test", "--matrix",
        '[["0", "1"], ["0", "0"]]',
    ])
    assert code == 0
    assert out["inRadical"] is True
    assert out["traces"] == ["0", "0"]
    assert out["nilpotencyWitness"] == 2


def test_laurent_with_and_without_poly(capsys):
    code, out, _ = _run(capsys, ["laurent", "--lam", "7/3"])
    assert code == 0
    assert out["mzClass"] is True
    assert "imageMember" not in out

    code, out, _ = _run(capsys, [
        "laurent", "--lam", "-1", "--poly", '{"-1": "3", "2": "1"}',
    ])
    assert code == 0
    assert out["mzClass"] is True
    assert out["imageMember"] is True
    assert out["radicalVminus1Member"] is False


def test_gvc_probe_frozen(capsys):
    code, out, _ = _run(capsys, [
        "gvc-probe",
        "--op", '[{"exps": [1, 1], "c": "1"}]',
        "--p-poly", '[{"exps": [1, 0], "c": "1"}, {"exps": [0, 1], "c": "1"}]',
        "--q-poly", '[{"exps": [1, 0], "c": "1"}]',
        "--m-max", "10",
    ])
    assert code == 0
    assert out["hypothesisViolations"] == []
    assert out["conclusionViolations"] == [1]
    assert out["conclusionTransition"] == 2


# The operator d1^2 / 2 touches x1 only, so the kernel tests slices.
GVC_RATIONAL = ["gvc-probe", "--op", '[{"exps": [2, 0], "c": "1/2"}]',
                "--p-poly", '[{"exps": [1, 0], "c": "1"}, {"exps": [0, 1], "c": "2/3"}]',
                "--q-poly", '[{"exps": [3, 1], "c": "-5/7"}]', "--m-max", "8"]


def test_gvc_probe_rational_coefficients_frozen(capsys):
    # op^m kills x1^N H exactly when N < 2m: p^m has N = m, q p^m has N = m + 3.
    code, out, _ = _run(capsys, GVC_RATIONAL)
    assert code == 0
    assert out == {
        "mMax": 8,
        "hypothesisViolations": [],
        "conclusionViolations": [1, 2, 3],
        "conclusionTransition": 4,
        "command": "gvc-probe",
        "inputsDigest": "a12c5824eaccb8bd189f979988a1a1e58f71604b89afa7c03a903bd1bfe8a32c",
    }


def test_imagep_decide_member(capsys):
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "3", "--n", "1",
        "--input", '[{"zeta": [2], "x": [1], "c": 1}]',
    ])
    assert code == 0
    assert out["member"] is True
    assert out["certificate"][0] == [
        {"zeta": [0], "x": [0], "c": 2},
        {"zeta": [1], "x": [1], "c": 2},
    ]


def test_imagep_decide_obstruction(capsys):
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "2", "--n", "1",
        "--input", '[{"zeta": [0], "x": [1], "c": 1}]',
    ])
    assert code == 0
    assert out["member"] is False
    assert out["obstruction"]["zeta"] == [0]


def test_imagep_theorem(capsys):
    code, out, _ = _run(capsys, [
        "imagep", "theorem", "--p", "2", "--n", "1",
        "--input", '{"f": [{"zeta": [1], "x": [1], "c": 1}]}',
    ])
    assert code == 0
    assert out["hypothesisHolds"] is True
    assert out["conclusionHolds"] is True


def test_imagep_caps_enforced(capsys):
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "7", "--n", "1",
        "--input", '[{"zeta": [0], "x": [1], "c": 1}]',
    ])
    assert code == 2
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "3", "--n", "4",
        "--input", '[{"zeta": [0, 0, 0, 0], "x": [1, 1, 1, 1], "c": 1}]',
    ])
    assert code == 2
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "2", "--n", "1",
        "--input", '[{"zeta": [30], "x": [1], "c": 1}]',
    ])
    assert code == 2
    assert "cap" in out["error"]["message"]


@pytest.mark.parametrize("mode, data", [
    ("decide", '[{"zeta": [0], "x": [1], "c": 1}]'),
    ("theorem", '{"f": [{"zeta": [0], "x": [1], "c": 1}]}'),
])
@pytest.mark.parametrize("p, n, message", [
    ("4", "1", "p must be one of (2, 3, 5)"),
    ("7", "1", "p must be one of (2, 3, 5)"),
    ("3", "0", "n must be between 1 and 3"),
    ("3", "4", "n must be between 1 and 3"),
])
def test_imagep_checks_p_and_n_before_the_input(capsys, mode, data, p, n, message):
    code, out, _ = _run(capsys, ["imagep", mode, "--p", p, "--n", n, "--input", data])
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["moments", "--input", '{"P0": ["1"], "roots": [["0", 2]]}', "--count", "0"],
     "--count 0 must be at least 1"),
    (["moments", "--input", '{"P0": ["1"], "roots": [["0", 2]]}', "--count", "-3"],
     "--count -3 must be at least 1"),
    (["certify", "--rule", "unit", "--poly", '["0", "1", "1"]', "--m-min", "0"],
     "--m-min 0 must be at least 1"),
    (["certify", "--rule", "exp", "--poly", '["-1/2", "1"]', "--m-min", "-2"],
     "--m-min -2 must be at least 1"),
])
def test_count_and_m_min_below_1_name_their_flag(capsys, argv, message):
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


def _terms(count: int, nvars: int = 3):
    """count distinct unit terms of total degree at most 8."""
    exps = (e for e in product(range(5), repeat=2 * nvars) if sum(e) <= 8)
    return [{"zeta": list(e[:nvars]), "x": list(e[nvars:]), "c": 1}
            for e in islice(exps, count)]


def test_imagep_theorem_term_cap(capsys):
    # f has 2 terms without zeta, so the hypothesis fails at once; g
    # fills |g|*|f|^2 up to the cap and then one term past it.
    cap = cli._THEOREM_MAX_PRODUCT
    f = _terms(2)
    for g_terms, expected in ((cap // 4, 0), (cap // 4 + 1, 2)):
        data = json.dumps({"f": f, "g": _terms(g_terms)})
        code, out, _ = _run(capsys, ["imagep", "theorem", "--p", "5", "--n", "3",
                                     "--input", data])
        assert code == expected
    assert out["error"]["message"] == (
        f"--input: |g|*|f|^2 = {4 * (cap // 4 + 1)} terms exceed the cap {cap}")


PRIMES_BELOW_200 = math.prod(p for p in range(2, 200) if all(p % q for q in range(2, p)))


@pytest.mark.parametrize("poly, m_min", [
    (["1", "1"], "6000"),
    ([f"1/{PRIMES_BELOW_200}", "1"], "1"),
], ids=["m-min-6000", "t+1/P"])
def test_certify_size_cap_rejects_before_expanding(capsys, monkeypatch, poly, m_min):
    def no_expansion(*_args):
        raise AssertionError("power_moment ran above the size cap")

    monkeypatch.setattr(certificates, "power_moment", no_expansion)
    code, out, _ = _run(capsys, ["certify", "--rule", "unit", "--poly", json.dumps(poly),
                                 "--m-min", m_min])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert "over the cap of" in out["error"]["message"]


@pytest.mark.parametrize("rule", ["unit", "exp"])
def test_certify_m_min_over_the_caps_exits_2_before_any_prime_test(capsys, monkeypatch, rule):
    # At m = 10^4000 the expansion has about 10^8000 bits in all, a number
    # past the interpreter's integer-to-string limit: the message names it
    # by its digit count.
    def not_called(*_args):
        raise AssertionError("the search ran past the size caps")

    monkeypatch.setattr(certificates, "is_prime", not_called)
    monkeypatch.setattr(certificates, "power_moment", not_called)
    code, out, _ = _run(capsys, ["certify", "--rule", rule, "--poly", '["0", "-1", "1"]',
                                 "--m-min", str(10**4000)])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert "over the cap of" in out["error"]["message"]
    assert out["error"]["message"].startswith(f"at m = {10**4000} the expansion")
    assert "10^8000 or more bits in all" in out["error"]["message"]


def test_selftest_passes_and_is_deterministic(capsys):
    code, out, _ = _run(capsys, ["selftest", "--seed", "11"])
    assert code == 0
    assert out["passed"] is True
    assert all(check["ok"] for check in out["checks"])
    digest_one = out["inputsDigest"]
    code, out, _ = _run(capsys, ["selftest", "--seed", "11"])
    assert out["inputsDigest"] == digest_one


def test_selftest_requires_seed():
    with pytest.raises(SystemExit) as info:
        main(["selftest"])
    assert info.value.code == 2


def test_stdout_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "mzspaces", "decide",
            "--spec", json.dumps(SIGN_DIFFERENCE_SPEC), "--oracle"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip().endswith(b"}")
    assert b"elapsed_ms=" in first.stderr


@pytest.mark.parametrize("mult", ['"x"', "null", "1.7", "true"])
def test_non_integer_multiplicity_is_a_domain_error(capsys, mult):
    spec = ('{"roots": [["2", 1], ["1", %s]], "functionals": [{"parts": {"1": ["1"]}}]}'
            % mult)
    code, out, _ = _run(capsys, ["decide", "--spec", spec])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith("roots[1] multiplicity")


def _wide_spec(count):
    # Constant terms 1, 2, 4, ...: no subset sums to zero, so the kernel is
    # Mathieu-Zhao and the subset search itself is cheap at any width.
    roots = [str(k) for k in range(1, count + 1)]
    return {
        "roots": [[lam, 1] for lam in roots],
        "functionals": [{"parts": {lam: [str(2 ** i)] for i, lam in enumerate(roots)}}],
    }


def test_oracle_cap_is_the_subset_cap(capsys):
    at_cap = json.dumps(_wide_spec(DEFAULT_MAX_SUBSET_ROOTS))
    code, out, _ = _run(capsys, ["decide", "--oracle", "--spec", at_cap])
    assert code == 0
    assert (out["isMZ"], out["oracleIsMZ"], out["oracleAgrees"]) == (True, True, True)
    above = json.dumps(_wide_spec(DEFAULT_MAX_SUBSET_ROOTS + 1))
    for argv, search in ((["decide", "--spec", above], "subset"),
                         (["decide", "--oracle", "--spec", above], "subset"),
                         (["oracle", "--spec", above], "oracle")):
        code, out, _ = _run(capsys, argv)
        assert code == 2
        assert out["error"] == {"kind": "domain", "message": (
            f"{DEFAULT_MAX_SUBSET_ROOTS + 1} roots exceed the {search} enumeration cap "
            f"{DEFAULT_MAX_SUBSET_ROOTS}")}


def test_parts_given_as_a_list_is_a_domain_error(capsys):
    spec = {"roots": [["1", 1]], "functionals": [{"parts": [["1"]]}]}
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert "parts" in out["error"]["message"]
    # A present parts must be an object and a present P0 an array, even when
    # the value is empty or false.
    for field, value in [("parts", v) for v in ([], False, 0, "", None)] + [
            ("P0", v) for v in ({}, False, 0, "", None, "1")]:
        fn = {"parts": {"1": ["1"]}, field: value}
        spec = {"roots": [["1", 1]], "functionals": [fn]}
        code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
        assert code == 2, (field, value)
        assert out["error"]["kind"] == "domain"
        assert field in out["error"]["message"]
    spec = {"roots": [["1", 1], ["2"]], "functionals": [{"parts": {"1": ["1"]}}]}
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"]["message"] == "roots[1] must be a [root, multiplicity] pair"


def test_operator_at_a_non_root_names_the_values_as_written(capsys):
    """The values are named as the CLI writes rationals, not by their repr."""
    spec = {"roots": [["1", 1]],
            "functionals": [{"parts": {"1": ["1"], "2/4": ["1"], "-3": ["2"]}}]}
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": "operator attached to non-root value(s): 1/2, -3"}


def test_an_operator_at_the_root_0_under_parts_points_to_p0(capsys):
    spec = {"roots": [["0", 2], ["1", 1]],
            "functionals": [{"parts": {"0": ["1"], "1": ["1"]}}]}
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": "functionals[0].parts: the operator "
                            "at the root 0 goes in P0"}


@pytest.mark.parametrize("argv", [["decide", "--spec"], ["moments", "--input"]])
def test_directory_argument_is_a_domain_error(tmp_path, capsys, argv):
    code, out, _ = _run(capsys, argv + [str(tmp_path)])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith(argv[1] + ":")


def test_non_utf8_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, _ = _run(capsys, ["decide", "--spec", str(path)])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith("--spec:")


def test_matrix_rows_must_be_arrays(capsys):
    code, out, _ = _run(capsys, ["trace-test", "--matrix", "[1,2]"])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert "matrix" in out["error"]["message"]


GVC_TERMS = {
    "--op": '[{"exps": [1, 1], "c": "1"}]',
    "--p-poly": '[{"exps": [1, 0], "c": "1"}, {"exps": [0, 1], "c": "1"}]',
    "--q-poly": '[{"exps": [1, 0], "c": "1"}]',
}


@pytest.mark.parametrize("exps", ["[1.5, 1]", "[true, 0]", "[-1, 1]", '"10"', "1", "null"])
def test_gvc_probe_bad_exponents_are_domain_errors(capsys, exps):
    terms = dict(GVC_TERMS)
    terms["--p-poly"] = '[{"exps": [1, 0], "c": "1"}, {"exps": %s, "c": "1"}]' % exps
    argv = ["gvc-probe"] + [item for pair in terms.items() for item in pair]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith("--p-poly[1].exps must be an array")


@pytest.mark.parametrize("term", [
    '{"zeta": 1, "x": [1], "c": 1}',
    '{"zeta": [1], "x": [1.5], "c": 1}',
    '{"zeta": [true], "x": [1], "c": 1}',
    '{"zeta": [1], "x": [-1], "c": 1}',
])
def test_imagep_bad_exponents_are_domain_errors(capsys, term):
    field = "zeta" if '"zeta": [1]' not in term else "x"
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "3", "--n", "1",
        "--input", '[{"zeta": [1], "x": [0], "c": 1}, %s]' % term,
    ])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith(f"--input[1].{field} must be an array")
    code, out, _ = _run(capsys, [
        "imagep", "theorem", "--p", "3", "--n", "1",
        "--input", '{"f": [{"zeta": [1], "x": [0], "c": 1}], "g": [%s]}' % term,
    ])
    assert code == 2
    assert out["error"]["message"].startswith(f"--input.g[0].{field} must be an array")


def test_imagep_boolean_coefficient_is_a_domain_error(capsys):
    code, out, _ = _run(capsys, [
        "imagep", "decide", "--p", "3", "--n", "1",
        "--input", '[{"zeta": [1], "x": [0], "c": true}]',
    ])
    assert code == 2
    assert out["error"]["kind"] == "domain"


def test_trace_test_dimension_cap(capsys):
    def zero(n):
        return json.dumps([["0"] * n for _ in range(n)])

    code, out, _ = _run(capsys, ["trace-test", "--matrix", zero(48)])
    assert code == 0
    assert out["nilpotencyWitness"] == 1
    code, out, _ = _run(capsys, ["trace-test", "--matrix", zero(49)])
    assert code == 2
    assert out["error"]["message"] == "--matrix dimension 49 exceeds the cap 48"


def test_gvc_probe_m_max_cap(capsys):
    argv = ["gvc-probe"] + [item for pair in GVC_TERMS.items() for item in pair]
    code, out, _ = _run(capsys, argv + ["--m-max", "40"])
    assert code == 0
    assert out["conclusionViolations"] == [1]
    code, out, _ = _run(capsys, argv + ["--m-max", "41"])
    assert code == 2
    assert out["error"]["message"] == "--m-max 41 exceeds the cap 40"
    for m_max in ("0", "-4"):
        code, out, _ = _run(capsys, argv + ["--m-max", m_max])
        assert code == 2
        assert out["error"] == {"kind": "domain", "message": f"--m-max {m_max} must be at least 1"}


def _op_json(exponents):
    """The sum of the d-monomials with the given exponent tuples, as --op JSON."""
    return json.dumps([{"exps": list(e), "c": 1} for e in exponents])


def _scaled_p(a: int) -> str:
    """p = a x + (a/(a + 2)) y - a z as --p-poly JSON."""
    return json.dumps([{"exps": [1, 0, 0], "c": str(a)}, {"exps": [0, 1, 0], "c": f"{a}/{a + 2}"},
                       {"exps": [0, 0, 1], "c": str(-a)}])


LAPLACIAN = _op_json(([2, 0, 0], [0, 2, 0], [0, 0, 2]))
LAPLACIAN_P = json.dumps([{"exps": e, "c": c} for e, c in (
    ([2, 2, 0], 1), ([1, 1, 2], -1), ([0, 0, 4], 2), ([3, 0, 0], -1), ([0, 1, 1], 1),
    ([0, 0, 0], 3))])
ORDER_1_2 = _op_json(e for e in product(range(3), repeat=3) if 1 <= sum(e) <= 2)
SQUAREFREE = _op_json(e for e in product(range(2), repeat=3) if any(e))
X1 = '[{"exps": [1, 0, 0], "c": 1}]'
P_LINEAR = json.dumps([{"exps": [1, 0, 0], "c": 1}, {"exps": [0, 1, 0], "c": "2/3"},
                       {"exps": [0, 0, 1], "c": -1}])
# The heaviest benchmark gvc shape: op = d1^3 - d1^4, p = x1 h(x2, x3) with
# two terms in h, q = x1^3 g(x2, x3); op^m kills x1^N H exactly when N < 3m.
BENCH_OP = json.dumps([{"exps": [3, 0, 0], "c": "1"}, {"exps": [4, 0, 0], "c": "-1"}])
BENCH_P = json.dumps([{"exps": [1, 2, 1], "c": "1"}, {"exps": [1, 0, 3], "c": "-1"}])
BENCH_Q = json.dumps([{"exps": [3, 1, 1], "c": "-1"}])
# d1^3 - d1 d2^2 d3 touches every variable, so it runs on p and q over their
# contents.
WHOLE_OP = json.dumps([{"exps": [3, 0, 0], "c": 1}, {"exps": [1, 2, 1], "c": -1}])


def _all_violated(m_max):
    return {"hypothesisViolations": list(range(1, m_max + 1)),
            "conclusionViolations": list(range(1, m_max + 1)), "conclusionTransition": None}


# (op, p, q, m-max, budget, expected): the inputs the caps predicted from the
# plan accepted (the first six) or rejected (the rest), run under the metered
# budget, probes.GVC_MAX_COST when budget is None.  expected is the report
# an accepted input prints, the same as under the caps, or the m at which a
# rejected one stops.  Each accepted input runs in 0.5-1 s on a 2-vCPU host;
# of the rejected ones, two stop at the real budget and the rest under 10^8.
GVC_BUDGET_CASES = {
    "laplacian": (LAPLACIAN, LAPLACIAN_P, X1, 10, None, _all_violated(10)),
    "order-1-2": (ORDER_1_2, LAPLACIAN_P, X1, 7, None, _all_violated(7)),
    "squarefree": (SQUAREFREE, P_LINEAR, X1, 21, None, _all_violated(21)),
    "a=11": (SQUAREFREE, _scaled_p(11), X1, 21, None, _all_violated(21)),
    "a=10^9+7": (SQUAREFREE, _scaled_p(10**9 + 7), X1, 21, None, _all_violated(21)),
    "bench": (BENCH_OP, BENCH_P, BENCH_Q, 40, None, {
        "hypothesisViolations": [], "conclusionViolations": [1], "conclusionTransition": 2}),
    # Over the old term cap (4368 predicted terms), and under the budget.
    "laplacian-m11": (LAPLACIAN, LAPLACIAN_P, X1, 11, None, _all_violated(11)),
    "whole-op": (WHOLE_OP, BENCH_P, BENCH_Q, 40, 10**8, 17),
    "order-1-2-m10": (ORDER_1_2, LAPLACIAN_P, X1, 10, 10**8, 4),
    # The pair count: 1.3 s to the budget; it ran 24 s before any cap.
    "squarefree-m40": (SQUAREFREE, P_LINEAR, X1, 40, None, 25),
    "a=10^1000+7": (SQUAREFREE, _scaled_p(10**1000 + 7), X1, 21, 10**8, 6),
    # The bit weight: 1.3-1.8 s to the budget; it ran 69 s before any cap.
    "a=10^3000+7": (SQUAREFREE, _scaled_p(10**3000 + 7), X1, 21, None, 13),
}


@pytest.mark.parametrize("case", GVC_BUDGET_CASES)
def test_gvc_probe_budget(capsys, monkeypatch, case):
    op, p_poly, q_poly, m_max, budget, expected = GVC_BUDGET_CASES[case]
    if budget is not None:
        monkeypatch.setattr(probes, "GVC_MAX_COST", budget)
    code, out, _ = _run(capsys, ["gvc-probe", "--op", op, "--p-poly", p_poly,
                                 "--q-poly", q_poly, "--m-max", str(m_max)])
    if isinstance(expected, dict):
        assert code == 0
        assert out == {"mMax": m_max, **expected, "command": "gvc-probe",
                       "inputsDigest": out["inputsDigest"]}
    else:
        assert code == 2
        assert out["error"] == {"kind": "domain", "message": "the kill tests pass the cost "
                                f"budget {probes.GVC_MAX_COST} at m = {expected}"}


@pytest.mark.parametrize("op, p_poly, q_poly, message", [
    ('[{"exps": [0, 0, 1], "c": 1}]', '[{"exps": [1, 0], "c": 1}]', '[{"exps": [1, 0], "c": 1}]',
     "operator and polynomial variable counts differ"),
    ('[{"exps": [0, 1], "c": 1}]', '[{"exps": [1, 0], "c": 1}]', '[{"exps": [1, 0, 2], "c": 1}]',
     "variable count mismatch"),
])
def test_gvc_probe_variable_count_mismatch_is_a_domain_error(capsys, op, p_poly, q_poly, message):
    """The counts are checked before the caps predict anything from them."""
    code, out, _ = _run(capsys, ["gvc-probe", "--op", op, "--p-poly", p_poly,
                                 "--q-poly", q_poly, "--m-max", "2"])
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["imagep", "decide", "--p", "3", "--n", "2", "--input", '[{"zeta": [1], "x": [0], "c": 1}]'],
     "--input[0].zeta needs 2 exponents, got 1"),
    (["imagep", "theorem", "--p", "3", "--n", "1", "--input",
      '{"f": [{"zeta": [1], "x": [0], "c": 1}, {"zeta": [0], "x": [1, 0], "c": 1}]}'],
     "--input.f[1].x needs 1 exponents, got 2"),
    (["gvc-probe", "--op", '[{"exps": [1, 0], "c": 1}]', "--p-poly",
      '[{"exps": [1, 0], "c": 1}, {"exps": [1], "c": 1}]', "--q-poly", '[{"exps": [0, 1], "c": 1}]'],
     "--p-poly[1].exps needs 2 exponents, got 1"),
])
def test_an_exponent_array_of_the_wrong_length_is_named(capsys, argv, message):
    """imagep counts a term's exponents against --n, gvc-probe against the
    term list's first term, and the rejection names the term."""
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


# The help text is written by hand, so that building the parser imports no
# library module; these cases tie it to the caps the code enforces.
@pytest.mark.parametrize("command, text", [
    ("trace-test", f"at most {cli._TRACE_MAX_DIMENSION}"),
    ("gvc-probe", f"at most {cli._GVC_MAX_M}"),
    ("gvc-probe", f"may cost at most {probes.GVC_MAX_COST}"),
    ("gvc-probe", f"times ({probes.GVC_OP_BITS} + the bits"),
    ("gvc-probe", "up to about 3.5 s at the budget"),
    ("trace-test", "48x48 matrix of small rationals takes about 0.7 s"),
    ("moments", "--count 1500 on a degree-48 functional takes about 0.5 s"),
    ("moments", f"at most {cli._MOMENTS_MAX_COUNT}"),
    ("idempotents", f"at most {cli._IDEMPOTENTS_MAX_ROOTS} roots"),
    ("idempotents", f"at most {upoly.MAX_ROOT_DIGITS} digits in the extreme"),
    ("idempotents", f"at most {upoly.MAX_ROOT_STEPS} for its candidate"),
    ("decide", f"At most {DEFAULT_MAX_SUBSET_ROOTS} roots after normalizing"),
    ("decide", "about 0.04 s at 20 simple roots with 3 functionals"),
    ("decide", "about 0.4 s with a planted witness at degree 800"),
    ("decide", f"at most {DEFAULT_MAX_SUBSET_ROOTS} roots; about 0.1 s"),
    ("oracle", f"at most {DEFAULT_MAX_SUBSET_ROOTS} roots; about 0.1 s"),
    ("decide", "about 1 s at degree 800, 8 roots of multiplicity 100"),
    ("oracle", "about 1 s at degree 800, 8 roots of multiplicity 100"),
    ("imagep", f"one of {', '.join(map(str, cli._IMAGEP_PRIMES))}"),
    ("imagep", f"at most {cli._IMAGEP_MAX_VARS}"),
    ("imagep", f"total degree at most {cli._IMAGEP_MAX_DEGREE}"),
    ("imagep", "about 0.25 s on 840 terms at the caps"),
    ("imagep", f"|g|*|f|^2 at most {cli._THEOREM_MAX_PRODUCT}"),
    ("certify", f"at most {certificates.MAX_EXPANSION_TERMS} coefficients and "
                f"{certificates.MAX_EXPANSION_BITS} bits"),
    ("certify", "may not pass the interpreter's integer-to-string limit"),
    ("laurent", "linear in the number of terms"),
])
def test_probe_caps_are_stated_in_help(capsys, command, text):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert text in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["certify", "--rule", "unit", "--poly", "[true, 1]"],
    ["gvc-probe", "--op", '[{"exps": [1, 1], "c": true}]',
     "--p-poly", '[{"exps": [1, 0], "c": "1"}]', "--q-poly", '[{"exps": [1, 0], "c": "1"}]'],
    ["moments", "--input", '{"values": ["1", false], "roots": [["1", 1], ["2", 1]]}'],
])
def test_boolean_rational_is_a_domain_error(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert "boolean" in out["error"]["message"]


ONE_OVER_997 = '{"roots": [["1/997", 1]], "P0": [], "parts": {"1/997": ["1"]}}'


def test_oversized_rational_error_names_only_its_length(capsys):
    digits = "9" * 5000
    for lam in (digits, digits + "/0", "x" * 5000):
        code, out, _ = _run(capsys, ["laurent", "--lam", lam])
        assert code == 2
        assert out["error"]["message"] == f"not a rational: a {len(lam)}-character string"
        assert len(json.dumps(out, indent=2)) < 200
    code, out, _ = _run(capsys, ["laurent", "--lam", "1/0"])
    assert out["error"]["message"] == "not a rational: '1/0'"
    # An exponent is outside the grammar, so it is rejected before any
    # 33-million-bit integer is built.
    code, out, _ = _run(capsys, ["laurent", "--lam", "1e10000000"])
    assert code == 2
    assert out["error"]["message"] == "not a rational: '1e10000000'"


def test_oversized_option_and_exponent_errors_name_only_their_length(capsys):
    value = "x" * 5000
    code, out, _ = _run(capsys, ["decide", "--spec", value])
    assert code == 2
    assert out["error"]["message"].startswith(
        "--spec: cannot read a 5000-character string: ")
    assert len(json.dumps(out, indent=2)) < 200
    terms = dict(GVC_TERMS)
    terms["--op"] = json.dumps([{"exps": [1.5] * 2000, "c": "1"}])
    code, out, _ = _run(capsys, ["gvc-probe"] + [item for pair in terms.items() for item in pair])
    assert code == 2
    assert out["error"]["message"] == (
        "--op[0].exps must be an array of nonnegative integers, got an array of 2000 entries")
    spec = json.dumps({"roots": [["1", "5" * 5000]], "functionals": [{}]})
    code, out, _ = _run(capsys, ["decide", "--spec", spec])
    assert code == 2
    assert out["error"]["message"] == (
        "roots[0] multiplicity must be a JSON integer, got a 5000-character string")
    assert len(json.dumps(out, indent=2)) < 200


@pytest.mark.parametrize("key", ["1_0", " -2 "])
def test_laurent_exponent_keys_must_be_plain_integers(capsys, key):
    code, out, _ = _run(capsys, ["laurent", "--lam", "1", "--poly", json.dumps({key: "1"})])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith(f"bad Laurent exponent {key!r}")


def test_laurent_exponent_keys_name_each_exponent_once(capsys):
    code, out, _ = _run(capsys, ["laurent", "--lam", "1", "--poly", '{"1": "1", "01": "2"}'])
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": "repeated Laurent exponent 1 at key '01'"}


def test_functional_parts_name_each_root_once(capsys):
    # Read as a dict, the -1 under "2/4" would silently replace the 1 under
    # "1/2" and decide would answer for a functional that was never given.
    spec = {"roots": [["1/2", 1], ["2", 1]],
            "functionals": [{"parts": {"1/2": ["1"], "2/4": ["-1"], "2": ["1"]}}]}
    code, out, _ = _run(capsys, ["decide", "--spec", json.dumps(spec)])
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": "functionals[0].parts: repeated root 1/2 at key '2/4'"}


@pytest.mark.parametrize("argv, message", [
    (["moments", "--input", '{"P0": ["1"], "parts": {"0": ["1"]}, "roots": [["0", 2]]}'],
     "--input.parts: the operator at the root 0 goes in P0"),
    (["moments", "--input", '{"P0": "1", "roots": [["1", 1]]}'],
     "--input.P0 must be an array of rationals"),
    (["moments", "--input", '{"parts": ["1"], "roots": [["1", 1]]}'],
     "--input.parts must be an object mapping roots to operator coefficients"),
    (["decide", "--spec", '{"roots": [["1", 1]], "functionals": [{}, "x"]}'],
     "functionals[1] must be an object with P0 and parts"),
    (["decide", "--spec", '{"roots": [["1", 1]], "functionals": [{"P0": {}}]}'],
     "functionals[0].P0 must be an array of rationals"),
])
def test_functional_errors_name_where_the_functional_sits(capsys, argv, message):
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


def _no_power_moment(*_args):
    raise AssertionError("power_moment ran on a value too long to print")


# Both values would pass the size caps and then exceed 4300 digits when
# printed; the bound on their digits rejects them before anything expands.
@pytest.mark.parametrize("rule, poly, m_min", [
    ("exp", ["0", "1", "1"], 996),
    ("unit", ["1"] + ["0"] * 98 + ["1", "1"], 110),
])
def test_certify_rejects_a_value_too_long_to_print_before_computing_it(
        capsys, monkeypatch, rule, poly, m_min):
    monkeypatch.setattr(certificates, "power_moment", _no_power_moment)
    code, out, _ = _run(capsys, ["certify", "--rule", rule, "--poly", json.dumps(poly),
                                 "--m-min", str(m_min)])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert out["error"]["message"].startswith(f"at m = {m_min} the value may have ")
    assert out["error"]["message"].endswith(
        f"digits, over the cap of {sys.get_int_max_str_digits()} digits, the interpreter's "
        "limit for integer-to-string conversion")


# With a plain dict, the last value of a repeated key would win unseen: laurent
# would answer for 2t, decide for the second roots list, gvc-probe for c = 2.
_TWICE_SPEC = ('{"roots": [["1", 1]], "roots": [["1", 1], ["-1", 1]], '
               '"functionals": [{"parts": {"1": ["1"], "-1": ["-1"]}}]}')
_TWICE_GVC = dict(GVC_TERMS, **{"--p-poly": '[{"exps": [1, 0], "c": 1, "c": 2}]'})


@pytest.mark.parametrize("argv, message", [
    (["laurent", "--lam", "1", "--poly", '{"1": "1", "1": "2"}'], "--poly: key '1'"),
    (["decide", "--spec", _TWICE_SPEC], "--spec: key 'roots'"),
    (["gvc-probe", *(item for pair in _TWICE_GVC.items() for item in pair)], "--p-poly: key 'c'"),
], ids=["laurent", "decide", "gvc-probe"])
def test_a_key_written_twice_in_one_object_is_a_domain_error(capsys, argv, message):
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "domain",
                            "message": f"{message} written twice in one object"}


def test_moments_count_cap(capsys):
    code, out, _ = _run(capsys, ["moments", "--input", ONE_OVER_997, "--count", "1501"])
    assert code == 2
    assert out["error"]["message"] == "--count 1501 exceeds the cap 1500"
    # Without --count the count is deg f, and the cap holds for it too.
    roots = [[str(k), 250] for k in range(1, 9)]
    data = json.dumps({"roots": roots, "parts": {"1": ["1"]}})
    code, out, _ = _run(capsys, ["moments", "--input", data])
    assert code == 2
    assert out["error"]["message"] == (
        "the default --count, deg f = 2000, exceeds the cap 1500")
    data = json.dumps({"roots": [[str(k), 250] for k in range(1, 7)], "parts": {"1": ["1"]}})
    code, out, _ = _run(capsys, ["moments", "--input", data])
    assert code == 0
    assert len(out["values"]) == 1500


def test_moments_beyond_the_digit_limit_is_a_domain_error(capsys):
    # (1/997)^n has more than 4300 digits in its denominator from n = 1433 on.
    code, out, _ = _run(capsys, ["moments", "--input", ONE_OVER_997, "--count", "1500"])
    assert code == 2
    assert out["error"]["kind"] == "domain"
    assert f"exceeds {sys.get_int_max_str_digits()} digits" in out["error"]["message"]


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "mzspaces", "selftest", "--seed", "7"],
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_json_integer_beyond_the_digit_limit_is_a_domain_error(capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, _ = _run(capsys, ["certify", "--rule", "unit", "--poly", f"[{digits}, 1]"])
    assert code == 2
    assert out["error"]["message"].startswith("--poly: an integer exceeds")


ONE_TERM = '[{"zeta": [1], "x": [0], "c": 1}]'


@pytest.mark.parametrize("argv, message", [
    (["decide", "--spec", '{"roots": [["0", 1], ["1", 1]], '
                          '"functionals": [{"P0": ["1"], "prats": {"1": ["-1"]}}]}'],
     "functionals[0]: unknown key 'prats'"),
    (["oracle", "--spec", json.dumps({**SIGN_DIFFERENCE_SPEC, "root": []})],
     "spec: unknown key 'root'"),
    (["decide", "--spec", json.dumps({"roots": [["1", 1]], "functionals": [{"x" * 5000: 1}]})],
     "functionals[0]: unknown key a 5000-character string"),
    (["gvc-probe", "--op", '[{"exps":[1,1],"c":"1","d":5}]',
      "--p-poly", GVC_TERMS["--p-poly"], "--q-poly", GVC_TERMS["--q-poly"]],
     "--op[0]: unknown key 'd'"),
    (["imagep", "decide", "--p", "3", "--n", "1",
      "--input", '[{"zeta": [1], "x": [0], "c": 1, "y": [0]}]'],
     "--input[0]: unknown key 'y'"),
    (["imagep", "theorem", "--p", "3", "--n", "1", "--input", '{"f": %s, "h": []}' % ONE_TERM],
     "--input: unknown key 'h'"),
    (["imagep", "theorem", "--p", "3", "--n", "1",
      "--input", '{"f": %s, "g": [{"zeta": [0], "x": [0], "c": 1, "C": 2}]}' % ONE_TERM],
     "--input.g[0]: unknown key 'C'"),
    (["moments", "--input", '{"values": ["1"], "roots": [["1", 1]], "count": 3}'],
     "--input: unknown key 'count'"),
    (["moments", "--input", '{"P0": ["1"], "roots": [["0", 1]], "prats": {}}'],
     "--input: unknown key 'prats'"),
])
def test_unknown_keys_are_domain_errors_naming_their_place(capsys, argv, message):
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


def test_every_known_key_is_still_read(capsys):
    code, out, _ = _run(capsys, ["moments", "--input", json.dumps(
        {"values": ["2", "0"], "charPoly": ["-1", "0", "1"]})])
    assert code == 0
    assert out["parts"] == {"-1": ["1"], "1": ["1"]}
    code, out, _ = _run(capsys, ["moments", "--input", json.dumps(
        {"roots": [["1", 1]], "P0": [], "parts": {"1": ["2"]}})])
    assert code == 0
    assert out["values"] == ["2"]
    code, out, _ = _run(capsys, ["imagep", "theorem", "--p", "2", "--n", "1",
                                 "--input", '{"f": %s, "g": %s}' % (ONE_TERM, ONE_TERM)])
    assert code == 0


@pytest.mark.parametrize("data, message", [
    ({"values": ["2", "0"], "roots": [["1", 1], ["-1", 1]], "charPoly": ["1", "0", "1"],
      "P0": ["5"]}, "--input: values cannot be given with P0"),
    ({"values": ["1"], "roots": [["1", 1]], "parts": {}}, "--input: values cannot be given with parts"),
    ({"values": ["1"], "roots": [["1", 1]], "P0": [], "parts": {}},
     "--input: values cannot be given with P0 or parts"),
    ({"values": ["1"], "roots": [["1", 1]], "charPoly": ["-1", "1"]},
     "--input: roots cannot be given with charPoly"),
    ({"P0": ["1"], "roots": [["1", 1]], "charPoly": ["-1", "1"]},
     "--input: roots cannot be given with charPoly"),
])
def test_moments_conflicting_keys_are_domain_errors(capsys, data, message):
    # Each input used to exit 0, reading one branch and dropping the rest.
    code, out, _ = _run(capsys, ["moments", "--input", json.dumps(data)])
    assert code == 2
    assert out["error"] == {"kind": "domain", "message": message}


def _never(*_args):
    raise AssertionError("a cap of the root search must be checked first")


def test_root_search_digit_cap(capsys, monkeypatch):
    # t - p for a 12-digit prime p is split; a 14-digit one took 1.5 s to
    # split and is now rejected before any trial division.
    code, out, _ = _run(capsys, ["idempotents", "--modulus", '["-999999999989", "1"]'])
    assert code == 0
    assert out["roots"] == [["999999999989", 1]]
    monkeypatch.setattr("mzspaces.upoly._divisors", _never)
    message = ("an extreme coefficient of the primitive form has more than 12 digits, "
               "the cap of the root search")
    code, out, _ = _run(capsys, ["idempotents", "--modulus", '["-10000000000037", "1"]'])
    assert (code, out["error"]["message"]) == (2, f"--modulus: {message}")
    code, out, _ = _run(capsys, ["moments", "--input", json.dumps(
        {"values": ["1", "1"], "charPoly": ["3", "-1", "0", str(10**13)]})])
    assert (code, out["error"]["message"]) == (2, f"charPoly: {message}")
    # The primitive form counts: 10^13 t - 2 * 10^13 is t - 2.
    monkeypatch.undo()
    code, out, _ = _run(capsys, ["moments", "--input", json.dumps(
        {"values": ["1"], "charPoly": [str(-2 * 10**13), str(10**13)]})])
    assert code == 0
    assert out["roots"] == [["2", 1]]


def test_root_search_candidate_cap(capsys, monkeypatch):
    # 240 x 64 divisors give 30720 candidates +-p/q at degree 6 (2.2 s to
    # reject before the cap); they are counted before any is evaluated.
    monkeypatch.setattr("mzspaces.upoly.Poly.__call__", _never)
    code, out, _ = _run(capsys, [
        "idempotents", "--modulus", '["720720", "0", "0", "0", "0", "0", "247110827"]'])
    assert code == 2
    assert out["error"]["message"] == (
        "--modulus: 30720 candidate roots times degree 6 exceed 120000, "
        "the cap of the root search")


# The command line is read against cli's command table: one row per option,
# (flag, dest, kind, required, default, help), and a flag without dashes is
# the positional.
TABLE = cli._build_parser()
ROWS = [(command, row) for command, entry in TABLE.items() for row in entry[3]]


def _sample(row) -> str:
    kind = row[2]
    return kind[-1] if isinstance(kind, tuple) else "-3" if kind is int else "-1/2"


def _required_argv(command, skip=None) -> list:
    argv = [command]
    for row in TABLE[command][3]:
        if row[3] and row[0] != skip:
            argv += [_sample(row)] if row[0] == row[1] else [row[0], _sample(row)]
    return argv


def _usage_exit(capsys, argv) -> str:
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: mz")
    return captured.err


@pytest.mark.parametrize("command, row", [(c, r) for c, r in ROWS if r[0] != r[1]],
                         ids=lambda value: value if isinstance(value, str) else value[0])
def test_every_option_is_read_in_both_spellings(command, row):
    flag, dest, kind = row[:3]
    if kind is bool:
        args = cli._parse_args(TABLE, [*_required_argv(command), flag])
        assert getattr(args, dest) is True
        return
    spaced = cli._parse_args(TABLE, [*_required_argv(command), flag, _sample(row)])
    joined = cli._parse_args(TABLE, [*_required_argv(command), f"{flag}={_sample(row)}"])
    assert spaced == joined
    assert getattr(spaced, dest) == (int(_sample(row)) if kind is int else _sample(row))
    assert spaced.command == command and spaced.handler is TABLE[command][0]


def test_defaults_of_the_optional_options():
    def parsed(command):
        return vars(cli._parse_args(TABLE, _required_argv(command)))

    assert parsed("certify")["m_min"] == 1
    assert parsed("gvc-probe")["m_max"] == 12
    assert parsed("moments")["count"] is None
    assert parsed("decide")["oracle"] is False
    assert parsed("idempotents") == {"command": "idempotents", "handler": cli._cmd_idempotents,
                                     "roots": None, "modulus": None, "all": False}


@pytest.mark.parametrize("command, flag", [(c, r[0]) for c, r in ROWS if r[3]])
def test_missing_required_option_is_a_usage_error(capsys, command, flag):
    err = _usage_exit(capsys, _required_argv(command, skip=flag))
    assert f"mz {command}: error: the following arguments are required: {flag}" in err


@pytest.mark.parametrize("argv, message", [
    (["certify", "--rule", "unit", "--poly", "[1]", "--m-min", "x"],
     "argument --m-min: invalid int value: 'x'"),
    (["certify", "--rule", "unit", "--poly", "[1]", "--search-bound", "5"],
     "unrecognized arguments: --search-bound"),
    (["certify", "--rule", "other", "--poly", "[1]"], "argument --rule: invalid choice"),
    (["imagep", "guess", "--p", "3", "--n", "1", "--input", "[]"],
     "argument mode: invalid choice"),
    (["imagep", "decide", "theorem", "--p", "3", "--n", "1", "--input", "[]"],
     "unrecognized arguments: theorem"),
    (["decide", "--spec", "{}", "--bogus"], "unrecognized arguments: --bogus"),
    (["decide", "--sp", "{}"], "unrecognized arguments: --sp"),
    (["decide", "--spec", "{}", "--oracle=yes"], "unrecognized arguments: --oracle=yes"),
    (["decide", "--spec"], "argument --spec: expected one argument"),
    (["decide", "--spec", "--oracle"], "argument --spec: expected one argument"),
    (["gvc-probe", "--op", "[]", "--p-poly", "[]", "--q-poly", "[]", "--m-max", "-x"],
     "argument --m-max: invalid int value: '-x'"),
    (["trace-test", "-m", "[]"], "unrecognized arguments: -m"),
    (["nosuch"], "mz: error: argument command: invalid choice: 'nosuch'"),
    (["--spec", "{}"], "mz: error: argument command: invalid choice: '--spec'"),
    ([], "mz: error: the following arguments are required: command"),
])
def test_usage_errors_exit_2_on_stderr(capsys, argv, message):
    assert message in _usage_exit(capsys, argv)


@pytest.mark.parametrize("command", TABLE)
@pytest.mark.parametrize("where", ["first", "last"])
def test_help_names_every_option_and_exits_0(capsys, command, where):
    argv = [command, "-h"] if where == "first" else [*_required_argv(command), "--help"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out = capsys.readouterr().out
    assert info.value.code == 0
    assert out.startswith(f"usage: mz {command} [-h]")
    labels = {line.strip().split("  ")[0] for line in out.splitlines()[1:]}
    assert {cli._label(row) for row in TABLE[command][3]} <= labels


def test_top_level_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    out = capsys.readouterr().out
    assert info.value.code == 0
    for command, entry in TABLE.items():
        assert f"  {command.ljust(len('idempotents'))}  {entry[1]}\n" in out


def test_repeated_option_takes_its_last_value(capsys):
    args = cli._parse_args(TABLE, ["certify", "--rule", "unit", "--poly", "[1]", "--rule=exp",
                                   "--m-min", "2", "--m-min=5", "--poly", "[2]"])
    assert (args.rule, args.m_min, args.poly) == ("exp", 5, "[2]")
    code, out, _ = _run(capsys, ["laurent", "--lam", "2", "--lam", "-1/2"])
    assert code == 0 and out["lambda"] == "-1/2"


@pytest.mark.parametrize("inputs", [
    {"seed": 3}, {"lambda": "-1/2", "poly": {"2": "1"}}, [], "é", {"a": [1, {"b": None}]},
])
def test_digest_is_sha256_of_the_canonical_inputs(inputs):
    import hashlib

    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert cli._digest(inputs) == hashlib.sha256(canonical).hexdigest()
