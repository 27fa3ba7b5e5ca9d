"""Command line front end: JSON in, JSON out.

This module owns the wire format: every JSON reader and writer of the
package is here, and the library modules know nothing of JSON.  Both go
through `_json`, the C codec behind `json`; `json` itself, with the `re` and
`enum` it loads, is imported only to report malformed input.  A rational is
a JSON integer or an ASCII string -?[0-9]+ or -?[0-9]+/[0-9]+, written back
as the canonical "num/den" string with "/1" dropped.

Exit codes: 0 on success, 2 when the input is rejected (malformed JSON or a
failed precondition), 1 on internal errors, and 141 (128 + SIGPIPE, with
nothing on stderr) when stdout is closed before the report is written.
Output on stdout is byte-identical for identical inputs and seed; wall time
goes to stderr.

Each handler imports the library modules it runs, so a call loads only
those (and `mzspaces/__init__.py` imports nothing).
"""

from __future__ import annotations

import _json
import os
import sys
import time
from types import SimpleNamespace

from .errors import DomainError

try:  # the builtin SHA-256 that hashlib falls back to; OpenSSL's costs ≈5 ms to load
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

_IMAGEP_PRIMES = (2, 3, 5)
_IMAGEP_MAX_VARS = 3
_IMAGEP_MAX_DEGREE = 24
# Work budgets of the probes and of moments, each chosen so that the capped
# case runs in at most about a second on a 2-vCPU host: a dense 48x48 matrix
# with entries a/b, |a|, b <= 9, takes 0.65-0.7 s in trace-test as a process
# (0.37-0.64 s in the kernel, BENCH_probe_kernels.json); gvc-probe meters
# its own budget (probes.GVC_MAX_COST); --count 1500 takes 0.4-0.5 s on a degree-48
# functional with 16 roots a/b, |a| <= 5, b <= 3 (multiplicity 3), and about
# 0.4 s with 8 roots of multiplicity 6.  `idempotents --all` prints 2^r
# polynomials; at r = 12 that is 0.95 s and 1.1 MB, and each further root
# doubles both.  The oracle
# walks all 2^r subsets of the roots, one big-integer addition each; at its
# cap (mzdecide.DEFAULT_MAX_SUBSET_ROOTS, 20 roots) a spec with no balanced
# subset and 3 functionals takes 0.2-0.4 s, and the help text says so.  The
# root search of `--modulus` and `charPoly` (upoly.rational_roots) takes
# 0.25-0.27 s at its digit cap and 0.65-1.25 s at its candidates-times-degree
# cap (19200 candidates at degree 6, 10240 at degree 12, 2048 at degree 117).
_TRACE_MAX_DIMENSION = 48
_GVC_MAX_M = 40
_MOMENTS_MAX_COUNT = 1500
_IDEMPOTENTS_MAX_ROOTS = 12
# A rejected value is named by its type and length only once its repr is
# longer than _ECHO_LIMIT, or a rejected path (a JSON option that is not
# inline JSON) once it is longer than _PATH_ECHO_LIMIT.
_ECHO_LIMIT = 40
_PATH_ECHO_LIMIT = 256
_JSON_WHITESPACE = " \t\n\r"
_ORACLE_COST = ("at most 20 roots; about 0.4 s at 20 roots with 3 functionals, and about 1 s at "
                "degree 800, 8 roots of multiplicity 100")
_DECIDE_COST = ("At most 20 roots after normalizing; about 0.04 s at 20 simple roots with 3 "
                "functionals, and about 0.4 s with a planted witness at degree 800, 8 roots of "
                "multiplicity 100.")
# certificates.MAX_EXPANSION_TERMS and MAX_EXPANSION_BITS, with their time.
_CERTIFY_COST = ("From --m-min up, (D*f)^m, D the common denominator of f, may have at most 12000 "
                 "coefficients and 4000000 bits in all (else exit 2); up to about 1 s at the caps.")
# Measured at p = 5, n = 3 and total degree 23-24 on a 2-vCPU host.  theorem
# forms f^p and f^(p^2) by Frobenius, so its product g f^(p^2) f has at most
# |g| |f|^2 terms, and its time follows that count.
_THEOREM_MAX_PRODUCT = 4000
_IMAGEP_COST = ("decide takes about 0.25 s on 840 terms at the caps; theorem needs "
                f"|g|*|f|^2 at most {_THEOREM_MAX_PRODUCT} (|f| the number of terms of f), "
                "about 0.9 s at that cap.")


def _shown(value, limit: int = _ECHO_LIMIT) -> str:
    """repr(value) for a rejection message, or only its type and length once
    that is longer than limit, so an error never repeats a huge input."""
    text = repr(value)
    if len(text) <= limit:
        return text
    if isinstance(value, str):
        return f"a {len(value)}-character string"
    if isinstance(value, list):
        return f"an array of {len(value)} entries"
    return f"a {type(value).__name__} {len(text)} characters long"


class _ParseError(Exception):
    """Malformed JSON input; args are json.JSONDecodeError's msg, lineno and colno."""


class _RepeatedKey(Exception):
    """args[0] is written twice in one JSON object.  Not a ValueError, which
    `_loads` would answer with json.loads, where the last value wins unseen."""


def _object(pairs):
    """The dict of one JSON object's (key, value) pairs, each key once."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        raise _RepeatedKey(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return out


# The scanner json.decoder.JSONDecoder() builds (strict, floats for NaN and
# ±Infinity) but for its pairs hook, which rejects a repeated key.
_scan_once = _json.make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=_object, parse_float=float, parse_int=int,
    parse_constant={"NaN": float("nan"), "Infinity": float("inf"),
                    "-Infinity": float("-inf")}.__getitem__))


def _loads(text: str):
    """json.loads(text), read by _json's scanner.  Input it does not read
    whole (malformed, trailing data, too many digits) goes to json.loads,
    which raises what it always raises; before 3.12 the scanner cannot even
    build a JSONDecodeError until json.decoder is loaded.  Input nested
    deeper than the recursion limit lets the scanner go raises its
    RecursionError, as json.loads would."""
    start = len(text) - len(text.lstrip(_JSON_WHITESPACE))
    try:
        value, end = _scan_once(text, start)
    except (StopIteration, SystemError, ValueError):
        end = None
    if end == len(text.rstrip(_JSON_WHITESPACE)):
        return value
    import json

    return json.loads(text)


def _load_json_arg(text: str, option: str):
    """Accept inline JSON (starts with { or [) or a file path.  Malformed JSON
    is a _ParseError; an unreadable path, an integer too long to read,
    nesting too deep to read or a key written twice in one object, a domain
    error naming the option (and the path, only by its length when long)."""
    stripped = text.strip()
    try:
        if stripped.startswith("{") or stripped.startswith("["):
            return _loads(stripped)
        with open(text, "r", encoding="utf-8") as fh:
            return _loads(fh.read())
    except OSError as exc:
        shown = _shown(text, _PATH_ECHO_LIMIT)
        raise DomainError(f"{option}: cannot read {shown}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{option}: {_shown(text, _PATH_ECHO_LIMIT)} is not UTF-8 text") from exc
    except RecursionError as exc:
        raise DomainError(f"{option}: the JSON nests too deeply to read") from exc
    except _RepeatedKey as exc:
        raise DomainError(f"{option}: key {_shown(exc.args[0])} written twice in one object") from exc
    except ValueError as exc:  # raised by json.loads, so json is loaded
        if isinstance(exc, sys.modules["json"].JSONDecodeError):
            raise _ParseError(exc.msg, exc.lineno, exc.colno) from exc
        raise DomainError(  # the only other ValueError json raises
            f"{option}: an integer exceeds {sys.get_int_max_str_digits()} digits, the "
            "interpreter's limit for string-to-integer conversion"
        ) from exc


def _check_keys(data: dict, keys: tuple, where: str) -> None:
    """Reject a key of the object data outside keys, naming where it sits."""
    for key in data:
        if key not in keys:
            raise DomainError(f"{where}: unknown key {_shown(key)}")


def _is_json_int(value) -> bool:
    """A JSON integer: an int that is not a bool (JSON true loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_ascii_int(text: str) -> bool:
    """text is -?[0-9]+ in ASCII; int() alone would also take "1_0", " 2 "
    or the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def parse_rational(value):
    """A JSON integer, or an ASCII string -?[0-9]+ or -?[0-9]+/[0-9]+, as a
    rational scalar: the int itself for an integer, a scalars.Rational
    (with scalars imported only then) for num/den.  Anything else is a
    DomainError: floats, exponents, blanks, underscores, a zero denominator,
    or more digits than the interpreter converts."""
    if isinstance(value, bool):
        raise DomainError(f"not a rational: the boolean {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if _is_ascii_int(num) and (not slash or (den.isascii() and den.isdigit())):
            try:
                if not slash:
                    return int(num)
                from .scalars import Rational

                return Rational(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                pass
    raise DomainError(f"not a rational: {_shown(value)}")


def format_rational(value) -> str:
    """An int or a Rational as its canonical "num/den" string, denominator 1
    dropped.  A numerator or denominator longer than the interpreter's
    integer-to-string limit is a DomainError; the limit is not raised."""
    try:
        return str(value)
    except ValueError as exc:
        raise DomainError(
            f"a result exceeds {sys.get_int_max_str_digits()} digits, the interpreter's "
            "limit for integer-to-string conversion"
        ) from exc


def parse_exponents(value, where: str) -> tuple:
    """A JSON array of nonnegative integers as a tuple; anything else is a
    DomainError naming where the value sits (and its length, not the value,
    once that is long)."""
    if not isinstance(value, list) or not all(_is_json_int(e) and e >= 0 for e in value):
        raise DomainError(
            f"{where} must be an array of nonnegative integers, got {_shown(value)}"
        )
    return tuple(value)


def _rationals_from_json(data, what: str) -> list:
    """An array of rationals: polynomial coefficients, moment values or a
    matrix row."""
    if not isinstance(data, list):
        raise DomainError(f"{what} must be an array of rationals")
    return [parse_rational(v) for v in data]


def poly_to_json(p: Poly):
    return [format_rational(c) for c in p.coeffs]


def poly_from_json(data, what: str = "polynomial JSON") -> Poly:
    """Coefficients, constant term first."""
    from .upoly import Poly

    return Poly(_rationals_from_json(data, what))


def laurent_from_json(data) -> LaurentPoly:
    """Keys are exponents written as ASCII -?[0-9]+ ("1" and "01" not both), values rationals."""
    from .sparse import LaurentPoly

    if not isinstance(data, dict):
        raise DomainError("Laurent JSON must map exponent strings to rationals")
    out = {}
    for key, c in data.items():
        if not _is_ascii_int(key):
            raise DomainError(f"bad Laurent exponent {_shown(key)}: not an integer -?[0-9]+")
        try:
            exp = int(key)
        except ValueError as exc:  # more digits than the interpreter converts
            raise DomainError(f"bad Laurent exponent {_shown(key)}: too many digits") from exc
        if exp in out:
            raise DomainError(f"repeated Laurent exponent {exp} at key {_shown(key)}")
        out[exp] = parse_rational(c)
    return LaurentPoly(out)


def functional_to_json(fn: FunctionalNF):
    return {
        "P0": poly_to_json(fn.zero_part),
        "parts": {format_rational(lam): poly_to_json(op) for lam, op in fn.parts.items()},
    }


def functional_from_json(data, roots: RootData, where: str = "functional") -> FunctionalNF:
    """{"P0": [...], "parts": {root: [...]}}; either may be left out, a present
    P0 must be an array, present parts an object with no two keys of the same
    root ("1/2" and "2/4"), and where names any other key or a repeated root."""
    from .functionals import FunctionalNF

    if not isinstance(data, dict):
        raise DomainError("functional JSON must be an object with P0 and parts")
    _check_keys(data, ("P0", "parts"), where)
    zero_part = poly_from_json(data.get("P0", []), "functional P0")
    raw_parts = data.get("parts", {})
    if not isinstance(raw_parts, dict):
        raise DomainError(
            "functional parts must be an object mapping roots to operator coefficients"
        )
    parts = {}
    for key, coeffs in raw_parts.items():
        lam = parse_rational(key)
        if lam in parts:
            raise DomainError(f"{where}.parts: repeated root {lam} at key {_shown(key)}")
        parts[lam] = poly_from_json(coeffs)
    return FunctionalNF(roots, zero_part, parts)


def _terms_from_json(data, label: str, fields: tuple, read_c, nvars=None) -> dict:
    """A multivariate polynomial as a term list: an array of objects, each
    with an exponent array of nvars entries (by default, as many as the first
    term's) under every name in fields and a coefficient c that read_c reads,
    and no other key.  Returns {(exponent tuple per field): summed c}; errors
    name label and the term index."""
    if not isinstance(data, list):
        raise DomainError(f"{label} must be an array of term objects")
    terms = {}
    for i, item in enumerate(data):
        if not isinstance(item, dict) or not all(f in item for f in (*fields, "c")):
            raise DomainError(f"{label}[{i}] needs {', '.join(fields)} and c fields")
        _check_keys(item, (*fields, "c"), f"{label}[{i}]")
        key = tuple(parse_exponents(item[f], f"{label}[{i}].{f}") for f in fields)
        nvars = len(key[0]) if nvars is None else nvars
        for f, exps in zip(fields, key):
            if len(exps) != nvars:
                raise DomainError(f"{label}[{i}].{f} needs {nvars} exponents, got {len(exps)}")
        terms[key] = terms.get(key, 0) + read_c(item["c"])
    return terms


def _residue_from_json(value) -> int:
    if not _is_json_int(value):
        raise DomainError(f"coefficients must be integers, got {_shown(value)}")
    return value


def zx_to_json(q: ZXPoly):
    return [{"zeta": list(z), "x": list(x), "c": q.terms[(z, x)]} for z, x in sorted(q.terms)]


def zx_from_json(data, nvars: int, modulus: int, label: str = "polynomial") -> ZXPoly:
    """Terms {"zeta": [...], "x": [...], "c": int} over F_modulus."""
    from .imagep import ZXPoly

    return ZXPoly(nvars, modulus,
                  _terms_from_json(data, label, ("zeta", "x"), _residue_from_json, nvars))


def _multipoly_from_json(data, label: str) -> MultiPolyQ:
    """Terms {"exps": [...], "c": rational} over Q, at least one."""
    from .probes import MultiPolyQ

    if not isinstance(data, list) or not data:
        raise DomainError(f"{label} must be a nonempty array of term objects")
    terms = _terms_from_json(data, label, ("exps",), parse_rational)
    return MultiPolyQ(len(next(iter(terms))[0]), {exps: c for (exps,), c in terms.items()})


def _split_roots_from_json(data, where: str) -> RootData:
    """The roots of a polynomial that must split over Q; a rejection names where."""
    from .upoly import rational_roots

    try:
        return rational_roots(poly_from_json(data))
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc


def _roots_from_json(data) -> RootData:
    from .upoly import RootData

    if not isinstance(data, list) or not data:
        raise DomainError("roots must be a nonempty array of [root, multiplicity] pairs")
    pairs = []
    for i, item in enumerate(data):
        if not isinstance(item, list) or len(item) != 2:
            raise DomainError(f"roots[{i}] must be a [root, multiplicity] pair")
        mult = item[1]
        if not _is_json_int(mult):
            raise DomainError(
                f"roots[{i}] multiplicity must be a JSON integer, got {_shown(mult)}"
            )
        pairs.append((parse_rational(item[0]), mult))
    return RootData(pairs)


def _spec_from_json(data) -> SubspaceSpec:
    from .mzdecide import SubspaceSpec

    if not isinstance(data, dict):
        raise DomainError("spec must be an object with functionals and roots")
    _check_keys(data, ("roots", "functionals"), "spec")
    if "roots" not in data or "functionals" not in data:
        raise DomainError("spec needs both a functionals array and a roots array")
    roots = _roots_from_json(data["roots"])
    fns = data["functionals"]
    if not isinstance(fns, list) or not fns:
        raise DomainError("functionals must be a nonempty array")
    return SubspaceSpec(
        [functional_from_json(fn, roots, f"functionals[{i}]") for i, fn in enumerate(fns)])


def _matrix_from_json(data) -> MatrixQ:
    """Rows of rationals, at most _TRACE_MAX_DIMENSION of them."""
    from .probes import MatrixQ

    if not isinstance(data, list):
        raise DomainError("matrix must be an array of rows, each an array of rationals")
    if len(data) > _TRACE_MAX_DIMENSION:
        raise DomainError(f"--matrix dimension {len(data)} exceeds the cap {_TRACE_MAX_DIMENSION}")
    return MatrixQ([_rationals_from_json(row, f"--matrix[{i}]") for i, row in enumerate(data)])


def _roots_to_json(roots: RootData):
    return [[format_rational(lam), mult] for lam, mult in roots]


def _verdict_payload(spec: SubspaceSpec, verdict):
    payload = {"isMZ": verdict.is_mz}
    if not verdict.is_mz:
        payload["witnessSubset"] = [format_rational(lam) for lam in verdict.witness_subset]
        payload["witnessIdempotent"] = poly_to_json(verdict.witness_idempotent)
        payload["witnessMultiplier"] = poly_to_json(verdict.witness_multiplier)
    payload["normalizedRoots"] = _roots_to_json(spec.roots)
    return payload


def _cmd_decide(args):
    from .mzdecide import decide_mz, normalize, oracle_decide_mz

    spec = normalize(args.spec)
    verdict = decide_mz(spec)
    payload = _verdict_payload(spec, verdict)
    if args.oracle:
        payload["oracleIsMZ"] = oracle_decide_mz(spec)
        payload["oracleAgrees"] = payload["oracleIsMZ"] == verdict.is_mz
    return payload


def _cmd_oracle(args):
    from .mzdecide import normalize, oracle_decide_mz

    return {"isMZ": oracle_decide_mz(normalize(args.spec))}


def _cmd_idempotents(args):
    from .quotient import all_idempotents, crt_idempotents

    if (args.roots is None) == (args.modulus is None):
        raise DomainError("give exactly one of --roots or --modulus")
    roots = args.modulus if args.roots is None else args.roots
    if args.all and len(roots) > _IDEMPOTENTS_MAX_ROOTS:
        raise DomainError(f"--all with {len(roots)} roots exceeds the cap {_IDEMPOTENTS_MAX_ROOTS}")
    base = crt_idempotents(roots)
    payload = {
        "roots": _roots_to_json(roots),
        "idempotents": {format_rational(lam): poly_to_json(e) for lam, e in base.items()},
    }
    if args.all:
        payload["allIdempotents"] = [poly_to_json(e) for e in all_idempotents(roots)]
    return payload


def _cmd_moments(args):
    from .functionals import from_moments, to_moments

    data = args.input
    if not isinstance(data, dict):
        raise DomainError("input must be an object")
    _check_keys(data, ("values", "roots", "charPoly", "P0", "parts"), "--input")
    for key, others in (("values", ("P0", "parts")), ("roots", ("charPoly",))):
        clash = [other for other in others if other in data]
        if key in data and clash:
            raise DomainError(f"--input: {key} cannot be given with {' or '.join(clash)}")
    if "values" in data:
        if "roots" in data:
            roots = _roots_from_json(data["roots"])
        elif "charPoly" in data:
            roots = _split_roots_from_json(data["charPoly"], "charPoly")
        else:
            raise DomainError("moment input needs roots or charPoly")
        fn = from_moments(_rationals_from_json(data["values"], "values"), roots)
        payload = dict(functional_to_json(fn))
        payload["roots"] = _roots_to_json(roots)
        return payload
    if "P0" in data or "parts" in data:
        if "roots" not in data:
            raise DomainError("functional input needs a roots array")
        roots = _roots_from_json(data["roots"])
        count = roots.degree if args.count is None else args.count
        if count > _MOMENTS_MAX_COUNT:  # a given --count is bounded by its row
            raise DomainError(
                f"the default --count, deg f = {count}, exceeds the cap {_MOMENTS_MAX_COUNT}")
        fn_data = {key: data[key] for key in ("P0", "parts") if key in data}
        values = to_moments(functional_from_json(fn_data, roots), count)
        return {"values": [format_rational(v) for v in values]}
    raise DomainError("input must carry either moment values or a functional")


def _cmd_certify(args):
    from .certificates import certify_exponential, certify_unit_interval

    certify = certify_unit_interval if args.rule == "unit" else certify_exponential
    cert = certify(args.poly, args.m_min)
    return {
        "rule": args.rule,
        "p": cert.prime,
        "m": cert.exponent,
        "valuation": cert.valuation,
        "value": format_rational(cert.value),
    }


def _cmd_trace_test(args):
    from .probes import trace_radical_test

    report = trace_radical_test(args.matrix)
    return {
        "inRadical": report.in_radical,
        "traces": [format_rational(t) for t in report.traces],
        "nilpotencyWitness": report.nilpotency_witness,
    }


def _cmd_laurent(args):
    from .probes import laurent_image_membership, laurent_mz_class, radical_vminus1_membership

    payload = {"lambda": format_rational(args.lam), "mzClass": laurent_mz_class(args.lam)}
    if args.poly is not None:
        payload["imageMember"] = laurent_image_membership(args.lam, args.poly)
        payload["radicalVminus1Member"] = radical_vminus1_membership(args.poly)
    return payload


def _cmd_gvc_probe(args):
    from .probes import ConstCoeffOp, gvc_probe

    report = gvc_probe(ConstCoeffOp(args.op), args.p_poly, args.q_poly, args.m_max)
    return {
        "mMax": report.m_max,
        "hypothesisViolations": list(report.hypothesis_violations),
        "conclusionViolations": list(report.conclusion_violations),
        "conclusionTransition": report.conclusion_transition,
    }


def _check_imagep_caps(polys):
    for poly in polys:
        degree = poly.total_degree
        if degree is not None and degree > _IMAGEP_MAX_DEGREE:
            raise DomainError(f"total degree {degree} exceeds the cap {_IMAGEP_MAX_DEGREE}")


def _obstruction_payload(obstruction: ObstructionReport):
    return {
        "xDegree": obstruction.x_degree,
        "zeta": list(obstruction.zeta_exps),
        "x": list(obstruction.x_exps),
        "coefficient": obstruction.coefficient,
    }


def _cmd_imagep(args):
    from .imagep import ImDCertificate, ZXPoly, charp_theorem_check, imd_decide

    if args.p not in _IMAGEP_PRIMES:
        raise DomainError(f"p must be one of {_IMAGEP_PRIMES}")
    if not 1 <= args.n <= _IMAGEP_MAX_VARS:
        raise DomainError(f"n must be between 1 and {_IMAGEP_MAX_VARS}")
    data = args.input
    if args.mode == "decide":
        b = zx_from_json(data, args.n, args.p, "--input")
        _check_imagep_caps([b])
        result = imd_decide(b)
        if isinstance(result, ImDCertificate):
            payload = {"member": True, "certificate": list(map(zx_to_json, result.preimages))}
        else:
            payload = {"member": False, "obstruction": _obstruction_payload(result)}
        return payload
    if not isinstance(data, dict) or "f" not in data:
        raise DomainError("theorem input must be an object with f (and optional g)")
    _check_keys(data, ("f", "g"), "--input")
    f = zx_from_json(data["f"], args.n, args.p, "--input.f")
    g = (zx_from_json(data["g"], args.n, args.p, "--input.g") if "g" in data
         else ZXPoly.one(args.n, args.p))
    _check_imagep_caps([f, g])
    product = len(g.terms) * len(f.terms) ** 2
    if product > _THEOREM_MAX_PRODUCT:
        raise DomainError(f"--input: |g|*|f|^2 = {product} terms exceed the cap "
                          f"{_THEOREM_MAX_PRODUCT}")
    report = charp_theorem_check(f, g)
    payload = {"hypothesisHolds": report.hypothesis_holds}
    if report.hypothesis_holds:
        payload["conclusionHolds"] = report.conclusion_holds
        if report.boundary_certificates is not None:
            payload["certificates"] = [list(map(zx_to_json, c.preimages))
                                       for c in report.boundary_certificates]
    else:
        payload["obstruction"] = _obstruction_payload(report.obstruction)
    return payload


def _cmd_selftest(args):
    from .selftest import run_selftest

    passed, results = run_selftest(args.seed)
    return {"seed": args.seed, "passed": passed, "checks": results}


def _option(flag: str, kind=str, required: bool = False, default=None, help: str = "",
            read=(), key=None, bounds=(None, None)):
    """One option row of the command table: (flag, dest, kind, required,
    default, help, read, key, bounds).  kind is str, "json" (a str that is
    inline JSON or a file path), int, bool (a flag that stores True) or a
    tuple of choices; a flag without leading dashes is a positional.  A
    required option keeps the default None, which marks it as missing.  _run
    loads each given JSON option, records it as the digest's input (key "")
    or under key in it, bounds an int by (low, high), None for no bound, and
    replaces it by read[0](value, *read[1:])."""
    return (flag, flag.lstrip("-").replace("-", "_"), kind, required, default, help,
            read, key, bounds)


def _build_parser() -> dict:
    """The command table, {name: (handler, help, description, options)}:
    the one description of the command line, read by _parse_args and _run."""
    spec = _option("--spec", "json", required=True, help="spec JSON (inline or file path)",
                   read=(_spec_from_json,), key="")
    terms = [_option(flag, "json", required=True, help=text, read=(_multipoly_from_json, flag),
                     key=key) for flag, key, text in (
        ("--op", "op", "operator JSON: terms in derivative symbols"), ("--p-poly", "p", ""),
        ("--q-poly", "q", ""))]
    return {
        "decide": (_cmd_decide, "decide whether a spec's kernel is Mathieu-Zhao", _DECIDE_COST, (
            spec, _option("--oracle", bool, default=False, help="also run the independent "
                          f"idempotent oracle ({_ORACLE_COST})"))),
        "oracle": (_cmd_oracle, "idempotent oracle only",
                   f"Independent idempotent oracle ({_ORACLE_COST}).", (spec,)),
        "idempotents": (_cmd_idempotents, "orthogonal idempotents of k[t]/(f)", None, (
            _option("--roots", "json", help="roots JSON: [[root, multiplicity], ...]",
                    read=(_roots_from_json,), key=""),
            _option("--modulus", "json", help="polynomial JSON; must split over Q, with at "
                    "most 12 digits in the extreme coefficients of its primitive form and at "
                    "most 120000 for its candidate roots +-p/q times its degree (about 1 s at "
                    "either cap)", read=(_split_roots_from_json, "--modulus"), key=""),
            _option("--all", bool, default=False, help="include all 2^r subset sums, for at "
                    f"most {_IDEMPOTENTS_MAX_ROOTS} roots"))),
        "moments": (_cmd_moments, "convert between functionals and moment values",
                    "--count 1500 on a degree-48 functional takes about 0.5 s.", (
            # The handler reads --input: the default --count depends on its roots.
            _option("--input", "json", required=True, help="JSON with values+roots (to "
                    "functional) or P0/parts+roots (to moments)", key=""),
            _option("--count", int, help="number of moments to emit (default deg f), at most "
                    f"{_MOMENTS_MAX_COUNT}", bounds=(1, _MOMENTS_MAX_COUNT)))),
        "certify": (_cmd_certify, "p-adic non-radical certificate search", _CERTIFY_COST, (
            _option("--rule", ("unit", "exp"), required=True),
            _option("--poly", "json", required=True, help="polynomial JSON (inline or file path)",
                    read=(poly_from_json,), key=""),
            _option("--m-min", int, default=1, bounds=(1, None)))),
        "trace-test": (_cmd_trace_test, "nilpotency via power traces",
                       "A dense 48x48 matrix of small rationals takes about 0.7 s.", (
            _option("--matrix", "json", required=True, help="matrix JSON: rows of rationals, "
                    f"dimension at most {_TRACE_MAX_DIMENSION}", read=(_matrix_from_json,),
                    key=""),)),
        "laurent": (_cmd_laurent, "weighted-derivation image probes",
                    "The cost is linear in the number of terms of --poly (about 1.1 s per "
                    "100000 terms).", (
            _option("--lam", required=True, help="the weight, a rational",
                    read=(parse_rational,), key="lambda"),
            _option("--poly", "json", help="Laurent JSON: {exponent: rational}",
                    read=(laurent_from_json,), key="poly"))),
        "gvc-probe": (_cmd_gvc_probe, "operator-power vanishing probe",
                      # probes.GVC_MAX_COST and GVC_OP_BITS, with the time at the budget.
                      "The kill tests of op^m on p^m and q*p^m may cost at most 8000000000, "
                      "counted as they run: each application of op and each product "
                      "forming p^m or q*p^m costs its term pairs times (6000 + the bits of "
                      "the largest coefficients it reads), with op, p and q scaled to "
                      "integers.  A run that would pass the budget stops with exit 2 and "
                      "names the m it reached; up to about 3.5 s at the budget.", (
            *terms, _option("--m-max", int, default=12, help="probe m = 1..m-max, at most "
                            f"{_GVC_MAX_M} (default 12)", key="mMax", bounds=(1, _GVC_MAX_M)))),
        "imagep": (_cmd_imagep, "characteristic-p twisted-derivation image engine",
                   _IMAGEP_COST, (
            _option("mode", ("decide", "theorem"), required=True),
            _option("--p", int, required=True,
                    help=f"the prime, one of {', '.join(map(str, _IMAGEP_PRIMES))}"),
            _option("--n", int, required=True,
                    help=f"the number of variable pairs, at most {_IMAGEP_MAX_VARS}"),
            # The handler reads --input: its reading depends on mode, --p and --n.
            _option("--input", "json", required=True, help="term-list JSON (decide) or {f, g} "
                    f"(theorem), each of total degree at most {_IMAGEP_MAX_DEGREE}", key=""))),
        "selftest": (_cmd_selftest, "run the seeded invariant battery", None,
                     (_option("--seed", int, required=True, key="seed"),)),
    }


def _label(row) -> str:
    """An option row as usage and help show it: --spec SPEC, --oracle, {unit,exp}."""
    flag, dest, kind = row[:3]
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()
    return metavar if flag == dest else flag if kind is bool else f"{flag} {metavar}"


def _print_help(usage: str, description, rows):
    """Print usage, the description if any and one line per (label, help) row; exit 0."""
    rows = [("-h, --help", "show this help message and exit"), *rows]
    width = max(len(label) for label, _ in rows)
    lines = "\n".join(f"  {label.ljust(width)}  {text}".rstrip() for label, text in rows)
    print("\n\n".join(filter(None, (usage, description, lines))))
    raise SystemExit(0)


def _parse_args(table: dict, argv) -> SimpleNamespace:
    """argv read against the command table: exact long options, as --opt v or
    --opt=v, the last of a repeated one winning; a value may start with one
    dash (-1/2) but not two.  A usage error goes to stderr with exit 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    usage, prog = "usage: mz [-h] {" + ",".join(table) + "} ...", "mz"

    def fail(message: str):
        if sys.stderr is not None:  # None when the process started with fd 2 closed
            try:
                sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
            except OSError:  # fd 2 closed by the shell (2>&-) and reopened read-only
                pass
        raise SystemExit(2)

    if argv[:1] in (["-h"], ["--help"]):
        _print_help(usage, "Exact Mathieu-Zhao subspace decisions, certificates, and probes.",
                    [(name, row[1]) for name, row in table.items()])
    if not argv or argv[0] not in table:
        fail(f"argument command: invalid choice: {argv[0]!r}" if argv
             else "the following arguments are required: command")
    command, tokens = argv[0], argv[1:]
    handler, _, description, options = table[command]
    prog = f"mz {command}"
    usage = " ".join(["usage:", prog, "[-h]",
                      *(_label(row) if row[3] else f"[{_label(row)}]" for row in options)])
    flags = {row[0]: row for row in options if row[0].startswith("-")}
    positionals = [row for row in options if row[0] not in flags]
    values = {row[1]: row[4] for row in options}
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            _print_help(usage, description, [(_label(row), row[5]) for row in options])
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            row = flags.get(flag)
        else:  # the next positional; "=" marks its value as given
            row, eq, value = positionals.pop(0) if positionals else None, "=", token
        if row is None or (eq and row[2] is bool):
            fail(f"unrecognized arguments: {token}")
        flag, dest, kind = row[:3]
        if kind is bool:
            value = True
        elif not eq:
            if not tokens or tokens[0].startswith("--"):
                fail(f"argument {flag}: expected one argument")
            value = tokens.pop(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                fail(f"argument {flag}: invalid int value: {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            fail(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        values[dest] = value
    missing = [row[0] for row in options if row[3] and values[row[1]] is None]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, handler=handler, **values)


def _dumps(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2) for dicts with str keys, lists, tuples,
    str, int, True, False and None; newline ends a line at value's indent."""
    if isinstance(value, str):
        return _json.encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        entries, brackets = [_dumps(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        entries = [f"{_json.encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                   for k, v in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not entries:
        return brackets
    return brackets[0] + inner + ("," + inner).join(entries) + newline + brackets[1]


def _digest(inputs) -> str:
    """SHA-256 of json.dumps(inputs, sort_keys=True, separators=(",", ":")) by the
    same C encoder call; its default, _dumps, raises on what JSON cannot hold."""
    encode = _json.make_encoder({}, _dumps, _json.encode_basestring_ascii, None,
                                ":", ",", True, False, True)
    return sha256("".join(encode(inputs, 0)).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and exit as if killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _run(argv) -> int:
    table = _build_parser()
    args = _parse_args(table, argv)
    started = time.perf_counter()
    try:
        inputs = {}  # each option given is loaded, recorded, bounded and read in turn
        for flag, dest, kind, _, _, _, read, key, (low, high) in table[args.command][3]:
            value = getattr(args, dest)
            if value is None:
                continue
            if kind == "json":
                value = _load_json_arg(value, flag)
            if key == "":
                inputs = value
            elif key is not None:
                inputs[key] = value
            if high is not None and value > high:
                raise DomainError(f"{flag} {value} exceeds the cap {high}")
            if low is not None and value < low:
                raise DomainError(f"{flag} {value} must be at least {low}")
            setattr(args, dest, read[0](value, *read[1:]) if read else value)
        payload = args.handler(args)
    except _ParseError as exc:
        message, line, column = exc.args
        error = {"error": {"kind": "parse", "message": message, "line": line, "column": column}}
        print(_dumps(error))
        return 2
    except DomainError as exc:
        error = {"error": {"kind": "domain", "message": str(exc)}}
        print(_dumps(error))
        return 2
    except Exception as exc:  # noqa: BLE001 - single internal-error funnel
        error = {"error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}}
        print(_dumps(error))
        import traceback

        traceback.print_exc(file=sys.stderr)
        return 1
    report = dict(payload)
    report["command"] = args.command
    report["inputsDigest"] = _digest(inputs)
    print(_dumps(report), flush=True)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    try:
        print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    except OSError:  # fd 2 closed by the shell (2>&-) and reopened read-only; the report is out
        pass
    if args.command == "selftest" and not payload["passed"]:
        return 1
    return 0
