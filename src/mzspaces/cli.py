"""Command line front end: JSON in, JSON out.

Exit codes: 0 on success, 2 when the input is rejected (malformed JSON or a
failed precondition), 1 on internal errors, and 141 (128 + SIGPIPE, with
nothing on stderr) when stdout is closed before the report is written.
Output on stdout is byte-identical for identical inputs and seed; wall time
goes to stderr.

Each handler imports the library modules it runs, so a call loads only
those (and `mzspaces/__init__.py` imports nothing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .errors import DomainError

MAX_ROOTS_ENV = "MZ_MAX_SUBSET_ROOTS"
_IMAGEP_PRIMES = (2, 3, 5)
_IMAGEP_MAX_VARS = 3
_IMAGEP_MAX_DEGREE = 24
# Work budgets of the probes and of moments, each chosen so that the capped
# case runs in at most about a second on a 2-vCPU host: a dense 48x48 matrix
# with entries a/b, |a|, b <= 9, takes 1.1 s in trace-test; m-max 40 takes
# 0.9 s for p = x + 2y/3 - z under d1 d2 + d3^2/2 and 0.5 s for the heaviest
# benchmark shape; --count 1500 takes 0.4 s on a degree-48 functional with
# 16 roots a/b, |a| <= 5, b <= 3 (multiplicity 3), and 0.3 s with 8 roots of
# multiplicity 6.  `idempotents --all` prints 2^r polynomials; at r = 12
# that is 0.95 s and 1.1 MB, and each further root doubles both.  The oracle
# walks all 2^r subsets of the roots, one big-integer addition each; at its
# cap (mzdecide.DEFAULT_MAX_ORACLE_ROOTS, 20 roots) a spec with no balanced
# subset and 3 functionals takes 0.2-0.4 s, and the help text says so.
_TRACE_MAX_DIMENSION = 48
_GVC_MAX_M = 40
_MOMENTS_MAX_COUNT = 1500
_IDEMPOTENTS_MAX_ROOTS = 12
# A JSON option that is not inline JSON is a path; a rejected one longer
# than this is named by its length only.
_PATH_ECHO_LIMIT = 256
_ORACLE_COST = "at most 20 roots; about 0.4 s at 20 roots with 3 functionals"


def _load_json_arg(text: str, option: str):
    """Accept inline JSON (starts with { or [) or a file path; an unreadable
    path, or an integer too long for the interpreter to read, is a domain
    error naming the option and the path (only its length, when long)."""
    stripped = text.strip()
    try:
        if stripped.startswith("{") or stripped.startswith("["):
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        from .scalars import _shown

        shown = _shown(text, _PATH_ECHO_LIMIT)
        raise DomainError(f"{option}: cannot read {shown}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        from .scalars import _shown

        raise DomainError(f"{option}: {_shown(text, _PATH_ECHO_LIMIT)} is not UTF-8 text") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # the only other ValueError json raises
        raise DomainError(
            f"{option}: an integer exceeds {sys.get_int_max_str_digits()} digits, the "
            "interpreter's limit for string-to-integer conversion"
        ) from exc


def _roots_from_json(data) -> RootData:
    from .scalars import parse_rational
    from .upoly import RootData

    if not isinstance(data, list) or not data:
        raise DomainError("roots must be a nonempty array of [root, multiplicity] pairs")
    pairs = []
    for i, item in enumerate(data):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise DomainError("each root entry must be a [root, multiplicity] pair")
        mult = item[1]
        if not isinstance(mult, int) or isinstance(mult, bool):
            raise DomainError(
                f"roots[{i}] multiplicity must be a JSON integer, got {json.dumps(mult)}"
            )
        pairs.append((parse_rational(item[0]), mult))
    return RootData(pairs)


def _spec_from_json(data) -> SubspaceSpec:
    from .functionals import functional_from_json
    from .mzdecide import SubspaceSpec

    if not isinstance(data, dict):
        raise DomainError("spec must be an object with functionals and roots")
    if "roots" not in data or "functionals" not in data:
        raise DomainError("spec needs both a functionals array and a roots array")
    roots = _roots_from_json(data["roots"])
    fns = data["functionals"]
    if not isinstance(fns, list) or not fns:
        raise DomainError("functionals must be a nonempty array")
    return SubspaceSpec([functional_from_json(fn, roots) for fn in fns])


def _roots_to_json(roots: RootData):
    from .scalars import format_rational

    return [[format_rational(lam), mult] for lam, mult in roots]


def _verdict_payload(spec: SubspaceSpec, verdict):
    from .scalars import format_rational
    from .upoly import poly_to_json

    payload = {"isMZ": verdict.is_mz}
    if not verdict.is_mz:
        payload["witnessSubset"] = [format_rational(lam) for lam in verdict.witness_subset]
        payload["witnessIdempotent"] = poly_to_json(verdict.witness_idempotent)
        payload["witnessMultiplier"] = poly_to_json(verdict.witness_multiplier)
    payload["normalizedRoots"] = _roots_to_json(spec.roots)
    return payload


def _max_roots() -> int:
    from .mzdecide import DEFAULT_MAX_SUBSET_ROOTS

    raw = os.environ.get(MAX_ROOTS_ENV)
    if raw is None:
        return DEFAULT_MAX_SUBSET_ROOTS
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{MAX_ROOTS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError(f"{MAX_ROOTS_ENV} must be >= 1")
    return value


def _max_oracle_roots() -> int:
    """The oracle walks all 2^r subsets of the roots, so it keeps its own
    cap, which MZ_MAX_SUBSET_ROOTS can only lower."""
    from .mzdecide import DEFAULT_MAX_ORACLE_ROOTS

    return min(_max_roots(), DEFAULT_MAX_ORACLE_ROOTS)


def _cmd_decide(args):
    from .mzdecide import decide_mz, normalize, oracle_decide_mz

    data = _load_json_arg(args.spec, "--spec")
    spec = normalize(_spec_from_json(data))
    verdict = decide_mz(spec, max_roots=_max_roots())
    payload = _verdict_payload(spec, verdict)
    if args.oracle:
        payload["oracleIsMZ"] = oracle_decide_mz(spec, max_roots=_max_oracle_roots())
        payload["oracleAgrees"] = payload["oracleIsMZ"] == verdict.is_mz
    return payload, data


def _cmd_oracle(args):
    from .mzdecide import normalize, oracle_decide_mz

    data = _load_json_arg(args.spec, "--spec")
    spec = normalize(_spec_from_json(data))
    return {"isMZ": oracle_decide_mz(spec, max_roots=_max_oracle_roots())}, data


def _cmd_idempotents(args):
    from .quotient import all_idempotents, crt_idempotents
    from .scalars import format_rational
    from .upoly import poly_from_json, poly_to_json, rational_roots

    if (args.roots is None) == (args.modulus is None):
        raise DomainError("give exactly one of --roots or --modulus")
    if args.roots is not None:
        data = _load_json_arg(args.roots, "--roots")
        roots = _roots_from_json(data)
    else:
        data = _load_json_arg(args.modulus, "--modulus")
        roots = rational_roots(poly_from_json(data))
    if args.all and len(roots) > _IDEMPOTENTS_MAX_ROOTS:
        raise DomainError(
            f"--all with {len(roots)} roots exceeds the cap {_IDEMPOTENTS_MAX_ROOTS}"
        )
    base = crt_idempotents(roots)
    payload = {
        "roots": _roots_to_json(roots),
        "idempotents": {format_rational(lam): poly_to_json(e) for lam, e in base.items()},
    }
    if args.all:
        payload["allIdempotents"] = [poly_to_json(e) for e in all_idempotents(roots)]
    return payload, data


def _cmd_moments(args):
    from .functionals import (
        MomentSeq,
        from_moments,
        functional_from_json,
        functional_to_json,
        to_moments,
    )
    from .scalars import format_rational, parse_rational
    from .upoly import poly_from_json, rational_roots

    data = _load_json_arg(args.input, "--input")
    if not isinstance(data, dict):
        raise DomainError("input must be an object")
    if "values" in data:
        if "roots" in data:
            roots = _roots_from_json(data["roots"])
        elif "charPoly" in data:
            roots = rational_roots(poly_from_json(data["charPoly"]))
        else:
            raise DomainError("moment input needs roots or charPoly")
        if not isinstance(data["values"], list):
            raise DomainError("values must be an array of rationals")
        values = [parse_rational(v) for v in data["values"]]
        fn = from_moments(MomentSeq(values, roots.poly()), roots)
        payload = dict(functional_to_json(fn))
        payload["roots"] = _roots_to_json(roots)
        return payload, data
    if "P0" in data or "parts" in data:
        if "roots" not in data:
            raise DomainError("functional input needs a roots array")
        roots = _roots_from_json(data["roots"])
        if args.count is not None and args.count > _MOMENTS_MAX_COUNT:
            raise DomainError(f"--count {args.count} exceeds the cap {_MOMENTS_MAX_COUNT}")
        fn = functional_from_json(data, roots)
        count = args.count if args.count is not None else roots.degree
        values = to_moments(fn, count)
        return {"values": [format_rational(v) for v in values]}, data
    raise DomainError("input must carry either moment values or a functional")


def _cmd_certify(args):
    from .certificates import certify_exponential, certify_unit_interval
    from .scalars import format_rational
    from .upoly import poly_from_json

    data = _load_json_arg(args.poly, "--poly")
    f = poly_from_json(data)
    if args.rule == "unit":
        cert = certify_unit_interval(f, args.m_min, args.search_bound)
    else:
        cert = certify_exponential(f, args.m_min, args.search_bound)
    payload = {
        "rule": args.rule,
        "p": cert.prime,
        "m": cert.exponent,
        "valuation": cert.valuation,
        "value": format_rational(cert.value),
    }
    return payload, data


def _cmd_trace_test(args):
    from .probes import MatrixQ, trace_radical_test
    from .scalars import format_rational, parse_rational

    data = _load_json_arg(args.matrix, "--matrix")
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise DomainError("matrix must be an array of rows, each an array of rationals")
    if len(data) > _TRACE_MAX_DIMENSION:
        raise DomainError(
            f"--matrix dimension {len(data)} exceeds the cap {_TRACE_MAX_DIMENSION}"
        )
    matrix = MatrixQ([[parse_rational(v) for v in row] for row in data])
    report = trace_radical_test(matrix)
    payload = {
        "inRadical": report.in_radical,
        "traces": [format_rational(t) for t in report.traces],
        "nilpotencyWitness": report.nilpotency_witness,
    }
    return payload, data


def _cmd_laurent(args):
    from .probes import laurent_image_membership, laurent_mz_class, radical_vminus1_membership
    from .scalars import format_rational, parse_rational
    from .upoly import laurent_from_json

    lam = parse_rational(args.lam)
    payload = {"lambda": format_rational(lam), "mzClass": laurent_mz_class(lam)}
    inputs = {"lambda": args.lam}
    if args.poly is not None:
        data = _load_json_arg(args.poly, "--poly")
        g = laurent_from_json(data)
        payload["imageMember"] = laurent_image_membership(lam, g)
        payload["radicalVminus1Member"] = radical_vminus1_membership(g)
        inputs["poly"] = data
    return payload, inputs


def _multipoly_from_json(data, label: str) -> MultiPolyQ:
    from .probes import MultiPolyQ
    from .scalars import parse_exponents, parse_rational

    if not isinstance(data, list) or not data:
        raise DomainError(f"{label} must be a nonempty array of term objects")
    nvars = None
    terms = {}
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "exps" not in item or "c" not in item:
            raise DomainError(f"each {label} term needs exps and c fields")
        exps = parse_exponents(item["exps"], f"{label}[{i}].exps")
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise DomainError(f"{label} exponent vectors disagree in length")
        terms[exps] = terms.get(exps, 0) + parse_rational(item["c"])
    return MultiPolyQ(nvars, terms)


def _cmd_gvc_probe(args):
    from .probes import ConstCoeffOp, gvc_probe

    op_data = _load_json_arg(args.op, "--op")
    p_data = _load_json_arg(args.p_poly, "--p-poly")
    q_data = _load_json_arg(args.q_poly, "--q-poly")
    if args.m_max > _GVC_MAX_M:
        raise DomainError(f"--m-max {args.m_max} exceeds the cap {_GVC_MAX_M}")
    op = ConstCoeffOp(_multipoly_from_json(op_data, "--op"))
    p_poly = _multipoly_from_json(p_data, "--p-poly")
    q_poly = _multipoly_from_json(q_data, "--q-poly")
    report = gvc_probe(op, p_poly, q_poly, args.m_max)
    payload = {
        "mMax": report.m_max,
        "hypothesisViolations": list(report.hypothesis_violations),
        "conclusionViolations": list(report.conclusion_violations),
        "conclusionTransition": report.conclusion_transition,
    }
    return payload, {"op": op_data, "p": p_data, "q": q_data, "mMax": args.m_max}


def _check_imagep_caps(polys, p: int, nvars: int):
    if p not in _IMAGEP_PRIMES:
        raise DomainError(f"p must be one of {_IMAGEP_PRIMES}")
    if not 1 <= nvars <= _IMAGEP_MAX_VARS:
        raise DomainError(f"n must be between 1 and {_IMAGEP_MAX_VARS}")
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


def _certificate_payload(certificate: ImDCertificate):
    return [q.to_json() for q in certificate.preimages]


def _cmd_imagep(args):
    from .imagep import ImDCertificate, ZXPoly, charp_theorem_check, imd_decide

    data = _load_json_arg(args.input, "--input")
    if args.mode == "decide":
        b = ZXPoly.from_json(data, args.n, args.p, "--input")
        _check_imagep_caps([b], args.p, args.n)
        result = imd_decide(b)
        if isinstance(result, ImDCertificate):
            payload = {"member": True, "certificate": _certificate_payload(result)}
        else:
            payload = {"member": False, "obstruction": _obstruction_payload(result)}
        return payload, data
    if not isinstance(data, dict) or "f" not in data:
        raise DomainError("theorem input must be an object with f (and optional g)")
    f = ZXPoly.from_json(data["f"], args.n, args.p, "--input.f")
    if "g" in data:
        g = ZXPoly.from_json(data["g"], args.n, args.p, "--input.g")
    else:
        g = ZXPoly.one(args.n, args.p)
    _check_imagep_caps([f, g], args.p, args.n)
    report = charp_theorem_check(f, g)
    payload = {"hypothesisHolds": report.hypothesis_holds}
    if report.hypothesis_holds:
        payload["conclusionHolds"] = report.conclusion_holds
        if report.boundary_certificates is not None:
            payload["certificates"] = [
                _certificate_payload(c) for c in report.boundary_certificates
            ]
    else:
        payload["obstruction"] = _obstruction_payload(report.obstruction)
    return payload, data


def _cmd_selftest(args):
    from .selftest import run_selftest

    passed, results = run_selftest(args.seed)
    payload = {"seed": args.seed, "passed": passed, "checks": results}
    return payload, {"seed": args.seed}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mz",
        description="Exact Mathieu-Zhao subspace decisions, certificates, and probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide whether a spec's kernel is Mathieu-Zhao")
    p.add_argument("--spec", required=True, help="spec JSON (inline or file path)")
    p.add_argument("--oracle", action="store_true",
                   help=f"also run the independent idempotent oracle ({_ORACLE_COST})")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("oracle", help="idempotent oracle only",
                       description=f"Independent idempotent oracle ({_ORACLE_COST}).")
    p.add_argument("--spec", required=True, help="spec JSON (inline or file path)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("idempotents", help="orthogonal idempotents of k[t]/(f)")
    p.add_argument("--roots", help="roots JSON: [[root, multiplicity], ...]")
    p.add_argument("--modulus", help="polynomial JSON; must split over Q")
    p.add_argument("--all", action="store_true",
                   help=f"include all 2^r subset sums, for at most {_IDEMPOTENTS_MAX_ROOTS} roots")
    p.set_defaults(handler=_cmd_idempotents)

    p = sub.add_parser("moments", help="convert between functionals and moment values")
    p.add_argument("--input", required=True,
                   help="JSON with values+roots (to functional) or P0/parts+roots (to moments)")
    p.add_argument("--count", type=int,
                   help=f"number of moments to emit, at most {_MOMENTS_MAX_COUNT}")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("certify", help="p-adic non-radical certificate search")
    p.add_argument("--rule", required=True, choices=["unit", "exp"])
    p.add_argument("--poly", required=True, help="polynomial JSON (inline or file path)")
    p.add_argument("--m-min", type=int, default=1, dest="m_min")
    p.add_argument("--search-bound", type=int, default=10**6, dest="search_bound")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("trace-test", help="nilpotency via power traces")
    p.add_argument("--matrix", required=True,
                   help=f"matrix JSON: rows of rationals, dimension at most {_TRACE_MAX_DIMENSION}")
    p.set_defaults(handler=_cmd_trace_test)

    p = sub.add_parser("laurent", help="weighted-derivation image probes")
    p.add_argument("--lam", required=True, help="the weight, a rational")
    p.add_argument("--poly", help="Laurent JSON: {exponent: rational}")
    p.set_defaults(handler=_cmd_laurent)

    p = sub.add_parser("gvc-probe", help="operator-power vanishing probe")
    p.add_argument("--op", required=True, help="operator JSON: terms in derivative symbols")
    p.add_argument("--p-poly", required=True, dest="p_poly")
    p.add_argument("--q-poly", required=True, dest="q_poly")
    p.add_argument("--m-max", type=int, default=12, dest="m_max",
                   help=f"probe m = 1..m-max, at most {_GVC_MAX_M} (default 12)")
    p.set_defaults(handler=_cmd_gvc_probe)

    p = sub.add_parser("imagep", help="characteristic-p twisted-derivation image engine")
    p.add_argument("mode", choices=["decide", "theorem"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True, help="term-list JSON (decide) or {f, g} (theorem)")
    p.set_defaults(handler=_cmd_imagep)

    p = sub.add_parser("selftest", help="run the seeded invariant battery")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _digest(inputs) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload, inputs = args.handler(args)
    except json.JSONDecodeError as exc:
        error = {
            "error": {
                "kind": "parse",
                "message": exc.msg,
                "line": exc.lineno,
                "column": exc.colno,
            }
        }
        print(json.dumps(error, indent=2))
        return 2
    except DomainError as exc:
        error = {"error": {"kind": "domain", "message": str(exc)}}
        print(json.dumps(error, indent=2))
        return 2
    except Exception as exc:  # noqa: BLE001 - single internal-error funnel
        error = {"error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}}
        print(json.dumps(error, indent=2))
        import traceback

        traceback.print_exc(file=sys.stderr)
        return 1
    report = dict(payload)
    report["command"] = args.command
    report["inputsDigest"] = _digest(inputs)
    print(json.dumps(report, indent=2), flush=True)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    if args.command == "selftest" and not payload["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
