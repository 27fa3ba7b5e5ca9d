"""Output checks that never call the code under test.

Every check re-derives the expected answer from the generator's own data
with the small exact arithmetic below: closed-form moments for functionals,
dense Fraction polynomials, integer matrices and sparse F_p dictionaries.
A check returns None when the output is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd


def canonical_digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of a job's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- dense univariate polynomials over Q (coefficient lists, low first) ---

def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def poly_mod_monic(a, m):
    """Remainder of a by the monic polynomial m."""
    rem = list(a)
    width = len(m)
    for k in range(len(rem) - width, -1, -1):
        c = rem[k + width - 1]
        if c:
            for j, b in enumerate(m):
                rem[k + j] -= c * b
    return trim(rem[: width - 1])


def modulus(roots):
    """prod (t - root)^mult for [(root, mult), ...]."""
    out = [1]
    for lam, mult in roots:
        for _ in range(mult):
            out = poly_mul(out, [-lam, 1])
    return out


# --- functionals: P0 drives d/dt at 0, parts[lam] drives t d/dt at lam ---

def parse_functional(data):
    zero = [Fraction(c) for c in data.get("P0", [])]
    parts = {Fraction(k): [Fraction(c) for c in v] for k, v in data.get("parts", {}).items()}
    return zero, parts


def moment(fn, n):
    """L(t^n) in closed form: (t d/dt)^i t^n = n^i t^n and (d/dt)^i t^n at 0
    is i! exactly when i = n."""
    zero, parts = fn
    total = zero[n] * factorial(n) if n < len(zero) else Fraction(0)
    for lam, op in parts.items():
        total += sum(c * n**i for i, c in enumerate(op)) * lam**n
    return total


def apply_functional(fn, g):
    return sum((c * moment(fn, n) for n, c in enumerate(g) if c), Fraction(0))


def constant_terms(fn, roots):
    zero, parts = fn
    return [(zero[0] if zero else 0) if lam == 0 else (parts.get(lam) or [0])[0]
            for lam in roots]


def first_balanced_subset(fns, roots):
    """Smallest, then lexicographically first, nonempty subset of root
    positions over which every functional's constant terms sum to zero."""
    consts = [constant_terms(fn, roots) for fn in fns]
    for size in range(1, len(roots) + 1):
        for combo in combinations(range(len(roots)), size):
            if all(sum(row[i] for i in combo) == 0 for row in consts):
                return combo
    return None


def _fractions(values):
    return [Fraction(v) for v in values]


def check_decide(job, out):
    spec = job.expect["spec"]
    fns = [parse_functional(fn) for fn in spec["functionals"]]
    roots = [(Fraction(lam), mult) for lam, mult in job.expect["normalized"]]
    if out.get("command") != "decide":
        return "command field is not decide"
    if out.get("inputsDigest") != canonical_digest(spec):
        return "inputsDigest does not match the spec"
    if [(Fraction(lam), mult) for lam, mult in out.get("normalizedRoots", [])] != roots:
        return "normalizedRoots differ from the expected largest-ideal exponents"
    if out.get("isMZ") is not job.expect["isMZ"]:
        return f"isMZ={out.get('isMZ')} but the planted answer is {job.expect['isMZ']}"
    if job.expect.get("oracle"):
        if out.get("oracleIsMZ") is not job.expect["isMZ"] or out.get("oracleAgrees") is not True:
            return "oracle verdict missing or disagrees"
    if job.expect["isMZ"]:
        return None if "witnessSubset" not in out else "MZ verdict carries a witness"
    if _fractions(out["witnessSubset"]) != _fractions(job.expect["subset"]):
        return "witnessSubset is not the first balanced subset"
    f = modulus(roots)
    g = _fractions(out["witnessIdempotent"])
    b = _fractions(out["witnessMultiplier"])
    if any(apply_functional(fn, g) != 0 for fn in fns):
        return "witness idempotent is not in the kernel"
    square = poly_mul(g, g)
    if poly_mod_monic([c - (g[i] if i < len(g) else 0) for i, c in enumerate(square)], f):
        return "witness idempotent does not satisfy g*g = g mod f"
    escaped = poly_mod_monic(poly_mul(b, g), f)
    if all(apply_functional(fn, escaped) == 0 for fn in fns):
        return "witness multiplier times idempotent stays in the kernel"
    return None


def check_rejected(job, out):
    error = out.get("error", {})
    if error.get("kind") != "domain" or "dependent" not in error.get("message", ""):
        return f"expected a dependent-functionals domain error, got {error}"
    return None


def check_to_values(job, out):
    fn = parse_functional(job.expect["functional"])
    want = [moment(fn, n) for n in range(job.expect["count"])]
    if _fractions(out.get("values", [])) != want:
        return "moment values differ from the closed form"
    return None


def check_to_functional(job, out):
    want_zero, want_parts = parse_functional(job.expect["functional"])
    zero, parts = parse_functional(out)
    if trim(zero) != trim(want_zero):
        return "round trip changed the operator at 0"
    if {k: trim(v) for k, v in parts.items()} != {k: trim(v) for k, v in want_parts.items() if trim(v)}:
        return "round trip changed an operator at a nonzero root"
    if [(Fraction(lam), m) for lam, m in out.get("roots", [])] != [
            (Fraction(lam), m) for lam, m in job.expect["roots"]]:
        return "round trip changed the roots"
    return None


# --- p-adic certificates ---

def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def valuation(value: Fraction, p: int) -> int:
    v = 0
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def power_moment(rule, coeffs, m):
    """L(f^m) for L(t^i) = 1/(i+1) ("unit") or i! ("exp"), expanded over
    the integers after clearing denominators."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    power = [1]
    for _ in range(m):
        power = poly_mul(power, ints)
    if rule == "unit":
        total = sum(Fraction(c, i + 1) for i, c in enumerate(power) if c)
    else:
        total = Fraction(sum(c * factorial(i) for i, c in enumerate(power) if c))
    return total / scale**m


def check_certify(job, out):
    rule, coeffs, m_min = job.expect["rule"], _fractions(job.expect["poly"]), job.expect["m_min"]
    p, m, claimed = out.get("p"), out.get("m"), out.get("valuation")
    if out.get("rule") != rule or not isinstance(p, int) or not isinstance(m, int) or m < m_min:
        return "certificate fields are missing or out of range"
    if not is_prime(p):
        return f"certificate prime {p} is not prime"
    low = next(i for i, c in enumerate(coeffs) if c)
    step = len(coeffs) - 1 if rule == "unit" else low
    if p != step * m + 1:
        return f"prime {p} is not on the progression for m={m}"
    value = Fraction(out.get("value"))
    if value != power_moment(rule, coeffs, m):
        return "certificate value differs from the recomputed moment"
    if value == 0 or valuation(value, p) != claimed:
        return "claimed valuation does not match the value"
    # Unit rule: v_p = -1.  Factorial rule: v_p((r*m)!) by Legendre's formula.
    want = -1 if rule == "unit" else sum(step * m // p**k for k in range(1, 64) if p**k <= step * m)
    if claimed != want:
        return f"valuation {claimed} is not the rule's {want}"
    return None


# --- matrices ---

def check_trace(job, out):
    diag, n = job.expect["diagonal"], len(job.expect["diagonal"])
    want = [sum(Fraction(d) ** k for d in diag) for k in range(1, n + 1)]
    if _fractions(out.get("traces", [])) != want:
        return "power traces differ from the diagonal power sums"
    if out.get("inRadical") is not job.expect["nilpotent"]:
        return "nilpotency verdict differs from the construction"
    if out.get("nilpotencyWitness") != job.expect["index"]:
        return f"nilpotency witness {out.get('nilpotencyWitness')} != {job.expect['index']}"
    return None


def check_gvc(job, out):
    got = (out.get("mMax"), out.get("hypothesisViolations"), out.get("conclusionViolations"),
           out.get("conclusionTransition"))
    want = (job.expect["m_max"], job.expect["hypothesis"], job.expect["conclusion"],
            job.expect["transition"])
    return None if got == want else f"gvc-probe report {got} != {want}"


# --- F_p[zeta, x] as {(zeta_exps, x_exps): c} ---

def zx_from_json(terms, p):
    out = {}
    for t in terms:
        key = (tuple(t["zeta"]), tuple(t["x"]))
        out[key] = (out.get(key, 0) + t["c"]) % p
    return {k: c for k, c in out.items() if c}


def zx_add(a, b, p):
    out = dict(a)
    for k, c in b.items():
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c}


def zx_mul(a, b, p):
    out = {}
    for (z1, x1), c1 in a.items():
        for (z2, x2), c2 in b.items():
            key = (tuple(u + v for u, v in zip(z1, z2)), tuple(u + v for u, v in zip(x1, x2)))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {k: c for k, c in out.items() if c}


def zx_pow(a, e, p, nvars):
    out = {((0,) * nvars, (0,) * nvars): 1}
    for _ in range(e):
        out = zx_mul(out, a, p)
    return out


def zx_twisted(i, q, p):
    """(d/dx_i - zeta_i) q."""
    out = {}
    for (z, x), c in q.items():
        if x[i]:
            lowered = x[:i] + (x[i] - 1,) + x[i + 1:]
            out[(z, lowered)] = (out.get((z, lowered), 0) + c * x[i]) % p
        raised = z[:i] + (z[i] + 1,) + z[i + 1:]
        out[(raised, x)] = (out.get((raised, x), 0) - c) % p
    return {k: c for k, c in out.items() if c}


def zx_reconstruct(preimages, p):
    total = {}
    for i, terms in enumerate(preimages):
        total = zx_add(total, zx_twisted(i, zx_from_json(terms, p), p), p)
    return total


def _check_obstruction(obstruction, p):
    if any(obstruction.get("zeta", [1])) or not 1 <= obstruction.get("coefficient", 0) < p:
        return "obstruction does not name a unit term with zero zeta exponents"
    if obstruction.get("xDegree") != sum(obstruction.get("x", [])):
        return "obstruction x degree does not match its exponents"
    return None


def check_imagep_decide(job, out):
    p = job.expect["p"]
    if out.get("member") is not job.expect["member"]:
        return "membership differs from the construction"
    if job.expect["member"]:
        if zx_reconstruct(out["certificate"], p) != zx_from_json(job.expect["input"], p):
            return "certificate does not reconstruct the input"
        return None
    return _check_obstruction(out.get("obstruction", {}), p)


def check_imagep_theorem(job, out):
    p, n = job.expect["p"], job.expect["n"]
    if out.get("hypothesisHolds") is not job.expect["hypothesis"]:
        return "hypothesis verdict differs from the construction"
    if not job.expect["hypothesis"]:
        return _check_obstruction(out.get("obstruction", {}), p)
    if out.get("conclusionHolds") is not True:
        return "conclusion fails although the hypothesis holds"
    f = zx_from_json(job.expect["input"]["f"], p)
    g = zx_from_json(job.expect["input"]["g"], p)
    target = zx_mul(g, zx_pow(f, p * p, p, n), p)
    for certificate in out.get("certificates", []):
        if zx_reconstruct(certificate, p) != target:
            return "boundary certificate does not reconstruct g*f^m"
        target = zx_mul(target, f, p)
    return None if len(out.get("certificates", [])) == 2 else "expected two boundary certificates"


CHECKS = {
    "decide": check_decide,
    "rejected": check_rejected,
    "to-values": check_to_values,
    "to-functional": check_to_functional,
    "certify": check_certify,
    "trace-test": check_trace,
    "gvc-probe": check_gvc,
    "imagep-decide": check_imagep_decide,
    "imagep-theorem": check_imagep_theorem,
}


def check(job, exit_code, stdout):
    """None when the job's exit code and stdout are right, else a reason."""
    if exit_code != job.expect_exit:
        return f"exit code {exit_code}, expected {job.expect_exit}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        return CHECKS[job.kind](job, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
