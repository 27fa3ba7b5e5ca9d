"""Seeded job lists for the three benchmark workloads.

A workload is a fixed design of job shapes (sizes, kinds, planted answers);
the seed draws only the numbers inside each shape.  So every seed asks for
about the same work, and runs with different seeds measure the same thing.
Each job carries the data its independent check in checks.py needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import first_balanced_subset, moment, parse_functional, zx_add, zx_twisted


@dataclass
class Job:
    name: str
    kind: str
    argv: list            # CLI arguments after `mz`; "@file" names an input file
    files: dict           # input file name -> JSON document
    expect: dict = field(default_factory=dict)
    expect_exit: int = 0


def _text(value) -> str:
    return str(Fraction(value))


def _nonzero(rng, low, high):
    value = 0
    while value == 0:
        value = rng.randint(low, high)
    return value


def _small_rational(rng):
    return Fraction(_nonzero(rng, -9, 9), rng.randint(1, 3))


def _small_int(rng):
    return Fraction(_nonzero(rng, -3, 3))


def _roots_json(roots):
    return [[_text(lam), mult] for lam, mult in roots]


def _functional_json(zero, parts):
    return {"P0": [_text(c) for c in zero],
            "parts": {_text(lam): [_text(c) for c in op] for lam, op in parts.items()}}


def _interleave(tiers, keep=None):
    """Shapes of the tiers in turn, so that a slow spell of the machine hits
    every tier alike; keep=k takes only the first k shapes of each tier."""
    tiers = [tier[:keep] for tier in tiers]
    return [tier[i] for i in range(max(map(len, tiers))) for tier in tiers if i < len(tier)]


# --- decide-wide: the 2^r subset scan -------------------------------------

_WIDE_POOL = sorted({Fraction(a, b) for a in range(-60, 61) if a for b in range(1, 5)})


def _zero_sum_masks(rows, r):
    """Every nonempty mask whose columns sum to zero in all rows, by
    meet-in-the-middle over the two halves of the columns."""
    half = r // 2

    def sums(lo, hi):
        out = {}
        for mask in range(1 << (hi - lo)):
            key = tuple(sum(row[lo + i] for i in range(hi - lo) if mask >> i & 1) for row in rows)
            out.setdefault(key, []).append(mask << lo)
        return out

    left, right = sums(0, half), sums(half, r)
    found = []
    for key, masks in left.items():
        for other in right.get(tuple(-v for v in key), ()):
            found.extend(m | other for m in masks if m | other)
    return sorted(found)


def _wide_job(rng, index, r, d, planted_size):
    roots = rng.sample(_WIDE_POOL, r)
    planted = tuple(range(r - planted_size, r)) if planted_size else None
    while True:
        rows = []
        for _ in range(d):
            row = [_nonzero(rng, -(1 << 30), 1 << 30) for _ in range(r)]
            if planted:
                row[planted[-1]] = -sum(row[i] for i in planted[:-1])
            rows.append(row)
        want = [sum(1 << i for i in planted)] if planted else []
        if _zero_sum_masks(rows, r) == want and all(all(row) for row in rows):
            break
    spec = {"roots": _roots_json((lam, 1) for lam in roots),
            "functionals": [{"parts": {_text(lam): [str(c)] for lam, c in zip(roots, row)}}
                            for row in rows]}
    expect = {"spec": spec, "normalized": spec["roots"], "isMZ": planted is None}
    if planted:
        expect["subset"] = [_text(roots[i]) for i in planted]
    return Job(f"decide-{index:02d}-r{r}", "decide", ["decide", "--spec", "@spec.json"],
               {"spec.json": spec}, expect)


# Job shapes (roots, functionals, planted subset size; 0 plants none) in
# three tiers of cost.  Half the specs of each tier have no zero-sum subset
# (a full 2^r scan); the other half plant one subset of size r-2 to r at the
# last position of its size, so the scan stops late and then builds the
# witness; both cost about the same for given r and functionals.  The
# middle and the heavy tier each repeat one size, so that their jobs cost
# the same whatever the seed draws: the median (jobs 6 and 7 of 12) falls
# inside the middle tier and the tail (the 11th slowest of 4-6 passes)
# inside the heavy tier, not on a step between jobs of different cost.
WIDE_LIGHT = ((12, 1, 0), (12, 3, 10), (13, 1, 13), (13, 3, 0))
WIDE_MIDDLE = ((14, 2, 0), (14, 2, 14), (14, 2, 0), (14, 2, 13))
WIDE_HEAVY = ((15, 2, 0), (15, 2, 15), (15, 2, 0), (15, 2, 14))


def decide_wide(rng, keep=None):
    """The three tiers interleaved; keep=k takes the first k shapes of each."""
    return [_wide_job(rng, index, *shape)
            for index, shape in enumerate(_interleave((WIDE_LIGHT, WIDE_MIDDLE, WIDE_HEAVY), keep))]


# --- moments-deep: Gaussian elimination and Euler operators ---------------

_DEEP_POOL = sorted({Fraction(a, b) for a in range(-5, 6) if a for b in (1, 2, 3)})


def _deep_roots(rng, degree, count):
    """0 and count-1 other roots, the degree split as evenly as possible."""
    mults = [degree // count + (i < degree % count) for i in range(count)]
    lams = [Fraction(0)] + rng.sample(_DEEP_POOL, count - 1)
    return list(zip(lams, mults))


def _deep_functional(rng, roots, constants):
    """Full-length operators (degree mult-1) with the given constant terms."""
    ops = {}
    for (lam, mult), c0 in zip(roots, constants):
        ops[lam] = [c0] + [_small_rational(rng) for _ in range(mult - 1)]
    zero = ops.pop(Fraction(0))
    return zero, ops


def _deep_spec(rng, roots, d, plant):
    """d functionals; with plant, the constant terms over the first two
    roots cancel in every functional."""
    fns = []
    for _ in range(d):
        constants = [_small_rational(rng) for _ in roots]
        if plant:
            constants[1] = -constants[0]
        fns.append(_deep_functional(rng, roots, constants))
    return fns


def _deep_job(rng, index, kind, degree, count, d, plant=False):
    roots = _deep_roots(rng, degree, count)
    roots_json = _roots_json(roots)
    name = f"{kind}-{index:02d}-deg{degree}"
    if kind == "decide":
        fns = _deep_spec(rng, roots, d, plant)
        spec = {"roots": roots_json, "functionals": [_functional_json(*fn) for fn in fns]}
        parsed = [parse_functional(fn) for fn in spec["functionals"]]
        lams = [lam for lam, _ in roots]
        subset = first_balanced_subset(parsed, lams)
        expect = {"spec": spec, "normalized": roots_json, "isMZ": subset is None,
                  "oracle": True}
        if subset is not None:
            expect["subset"] = [_text(lams[i]) for i in subset]
        return Job(name, kind, ["decide", "--oracle", "--spec", "@spec.json"],
                   {"spec.json": spec}, expect)
    if kind == "rejected":
        first, second = _deep_spec(rng, roots, 2, plant=False)
        a, b = _small_rational(rng), _small_rational(rng)
        third = ([a * x + b * y for x, y in zip(first[0], second[0])],
                 {lam: [a * x + b * y for x, y in zip(first[1][lam], second[1][lam])]
                  for lam in first[1]})
        spec = {"roots": roots_json,
                "functionals": [_functional_json(*fn) for fn in (first, second, third)]}
        return Job(name, kind, ["decide", "--spec", "@spec.json"], {"spec.json": spec},
                   expect_exit=2)
    (fn,) = _deep_spec(rng, roots, 1, plant=False)
    fn_json = _functional_json(*fn)
    if kind == "to-values":
        data = dict(fn_json, roots=roots_json)
        return Job(name, kind, ["moments", "--input", "@fn.json", "--count", str(degree)],
                   {"fn.json": data}, {"functional": fn_json, "count": degree})
    parsed = parse_functional(fn_json)
    data = {"values": [_text(moment(parsed, n)) for n in range(degree)], "roots": roots_json}
    return Job(name, kind, ["moments", "--input", "@values.json"], {"values.json": data},
               {"functional": fn_json, "roots": roots_json})


# Job shapes (kind, degree, roots, functionals, planted) in three tiers of
# cost.  Within the middle and the heavy tier every job costs about the
# same, whatever the seed draws, and the tiers are apart: the median (the
# 9th of 17 jobs) falls in the middle of the middle tier, and the tail (the 11th
# slowest of 5-7 passes) inside the heavy tier, not on a step between two
# jobs of different cost, where it would jump from run to run.
DEEP_LIGHT = (
    ("to-values", 24, 2, 1, False),
    ("to-functional", 24, 3, 1, False),
    ("to-values", 30, 3, 1, False),
    ("rejected", 24, 3, 3, False),
    ("decide", 24, 2, 2, True),
    ("decide", 24, 2, 2, False),
)
# Moments at degree 42-48 and the rejection path at degree 30: the Gaussian
# elimination the median measures.
DEEP_MIDDLE = (
    ("rejected", 30, 3, 3, False),
    ("to-values", 48, 2, 1, False),
    ("rejected", 30, 3, 3, False),
    ("to-functional", 42, 2, 1, False),
    ("rejected", 30, 3, 3, False),
)
# decide --oracle, half of them with a planted zero-sum subset (a witness
# through crt_idempotents), half MZ: the oracle's evaluations the tail measures.
DEEP_HEAVY = tuple(("decide", 32, 4, 2, plant) for plant in (True, False) * 3)


def moments_deep(rng, keep=None):
    """The three tiers interleaved; keep=k takes the first k shapes of each."""
    return [_deep_job(rng, index, *shape)
            for index, shape in enumerate(_interleave((DEEP_LIGHT, DEEP_MIDDLE, DEEP_HEAVY), keep))]


# --- probes-certify: certificates, probes and the char-p engine ------------

PROBE_LEVELS = 6


def _certify_job(rng, index, level):
    rule = "unit" if level % 2 == 0 else "exp"
    m_min = 40 + 21 * level + rng.randint(0, 5)
    if rule == "unit":
        coeffs = [_small_int(rng) for _ in range(2 + level % 3)] + [Fraction(1)]
    else:
        low = 1 + (level // 2) % 2
        coeffs = [Fraction(0)] * low + [Fraction(1)] + [_small_int(rng) for _ in range(2)]
    poly = [_text(c) for c in coeffs]
    argv = ["certify", "--rule", rule, "--poly", "@poly.json", "--m-min", str(m_min)]
    return Job(f"certify-{index:02d}-{rule}", "certify", argv, {"poly.json": poly},
               {"rule": rule, "poly": poly, "m_min": m_min})


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _unit_triangular(rng, n, lower):
    return [[1 if i == j else (rng.randint(-1, 1) if (i > j) == lower else 0)
             for j in range(n)] for i in range(n)]


def _unit_triangular_inverse(m, lower):
    """Inverse of a unit triangular integer matrix, by substitution."""
    n = len(m)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        for j in range(n):
            inv[i][j] -= sum(m[i][k] * inv[k][j] for k in range(n) if k != i and m[i][k])
    return inv


def _trace_job(rng, index, n, nilpotent):
    diag = [0] * n if nilpotent else [rng.randint(-2, 2) for _ in range(n)]
    if not nilpotent and not any(diag):
        diag[0] = 1
    upper = [[diag[i] if i == j else (rng.randint(-2, 2) if j > i else 0)
              for j in range(n)] for i in range(n)]
    lower_p, upper_p = _unit_triangular(rng, n, True), _unit_triangular(rng, n, False)
    conj = _matmul(lower_p, upper_p)
    conj_inv = _matmul(_unit_triangular_inverse(upper_p, False),
                       _unit_triangular_inverse(lower_p, True))
    if _matmul(conj, conj_inv) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise AssertionError("conjugating matrix inverse is wrong")
    matrix = _matmul(_matmul(conj, upper), conj_inv)
    index_of_nilpotency = None
    if nilpotent:
        power, index_of_nilpotency = upper, 1
        while any(any(row) for row in power):
            power, index_of_nilpotency = _matmul(power, upper), index_of_nilpotency + 1
    data = [[str(v) for v in row] for row in matrix]
    return Job(f"trace-{index:02d}-n{n}", "trace-test", ["trace-test", "--matrix", "@matrix.json"],
               {"matrix.json": data},
               {"diagonal": diag, "nilpotent": nilpotent, "index": index_of_nilpotency})


def _gvc_job(rng, index, m_max, a, b, c):
    """op = sum_k alpha_k d1^k (k from a), p = x1^b h(x2, x3),
    q = x1^c g(x2, x3): op^m kills x1^N H exactly when N < a*m.  Unit
    coefficients, two terms in h and one in g keep the cost of a job the
    same for every seed."""
    def terms(x1, count):
        exps = rng.sample([(i, j) for i in range(4) for j in range(4) if i + j], count)
        return [{"exps": [x1, i, j], "c": rng.choice(("1", "-1"))} for i, j in exps]

    op = [{"exps": [k, 0, 0], "c": rng.choice(("1", "-1"))} for k in range(a, a + 2)]
    p_poly, q_poly = terms(b, 2), terms(c, 1)
    hypothesis = [m for m in range(1, m_max + 1) if b * m >= a * m]
    conclusion = [m for m in range(1, m_max + 1) if c + b * m >= a * m]
    if not conclusion:
        transition = 1
    elif conclusion[-1] == m_max:
        transition = None
    else:
        transition = conclusion[-1] + 1
    argv = ["gvc-probe", "--op", "@op.json", "--p-poly", "@p.json", "--q-poly", "@q.json",
            "--m-max", str(m_max)]
    return Job(f"gvc-{index:02d}-m{m_max}", "gvc-probe", argv,
               {"op.json": op, "p.json": p_poly, "q.json": q_poly},
               {"m_max": m_max, "hypothesis": hypothesis, "conclusion": conclusion,
                "transition": transition})


def _zx_terms(rng, n, p, count, zeta_max, x_max):
    out = {}
    while len(out) < count:
        key = (tuple(rng.randint(0, zeta_max) for _ in range(n)),
               tuple(rng.randint(0, x_max) for _ in range(n)))
        out[key] = rng.randint(1, p - 1)
    return out


def _zx_json(terms):
    return [{"zeta": list(z), "x": list(x), "c": c} for (z, x), c in sorted(terms.items())]


def _imagep_decide_job(rng, index, level):
    n, p = 2 + level % 2, (3, 5)[level % 2]
    member = level % 2 == 0 or level == 3
    total = {}
    for i in range(n):
        q = _zx_terms(rng, n, p, 6, 3, 4)
        total = zx_add(total, zx_twisted(i, q, p), p)
    if not member:
        extra = ((0,) * n, tuple(rng.randint(0, 3) for _ in range(n)))
        total = zx_add(total, {extra: rng.randint(1, p - 1)}, p)
    data = _zx_json(total)
    argv = ["imagep", "decide", "--p", str(p), "--n", str(n), "--input", "@b.json"]
    return Job(f"imagep-decide-{index:02d}", "imagep-decide", argv, {"b.json": data},
               {"p": p, "n": n, "member": member, "input": data})


def _imagep_theorem_job(rng, index, level):
    """At the caps p = 5, n = 3: f^p is in the image exactly when no term of
    f has all zeta exponents zero (Frobenius sends each term to its p-th
    power, and a term with a zeta exponent >= p is in the image)."""
    n, p = 3, 5
    hypothesis = level % 3 != 2
    f = _zx_terms(rng, n, p, 3, 2, 2)
    f = {(z if any(z) else (1,) + z[1:], x): c for (z, x), c in f.items()}
    if not hypothesis:
        f[((0,) * n, (1,) + (0,) * (n - 1))] = rng.randint(1, p - 1)
    g = _zx_terms(rng, n, p, 2, 2, 2)
    data = {"f": _zx_json(f), "g": _zx_json(g)}
    argv = ["imagep", "theorem", "--p", str(p), "--n", str(n), "--input", "@fg.json"]
    return Job(f"imagep-theorem-{index:02d}", "imagep-theorem", argv, {"fg.json": data},
               {"p": p, "n": n, "hypothesis": hypothesis, "input": data})


# Per level: trace-test (n, nilpotent) and gvc-probe (m_max, a, b, c).
TRACE_SHAPES = ((10, True), (12, False), (14, True), (16, False), (18, True), (18, False))
GVC_SHAPES = ((12, 1, 1, 2), (15, 2, 1, 3), (18, 1, 0, 4), (21, 3, 1, 3), (24, 1, 0, 6),
              (30, 1, 0, 7))
# The slowest job, whatever the seed: it comes again at every even level,
# so that the slowest runs of a pass are all of one shape and the tail
# (the 11th slowest run of 3-4 passes) falls among them, not on a step
# between two jobs of different cost, where it would jump from run to run.
GVC_HEAVY = GVC_SHAPES[3]


def probes_certify(rng, levels=PROBE_LEVELS):
    """Each of the five job kinds at each size level.  The short imagep
    jobs come twice per level, so that they are more than half of the
    list: the median then measures start-up and CLI overhead."""
    jobs = []

    def add(make, *args):
        jobs.append(make(rng, len(jobs), *args))

    for level in range(levels):
        add(_certify_job, level)
        add(_trace_job, *TRACE_SHAPES[level])
        add(_gvc_job, *GVC_SHAPES[level])
        for _ in range(2):
            add(_imagep_decide_job, level)
            add(_imagep_theorem_job, level)
        if level % 2 == 0:
            add(_gvc_job, *GVC_HEAVY)
    return jobs


WORKLOADS = {
    "decide-wide": decide_wide,
    "moments-deep": moments_deep,
    "probes-certify": probes_certify,
}


def generate(workload: str, seed: int, scale: int = 0):
    """The job list of one pass.  scale=0 is the full design; a positive
    scale keeps only that many levels or shapes per tier (for the
    smoke test)."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return make(rng, scale) if scale else make(rng)
