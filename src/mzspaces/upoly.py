"""Dense univariate polynomials over Q, plus the evaluation maps
built on them: substitution, derivative-operator application, and
Euler-operator application (t d/dt).

Coefficients are rational scalars: int or scalars.Rational.  The zero
polynomial has degree NEG_INF so degree comparisons never need a special case.
"""

from __future__ import annotations

from math import comb, gcd, isqrt

from .errors import DoesNotSplitError, DomainError
from .scalars import (Rational, clear_denominators, digit_width, pack, power, require_rational,
                      scalar_inverse, unpack)

NEG_INF = float("-inf")


class Poly:
    """Coefficient tuple, index = exponent, no trailing zeros; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent, coeff=1):
        if exponent < 0:
            raise DomainError("monomial exponent must be >= 0")
        return cls((0,) * exponent + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def low_order(self):
        """Multiplicity of the root 0 (index of the first nonzero coefficient)."""
        if not self.coeffs:
            raise DomainError("zero polynomial has no order at 0")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("unreachable: canonical form has a nonzero coefficient")

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c):
        if c == 0:
            return Poly()
        return Poly(tuple(a * c for a in self.coeffs))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise DomainError("polynomial powers must be >= 0")
        return power(self, exponent, Poly((1,)))

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < other.degree:
            return Poly(), self
        inv_lead = scalar_inverse(other.lead)
        rem = list(self.coeffs)
        width = len(other.coeffs)
        quo = [0] * (len(rem) - width + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + width - 1]
            if c == 0:
                continue
            q = c * inv_lead
            quo[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return Poly(quo), Poly(rem[: width - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly(tuple(self.coeffs[i] * i for i in range(1, len(self.coeffs))))

    def euler(self):
        """t d/dt: scales the degree-i coefficient by i."""
        return Poly(tuple(self.coeffs[i] * i for i in range(len(self.coeffs))))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                t = "t" if i == 1 else f"t^{i}"
                term = t if c == 1 else (f"-{t}" if c == -1 else f"{c}*{t}")
            bits.append(term)
        text = " + ".join(bits).replace("+ -", "- ")
        return f"Poly({text})"


def _apply_op(op_poly: Poly, g: Poly, step) -> Poly:
    """sum_i c_i step^i(g), where op_poly = sum_i c_i T^i."""
    total = Poly()
    for c in op_poly.coeffs:
        if c != 0:
            total = total + g.scale(c)
        g = step(g)
    return total


def apply_der_op(op_poly: Poly, g: Poly) -> Poly:
    """Apply sum_i c_i (d/dt)^i to g, where op_poly = sum_i c_i T^i.

    `functionals.evaluate` uses the closed form instead; this is its reference."""
    return _apply_op(op_poly, g, Poly.derivative)


def apply_euler_op(op_poly: Poly, g: Poly) -> Poly:
    """Apply sum_i c_i (t d/dt)^i to g, where op_poly = sum_i c_i T^i.

    `functionals.evaluate` uses the closed form instead; this is its reference."""
    return _apply_op(op_poly, g, Poly.euler)


def extended_gcd(a: Poly, b: Poly):
    """(u, v, g) with u*a + v*b = g, g the monic gcd.

    Degrees are minimal: deg u < deg b - deg g and deg v < deg a - deg g
    whenever both u and v are nonzero.
    """
    if a.is_zero and b.is_zero:
        raise DomainError("gcd of two zero polynomials")
    r0, r1 = a, b
    u0, u1 = Poly((1,)), Poly()
    v0, v1 = Poly(), Poly((1,))
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    c = scalar_inverse(r0.lead)
    return u0.scale(c), v0.scale(c), r0.scale(c)


def int_poly_mul(a, b):
    """Product of two integer coefficient lists (index = exponent) by
    Kronecker substitution (`scalars.pack`).  Each product coefficient sums
    at most min(len a, len b) products of a coefficient of a and one of b,
    so |digit| <= min(len a, len b) * max|a| * max|b|, which also bounds the
    inputs unless one is all zeros.  `Poly.__mul__` is the schoolbook
    reference."""
    if not a or not b:
        return []
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * (len(a) + len(b) - 1)
    width = digit_width(bound)
    return unpack(pack(a, width) * pack(b, width), width, len(a) + len(b) - 1)


def int_times_linear(coeffs, a: int, b: int):
    """The integer coefficient list times b*t - a."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= a * c
        out[i + 1] += b * c
    return out


def split_integer_form(roots: RootData):
    """(B, F) for rational roots: F = prod (b t - a)^mult over the roots a/b
    in lowest terms, an integer coefficient list, and B = prod b^mult, its
    leading coefficient, so that the modulus prod (t - a/b)^mult is F / B."""
    scale, coeffs = 1, [1]
    for lam, m in roots:
        a, b = lam.numerator, lam.denominator
        power = [comb(m, k) * b**k * (-a) ** (m - k) for k in range(m + 1)]
        coeffs = int_poly_mul(coeffs, power)
        scale *= b**m
    return scale, coeffs


class RootData:
    """Distinct roots with multiplicities >= 1; listed order is authoritative."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        cleaned = []
        for lam, mult in pairs:
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise DomainError(f"multiplicity {mult!r} of root {lam} must be an integer")
            if mult < 1:
                raise DomainError(f"multiplicity {mult} of root {lam} must be >= 1")
            if any(lam == seen for seen, _ in cleaned):
                raise DomainError(f"repeated root {lam}")
            cleaned.append((lam, mult))
        if not cleaned:
            raise DomainError("empty root data")
        require_rational([lam for lam, _ in cleaned], "root data")
        self.pairs = tuple(cleaned)

    @property
    def roots(self):
        return tuple(lam for lam, _ in self.pairs)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.pairs)

    def multiplicity(self, lam) -> int:
        for seen, m in self.pairs:
            if seen == lam:
                return m
        return 0

    def poly(self) -> Poly:
        """prod (t - root)^mult: the integer form, divided once per coefficient."""
        scale, coeffs = split_integer_form(self)
        return Poly(tuple(Rational(c, scale) for c in coeffs))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, RootData):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        inner = ", ".join(f"({lam}, {m})" for lam, m in self.pairs)
        return f"RootData([{inner}])"


# Work budget of rational_roots; cli.py states the time at each cap.
MAX_ROOT_DIGITS = 12  # per extreme coefficient; trial division runs to its square root
MAX_ROOT_STEPS = 120_000  # candidates +-p/q times the degree; one Horner evaluation each


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def rational_roots(f: Poly) -> RootData:
    """All rational roots with multiplicities, via the rational root theorem
    on the primitive integer form.  Raises DoesNotSplitError if a factor of
    degree > 0 remains, and DomainError over the budget above (checked first)."""
    if f.is_zero:
        raise DomainError("zero polynomial has every root")
    if f.degree == 0:
        raise DomainError("constant polynomial has no roots")
    require_rational(f.coeffs, "root finding")
    found = []
    zero_mult = f.low_order
    work = Poly(f.coeffs[zero_mult:])
    if zero_mult:
        found.append((Rational(0), zero_mult))
    if work.degree > 0:
        _, ints = clear_denominators(work.coeffs)
        content = gcd(*ints)
        ints = [c // content for c in ints]
        if max(abs(ints[0]), abs(ints[-1])) >= 10**MAX_ROOT_DIGITS:
            raise DomainError("an extreme coefficient of the primitive form has more than "
                              f"{MAX_ROOT_DIGITS} digits, the cap of the root search")
        numerators, denominators = _divisors(ints[0]), _divisors(ints[-1])
        count = 2 * len(numerators) * len(denominators)
        if count * work.degree > MAX_ROOT_STEPS:
            raise DomainError(f"{count} candidate roots times degree {work.degree} exceed "
                              f"{MAX_ROOT_STEPS}, the cap of the root search")
        candidates = {Rational(s * p, q) for p in numerators for q in denominators for s in (1, -1)}
        for r in sorted(candidates):
            mult = 0
            while work.degree > 0 and work(r) == 0:
                work = work // Poly((-r, 1))
                mult += 1
            if mult:
                found.append((r, mult))
    if work.degree > 0:
        raise DoesNotSplitError(work)
    found.sort(key=lambda pair: pair[0])
    return RootData(found)

