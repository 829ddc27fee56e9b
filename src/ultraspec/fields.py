"""Exact arithmetic and rank-zero characters for the supported local fields.

Two families are implemented:

* ``EisensteinExtension(p, e)``: K = Q_p[b] with b**e = p and p not dividing
  e (tame, totally ramified; e = 1 gives plain Q_p).  Elements are finite
  b-adic expansions with digits in {0, ..., p-1}; the carry rule
  p * b**i = b**(i+e) makes addition and multiplication exact and closed.
  Negation is only exact modulo a power of b (the canonical expansion of -x
  is infinite), so ``elem_neg`` takes an explicit truncation exponent.

* ``LaurentField(p, f, modulus)``: F_q((t)) with q = p**f.  The residue
  field is F_p[z] modulo an irreducible ``modulus``; its elements are encoded
  as integers < q (base-p coefficient vectors).  Digit arithmetic has no
  carries, so all ring operations including negation are exact.

Characters are additive and of rank zero (trivial exactly on the unit ball).
Phases are kept as exact rationals with p-power denominator so that
additivity checks and the Fourier kernels downstream are reproducible bit
for bit.  ``format_element`` writes an expansion as ordered ``exp:digit``
pairs such as ``-2:1,0:2`` (the zero element as the empty string).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NonPrimeP, ReducibleModulus, WildRamification

__all__ = [
    "EisensteinExtension",
    "LaurentField",
    "FieldSpec",
    "Field",
    "FieldElement",
    "CharacterPhase",
    "make_field",
    "elem_from_pairs",
    "elem_add",
    "elem_mul",
    "elem_neg",
    "abs_value",
    "valuation",
    "character_phase",
    "character",
    "format_element",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Residue-field arithmetic F_q = F_p[z]/(modulus), elements encoded as ints.
# ---------------------------------------------------------------------------


class ResidueField:
    """F_q arithmetic on integer-encoded elements (sum c_i * p**i <-> sum c_i z**i)."""

    def __init__(self, p: int, f: int, modulus: Sequence[int]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        # z**k mod modulus for k in [f, 2f-2], as coefficient tuples
        self._high_powers = self._reduce_high_powers()

    def _reduce_high_powers(self):
        p, f = self.p, self.f
        # z**f = -(m_0 + m_1 z + ... + m_{f-1} z**{f-1})
        base = tuple((-c) % p for c in self.modulus[:f])
        powers = {f: base}
        cur = base
        for k in range(f + 1, 2 * f - 1):
            shifted = (0,) + cur[: f - 1]
            top = cur[f - 1]
            cur = tuple((shifted[i] + top * base[i]) % p for i in range(f))
            powers[k] = cur
        return powers

    def decode(self, a: int) -> tuple:
        p = self.p
        return tuple((a // p**i) % p for i in range(self.f))

    def encode(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        ca, cb = self.decode(a), self.decode(b)
        return self.encode(ca[i] + cb[i] for i in range(self.f))

    def neg(self, a: int) -> int:
        return self.encode(-c for c in self.decode(a))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, f = self.p, self.f
        ca, cb = self.decode(a), self.decode(b)
        conv = [0] * (2 * f - 1)
        for i, ci in enumerate(ca):
            if ci:
                for j, cj in enumerate(cb):
                    conv[i + j] += ci * cj
        out = [c % p for c in conv[:f]]
        for k in range(f, 2 * f - 1):
            c = conv[k] % p
            if c:
                red = self._high_powers[k]
                for i in range(f):
                    out[i] = (out[i] + c * red[i]) % p
        return self.encode(out)

    def pow(self, a: int, k: int) -> int:
        result, base = 1, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def trace(self, a: int) -> int:
        """Trace to the prime field: sum of Frobenius images, returned in {0..p-1}."""
        acc, frob = a, a
        for _ in range(self.f - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        if acc >= self.p:
            raise ArithmeticError("residue trace left the prime field")
        return acc


def _poly_divmod(p: int, num: Sequence[int], den: Sequence[int]):
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - dn, 0)
    for k in range(len(num) - 1, dn - 1, -1):
        c = (num[k] * inv_lead) % p
        if c:
            quot[k - dn] = c
            for i, d in enumerate(den):
                num[k - dn + i] = (num[k - dn + i] - c * d) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Exhaustive divisor check; fine at the degrees this package supports."""
    f = len(coeffs) - 1
    if f < 1 or coeffs[-1] % p == 0:
        return False
    if f == 1:
        return True
    if coeffs[0] % p == 0:  # divisible by z
        return False
    for deg in range(1, f // 2 + 1):
        for index in range(p**deg):
            cand = [(index // p**i) % p for i in range(deg)] + [1]
            _, rem = _poly_divmod(p, coeffs, cand)
            if not rem:
                return False
    return True


def default_modulus(p: int, f: int) -> tuple:
    """Lexicographically first monic irreducible of degree f over F_p."""
    for index in range(p**f):
        cand = tuple((index // p**i) % p for i in range(f)) + (1,)
        if _is_irreducible(p, cand):
            return cand
    raise ReducibleModulus(f"no irreducible polynomial of degree {f} found")


# ---------------------------------------------------------------------------
# Field specifications and derived data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EisensteinExtension:
    """K = Q_p[b], b**e = p, tamely ramified (p does not divide e)."""

    p: int
    e: int = 1


@dataclass(frozen=True)
class LaurentField:
    """K = F_q((t)), q = p**f; ``modulus`` defaults to the first irreducible."""

    p: int
    f: int = 1
    modulus: Union[tuple, None] = None


FieldSpec = Union[EisensteinExtension, LaurentField]


@dataclass(frozen=True, eq=False)
class Field:
    """A supported local field with its derived constants.

    q is the residue-field size, e/f the ramification/inertia indices, and d
    the exponent of the different (which twists the character to rank zero).
    ``spec`` is resolved (a Laurent spec carries its residue modulus): equal fields, equal specs.
    """

    spec: FieldSpec
    q: int
    e: int
    f: int
    d: int
    residue: Union[ResidueField, None] = None

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def is_laurent(self) -> bool:
        return isinstance(self.spec, LaurentField)

    def zero(self) -> "FieldElement":
        return FieldElement(0, ())

    def one(self) -> "FieldElement":
        return FieldElement(0, (1,))

    def beta_power(self, m: int) -> "FieldElement":
        return FieldElement(m, (1,))


def make_field(spec: FieldSpec) -> Field:
    """Validate a field spec and compute q, e, f, d."""
    if not _is_prime(spec.p):
        raise NonPrimeP(f"p = {spec.p} is not prime")
    if isinstance(spec, EisensteinExtension):
        if spec.e < 1:
            raise WildRamification(f"ramification index e = {spec.e} must be >= 1")
        if spec.e % spec.p == 0:
            raise WildRamification(
                f"p = {spec.p} divides e = {spec.e}; only tame ramification is supported"
            )
        return Field(spec=spec, q=spec.p, e=spec.e, f=1, d=spec.e - 1)
    if isinstance(spec, LaurentField):
        if spec.f < 1:
            raise ReducibleModulus(f"extension degree f = {spec.f} must be >= 1")
        modulus = spec.modulus if spec.modulus is not None else default_modulus(spec.p, spec.f)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != spec.f + 1 or modulus[-1] % spec.p != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree f = {spec.f}, got {modulus}"
            )
        if not _is_irreducible(spec.p, modulus):
            raise ReducibleModulus(f"modulus {modulus} is reducible over F_{spec.p}")
        residue = ResidueField(spec.p, spec.f, modulus)
        spec = LaurentField(spec.p, spec.f, residue.modulus)
        return Field(spec=spec, q=spec.p**spec.f, e=1, f=spec.f, d=0, residue=residue)
    raise TypeError(f"unsupported field spec: {spec!r}")


# ---------------------------------------------------------------------------
# Field elements: finite digit expansions sum a_i * b**i
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldElement:
    """Finite expansion sum_{i} digits[i - lo] * b**(lo + i), canonical form.

    First and last stored digits are nonzero; the zero element is
    ``FieldElement(0, ())``.
    """

    lo: int
    digits: tuple

    @property
    def is_zero(self) -> bool:
        return not self.digits

    def digit_at(self, exp: int) -> int:
        if not self.digits or exp < self.lo or exp >= self.lo + len(self.digits):
            return 0
        return self.digits[exp - self.lo]

    def pairs(self):
        return [(self.lo + i, d) for i, d in enumerate(self.digits) if d]

    def __str__(self) -> str:
        return format_element(self) or "0"


def _canonical(lo: int, digits: Iterable[int]) -> FieldElement:
    digits = list(digits)
    start = 0
    while start < len(digits) and digits[start] == 0:
        start += 1
    end = len(digits)
    while end > start and digits[end - 1] == 0:
        end -= 1
    if start == end:
        return FieldElement(0, ())
    return FieldElement(lo + start, tuple(digits[start:end]))


def elem_from_pairs(field: Field, pairs: Iterable) -> FieldElement:
    """Build a canonical element from (exponent, digit) pairs."""
    pairs = sorted((int(e), int(d)) for e, d in pairs)
    for _, d in pairs:
        if not 0 <= d < field.q:
            raise ValueError(f"digit {d} out of range for q = {field.q}")
    if not pairs:
        return field.zero()
    lo = pairs[0][0]
    hi = pairs[-1][0]
    digits = [0] * (hi - lo + 1)
    for e, d in pairs:
        if digits[e - lo]:
            raise ValueError(f"duplicate exponent {e}")
        digits[e - lo] = d
    return _canonical(lo, digits)


def _carry_normalize(p: int, e: int, lo: int, buf: list) -> FieldElement:
    # buf holds non-negative integer coefficients; carries only move upward.
    i = 0
    while i < len(buf):
        c = buf[i]
        if c >= p:
            if i + e >= len(buf):
                buf.extend([0] * (i + e + 1 - len(buf)))
            buf[i] = c % p
            buf[i + e] += c // p
        i += 1
    return _canonical(lo, buf)


def elem_add(field: Field, x: FieldElement, y: FieldElement) -> FieldElement:
    """Exact sum; Eisenstein digit sums >= p promote p*b**i to b**(i+e)."""
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    lo = min(x.lo, y.lo)
    hi = max(x.lo + len(x.digits), y.lo + len(y.digits))
    if field.is_laurent:
        rf = field.residue
        buf = [0] * (hi - lo)
        for i, d in enumerate(x.digits):
            buf[x.lo - lo + i] = d
        for i, d in enumerate(y.digits):
            j = y.lo - lo + i
            buf[j] = rf.add(buf[j], d)
        return _canonical(lo, buf)
    buf = [0] * (hi - lo)
    for i, d in enumerate(x.digits):
        buf[x.lo - lo + i] += d
    for i, d in enumerate(y.digits):
        buf[y.lo - lo + i] += d
    return _carry_normalize(field.p, field.e, lo, buf)


def elem_mul(field: Field, x: FieldElement, y: FieldElement) -> FieldElement:
    """Exact product by digit convolution plus carry normalization."""
    if x.is_zero or y.is_zero:
        return field.zero()
    lo = x.lo + y.lo
    conv = [0] * (len(x.digits) + len(y.digits) - 1)
    if field.is_laurent:
        rf = field.residue
        for i, a in enumerate(x.digits):
            if a:
                for j, b in enumerate(y.digits):
                    if b:
                        conv[i + j] = rf.add(conv[i + j], rf.mul(a, b))
        return _canonical(lo, conv)
    for i, a in enumerate(x.digits):
        if a:
            for j, b in enumerate(y.digits):
                conv[i + j] += a * b
    return _carry_normalize(field.p, field.e, lo, conv)


def elem_neg(field: Field, x: FieldElement, mod_exp: Union[int, None] = None) -> FieldElement:
    """Negate x.

    Laurent fields: exact (digit-wise residue negation).  Eisenstein fields:
    the canonical expansion of -x is infinite, so the result is the canonical
    representative of -x modulo b**mod_exp; ``elem_add(x, elem_neg(x, N))``
    then has valuation >= N, and is exactly zero after grid reduction.
    """
    if x.is_zero:
        return x
    if field.is_laurent:
        return _canonical(x.lo, [field.residue.neg(d) for d in x.digits])
    if mod_exp is None:
        raise ValueError("Eisenstein negation needs a truncation exponent mod_exp")
    if mod_exp <= x.lo:
        return field.zero()
    p, e = field.p, field.e
    out = []
    carry = {}
    for i in range(x.lo, mod_exp):
        s = x.digit_at(i) + carry.pop(i, 0)
        b = (-s) % p
        out.append(b)
        if s + b:
            carry[i + e] = carry.get(i + e, 0) + (s + b) // p
    return _canonical(x.lo, out)


def valuation(field: Field, x: FieldElement):
    """Lowest nonzero b-exponent, or +inf for the zero element."""
    return math.inf if x.is_zero else x.lo


def abs_value(field: Field, x: FieldElement) -> float:
    """Canonical absolute value q**(-valuation); 0 for the zero element."""
    if x.is_zero:
        return 0.0
    return float(field.q) ** (-x.lo)


# ---------------------------------------------------------------------------
# Rank-zero characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterPhase:
    """Exact character phase: the value is exp(2*pi*i*r), 0 <= r < 1."""

    r: Fraction

    def __post_init__(self):
        if not 0 <= self.r < 1:
            raise ValueError(f"phase {self.r} outside [0, 1)")

    @property
    def complex_value(self) -> complex:
        if self.r == 0:
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * float(self.r))


def _padic_fractional(r: Fraction, p: int) -> Fraction:
    # denominator of r is a power of p by construction
    den = r.denominator
    if den == 1:
        return Fraction(0)
    return Fraction(r.numerator % den, den)


def beta_monomial_phase(field: Field, m: int, digit: int = 1) -> Fraction:
    """Phase of digit * b**m; closed form used to build Fourier kernels."""
    if digit == 0:
        return Fraction(0)
    if field.is_laurent:
        if m != -1:
            return Fraction(0)
        return Fraction(field.residue.trace(digit), field.p)
    shifted = m - field.d
    if shifted % field.e:
        return Fraction(0)
    k = shifted // field.e
    if k >= 0:
        return Fraction(0)
    return _padic_fractional(Fraction(digit * field.e, field.p ** (-k)), field.p)


def character_phase(field: Field, x: FieldElement) -> CharacterPhase:
    """Exact rational phase r with chi(x) = exp(2*pi*i*r).

    Eisenstein: r = { tr(b**(-d) * x) } with tr(b**j) = e * p**(j/e) when
    e | j and 0 otherwise (tame power basis).  Laurent: r = tr(x_{-1}) / p
    with the residue-field Frobenius trace.
    """
    if x.is_zero:
        return CharacterPhase(Fraction(0))
    if field.is_laurent:
        return CharacterPhase(beta_monomial_phase(field, -1, x.digit_at(-1)))
    e, p, d = field.e, field.p, field.d
    total = Fraction(0)
    for offset, digit in enumerate(x.digits):
        if not digit:
            continue
        j = x.lo - d + offset
        if j % e == 0:
            k = j // e
            if k >= 0:
                continue  # integer contribution, no fractional part
            total += Fraction(digit * e, p ** (-k))
    return CharacterPhase(_padic_fractional(total, p))


def character(field: Field, x: FieldElement) -> complex:
    """Unit complex chi(x); use ``character_phase`` for the exact rational."""
    return character_phase(field, x).complex_value


# ---------------------------------------------------------------------------
# Text form: ordered exp:digit pairs, e.g. "-2:1,0:2"; zero is the empty string
# ---------------------------------------------------------------------------


def format_element(x: FieldElement) -> str:
    return ",".join(f"{e}:{d}" for e, d in x.pairs())
