"""Exact arithmetic and rank-zero characters for the supported local fields.

Two families are implemented:

* ``EisensteinExtension(p, e)``: K = Q_p[b] with b**e = p and p not dividing
  e (tame, totally ramified; e = 1 gives plain Q_p).  Elements are finite
  b-adic expansions with digits in {0, ..., p-1}; the carry rule
  p * b**i = b**(i+e) makes addition and multiplication exact and closed.
  Negation is only exact modulo a power of b (the canonical expansion of -x
  is infinite), so ``neg_rows`` takes an explicit truncation exponent.

* ``LaurentField(p, f, modulus)``: F_q((t)) with q = p**f.  The residue
  field is F_p[z] modulo an irreducible ``modulus``; its elements are encoded
  as integers < q (base-p coefficient vectors).  Digit arithmetic has no
  carries, so all ring operations including negation are exact.

Element arithmetic runs on integer digit arrays, and only there: an (S, W)
array holds S elements as rows, column j at exponent lo + j, and each kernel
(``add_rows``, ``mul_rows``, ``neg_rows``, ``valuation_rows``,
``phase_rows``) treats all S rows in one numpy computation, one step per
column.  Q_p[b] sums and products take column sums or a convolution of W
shifted multiply-adds, then one carry sweep that moves each p at column i
to column i + e; F_q((t)) reads the residue addition, product and negation
tables of ``ResidueField.tables``, the one form of F_q arithmetic, built
once per field on first use as array work on the F_p coordinates of the
codes.  The residue trace is F_p-linear, tr(a) = sum c_i * tr(z**i) mod p,
from f basis traces computed once per residue field, as sums of Frobenius
images (table lookups) that are checked to land in F_p.

Characters are additive and of rank zero (trivial exactly on the unit ball).
Phases are kept as exact rationals with p-power denominator so that
additivity checks and the Fourier kernels downstream are reproducible bit
for bit.  The phase is F_p-linear in the digit coordinates, so ``phase_rows``
is one integer dot product per row with ``beta_monomial_phase`` weights over
one p-power denominator; no float is used.  The digit-by-digit forms of these
kernels, on single elements, are the test oracles of ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import NonPrimeP, ReducibleModulus, WildRamification

__all__ = [
    "EisensteinExtension",
    "LaurentField",
    "FieldSpec",
    "Field",
    "make_field",
    "add_rows",
    "mul_rows",
    "neg_rows",
    "valuation_rows",
    "phase_rows",
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
    """F_q arithmetic on integer codes (sum c_i * p**i <-> sum c_i z**i), as lookup tables.

    ``tables`` holds the q x q sum and product tables and the negation
    table, built on first read as array work on the F_p coordinates of the
    codes: a sum or a negative is coordinate-wise mod p, and a product is
    the coordinate convolution reduced once modulo ``modulus`` through the
    rows z**k, f <= k <= 2f - 2, of ``_high_powers``.  ``pow`` reads the
    product table.  The trace is F_p-linear, tr(a) = sum c_i * tr(z**i) mod
    p, from the f basis traces, which the first call computes as sums of
    Frobenius images.
    """

    def __init__(self, p: int, f: int, modulus: Sequence[int]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        # z**k mod modulus for k in [f, 2f-2], as coefficient tuples
        self._high_powers = self._reduce_high_powers()
        self._basis_traces = None  # tr(z**i), i < f; computed by the first trace

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

    def pow(self, a: int, k: int) -> int:
        mul, result, base = self.tables.mul, 1, a
        while k:
            if k & 1:
                result = int(mul[result, base])
            base = int(mul[base, base])
            k >>= 1
        return result

    def trace(self, a: int) -> int:
        """Trace to the prime field, in {0..p-1}: sum c_i * tr(z**i) mod p."""
        basis = self._basis_traces
        if basis is None:
            basis = self._basis_traces = [self._frobenius_trace(self.p**i) for i in range(self.f)]
        p, total = self.p, 0
        for t in basis:
            a, c = divmod(a, p)
            total += c * t
        return total % p

    def _frobenius_trace(self, a: int) -> int:
        """Sum of the Frobenius images a**(p**i), i < f; it must land in the prime field."""
        acc, frob = a, a
        for _ in range(self.f - 1):
            frob = self.pow(frob, self.p)
            acc = int(self.tables.add[acc, frob])
        if acc >= self.p:
            raise ArithmeticError("residue trace left the prime field")
        return acc

    @cached_property
    def tables(self) -> "ResidueTables":
        """The q x q sum and product tables and the negation table, by code; built on first read.

        Each coordinate i of a sum or a product is one q x q pass over the
        (q, f) coordinate array C of the codes: the coordinate sum mod p, or
        C M_i C^T mod p, where M_i[s, s'] is coordinate i of z**(s + s') mod
        ``modulus``, so every product is reduced once.
        """
        p, f, q = self.p, self.f, self.q
        place = p ** np.arange(f, dtype=np.int64)  # the code of z**i
        coords = np.arange(q, dtype=np.int64)[:, None] // place % p
        high = np.array(list(self._high_powers.values()), dtype=np.int64).reshape(-1, f)
        powers = np.vstack([np.eye(f, dtype=np.int64), high])  # z**s mod modulus, s < 2f - 1
        exps = np.add.outer(np.arange(f), np.arange(f))
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for i in range(f):
            term = coords[:, i, None] + coords[:, i]
            term %= p
            term *= place[i]
            add += term
            term = coords @ powers[exps, i] @ coords.T
            term %= p
            term *= place[i]
            mul += term
        return ResidueTables(add=add, mul=mul, neg=-coords % p @ place)


class ResidueTables(NamedTuple):
    """F_q arithmetic as lookup tables: ``add[a, b]``, ``mul[a, b]`` and ``neg[a]``."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray


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
# Rank-zero characters
# ---------------------------------------------------------------------------


def beta_monomial_phase(field: Field, m: int, digit: int = 1) -> Fraction:
    """Phase of digit * b**m, a residue code for F_q((t)); the phase kernels read it.

    Eisenstein: tr(b**(-d) * b**m) = e * p**k when m - d = e*k and 0
    otherwise (tame power basis), so only k < 0 leaves a fraction.
    Laurent: the residue trace of the t**(-1) digit, over p.
    """
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
    den = field.p ** (-k)
    return Fraction(digit * field.e % den, den)


# ---------------------------------------------------------------------------
# Batch kernels on digit rows: an (S, W) integer array, column j at exponent lo + j
# ---------------------------------------------------------------------------


def _digit_coords(field: Field, digits: np.ndarray) -> np.ndarray:
    """The F_p coordinates of digit rows, f per digit (the digit itself when q = p), as int64."""
    p, f = field.p, field.f
    coords = digits[:, :, None] // p ** np.arange(f, dtype=digits.dtype) % p
    return coords.reshape(len(digits), -1).astype(np.int64)


def _normalize(p: int, e: int, cols: np.ndarray) -> np.ndarray:
    """Q_p[b] digit rows of non-negative column values: each p at column i moves to column i + e.

    One sweep from the lowest column, on a buffer widened for the carries: a
    column holds at most m = ``cols.max()`` plus its carry in, which stays at
    most c = m // (p - 1), and past the last column the carries fall by a
    factor p every e columns, so L blocks of e columns with p**L > c hold them.
    """
    carry, blocks = int(cols.max(initial=0)) // (p - 1), 0
    while carry:
        carry //= p
        blocks += 1
    buf = np.zeros((len(cols), cols.shape[1] + e * blocks), dtype=np.int64)
    buf[:, : cols.shape[1]] = cols
    for i in range(buf.shape[1] - e):
        carry = buf[:, i] // p
        buf[:, i] -= p * carry
        buf[:, i + e] += carry
    return buf


def add_rows(field: Field, x, y) -> np.ndarray:
    """Digit rows of x + y, for (S, W) rows x and y over one window.

    The result is (S, W') over the same lowest exponent, W' >= W: the
    residue addition table for F_q((t)), which has no carries; a column sum
    and the carry sweep for Q_p[b].
    """
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    if field.is_laurent:
        return field.residue.tables.add[x, y]
    return _normalize(field.p, field.e, x + y)


def mul_rows(field: Field, x, y) -> np.ndarray:
    """Digit rows of x * y, for (S, Wx) and (S, Wy) rows; the lowest exponents add.

    The digit convolution as Wx shifted multiply-adds: then the carry sweep
    for Q_p[b], and through the residue product and sum tables for F_q((t)).
    """
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    wy = y.shape[1]
    out = np.zeros((len(x), x.shape[1] + wy - 1), dtype=np.int64)
    if field.is_laurent:
        tables = field.residue.tables
        for j in range(x.shape[1]):
            out[:, j : j + wy] = tables.add[out[:, j : j + wy], tables.mul[x[:, j : j + 1], y]]
        return out
    for j in range(x.shape[1]):
        out[:, j : j + wy] += x[:, j : j + 1] * y
    return _normalize(field.p, field.e, out)


def neg_rows(field: Field, x, lo: int, mod_exp: Union[int, None] = None) -> np.ndarray:
    """Digit rows of -x, for (S, W) rows x with lowest exponent ``lo``.

    F_q((t)): the residue negation table, exact, on the same window.  Q_p[b]:
    -x modulo b**mod_exp, on the window [lo, mod_exp): each digit s (with its
    carry) becomes (-s) mod p and carries (s + that) / p to e places up;
    carries at mod_exp and above drop out.
    """
    x = np.asarray(x, dtype=np.int64)
    if field.is_laurent:
        return field.residue.tables.neg[x]
    if mod_exp is None:
        raise ValueError("Eisenstein negation needs a truncation exponent mod_exp")
    p, e, width = field.p, field.e, max(mod_exp - lo, 0)
    buf = np.zeros((len(x), width), dtype=np.int64)
    keep = min(width, x.shape[1])
    buf[:, :keep] = x[:, :keep]
    for i in range(width):
        s = buf[:, i].copy()
        buf[:, i] = -s % p
        if i + e < width:
            buf[:, i + e] += (s + buf[:, i]) // p
    return buf


def valuation_rows(x, lo: int) -> np.ndarray:
    """The valuation of each of the (S, W) rows x: lo plus its first nonzero column.

    A zero row reads lo + W, past every column of the window, so above the
    valuation of every nonzero row.
    """
    nonzero = np.asarray(x) != 0
    sentinel = np.ones((len(nonzero), 1), dtype=bool)
    return lo + np.argmax(np.concatenate([nonzero, sentinel], axis=1), axis=1)


def _phase_weights(field: Field, lo: int, width: int):
    """(w, D) with the phase of z**s * b**(lo + j) equal to w[j * f + s] / D.

    Each is a ``beta_monomial_phase`` (z**s has the residue code p**s), and D
    is the largest of their denominators, all p-powers.  The weights are
    int64 when every dot product with F_p coordinates fits, Python integers
    otherwise.
    """
    codes = [field.p**s for s in range(field.f)]
    phases = [beta_monomial_phase(field, lo + j, c) for j in range(width) for c in codes]
    den = max((r.denominator for r in phases), default=1)
    weights = [r.numerator * (den // r.denominator) for r in phases]
    fits = den * field.p * max(len(weights), 1) < 2**63
    return np.array(weights, dtype=np.int64 if fits else object), den


def phase_rows(field: Field, x, lo: int):
    """(numerators, D): the character phase of each (S, W) row x is its numerator over D.

    The phase is F_p-linear in the digit coordinates (the character is
    additive), so it is the dot product of the coordinates with the
    ``_phase_weights`` of the window, modulo D, a p-power.
    """
    x = np.asarray(x)
    weights, den = _phase_weights(field, lo, x.shape[1])
    return _digit_coords(field, x) @ weights % den, den
