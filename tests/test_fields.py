import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import ZERO, FieldElement
from ultraspec import (
    EisensteinExtension,
    LaurentField,
    NonPrimeP,
    ReducibleModulus,
    WildRamification,
    build_grid,
    make_field,
)
from ultraspec.fields import (
    ResidueField,
    add_rows,
    default_modulus,
    mul_rows,
    neg_rows,
    phase_rows,
    valuation_rows,
)
from ultraspec.output import _point_labels


# ---------------------------------------------------------------------------
# Digit rows and the oracle's elements: an (S, W) array holds S elements,
# column j at exponent lo + j
# ---------------------------------------------------------------------------


def digit_rows(elements, lo, width):
    """The elements as an (S, width) array, column j at exponent lo + j; each must fit."""
    rows = np.zeros((len(elements), width), dtype=np.int64)
    for row, x in zip(rows, elements):
        assert not x.digits or (x.lo >= lo and x.lo + len(x.digits) <= lo + width), (x, lo, width)
        row[x.lo - lo : x.lo - lo + len(x.digits)] = x.digits
    return rows


def row_elements(rows, lo):
    """The inverse of ``digit_rows``: each row as the oracle's canonical element."""
    return [oracles._canonical(lo, row) for row in np.asarray(rows).tolist()]


def phases(field, rows, lo):
    """The character phase of each row, as a Fraction, from ``phase_rows``."""
    numerators, den = phase_rows(field, rows, lo)
    return [Fraction(int(num), den) for num in numerators]


# ---------------------------------------------------------------------------
# Independent oracle: evaluate digit expansions over Q_3[sqrt(3)] as exact
# pairs (u, v) meaning u + v*sqrt(3), with u, v rational.
# ---------------------------------------------------------------------------


def as_quadratic(x):
    u = Fraction(0)
    v = Fraction(0)
    for exp, digit in x.pairs():
        if exp % 2 == 0:
            u += digit * Fraction(3) ** (exp // 2)
        else:
            v += digit * Fraction(3) ** ((exp - 1) // 2)
    return u, v


def quad_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def quad_mul(a, b):
    # (u1 + v1 r)(u2 + v2 r) with r**2 = 3
    return (a[0] * b[0] + 3 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


SPAN = (-3, 4)  # the exponents of random_element's digits


def random_element(field, rng, span=SPAN):
    return oracles._canonical(span[0], [rng.randrange(field.q) for _ in range(*span)])


def random_pairs(field, rng, count):
    """``count`` random element pairs as two digit-row arrays on the window SPAN."""
    pairs = [(random_element(field, rng), random_element(field, rng)) for _ in range(count)]
    width = SPAN[1] - SPAN[0]
    return tuple(digit_rows([pair[k] for pair in pairs], SPAN[0], width) for k in (0, 1))


# ---------------------------------------------------------------------------
# make_field
# ---------------------------------------------------------------------------


def test_make_field_q3sqrt3(q3sqrt3):
    assert (q3sqrt3.q, q3sqrt3.e, q3sqrt3.f, q3sqrt3.d) == (3, 2, 1, 1)


def test_make_field_plain_q5():
    field = make_field(EisensteinExtension(p=5, e=1))
    assert (field.q, field.d) == (5, 0)


def test_make_field_wild_ramification_rejected():
    with pytest.raises(WildRamification):
        make_field(EisensteinExtension(p=2, e=2))


def test_make_field_requires_prime():
    with pytest.raises(NonPrimeP):
        make_field(EisensteinExtension(p=6, e=1))


def test_make_field_extension_degree_identity(q3sqrt3, f3_laurent):
    assert q3sqrt3.e * q3sqrt3.f == 2
    assert f3_laurent.e * f3_laurent.f == 1
    f9 = make_field(LaurentField(p=3, f=2))
    assert (f9.q, f9.e, f9.f, f9.d) == (9, 1, 2, 0)


def test_make_field_rejects_reducible_modulus():
    # z**2 - 1 = (z-1)(z+1) over F_3
    with pytest.raises(ReducibleModulus):
        make_field(LaurentField(p=3, f=2, modulus=(2, 0, 1)))


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def test_add_digit_carry(q3sqrt3):
    total = add_rows(q3sqrt3, [[2]], [[2]])
    assert row_elements(total, 0)[0].pairs() == [(0, 1), (2, 1)]  # 2 + 2 = 1 + beta**2


def test_add_identity(q3sqrt3):
    rng = random.Random(7)
    xs = [random_element(q3sqrt3, rng) for _ in range(20)]
    x = digit_rows(xs, SPAN[0], SPAN[1] - SPAN[0])
    assert row_elements(add_rows(q3sqrt3, x, np.zeros_like(x)), SPAN[0]) == xs


def test_add_carry_across_negative_exponent(q3sqrt3):
    total = add_rows(q3sqrt3, [[1]], [[2]])  # at exponent -1
    assert row_elements(total, -1)[0].pairs() == [(1, 1)]  # 3*beta**-1 = beta


def test_add_matches_quadratic_field_oracle(q3sqrt3):
    x, y = random_pairs(q3sqrt3, random.Random(11), 200)
    total = row_elements(add_rows(q3sqrt3, x, y), SPAN[0])
    xs, ys = row_elements(x, SPAN[0]), row_elements(y, SPAN[0])
    for s, a, b in zip(total, xs, ys):
        assert as_quadratic(s) == quad_add(as_quadratic(a), as_quadratic(b))


def test_mul_beta_squared_carries_to_single_digit(q3sqrt3):
    product = mul_rows(q3sqrt3, [[1]], [[1]])  # beta * beta, at exponent 1 + 1
    assert row_elements(product, 2)[0].pairs() == [(2, 1)]


def test_mul_identity(q3sqrt3):
    rng = random.Random(13)
    xs = [random_element(q3sqrt3, rng) for _ in range(20)]
    one = np.ones((len(xs), 1), dtype=np.int64)  # the digit 1 at exponent 0
    product = mul_rows(q3sqrt3, digit_rows(xs, SPAN[0], SPAN[1] - SPAN[0]), one)
    assert row_elements(product, SPAN[0]) == xs


def test_mul_matches_quadratic_field_oracle(q3sqrt3):
    x, y = random_pairs(q3sqrt3, random.Random(17), 200)
    product = row_elements(mul_rows(q3sqrt3, x, y), 2 * SPAN[0])
    xs, ys = row_elements(x, SPAN[0]), row_elements(y, SPAN[0])
    for s, a, b in zip(product, xs, ys):
        assert as_quadratic(s) == quad_mul(as_quadratic(a), as_quadratic(b))


def test_abs_value_is_multiplicative(q3sqrt3):
    x, y = random_pairs(q3sqrt3, random.Random(19), 100)
    product = row_elements(mul_rows(q3sqrt3, x, y), 2 * SPAN[0])
    for s, a, b in zip(product, row_elements(x, SPAN[0]), row_elements(y, SPAN[0])):
        expected = oracles.abs_value(q3sqrt3, a) * oracles.abs_value(q3sqrt3, b)
        assert oracles.abs_value(q3sqrt3, s) == pytest.approx(expected)


def test_abs_value_examples(q3sqrt3):
    assert oracles.abs_value(q3sqrt3, FieldElement(1, (1,))) == pytest.approx(1 / 3)
    assert oracles.abs_value(q3sqrt3, ZERO) == 0.0
    assert oracles.abs_value(q3sqrt3, FieldElement(-2, (1,))) == 9.0
    # a zero row reads the exponent past its window; beta**-2 reads -2
    assert valuation_rows([[0, 0], [1, 0]], -2).tolist() == [0, -2]


def test_ultrametric_inequality(q3sqrt3):
    x, y = random_pairs(q3sqrt3, random.Random(23), 200)
    total = row_elements(add_rows(q3sqrt3, x, y), SPAN[0])
    for s, a, b in zip(total, row_elements(x, SPAN[0]), row_elements(y, SPAN[0])):
        ax, ay = oracles.abs_value(q3sqrt3, a), oracles.abs_value(q3sqrt3, b)
        asum = oracles.abs_value(q3sqrt3, s)
        assert asum <= max(ax, ay) + 1e-15
        if ax != ay:
            assert asum == pytest.approx(max(ax, ay))


def test_negation_round_trip(q3sqrt3, f3_laurent):
    rng = random.Random(29)
    pairs = [(random_element(q3sqrt3, rng), random_element(f3_laurent, rng)) for _ in range(50)]
    lo, mod_exp = SPAN[0], 6
    x = digit_rows([pair[0] for pair in pairs], lo, mod_exp - lo)
    total = add_rows(q3sqrt3, x, neg_rows(q3sqrt3, x, lo, mod_exp))
    assert (valuation_rows(total, lo) >= mod_exp).all()  # zero rows read past the window
    y = digit_rows([pair[1] for pair in pairs], lo, SPAN[1] - lo)
    assert not add_rows(f3_laurent, y, neg_rows(f3_laurent, y, lo)).any()


def test_eisenstein_negation_needs_truncation(q3sqrt3):
    with pytest.raises(ValueError):
        neg_rows(q3sqrt3, [[1]], 0)


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def test_phase_trivial_on_integers(q3sqrt3):
    rng = random.Random(31)
    x = [[rng.randrange(3) for _ in range(0, 5)] for _ in range(50)]  # exponents 0..4
    assert phases(q3sqrt3, x, 0) == [0] * 50


def test_phase_examples_from_trace_rule(q3sqrt3):
    # tr(beta**odd) = 0, tr(beta**(2k)) = 2 * 3**k; beta**-3, beta**-2, beta**-1
    assert phases(q3sqrt3, np.eye(3, dtype=np.int64), -3) == [Fraction(2, 9), 0, Fraction(2, 3)]


def test_character_at_zero(q3sqrt3, f3_laurent):
    for field in (q3sqrt3, f3_laurent):
        for lo in (-5, -1, 0, 2):
            assert phases(field, np.zeros((1, 6), dtype=np.int64), lo) == [0]


def test_character_additive_at_rational_level(q3sqrt3, f3_laurent):
    rng = random.Random(37)
    for field in (q3sqrt3, f3_laurent):
        x, y = random_pairs(field, rng, 200)
        lhs = phases(field, add_rows(field, x, y), SPAN[0])
        rhs = [(a + b) % 1 for a, b in zip(phases(field, x, SPAN[0]), phases(field, y, SPAN[0]))]
        assert lhs == rhs


def test_rank_zero_witness(q3sqrt3, f3_laurent):
    for field in (q3sqrt3, f3_laurent):
        witnesses = [[d] for d in range(1, field.q)]  # d * b**-1
        assert any(phases(field, witnesses, -1))


def test_phase_denominator_is_p_power(q3sqrt3):
    rng = random.Random(41)
    xs = [random_element(q3sqrt3, rng, span=(-5, 3)) for _ in range(100)]
    for r in phases(q3sqrt3, digit_rows(xs, -5, 8), -5):
        den = r.denominator
        while den % 3 == 0:
            den //= 3
        assert den == 1


def test_laurent_character_uses_residue_trace():
    f9 = make_field(LaurentField(p=3, f=2))
    rf = f9.residue
    digits = range(1, 9)
    assert phases(f9, [[d] for d in digits], -1) == [Fraction(rf.trace(d), 3) for d in digits]
    # digits away from exponent -1 contribute nothing
    assert phases(f9, [[5, 0, 7]], -2) == [0]


# ---------------------------------------------------------------------------
# Residue field internals
# ---------------------------------------------------------------------------


def test_residue_field_is_a_field():
    rf = ResidueField(2, 2, default_modulus(2, 2))
    add, mul, neg = rf.tables
    a, b, c = np.ix_(range(rf.q), range(rf.q), range(rf.q))
    assert not add[range(rf.q), neg].any()
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(mul[a, mul[b, c]], mul[mul[a, b], c])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    # nonzero elements invertible: a**(q-1) = 1
    for a in range(1, rf.q):
        assert rf.pow(a, rf.q - 1) == 1


def test_residue_trace_lands_in_prime_field():
    rf = ResidueField(3, 2, default_modulus(3, 2))
    for a in range(rf.q):
        assert 0 <= rf.trace(a) < 3
    # trace is additive and surjective onto F_p
    assert {rf.trace(a) for a in range(rf.q)} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def test_text_form_round_trip(q3sqrt3):
    # the point with digit 1 at exponent -2 and 2 at exponent 0 is index 1*27 + 2*3
    digits, _ = _point_labels(build_grid(q3sqrt3, 2))
    assert digits[33] == "-2:1,0:2"
    assert digits[0] == ""


# ---------------------------------------------------------------------------
# The integer kernels against the digit-by-digit oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [
    EisensteinExtension(p=2),
    EisensteinExtension(p=3),
    EisensteinExtension(p=5),
    EisensteinExtension(p=7),
    EisensteinExtension(p=3, e=2),
    EisensteinExtension(p=2, e=3),
    EisensteinExtension(p=5, e=2),
    EisensteinExtension(p=5, e=4),
    LaurentField(p=2),
    LaurentField(p=3),
    LaurentField(p=2, f=2),
    LaurentField(p=2, f=3),
    LaurentField(p=3, f=2),
    LaurentField(p=5, f=2),
]


def kernel_element(field, rng):
    """A random element: zero, a run of top digits that carries, or random digits.

    Exponents start anywhere in [-9, 6], and lengths reach 24 digits, longer
    than any grid row the tests build.
    """
    kind = rng.randrange(6)
    if kind == 0:
        return ZERO
    lo, length = rng.randrange(-9, 7), rng.randrange(1, 25)
    if kind == 1:  # digit p - 1 (q - 1 for Laurent), which carries or wraps on every add
        digits = [field.q - 1] * length
    else:
        digits = [rng.randrange(field.q) for _ in range(length)]
    return oracles._canonical(lo, digits)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_integer_kernels_match_digit_by_digit_oracle(spec):
    # each pair on its own window, so the kernels see every lowest exponent
    # in [-9, 6], and negation truncates at, below and above it
    field = make_field(spec)
    slow = oracles.oracle_field(field)
    rng = random.Random(20251019)
    for _ in range(300):
        x, y = kernel_element(field, rng), kernel_element(field, rng)
        lo = min(x.lo, y.lo)  # zero has lo = 0
        width = max(1, x.lo + len(x.digits) - lo, y.lo + len(y.digits) - lo)
        xr, yr = digit_rows([x], lo, width), digit_rows([y], lo, width)
        assert row_elements(add_rows(field, xr, yr), lo) == [oracles.elem_add(slow, x, y)]
        assert row_elements(mul_rows(field, xr, yr), 2 * lo) == [oracles.elem_mul(slow, x, y)]
        mod_exp = x.lo + rng.randrange(-3, len(x.digits) + 4)
        own = digit_rows([x], x.lo, len(x.digits))
        minus = neg_rows(field, own, x.lo, mod_exp)
        assert row_elements(minus, x.lo) == [oracles.elem_neg(slow, x, mod_exp)]
        assert phases(field, own, x.lo) == [oracles.character_phase(slow, x)]


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_grid_point_matches_pairs(spec):
    # digit row i, read at exponents -n, ..., n - 1, holds the base-q digits of i
    field = make_field(spec)
    grid = build_grid(field, 1 if field.q > 5 else 2)
    q, n = field.q, grid.n
    for i, x in enumerate(row_elements(grid.digits, -n)):
        place = [i // q ** (2 * n - 1 - pos) % q for pos in range(2 * n)]
        assert x.pairs() == [(pos - n, d) for pos, d in enumerate(place) if d]


# (p, f) with q = 4, 8, 9, 16, 25, 27, 49, 121, 125, 128
RESIDUE_TABLE_FIELDS = [
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3), (2, 7)
]


def test_residue_arithmetic_matches_digit_by_digit_oracle():
    # the tables, entry by entry, against the oracle's own reduction by the modulus
    for p, f in RESIDUE_TABLE_FIELDS:
        rf = ResidueField(p, f, default_modulus(p, f))
        slow = oracles.ResidueField(p, f, rf.modulus)
        codes = range(rf.q)
        assert rf.tables.neg.tolist() == [slow.neg(a) for a in codes], (p, f)
        assert rf.tables.add.tolist() == [[slow.add(a, b) for b in codes] for a in codes], (p, f)
        assert rf.tables.mul.tolist() == [[slow.mul(a, b) for b in codes] for a in codes], (p, f)


def test_residue_tables_build_in_a_few_q_by_q_arrays():
    # F_2^10: q = 1024, so one q x q int64 array is 8 MiB; a (q, q, f) temporary would be 80 MiB
    rf = ResidueField(2, 10, default_modulus(2, 10))
    tracemalloc.start()
    try:
        rf.tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# q <= 27: (p, f) with p**f <= 27
SMALL_RESIDUE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)] + [
    (p, 1) for p in (7, 11, 13, 17, 19, 23)
]


@pytest.mark.parametrize("p, f", SMALL_RESIDUE_FIELDS)
def test_residue_trace_matches_frobenius_oracle(p, f):
    rf = ResidueField(p, f, default_modulus(p, f))
    slow = oracles.ResidueField(p, f, rf.modulus)
    assert [rf.trace(a) for a in range(rf.q)] == [slow.trace(a) for a in range(rf.q)]


@pytest.mark.parametrize("p, f, modulus", [(3, 2, (2, 0, 1)), (2, 2, (1, 0, 1))])
def test_residue_trace_checks_reducible_modulus(p, f, modulus):
    # z**2 - 1 over F_3 and z**2 + 1 = (z + 1)**2 over F_2: the Frobenius sum
    # leaves the prime field, which the trace reports rather than hides
    rf = ResidueField(p, f, modulus)
    failures = 0
    for a in range(rf.q):
        try:
            rf.trace(a)
        except ArithmeticError:
            failures += 1
    assert failures > 0


# ---------------------------------------------------------------------------
# The batch kernels on whole digit arrays against the digit-by-digit oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_batch_kernels_match_digit_by_digit_oracle(spec):
    # 300 rows of kernel_element pairs on one window: zero rows, carry runs
    # of the top digit and valuations from -9 up
    field = make_field(spec)
    slow = oracles.oracle_field(field)
    rng = random.Random(20261020)
    xs = [kernel_element(field, rng) for _ in range(300)]
    ys = [kernel_element(field, rng) for _ in range(300)]
    lo = min(z.lo for z in xs + ys if z.digits)
    width = max(z.lo + len(z.digits) for z in xs + ys) - lo
    x, y = digit_rows(xs, lo, width), digit_rows(ys, lo, width)

    total = add_rows(field, x, y)
    expected = [oracles.elem_add(slow, a, b) for a, b in zip(xs, ys)]
    assert np.array_equal(total, digit_rows(expected, lo, total.shape[1]))

    product = mul_rows(field, x, y)
    expected = [oracles.elem_mul(slow, a, b) for a, b in zip(xs, ys)]
    assert np.array_equal(product, digit_rows(expected, 2 * lo, product.shape[1]))

    # truncation inside and past the window (F_q((t)) negates exactly on it)
    for mod_exp in (lo + width // 2, lo + width + 3):
        minus = neg_rows(field, x, lo, mod_exp)
        expected = [oracles.elem_neg(slow, a, mod_exp) for a in xs]
        assert np.array_equal(minus, digit_rows(expected, lo, minus.shape[1])), mod_exp
        assert minus.shape[1] == (width if field.is_laurent else mod_exp - lo)

    valuations = [a.lo if a.digits else lo + width for a in xs]
    assert valuation_rows(x, lo).tolist() == valuations

    assert phases(field, x, lo) == [oracles.character_phase(slow, a) for a in xs]
