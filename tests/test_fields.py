import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ultraspec import (
    CharacterPhase,
    EisensteinExtension,
    LaurentField,
    NonPrimeP,
    ReducibleModulus,
    WildRamification,
    build_grid,
    character_phase,
    elem_add,
    elem_from_pairs,
    elem_mul,
    elem_neg,
    format_element,
    make_field,
    valuation,
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


def random_element(field, rng, span=(-3, 4)):
    return elem_from_pairs(
        field, [(e, rng.randrange(field.q)) for e in range(*span)]
    )


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
    two = elem_from_pairs(q3sqrt3, [(0, 2)])
    total = elem_add(q3sqrt3, two, two)
    assert total.pairs() == [(0, 1), (2, 1)]  # 2 + 2 = 1 + beta**2


def test_add_identity(q3sqrt3):
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(q3sqrt3, rng)
        assert elem_add(q3sqrt3, x, q3sqrt3.zero()) == x


def test_add_carry_across_negative_exponent(q3sqrt3):
    x = elem_from_pairs(q3sqrt3, [(-1, 1)])
    y = elem_from_pairs(q3sqrt3, [(-1, 2)])
    assert elem_add(q3sqrt3, x, y).pairs() == [(1, 1)]  # 3*beta**-1 = beta


def test_add_matches_quadratic_field_oracle(q3sqrt3):
    rng = random.Random(11)
    for _ in range(200):
        x, y = random_element(q3sqrt3, rng), random_element(q3sqrt3, rng)
        assert as_quadratic(elem_add(q3sqrt3, x, y)) == quad_add(
            as_quadratic(x), as_quadratic(y)
        )


def test_mul_beta_squared_carries_to_single_digit(q3sqrt3):
    beta = oracles.beta_power(1)
    assert elem_mul(q3sqrt3, beta, beta).pairs() == [(2, 1)]


def test_mul_identity(q3sqrt3):
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(q3sqrt3, rng)
        assert elem_mul(q3sqrt3, x, q3sqrt3.one()) == x


def test_mul_matches_quadratic_field_oracle(q3sqrt3):
    rng = random.Random(17)
    for _ in range(200):
        x, y = random_element(q3sqrt3, rng), random_element(q3sqrt3, rng)
        assert as_quadratic(elem_mul(q3sqrt3, x, y)) == quad_mul(
            as_quadratic(x), as_quadratic(y)
        )


def test_abs_value_is_multiplicative(q3sqrt3):
    rng = random.Random(19)
    for _ in range(100):
        x, y = random_element(q3sqrt3, rng), random_element(q3sqrt3, rng)
        product = oracles.abs_value(q3sqrt3, elem_mul(q3sqrt3, x, y))
        assert product == pytest.approx(oracles.abs_value(q3sqrt3, x) * oracles.abs_value(q3sqrt3, y))


def test_abs_value_examples(q3sqrt3):
    assert oracles.abs_value(q3sqrt3, oracles.beta_power(1)) == pytest.approx(1 / 3)
    assert oracles.abs_value(q3sqrt3, q3sqrt3.zero()) == 0.0
    assert oracles.abs_value(q3sqrt3, oracles.beta_power(-2)) == 9.0
    assert valuation(q3sqrt3, q3sqrt3.zero()) == math.inf
    assert valuation(q3sqrt3, oracles.beta_power(-2)) == -2


def test_ultrametric_inequality(q3sqrt3):
    rng = random.Random(23)
    for _ in range(200):
        x, y = random_element(q3sqrt3, rng), random_element(q3sqrt3, rng)
        ax, ay = oracles.abs_value(q3sqrt3, x), oracles.abs_value(q3sqrt3, y)
        asum = oracles.abs_value(q3sqrt3, elem_add(q3sqrt3, x, y))
        assert asum <= max(ax, ay) + 1e-15
        if ax != ay:
            assert asum == pytest.approx(max(ax, ay))


def test_negation_round_trip(q3sqrt3, f3_laurent):
    rng = random.Random(29)
    for _ in range(50):
        x = random_element(q3sqrt3, rng)
        minus = elem_neg(q3sqrt3, x, mod_exp=6)
        total = elem_add(q3sqrt3, x, minus)
        assert total.is_zero or valuation(q3sqrt3, total) >= 6
        y = random_element(f3_laurent, rng)
        assert elem_add(f3_laurent, y, elem_neg(f3_laurent, y)).is_zero


def test_eisenstein_negation_needs_truncation(q3sqrt3):
    with pytest.raises(ValueError):
        elem_neg(q3sqrt3, q3sqrt3.one())


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def test_phase_trivial_on_integers(q3sqrt3):
    rng = random.Random(31)
    for _ in range(50):
        x = elem_from_pairs(q3sqrt3, [(e, rng.randrange(3)) for e in range(0, 5)])
        assert character_phase(q3sqrt3, x).r == 0


def test_phase_examples_from_trace_rule(q3sqrt3):
    # tr(beta**odd) = 0, tr(beta**(2k)) = 2 * 3**k
    assert character_phase(q3sqrt3, oracles.beta_power(-2)).r == 0
    assert character_phase(q3sqrt3, oracles.beta_power(-3)).r == Fraction(2, 9)
    assert character_phase(q3sqrt3, oracles.beta_power(-1)).r == Fraction(2, 3)


@pytest.mark.parametrize(
    "r", [Fraction(1), Fraction(4, 3), Fraction(-1, 3), -1, 1, 1.5, -0.25, math.inf, math.nan]
)
def test_phase_outside_unit_interval_rejected(r):
    with pytest.raises(ValueError):
        CharacterPhase(r)


def test_character_at_zero(q3sqrt3):
    assert oracles.character(q3sqrt3, q3sqrt3.zero()) == 1


def test_character_additive_at_rational_level(q3sqrt3, f3_laurent):
    rng = random.Random(37)
    for field in (q3sqrt3, f3_laurent):
        for _ in range(200):
            x, y = random_element(field, rng), random_element(field, rng)
            lhs = character_phase(field, elem_add(field, x, y)).r
            rhs = (character_phase(field, x).r + character_phase(field, y).r) % 1
            assert lhs == rhs


def test_rank_zero_witness(q3sqrt3, f3_laurent):
    for field in (q3sqrt3, f3_laurent):
        witnesses = [
            elem_from_pairs(field, [(-1, d)])
            for d in range(1, field.q)
        ]
        assert any(character_phase(field, w).r != 0 for w in witnesses)


def test_phase_denominator_is_p_power(q3sqrt3):
    rng = random.Random(41)
    for _ in range(100):
        x = random_element(q3sqrt3, rng, span=(-5, 3))
        den = character_phase(q3sqrt3, x).r.denominator
        while den % 3 == 0:
            den //= 3
        assert den == 1


def test_laurent_character_uses_residue_trace():
    f9 = make_field(LaurentField(p=3, f=2))
    rf = f9.residue
    for digit in range(1, 9):
        x = elem_from_pairs(f9, [(-1, digit)])
        assert character_phase(f9, x).r == Fraction(rf.trace(digit), 3)
    # digits away from exponent -1 contribute nothing
    assert character_phase(f9, elem_from_pairs(f9, [(-2, 5), (0, 7)])).r == 0


# ---------------------------------------------------------------------------
# Residue field internals
# ---------------------------------------------------------------------------


def test_residue_field_is_a_field():
    rf = ResidueField(2, 2, default_modulus(2, 2))
    elements = range(rf.q)
    for a in elements:
        assert rf.add(a, rf.neg(a)) == 0
        for b in elements:
            assert rf.mul(a, b) == rf.mul(b, a)
            for c in elements:
                assert rf.mul(a, rf.mul(b, c)) == rf.mul(rf.mul(a, b), c)
                assert rf.mul(a, rf.add(b, c)) == rf.add(rf.mul(a, b), rf.mul(a, c))
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
    x = elem_from_pairs(q3sqrt3, [(-2, 1), (0, 2)])
    assert format_element(x) == "-2:1,0:2"
    assert format_element(q3sqrt3.zero()) == ""


def test_elem_from_pairs_validates_digits(q3sqrt3):
    with pytest.raises(ValueError):
        elem_from_pairs(q3sqrt3, [(0, 3)])
    with pytest.raises(ValueError):
        elem_from_pairs(q3sqrt3, [(0, 1), (0, 2)])


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
        return field.zero()
    lo, length = rng.randrange(-9, 7), rng.randrange(1, 25)
    if kind == 1:  # digit p - 1 (q - 1 for Laurent), which carries or wraps on every add
        digits = [field.q - 1] * length
    else:
        digits = [rng.randrange(field.q) for _ in range(length)]
    return elem_from_pairs(field, [(lo + i, d) for i, d in enumerate(digits)])


def as_pair(x):
    return (x.lo, x.digits)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_integer_kernels_match_digit_by_digit_oracle(spec):
    field = make_field(spec)
    slow = oracles.oracle_field(field)
    rng = random.Random(20251019)
    for _ in range(300):
        x, y = kernel_element(field, rng), kernel_element(field, rng)
        assert as_pair(elem_add(field, x, y)) == as_pair(oracles.elem_add(slow, x, y))
        assert as_pair(elem_mul(field, x, y)) == as_pair(oracles.elem_mul(slow, x, y))
        # truncation at, below and above the lowest exponent (zero has lo = 0)
        mod_exp = x.lo + rng.randrange(-3, len(x.digits) + 4)
        assert as_pair(elem_neg(field, x, mod_exp)) == as_pair(oracles.elem_neg(slow, x, mod_exp))
        got, expected = character_phase(field, x).r, oracles.character_phase(slow, x).r
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=str)
def test_grid_point_matches_pairs(spec):
    field = make_field(spec)
    grid = build_grid(field, 1 if field.q > 5 else 2)
    for i in range(grid.size):
        row = grid.digits[i].tolist()
        expected = elem_from_pairs(field, [(pos - grid.n, d) for pos, d in enumerate(row)])
        assert as_pair(grid.point(i)) == as_pair(expected)


def test_residue_arithmetic_matches_digit_by_digit_oracle():
    for p, f in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]:
        rf = ResidueField(p, f, default_modulus(p, f))
        slow = oracles.ResidueField(p, f, rf.modulus)
        for a in range(rf.q):
            assert rf.neg(a) == slow.neg(a)
            for b in range(rf.q):
                assert (rf.add(a, b), rf.mul(a, b)) == (slow.add(a, b), slow.mul(a, b))


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


def digit_rows(elements, lo, width):
    """The elements as an (S, width) array, column j at exponent lo + j; each must fit."""
    rows = np.zeros((len(elements), width), dtype=np.int64)
    for row, x in zip(rows, elements):
        assert not x.digits or (x.lo >= lo and x.lo + len(x.digits) <= lo + width), (x, lo, width)
        row[x.lo - lo : x.lo - lo + len(x.digits)] = x.digits
    return rows


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

    numerators, den = phase_rows(field, x, lo)
    assert [Fraction(int(num), den) for num in numerators] == [
        oracles.character_phase(slow, a).r for a in xs
    ]
