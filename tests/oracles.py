"""Test oracles: digit-by-digit field arithmetic, the numeric classifier, the shell adaptor.

The exact arithmetic of ``ultraspec.fields`` works on integer digit rows,
many elements in one array computation, with F_q arithmetic as lookup
tables.  The first part of this module is the element-by-element form it is
checked against: one ``FieldElement`` at a time, digit by digit, residue
digits decoded to coefficient tuples and encoded back for every operation, a
residue product reduced by long division by the modulus, a Laurent product
summed pair by pair in the residue field, a trace by Frobenius sums, and a
phase summed one ``Fraction`` per digit.  The absolute value, a float view,
sits beside them.

The solver classifies each eigenvector family off its template and adapts
radial clusters by shell (``ultraspec.spectra``).  The second part holds the
per-column forms on N-row vectors that it is checked against, and the
numeric summary of a report, such as one of dense eigenvectors, whose
families are lifted to N rows and classified column by column.

The table writers (``ultraspec.output``) zip their row views from whole
label columns built along the digit tree.  The third part builds the same
rows one point at a time, each label read off its digit row.  The sorted
eigenvalues of a report and the shell label of every point, N-entry arrays
that no command needs, are built here too.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ultraspec import (
    ZERO_SHELL,
    Field,
    Grid,
    HamiltonianModel,
    Radial,
    Shell,
    UltraspecError,
)
from ultraspec.spectra import (
    DEFAULT_RADIAL_TOL,
    DEFAULT_SHELL_TOL,
    _fix_phases,
    _format_shell,
    _refine_on_runs,
)

EIGENSPACE_TOL = 1e-6  # shell_adapt's relative eigen-residual bound


# ---------------------------------------------------------------------------
# Exact field arithmetic, digit by digit
# ---------------------------------------------------------------------------


class ResidueField:
    """F_q arithmetic through coefficient tuples: every operation decodes and encodes.

    It shares nothing with ``ultraspec.fields.ResidueField``: a product is
    reduced by long division by the monic ``modulus``, and powers and traces
    are built on that product.
    """

    def __init__(self, p: int, f: int, modulus: Sequence[int]):
        self.p, self.f, self.q = p, f, p**f
        self.modulus = tuple(int(c) % p for c in modulus)

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
        p, f = self.p, self.f
        ca, cb = self.decode(a), self.decode(b)
        conv = [0] * (2 * f - 1)
        for i, ci in enumerate(ca):
            for j, cj in enumerate(cb):
                conv[i + j] += ci * cj
        for k in range(2 * f - 2, f - 1, -1):  # subtract conv[k] * z**(k - f) * modulus
            c = conv[k] % p
            for i, m in enumerate(self.modulus):
                conv[k - f + i] -= c * m
        return self.encode(conv[:f])

    def pow(self, a: int, k: int) -> int:
        result = 1
        for _ in range(k):
            result = self.mul(result, a)
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


def oracle_field(field: Field) -> Field:
    """``field`` with its residue arithmetic done digit by digit (``ResidueField`` above)."""
    if not field.is_laurent:
        return field
    rf = field.residue
    return dataclasses.replace(field, residue=ResidueField(rf.p, rf.f, rf.modulus))


@dataclass(frozen=True)
class FieldElement:
    """Finite expansion sum_i digits[i] * b**(lo + i), its first and last digits nonzero.

    The zero element is ``FieldElement(0, ())``.
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

    def pairs(self) -> list:
        return [(self.lo + i, d) for i, d in enumerate(self.digits) if d]


ZERO = FieldElement(0, ())


def _canonical(lo: int, digits: Iterable[int]) -> FieldElement:
    digits = list(digits)
    start = 0
    while start < len(digits) and digits[start] == 0:
        start += 1
    end = len(digits)
    while end > start and digits[end - 1] == 0:
        end -= 1
    if start == end:
        return ZERO
    return FieldElement(lo + start, tuple(digits[start:end]))


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
        return ZERO
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
        return ZERO
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


def character_phase(field: Field, x: FieldElement) -> Fraction:
    """Exact rational phase r with chi(x) = exp(2*pi*i*r).

    Eisenstein: r = { tr(b**(-d) * x) } with tr(b**j) = e * p**(j/e) when
    e | j and 0 otherwise (tame power basis).  Laurent: r = tr(x_{-1}) / p
    with the residue-field Frobenius trace.
    """
    if x.is_zero:
        return Fraction(0)
    if field.is_laurent:
        return beta_monomial_phase(field, -1, x.digit_at(-1))
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
    return _padic_fractional(total, p)


def abs_value(field: Field, x: FieldElement) -> float:
    """Canonical absolute value q**(-valuation); 0 for the zero element."""
    return 0.0 if x.is_zero else float(field.q) ** (-x.lo)


# ---------------------------------------------------------------------------
# Eigenvector classification and shell adaptation
# ---------------------------------------------------------------------------


class NotAnEigenspace(UltraspecError):
    """Vectors handed to the shell adaptor do not span a common eigenspace."""


@dataclass(frozen=True)
class Mixed:
    """Neither radial nor single-shell; carries the squared-norm profile."""

    profile: dict

    kind = "mixed"

    def label(self) -> str:
        return "mixed"


def classify_eigenvector(
    grid: Grid,
    v: np.ndarray,
    radial_tol: float = DEFAULT_RADIAL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
):
    """Classify a normalized eigenvector by its shell support.

    Shell(k) when at least 1 - shell_tol of the squared norm sits on one
    shell; otherwise Radial when the values deviate from their shell means
    by at most radial_tol on every shell; otherwise Mixed.
    """
    v = np.asarray(v)
    runs = {k: grid.shell_run(k) for k in grid.shell_labels()}
    norms = {k: float((np.abs(v[run.start : run.stop]) ** 2).sum()) for k, run in runs.items()}
    total = sum(norms.values())
    profile = {k: val / total for k, val in norms.items()}
    top = max(profile, key=profile.get)
    if profile[top] >= 1.0 - shell_tol:
        return Shell(k=top, leakage=1.0 - profile[top], profile=profile)
    max_dev = 0.0
    for run in runs.values():
        vals = v[run.start : run.stop]
        max_dev = max(max_dev, float(np.abs(vals - vals.mean()).max()))
    if max_dev <= radial_tol:
        return Radial(profile=profile)
    return Mixed(profile=profile)


def shell_adapt(
    grid: Grid,
    vectors: np.ndarray,
    model: Optional[HamiltonianModel] = None,
    split_tol: float = 1e-7,
) -> np.ndarray:
    """Rotate an eigenspace basis onto shell-concentrated vectors.

    Within the span, each shell-indicator projector restricts to a Hermitian
    matrix; the family is jointly block-diagonalized by sequential
    refinement, so every output vector is concentrated on as few shells as
    the eigenspace allows.  When ``model`` is given, the columns are first
    checked to span a common eigenspace, with H applied through
    ``model.apply``: an eigen-residual above EIGENSPACE_TOL * max(1, |lambda|),
    or a NaN one, raises NotAnEigenspace.
    """
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[:, None]
    m = v.shape[1]
    if model is not None:
        hv = model.apply(v)
        rayleigh = np.real(np.einsum("ij,ij->j", v.conj(), hv))
        lam = float(rayleigh.mean())
        with np.errstate(over="ignore"):  # a norm past the float range is inf and fails
            residual = float(np.linalg.norm(hv - lam * v, axis=0).max())
        if not residual <= EIGENSPACE_TOL * max(1.0, abs(lam)):  # a NaN residual fails too
            raise NotAnEigenspace(
                f"eigen-residual {residual:.3e} at lambda = {lam:.6g} exceeds tolerance"
            )
    if m == 1:
        return _fix_phases(v)
    basis = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=True)
    runs = [grid.shell_run(k) for k in grid.shell_labels()]
    return _fix_phases(_refine_on_runs(basis, runs, split_tol))


def assert_matches_numeric(got, expected, shell):
    """A family's classification against the numeric one of its column.

    Exact for a family with a ``shell``; for a radial one the kind and the
    shell label are exact and the profile, m_k u_k**2 against the sum over
    the lifted shell run, agrees within 1e-14.
    """
    if shell is not None:
        assert got == expected
        return
    assert got.kind == expected.kind
    assert getattr(got, "k", None) == getattr(expected, "k", None)  # the shell, if any
    assert got.profile.keys() == expected.profile.keys()
    assert all(abs(got.profile[k] - expected.profile[k]) <= 1e-14 for k in got.profile)


def numeric_classifications(report, radial_tol=DEFAULT_RADIAL_TOL) -> list:
    """One classification per sorted column of ``report``, the families lifted to N rows.

    A family with a shell gives Shell(k) with the exact profile; the columns
    of a family with no shell (a radial or a dense one) go through
    ``classify_eigenvector`` with ``radial_tol`` and the report's ``shell_tol``.
    """
    grid = report.grid
    labels, tols = grid.shell_labels(), (radial_tol, report.shell_tol)
    out = [None] * grid.size
    for f in report.families:
        if f.shell is None:
            lift = np.repeat(f.template, f.repeats, axis=0)
            classes = [classify_eigenvector(grid, v, *tols) for v in lift.T]
        else:
            profile = {k: 1.0 if k == f.shell else 0.0 for k in labels}
            classes = [Shell(k=f.shell, leakage=0.0, profile=profile)] * f.multiplicity
        out[f.start : f.start + f.multiplicity] = classes
    return out


def numeric_summary_rows(report, radial_tol=DEFAULT_RADIAL_TOL) -> list:
    """``report.summary_rows()`` read off ``numeric_classifications``.

    A cluster is radial when all its columns are, shell when none is, and
    mixed otherwise.
    """
    classes = numeric_classifications(report, radial_tol)
    rows = []
    for c in report.clusters:
        kinds = {classes[i].kind for i in c.indices}
        kind = "radial" if kinds == {"radial"} else "shell" if "radial" not in kinds else "mixed"
        rows.append((c.mean, c.multiplicity, kind))
    return rows


def sorted_eigenvalues(report) -> np.ndarray:
    """The N sorted eigenvalues of ``report``: each family's value repeated over its columns."""
    return np.repeat([f.value for f in report.families], [f.multiplicity for f in report.families])


def classification(report, i: int):
    """Sorted column i's classification, the one its family's vectors share."""
    i = range(report.grid.size)[i]  # an IndexError past the columns, as in a list
    starts = [f.start for f in report.families]
    return report.family_classifications[bisect.bisect_right(starts, i) - 1]


# ---------------------------------------------------------------------------
# Table rows, point by point
# ---------------------------------------------------------------------------


def point_shells(grid: Grid) -> np.ndarray:
    """The shell label of every point, in index order: each label repeated over its run."""
    return grid.spread_shells(grid.shell_labels())


def point_labels(grid: Grid) -> list:
    """(digits, shell) label texts of each point: its digit row's nonzero ``exponent:digit``."""
    n = grid.n
    return [
        (",".join(f"{pos - n}:{d}" for pos, d in enumerate(row) if d), _format_shell(shell))
        for row, shell in zip(grid.digits.tolist(), point_shells(grid).tolist())
    ]


def grid_rows(grid: Grid):
    """``output.grid_rows``, one row per point: index, labels, |x| and the point mass."""
    q = float(grid.field.q)
    values = grid.spread_shells([q**k if k != ZERO_SHELL else 0.0 for k in grid.shell_labels()])
    for i, ((digits, shell), value) in enumerate(zip(point_labels(grid), values.tolist())):
        yield [i, digits, shell, value, grid.mass]


def eigenvector_rows(grid: Grid, vector):
    """``output.eigenvector_rows``, one row per point: index, labels, and complex() of its cell."""
    return (
        [i, digits, shell, value.real, value.imag]
        for i, ((digits, shell), value) in enumerate(zip(point_labels(grid), map(complex, vector)))
    )
