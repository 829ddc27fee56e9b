"""Structural identity suite for fields and finite models, and the exact-phase Fourier calculus.

Each check measures a defect against a fixed threshold; the suite never
raises on failure (failures are outcomes).  Exact-arithmetic checks report a
defect of 0.0 or the number of violations.  Every check takes one path at
every grid size: unitarity is read off the Fourier transform's digit steps,
the other Fourier and projection identities are tested on blocks of random
probes, and each exact field check is one integer array computation over
digit rows of the grid (the batch kernels of ``fields``): 900 rows sampled
in one draw for the sums, products and negations, and the whole unit ball
and shell 1 for the rank-zero character.  No exact element is built.

The Fourier kernel q**(-n) * chi(-x*y) is evaluated through exact integer
phase numerators: the additive character makes the phase of x*y bilinear
over F_p in the digit coordinates, so D * phase(x_i * x_j) mod D is a plain
integer matrix product, and kernel entries are table lookups of exact roots
of unity.  Each entry of the bilinear form is one ``beta_monomial_phase``
of ``fields``, the phase of a monomial z**u * b**m.  The phase form pairs a
digit of y only with the x digits of higher significance (the character has
rank zero), so the transform factors into one step per digit, Cooley-Tukey
style, and is unitary when every q x q root table of every step is √q times
a unitary matrix (``fourier_unitarity_defect``).  The dense kernel is
materialized only as a test oracle, up to ``FOURIER_DENSE_CAP`` rows.  No
solve builds a phase table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .fields import (
    _digit_coords,
    add_rows,
    beta_monomial_phase,
    mul_rows,
    neg_rows,
    phase_rows,
    valuation_rows,
)
from .finite import ZERO_SHELL, Grid, assemble_hamiltonian, build_grid

__all__ = [
    "FOURIER_DENSE_CAP",
    "CheckResult",
    "VerifyOutcome",
    "fourier_matrix",
    "fourier_apply",
    "fourier_unitarity_defect",
    "neg_indices",
    "project_cutoff",
    "project_smooth",
    "run_verify",
]

FOURIER_DENSE_CAP = 4096
LINEAR_TOL = 1e-12
RANDOM_SEED = 20240901


# ---------------------------------------------------------------------------
# Exact kernel phases
# ---------------------------------------------------------------------------


class _PhaseTable:
    """Integer data for D * phase(x_i * x_j) mod D = (C W C^T)_ij mod D, by digit step.

    C holds the F_p coordinates of the digit rows (``_digit_coords``), f per
    digit: coordinate pos * f + s is the z**s coefficient of digit pos.  So
    W pairs digit positions at the exponent m = (pos - n) + (pos' - n) and
    coordinates at z**(s + s'), and its entry is D times the phase of
    z**(s + s') * b**m, each (m, s + s') computed once; D is the largest of
    these denominators, which are all p-powers.  Only ``numerators``, the
    dense test oracle, builds C for every point.
    """

    def __init__(self, grid: Grid):
        field, q, f = grid.field, grid.field.q, grid.field.f
        rf, width = field.residue, 2 * grid.n
        # the residue codes of z**u, u < 2f - 1 (p encodes z); just 1 when f = 1
        codes = [1] if rf is None else [rf.pow(field.p, u) for u in range(2 * f - 1)]
        phases = [
            [beta_monomial_phase(field, m, c) for c in codes] for m in range(-width, width - 1)
        ]
        self.denominator = denom = max(r.denominator for row in phases for r in row)
        nums = [[r.numerator * (denom // r.denominator) for r in row] for row in phases]
        pos, power = np.divmod(np.arange(width * f), f)
        self.bilinear = np.array(nums, dtype=np.int64)[pos[:, None] + pos, power[:, None] + power]
        self.roots = np.exp(2j * np.pi * np.arange(denom) / denom)

        # W[i, j] != 0 only when (i - n) + (j - n) <= -1: y digit j pairs with
        # x digits 0, ..., 2n - 1 - j.  Step t contracts y digit j = 2n - 1 - t
        # once x digits 0, ..., t are known; its numerators are indexed
        # [x digits 0..t-1, x digit t, y digit j].
        digit_coords = _digit_coords(field, np.arange(q)[:, None])  # digit values 0, ..., q-1
        self.steps = []
        for t in range(width):
            j = width - 1 - t
            # the points with digits > t zero
            prefixes = _digit_coords(field, grid.digits[:: q**j, : t + 1])
            block = self.bilinear[: (t + 1) * f, j * f : (j + 1) * f]
            num = (prefixes @ block @ digit_coords.T) % denom
            self.steps.append(num.reshape(q**t, q, q))

    def numerators(self, grid: Grid) -> np.ndarray:
        # float64 so the contraction runs through BLAS; every intermediate is
        # a small integer, far below 2**53, hence exact
        coords = _digit_coords(grid.field, grid.digits).astype(np.float64)
        prod = (coords @ self.bilinear.astype(np.float64)) @ coords.T
        return np.rint(prod).astype(np.int64) % self.denominator


# the phase table of each grid, built on first use; a pure function of the
# grid, held only while the grid lives
_PHASE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _phase_table(grid: Grid) -> _PhaseTable:
    table = _PHASE_TABLES.get(grid)
    if table is None:
        table = _PHASE_TABLES[grid] = _PhaseTable(grid)
    return table


# ---------------------------------------------------------------------------
# Fourier transform and projections on the grid
# ---------------------------------------------------------------------------


def fourier_matrix(grid: Grid) -> np.ndarray:
    """Dense kernel q**(-n) * chi(-x*y), uncached and capped: the test oracle of the step form."""
    if grid.size > FOURIER_DENSE_CAP:
        raise ValueError(
            f"dense Fourier kernel capped at {FOURIER_DENSE_CAP} rows; "
            f"grid has {grid.size} (use fourier_apply)"
        )
    table = _phase_table(grid)
    p = table.numerators(grid)
    p = (table.denominator - p) % table.denominator
    return table.roots[p] * float(grid.field.q) ** (-grid.n)


def _step_phases(grid: Grid, inverse: bool = False):
    """The (q**t, q, q) root tables of the 2n digit steps, t = 0, ..., 2n - 1."""
    table = _phase_table(grid)
    sign = 1 if inverse else -1
    for num in table.steps:
        yield table.roots[(sign * num) % table.denominator]


def fourier_apply(grid: Grid, f, inverse: bool = False) -> np.ndarray:
    """The finite Fourier transform (or its inverse) of an (N,) or (N, k) array.

    Runs as 2n digit steps: step t contracts y digit 2n - 1 - t against x
    digits 0, ..., t with one batched matmul by a (q**t, q, q) table of exact
    roots of unity.  O(N * 2n * q) per column; the shape is kept.
    """
    v = np.asarray(f)
    q, width = grid.field.q, 2 * grid.n
    # y digits least significant first, so each step contracts the leading y axis
    digits = v.reshape((q,) * width + (-1,)).transpose(tuple(range(width - 1, -1, -1)) + (width,))
    work = np.ascontiguousarray(digits, dtype=np.complex128)
    for t, phases in enumerate(_step_phases(grid, inverse)):
        work = np.matmul(phases, work.reshape(q**t, q, -1))
    return (work * float(q) ** (-grid.n)).reshape(v.shape)


def fourier_unitarity_defect(grid: Grid) -> float:
    """max |B* B / q - 1| over the q x q root tables B of fourier_apply's steps.

    The transform is q**(-n) times the product of its 2n steps, each a
    block-diagonal batch of these tables, so it is unitary when every table
    is √q times a unitary matrix: the rank-zero pairing is nondegenerate
    digit by digit.  O(N * q**2) in all, at every grid size.
    """
    q = grid.field.q
    defect = 0.0
    for phases in _step_phases(grid):
        gram = np.matmul(phases.conj().transpose(0, 2, 1), phases) / q
        defect = max(defect, float(np.abs(gram - np.eye(q)).max()))
    return defect


def neg_indices(grid: Grid) -> np.ndarray:
    """Index of -x modulo b**n for every grid point x, from the digit array (``fields.neg_rows``)."""
    field, n = grid.field, grid.n
    neg = neg_rows(field, grid.digits, -n, n)
    return neg @ field.q ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)


def project_cutoff(grid: Grid, k: int, f) -> np.ndarray:
    """Finite-level cutoff of an (N,) or (N, m) array: zero the rows with |x| > q**k."""
    v = np.asarray(f)
    out = np.zeros_like(v)
    end = grid.ball_size(k)  # the shells <= k are a prefix of the grid
    out[:end] = v[:end]
    return out


def project_smooth(grid: Grid, k: int, f) -> np.ndarray:
    """Finite-level smoothing of an (N,) or (N, m) array: average over x + B_{-k} (k < n).

    Points sharing the digits at exponents below k form contiguous
    lexicographic blocks of q**(n-k) points, so this is a blockwise mean of
    the rows; the shape is kept.
    """
    n = grid.n
    if not -n <= k < n:
        raise ValueError(f"smoothing level k = {k} must satisfy -n <= k < n (n = {n})")
    v = np.asarray(f)
    block = grid.field.q ** (n - k)
    means = v.reshape((grid.size // block, block) + v.shape[1:]).mean(axis=1)
    return np.repeat(means, block, axis=0)


# ---------------------------------------------------------------------------
# The identity suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    defect: float
    threshold: float


@dataclass
class VerifyOutcome:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self):
        return [
            [c.name, "pass" if c.passed else "FAIL", c.defect, c.threshold] for c in self.checks
        ]


def run_verify(config: RunConfig) -> VerifyOutcome:
    """Run the field/finite-model property suite at the configured level."""
    field = config.field
    n = config.require_level()
    grid = build_grid(field, n, cap=config.grid_cap)
    rng = np.random.default_rng(RANDOM_SEED)
    checks = []

    def record(name, defect, threshold=LINEAR_TOL):
        defect = float(defect)
        checks.append(
            CheckResult(name=name, passed=defect <= threshold, defect=defect, threshold=threshold)
        )

    # --- grid structure -----------------------------------------------------
    # the shell runs against the enumeration: they tile [0, N), the zero
    # cell's rows are all zero and shell k's have their first nonzero digit
    # at position n - k; the defect counts the gaps, overlaps and wrong rows
    labels = grid.shell_labels()
    runs = [grid.shell_run(k) for k in labels]
    ends = [0] + [run.stop for run in runs]
    partition_defect = sum(run.start != end for run, end in zip(runs, ends))
    partition_defect += ends[-1] != grid.size
    for k, run in zip(labels, runs):
        rows = grid.digits[run.start : run.stop]
        if k == ZERO_SHELL:
            wrong = rows.any(axis=1)
        else:
            lead = n - int(k)
            wrong = rows[:, :lead].any(axis=1) | (rows[:, lead] == 0)
        partition_defect += int(wrong.sum())
    record("shell_partition", partition_defect, 0.0)

    # --- Fourier transform ----------------------------------------------------
    record("fourier_unitary", fourier_unitarity_defect(grid))

    # ten random complex functions, as the columns of one (N, 10) block
    probes = np.column_stack(
        [rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size) for _ in range(10)]
    )
    once = fourier_apply(grid, probes)
    twice = fourier_apply(grid, once)
    record(
        "fourier_inverse_roundtrip",
        np.abs(fourier_apply(grid, once, inverse=True) - probes).max(),
    )
    record(
        "fourier_fourth_power",
        np.abs(fourier_apply(grid, fourier_apply(grid, twice)) - probes).max(),
    )
    record("fourier_reflection", np.abs(twice - probes[neg_indices(grid)]).max())
    ball = np.zeros(grid.size, dtype=complex)
    ball[: grid.ball_size(0)] = 1.0
    record("unit_ball_fixed_point", np.abs(fourier_apply(grid, ball) - ball).max())
    ones = np.ones(grid.size)
    mass_defect = np.abs(
        grid.mass * (ones @ np.abs(once) ** 2) - grid.mass * (ones @ np.abs(probes) ** 2)
    ).max()
    record("plancherel_mass_norm", mass_defect, LINEAR_TOL * grid.size)

    # --- projections ----------------------------------------------------------
    inter_defect = 0.0
    commute_defect = 0.0
    idem_defect = 0.0
    f, f_hat = probes[:, :5], once[:, :5]
    for k in range(-n + 1, n):
        cf = project_cutoff(grid, k, f)
        sf = project_smooth(grid, k, f)
        lhs = fourier_apply(grid, cf)
        rhs = project_smooth(grid, k, f_hat)
        inter_defect = max(inter_defect, float(np.abs(lhs - rhs).max()))
        idem_defect = max(idem_defect, float(np.abs(project_cutoff(grid, k, cf) - cf).max()))
        idem_defect = max(idem_defect, float(np.abs(project_smooth(grid, k, sf) - sf).max()))
        if k >= 0:
            # commutation needs the cutoff ball to contain the averaging
            # ball, i.e. k >= 0; for k < 0 the identity genuinely fails
            cs = project_cutoff(grid, k, sf)
            sc = project_smooth(grid, k, cf)
            commute_defect = max(commute_defect, float(np.abs(cs - sc).max()))
    record("intertwine_cutoff_smooth", inter_defect)
    record("cutoff_smooth_commute", commute_defect)
    record("projection_idempotent", idem_defect)

    # --- characters (exact) -----------------------------------------------------
    # each check is one exact array computation over sampled digit rows of
    # the grid (exponents -n, ..., n - 1); the samples are drawn after the
    # probes, so every float check reads the same random numbers
    lo = -n
    samples = grid.digits[rng.integers(grid.size, size=900)]
    add_x, add_y, ultra_x, ultra_y, neg_x = np.split(samples, [200, 400, 600, 800])

    # phase(x + y) = phase(x) + phase(y) mod 1, over one p-power denominator
    phases = [phase_rows(field, z, lo) for z in (add_rows(field, add_x, add_y), add_x, add_y)]
    den = max(d for _, d in phases)  # a multiple of each
    s, a, b = (num * (den // d) for num, d in phases)
    record("character_additivity", np.count_nonzero((s - a - b) % den), 0.0)

    # the points with |x| <= 1, and shell 1 after them
    ball, _ = phase_rows(field, grid.digits[: grid.ball_size(0)], lo)
    shell = grid.shell_run(1)
    witness, _ = phase_rows(field, grid.digits[shell.start : shell.stop], lo)
    record("character_rank_zero", np.count_nonzero(ball) + (0 if witness.any() else 1), 0.0)

    vx, vy = valuation_rows(ultra_x, lo), valuation_rows(ultra_y, lo)
    vs = valuation_rows(add_rows(field, ultra_x, ultra_y), lo)
    low = np.minimum(vx, vy)
    # |x+y| <= max(|x|,|y|), with equality when |x| != |y|
    ultra_failures = np.count_nonzero(vs < low) + np.count_nonzero((vx != vy) & (vs != low))
    record("ultrametric_inequality", ultra_failures, 0.0)
    nonzero = ultra_x.any(axis=1) & ultra_y.any(axis=1)
    vp = valuation_rows(mul_rows(field, ultra_x, ultra_y), 2 * lo)
    record("valuation_multiplicative", np.count_nonzero(nonzero & (vp != vx + vy)), 0.0)

    # x + (-x mod b**n) is zero at every exponent of the grid
    total = add_rows(field, neg_x, neg_rows(field, neg_x, lo, n))
    record("negation_round_trip", np.count_nonzero(total[:, : 2 * n].any(axis=1)), 0.0)

    # --- Hamiltonian ---------------------------------------------------------
    # the closed-form kernel against the exact-phase Fourier operator
    model = assemble_hamiltonian(
        grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
    )
    kin = grid.spread_shells(model.kinetic_shells)[:, None]
    pot = grid.spread_shells(model.potential_shells)[:, None]
    kinetic = model.kinetic_coeff * fourier_apply(grid, kin * once, inverse=True)
    operator_defect = np.abs(kinetic + pot * probes - model.apply(probes)).max()
    record("hamiltonian_hermiticity", operator_defect / max(1.0, model.max_abs()))
    # every shell is nonempty, so the smallest shell value is the smallest diagonal entry
    record("potential_diagonal_nonnegative", max(0.0, -float(model.potential_shells.min())), 0.0)
    return VerifyOutcome(checks=checks)
