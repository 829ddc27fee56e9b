"""Structural identity suite for fields and finite models.

Each check measures a defect against a fixed threshold; the suite never
raises on failure (failures are outcomes).  Exact-arithmetic checks report a
defect of 0.0 or the number of violations.  Every check takes one path at
every grid size: unitarity is read off the Fourier transform's digit steps,
the other Fourier and projection identities are tested on blocks of random
probes, and exact field elements are built only for the points a check reads.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .fields import character_phase, elem_add, elem_mul, elem_neg, valuation
from .finite import (
    ZERO_SHELL,
    assemble_hamiltonian,
    build_grid,
    fourier_apply,
    fourier_unitarity_defect,
    project_cutoff,
    project_smooth,
)

__all__ = ["CheckResult", "VerifyOutcome", "run_verify"]

LINEAR_TOL = 1e-12
RANDOM_SEED = 20240901


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
    pyrng = random.Random(RANDOM_SEED)
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
    record("fourier_reflection", np.abs(twice - probes[grid.neg_indices()]).max())
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
    # exact elements only for the indices read, each built once: on small
    # grids the 500 samples repeat indices
    point = functools.cache(grid.point)
    additivity_failures = 0
    for _ in range(200):
        x = point(pyrng.randrange(grid.size))
        y = point(pyrng.randrange(grid.size))
        phases = [character_phase(field, z).r for z in (elem_add(field, x, y), x, y)]
        den = max(r.denominator for r in phases)  # p-powers all, so a multiple of each
        s, a, b = (r.numerator * (den // r.denominator) for r in phases)
        if (s - a - b) % den:  # phase(x + y) = phase(x) + phase(y) mod 1
            additivity_failures += 1
    record("character_additivity", additivity_failures, 0.0)

    # the points with |x| <= 1, and shell 1 after them
    rank_zero_failures = sum(
        1 for i in range(grid.ball_size(0)) if character_phase(field, point(i)).r != 0
    )
    witness = any(character_phase(field, point(i)).r != 0 for i in grid.shell_run(1))
    record("character_rank_zero", rank_zero_failures + (0 if witness else 1), 0.0)

    ultra_failures = 0
    mult_failures = 0
    for _ in range(200):
        x = point(pyrng.randrange(grid.size))
        y = point(pyrng.randrange(grid.size))
        vx, vy = valuation(field, x), valuation(field, y)
        vs = valuation(field, elem_add(field, x, y))
        if vs < min(vx, vy):  # |x+y| <= max(|x|,|y|)
            ultra_failures += 1
        if vx != vy and vs != min(vx, vy):  # equality when |x| != |y|
            ultra_failures += 1
        if not x.is_zero and not y.is_zero:
            if valuation(field, elem_mul(field, x, y)) != vx + vy:
                mult_failures += 1
    record("ultrametric_inequality", ultra_failures, 0.0)
    record("valuation_multiplicative", mult_failures, 0.0)

    neg_failures = 0
    for _ in range(100):
        i = pyrng.randrange(grid.size)
        x = point(i)
        minus = elem_neg(field, x, mod_exp=n)
        if grid.reduce_element(elem_add(field, x, minus)) != grid.zero_index:
            neg_failures += 1
    record("negation_round_trip", neg_failures, 0.0)

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
