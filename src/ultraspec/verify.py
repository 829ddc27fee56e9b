"""Structural identity suite for fields and finite models.

Each check measures a defect against a fixed threshold; the suite never
raises on failure (failures are outcomes).  Exact-arithmetic checks report a
defect of 0.0 or the number of violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .fields import character_phase, elem_add, elem_mul, elem_neg, valuation
from .finite import (
    FOURIER_DENSE_CAP,
    ZERO_SHELL,
    assemble_hamiltonian,
    build_grid,
    fourier_apply,
    fourier_matrix,
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


def _random_functions(rng, size, count):
    """count random complex grid functions, as the columns of a (size, count) block."""
    return np.column_stack(
        [rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(count)]
    )


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
    sizes = dict(grid.shell_sizes)
    zero_cells = sizes.pop(ZERO_SHELL, 0)
    partition_defect = abs(sum(sizes.values()) + 1 - grid.size) + abs(zero_cells - 1)
    q = field.q
    for k, count in sizes.items():
        expected = q ** (n + int(k)) - q ** (n + int(k) - 1)
        partition_defect += abs(count - expected)
    record("shell_partition", partition_defect, 0.0)

    # --- Fourier transform ----------------------------------------------------
    if grid.size <= FOURIER_DENSE_CAP:
        fmat = fourier_matrix(grid)
        record("fourier_unitary", np.abs(fmat.conj().T @ fmat - np.eye(grid.size)).max())
    else:
        # relative, since |f| grows like sqrt(2N)
        block = _random_functions(rng, grid.size, 20)
        norms = np.linalg.norm(block, axis=0)
        after = np.linalg.norm(fourier_apply(grid, block), axis=0)
        record("fourier_unitary", (np.abs(after - norms) / norms).max())

    probes = _random_functions(rng, grid.size, 10)
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
    ball = (grid.shells <= 0).astype(complex)
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
    for k in range(-n + 1, n):
        for f, f_hat in zip(probes.T[:5], once.T[:5]):
            lhs = fourier_apply(grid, project_cutoff(grid, k, f))
            rhs = project_smooth(grid, k, f_hat)
            inter_defect = max(inter_defect, float(np.abs(lhs - rhs).max()))
            cf = project_cutoff(grid, k, f)
            sf = project_smooth(grid, k, f)
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
    additivity_failures = 0
    for _ in range(200):
        x = grid.points[pyrng.randrange(grid.size)]
        y = grid.points[pyrng.randrange(grid.size)]
        lhs = character_phase(field, elem_add(field, x, y)).r
        rhs = (character_phase(field, x).r + character_phase(field, y).r) % 1
        if lhs != rhs:
            additivity_failures += 1
    record("character_additivity", additivity_failures, 0.0)

    rank_zero_failures = sum(
        1
        for i in range(grid.size)
        if grid.shells[i] <= 0 and character_phase(field, grid.points[i]).r != 0
    )
    witness = any(
        grid.shells[i] == 1 and character_phase(field, grid.points[i]).r != 0
        for i in range(grid.size)
    )
    record("character_rank_zero", rank_zero_failures + (0 if witness else 1), 0.0)

    ultra_failures = 0
    mult_failures = 0
    for _ in range(200):
        x = grid.points[pyrng.randrange(grid.size)]
        y = grid.points[pyrng.randrange(grid.size)]
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
        x = grid.points[i]
        minus = elem_neg(field, x, mod_exp=n)
        if grid.reduce_element(elem_add(field, x, minus)) != grid.zero_index:
            neg_failures += 1
    record("negation_round_trip", neg_failures, 0.0)

    # --- Hamiltonian ---------------------------------------------------------
    # the suite records a finite kernel defect instead of raising it (NaN still raises)
    model = assemble_hamiltonian(
        grid,
        config.alpha,
        config.kinetic_coeff,
        config.potential,
        config.convention,
        hermiticity_tol=float("inf"),
    )
    kin, pot = model.kinetic_diagonal, model.potential_diagonal
    kinetic = model.kinetic_coeff * fourier_apply(grid, kin[:, None] * once, inverse=True)
    operator_defect = np.abs(kinetic + pot[:, None] * probes - model.apply(probes)).max()
    record("hamiltonian_hermiticity", operator_defect / max(1.0, model.max_abs()))
    record(
        "potential_diagonal_nonnegative",
        max(0.0, -float(model.potential_diagonal.min())),
        0.0,
    )
    return VerifyOutcome(checks=checks)
