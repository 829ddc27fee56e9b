"""Acceptance gate.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (run with
``pytest -s`` to see them live).  Tolerances are fixed here, not configurable.
"""

import csv
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ultraspec import (
    EisensteinExtension,
    LaurentField,
    MonomialPotential,
    ZERO_SHELL,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    character_phase,
    convergence_report,
    eigensolve,
    elem_add,
    fourier_matrix,
    make_field,
    position_diagonal,
    project_cutoff,
    project_smooth,
)
from oracles import classification

GOLDEN = Path(__file__).parent / "golden"

VALUE_TOL = 5e-4  # reference eigenvalues are quoted to 4 decimals
EXACT_CLUSTER_TOL = 1e-4  # 40 + 5/9 identification
GROUND_STATE_TOL = 1e-6
LEAKAGE_TOL = 1e-10
LINEAR_TOL = 1e-12
FREE_MODEL_TOL = 1e-10
DRIFT_TOL = 1e-6
GROUND_STATE_BOUND = 9 / 13


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.1f}s)")


def load_golden_clusters():
    with open(GOLDEN / "reference_clusters.csv") as handle:
        return [
            (float(row["value"]), int(row["multiplicity"]), row["kind"])
            for row in csv.DictReader(handle)
        ]


def load_golden_ground_state():
    out = {}
    with open(GOLDEN / "ground_state_shells.csv") as handle:
        for row in csv.DictReader(handle):
            shell = ZERO_SHELL if row["shell"] == "-inf" else float(row["shell"])
            out[shell] = float(row["value"])
    return out


@pytest.fixture(scope="module")
def field():
    return make_field(EisensteinExtension(p=3, e=2))


@pytest.fixture(scope="module")
def reports(field):
    """Canonical n=2 spectra under every zero-cell convention."""
    grid = build_grid(field, 2)
    potential = MonomialPotential(c=0.5, s=2.0)
    out = {}
    for convention in ZeroCellConvention:
        model = assemble_hamiltonian(grid, 2.0, 0.5, potential, convention)
        out[convention] = eigensolve(model)
    return out


def matches_reference_clusters(report):
    for value, multiplicity, _kind in load_golden_clusters():
        hits = [
            c
            for c in report.clusters
            if abs(c.mean - value) <= VALUE_TOL and c.multiplicity == multiplicity
        ]
        if len(hits) != 1:
            return False, f"cluster {value} (x{multiplicity}) not reproduced"
    return True, ""


def test_reference_spectrum_reproduction(reports):
    with criterion("reference spectrum"):
        outcomes = {}
        for convention in (
            ZeroCellConvention.AVERAGE_OF_POWER,
            ZeroCellConvention.POWER_OF_AVERAGE,
        ):
            outcomes[convention] = matches_reference_clusters(reports[convention])
        assert any(ok for ok, _ in outcomes.values()), outcomes
        matching = next(c for c, (ok, _) in outcomes.items() if ok)
        report = reports[matching]
        exact = [c for c in report.clusters if abs(c.mean - (40 + 5 / 9)) <= EXACT_CLUSTER_TOL]
        assert len(exact) == 1 and exact[0].multiplicity == 2


def test_reference_eigenfunctions(reports, field):
    with criterion("reference eigenfunctions"):
        # The reference eigenfunction dump is reproduced by the sampled
        # zero-cell variant; shell checks are convention-insensitive and
        # run on the default model.
        sampled = reports[ZeroCellConvention.SAMPLE_AT_ZERO]
        grid = sampled.grid
        ground = sampled.eigenvectors[:, 0]
        cls = classification(sampled, 0)
        assert cls.kind == "radial"
        assert ground.real.min() > 0
        for shell, expected in load_golden_ground_state().items():
            values = ground[grid.shells == shell]
            assert np.abs(values - expected).max() <= GROUND_STATE_TOL

        default = reports[ZeroCellConvention.AVERAGE_OF_POWER]
        assert classification(default, 0).kind == "radial"
        assert default.eigenvectors[:, 0].real.min() > 0

        nine = next(c for c in default.clusters if abs(c.mean - 9.0) < 1e-3)
        assert nine.multiplicity == 4
        for i in nine.indices:
            c = classification(default, i)
            assert c.kind == "shell" and c.k == 1.0 and c.leakage <= LEAKAGE_TOL

        five = next(c for c in default.clusters if abs(c.mean - 5.0) < 1e-3)
        assert five.multiplicity == 2
        for i in five.indices:
            profile = classification(default, i).profile
            outside = sum(v for k, v in profile.items() if k not in (1.0, 0.0))
            assert outside <= LEAKAGE_TOL


def test_structural_identity_suite():
    with criterion("structural identities"):
        rng = np.random.default_rng(321)
        pyrng = random.Random(321)
        for spec in (EisensteinExtension(p=3, e=2), LaurentField(p=3, f=1)):
            field = make_field(spec)
            for m in (1, 2, 3):
                grid = build_grid(field, m)
                fmat = fourier_matrix(grid)
                eye = np.eye(grid.size)
                assert np.abs(fmat.conj().T @ fmat - eye).max() <= LINEAR_TOL
                f2 = fmat @ fmat
                assert np.abs(f2 @ f2 - eye).max() <= LINEAR_TOL
                for k in range(-m + 1, m):
                    for _ in range(50):
                        f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
                        lhs = fmat @ project_cutoff(grid, k, f)
                        rhs = project_smooth(grid, k, fmat @ f)
                        assert np.abs(lhs - rhs).max() <= LINEAR_TOL
                        if k >= 0:  # commutation needs the cutoff ball to
                            # contain the averaging ball
                            cs = project_cutoff(grid, k, project_smooth(grid, k, f))
                            sc = project_smooth(grid, k, project_cutoff(grid, k, f))
                            assert np.abs(cs - sc).max() <= LINEAR_TOL
            grid = build_grid(field, 3)
            for _ in range(200):
                x = grid.point(pyrng.randrange(grid.size))
                y = grid.point(pyrng.randrange(grid.size))
                lhs = character_phase(field, elem_add(field, x, y)).r
                rhs = (character_phase(field, x).r + character_phase(field, y).r) % 1
                assert lhs == rhs
            assert all(
                character_phase(field, grid.point(i)).r == 0
                for i in range(grid.size)
                if grid.shells[i] <= 0
            )
            assert any(
                grid.shells[i] == 1 and character_phase(field, grid.point(i)).r != 0
                for i in range(grid.size)
            )


def test_free_model_oracle(field):
    with criterion("free-model oracle"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            zero_potential = MonomialPotential(c=0.0, s=2.0)
        for n in (1, 2, 3):
            grid = build_grid(field, n)
            for alpha in (0.5, 1.0, 2.0):
                model = assemble_hamiltonian(grid, alpha, 1.0, zero_potential)
                report = eigensolve(model)
                expected = np.sort(position_diagonal(grid, alpha))
                assert np.abs(report.eigenvalues - expected).max() <= FREE_MODEL_TOL


def test_convergence_levels(field):
    with criterion("convergence levels {2,3}"):
        trace = convergence_report(
            field,
            2.0,
            0.5,
            MonomialPotential(c=0.5, s=2.0),
            [2, 3],
            ground_state_bound=GROUND_STATE_BOUND,
        )
        for target in (5.0, 9.0):
            traj = next(
                t
                for t in trace.trajectories
                if t.start_level == 2 and abs(t.steps[0].value - target) <= VALUE_TOL
            )
            assert len(traj.steps) == 2, f"cluster {target} not matched at level 3"
            assert traj.steps[1].drift <= DRIFT_TOL
            assert traj.steps[1].multiplicity >= traj.steps[0].multiplicity
        # soft check: bound violations warn but do not fail the criterion
        for message in trace.warnings:
            print(f"  warning: {message}")
