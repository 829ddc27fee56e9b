import warnings

import numpy as np
import pytest

from ultraspec import (
    EisensteinExtension,
    LaurentField,
    MonomialPotential,
    NonConfiningPotentialWarning,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    eigensolve,
    fourier_matrix,
    make_field,
)
import ultraspec.finite as finite


@pytest.fixture(scope="session")
def fourier_operator():
    """Dense oracle a * F* diag(kin) F + diag(pot) from the public Fourier kernel."""

    def build(model):
        fmat = fourier_matrix(model.grid)
        kin = model.grid.spread_shells(model.kinetic_shells)
        h = model.kinetic_coeff * (fmat.conj().T @ (kin[:, None] * fmat))
        h[np.diag_indices_from(h)] += model.grid.spread_shells(model.potential_shells)
        return h

    return build


@pytest.fixture
def perturbed_kernel(request, monkeypatch):
    """Shift kappa_1 of the closed-form kinetic kernel by 1e-6, or by an indirect param."""
    closed_form = finite._tree_kernel
    shift = getattr(request, "param", 1e-6)

    def perturbed(grid, kin):
        kappa = closed_form(grid, kin)
        kappa[1] += shift
        return kappa

    monkeypatch.setattr(finite, "_tree_kernel", perturbed)


@pytest.fixture(scope="session")
def q3sqrt3():
    """The quadratic totally ramified extension of Q_3 used throughout."""
    return make_field(EisensteinExtension(p=3, e=2))


@pytest.fixture(scope="session")
def f3_laurent():
    return make_field(LaurentField(p=3, f=1))


@pytest.fixture(scope="session")
def grid_n1(q3sqrt3):
    return build_grid(q3sqrt3, 1)


@pytest.fixture(scope="session")
def grid_n2(q3sqrt3):
    return build_grid(q3sqrt3, 2)


@pytest.fixture(scope="session")
def ho_potential():
    return MonomialPotential(c=0.5, s=2.0)


@pytest.fixture(scope="session")
def zero_potential():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConfiningPotentialWarning)
        return MonomialPotential(c=0.0, s=2.0)


@pytest.fixture(scope="session")
def canonical_model(grid_n2, ho_potential):
    """H = (P**2 + Q**2) / 2 over Q_3[sqrt(3)] at level 2, averaged zero cell."""
    return assemble_hamiltonian(grid_n2, alpha=2.0, a=0.5, potential=ho_potential)


@pytest.fixture(scope="session")
def canonical_report(canonical_model):
    return eigensolve(canonical_model)


@pytest.fixture(scope="session")
def sampled_model(grid_n2, ho_potential):
    """Same model with the zero cell sampled at the representative point."""
    return assemble_hamiltonian(
        grid_n2,
        alpha=2.0,
        a=0.5,
        potential=ho_potential,
        convention=ZeroCellConvention.SAMPLE_AT_ZERO,
    )
