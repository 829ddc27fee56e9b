"""The tree solver against the dense Fourier oracle on every grid with N <= 729.

The oracle is the operator a * F* diag(kin) F + diag(pot) built from the
public Fourier kernel, diagonalized by dense ``eigh`` and then clustered
with the public spectral toolkit, and shell-adapted and classified column
by column with the test oracles.
"""

import numpy as np
import pytest

from ultraspec import (
    EisensteinExtension,
    LaurentField,
    MonomialPotential,
    SpectrumReport,
    TablePotential,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    cluster_eigenvalues,
    eigensolve,
    make_field,
)
from ultraspec.spectra import VectorFamily, _tree_eigensystem
from oracles import (
    assert_matches_numeric,
    classification,
    classify_eigenvector,
    numeric_summary_rows,
    shell_adapt,
)

GRIDS = [
    (EisensteinExtension(p=3, e=2), 2),
    (EisensteinExtension(p=3, e=2), 3),
    (EisensteinExtension(p=3, e=1), 3),
    (EisensteinExtension(p=2, e=1), 4),
    (EisensteinExtension(p=2, e=3), 3),
    (EisensteinExtension(p=5, e=1), 2),
    (LaurentField(p=3, f=1), 3),
    (LaurentField(p=2, f=2), 2),
    (LaurentField(p=2, f=1), 4),
]
TOL = 1e-10


def potentials(n):
    table = TablePotential(
        values={k: 0.4 * (k + n) ** 2 + 0.2 for k in range(-n + 1, n + 1)}, w0=0.1
    )
    return {"monomial": MonomialPotential(c=0.5, s=2.0), "table": table}


def dense_families(values, vectors):
    """A dense store: one depth-0 family per column, repeated once, with no shell."""
    return [
        VectorFamily(0, None, value, 1, 0, vectors[:, j : j + 1], np.zeros(1), 1, start=j)
        for j, value in enumerate(values)
    ]


def dense_report(model, h):
    """Dense eigh, then the public clustering and the oracle's shell adaptation.

    Its dense columns are no radial templates: ``numeric_summary_rows``
    classifies them column by column.
    """
    grid = model.grid
    values, vectors = np.linalg.eigh(h)
    clusters = cluster_eigenvalues(values, np.ones(values.size, dtype=int))
    for cluster in clusters:
        if cluster.multiplicity > 1:
            idx = cluster.indices
            vectors[:, idx] = shell_adapt(grid, vectors[:, idx], split_tol=1e-9)
    return SpectrumReport(
        families=dense_families(values, vectors),
        clusters=clusters,
        grid=grid,
    )


def grid_id(param):
    spec, n = param
    if isinstance(spec, LaurentField):
        return f"F{spec.p ** spec.f}t-n{n}"
    return f"Q{spec.p}e{spec.e}-n{n}"


@pytest.fixture(scope="module", params=GRIDS, ids=grid_id)
def grid(request):
    spec, n = request.param
    return build_grid(make_field(spec), n)


@pytest.mark.parametrize("convention", list(ZeroCellConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("potential_kind", ["monomial", "table"])
def test_tree_solver_matches_dense_oracle(grid, convention, potential_kind, fourier_operator):
    potential = potentials(grid.n)[potential_kind]
    model = assemble_hamiltonian(grid, 1.5, 0.75, potential, convention)
    h = fourier_operator(model)
    tree = eigensolve(model)
    oracle = dense_report(model, h)

    scale = max(1.0, float(np.abs(oracle.eigenvalues).max()))
    assert np.abs(tree.eigenvalues - oracle.eigenvalues).max() <= TOL * scale
    v = tree.eigenvectors
    residuals = np.linalg.norm(h @ v - v * tree.eigenvalues, axis=0)
    assert residuals.max() <= TOL * max(1.0, float(np.abs(h).max()))
    assert [row[1:] for row in tree.summary_rows()] == [
        row[1:] for row in numeric_summary_rows(oracle)
    ]


def lift(family):
    return np.repeat(family.template, family.repeats, axis=0)


@pytest.mark.parametrize("convention", list(ZeroCellConvention), ids=lambda c: c.value)
def test_radial_adaptation_matches_shell_adapt_oracle(grid, convention):
    # the harmonic oscillator's parameters give radial pairs within cluster_tol (40.52, 364.50)
    model = assemble_hamiltonian(grid, 2.0, 0.5, MonomialPotential(c=0.5, s=2.0), convention)
    report = eigensolve(model)
    unadapted = _tree_eigensystem(model)
    unadapted.sort(key=lambda f: f.start)  # the report holds its families in column order
    radial = [(f, g) for f, g in zip(report.families, unadapted) if f.shell is None]
    assert len(radial) == 2 * grid.n + 1
    for cluster in report.clusters:
        members = [(f, g) for f, g in radial if f.start in cluster.indices]
        if len(members) < 2:
            continue
        adapted = np.hstack([lift(f) for f, _ in members])
        oracle = shell_adapt(grid, np.hstack([lift(g) for _, g in members]), split_tol=1e-9)
        assert np.abs(adapted - oracle).max() <= 1e-14
        for (f, _), column in zip(members, oracle.T):
            expected = classify_eigenvector(grid, column)
            assert_matches_numeric(classification(report, f.start), expected, f.shell)
