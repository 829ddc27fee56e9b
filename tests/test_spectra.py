import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ultraspec import (
    EisensteinExtension,
    HamiltonianModel,
    LaurentField,
    MonomialPotential,
    SpectrumReport,
    TablePotential,
    ZERO_SHELL,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    cluster_eigenvalues,
    convergence_report,
    eigensolve,
    embed_function,
    fourier_apply,
    load_config,
    make_field,
    position_diagonal,
    project_cutoff,
    project_smooth,
)
from ultraspec.output import SPECTRUM_HEADER, spectrum_rows, write_table
import ultraspec.spectra as spectra
from oracles import (
    NotAnEigenspace,
    assert_matches_numeric,
    classification,
    classify_eigenvector,
    numeric_classifications,
    shell_adapt,
)
from test_tree import GRIDS, dense_families, grid_id, potentials

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the tree oracle's grids (N <= 729) and two of N = 2401
GATE_GRIDS = GRIDS + [(EisensteinExtension(p=7, e=1), 2), (LaurentField(p=7, f=1), 2)]

# Reference ground-state values for the level-2 run (shells -inf, 2, 1, 0, -1)
REFERENCE_GROUND_STATE = {
    ZERO_SHELL: 0.35818432,
    2.0: 5.5430722e-5,
    1.0: 1.2747433e-2,
    0.0: 0.31960943,
    -1.0: 0.35768544,
}


def cluster_near(report, value, atol=1e-3):
    hits = [c for c in report.clusters if abs(c.mean - value) < atol]
    assert len(hits) == 1, f"expected one cluster near {value}, found {len(hits)}"
    return hits[0]


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------


def test_diagonal_model_eigensolve(grid_n2):
    pot = MonomialPotential(c=1.0, s=1.0)
    model = assemble_hamiltonian(grid_n2, alpha=2.0, a=0.0, potential=pot)
    report = eigensolve(model)
    assert np.abs(report.eigenvalues - np.sort(position_diagonal(grid_n2, pot))).max() < 1e-12
    # eigenvectors are a permuted standard basis, phase-fixed to +1 pivots
    for j in range(model.size):
        col = np.abs(report.eigenvectors[:, j])
        assert col.max() == pytest.approx(1.0)
        assert np.sort(col)[-2] < 1e-12


def point_potentials(n):
    """A monomial, and a table with ties (|k| + 1 on shell k) whose w0 is shell 0's value."""
    table = TablePotential(values={k: abs(k) + 1.0 for k in range(1 - n, n + 1)}, w0=1.0)
    return {"monomial": MonomialPotential(c=1.0, s=1.0), "table": table}


@pytest.mark.parametrize("convention", list(ZeroCellConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("potential_kind", ["monomial", "table"])
@pytest.mark.parametrize("spec, n", GRIDS, ids=[grid_id(g) for g in GRIDS])
def test_diagonal_model_is_the_sorted_point_basis(spec, n, potential_kind, convention):
    grid = build_grid(make_field(spec), n)
    potential = point_potentials(n)[potential_kind]
    model = assemble_hamiltonian(grid, 2.0, 0.0, potential, convention)
    report = eigensolve(model)
    pot = grid.spread_shells(model.potential_shells)
    order = np.argsort(pot, kind="stable")
    assert report.eigenvalues.tobytes() == pot[order].tobytes()
    vectors = report.eigenvectors
    assert vectors.tobytes() == np.eye(grid.size)[:, order].tobytes()
    assert [f.residual for f in report.families] == [0.0] * len(report.families)
    assert [classification(report, i) for i in range(grid.size)] == [
        classify_eigenvector(grid, vectors[:, i]) for i in range(grid.size)
    ]
    if potential_kind == "table" and convention is ZeroCellConvention.SAMPLE_AT_ZERO:
        # the zero cell ties with shell 0 and joins its cluster
        assert report.clusters[0].multiplicity == 1 + grid.shell_sizes[0.0]


def test_diagonal_model_builds_no_dense_matrix(q3sqrt3):
    grid = build_grid(q3sqrt3, 4)  # N = 6561: one dense matrix is 344 MB
    model = assemble_hamiltonian(grid, 2.0, 0.0, MonomialPotential(c=1.0, s=1.0))
    tracemalloc.start()
    try:
        report = eigensolve(model)
        rows = report.summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * grid.size**2
    assert "eigenvectors" not in vars(report)
    assert sum(mult for _, mult, _ in rows) == grid.size


def test_empty_blocks_keep_their_shape(grid_n1, grid_n2, canonical_model):
    empty = np.zeros((grid_n2.size, 0))
    outputs = {
        "apply": canonical_model.apply(empty),
        "project_smooth": project_smooth(grid_n2, 0, empty),
        "fourier_apply": fourier_apply(grid_n2, empty),
        "project_cutoff": project_cutoff(grid_n2, 0, empty),
        "shell_adapt": shell_adapt(grid_n2, empty),
        "embed_function": embed_function(grid_n1, grid_n2, np.zeros((grid_n1.size, 0))),
    }
    assert {name: out.shape for name, out in outputs.items()} == {
        name: (grid_n2.size, 0) for name in outputs
    }


def test_canonical_lowest_eigenvalue(canonical_report):
    assert canonical_report.eigenvalues[0] == pytest.approx(0.6684, abs=5e-4)


def test_reference_ground_state_column_has_unit_euclidean_norm(grid_n2):
    counts = {k: int((grid_n2.shells == k).sum()) for k in grid_n2.shell_labels()}
    total = sum(counts[k] * REFERENCE_GROUND_STATE[k] ** 2 for k in counts)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_eigensolve_invariants(canonical_report, canonical_model, fourier_operator):
    report = canonical_report
    n = canonical_model.size
    oracle = fourier_operator(canonical_model)
    assert (np.diff(report.eigenvalues) >= -1e-12).all()
    gram = report.eigenvectors.conj().T @ report.eigenvectors
    assert np.abs(gram - np.eye(n)).max() < 1e-10
    bound = 1e-9 * np.abs(oracle).max() * n
    assert max(f.residual for f in report.families) < bound
    trace = float(np.trace(oracle).real)
    assert float(report.eigenvalues.sum()) == pytest.approx(trace, rel=1e-8)


def test_free_model_report_matches_kinetic_multiset(grid_n2, zero_potential):
    model = assemble_hamiltonian(grid_n2, alpha=2.0, a=1.0, potential=zero_potential)
    report = eigensolve(model)
    assert np.abs(report.eigenvalues - np.sort(position_diagonal(grid_n2, 2.0))).max() < 1e-10


def test_eigensolve_memory_stays_below_four_dense_matrices(q3sqrt3, ho_potential):
    grid = build_grid(q3sqrt3, 3)  # N = 729
    model = assemble_hamiltonian(grid, alpha=2.0, a=0.5, potential=ho_potential)
    tracemalloc.start()
    try:
        eigensolve(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the eigenvectors, H applied to them and their product with the eigenvalues
    assert peak < 3.5 * 8 * grid.size**2


def test_classifications_are_computed_on_first_read(canonical_model):
    report = eigensolve(canonical_model, radial_tol=1e-8, shell_tol=1.0)
    assert "family_classifications" not in vars(report)
    # with shell_tol = 1 every vector has a shell holding at least 1 - shell_tol of its norm
    assert {c.kind for c in report.family_classifications} == {"shell"}
    assert "family_classifications" in vars(report)
    assert len(report.family_classifications) == len(report.families)
    expected = classify_eigenvector(canonical_model.grid, report.eigenvectors[:, 0], 1e-8, 1.0)
    assert_matches_numeric(classification(report, 0), expected, report.families[0].shell)


def test_summary_rows_of_a_million_points_stay_below_one_megabyte(ho_potential):
    # Q_2 at n = 10, N = 2**20: each family is classified once, off its template,
    # with no N-row lift of a radial template and no N-entry list of labels
    grid = build_grid(make_field(EisensteinExtension(p=2, e=1)), 10)
    report = eigensolve(assemble_hamiltonian(grid, 2.0, 0.5, ho_potential))
    tracemalloc.start()
    try:
        rows = report.summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sum(mult for _, mult, _ in rows) == grid.size
    assert "radial" in {kind for _, _, kind in rows}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["q3sqrt3_ho", "f3_laurent"])
def test_radial_tol_changes_no_label(name, n, tmp_path):
    # a radial family is constant on every shell by construction, so even a radial_tol
    # below any rounding error keeps every label, profile and summary row
    data = json.loads((CONFIGS / f"{name}.cfg").read_text())
    seen = []
    for tolerances in ({}, {"radial_tol": 1e-300}):
        path = tmp_path / f"{name}_{len(tolerances)}.cfg"
        path.write_text(json.dumps(dict(data, n=n, tolerances=tolerances)))
        config = load_config(path)
        model = assemble_hamiltonian(
            build_grid(config.field, n),
            config.alpha,
            config.kinetic_coeff,
            config.potential,
            config.convention,
        )
        report = eigensolve(model, radial_tol=config.tolerances.radial_tol)
        seen.append((list(spectrum_rows(report)), report.summary_rows()))
    assert seen[1] == seen[0]
    assert "radial" in {row[4] for row in seen[0][0]}


def test_eigensolve_enforces_residual_tolerance(canonical_model):
    from ultraspec import ResidualTooLarge

    with pytest.raises(ResidualTooLarge):
        eigensolve(canonical_model, tol=1e-30)


def test_nan_residual_raises(canonical_model, monkeypatch, tmp_path, capsys):
    from pathlib import Path

    from ultraspec import ResidualTooLarge
    from ultraspec.cli import main

    exact = spectra._tree_eigensystem
    config = Path(__file__).resolve().parents[1] / "configs" / "q3sqrt3_ho.cfg"
    for radial in (True, False):

        def poisoned(model, radial=radial):
            families = exact(model)
            next(f for f in families if (f.shell is None) == radial).template[0, 0] = np.nan
            return families

        monkeypatch.setattr(spectra, "_tree_eigensystem", poisoned)
        with pytest.raises(ResidualTooLarge, match="residual nan"):
            eigensolve(canonical_model)
        assert main(["spectrum", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert "residual nan" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "spec, n, a",
    [(spec, n, 0.75) for spec, n in GATE_GRIDS] + [(spec, n, 0.0) for spec, n in GATE_GRIDS],
    ids=[grid_id(g) for g in GATE_GRIDS] + [f"{grid_id(g)}-a0" for g in GATE_GRIDS],
)
def test_residual_gate_stands_for_every_column(spec, n, a, ho_potential):
    grid = build_grid(make_field(spec), n)
    model = assemble_hamiltonian(grid, 1.5, a, ho_potential)
    report = eigensolve(model)
    assert not hasattr(report, "residuals")  # one residual per family, no N-length array
    vectors = report.eigenvectors
    hv = model.apply(vectors)
    hv -= vectors * report.eigenvalues
    full = np.linalg.norm(hv, axis=0)
    threshold = spectra.DEFAULT_RESIDUAL_TOL * max(1.0, model.max_abs()) * grid.size
    assert full.max() <= threshold
    for family in report.families:
        members = slice(family.start, family.start + family.multiplicity)
        # the first node's residual is the family's, the largest of its members'
        assert abs(family.residual - full[members].max()) <= 1e-12


@pytest.mark.parametrize("spec, n", GATE_GRIDS, ids=[grid_id(g) for g in GATE_GRIDS])
def test_gate_reads_each_shell_family_off_its_template(spec, n):
    # a family with a shell, its template perturbed on every row (node 0's child 0
    # included), is checked in closed form: the residual of its first node's vectors
    # lifted to the grid and applied there
    grid = build_grid(make_field(spec), n)
    q = grid.field.q
    rng = np.random.default_rng(17)
    for potential in potentials(n).values():
        for a in (0.75, 0.0):
            model = assemble_hamiltonian(grid, 1.5, a, potential)
            families = spectra._tree_eigensystem(model)
            shell_families = [f for f in families if f.shell is not None]
            # node 0 holds families but for q = 2 at a > 0, whose path to 0 has no wavelet
            assert (0 in {f.first_node for f in shell_families}) == (q > 2 or a == 0)
            for f in shell_families:
                f.template = f.template + 1e-2 * rng.standard_normal(f.template.shape)
                node = grid.size // q**f.depth
                lifted = np.zeros((grid.size, f.template.shape[1]))
                lifted[f.first_node * node : (f.first_node + 1) * node] = np.repeat(
                    f.template, f.repeats, axis=0
                )
                full = np.linalg.norm(model.apply(lifted) - f.value * lifted, axis=0).max()
                spectra._tree_residuals(model, [f])
                assert f.residual == pytest.approx(full, rel=1e-10), (a, f.depth, f.first_node)


@pytest.mark.parametrize(
    "spec, n", [(EisensteinExtension(p=3, e=2), 5), (EisensteinExtension(p=2, e=1), 8)]
)
def test_residual_gate_holds_no_block_per_family(spec, n, ho_potential):
    # every family is checked on its template alone and no N-row block is held
    grid = build_grid(make_field(spec), n)
    model = assemble_hamiltonian(grid, 2.0, 0.5, ho_potential)
    tracemalloc.start()
    try:
        eigensolve(model).summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.size


def test_spectrum_of_millions_of_points_holds_no_array_of_them(q3sqrt3, ho_potential):
    # Q_3[sqrt 3] at n = 7, N = 3**14: the families are sorted and clustered as
    # (value, count) units, and the N sorted eigenvalues are built only when read
    grid = build_grid(q3sqrt3, 7, cap=3**14)
    model = assemble_hamiltonian(grid, 2.0, 0.5, ho_potential)
    tracemalloc.start()
    try:
        report = eigensolve(model)
        rows = report.summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "eigenvalues" not in vars(report)
    assert sum(mult for _, mult, _ in rows) == grid.size
    assert {5.0, 9.0, 41.0, 45.0} <= {value for value, _, _ in rows}


@pytest.mark.parametrize(
    "spec, n",
    [(EisensteinExtension(p=3, e=2), 12), (EisensteinExtension(p=2, e=1), 20)],
    ids=["Q3e2-n12", "Q2-n20"],
)
def test_spectrum_of_a_trillion_points_holds_no_array_of_them(spec, n, ho_potential):
    # N = 3**24 and 2**40: each cluster's mean is taken off its (value, count) units,
    # so the peak stays bounded however many points the grid has
    field = make_field(spec)
    grid = build_grid(field, n, cap=field.q ** (2 * n))
    model = assemble_hamiltonian(grid, 2.0, 0.5, ho_potential)
    tracemalloc.start()
    try:
        report = eigensolve(model)
        rows = report.summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    assert "eigenvalues" not in vars(report)
    assert sum(mult for _, mult, _ in rows) == grid.size
    if field.q == 3:
        assert {5.0, 9.0, 41.0, 45.0} <= {value for value, _, _ in rows}


@pytest.mark.parametrize("a", [0.75, 0.0])
@pytest.mark.parametrize("spec, n", GATE_GRIDS, ids=[grid_id(g) for g in GATE_GRIDS])
def test_report_holds_every_eigenvector_as_a_family(spec, n, a, ho_potential):
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 1.5, a, ho_potential))
    assert "eigenvectors" not in vars(report)
    held = [*vars(report).values()] + [x for f in report.families for x in vars(f).values()]
    assert not [
        x.shape for x in held if isinstance(x, np.ndarray) and x.ndim == 2 and len(x) == grid.size
    ]
    covered = np.zeros(grid.size, dtype=int)
    for f in report.families:
        covered[f.start : f.start + f.multiplicity] += 1
    assert np.all(covered == 1)
    radial = [f.template.shape for f in report.families if f.shell is None]
    assert radial == ([(2 * n + 1, 1)] * (2 * n + 1) if a else [])


@pytest.mark.parametrize("a", [0.75, 0.0])
@pytest.mark.parametrize("spec, n", GATE_GRIDS, ids=[grid_id(g) for g in GATE_GRIDS])
def test_gate_checks_radial_families_in_shell_coordinates(spec, n, a, ho_potential, monkeypatch):
    # no apply on the grid, apply_shells once per radial family on its (2n+1)-row
    # template, and the model holds its shell data only
    grid = build_grid(make_field(spec), n)
    model = assemble_hamiltonian(grid, 1.5, a, ho_potential)
    calls = {"apply": [], "apply_shells": []}
    for name, shapes in calls.items():

        def counted(self, v, _method=getattr(HamiltonianModel, name), _shapes=shapes):
            _shapes.append(np.shape(v))
            return _method(self, v)

        monkeypatch.setattr(HamiltonianModel, name, counted)
    report = eigensolve(model)
    report.summary_rows()
    radial = [f for f in report.families if f.shell is None]
    assert calls["apply"] == []
    assert calls["apply_shells"] == [(2 * n + 1, 1)] * len(radial)
    # a radial residual is its lifted column's, off an eigenvector too
    rng = np.random.default_rng(15)
    for f in radial:
        f.template = f.template + 1e-3 * rng.standard_normal(f.template.shape)
        lifted = np.repeat(f.template, f.repeats, axis=0)
        full = np.linalg.norm(model.apply(lifted) - f.value * lifted)
        spectra._tree_residuals(model, [f])
        assert f.residual == pytest.approx(full, rel=1e-10)
    for name in ("alpha", "potential", "convention", "kinetic_diagonal", "potential_diagonal"):
        assert not hasattr(model, name)
    held = [x.shape for x in vars(model).values() if isinstance(x, np.ndarray)]
    assert held and max(np.prod(shape) for shape in held) == 2 * n + 1


SAME_Q_FIELDS = {
    q: [
        EisensteinExtension(p=q, e=1),
        EisensteinExtension(p=q, e=3 if q == 2 else 2),
        LaurentField(p=q, f=1),
    ]
    for q in (2, 3, 5, 7)
}


@pytest.mark.parametrize("q", sorted(SAME_Q_FIELDS))
def test_solve_depends_on_the_field_only_through_q(q, ho_potential, tmp_path):
    # Q_p, a tame ramified extension and F_p((t)) share q, hence the tree, the model,
    # the spectrum and the eigenvalue file, at every level with N <= 2401
    fields = [make_field(spec) for spec in SAME_Q_FIELDS[q]]
    n = 1
    while q ** (2 * n) <= 2401:
        for convention in ZeroCellConvention:
            for a in (0.5, 0.0):
                seen = []
                for field in fields:
                    grid = build_grid(field, n)
                    model = assemble_hamiltonian(grid, 2.0, a, ho_potential, convention)
                    report = eigensolve(model)
                    path = tmp_path / "eigenvalues.csv"
                    write_table(path, SPECTRUM_HEADER, spectrum_rows(report))
                    data = [model.kernel, model.kinetic_shells, model.potential_shells]
                    data.append(report.eigenvalues)
                    seen.append([x.tobytes() for x in data] + [path.read_bytes()])
                assert seen[1:] == seen[:1] * 2, (n, convention, a)
        n += 1


@pytest.mark.parametrize("a", [0.75, 0.0])
@pytest.mark.parametrize("spec, n", GATE_GRIDS, ids=[grid_id(g) for g in GATE_GRIDS])
def test_columns_of_any_span_match_the_dense_matrix(spec, n, a, ho_potential):
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 1.5, a, ho_potential))
    vectors = report.eigenvectors
    spans = [range(j, j + 1) for j in range(grid.size)]
    # from inside one family to inside the next one in sorted order
    families = sorted(report.families, key=lambda f: f.start)
    spans += [
        range(f.start + f.multiplicity // 2, g.start + (g.multiplicity + 1) // 2)
        for f, g in zip(families, families[1:])
    ]
    spans += [range(f.start + 1, f.start + f.multiplicity - 1) for f in families]
    for span in spans:
        expected = vectors[:, span.start : span.stop]
        assert report.columns(span).tobytes() == expected.tobytes(), span


@pytest.mark.parametrize("spec, n", GRIDS, ids=[grid_id(g) for g in GRIDS])
def test_structured_classifications_match_numeric_path(spec, n, ho_potential):
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 1.5, 0.75, ho_potential))
    vectors = report.eigenvectors
    for f, got in zip(report.families, report.family_classifications):
        for i in range(f.start, f.start + f.multiplicity):
            assert classification(report, i) is got
            assert_matches_numeric(got, classify_eigenvector(grid, vectors[:, i]), f.shell)


@pytest.mark.parametrize("spec, n", GATE_GRIDS, ids=[grid_id(g) for g in GATE_GRIDS])
def test_eigenvector_scatter_matches_whole_column_phase_fix(spec, n, ho_potential):
    """Each family's columns are its Helmert wavelets after ``_fix_phases``, byte for byte.

    Whole-column negation writes -0.0 off a wavelet's node, and the scatter must too.
    """
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 1.5, 0.75, ho_potential))
    vectors = report.eigenvectors
    q, width = grid.field.q, 2 * n
    covered = np.zeros(grid.size, dtype=int)
    for family in report.families:
        members = slice(family.start, family.start + family.multiplicity)
        covered[members] += 1
        assert np.all(report.eigenvalues[members] == family.value)
        if family.shell is None:  # a radial eigenvector, repeated over each shell
            expected = np.repeat(family.template, family.repeats, axis=0)
            assert vectors[:, members].tobytes() == expected.tobytes()
            continue
        child = q ** (width - family.depth - 1)
        if family.first_node == 0:  # on the path to 0: the zero child is left out
            helmert = np.vstack([np.zeros((1, q - 2)), spectra._zero_sum_basis(q - 1)])
        else:
            helmert = spectra._zero_sum_basis(q)
        per_node = helmert.shape[1]
        expanded = np.zeros((grid.size, family.multiplicity))
        for j in range(family.multiplicity // per_node):
            node = family.first_node + j
            rows = slice(node * q * child, (node + 1) * q * child)
            expanded[rows, j * per_node : (j + 1) * per_node] = np.repeat(
                helmert, child, axis=0
            ) / np.sqrt(child)
        expected = np.ascontiguousarray(spectra._fix_phases(expanded))
        assert np.ascontiguousarray(vectors[:, members]).tobytes() == expected.tobytes()
    assert np.all(covered == 1)


def test_eigenvectors_are_built_on_first_read(canonical_model, q3sqrt3, ho_potential):
    report = eigensolve(canonical_model)
    assert "eigenvectors" not in vars(report)
    report.summary_rows()
    assert "eigenvectors" not in vars(report)
    vectors = report.eigenvectors
    assert "eigenvectors" in vars(report) and report.eigenvectors is vectors
    assert vectors.tobytes() == report.columns(range(report.grid.size)).tobytes()

    grid = build_grid(q3sqrt3, 4)  # N = 6561: one dense matrix is 344 MB
    model = assemble_hamiltonian(grid, alpha=2.0, a=0.5, potential=ho_potential)
    tracemalloc.start()
    try:
        report = eigensolve(model)
        rows = report.summary_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * grid.size**2
    assert "eigenvectors" not in vars(report)
    assert sum(mult for _, mult, _ in rows) == grid.size


def test_dense_report_is_one_family_per_column(canonical_model, fourier_operator):
    grid = canonical_model.grid
    values, vectors = np.linalg.eigh(fourier_operator(canonical_model))
    families = dense_families(values, vectors)
    clusters = cluster_eigenvalues(values, np.ones(values.size, dtype=int))
    report = SpectrumReport(families, clusters, grid)
    assert [f.start for f in report.families] == list(range(grid.size))
    spans = [c.indices for c in report.clusters] + [range(5, 40), range(grid.size)]
    for span in spans:
        assert report.columns(span).tobytes() == vectors[:, span].tobytes()
    assert report.eigenvectors.tobytes() == vectors.tobytes()
    # a dense column is no radial template: classifying it raises, it is not misread
    for read in (lambda: classification(report, 0), report.summary_rows):
        with pytest.raises(ValueError, match="radial template"):
            read()
    assert numeric_classifications(report) == [
        classify_eigenvector(grid, vectors[:, i]) for i in range(grid.size)
    ]


def test_families_must_cover_every_column_once(canonical_model):
    grid = canonical_model.grid
    families = spectra._tree_eigensystem(canonical_model)
    values = SpectrumReport(families, [], grid).eigenvalues
    radial = [f for f in families if f.shell is None]
    assert len(radial) == 2 * grid.n + 1
    dense = dense_families(values, np.eye(grid.size))
    for cover in [
        families[:-1],  # one radial eigenvector short
        families + radial[:1],  # one radial eigenvector twice
        [],
        dense[:-1],
        dense[:-1] + [replace(dense[-1], multiplicity=2)],  # past the last column
    ]:
        with pytest.raises(ValueError, match="exactly once"):
            SpectrumReport(cover, [], grid)


def expanded_sort(families):
    """The N-length stable sort, the oracle for sorting families as units.

    Every family's value repeated over its columns; returns the sorted
    values and each family's first sorted column.
    """
    values = np.concatenate([np.full(f.multiplicity, f.value) for f in families])
    order = np.argsort(values, kind="stable")
    position = np.empty(values.size, dtype=np.int64)
    position[order] = np.arange(values.size)
    firsts = np.cumsum([0] + [f.multiplicity for f in families])[:-1]
    return values[order], position[firsts]


@pytest.mark.parametrize("a", [0.75, 0.0], ids=["a", "a0"])
@pytest.mark.parametrize("spec, n", GRIDS, ids=[grid_id(g) for g in GRIDS])
def test_unit_sort_matches_expanded_stable_sort(spec, n, a, monkeypatch):
    grid = build_grid(make_field(spec), n)
    model = assemble_hamiltonian(grid, 1.5, a, point_potentials(n)["table"])
    solved = []
    eigh = np.linalg.eigh

    def recording_eigh(block):
        solved.append(eigh(block))
        return solved[-1]

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    families = spectra._tree_eigensystem(model)
    eigenvalues = SpectrumReport(families, [], grid).eigenvalues
    radial_values = solved[0][0] if solved else np.empty(0)
    assert len(solved) == (a != 0)
    # the radial eigenvectors come last, one family each, in the order of their values
    wavelets = sum(f.shell is not None for f in families)
    assert all(f.shell is None and f.multiplicity == 1 for f in families[wavelets:])
    assert [f.value for f in families[wavelets:]] == radial_values.tolist()
    # the table's ties (shells k and -k, the zero cell and shell 0) reach the families
    assert len({f.value for f in families}) < len(families)
    values, starts = expanded_sort(families)
    assert eigenvalues.tobytes() == values.tobytes()
    assert [f.start for f in families] == starts.tolist()


@pytest.mark.parametrize("convention", list(ZeroCellConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("potential_kind", ["monomial", "table"])
@pytest.mark.parametrize("spec, n", GRIDS, ids=[grid_id(g) for g in GRIDS])
def test_wavelet_value_is_the_symbol_plus_the_potential(spec, n, potential_kind, convention):
    # a depth-d wavelet on shell k has eigenvalue a |xi|**alpha on shell d + 1 - n plus v(k),
    # to within an ulp of the exact sum of the float inputs
    grid = build_grid(make_field(spec), n)
    model = assemble_hamiltonian(grid, 1.5, 0.75, potentials(n)[potential_kind], convention)
    families = spectra._tree_eigensystem(model)
    a = Fraction(model.kinetic_coeff)
    for f in (f for f in families if f.shell is not None):
        kin = grid.spread_shells(model.kinetic_shells)[grid.shell_run(f.depth + 1 - n).start]
        pot = grid.spread_shells(model.potential_shells)[grid.shell_run(f.shell).start]
        exact = a * Fraction(kin) + Fraction(pot)
        assert abs(Fraction(f.value) - exact) <= Fraction(math.ulp(f.value))


def test_harmonic_oscillator_clusters_are_exact(q3sqrt3, ho_potential):
    for n in (2, 3, 4, 5):
        model = assemble_hamiltonian(build_grid(q3sqrt3, n), 2.0, 0.5, ho_potential)
        clusters = {c.mean: c.multiplicity for c in eigensolve(model).clusters}
        assert {5.0: 2, 9.0: 4, 41.0: 8, 45.0: 24}.items() <= clusters.items()


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_cluster_multiplicities_match_reference_table(canonical_report):
    assert cluster_near(canonical_report, 45.0).multiplicity == 24
    assert cluster_near(canonical_report, 9.0).multiplicity == 4
    assert cluster_near(canonical_report, 41.0).multiplicity == 8


def test_cluster_separated_values_stay_singletons():
    values = [0.0, 1.0, 2.5, 2.5 + 1e-3]
    clusters = cluster_eigenvalues(values, [1] * len(values), cluster_tol=1e-6)
    assert [c.multiplicity for c in clusters] == [1, 1, 1, 1]


def test_cluster_merges_close_values():
    values = [2.0, 2.0 + 1e-8, 2.0 + 2e-8, 3.0]
    clusters = cluster_eigenvalues(values, [1] * len(values), cluster_tol=1e-6)
    assert [c.multiplicity for c in clusters] == [3, 1]
    assert clusters[0].rep == 2.0


def test_equal_values_cluster_to_their_value():
    value = 0.05555555555555555
    assert np.full(6, value).mean() != value  # the plain mean is an ulp off
    [cluster] = cluster_eigenvalues([value] * 6, [1] * 6)
    assert cluster.mean == value
    clusters = cluster_eigenvalues([-3.5] * 7 + [value] * 6, [1] * 13)
    assert [c.mean for c in clusters] == [-3.5, value]


def test_cluster_mean_is_the_correctly_rounded_mean_of_its_columns(q3sqrt3, ho_potential):
    # the a = 0 ground cluster of Q_3[sqrt 3] at n = 5 under cluster_tol 1e-4: the zero
    # cell once and shell 1 - n twice; rep plus numpy's mean offset from rep is an ulp off
    low = float.fromhex("0x1.8966e5cb6bd05p-18")
    high = float.fromhex("0x1.3fa39ab547995p-14")
    columns = np.array([low, high, high])
    exact = float.fromhex("0x1.ba93c284d94a7p-15")
    assert exact == float((Fraction(low) + 2 * Fraction(high)) / 3)
    assert low + (columns - low).mean() != exact
    [cluster] = cluster_eigenvalues([low, high], [1, 2], cluster_tol=1e-4)
    assert cluster.mean == exact and cluster.indices == range(3)
    model = assemble_hamiltonian(build_grid(q3sqrt3, 5), 2.0, 0.0, ho_potential)
    report = eigensolve(model, cluster_tol=1e-4)
    assert [(f.value, f.multiplicity) for f in report.families[:2]] == [(low, 1), (high, 2)]
    assert report.clusters[0].mean == exact


@pytest.mark.parametrize(
    "values",
    [[1.0, 0.5], [0.0, 2.0, 2.0 - 1e-12], [0.0, np.nan, 1.0], [np.nan], [-np.inf, 0.0]],
    ids=["descending", "late-dip", "nan", "lone-nan", "infinite"],
)
def test_cluster_rejects_unsorted_or_nonfinite_values(values):
    with pytest.raises(ValueError, match="ascending"):
        cluster_eigenvalues(values, [1] * len(values))


@pytest.mark.parametrize(
    "counts",
    [[1, 1], [1, 1, 1, 1], [[1, 1, 1]], [1, 0, 1], [2, 3, -1]],
    ids=["short", "long", "nested", "zero", "negative"],
)
def test_cluster_rejects_counts_not_one_per_value_of_at_least_1(counts):
    with pytest.raises(ValueError, match="each a count >= 1"):
        cluster_eigenvalues([0.0, 1.0, 2.0], counts)


def greedy_clusters(values, cluster_tol):
    """The per-value greedy loop, the oracle for the bisection: (rep, indices, mean) per cluster."""
    clusters = []
    for i, val in enumerate(values):
        val = float(val)
        if clusters:
            rep = clusters[-1][0]
            if abs(val - rep) <= cluster_tol * max(1.0, abs(rep)):
                clusters[-1][1].append(i)
                continue
        clusters.append((val, [i]))
    # the exact mean of the columns, rounded once, walked column by column
    return [
        (rep, idx, float(sum(Fraction(float(values[i])) for i in idx) / len(idx)))
        for rep, idx in clusters
    ]


def assert_matches_greedy(values, counts, cluster_tol, columns):
    """The clusters of the (value, count) units against the greedy loop on the ``columns``."""
    clusters = cluster_eigenvalues(values, counts, cluster_tol)
    assert all(isinstance(c.indices, range) for c in clusters)
    got = [(c.rep.hex(), list(c.indices), c.mean.hex()) for c in clusters]
    oracle = greedy_clusters(columns, cluster_tol)
    assert got == [(rep.hex(), idx, mean.hex()) for rep, idx, mean in oracle]
    return clusters


def adversarial_values(rng, cluster_tol, segments=60):
    """Ascending values that sit on, just inside and just outside each joining edge.

    Each segment starts at a reference, negative or positive, of size below
    1 or up to 2000, and chains a few clusters: a run of equal values, the
    edge and its float neighbours, values spread over twice the tolerance,
    then a gap from none to far above the tolerance.  The references that
    start a segment are multiples of 2**-10, so with a power-of-two
    cluster_tol the edge sum is exact and the edge lies at exactly the
    tolerance from its reference.
    """
    starts = rng.uniform(-2.0, 2.0, segments) * rng.choice([1.0, 1e3], segments)
    values = []
    for x in np.round(starts * 1024) / 1024:
        for _ in range(rng.integers(1, 4)):
            edge = x + cluster_tol * max(1.0, abs(x))
            run = [x] * int(rng.integers(1, 4))
            run += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)][
                : rng.integers(1, 4)
            ]
            run += list(x + (edge - x) * rng.uniform(0.0, 2.0, int(rng.integers(0, 3))))
            values += run
            x = max(run) + (edge - x) * rng.choice([0.0, 1e-3, 0.5, 1.0, 3.0, 1e4])
    return np.sort(values)


@pytest.mark.parametrize("cluster_tol", [1e-8, 1e-7, 1e-6, 2**-20, 1e-5, 2**-14, 1e-4])
@pytest.mark.parametrize("seed", range(4))
def test_cluster_bisection_matches_greedy_loop(seed, cluster_tol):
    rng = np.random.default_rng(seed)
    values = adversarial_values(rng, cluster_tol)
    # each value a unit of one column, then of a count drawn from 1 to 5
    for counts in (np.ones(values.size, dtype=int), rng.integers(1, 6, values.size)):
        columns = np.repeat(values, counts)
        assert_matches_greedy(values, counts, cluster_tol, columns)
        assert_matches_greedy(values.tolist(), counts.tolist(), cluster_tol, columns.tolist())


# Q_3[sqrt 3] at n = 4 has a cluster of several values whose counts exceed 1
SPECTRA_GRIDS = GRIDS + [(EisensteinExtension(p=3, e=2), 4)]


@pytest.mark.parametrize("spec, n", SPECTRA_GRIDS, ids=[grid_id(g) for g in SPECTRA_GRIDS])
def test_cluster_bisection_matches_greedy_loop_on_spectra(spec, n, ho_potential):
    grid = build_grid(make_field(spec), n)
    report = eigensolve(assemble_hamiltonian(grid, 1.5, 0.75, ho_potential))
    values = [f.value for f in report.families]  # the units, in column order
    counts = [f.multiplicity for f in report.families]
    expanded = []
    for cluster_tol in (1e-8, 1e-6, 1e-4):
        clusters = assert_matches_greedy(values, counts, cluster_tol, report.eigenvalues)
        for c in clusters:
            units = [f for f in report.families if f.start in c.indices]
            if len({f.value for f in units}) > 1 and max(f.multiplicity for f in units) > 1:
                expanded.append(c)
    assert expanded or (spec, n) != SPECTRA_GRIDS[-1]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_ground_state_is_radial_and_positive(canonical_report):
    cls = classification(canonical_report, 0)
    assert cls.kind == "radial"
    assert canonical_report.eigenvectors[:, 0].real.min() > 0
    assert sum(cls.profile.values()) == pytest.approx(1.0, abs=1e-10)


def test_shell_indicator_classifies_as_shell(grid_n2):
    v = (grid_n2.shells == 1).astype(complex)
    v /= np.linalg.norm(v)
    cls = classify_eigenvector(grid_n2, v)
    assert cls.kind == "shell" and cls.k == 1.0 and cls.leakage == 0.0


def test_classification_invariances(grid_n2, canonical_report):
    rng = np.random.default_rng(9)
    v = canonical_report.eigenvectors[:, 5].astype(complex)
    base = classify_eigenvector(grid_n2, v)
    rotated = classify_eigenvector(grid_n2, v * np.exp(1j * 0.7))
    assert rotated.kind == base.kind
    # permute points within shell 2
    perm = np.arange(grid_n2.size)
    shell2 = np.flatnonzero(grid_n2.shells == 2)
    perm[shell2] = rng.permutation(shell2)
    permuted = classify_eigenvector(grid_n2, v[perm])
    assert permuted.kind == base.kind
    for k in base.profile:
        assert permuted.profile[k] == pytest.approx(base.profile[k], abs=1e-12)


def test_mixed_classification_profile(grid_n2):
    rng = np.random.default_rng(10)
    v = np.zeros(grid_n2.size, dtype=complex)
    for k in (0.0, 1.0):
        mask = grid_n2.shells == k
        v[mask] = rng.standard_normal(int(mask.sum()))
    v /= np.linalg.norm(v)
    cls = classify_eigenvector(grid_n2, v)
    assert cls.kind == "mixed"
    assert sum(cls.profile.values()) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# shell adaptation
# ---------------------------------------------------------------------------


def test_lambda41_splits_four_plus_four(canonical_report):
    cluster = cluster_near(canonical_report, 41.0)
    labels = [classification(canonical_report, i) for i in cluster.indices]
    shells = sorted(cls.k for cls in labels)
    assert all(cls.kind == "shell" for cls in labels)
    assert shells == [0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]


def test_lambda9_adapted_basis_is_pure_shell_one(canonical_report):
    cluster = cluster_near(canonical_report, 9.0)
    for i in cluster.indices:
        cls = classification(canonical_report, i)
        assert cls.kind == "shell" and cls.k == 1.0
        assert cls.leakage <= 1e-10


def test_lambda5_support_confined_to_shells_one_and_zero(canonical_report):
    cluster = cluster_near(canonical_report, 5.0)
    for i in cluster.indices:
        profile = classification(canonical_report, i).profile
        outside = sum(v for k, v in profile.items() if k not in (0.0, 1.0))
        assert outside <= 1e-10


def test_shell_adapt_singleton_unchanged_up_to_phase(grid_n2, canonical_report, canonical_model):
    v = canonical_report.eigenvectors[:, [0]]
    out = shell_adapt(grid_n2, v, model=canonical_model)
    overlap = abs(np.vdot(out[:, 0], v[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def fix_phases_by_column(vectors):
    """The column-by-column phase fix, the reference for the one-pass version."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))  # ties resolve to the lowest index
        pivot = col[i]
        if pivot != 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(13)
    real = rng.standard_normal((40, 12))
    real[:, 0] = 0.0  # zero column stays as it is
    real[:, 1] = np.where(np.arange(40) % 2, 1.0, -1.0)  # tie: the lowest index wins
    real[:, 2] = -np.abs(real[:, 2])  # negated whole: zeros turn into -0.0
    real[5, 2] = 0.0
    # the same bytes, -0.0 included
    assert spectra._fix_phases(real).tobytes() == fix_phases_by_column(real).tobytes()
    cplx = real + 1j * rng.standard_normal(real.shape)
    cplx[:, 0] = 0.0
    # array and scalar complex division may round differently in the last bit
    error = np.abs(spectra._fix_phases(cplx) - fix_phases_by_column(cplx)).max()
    assert error <= 1e-15 * np.abs(cplx).max()


def test_shell_adapt_preserves_span(grid_n2, canonical_report):
    cluster = cluster_near(canonical_report, 45.0)
    raw = np.linalg.qr(
        np.random.default_rng(11).standard_normal((len(cluster.indices), len(cluster.indices)))
    )[0]
    basis = canonical_report.eigenvectors[:, cluster.indices] @ raw  # re-mix the eigenspace
    adapted = shell_adapt(grid_n2, basis)
    before = basis @ basis.conj().T
    after = adapted @ adapted.conj().T
    assert np.abs(before - after).max() < 1e-10


def test_shell_adapt_rejects_non_eigenspace(grid_n2, canonical_report, canonical_model):
    v = canonical_report.eigenvectors[:, [0, 3]]  # 0.669 and 5.0: not one eigenspace
    with pytest.raises(NotAnEigenspace):
        shell_adapt(grid_n2, v, model=canonical_model)


def test_shell_adapt_rejects_nan_columns(grid_n2, canonical_report, canonical_model):
    v = canonical_report.eigenvectors[:, cluster_near(canonical_report, 9.0).indices].copy()
    v[0, 0] = np.nan
    with pytest.raises(NotAnEigenspace):
        shell_adapt(grid_n2, v, model=canonical_model)


def test_zero_cell_convention_cannot_touch_shell_functions(grid_n2, ho_potential):
    avg = eigensolve(assemble_hamiltonian(grid_n2, 2.0, 0.5, ho_potential))
    pow_ = eigensolve(
        assemble_hamiltonian(
            grid_n2, 2.0, 0.5, ho_potential, convention=ZeroCellConvention.POWER_OF_AVERAGE
        )
    )
    for value in (5.0, 9.0, 40 + 5 / 9, 41.0, 45.0):
        ca, cp = cluster_near(avg, value, 1e-4), cluster_near(pow_, value, 1e-4)
        assert ca.multiplicity == cp.multiplicity
        assert ca.mean == pytest.approx(cp.mean, abs=1e-9)
        for report, cluster in ((avg, ca), (pow_, cp)):
            for i in cluster.indices:
                assert abs(report.eigenvectors[grid_n2.zero_index, i]) < 1e-10


# ---------------------------------------------------------------------------
# embedding and convergence
# ---------------------------------------------------------------------------


def test_embedding_is_constant_on_refined_cells(q3sqrt3, grid_n1, grid_n2):
    rng = np.random.default_rng(12)
    f = rng.standard_normal(grid_n1.size)
    lifted = embed_function(grid_n1, grid_n2, f)
    assert np.linalg.norm(lifted) == pytest.approx(1.0)
    # support condition: zero where the new lowest exponent digit is set
    outer = grid_n2.digits[:, 0] != 0
    assert not lifted[outer].any()
    inner = ~outer
    blocks = lifted[inner].reshape(grid_n1.size, 3)
    assert np.abs(blocks - blocks[:, :1]).max() < 1e-15


def test_embedding_preserves_shell_support(grid_n1, grid_n2):
    indicator = (grid_n1.shells == 1).astype(float)
    indicator /= np.linalg.norm(indicator)
    lifted = embed_function(grid_n1, grid_n2, indicator)
    cls = classify_eigenvector(grid_n2, lifted)
    assert cls.kind == "shell" and cls.k == 1.0


def test_embedding_keeps_shape_and_dtype(grid_n1, grid_n2):
    rng = np.random.default_rng(13)
    block = rng.standard_normal((grid_n1.size, 4))
    block[:, 2] = 0.0
    lifted = embed_function(grid_n1, grid_n2, block)
    assert lifted.shape == (grid_n2.size, 4) and lifted.dtype == np.float64
    assert not lifted[:, 2].any()  # a zero column stays zero
    for j in range(4):
        column = embed_function(grid_n1, grid_n2, block[:, j])
        assert column.shape == (grid_n2.size,)
        np.testing.assert_allclose(lifted[:, j], column, rtol=0, atol=1e-15)


def test_embedding_across_a_gap_composes(q3sqrt3, grid_n1, grid_n2):
    grid_n3 = build_grid(q3sqrt3, 3)
    rng = np.random.default_rng(14)
    block = rng.standard_normal((grid_n1.size, 3)) + 1j * rng.standard_normal((grid_n1.size, 3))
    direct = embed_function(grid_n1, grid_n3, block)
    composed = embed_function(grid_n2, grid_n3, embed_function(grid_n1, grid_n2, block))
    assert np.abs(direct - composed).max() < 1e-14


@pytest.mark.parametrize("levels", [(1, 1), (2, 1)])
def test_embedding_needs_a_higher_level(q3sqrt3, levels):
    grid_from, grid_to = (build_grid(q3sqrt3, n) for n in levels)
    with pytest.raises(ValueError):
        embed_function(grid_from, grid_to, np.ones(grid_from.size))


def _index_weights(grid):
    # the base-q place values of the 2n digits: a digit row's dot product with them is its index
    return grid.field.q ** np.arange(2 * grid.n - 1, -1, -1, dtype=np.int64)


def _digit_lift(grid_from, grid_to, values):
    # the lift read off the digit rows: parent point by the kept digits, zero
    # where a digit below the level-n ball is set
    gap = grid_to.n - grid_from.n
    digits = grid_to.digits
    parent = digits[:, gap : gap + 2 * grid_from.n] @ _index_weights(grid_from)
    out = np.asarray(values)[parent]
    out[digits[:, :gap].any(axis=1)] = 0
    norms = np.linalg.norm(out, axis=0)
    return out / np.where(norms > 0, norms, 1.0)


@pytest.mark.parametrize("spec", [EisensteinExtension(p=3, e=2), LaurentField(p=2, f=2)], ids=repr)
def test_embedding_matches_digit_lift(spec):
    field = make_field(spec)
    grids = {n: build_grid(field, n) for n in (1, 2, 3)}
    rng = np.random.default_rng(15)
    for low, high in ((1, 2), (2, 3), (1, 3)):  # gaps 1 and 2
        size = grids[low].size
        complex_block = rng.standard_normal((size, 3)) + 1j * rng.standard_normal((size, 3))
        complex_block[:, 1] = 0.0
        inputs = [
            rng.standard_normal(size),
            rng.standard_normal((size, 4)),
            complex_block,
            np.asfortranarray(complex_block),
            np.array([-0.0, 1.0] * (size // 2) + [2.0] * (size % 2)),
        ]
        for values in inputs:
            out = embed_function(grids[low], grids[high], values)
            oracle = _digit_lift(grids[low], grids[high], values)
            assert out.shape == oracle.shape and out.dtype == oracle.dtype
            assert np.array_equal(out, oracle), (low, high, values.shape)
            assert out.tobytes() == np.ascontiguousarray(oracle).tobytes()


def test_embedding_rejects_another_field(q3sqrt3):
    grid_from = build_grid(q3sqrt3, 1)
    grid_to = build_grid(make_field(EisensteinExtension(p=2, e=1)), 3)
    with pytest.raises(ValueError, match="one field"):
        embed_function(grid_from, grid_to, np.ones(grid_from.size))


def test_embedding_compares_resolved_fields():
    # the default F_9 modulus spelled out is the same field
    default, spelled = (
        make_field(LaurentField(p=3, f=2, modulus=modulus)) for modulus in (None, (1, 0, 1))
    )
    values = np.random.default_rng(16).standard_normal(81)
    same = embed_function(build_grid(default, 1), build_grid(default, 2), values)
    lifted = embed_function(build_grid(default, 1), build_grid(spelled, 2), values)
    assert lifted.tobytes() == same.tobytes()
    others = [
        (EisensteinExtension(p=3, e=1), LaurentField(p=3, f=1)),
        (LaurentField(p=3, f=2, modulus=(2, 1, 1)), LaurentField(p=3, f=2)),
    ]
    for low, high in others:
        grid_from = build_grid(make_field(low), 1)
        with pytest.raises(ValueError, match="one field"):
            embed_function(grid_from, build_grid(make_field(high), 2), np.ones(grid_from.size))


def test_library_path_builds_no_shell_labels(q3sqrt3, ho_potential, monkeypatch):
    grid = build_grid(q3sqrt3, 4)
    report = eigensolve(assemble_hamiltonian(grid, 2.0, 0.5, ho_potential))
    assert report.summary_rows()
    assert "shells" not in vars(grid) and "eigenvectors" not in vars(report)

    grids = []

    def recorded(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(spectra, "build_grid", recorded)
    trace = convergence_report(q3sqrt3, 2.0, 0.5, ho_potential, [2, 3])
    assert any(len(t.steps) == 2 for t in trace.trajectories)  # some lift was read
    assert [g.n for g in grids] == [2, 3]
    assert not any("shells" in vars(g) for g in grids)


def _lift_one_level(grid_from, grid_to, vec):
    # level n -> n + 1, one vector: the dense oracle for embed_function
    inner = grid_to.digits[:, 1 : 2 * grid_from.n + 1].astype(np.int64)
    out = np.asarray(vec)[inner @ _index_weights(grid_from)].astype(np.complex128)
    out[grid_to.digits[:, 0] != 0] = 0.0
    return out / np.linalg.norm(out)


def _vector_by_vector_alignment(reports, prev, cur, prev_cluster, cluster):
    # each old vector lifted level by level, then projected onto the new basis
    basis = reports[cur].eigenvectors[:, cluster.indices]
    worst = 0.0
    for i in prev_cluster.indices:
        vec = reports[prev].eigenvectors[:, i]
        for level in range(prev, cur):
            vec = _lift_one_level(reports[level].grid, reports[level + 1].grid, vec)
        worst = max(worst, float(np.linalg.norm(vec - basis @ (basis.conj().T @ vec))))
    return worst


@pytest.fixture(scope="module", params=["q3sqrt3", "f3_laurent"])
def reports_by_level(request, ho_potential):
    field = request.getfixturevalue(request.param)
    reports = {
        n: eigensolve(assemble_hamiltonian(build_grid(field, n), 2.0, 0.5, ho_potential))
        for n in (1, 2, 3)
    }
    return field, reports


@pytest.mark.parametrize("levels", [[1, 2, 3], [1, 3]])
def test_alignment_matches_vector_by_vector_oracle(reports_by_level, ho_potential, levels):
    field, reports = reports_by_level
    trace = convergence_report(field, 2.0, 0.5, ho_potential, levels)
    expected = []
    for traj in trace.trajectories:
        for before, step in zip(traj.steps, traj.steps[1:]):
            prev_cluster = next(
                c for c in reports[before.level].clusters if c.mean == before.value
            )
            cluster = next(c for c in reports[step.level].clusters if c.mean == step.value)
            oracle = _vector_by_vector_alignment(
                reports, before.level, step.level, prev_cluster, cluster
            )
            assert abs(step.alignment - oracle) <= 1e-12
            expected.append(oracle)
    assert expected and max(expected) > 1e-6  # some matched clusters do turn


def test_alignment_is_the_worst_column(grid_n1, grid_n2):
    # on the fixtures every multi-vector cluster has equal column distances,
    # so a synthetic pair pins the max: the new span holds the first lift only
    points = np.eye(grid_n1.size)[:, :2]
    lifted = embed_function(grid_n1, grid_n2, points)
    old = SimpleNamespace(grid=grid_n1, columns=lambda span: points[:, span])
    new = SimpleNamespace(grid=grid_n2, columns=lambda span: lifted[:, span])
    old_cluster = spectra.EigenCluster(rep=0.0, indices=range(2), mean=0.0)
    new_cluster = spectra.EigenCluster(rep=0.0, indices=range(1), mean=0.0)
    assert spectra._cluster_alignment(old, new, old_cluster, new_cluster) == pytest.approx(1.0)


def test_convergence_levels_two_three(q3sqrt3, ho_potential):
    trace = convergence_report(
        q3sqrt3, 2.0, 0.5, ho_potential, [2, 3], ground_state_bound=9 / 13
    )
    assert trace.levels == [2, 3]
    assert not trace.warnings
    for traj in trace.trajectories:
        levels = [s.level for s in traj.steps]
        assert levels == sorted(levels)  # trajectories are monotone in level
    for target in (5.0, 9.0):
        traj = next(
            t
            for t in trace.trajectories
            if t.start_level == 2 and abs(t.steps[0].value - target) < 1e-4
        )
        assert len(traj.steps) == 2
        assert traj.steps[1].drift <= 1e-6
        assert traj.steps[1].multiplicity >= traj.steps[0].multiplicity
    for level in trace.per_level:
        assert 0 < level.lowest_eigenvalue < 9 / 13


def test_convergence_report_reads_no_dense_matrix(q3sqrt3, ho_potential):
    size = 9**4  # N at level 4: one dense matrix is 344 MB
    tracemalloc.start()
    try:
        trace = convergence_report(q3sqrt3, 2.0, 0.5, ho_potential, [2, 3, 4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * size**2
    assert any(len(t.steps) == 3 for t in trace.trajectories)  # some alignment was read
    # the wavelet clusters 5 and 9 are exact at every level, so they do not drift
    for target in (5.0, 9.0):
        [traj] = [t for t in trace.trajectories if t.steps[0].value == target]
        assert [s.drift for s in traj.steps] == [None, 0.0, 0.0]


def test_convergence_report_never_classifies(q3sqrt3, ho_potential, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("convergence_report classified an eigenvector")

    monkeypatch.setattr(spectra, "classify_family", refuse)
    trace = convergence_report(q3sqrt3, 2.0, 0.5, ho_potential, [2, 3])
    assert trace.levels == [2, 3]
    assert [level.level for level in trace.per_level] == [2, 3]


def test_single_level_trace_is_degenerate(q3sqrt3, ho_potential):
    trace = convergence_report(q3sqrt3, 2.0, 0.5, ho_potential, [2])
    assert all(len(t.steps) == 1 for t in trace.trajectories)
    assert all(t.steps[0].drift is None for t in trace.trajectories)


def test_free_model_trajectories_have_zero_drift(q3sqrt3, zero_potential):
    trace = convergence_report(q3sqrt3, 2.0, 1.0, zero_potential, [1, 2])
    kin1 = set(np.round(position_diagonal(build_grid(q3sqrt3, 1), 2.0), 12))
    kin2 = set(np.round(position_diagonal(build_grid(q3sqrt3, 2), 2.0), 12))
    shared = kin1 & kin2
    matched = [t for t in trace.trajectories if len(t.steps) == 2]
    shared_matched = [t for t in matched if round(t.steps[0].value, 12) in shared]
    assert shared_matched, "expected shared kinetic values to be matched across levels"
    for t in shared_matched:
        assert t.steps[1].drift <= 1e-12


def test_diagonal_model_equal_clusters_have_zero_drift(q3sqrt3, ho_potential):
    trace = convergence_report(q3sqrt3, 2.0, 0.0, ho_potential, [1, 2, 3])
    steps = [s for t in trace.trajectories for s in t.steps if s.drift is not None]
    # the six points of value 1/18 at level 3 continue the two at level 2
    [step] = [s for s in steps if s.level == 3 and abs(s.value - 1 / 18) < 1e-12]
    assert step.multiplicity == 6 and step.drift == 0.0


def test_ground_state_bound_violation_warns(q3sqrt3, ho_potential):
    with pytest.warns(UserWarning, match="outside"):
        trace = convergence_report(
            q3sqrt3, 2.0, 0.5, ho_potential, [1], ground_state_bound=0.5
        )
    assert trace.warnings
