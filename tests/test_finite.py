import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ultraspec import (
    EisensteinExtension,
    GridTooLarge,
    HamiltonianModel,
    LaurentField,
    MonomialPotential,
    NoConvergence,
    NonConfiningPotentialWarning,
    ResidualTooLarge,
    TablePotential,
    ZERO_SHELL,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    eigensolve,
    elem_from_pairs,
    elem_mul,
    fourier_apply,
    fourier_matrix,
    fourier_unitarity_defect,
    load_config,
    make_field,
    position_diagonal,
    project_cutoff,
    project_smooth,
    run_verify,
    zero_cell_average,
)
import ultraspec.finite as finite
import ultraspec.verify as verify
from ultraspec.fields import phase_rows
import oracles
from oracles import character
from test_tree import GRIDS, grid_id, potentials

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "q3sqrt3_ho.cfg"


def rand_fn(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_sizes(grid_n1, grid_n2):
    assert grid_n1.size == 9
    assert grid_n2.size == 81
    q5 = make_field(EisensteinExtension(p=5, e=1))
    assert build_grid(q5, 1).size == 25


def test_grid_shell_sizes(grid_n2):
    assert grid_n2.shell_sizes == {2.0: 54, 1.0: 18, 0.0: 6, -1.0: 2, ZERO_SHELL: 1}


def test_grid_total_mass(grid_n2):
    q, n = 3, 2
    assert grid_n2.size * grid_n2.mass == pytest.approx(q**n)


def test_grid_shell_partition_counts(grid_n2):
    q, n = 3, 2
    for k in range(-(n - 1), n + 1):
        assert grid_n2.shell_sizes[float(k)] == q ** (n + k) - q ** (n + k - 1)


def test_grid_cap_enforced(q3sqrt3):
    with pytest.raises(GridTooLarge):
        build_grid(q3sqrt3, 8)  # 3**16 exceeds the default cap


@pytest.mark.parametrize(
    "spec, n",
    [(EisensteinExtension(p=3, e=2), 20), (EisensteinExtension(p=2, e=1), 32)],
    ids=["Q3e2-n20", "Q2-n32"],
)
def test_grid_past_the_int64_index_range_is_refused(spec, n):
    # 3**40 and 2**64 points pass a cap raised to their size, yet their shell sizes
    # and sums would wrap in int64; the refusal comes before any Grid is built
    field = make_field(spec)
    size = field.q ** (2 * n)
    with pytest.raises(GridTooLarge, match=r"exceeds the int64 index range 9223372036854775807"):
        build_grid(field, n, cap=size)
    grid = build_grid(field, n - 1, cap=size)  # below 2**63: built, as O(n) shell data
    assert grid.size == size // field.q**2 and sum(grid.shell_sizes.values()) == grid.size


def test_grid_index_round_trip(grid_n2):
    for i in (0, 1, 17, 80):
        assert grid_n2.reduce_element(grid_n2.point(i)) == i


def test_grid_points_are_built_on_first_read(q3sqrt3):
    big = build_grid(q3sqrt3, 5)  # N = 59049: no digit row is built, and no list of points
    assert "digits" not in vars(big) and not hasattr(big, "points")
    grid = build_grid(q3sqrt3, 1)
    assert [grid.reduce_element(grid.point(i)) for i in range(grid.size)] == list(range(grid.size))


@pytest.mark.parametrize(
    "spec", [EisensteinExtension(p=3, e=2), LaurentField(p=2, f=2)], ids=["Q3e2", "F4t"]
)
def test_reduce_element_is_the_digit_dot_product(spec):
    # the Horner sum against the dot product of the window's digits with q**(2n-1-pos)
    field = make_field(spec)
    grid = build_grid(field, 2)
    q, n = field.q, grid.n
    weights = q ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)

    def dot_index(x):
        return int(np.dot(np.array([x.digit_at(pos - n) for pos in range(2 * n)]), weights))

    rng = np.random.default_rng(16)
    outside = [  # digits on both sides of the window, or on one side only
        elem_from_pairs(field, zip(range(lo, lo + width), rng.integers(1, q, width)))
        for lo, width in [(-n - 3, 2 * n + 6), (-n - 2, 3), (n - 1, 4), (n, 2), (-n - 4, 2)]
        for _ in range(5)
    ]
    elements = [grid.point(i) for i in range(grid.size)] + outside
    assert [grid.reduce_element(x) for x in elements] == [dot_index(x) for x in elements]
    assert [grid.reduce_element(x) for x in elements[: grid.size]] == list(range(grid.size))


def test_grid_point_is_one_exact_element(grid_n2):
    points = [grid_n2.point(i) for i in range(grid_n2.size)]
    assert [grid_n2.reduce_element(x) for x in points] == list(range(grid_n2.size))
    assert grid_n2.point(grid_n2.zero_index).is_zero
    # verify's exact checks read |x| <= 1 as the first q**n indices and shell 1 as the next block
    q, n = 3, 2
    assert (grid_n2.shells[: q**n] <= 0).all()
    assert (grid_n2.shells[q**n : q ** (n + 1)] == 1).all()
    assert (grid_n2.shells[q ** (n + 1) :] > 1).all()


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


# both families; F_9((t)) under its default modulus, that modulus (1, 0, 1)
# spelled out, and a second irreducible one
CHARACTER_FIELDS = [
    EisensteinExtension(p=3, e=2),
    EisensteinExtension(p=2, e=1),
    EisensteinExtension(p=2, e=3),
    LaurentField(p=3, f=1),
    LaurentField(p=2, f=2),
    LaurentField(p=3, f=2),
    LaurentField(p=3, f=2, modulus=(1, 0, 1)),
    LaurentField(p=3, f=2, modulus=(2, 1, 1)),
]


@pytest.mark.parametrize("spec", CHARACTER_FIELDS, ids=repr)
def test_fourier_of_cell_indicator_matches_character_sum(spec):
    # single-term oracle: (F 1_z)(x) = q**-n * chi(-x z), on every grid of at most 729 points
    field = make_field(spec)
    rng = np.random.default_rng(0)
    n = 1
    while field.q ** (2 * n) <= 729:
        grid = build_grid(field, n)
        for z in rng.choice(grid.size, size=min(5, grid.size), replace=False):
            f = np.zeros(grid.size)
            f[z] = 1.0
            out = fourier_apply(grid, f)
            expected = np.array(
                [
                    np.conj(character(field, elem_mul(field, x, grid.point(z)))) / field.q**n
                    for x in map(grid.point, range(grid.size))
                ]
            )
            assert np.abs(out - expected).max() < 1e-13, (n, z)
        n += 1


def test_fourier_of_constant_is_zero_cell_spike(grid_n2):
    out = fourier_apply(grid_n2, np.ones(grid_n2.size))
    expected = np.zeros(grid_n2.size)
    expected[grid_n2.zero_index] = 9.0  # q**n
    assert np.abs(out - expected).max() < 1e-12


def test_fourier_fixes_unit_ball_indicator(grid_n2):
    ball = (grid_n2.shells <= 0).astype(complex)
    assert np.abs(fourier_apply(grid_n2, ball) - ball).max() < 1e-12


def test_fourier_unitary_dense(grid_n2):
    fmat = fourier_matrix(grid_n2)
    assert np.abs(fmat.conj().T @ fmat - np.eye(grid_n2.size)).max() < 1e-12


def test_fourier_fourth_power_is_identity(grid_n2):
    rng = np.random.default_rng(1)
    f = rand_fn(rng, grid_n2.size)
    out = f
    for _ in range(4):
        out = fourier_apply(grid_n2, out)
    assert np.abs(out - f).max() < 1e-12


def test_fourier_reflection(grid_n2):
    rng = np.random.default_rng(2)
    f = rand_fn(rng, grid_n2.size)
    twice = fourier_apply(grid_n2, fourier_apply(grid_n2, f))
    assert np.abs(twice - f[verify.neg_indices(grid_n2)]).max() < 1e-12


# Q_p[p**(1/e)] with e <= 3 tame, and F_{p**f}((t)) with p in {2, 3}, f in {1, 2}
NEGATION_FIELDS = [
    EisensteinExtension(p=p, e=e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if e % p
] + [LaurentField(p=p, f=f) for p in (2, 3) for f in (1, 2)]


@pytest.mark.parametrize("spec", NEGATION_FIELDS, ids=repr)
def test_neg_indices_match_exact_negation(spec):
    # every grid of at most 729 points, against the digit-by-digit negation
    # and grid reduction point by point
    field = make_field(spec)
    slow = oracles.oracle_field(field)
    n = 1
    while field.q ** (2 * n) <= 729:
        grid = build_grid(field, n)
        points = map(grid.point, range(grid.size))
        oracle = [grid.reduce_element(oracles.elem_neg(slow, x, mod_exp=n)) for x in points]
        assert verify.neg_indices(grid).tolist() == oracle, n
        n += 1


def test_fourier_preserves_mass_weighted_norm(grid_n2):
    rng = np.random.default_rng(3)
    f = rand_fn(rng, grid_n2.size)
    before = grid_n2.mass * np.sum(np.abs(f) ** 2)
    after = grid_n2.mass * np.sum(np.abs(fourier_apply(grid_n2, f)) ** 2)
    assert before == pytest.approx(after, rel=1e-12)


# both families, e and f in {1, 2, 3}; a tame extension needs p not dividing e,
# and no grid with q > 64 fits under the dense cap
DENSE_ORACLE_FIELDS = [
    EisensteinExtension(p=p, e=e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if e % p
] + [LaurentField(p=p, f=f) for p in (2, 3, 5, 7) for f in (1, 2, 3) if p**f <= 64]


def dense_unitarity_defect(fmat, rows=512):
    """max |F* F - 1| of a dense kernel, computed a block of rows at a time.

    F* F is Hermitian, so each block of rows is taken from its diagonal on.
    """
    defect = 0.0
    for start in range(0, fmat.shape[0], rows):
        gram = fmat[:, start : start + rows].conj().T @ fmat[:, start:]
        gram[np.arange(gram.shape[0]), np.arange(gram.shape[0])] -= 1.0
        defect = max(defect, float(np.abs(gram).max()))
    return defect


@pytest.mark.parametrize("spec", DENSE_ORACLE_FIELDS, ids=repr)
def test_fourier_apply_matches_dense_kernel(spec):
    # every grid the dense kernel admits; for f > 1 a digit spans f coordinates
    field = make_field(spec)
    rng = np.random.default_rng(4)
    n = 1
    while field.q ** (2 * n) <= verify.FOURIER_DENSE_CAP:
        grid = build_grid(field, n)
        fmat = fourier_matrix(grid)
        # unitarity read off the digit steps, next to the dense oracle's F* F = 1
        assert fourier_unitarity_defect(grid) <= 1e-12, n
        assert dense_unitarity_defect(fmat) <= 1e-12, n
        block = rand_fn(rng, (grid.size, 3))
        for inverse in (False, True):
            oracle = fmat.T.conj() @ block if inverse else fmat @ block
            out = fourier_apply(grid, block, inverse=inverse)
            assert out.shape == block.shape
            assert np.abs(out - oracle).max() < 1e-12, (n, inverse)
            single = fourier_apply(grid, block[:, 1], inverse=inverse)
            assert single.shape == (grid.size,)
            assert np.abs(single - oracle[:, 1]).max() < 1e-12, (n, inverse)
        n += 1


def test_unitarity_defect_sees_one_flipped_numerator(q3sqrt3):
    grid = build_grid(q3sqrt3, 2)  # its own phase table, apart from the shared fixtures
    assert fourier_unitarity_defect(grid) <= 1e-12
    verify._phase_table(grid).steps[2][4, 1, 2] += 1
    assert fourier_unitarity_defect(grid) > 1e-2


def test_fourier_matrix_capped(grid_n2, monkeypatch):
    monkeypatch.setattr(verify, "FOURIER_DENSE_CAP", 16)
    with pytest.raises(ValueError):
        fourier_matrix(grid_n2)


def test_fourier_works_in_positive_characteristic():
    f9 = make_field(LaurentField(p=3, f=2))
    grid = build_grid(f9, 1)
    fmat = fourier_matrix(grid)
    assert np.abs(fmat.conj().T @ fmat - np.eye(grid.size)).max() < 1e-12
    ball = (grid.shells <= 0).astype(complex)
    assert np.abs(fmat @ ball - ball).max() < 1e-12


def test_free_model_oracle_in_positive_characteristic(zero_potential):
    f4 = make_field(LaurentField(p=2, f=2))
    grid = build_grid(f4, 2)  # 256 points, q = 4
    model = assemble_hamiltonian(grid, alpha=1.0, a=1.0, potential=zero_potential)
    spectrum = np.linalg.eigvalsh(model.apply(np.eye(grid.size)))
    assert np.abs(spectrum - np.sort(position_diagonal(grid, 1.0))).max() < 1e-10


def test_phase_table_keeps_no_point_coordinates(q3sqrt3):
    grid = build_grid(q3sqrt3, 3)  # its own phase table, apart from the shared fixtures
    fourier_apply(grid, np.ones(grid.size))
    table = verify._phase_table(grid)
    assert "coords" not in vars(table)
    # the step tables hold q**(t+2) numerators each, below 2 * q * N in all
    assert sum(step.size for step in table.steps) < 2 * grid.field.q * grid.size
    f = rand_fn(np.random.default_rng(3), grid.size)
    assert np.abs(fourier_matrix(grid) @ f - fourier_apply(grid, f)).max() < 1e-12


@pytest.mark.parametrize("spec", DENSE_ORACLE_FIELDS, ids=repr)
def test_batch_phases_match_phase_table_at_one(spec):
    # the checks' phase kernel against the Fourier kernel's bilinear form:
    # phase(x) = phase(x * 1), on every grid the dense kernel admits
    field = make_field(spec)
    n = 1
    while field.q ** (2 * n) <= verify.FOURIER_DENSE_CAP:
        grid = build_grid(field, n)
        table = verify._PhaseTable(grid)
        one = field.q ** (n - 1)  # the single digit 1 at exponent 0, position n
        assert grid.point(one) == field.one()
        numerators, den = phase_rows(field, grid.digits, -n)
        assert table.denominator % den == 0
        expected = table.numerators(grid)[:, one]
        assert np.array_equal(numerators * (table.denominator // den), expected), n
        n += 1


# ---------------------------------------------------------------------------
# Shell layout
# ---------------------------------------------------------------------------


def layout_grids(spec):
    """The grids of the field at levels n <= 3 that fit under the grid cap."""
    field = make_field(spec)
    return [build_grid(field, n) for n in (1, 2, 3) if field.q ** (2 * n) <= finite.GRID_CAP_DEFAULT]


@pytest.mark.parametrize("spec", DENSE_ORACLE_FIELDS, ids=repr)
def test_shell_runs_match_digit_rows(spec):
    for grid in layout_grids(spec):
        n, digits = grid.n, grid.digits
        labels = grid.shell_labels()
        assert labels == sorted(labels) and labels[0] == ZERO_SHELL
        runs = [grid.shell_run(k) for k in labels]
        assert [run.start for run in runs] == [0] + [run.stop for run in runs[:-1]]
        assert runs[-1].stop == grid.size
        assert runs[0] == range(grid.zero_index, grid.zero_index + 1)
        assert not digits[0].any()
        for k, run in zip(labels[1:], runs[1:]):
            rows = digits[run.start : run.stop]
            # the first nonzero digit of every row in shell k is at position n - k
            assert (np.argmax(rows != 0, axis=1) == n - int(k)).all(), (n, k)
            assert rows[:, n - int(k)].all(), (n, k)
        assert grid.depth_runs() == runs[::-1]
        assert grid.shell_sizes == {k: len(run) for k, run in zip(labels, runs)}
        # the labels built on first read against the argmax of the digit rows
        first = np.argmax(digits != 0, axis=1)
        expected = np.where(digits.any(axis=1), n - first, ZERO_SHELL)
        assert "shells" not in vars(grid)
        assert np.array_equal(grid.shells, expected) and grid.shells.dtype == np.float64
        for k in range(-n - 1, n + 2):
            assert grid.ball_size(k) == int((expected <= k).sum()), (n, k)
        assert grid.ball_size(ZERO_SHELL) == 1


def test_shell_run_rejects_labels_off_the_grid(grid_n2):
    for k in (-2, 3, 0.5, float("inf")):
        with pytest.raises(ValueError):
            grid_n2.shell_run(k)


@pytest.mark.parametrize(
    "spec, n", [(EisensteinExtension(p=3, e=2), 2), (LaurentField(p=2, f=2), 2)], ids=repr
)
def test_cutoff_matches_shell_mask_at_every_radius(spec, n):
    grid = build_grid(make_field(spec), n)
    rng = np.random.default_rng(11)
    inputs = [
        rand_fn(rng, grid.size),
        rng.standard_normal((grid.size, 3)),
        np.asfortranarray(rand_fn(rng, (grid.size, 2))),
    ]
    for k in (-n - 1, -n, *range(1 - n, n), n, n + 1, ZERO_SHELL):
        for f in inputs:
            mask = (grid.shells <= k).reshape((-1,) + (1,) * (f.ndim - 1))
            out = project_cutoff(grid, k, f)
            assert out.dtype == f.dtype
            assert np.array_equal(out, np.where(mask, f, 0)), k


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_cutoff_at_top_level_is_identity(grid_n2):
    rng = np.random.default_rng(5)
    f = rand_fn(rng, grid_n2.size)
    assert np.array_equal(project_cutoff(grid_n2, grid_n2.n, f), f)


def test_cutoff_removes_outer_shell(grid_n2):
    f = (grid_n2.shells == grid_n2.n).astype(float)
    assert not project_cutoff(grid_n2, grid_n2.n - 1, f).any()


def test_projections_idempotent(grid_n2):
    rng = np.random.default_rng(6)
    f = rand_fn(rng, grid_n2.size)
    for k in range(-1, 2):
        cf = project_cutoff(grid_n2, k, f)
        assert np.array_equal(project_cutoff(grid_n2, k, cf), cf)
        sf = project_smooth(grid_n2, k, f)
        assert np.abs(project_smooth(grid_n2, k, sf) - sf).max() < 1e-14


def test_smooth_fixes_constants(grid_n2):
    f = np.full(grid_n2.size, 2.5 + 1j)
    for k in range(-1, 2):
        assert np.abs(project_smooth(grid_n2, k, f) - f).max() < 1e-15


def test_cutoff_and_smooth_commute_for_nonnegative_k(grid_n2):
    rng = np.random.default_rng(7)
    for k in (0, 1):
        for _ in range(10):
            f = rand_fn(rng, grid_n2.size)
            cs = project_cutoff(grid_n2, k, project_smooth(grid_n2, k, f))
            sc = project_smooth(grid_n2, k, project_cutoff(grid_n2, k, f))
            assert np.abs(cs - sc).max() < 1e-12


def test_fourier_intertwines_cutoff_and_smooth(grid_n2):
    rng = np.random.default_rng(8)
    for k in (-1, 0, 1):
        for _ in range(10):
            f = rand_fn(rng, grid_n2.size)
            lhs = fourier_apply(grid_n2, project_cutoff(grid_n2, k, f))
            rhs = project_smooth(grid_n2, k, fourier_apply(grid_n2, f))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_projections_of_a_block_match_its_columns(grid_n2):
    rng = np.random.default_rng(9)
    block = rand_fn(rng, (grid_n2.size, 3))
    for k in range(-1, 2):
        cut = project_cutoff(grid_n2, k, block)
        smooth = project_smooth(grid_n2, k, block)
        assert cut.shape == smooth.shape == block.shape
        for j in range(3):
            assert np.array_equal(cut[:, j], project_cutoff(grid_n2, k, block[:, j]))
            assert np.abs(smooth[:, j] - project_smooth(grid_n2, k, block[:, j])).max() <= 1e-15


def test_smooth_requires_resolvable_blocks(grid_n2):
    with pytest.raises(ValueError):
        project_smooth(grid_n2, grid_n2.n, np.zeros(grid_n2.size))


# ---------------------------------------------------------------------------
# Zero-cell averages and diagonals
# ---------------------------------------------------------------------------


def test_zero_cell_average_matches_series_oracle(q3sqrt3):
    # direct geometric series: q**n * sum_k w(q**-k) (q**-k - q**-k-1)
    def series(n, c, s, terms=400):
        total = 0.0
        for k in range(n, n + terms):
            total += c * 3.0 ** (-k * s) * (3.0**-k - 3.0 ** (-k - 1))
        return 3.0**n * total

    assert zero_cell_average(q3sqrt3, 1, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert zero_cell_average(q3sqrt3, 1, 1.0) == pytest.approx(series(1, 1, 1), rel=1e-14)
    assert zero_cell_average(q3sqrt3, 2, 2.0) == pytest.approx(1 / 117, rel=1e-14)
    assert zero_cell_average(q3sqrt3, 2, 2.0) == pytest.approx(series(2, 1, 2), rel=1e-14)
    assert zero_cell_average(q3sqrt3, 2, MonomialPotential(c=0.5, s=2.0)) == pytest.approx(
        0.5 / 117, rel=1e-14
    )


def test_zero_cell_average_of_zero_potential(q3sqrt3, zero_potential):
    assert zero_cell_average(q3sqrt3, 2, zero_potential) == 0.0


def test_table_potential_average_matches_monomial(q3sqrt3):
    c, s = 1.0, 2.0
    table = TablePotential(
        values={k: c * 3.0 ** (k * s) for k in range(-60, 4)}, w0=0.0
    )
    mono = zero_cell_average(q3sqrt3, 2, MonomialPotential(c=c, s=s))
    assert zero_cell_average(q3sqrt3, 2, table) == pytest.approx(mono, rel=1e-14)


def test_position_diagonal_values(grid_n2, ho_potential):
    diag = position_diagonal(grid_n2, ho_potential)
    assert diag[grid_n2.shells == 2][0] == pytest.approx(40.5)
    kin = position_diagonal(grid_n2, 2.0)
    for k in (-1, 0, 1, 2):
        assert kin[grid_n2.shells == k][0] == pytest.approx(3.0 ** (2 * k))
    assert kin[grid_n2.zero_index] == pytest.approx(1 / 117)
    kin_pow = position_diagonal(grid_n2, 2.0, ZeroCellConvention.POWER_OF_AVERAGE)
    assert kin_pow[grid_n2.zero_index] == pytest.approx(1 / 144)
    kin_sample = position_diagonal(grid_n2, 2.0, ZeroCellConvention.SAMPLE_AT_ZERO)
    assert kin_sample[grid_n2.zero_index] == 0.0


def test_table_potential_warns_when_not_confining():
    with pytest.warns(NonConfiningPotentialWarning):
        TablePotential(values={0: 5.0, 1: 1.0}, w0=0.0)


def test_potential_warnings_point_at_the_caller():
    # the warning names the line that built the potential, not the dataclass __init__
    with pytest.warns(NonConfiningPotentialWarning) as table:
        TablePotential(values={0: 5.0, 1: 1.0}, w0=0.0)
    with pytest.warns(NonConfiningPotentialWarning) as monomial:
        MonomialPotential(c=0.0, s=1.0)
    assert [record.filename for record in (*table, *monomial)] == [__file__, __file__]


def test_monomial_zero_coefficient_warns():
    with pytest.warns(NonConfiningPotentialWarning):
        MonomialPotential(c=0.0, s=1.0)


def test_table_potential_rejects_a_gap():
    with pytest.raises(ValueError, match="contiguous"):
        TablePotential(values={-1: 1.0, 1: 2.0}, w0=0.0)


def test_table_potential_must_cover_grid(grid_n2):
    table = TablePotential(values={k: float(k + 3) for k in range(-2, 1)}, w0=0.0)
    with pytest.raises(ValueError):
        position_diagonal(grid_n2, table)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


def test_free_model_spectrum_is_kinetic_diagonal(grid_n2, zero_potential):
    model = assemble_hamiltonian(grid_n2, alpha=2.0, a=1.0, potential=zero_potential)
    spectrum = np.linalg.eigvalsh(model.apply(np.eye(grid_n2.size)))
    assert np.abs(spectrum - np.sort(position_diagonal(grid_n2, 2.0))).max() < 1e-10


def test_diagonal_model_when_kinetic_coefficient_vanishes(grid_n2):
    pot = MonomialPotential(c=1.0, s=1.0)
    model = assemble_hamiltonian(grid_n2, alpha=2.0, a=0.0, potential=pot)
    oracle = np.diag(position_diagonal(grid_n2, pot))
    assert np.array_equal(model.apply(np.eye(grid_n2.size)), oracle)
    assert model.max_abs() == np.abs(oracle).max()


def test_assembled_matrix_is_hermitian(canonical_model):
    m = canonical_model.apply(np.eye(canonical_model.size))
    scale = max(1.0, np.abs(m).max())
    assert np.abs(m - m.conj().T).max() / scale < 1e-12
    rows = {check.name: check for check in run_verify(load_config(REPO_CONFIG)).checks}
    assert rows["hamiltonian_hermiticity"].defect < 1e-12
    assert isinstance(canonical_model, HamiltonianModel)
    assert (canonical_model.potential_shells >= 0).all()


def test_assembly_validates_parameters(grid_n1, ho_potential):
    with pytest.raises(ValueError):
        assemble_hamiltonian(grid_n1, alpha=0.0, a=0.5, potential=ho_potential)
    with pytest.raises(ValueError):
        assemble_hamiltonian(grid_n1, alpha=2.0, a=-1.0, potential=ho_potential)


def test_tree_assembly_matches_fourier_operator(grid_n1, grid_n2, ho_potential, fourier_operator):
    rng = np.random.default_rng(11)
    for grid in (grid_n1, grid_n2):
        probes = (rand_fn(rng, grid.size), rand_fn(rng, (grid.size, 3)))
        for convention in ZeroCellConvention:
            for a in (0.0, 0.5):
                model = assemble_hamiltonian(grid, 2.0, a, ho_potential, convention)
                oracle = fourier_operator(model)
                scale = np.abs(oracle).max()
                assert model.max_abs() == pytest.approx(scale, rel=1e-12)
                tol = 1e-12 * scale
                assert np.abs(model.apply(np.eye(grid.size)) - oracle).max() <= tol
                for v in probes:
                    hv = model.apply(v)
                    assert hv.shape == v.shape
                    assert np.abs(hv - oracle @ v).max() <= tol * np.abs(v).sum(axis=0).max()


def test_apply_follows_first_differing_digit(grid_n2, ho_potential):
    # any kernel, including ones whose largest entry lies off the diagonal
    digits = grid_n2.digits
    differ = digits[:, None, :] != digits[None, :, :]
    depth = np.where(differ.any(axis=2), differ.argmax(axis=2), digits.shape[1])
    model = assemble_hamiltonian(grid_n2, 2.0, 0.5, ho_potential)
    rng = np.random.default_rng(12)
    for kernel in (rng.standard_normal(5) * 100, np.array([-500.0, 3.0, 0.0, 2.0, 1.0])):
        model.kernel = kernel
        oracle = kernel[depth] + np.diag(grid_n2.spread_shells(model.potential_shells))
        assert model.max_abs() == np.abs(oracle).max()
        block = rand_fn(rng, (grid_n2.size, 2))
        assert np.abs(model.apply(block) - oracle @ block).max() <= 1e-12 * np.abs(oracle).sum()


# test_tree's grids, and the q = 2 grids of the dense Fourier oracle up to N = 4096
SHELL_APPLY_GRIDS = GRIDS + [
    (spec, n)
    for spec in DENSE_ORACLE_FIELDS
    if make_field(spec).q == 2
    for n in range(1, 7)
    if (spec, n) not in GRIDS
]


@pytest.mark.parametrize("spec, n", SHELL_APPLY_GRIDS, ids=[grid_id(g) for g in SHELL_APPLY_GRIDS])
def test_apply_shells_is_apply_on_shell_constant_functions(spec, n):
    grid = build_grid(make_field(spec), n)
    sizes = list(grid.shell_sizes.values())
    shells = np.random.default_rng(14).standard_normal((2 * n + 1, 3))
    lifted = np.repeat(shells, sizes, axis=0)
    for potential in potentials(n).values():
        for convention in ZeroCellConvention:
            for a in (0.75, 0.0):
                model = assemble_hamiltonian(grid, 1.5, a, potential, convention)
                out = model.apply_shells(shells)
                assert out.shape == shells.shape
                tol = 1e-13 * max(1.0, model.max_abs())
                assert np.abs(np.repeat(out, sizes, axis=0) - model.apply(lifted)).max() <= tol
                single = model.apply_shells(shells[:, 1])
                assert single.shape == (2 * n + 1,)
                assert np.abs(single - out[:, 1]).max() <= tol


def test_assembly_memory_is_linear_in_grid_size(q3sqrt3, ho_potential):
    grid = build_grid(q3sqrt3, 4)  # N = 6561; one dense N x N float64 matrix is 344 MB
    tracemalloc.start()
    try:
        assemble_hamiltonian(grid, alpha=2.0, a=0.5, potential=ho_potential)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.size**2 / 10

    # shell data only: no digit matrix, phase table or Fourier transform
    tracemalloc.start()
    try:
        assemble_hamiltonian(build_grid(q3sqrt3, 6), alpha=2.0, a=0.5, potential=ho_potential)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hermiticity_defect_raises(grid_n1, ho_potential, perturbed_kernel, tmp_path, capsys):
    # a kernel off the Fourier operator by 1e-6 fails the residual gate at n = 1 and 2
    from ultraspec.cli import main

    with pytest.raises(ResidualTooLarge):
        eigensolve(assemble_hamiltonian(grid_n1, 2.0, 0.5, ho_potential))
    assert main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(tmp_path)]) == 3
    assert "residual" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("perturbed_kernel", [np.nan], indirect=True)
def test_nan_kernel_raises_no_convergence(
    grid_n1, ho_potential, perturbed_kernel, tmp_path, capsys
):
    from ultraspec.cli import main

    with pytest.raises(NoConvergence):
        eigensolve(assemble_hamiltonian(grid_n1, 2.0, 0.5, ho_potential))
    assert main(["spectrum", "--config", str(REPO_CONFIG), "--out", str(tmp_path)]) == 3
    assert "numerical failure: eigensolver failed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
