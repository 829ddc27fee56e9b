"""Spectral analysis of the finite models.

The eigenpairs come from the tree structure of H_n (see ``finite``): the
kinetic entry between two points depends only on the first digit position
where they differ, and the potential is constant on shells, each shell a
union of subtrees hanging off the path to 0.  So H_n splits exactly into
the (2n+1)-dimensional radial block on the shell-constant functions and
Haar wavelets, which are eigenvectors in closed form and lie on a single
shell each.  This is the finite form of the result that p-adic wavelets
diagonalize Vladimirov operators (S. V. Kozyrev, "Wavelet theory as p-adic
spectral analysis", Izv. Math. 66, 2002).

On top of that, eigenvalues are grouped into multiplicity clusters,
degenerate radial eigenspaces are rotated onto a shell-adapted basis (the
shell projections restricted to the span are jointly block-diagonalized to
make the shell structure reproducible), eigenvectors are classified as
radial / shell / mixed, and clusters are tracked across grid levels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NoConvergence, NotAnEigenspace, ResidualTooLarge
from .finite import (
    Grid,
    HamiltonianModel,
    ZERO_SHELL,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
)

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "DEFAULT_RADIAL_TOL",
    "DEFAULT_SHELL_TOL",
    "DEFAULT_RESIDUAL_TOL",
    "Radial",
    "Shell",
    "Mixed",
    "Classification",
    "EigenCluster",
    "SpectrumReport",
    "TrajectoryStep",
    "Trajectory",
    "ConvergenceTrace",
    "eigensolve",
    "cluster_eigenvalues",
    "classify_eigenvector",
    "shell_adapt",
    "embed_function",
    "convergence_report",
]

DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_RADIAL_TOL = 1e-8
DEFAULT_SHELL_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-9
EIGENSPACE_TOL = 1e-6  # shell_adapt's relative eigen-residual bound
MATCH_WINDOW = 0.5  # convergence_report's largest cluster drift between levels


# ---------------------------------------------------------------------------
# Classifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Radial:
    """Constant on every shell; carries the worst within-shell deviation."""

    max_deviation: float
    profile: dict

    kind = "radial"

    def label(self) -> str:
        return "radial"


@dataclass(frozen=True)
class Shell:
    """Supported on a single shell k up to ``leakage`` of squared norm."""

    k: float
    leakage: float
    profile: dict

    kind = "shell"

    def label(self) -> str:
        return f"shell({_format_shell(self.k)})"


@dataclass(frozen=True)
class Mixed:
    """Neither radial nor single-shell; carries the squared-norm profile."""

    profile: dict

    kind = "mixed"

    def label(self) -> str:
        return "mixed"


Classification = Union[Radial, Shell, Mixed]


def _format_shell(k: float) -> str:
    return "-inf" if k == ZERO_SHELL else str(int(k))


def classify_eigenvector(
    grid: Grid,
    v: np.ndarray,
    radial_tol: float = DEFAULT_RADIAL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
) -> Classification:
    """Classify a normalized eigenvector by its shell support.

    Shell(k) when at least 1 - shell_tol of the squared norm sits on one
    shell; otherwise Radial when the values deviate from their shell means
    by at most radial_tol on every shell; otherwise Mixed.
    """
    v = np.asarray(v)
    norms = {}
    for k in grid.shell_labels():
        norms[k] = float((np.abs(v[grid.shells == k]) ** 2).sum())
    total = sum(norms.values())
    profile = {k: val / total for k, val in norms.items()}
    top = max(profile, key=profile.get)
    if profile[top] >= 1.0 - shell_tol:
        return Shell(k=top, leakage=1.0 - profile[top], profile=profile)
    max_dev = 0.0
    for k in grid.shell_labels():
        vals = v[grid.shells == k]
        max_dev = max(max_dev, float(np.abs(vals - vals.mean()).max()))
    if max_dev <= radial_tol:
        return Radial(max_deviation=max_dev, profile=profile)
    return Mixed(profile=profile)


# ---------------------------------------------------------------------------
# Eigenvalue clustering
# ---------------------------------------------------------------------------


@dataclass
class EigenCluster:
    """A run of numerically equal eigenvalues."""

    rep: float  # first member, the joining reference
    indices: list
    mean: float

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


def cluster_eigenvalues(values: Sequence[float], cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Greedy left-to-right clustering of an ascending eigenvalue list.

    A value joins the open cluster iff it lies within
    cluster_tol * max(1, |rep|) of the cluster's first member.
    """
    clusters = []
    for i, val in enumerate(values):
        val = float(val)
        if clusters:
            rep = clusters[-1].rep
            if abs(val - rep) <= cluster_tol * max(1.0, abs(rep)):
                clusters[-1].indices.append(i)
                continue
        clusters.append(EigenCluster(rep=val, indices=[i], mean=val))
    for c in clusters:
        c.mean = float(np.mean([values[i] for i in c.indices]))
    return clusters


# ---------------------------------------------------------------------------
# Shell adaptation of degenerate clusters
# ---------------------------------------------------------------------------


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive, in one array pass.

    Ties resolve to the lowest index; a zero column is left as it is.
    """
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    nonzero = pivots != 0
    scale = np.ones_like(pivots)
    scale[nonzero] = np.abs(pivots[nonzero]) / pivots[nonzero]
    return vectors * scale


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
    ``model.apply``: an eigen-residual above EIGENSPACE_TOL * max(1, |lambda|)
    raises NotAnEigenspace.
    """
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[:, None]
    m = v.shape[1]
    if model is not None:
        hv = model.apply(v)
        rayleigh = np.real(np.einsum("ij,ij->j", v.conj(), hv))
        lam = float(rayleigh.mean())
        residual = float(np.linalg.norm(hv - lam * v, axis=0).max())
        if residual > EIGENSPACE_TOL * max(1.0, abs(lam)):
            raise NotAnEigenspace(
                f"eigen-residual {residual:.3e} at lambda = {lam:.6g} exceeds tolerance"
            )
    if m == 1:
        return _fix_phases(v)
    basis = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=True)
    blocks = [list(range(m))]
    for k in grid.shell_labels():
        mask = grid.shells == k
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            sub = basis[:, block]
            restricted = sub.conj().T @ (mask[:, None] * sub)
            restricted = (restricted + restricted.conj().T) / 2
            eigvals, rot = np.linalg.eigh(restricted)
            basis[:, block] = sub @ rot
            start = 0
            for j in range(1, len(block) + 1):
                if j == len(block) or eigvals[j] - eigvals[start] > split_tol:
                    new_blocks.append(block[start:j])
                    start = j
        blocks = new_blocks
    return _fix_phases(basis)


# ---------------------------------------------------------------------------
# Full spectrum report
# ---------------------------------------------------------------------------


@dataclass
class SpectrumReport:
    """Eigendecomposition plus clustering; per-vector classifications on first read.

    ``classifications`` runs ``classify_eigenvector`` on every column with
    the report's ``radial_tol`` and ``shell_tol`` (those ``eigensolve`` was
    given) the first time it is read, and keeps the list.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, phase-fixed
    residuals: np.ndarray
    clusters: list
    grid: Grid
    radial_tol: float = DEFAULT_RADIAL_TOL
    shell_tol: float = DEFAULT_SHELL_TOL

    @cached_property
    def classifications(self) -> list:
        vectors, grid = self.eigenvectors, self.grid
        return [
            classify_eigenvector(grid, vectors[:, i], self.radial_tol, self.shell_tol)
            for i in range(grid.size)
        ]

    def cluster_kind(self, cluster: EigenCluster) -> str:
        kinds = {self.classifications[i].kind for i in cluster.indices}
        if kinds == {"radial"}:
            return "radial"
        if "radial" not in kinds:
            return "shell"
        return "mixed"

    def summary_rows(self):
        """(mean value, multiplicity, kind) per cluster, ascending."""
        return [(c.mean, c.multiplicity, self.cluster_kind(c)) for c in self.clusters]


def _zero_sum_basis(m: int) -> np.ndarray:
    """Orthonormal Helmert basis (m x (m-1)) of the zero-sum vectors in R**m."""
    basis = np.zeros((m, m - 1))
    for k in range(1, m):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -k
        basis[:, k - 1] /= np.sqrt(k * (k + 1))
    return basis


def _tree_eigensystem(model: HamiltonianModel):
    """Eigenpairs of H_n from its tree structure, ascending.

    With c = model.kernel, depths d = 0..2n (shell n - d, the zero cell at
    2n), shell sizes m_d and S_d = sum_{s>=d} m_s c_s (the kinetic row sum
    over a depth-d subtree), the spectrum is the union of
      * the radial block P^T H P on the normalized shell indicators P:
        sqrt(m_d m_e) c_min(d,e) off the diagonal, and
        S_{d+1} + (q-2) q**(2n-d-1) c_d + v_d on it (c_2n + v_2n at zero);
      * Haar wavelets on the children of every tree node at depth d < 2n,
        with eigenvalue S_{d+1} - c_d q**(2n-d-1) + v(shell): q - 1 per node
        off the path to 0, and q - 2 per node on it (those spanning the
        nonzero children only; the rest of that node is radial).
    Returns the eigenvalues, the eigenvectors as columns and a mask of the
    radial (shell-constant) columns.
    """
    grid = model.grid
    q, n, size = grid.field.q, grid.n, grid.size
    width = 2 * n
    c = model.kernel
    pot = model.potential_diagonal
    reps = grid.depth_representatives()
    v = pot[reps]
    m = np.array([grid.shell_sizes[k] for k in grid.shells[reps]], dtype=np.float64)
    row_sums = np.cumsum((m * c)[::-1])[::-1]  # S_d

    depths = np.arange(width + 1)
    radial_block = np.sqrt(np.outer(m, m)) * c[np.minimum.outer(depths, depths)]
    for d in range(width):
        radial_block[d, d] = row_sums[d + 1] + (q - 2) * q ** (width - d - 1) * c[d] + v[d]
    radial_block[width, width] = c[width] + v[width]
    try:
        radial_values, radial_vectors = np.linalg.eigh(radial_block)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc

    vectors = np.zeros((size, size))
    values = []
    col = 0
    for d in range(width):
        child = q ** (width - d - 1)
        node = q * child
        wavelet = row_sums[d + 1] - c[d] * child
        # node 0 (the zero path): wavelets on its nonzero children, shell n - d
        template = np.vstack([np.zeros((1, q - 2)), _zero_sum_basis(q - 1)])
        vectors[:node, col : col + q - 2] = np.repeat(template, child, axis=0) / np.sqrt(child)
        values.append(np.full(q - 2, wavelet + v[d]))
        col += q - 2
        # nodes 1 .. q**d - 1 lie inside one shell each
        nodes = np.arange(1, q**d)
        block = np.repeat(_zero_sum_basis(q), child, axis=0) / np.sqrt(child)
        rows = nodes[:, None] * node + np.arange(node)
        cols = col + (nodes[:, None] - 1) * (q - 1) + np.arange(q - 1)
        vectors[rows[:, :, None], cols[:, None, :]] = block
        values.append(np.repeat(wavelet + pot[nodes * node], q - 1))
        col += nodes.size * (q - 1)
    point_depth = np.where(grid.shells == ZERO_SHELL, width, n - grid.shells).astype(np.int64)
    vectors[:, col:] = radial_vectors[point_depth] / np.sqrt(m[point_depth])[:, None]
    values.append(radial_values)
    radial = np.arange(size) >= col

    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    # take keeps the columns in C order, which model.apply sums fastest
    return values[order], np.take(vectors, order, axis=1), radial[order]


def eigensolve(
    model: HamiltonianModel,
    tol: float = DEFAULT_RESIDUAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    radial_tol: float = DEFAULT_RADIAL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
) -> SpectrumReport:
    """Eigendecomposition by the exact tree reduction, with residual enforcement.

    The eigenpairs are the radial block's, lifted to the grid, and the
    closed-form Haar wavelets (see ``_tree_eigensystem``); with a = 0 they
    are the point basis sorted by potential.  Eigenvectors are
    Euclidean-normalized and phase-fixed (largest entry real positive, ties
    to the lowest index).  Residuals ||Hv - lambda v||, with H applied by
    ``model.apply``, are checked against tol * max(1, max|H|) * size; a NaN
    residual fails the check.  Shell adaptation then rotates the radial
    members of each cluster; wavelets and point vectors lie on a single
    shell already.  Rotating inside a cluster moves residuals by at most the
    cluster width.  ``radial_tol`` and ``shell_tol`` are kept on the report,
    which classifies the eigenvectors only when its ``classifications`` are
    first read.
    """
    if model.kinetic_coeff == 0:
        order = np.argsort(model.potential_diagonal, kind="stable")
        eigenvalues = model.potential_diagonal[order]
        eigenvectors = np.eye(model.size)[:, order]
        radial = np.zeros(model.size, dtype=bool)
    else:
        eigenvalues, eigenvectors, radial = _tree_eigensystem(model)
    hv = model.apply(eigenvectors)
    hv -= eigenvectors * eigenvalues
    residuals = np.linalg.norm(hv, axis=0)
    del hv  # so the phase pass below holds at most two dense arrays
    scale = max(1.0, model.max_abs())
    threshold = tol * scale * model.size
    worst = float(residuals.max())
    if not worst <= threshold:  # a NaN residual fails too
        raise ResidualTooLarge(f"residual {worst:.3e} exceeds {threshold:.3e}")
    eigenvectors = _fix_phases(eigenvectors)
    clusters = cluster_eigenvalues(eigenvalues, cluster_tol)
    for cluster in clusters:
        idx = [i for i in cluster.indices if radial[i]]
        if len(idx) > 1:
            eigenvectors[:, idx] = shell_adapt(
                model.grid, eigenvectors[:, idx], split_tol=max(shell_tol, 1e-9)
            )
    return SpectrumReport(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        residuals=residuals,
        clusters=clusters,
        grid=model.grid,
        radial_tol=radial_tol,
        shell_tol=shell_tol,
    )


# ---------------------------------------------------------------------------
# Cross-level embedding and convergence traces
# ---------------------------------------------------------------------------


def embed_function(grid_from: Grid, grid_to: Grid, values) -> np.ndarray:
    """Lift an (N,) or (N, k) level-n grid function to a level m > n; the shape is kept.

    Constant on refined cells (the digits at exponents n..m-1 are dropped),
    zero outside the level-n ball (where a digit at an exponent below -n is
    set), each column rescaled to unit Euclidean norm; a zero column stays
    zero and a real array stays real.
    """
    gap = grid_to.n - grid_from.n
    if gap < 1:
        raise ValueError("embedding goes from a lower level to a higher one")
    digits = grid_to.digits
    parent = digits[:, gap : gap + 2 * grid_from.n] @ grid_from._weights
    out = np.asarray(values)[parent]
    out[digits[:, :gap].any(axis=1)] = 0
    norms = np.linalg.norm(out, axis=0)
    return out / np.where(norms > 0, norms, 1.0)


@dataclass
class TrajectoryStep:
    """One level of a trajectory; ``drift`` and ``alignment`` are None on the first step.

    ``alignment`` is the largest distance from a vector of the previous
    cluster's basis, lifted to this level, to the span of this cluster.
    """

    level: int
    value: float
    multiplicity: int
    drift: Optional[float]  # |value - previous value|
    alignment: Optional[float]


@dataclass
class Trajectory:
    steps: list

    @property
    def start_level(self) -> int:
        return self.steps[0].level

    @property
    def values(self):
        return [s.value for s in self.steps]


@dataclass
class LevelClusters:
    level: int
    clusters: list  # (mean value, multiplicity) pairs
    lowest_eigenvalue: float


@dataclass
class ConvergenceTrace:
    levels: list
    per_level: list  # LevelClusters, ascending levels
    trajectories: list
    warnings: list


def convergence_report(
    field,
    alpha: float,
    a: float,
    potential,
    levels: Sequence[int],
    convention=ZeroCellConvention.AVERAGE_OF_POWER,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    ground_state_bound: Optional[float] = None,
    grid_cap: Optional[int] = None,
) -> ConvergenceTrace:
    """Run the spectral pipeline at several levels and match clusters.

    Matching is greedy nearest-value within MATCH_WINDOW between consecutive
    configured levels, which need not be consecutive integers.  The
    alignment of a matched pair is the largest distance from an embedded
    basis vector of the old cluster to the span of the new one (see
    ``_cluster_alignment``).  Only the clusters and eigenvectors of each
    level are read, so no eigenvector is classified.
    """
    levels = sorted(set(int(n) for n in levels))
    if not levels:
        raise ValueError("need at least one level")
    build_kwargs = {} if grid_cap is None else {"cap": grid_cap}
    per_level = []
    trace_warnings = []
    trajectories = []
    open_pairs = []  # (open trajectory, its cluster at the previous level)
    prev_report = None
    for n in levels:
        grid = build_grid(field, n, **build_kwargs)
        model = assemble_hamiltonian(grid, alpha, a, potential, convention)
        report = eigensolve(
            model,
            tol=residual_tol,
            cluster_tol=cluster_tol,
            shell_tol=shell_tol,
        )
        lowest = float(report.eigenvalues[0])
        per_level.append(
            LevelClusters(
                level=n,
                clusters=[(c.mean, c.multiplicity) for c in report.clusters],
                lowest_eigenvalue=lowest,
            )
        )
        if ground_state_bound is not None and not 0.0 < lowest < ground_state_bound:
            message = (
                f"ground state {lowest:.6f} at level {n} outside (0, {ground_state_bound:.6f})"
            )
            trace_warnings.append(message)
            warnings.warn(message, stacklevel=2)

        matches = {}  # cluster index at this level -> (trajectory, its previous cluster)
        for traj, last in sorted(open_pairs, key=lambda pair: pair[1].mean):
            best, best_dist = None, MATCH_WINDOW
            for ci, cluster in enumerate(report.clusters):
                if ci in matches:
                    continue
                dist = abs(cluster.mean - last.mean)
                if dist <= best_dist:
                    best, best_dist = ci, dist
            if best is not None:
                matches[best] = (traj, last)
        open_pairs = []
        for ci, cluster in enumerate(report.clusters):
            if ci in matches:
                traj, last = matches[ci]
                traj.steps.append(
                    TrajectoryStep(
                        level=n,
                        value=cluster.mean,
                        multiplicity=cluster.multiplicity,
                        drift=abs(cluster.mean - last.mean),
                        alignment=_cluster_alignment(prev_report, report, last, cluster),
                    )
                )
            else:
                traj = Trajectory(
                    steps=[TrajectoryStep(n, cluster.mean, cluster.multiplicity, None, None)]
                )
                trajectories.append(traj)
            open_pairs.append((traj, cluster))
        prev_report = report
    trajectories.sort(key=lambda t: (t.start_level, t.steps[0].value))
    return ConvergenceTrace(
        levels=levels,
        per_level=per_level,
        trajectories=trajectories,
        warnings=trace_warnings,
    )


def _cluster_alignment(prev_report, cur_report, prev_cluster, cluster) -> float:
    """Largest distance from the embedded old cluster basis to the new cluster's span.

    The old eigenvectors are lifted to the new level in one step, and
    each column's residual after projection onto the new cluster's
    orthonormal basis B is taken: max_j ||E_j - B (B^H E_j)||.
    """
    embedded = embed_function(
        prev_report.grid, cur_report.grid, prev_report.eigenvectors[:, prev_cluster.indices]
    )
    basis = cur_report.eigenvectors[:, cluster.indices]
    embedded -= basis @ (basis.conj().T @ embedded)
    return float(np.linalg.norm(embedded, axis=0).max())
