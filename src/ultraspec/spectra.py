"""Spectral analysis of the finite models.

The eigenpairs come from the tree structure of H_n (see ``finite``): the
kinetic entry between two points depends only on the first digit position
where they differ, and the potential is constant on shells, each shell a
union of subtrees hanging off the path to 0.  So H_n splits exactly into
the (2n+1)-dimensional radial block on the shell-constant functions and
Haar wavelets, which are eigenvectors in closed form and lie on a single
shell each.  This is the finite form of the result that p-adic wavelets
diagonalize Vladimirov operators (S. V. Kozyrev, "Wavelet theory as p-adic
spectral analysis", Izv. Math. 66, 2002): a wavelet's eigenvalue is the
symbol a |xi|**alpha on its dual shell plus the potential on its own, read
off the model, so equal ones tie exactly, in a fixed order.

The solver keeps that structure in its ``SpectrumReport``, one store of
families: the wavelets of one (depth, shell) each, with one eigenvalue, a
multiplicity and a q-point template, and each radial eigenvector as one
column with a (2n+1)-row template by shell; at a = 0 the point basis.
Everything runs on it with no array of N rows: each family's one residual
is read off its template, in O(q n) for a wavelet; families are sorted and
grouped into multiplicity clusters as (value, count) units, each cluster's
mean the exact mean of its units rounded once; degenerate
radial clusters are rotated by shell onto a shell-adapted basis (the shell
projections restricted to the span jointly block-diagonalized); each
family is classified once, off its template, as radial or shell, and a
cluster as radial, shell or mixed; and clusters are tracked across grid
levels.  A cluster's block of eigenvectors is built from the families on
its own, the N eigenvalues and the N x N matrix only when a caller reads them.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NoConvergence, ResidualTooLarge
from .finite import (
    GRID_CAP_DEFAULT,
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
    "Classification",
    "EigenCluster",
    "SpectrumReport",
    "TrajectoryStep",
    "Trajectory",
    "ConvergenceTrace",
    "eigensolve",
    "cluster_eigenvalues",
    "classify_family",
    "embed_function",
    "convergence_report",
]

DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_RADIAL_TOL = 1e-8
DEFAULT_SHELL_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-9
MATCH_WINDOW = 0.5  # convergence_report's largest cluster drift between levels


# ---------------------------------------------------------------------------
# Classifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Radial:
    """Constant on every shell: read off a radial template, whose rows are the shells."""

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


Classification = Union[Radial, Shell]


def _format_shell(k: float) -> str:
    return "-inf" if k == ZERO_SHELL else str(int(k))


# ---------------------------------------------------------------------------
# Eigenvalue clustering
# ---------------------------------------------------------------------------


@dataclass
class EigenCluster:
    """A run of numerically equal eigenvalues: the consecutive sorted columns ``indices``."""

    rep: float  # first member, the joining reference
    indices: range
    mean: float  # the correctly rounded mean of the columns' values, from the units

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


def cluster_eigenvalues(
    values: Sequence[float], counts: Sequence[int], cluster_tol: float = DEFAULT_CLUSTER_TOL
):
    """Greedy left-to-right clustering of an ascending list of values, value i on counts[i] columns.

    A value joins the open cluster iff it lies within
    cluster_tol * max(1, |rep|) of the cluster's first member, a test that
    only fails further along the list, so each cluster's end is found by
    bisection, and its ``indices`` are the columns of its values.  The mean
    is the exact sum of value * count over the cluster's units divided by
    its column count, rounded once: the correctly rounded mean of its
    columns, so a cluster of equal values has exactly their value, and no
    cluster is expanded to its columns.  A list not ascending or not finite,
    or not one count of at least 1 per value, raises ValueError.
    """
    values, counts = np.asarray(values, dtype=np.float64), np.asarray(counts)
    ascending = np.isfinite(values).all() and (values[1:] >= values[:-1]).all()
    if not ascending or counts.shape != values.shape or (counts < 1).any():
        raise ValueError("cluster_eigenvalues takes ascending finite values, each a count >= 1")
    ends = list(accumulate(counts.tolist(), initial=0))  # each value's first column
    clusters = []
    start = 0
    while start < values.size:
        rep = float(values[start])
        bound = cluster_tol * max(1.0, abs(rep))
        stop = bisect.bisect_right(values, False, start + 1, key=lambda v: abs(v - rep) > bound)
        units = zip(values[start:stop].tolist(), counts[start:stop].tolist())
        mean = float(sum(Fraction(v) * c for v, c in units) / (ends[stop] - ends[start]))
        clusters.append(EigenCluster(rep, range(ends[start], ends[stop]), mean))
        start = stop
    return clusters


# ---------------------------------------------------------------------------
# Shell adaptation of degenerate clusters
# ---------------------------------------------------------------------------


def _phase_scale(vectors: np.ndarray) -> np.ndarray:
    """|p| / p per column, p its largest-magnitude entry (ties to the lowest index); 1 if zero."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    nonzero = pivots != 0
    scale = np.ones_like(pivots)
    scale[nonzero] = np.abs(pivots[nonzero]) / pivots[nonzero]
    return scale


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive, in one array pass.

    Ties resolve to the lowest index; a zero column is left as it is.
    """
    return vectors * _phase_scale(vectors)


def _refine_on_runs(basis: np.ndarray, runs, split_tol: float) -> np.ndarray:
    """Jointly block-diagonalize the row ``runs``' projectors on the span of ``basis``, in place.

    Each run restricts to a Hermitian matrix on every block of columns not
    yet split; its eigenvectors rotate the block, which splits where their
    eigenvalues differ by more than ``split_tol``.
    """
    blocks = [list(range(basis.shape[1]))]
    for run in runs:
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            sub = basis[:, block]
            rows = sub[run.start : run.stop]
            restricted = rows.conj().T @ rows
            restricted = (restricted + restricted.conj().T) / 2
            eigvals, rot = np.linalg.eigh(restricted)
            basis[:, block] = sub @ rot
            start = 0
            for j in range(1, len(block) + 1):
                if j == len(block) or eigvals[j] - eigvals[start] > split_tol:
                    new_blocks.append(block[start:j])
                    start = j
        blocks = new_blocks
    return basis


# ---------------------------------------------------------------------------
# Full spectrum report
# ---------------------------------------------------------------------------


@dataclass
class VectorFamily:
    """The eigenvectors of one value and one template, on consecutive depth-``depth`` tree nodes.

    A depth-d node holds q**(2n-d) points, and on it a vector is a
    ``template`` column with each row repeated ``repeats`` times (a count,
    or one per row).  The template carries the phase signs, and
    ``off_support`` the signed zero each column holds off its node (a
    negated column holds -0.0).  The columns are the ``multiplicity``
    consecutive ones of the sorted spectrum from ``start``, node by node
    from ``first_node``.  Every vector lies on ``shell``, if it has one
    (see ``classify_family``).  Wavelets: with e = n - shell the depth of
    the nodes' first nonzero digit, the nodes are the (q - 1) q**(d-e-1)
    ids from q**(d-e-1) when e < d, with q - 1 wavelets each, q rows
    repeated over one child each; when e = d the family is node 0 alone,
    on the path to 0, whose q - 2 wavelets span its nonzero children only.
    At a = 0 a family is the point basis of one shell run: identity
    template columns on nodes of q points (the zero cell and shell 1 - n
    split node 0).  A radial eigenvector, or a dense one, is one column on
    node 0 at depth 0 with no shell; a radial template has a row per shell
    in index order, repeated over the shell.
    """

    depth: int
    shell: Optional[float]
    value: float
    multiplicity: int
    first_node: int
    template: np.ndarray  # (rows, vectors per node)
    off_support: np.ndarray  # (vectors per node,)
    repeats: Union[int, np.ndarray]
    start: int = 0  # set once the spectrum is sorted
    residual: float = 0.0  # the largest ||Hv - lambda v|| of its vectors, set by the gate


def classify_family(family: VectorFamily, labels: list, shell_tol: float) -> Classification:
    """The one classification of every vector of ``family``, read off its template.

    With a shell it is Shell(k) with the exact profile (1.0 on k, 0.0 on
    every other shell).  A radial template has a row u_k per shell k of
    ``labels``, repeated m_k times: its profile is m_k u_k**2 / sum_j m_j
    u_j**2, Shell(top) if the top share is at least 1 - shell_tol, else
    Radial.  Any other template with no shell raises ValueError.
    """
    if family.shell is not None:
        profile = {k: 1.0 if k == family.shell else 0.0 for k in labels}
        return Shell(k=family.shell, leakage=0.0, profile=profile)
    if family.template.shape != (len(labels), 1):
        raise ValueError(f"a radial template is one column of {len(labels)} rows, one per shell")
    weights = (np.asarray(family.repeats) * np.abs(family.template[:, 0]) ** 2).tolist()
    total = sum(weights)
    profile = {k: w / total for k, w in zip(labels, weights)}
    top = max(profile, key=profile.get)
    if profile[top] >= 1.0 - shell_tol:
        return Shell(k=top, leakage=1.0 - profile[top], profile=profile)
    return Radial(profile=profile)


class SpectrumReport:
    """The sorted spectrum as families, each one value with its vectors and residual, and clusters.

    Each sorted column is a vector of exactly one of the ``families`` (see
    VectorFamily), which the report holds in column order; families that do
    not cover every column once raise ValueError.  ``placement`` says where
    a family's columns lie, and ``columns(span)`` builds any run of sorted
    columns from it, such as a cluster's ``indices``.  ``eigenvectors``, the
    dense N x N matrix of orthonormal, phase-fixed columns in spectrum
    order, is ``columns(range(N))``, built the first time it is read and
    then kept; no command reads it (the ``spectrum`` bundle is written from
    each family's ``placement``).  So are ``eigenvalues``, each family's
    value repeated over its columns, and ``family_classifications``, one
    per family with the report's ``shell_tol`` (see ``classify_family``),
    which ``summary_rows`` reads; each column shares its family's.
    """

    def __init__(
        self,
        families: Sequence[VectorFamily],
        clusters: list,
        grid: Grid,
        shell_tol: float = DEFAULT_SHELL_TOL,
    ):
        self.families = sorted(families, key=lambda f: (f.start, f.multiplicity))
        self.clusters = clusters
        self.grid = grid
        self.shell_tol = shell_tol
        self._starts = [f.start for f in self.families]
        # each family starts where the one before it stops, and the last stops at N
        if self._starts + [grid.size] != [0, *accumulate(f.multiplicity for f in self.families)]:
            raise ValueError("the families must cover each of the N sorted columns exactly once")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.repeat([f.value for f in self.families], [f.multiplicity for f in self.families])

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return self.columns(range(self.grid.size))

    def placement(self, family: VectorFamily, span: range):
        """Where ``family``'s sorted columns in ``span`` lie: ``(columns, node, starts, wavelets)``.

        Column ``columns[i]`` is template column ``wavelets[i]``, each row
        repeated ``repeats`` times, on the ``node`` rows from ``starts[i]``,
        and ``off_support[wavelets[i]]`` on every other row.
        """
        f = family
        columns = range(max(span.start, f.start), min(span.stop, f.start + f.multiplicity))
        node = self.grid.size // self.grid.field.q**f.depth
        offsets = np.arange(columns.start, columns.stop) - f.start
        nodes, wavelets = np.divmod(offsets, f.template.shape[1])
        return columns, node, (f.first_node + nodes) * node, wavelets

    def columns(self, span: range) -> np.ndarray:
        """The sorted columns ``span``, any run of them, column-major; a cut family in part."""
        lo, hi = span.start, span.stop
        dtype = np.result_type(*{f.template.dtype for f in self.families})
        vectors = np.empty((self.grid.size, len(span)), dtype, order="F")
        first = bisect.bisect_right(self._starts, lo) - 1  # the families that meet the span
        last = bisect.bisect_left(self._starts, hi) if hi > lo else first
        for f in self.families[first:last]:
            cols, node, starts, wavelets = self.placement(f, span)
            block = np.repeat(f.template, f.repeats, axis=0)  # the vectors on one node
            vectors[:, cols.start - lo : cols.stop - lo] = f.off_support[wavelets]
            at = np.arange(cols.start - lo, cols.stop - lo)
            vectors[starts + np.arange(node)[:, None], at] = block[:, wavelets]
        return vectors

    @cached_property
    def family_classifications(self) -> list:
        labels = self.grid.shell_labels()
        return [classify_family(f, labels, self.shell_tol) for f in self.families]

    def cluster_kind(self, cluster: EigenCluster) -> str:
        span, starts = cluster.indices, self._starts
        first = bisect.bisect_right(starts, span.start) - 1
        last = bisect.bisect_left(starts, span.stop)
        kinds = {c.kind for c in self.family_classifications[first:last]}
        if "radial" not in kinds:
            return "shell"
        return "radial" if kinds == {"radial"} else "mixed"

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


def _fold_phases(template: np.ndarray):
    """The template phase-fixed, and the signed zero (0.0 or -0.0) each fix writes off it."""
    scale = _phase_scale(template)
    return template * scale, 0.0 * scale


def _tree_eigensystem(model: HamiltonianModel):
    """The eigenvector families of H_n from its tree structure, each with its first sorted column.

    With c = model.kernel, depths d = 0..2n (shell n - d, the zero cell at
    2n), sizes m_d, potentials v_d and symbols sigma_d = a |xi|**alpha on
    shell d + 1 - n (sigma_2n = 0), the spectrum is the union of
      * the radial block P^T H P on the normalized shell indicators P:
        sqrt(m_d m_e) c_min(d,e), plus sigma_d + v_d on the diagonal;
      * Haar wavelets on the children of every tree node at depth d < 2n,
        with eigenvalue sigma_d + v(shell): q - 1 per node off the path to
        0, and q - 2 per node on it (those spanning the nonzero children
        only; the rest of that node is radial).
    Each radial eigenvector is a one-column family (see VectorFamily),
    phase-fixed by shell.  At a = 0 there is no radial block: H = diag(pot)
    is constant on each shell run, and the families are the point basis.
    The families, each one value repeated, are sorted as units, stably in
    the order: per depth, node 0 and then the other nodes by id, then the
    radial eigenvectors by value; each family's ``start`` is set to its
    first sorted column, and they are returned in the order above.  Equal
    sums sigma_d + v_e tie exactly and keep that order inside their cluster.
    """
    grid = model.grid
    q, n = grid.field.q, grid.n
    width = 2 * n
    c = model.kernel
    families = []
    if model.kinetic_coeff == 0:
        for k, value in zip(grid.shell_labels(), model.potential_shells):
            run = grid.shell_run(k)
            template = np.eye(q)[:, run.start % q :][:, : len(run)]
            first, zeros = run.start // q, np.zeros(template.shape[1])
            families.append(VectorFamily(width - 1, k, value, len(run), first, template, zeros, 1))
    else:
        v = model.potential_shells[::-1]  # by depth: shell n - d, zero cell last
        # the symbol a |xi|**alpha on shell d + 1 - n, index-order shell d + 1; 0 at zero
        symbol = np.append(model.kinetic_coeff * model.kinetic_shells[1:], 0.0)
        sizes = [len(run) for run in grid.depth_runs()]
        m = np.array(sizes, dtype=np.float64)

        depths = np.arange(width + 1)
        radial_block = np.sqrt(np.outer(m, m)) * c[np.minimum.outer(depths, depths)]
        radial_block[depths, depths] += symbol + v
        try:
            radial_values, radial_vectors = np.linalg.eigh(radial_block)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"eigensolver failed: {exc}") from exc

        # Helmert bases with their phases fixed; node 0 on the path to 0 leaves out
        # its zero child.  Scaling by 1/sqrt(child) moves no pivot and commutes
        # with the sign flips, so each depth's template is its basis scaled.
        path_helmert = np.vstack([np.zeros((1, q - 2)), _zero_sum_basis(q - 1)])
        path_basis, path_zero = _fold_phases(path_helmert)
        node_basis, node_zero = _fold_phases(_zero_sum_basis(q))
        for d in range(width):
            child = q ** (width - d - 1)
            on_path = path_basis / np.sqrt(child), path_zero
            off_path = node_basis / np.sqrt(child), node_zero
            # node 0 on the path to 0 (shell n - d), then nodes 1 .. q**d - 1 by id:
            # those whose first nonzero digit is at depth e < d start at q**(d-e-1)
            for e in range(d, -1, -1):
                if e == d:
                    (template, off_support), first, count = on_path, 0, 1
                else:
                    (template, off_support), first = off_path, q ** (d - e - 1)
                    count = (q - 1) * first
                multiplicity = count * template.shape[1]
                if multiplicity == 0:  # q = 2: no wavelet on the path
                    continue
                value = symbol[d] + v[e]
                shell = float(n - e)
                families.append(
                    VectorFamily(d, shell, value, multiplicity, first, template, off_support, child)
                )
        # index order runs through the depths backwards, each shell one run
        templates = _fix_phases((radial_vectors / np.sqrt(m)[:, None])[::-1])
        for value, template in zip(radial_values, np.hsplit(templates, width + 1)):
            families.append(VectorFamily(0, None, value, 1, 0, template, np.zeros(1), sizes[::-1]))

    ordered = sorted(families, key=lambda f: f.value)  # stable: ties keep the order above
    for f, start in zip(ordered, accumulate((f.multiplicity for f in ordered), initial=0)):
        f.start = start
    return families


@np.errstate(over="ignore")
def _tree_residuals(model: HamiltonianModel, families) -> None:
    """Set each family's ``residual``, its vectors' largest ||Hv - lambda v||, from its template.

    A radial family, one with no shell, is checked on its template by
    ``model.apply_shells``: its residual is sqrt(sum_k m_k r_k**2) over
    the shell residuals r_k, with m_k = ``repeats`` the shell sizes.  Any
    other family is checked on its first node, at depth d, in closed form:
    template row u_c is constant on child c, so on the points of child c
    in shell k (counted by child and shell; only node 0's child 0 spans
    several) H v = kappa_d S + (far_d + pot_k) u_c, with S = ``repeats`` *
    sum_c u_c and far_d from ``model.far``.  Off the node, at the (q - 1)
    q**(2n-1-s) points whose digits first differ from the node's at s < d,
    it is kappa_s S, so a template that is not zero-sum fails here too.  A
    count of 0 weighs nothing, not even an overflowed term: NaN stays NaN,
    overflow is inf.
    """
    q, n = model.grid.field.q, model.grid.n
    far = model.far()
    sizes = np.array(list(model.grid.shell_sizes.values()))[:, None]
    ends = np.cumsum(sizes, axis=0)  # the shell runs end here, one row per shell k
    starts, children = ends - sizes, np.arange(q)[:, None, None]
    off_points = (q - 1) * float(q) ** (2 * n - 1 - np.arange(2 * n))  # by first digit off a node
    for f in families:
        if f.shell is None:
            shells = model.apply_shells(f.template) - f.value * f.template
            f.residual = float(np.sqrt(f.repeats @ shells**2).max())
            continue
        d, u, child = f.depth, f.template, f.repeats
        node_sum = child * u.sum(axis=0)
        first = (f.first_node * q + children) * child  # child c's first index
        counts = np.maximum(np.minimum(first + child, ends) - np.maximum(first, starts), 0)
        shift = far[d] + model.potential_shells[:, None] - f.value  # (shell k, 1)
        on_node = np.where(counts > 0, model.kernel[d] * node_sum + shift * u[:, None, :], 0.0)
        off_node = off_points[:d] @ (model.kernel[:d, None] * node_sum) ** 2
        f.residual = float(np.sqrt((counts * on_node**2).sum(axis=(0, 1)) + off_node).max())


def eigensolve(
    model: HamiltonianModel,
    tol: float = DEFAULT_RESIDUAL_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    radial_tol: float = DEFAULT_RADIAL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
) -> SpectrumReport:
    """Eigendecomposition by the exact tree reduction, with residual enforcement.

    The eigenpairs are the radial block's and the closed-form Haar
    wavelets, every eigenvector a family (see ``_tree_eigensystem``), so
    no array of N rows is built: the families are clustered as (value,
    count) units, the report's ``eigenvalues`` and dense ``eigenvectors``
    built when first read.  Eigenvectors are Euclidean-normalized and
    phase-fixed (largest entry real positive, ties to the lowest index).
    The largest family residual ||Hv - lambda v|| (``_tree_residuals``) is
    checked against tol * max(1, max|H|) * size; a NaN fails the check.
    Shell adaptation then rotates the radial members of each cluster by
    shell (``_refine_on_runs``): scaled by sqrt(m_k), the templates hold
    shell k's projector as m_k on row k.  Wavelets lie on a single shell
    already.  Rotating inside a cluster moves residuals by at most the
    cluster width.  The report classifies the families with ``shell_tol``
    when first asked; ``radial_tol`` is accepted and changes no label, a
    radial family being constant on every shell by construction.
    """
    families = _tree_eigensystem(model)
    _tree_residuals(model, families)
    scale = max(1.0, model.max_abs())
    threshold = tol * scale * model.size
    worst = float(np.max([f.residual for f in families]))  # numpy's max keeps a NaN
    if not worst <= threshold:  # a NaN residual fails too
        raise ResidualTooLarge(f"residual {worst:.3e} exceeds {threshold:.3e}")
    ordered = sorted(families, key=lambda f: f.start)
    values, counts = [f.value for f in ordered], [f.multiplicity for f in ordered]
    clusters = cluster_eigenvalues(values, counts, cluster_tol)
    radial = [f for f in families if f.shell is None]
    for cluster in clusters:
        members = [f for f in radial if f.start in cluster.indices]
        if len(members) > 1:
            weights = np.sqrt(members[0].repeats)[:, None]
            block = np.hstack([f.template for f in members]) * weights
            shells = [range(k, k + 1) for k in range(len(block))]
            block = _refine_on_runs(block, shells, max(shell_tol, 1e-9)) / weights
            for f, template in zip(members, np.hsplit(_fix_phases(block), len(members))):
                f.template = template
    return SpectrumReport(families, clusters, model.grid, shell_tol)


# ---------------------------------------------------------------------------
# Cross-level embedding and convergence traces
# ---------------------------------------------------------------------------


def embed_function(grid_from: Grid, grid_to: Grid, values) -> np.ndarray:
    """Lift an (N,) or (N, k) level-n grid function to a level m > n of the same field.

    Constant on refined cells (the digits at exponents n..m-1 are dropped),
    zero outside the level-n ball (where a digit at an exponent below -n is
    set), each column rescaled to unit Euclidean norm; a zero column stays
    zero, a real array stays real and the shape is kept.  The level-n ball
    is a prefix of the level-m grid (``Grid.ball_size``) and each refined
    cell a run of q**(m-n) consecutive points in it, so the lift repeats
    every value that often there and is zero after.
    """
    if grid_from.field.spec != grid_to.field.spec:
        raise ValueError("embedding goes between grids of one field")
    if grid_to.n <= grid_from.n:
        raise ValueError("embedding goes from a lower level to a higher one")
    values = np.asarray(values)
    ball = grid_to.ball_size(grid_from.n)
    out = np.zeros((grid_to.size,) + values.shape[1:], dtype=values.dtype)
    out[:ball] = np.repeat(values, ball // grid_from.size, axis=0)
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
    grid_cap: int = GRID_CAP_DEFAULT,
) -> ConvergenceTrace:
    """Run the spectral pipeline at several levels and match clusters.

    Matching is greedy nearest-value within MATCH_WINDOW between consecutive
    configured levels, which need not be consecutive integers.  The
    alignment of a matched pair is the largest distance from an embedded
    basis vector of the old cluster to the span of the new one (see
    ``_cluster_alignment``).  Only the clusters of each level and the
    columns of matched clusters are read (``SpectrumReport.columns``), so
    no eigenvector is classified and no N x N matrix is built.
    """
    levels = sorted(set(int(n) for n in levels))
    if not levels:
        raise ValueError("need at least one level")
    per_level = []
    trace_warnings = []
    trajectories = []
    open_pairs = []  # (open trajectory, its cluster at the previous level)
    prev_report = None
    for n in levels:
        grid = build_grid(field, n, cap=grid_cap)
        model = assemble_hamiltonian(grid, alpha, a, potential, convention)
        report = eigensolve(
            model,
            tol=residual_tol,
            cluster_tol=cluster_tol,
            shell_tol=shell_tol,
        )
        lowest = float(report.families[0].value)
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

    The old cluster's columns are lifted to the new level in one step, and
    each column's residual after projection onto the new cluster's
    orthonormal basis B is taken: max_j ||E_j - B (B^H E_j)||.
    """
    old = prev_report.columns(prev_cluster.indices)
    embedded = embed_function(prev_report.grid, cur_report.grid, old)
    basis = cur_report.columns(cluster.indices)
    embedded -= basis @ (basis.conj().T @ embedded)
    return float(np.linalg.norm(embedded, axis=0).max())
