"""Finite model: the grid X_n and the Hamiltonian as shell data.

The level-n grid holds the q**(2n) canonical representatives
sum_{i=-n}^{n-1} a_i b**i, ordered lexicographically in the digit tuple
(a_{-n}, ..., a_{n-1}); each point carries Haar mass q**(-n).  In that order
the grid is a q-ary tree and every shell |x| = q**k is one run of indices,
[q**(n+k-1), q**(n+k)) for k = 1-n, ..., n, with the zero cell at index 0;
the shells <= k are a prefix, and a level-n function lifted to level m
repeats each value q**(m-n) times over the first q**(m+n) indices.  ``Grid``
owns this layout (``shell_run``, ``ball_size``, and the shell sizes in index
order and by tree depth) and every shell operation is a slice of it.

The kinetic operator F* diag(|xi|**alpha) F is a convolution by a radial
kernel, so its entry (i, j) depends only on s, the first digit position
where x_i and x_j differ: the grid is a q-ary tree of depth 2n and the
operator takes 2n + 1 values kappa_s.  Assembly computes them in closed
form from rank-zero character sums, and the Hamiltonian is shell data:
those values and the 2n + 1 shell values of the symbol and the potential,
applied by block sums over the tree or in closed form on shell-constant
functions, never as a dense matrix.  ``HamiltonianModel`` is the one home of
H_n by tree depth: it derives, once each, the kernel steps, the sums
``far``, the wavelet symbol sigma_d and the radial block on the shell
indicators, which ``spectra`` solves.  No solve builds digits, phases or a
Fourier transform.  ``verify`` owns the exact-phase Fourier calculus, and
it (at every grid size) and the dense test oracles check kappa against
F* diag(|xi|**alpha) F.  The residual gate, which checks each eigenvector
family on its template (a radial one by shell, any other by child and
shell), sees a kappa error only above its threshold: a 1e-6 shift of
kappa_1 at n = 1 and 2, not from n = 3 up; a NaN kappa fails eigh.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import GridTooLarge, NonConfiningPotentialWarning
from .fields import Field

__all__ = [
    "ZERO_SHELL",
    "GRID_CAP_DEFAULT",
    "Grid",
    "MonomialPotential",
    "TablePotential",
    "RadialPotential",
    "ZeroCellConvention",
    "HamiltonianModel",
    "build_grid",
    "check_grid_cap",
    "zero_cell_average",
    "potential_shell_value",
    "shell_values",
    "position_diagonal",
    "assemble_hamiltonian",
]

ZERO_SHELL = float("-inf")  # label of the single cell containing 0 (|x| = 0)
GRID_CAP_DEFAULT = 1 << 20


class ZeroCellConvention(str, Enum):
    """Value assigned to the zero cell of a compressed diagonal operator.

    AVERAGE_OF_POWER averages |x|**alpha over the cell (the compression of
    the already-raised operator); POWER_OF_AVERAGE raises the averaged |x| to
    alpha (the power of the compressed operator).  Radial potentials average
    under both, matching the explicit finite-model potential formula.

    SAMPLE_AT_ZERO instead evaluates the symbol at the cell representative,
    so the zero cell gets |0|**alpha = 0 and v(0).  It is not a consistent
    compression, but it reproduces the reference eigenfunction data shipped
    with the test suite bit for bit and converges to the same limit; when
    selected it applies to the potential as well.
    """

    AVERAGE_OF_POWER = "avg-of-power"
    POWER_OF_AVERAGE = "power-of-avg"
    SAMPLE_AT_ZERO = "sample-at-zero"


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


class Grid:
    """Level-n grid: digit matrix, index arithmetic and the shell layout.

    Index i is the big-endian base-q count of the digit row (a_{-n}, ...,
    a_{n-1}), so the grid is a q-ary tree of depth 2n in index order and
    every shell is one run of indices: shell k (|x| = q**k, k = 1-n, ..., n)
    is [q**(n+k-1), q**(n+k)), and the zero cell (``ZERO_SHELL``) is [0, 1).
    The points with |x| <= q**k are the prefix [0, ``ball_size(k)``), so a
    level-n function lifts to level m by repeating each value q**(m-n)
    times over the first q**(m+n) indices.  ``digits`` is built on first
    read; ``digits[i]`` is point i as a digit row at exponents -n, ..., n - 1,
    the form the exact kernels of ``fields`` take.  The solver reads only the
    runs and their sizes.
    """

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.size = field.q ** (2 * n)
        self.mass = float(field.q) ** (-n)
        self.zero_index = 0  # all-zero tuple is lexicographically first
        self.shell_sizes = {k: len(self.shell_run(k)) for k in self.shell_labels()}

    @cached_property
    def digits(self) -> np.ndarray:
        """The (N, 2n) int16 digit rows in index order; built on first read."""
        q, width = self.field.q, 2 * self.n
        # lexicographic enumeration == big-endian base-q counting
        idx = np.arange(self.size)
        digits = np.empty((self.size, width), dtype=np.int16)
        for pos in range(width):
            digits[:, pos] = (idx // q ** (width - 1 - pos)) % q
        return digits

    @cached_property
    def depth_sizes(self) -> np.ndarray:
        """m_d, the int64 size of shell n - d at tree depth d: ``shell_sizes`` reversed."""
        sizes = np.array(list(self.shell_sizes.values())[::-1], dtype=np.int64)
        sizes.flags.writeable = False  # shared: the radial families' ``repeats`` are views of it
        return sizes

    def spread_shells(self, values) -> np.ndarray:
        """One value per shell, in index order, repeated over the shell runs."""
        return np.repeat(values, list(self.shell_sizes.values()))

    def shell_labels(self) -> list:
        """Shell labels in ascending order, which is index order (ZERO_SHELL first)."""
        return [ZERO_SHELL] + [float(k) for k in range(1 - self.n, self.n + 1)]

    def shell_run(self, k) -> range:
        """The indices of shell k: [q**(n+k-1), q**(n+k)), or [0, 1) for ZERO_SHELL."""
        if k == ZERO_SHELL:
            return range(self.zero_index, self.zero_index + 1)
        if not 1 - self.n <= k <= self.n or k != int(k):
            raise ValueError(f"no shell {k} on the level-{self.n} grid")
        q, top = self.field.q, self.n + int(k)
        return range(q ** (top - 1), q**top)

    def ball_size(self, k) -> int:
        """The number of points with |x| <= q**k, the prefix [0, ball_size(k)) of the grid.

        Every k counts the zero cell; k >= n counts the whole grid.
        """
        if k >= self.n:
            return self.size
        if k < 1 - self.n:  # ZERO_SHELL among them
            return 1
        return self.field.q ** (self.n + math.floor(k))


def check_grid_cap(p: int, f: int, n: int, cap: int) -> None:
    """Raise GridTooLarge when the level-n grid, q**(2n) = p**(2nf) points, exceeds ``cap``.

    It also may not exceed 2**63 - 1, as shell sizes and their sums are
    int64.  The exponent decides first (p >= 2, so 2nf >= limit.bit_length()
    is too large), so a huge n, p or f costs nothing; p < 2 is left to make_field.
    """
    exponent = 2 * n * f
    for limit, name in ((cap, "the grid cap"), (2**63 - 1, "the int64 index range")):
        if p >= 2 and (exponent >= limit.bit_length() or p**exponent > limit):
            raise GridTooLarge(f"level {n}: q**(2n) = {p}**{exponent} exceeds {name} {limit}")


def build_grid(field: Field, n: int, cap: int = GRID_CAP_DEFAULT) -> Grid:
    """Enumerate X_n; raises GridTooLarge when q**(2n) exceeds the cap."""
    if n < 1:
        raise ValueError(f"grid level n = {n} must be >= 1")
    check_grid_cap(field.p, field.f, n, cap)
    return Grid(field, n)


# ---------------------------------------------------------------------------
# Radial potentials and diagonal operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialPotential:
    """v(x) = c * |x|**s with c >= 0, s > 0."""

    c: float
    s: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError(f"coefficient c = {self.c} must be >= 0")
        if self.s <= 0:
            raise ValueError(f"exponent s = {self.s} must be > 0")
        if self.c == 0:
            warnings.warn(
                "zero monomial potential is not confining",
                NonConfiningPotentialWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class TablePotential:
    """Tabulated radial values w(q**k) for k in a contiguous range.

    ``w0`` is the value at 0 and the constant tail below the table range
    (justified by continuity of the potential at 0).  Radii with a gap
    between them raise ValueError.
    """

    values: Mapping[int, float]
    w0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", {int(k): float(v) for k, v in self.values.items()})
        if not self.values:
            raise ValueError("table potential needs at least one radius")
        if len(self.values) != self.k_max - self.k_min + 1:
            raise ValueError("table potential radii must be contiguous")
        if self.w0 < 0 or any(v < 0 for v in self.values.values()):
            raise ValueError("potential values must be >= 0")
        k_top = max(self.values)
        if max(self.values.values()) > self.values[k_top]:
            warnings.warn(
                "table potential peaks before its largest radius; not confining",
                NonConfiningPotentialWarning,
                stacklevel=3,
            )

    @property
    def k_min(self) -> int:
        return min(self.values)

    @property
    def k_max(self) -> int:
        return max(self.values)


RadialPotential = Union[MonomialPotential, TablePotential]


def potential_shell_value(field: Field, potential: RadialPotential, k: float) -> float:
    """w(q**k) for a shell label k (ZERO_SHELL is handled by the averaging)."""
    if isinstance(potential, MonomialPotential):
        return potential.c * float(field.q) ** (k * potential.s)
    k = int(k)
    if k < potential.k_min:
        return potential.w0
    if k > potential.k_max:
        raise ValueError(f"table potential does not cover radius q**{k}")
    return potential.values[k]


def zero_cell_average(field: Field, n: int, potential) -> float:
    """ave(v, n, 0): mean of the radial function over the ball |x| <= q**(-n).

    A bare exponent ``alpha`` means v(x) = |x|**alpha.  Monomials use the
    closed form c * q**(-n s) * (1 - 1/q) / (1 - q**-(s+1)); tables are
    summed shell by shell with the constant tail summed in closed form.
    """
    q = float(field.q)
    if isinstance(potential, (int, float)):
        potential = MonomialPotential(1.0, float(potential))
    if isinstance(potential, MonomialPotential):
        c, s = potential.c, potential.s
        return c * q ** (-n * s) * (1.0 - 1.0 / q) / (1.0 - q ** (-(s + 1.0)))
    total = 0.0
    k = n
    while -k >= potential.k_min:
        total += potential_shell_value(field, potential, -k) * (q**-k - q ** (-k - 1))
        k += 1
    total += potential.w0 * q**-k  # constant tail, geometric sum
    return q**n * total


def shell_values(grid: Grid, potential, convention=ZeroCellConvention.AVERAGE_OF_POWER):
    """The 2n + 1 shell values of the compressed multiplication operator, in index order.

    ``potential`` is either a RadialPotential or a bare exponent alpha for
    the symbol |x|**alpha, which is MonomialPotential(1.0, alpha).  The zero
    cell comes first and follows ``convention``: only the symbol's takes
    POWER_OF_AVERAGE, and the others average unless SAMPLE_AT_ZERO is
    selected.  Every other shell takes its plain shell value.
    """
    field, n = grid.field, grid.n
    convention = ZeroCellConvention(convention)
    symbol = isinstance(potential, (int, float))
    if symbol:
        potential = MonomialPotential(1.0, float(potential))
    values = [potential_shell_value(field, potential, k) for k in grid.shell_labels()[1:]]
    if symbol and convention is ZeroCellConvention.POWER_OF_AVERAGE:
        zero_value = zero_cell_average(field, n, 1.0) ** potential.s
    elif convention is ZeroCellConvention.SAMPLE_AT_ZERO:
        zero_value = potential.w0 if isinstance(potential, TablePotential) else 0.0
    else:
        zero_value = zero_cell_average(field, n, potential)
    return np.array([zero_value] + values, dtype=np.float64)


def position_diagonal(grid: Grid, potential, convention=ZeroCellConvention.AVERAGE_OF_POWER):
    """Diagonal of the compressed multiplication operator on the grid: ``shell_values`` spread."""
    return grid.spread_shells(shell_values(grid, potential, convention))


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """H_n = a * F* diag(|xi|**alpha) F + diag(v) as shell data.

    ``kernel[s]`` is the entry of a * F* diag(|xi|**alpha) F between two
    points whose digits first differ at position s (s = 2n on the diagonal).
    ``kinetic_shells`` and ``potential_shells`` are the 2n + 1 values of
    |xi|**alpha and of v per shell, in index order with the zero cell
    first (``shell_values``), and ``kinetic_coeff`` is a.  Together they
    are the whole operator, held in O(n): ``apply`` computes H v on the
    grid, ``apply_shells`` H u on the shell-constant functions, ``far``
    their common kernel sums and ``max_abs`` the largest entry; no dense
    matrix and no array of N rows is kept.  By tree depth d (shell n - d,
    m_d = ``grid.depth_sizes`` points) it gives the wavelet ``symbol`` and
    ``radial_block()``.  It is frozen, so ``steps``, ``far`` and ``symbol``,
    derived once on first read, cannot go stale (``dataclasses.replace``).
    """

    grid: Grid
    kinetic_coeff: float
    kinetic_shells: np.ndarray
    potential_shells: np.ndarray
    kernel: np.ndarray

    @property
    def size(self) -> int:
        return self.grid.size

    @cached_property
    def steps(self) -> np.ndarray:
        """The kernel steps dk_s = kappa_s - kappa_{s-1}, s = 0, ..., 2n, with kappa_{-1} = 0."""
        return np.diff(self.kernel, prepend=0.0)

    @cached_property
    def far(self) -> np.ndarray:
        """far_d = sum_{s > d} dk_s q**(2n - s) by depth d = 0, ..., 2n.

        The block sums B_s with s > d stay inside a child of a depth-d node,
        so H scales a function constant on each child there by far_d + pot.
        """
        q, width = self.grid.field.q, 2 * self.grid.n
        blocks = self.steps * float(q) ** (width - np.arange(width + 1))
        return np.append(np.cumsum(blocks[::-1])[::-1][1:], 0.0)

    @cached_property
    def symbol(self) -> np.ndarray:
        """The symbol by depth, sigma_d = a |xi|**alpha on dual shell d + 1 - n; sigma_2n = 0."""
        return np.append(self.kinetic_coeff * self.kinetic_shells[1:], 0.0)

    def radial_block(self) -> np.ndarray:
        """P^T H P on the normalized shell indicators P by depth, a new (2n+1)-square array.

        Entry (d, e) is sqrt(m_d m_e) kappa_min(d,e), a min-kernel
        (semiseparable) matrix, plus sigma_d + v_d on the diagonal.
        """
        m = self.grid.depth_sizes.astype(np.float64)  # m_d m_e can overflow int64
        depths = np.arange(m.size)
        block = np.sqrt(np.outer(m, m)) * self.kernel[np.minimum.outer(depths, depths)]
        block[depths, depths] += self.symbol + self.potential_shells[::-1]
        return block

    def apply(self, v) -> np.ndarray:
        """H v for an (N,) or (N, k) array v, by block sums over the tree; the shape is kept.

        Points sharing their first s digits form contiguous blocks of
        q**(2n - s) indices.  With B_s v the sum of v over each point's
        block, H v = sum_s dk_s B_s v + pot * v, with B_2n v = v: sums go
        up the tree, terms down it, O(N) per vector.
        """
        q, width = self.grid.field.q, 2 * self.grid.n
        cols = np.reshape(v, (self.size, -1))
        k = cols.shape[1]
        sums = [cols]  # sums[t] has one row per block of the first 2n - t digits
        for _ in range(width):
            sums.append(sums[-1].reshape(len(sums[-1]) // q, q, k).sum(axis=1))
        terms = self.steps[0] * sums[width]
        for s in range(1, width):
            terms = np.repeat(terms, q, axis=0) + self.steps[s] * sums[width - s]
        pot = self.grid.spread_shells(self.potential_shells)
        out = np.reshape(pot + self.steps[width], (-1, 1)) * cols
        leaves = out.reshape(self.size // q, q, k)  # splits the leading axis only: a view of out
        leaves += terms[:, None, :]
        return out.reshape(np.shape(v))

    def apply_shells(self, u) -> np.ndarray:
        """H u for a shell-constant u given by its 2n + 1 shell values, in O(n) per vector.

        u is (2n+1,) or (2n+1, k) in index order (zero cell first), the
        rows of a radial template; the shape is kept.  By depth d (shell
        n - d, m_d points) the block sums of ``apply`` are B_s u = tail_s =
        sum_{e >= s} m_e u_e for s <= d, and q**(2n - s) u_d for s > d, so
        (H u)_d = sum_{s <= d} dk_s tail_s + (``far``_d + pot_d) u_d: the
        kernel steps of ``apply``, not the symbol.
        """
        by_depth = np.reshape(u, (2 * self.grid.n + 1, -1))[::-1]
        sizes = self.grid.depth_sizes[:, None]
        tails = np.cumsum((sizes * by_depth)[::-1], axis=0)[::-1]
        near = np.cumsum(self.steps[:, None] * tails, axis=0)
        out = near + (self.far + self.potential_shells[::-1])[:, None] * by_depth
        return out[::-1].reshape(np.shape(u))

    def max_abs(self) -> float:
        """Largest |entry| of H, O(n): kernel[s < 2n] off the diagonal, kernel[2n] + pot on it."""
        return max(
            float(np.abs(self.kernel[:-1]).max()),
            float(np.abs(self.kernel[-1] + self.potential_shells).max()),
        )


def _tree_kernel(grid: Grid, kin: np.ndarray) -> np.ndarray:
    """kappa_s of F* diag(kin) F in closed form, s = 0, ..., 2n, from the shell values kin.

    kappa(x) = q**(-2n) sum_xi kin(xi) chi(x xi), and the character sum
    over B_j / B_{-n} is q**(j+n) when |x| q**j <= 1 and 0 otherwise.  For
    |x| = q**(n-s) only the shells at depth >= 2n - s, the first s + 1 in
    index order, sum in full, and the next one contributes -q**s times its
    value.
    """
    q, width = grid.field.q, 2 * grid.n
    kappa = np.cumsum(grid.depth_sizes[::-1] * kin)
    kappa[:-1] -= [float(q) ** s for s in range(width)] * kin[1:]
    return kappa * float(q) ** (-width)


def assemble_hamiltonian(
    grid: Grid,
    alpha: float,
    a: float,
    potential: RadialPotential,
    convention=ZeroCellConvention.AVERAGE_OF_POWER,
) -> HamiltonianModel:
    """Assemble the finite Hamiltonian as shell data, in O(n) time and memory.

    The 2n + 1 shell values of the symbol and of the potential come from
    ``shell_values`` and the kernel from its closed form; no digit, phase
    or Fourier transform is computed.  ``verify`` checks the kernel against
    the exact-phase Fourier operator (``hamiltonian_hermiticity``); the
    solver's residual gate alone misses a small kernel error at n >= 3.
    """
    if alpha <= 0:
        raise ValueError(f"alpha = {alpha} must be > 0")
    if a < 0:
        raise ValueError(f"kinetic coefficient a = {a} must be >= 0")
    kin = shell_values(grid, float(alpha), convention)
    pot = shell_values(grid, potential, convention)
    kernel = np.zeros(2 * grid.n + 1) if a == 0 else a * _tree_kernel(grid, kin)
    return HamiltonianModel(
        grid=grid, kinetic_coeff=float(a), kinetic_shells=kin, potential_shells=pot, kernel=kernel
    )
