"""Finite spectral models of Schrodinger operators over local fields.

Builds the level-n quantum models over Q_p, tame Eisenstein extensions and
Laurent series fields, computes their spectra and eigenvector families,
classifies each family as radial or shell off its template, and verifies
the structural identities of the finite Fourier calculus.
"""

import os as _os

# Thread count is controlled by one env var only; it must reach the BLAS
# layer before numpy loads, which this package-level hook guarantees for the
# console script and for plain ``import ultraspec``.
_threads = _os.environ.get("ULTRASPEC_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .config import RunConfig, Tolerances, load_config
from .errors import (
    GridTooLarge,
    NoConvergence,
    NonConfiningPotentialWarning,
    NonPrimeP,
    ParseError,
    ReducibleModulus,
    ResidualTooLarge,
    UltraspecError,
    ValidationError,
    WildRamification,
)
from .fields import (
    EisensteinExtension,
    Field,
    LaurentField,
    make_field,
)
from .finite import (
    GRID_CAP_DEFAULT,
    ZERO_SHELL,
    Grid,
    HamiltonianModel,
    MonomialPotential,
    TablePotential,
    ZeroCellConvention,
    assemble_hamiltonian,
    build_grid,
    position_diagonal,
    zero_cell_average,
)
from .spectra import (
    ConvergenceTrace,
    EigenCluster,
    Radial,
    Shell,
    SpectrumReport,
    classify_family,
    cluster_eigenvalues,
    convergence_report,
    eigensolve,
    embed_function,
)
from .verify import (
    FOURIER_DENSE_CAP,
    CheckResult,
    VerifyOutcome,
    fourier_apply,
    fourier_matrix,
    fourier_unitarity_defect,
    project_cutoff,
    project_smooth,
    run_verify,
)

__version__ = "0.1.0"
