"""Dense test oracles for the spectral toolkit: the numeric classifier and the grid shell adaptor.

The solver classifies each eigenvector family off its template and adapts
radial clusters by shell (``ultraspec.spectra``).  These are the per-column
forms on N-row vectors that it is checked against, and the numeric summary
of a report, such as one of dense eigenvectors, whose families are lifted to
N rows and classified column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ultraspec import Grid, HamiltonianModel, Radial, Shell, UltraspecError
from ultraspec.spectra import DEFAULT_RADIAL_TOL, DEFAULT_SHELL_TOL, _fix_phases, _refine_on_runs

EIGENSPACE_TOL = 1e-6  # shell_adapt's relative eigen-residual bound


class NotAnEigenspace(UltraspecError):
    """Vectors handed to the shell adaptor do not span a common eigenspace."""


@dataclass(frozen=True)
class Mixed:
    """Neither radial nor single-shell; carries the squared-norm profile."""

    profile: dict

    kind = "mixed"

    def label(self) -> str:
        return "mixed"


def classify_eigenvector(
    grid: Grid,
    v: np.ndarray,
    radial_tol: float = DEFAULT_RADIAL_TOL,
    shell_tol: float = DEFAULT_SHELL_TOL,
):
    """Classify a normalized eigenvector by its shell support.

    Shell(k) when at least 1 - shell_tol of the squared norm sits on one
    shell; otherwise Radial when the values deviate from their shell means
    by at most radial_tol on every shell; otherwise Mixed.
    """
    v = np.asarray(v)
    runs = {k: grid.shell_run(k) for k in grid.shell_labels()}
    norms = {k: float((np.abs(v[run.start : run.stop]) ** 2).sum()) for k, run in runs.items()}
    total = sum(norms.values())
    profile = {k: val / total for k, val in norms.items()}
    top = max(profile, key=profile.get)
    if profile[top] >= 1.0 - shell_tol:
        return Shell(k=top, leakage=1.0 - profile[top], profile=profile)
    max_dev = 0.0
    for run in runs.values():
        vals = v[run.start : run.stop]
        max_dev = max(max_dev, float(np.abs(vals - vals.mean()).max()))
    if max_dev <= radial_tol:
        return Radial(max_deviation=max_dev, profile=profile)
    return Mixed(profile=profile)


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
    ``model.apply``: an eigen-residual above EIGENSPACE_TOL * max(1, |lambda|),
    or a NaN one, raises NotAnEigenspace.
    """
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[:, None]
    m = v.shape[1]
    if model is not None:
        hv = model.apply(v)
        rayleigh = np.real(np.einsum("ij,ij->j", v.conj(), hv))
        lam = float(rayleigh.mean())
        with np.errstate(over="ignore"):  # a norm past the float range is inf and fails
            residual = float(np.linalg.norm(hv - lam * v, axis=0).max())
        if not residual <= EIGENSPACE_TOL * max(1.0, abs(lam)):  # a NaN residual fails too
            raise NotAnEigenspace(
                f"eigen-residual {residual:.3e} at lambda = {lam:.6g} exceeds tolerance"
            )
    if m == 1:
        return _fix_phases(v)
    basis = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64, copy=True)
    runs = [grid.shell_run(k) for k in grid.shell_labels()]
    return _fix_phases(_refine_on_runs(basis, runs, split_tol))


def assert_matches_numeric(got, expected, shell):
    """A family's classification against the numeric one of its column.

    Exact for a family with a ``shell``; for a radial one the kind and the
    shell label are exact and the profile, m_k u_k**2 against the sum over
    the lifted shell run, agrees within 1e-14.
    """
    if shell is not None:
        assert got == expected
        return
    assert got.kind == expected.kind
    assert getattr(got, "k", None) == getattr(expected, "k", None)  # the shell, if any
    assert got.profile.keys() == expected.profile.keys()
    assert all(abs(got.profile[k] - expected.profile[k]) <= 1e-14 for k in got.profile)


def numeric_classifications(report, radial_tol=DEFAULT_RADIAL_TOL) -> list:
    """One classification per sorted column of ``report``, the families lifted to N rows.

    A family with a shell gives Shell(k) with the exact profile; the columns
    of a family with no shell (a radial or a dense one) go through
    ``classify_eigenvector`` with ``radial_tol`` and the report's ``shell_tol``.
    """
    grid = report.grid
    labels, tols = grid.shell_labels(), (radial_tol, report.shell_tol)
    out = [None] * grid.size
    for f in report.families:
        if f.shell is None:
            lift = np.repeat(f.template, f.repeats, axis=0)
            classes = [classify_eigenvector(grid, v, *tols) for v in lift.T]
        else:
            profile = {k: 1.0 if k == f.shell else 0.0 for k in labels}
            classes = [Shell(k=f.shell, leakage=0.0, profile=profile)] * f.multiplicity
        out[f.start : f.start + f.multiplicity] = classes
    return out


def numeric_summary_rows(report, radial_tol=DEFAULT_RADIAL_TOL) -> list:
    """``report.summary_rows()`` read off ``numeric_classifications``.

    A cluster is radial when all its columns are, shell when none is, and
    mixed otherwise.
    """
    classes = numeric_classifications(report, radial_tol)
    rows = []
    for c in report.clusters:
        kinds = {classes[i].kind for i in c.indices}
        kind = "radial" if kinds == {"radial"} else "shell" if "radial" not in kinds else "mixed"
        rows.append((c.mean, c.multiplicity, kind))
    return rows
