"""CSV/JSON writers for grids, spectra and convergence traces.

Floats are serialized with ``repr`` (shortest round-trip form), so reruns of
the same configuration produce byte-identical files.  The N**2-row
eigenvector bundle is streamed one vector at a time by
``write_eigenvector_bundle``, which writes the bytes ``write_table`` would:
it calls ``repr`` once per distinct bit pattern of each vector's real and
imaginary parts (the tree eigenvectors take a few values per column) and
builds each vector's rows with one join and one write.
"""

from __future__ import annotations

import csv
import io
import json
import weakref
from pathlib import Path

import numpy as np

from .finite import Grid, ZERO_SHELL
from .spectra import ConvergenceTrace, SpectrumReport, _format_shell

__all__ = [
    "grid_rows",
    "spectrum_rows",
    "eigenvector_rows",
    "trajectory_rows",
    "level_cluster_rows",
    "write_table",
    "write_eigenvector_bundle",
    "write_spectrum_outputs",
    "write_convergence_outputs",
]

GRID_HEADER = ["index", "digits", "shell", "abs_value", "mass"]
SPECTRUM_HEADER = ["rank", "eigenvalue", "cluster_id", "multiplicity", "classification", "shell_profile"]
EIGENVECTOR_HEADER = ["point_index", "digits", "shell", "re", "im"]
TRAJECTORY_HEADER = ["trajectory", "level", "value", "multiplicity", "drift", "alignment"]
LEVEL_CLUSTER_HEADER = ["level", "cluster_id", "value", "multiplicity"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _profile_str(profile: dict) -> str:
    return ";".join(f"{_format_shell(k)}:{repr(float(v))}" for k, v in sorted(profile.items()))


# (digits, shell) label strings of each grid's points, formatted once per grid;
# a pure function of the grid, held only while the grid lives
_LABELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _point_labels(grid: Grid) -> list:
    """``format_element`` of each point and its shell label, read off the digit rows.

    Digit ``pos`` of a row has exponent ``pos - n``, and the label lists the
    nonzero ones in ascending exponent, so no field element is built.
    """
    labels = _LABELS.get(grid)
    if labels is None:
        n = grid.n
        shell_text = {k: _format_shell(k) for k in grid.shell_labels()}
        labels = _LABELS[grid] = [
            (",".join(f"{pos - n}:{d}" for pos, d in enumerate(row) if d), shell_text[shell])
            for row, shell in zip(grid.digits.tolist(), grid.shells.tolist())
        ]
    return labels


def grid_rows(grid: Grid):
    q = float(grid.field.q)
    for i, ((digits, shell_label), shell) in enumerate(zip(_point_labels(grid), grid.shells)):
        yield [i, digits, shell_label, q**shell if shell != ZERO_SHELL else 0.0, grid.mass]


def spectrum_rows(report: SpectrumReport):
    for ci, cluster in enumerate(report.clusters):
        for rank in cluster.indices:
            cls = report.classifications[rank]
            value = float(report.eigenvalues[rank])
            yield [rank, value, ci, cluster.multiplicity, cls.label(), _profile_str(cls.profile)]


def eigenvector_rows(grid: Grid, vector: np.ndarray):
    vector = np.asarray(vector)
    if vector.shape != (grid.size,):
        raise ValueError(
            f"a vector on {grid.size} points has shape ({grid.size},), not {vector.shape}"
        )
    return (
        [i, digits, shell, value.real, value.imag]
        for i, ((digits, shell), value) in enumerate(zip(_point_labels(grid), map(complex, vector)))
    )


def trajectory_rows(trace: ConvergenceTrace):
    for ti, traj in enumerate(trace.trajectories):
        for step in traj.steps:
            yield [ti, step.level, step.value, step.multiplicity, step.drift, step.alignment]


def level_cluster_rows(trace: ConvergenceTrace):
    for level in trace.per_level:
        for ci, (value, mult) in enumerate(level.clusters):
            yield [level.level, ci, value, mult]


def write_table(path, header, rows, fmt: str = "csv"):
    """Write rows as CSV or as a JSON list of records."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    elif fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        with open(path, "w") as handle:
            handle.write(json.dumps(records, indent=1, sort_keys=True, default=_fmt) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


# json.dump spells these floats its own way; repr gives "nan", "inf", "-inf"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(values: np.ndarray, fmt: str, suffix: str) -> list:
    """The cells ``write_table`` gives the floats ``values``, in order, each + ``suffix``.

    ``repr`` runs once per distinct bit pattern: the key is the bits, not the
    value, because ``-0.0 == 0.0`` while their texts differ.
    """
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    texts = map(repr, bits.view(np.float64).tolist())
    if fmt == "json":
        texts = (_JSON_NONFINITE.get(t, t) for t in texts)
    return np.array([t + suffix for t in texts], dtype=object)[inverse].tolist()


def write_eigenvector_bundle(path, grid: Grid, vectors: np.ndarray, fmt: str = "csv"):
    """Write ``eigenvector_rows`` of every column of ``vectors``, led by its index.

    The file is byte-identical to ``write_table`` with the header ``vector``
    + EIGENVECTOR_HEADER, but each point's label is encoded once, ``repr``
    runs once per distinct bit pattern of a vector's real and imaginary
    parts, and each vector's rows are built with one join and written with
    one write.
    """
    path = Path(path)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or vectors.shape[0] != grid.size:
        raise ValueError(
            f"vectors on {grid.size} points have shape ({grid.size}, k), not {vectors.shape}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = _point_labels(grid)
    size, count = vectors.shape
    with open(path, "w", newline="" if fmt == "csv" else None) as handle:
        if fmt == "csv":
            # a row is j | ,index,digits,shell, | re, | im\n; csv.writer quotes
            # the digits cell, which joins digit pairs with commas
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(
                [i, digits, shell] for i, (digits, shell) in enumerate(labels)
            )
            parts = [""] * (4 * size)
            parts[1::4] = [f",{prefix}," for prefix in buffer.getvalue().splitlines()]
            csv.writer(handle, lineterminator="\n").writerow(["vector"] + EIGENVECTOR_HEADER)
        else:
            # one record of json.dump(indent=1, sort_keys=True), cut around the
            # per-vector values; the keys sort as digits, im, point_index, re, shell, vector
            parts = [""] * (6 * size)
            parts[0::6] = [f' {{\n  "digits": {json.dumps(d)},\n  "im": ' for d, _ in labels]
            parts[2::6] = [f',\n  "point_index": {i},\n  "re": ' for i in range(size)]
            parts[4::6] = [f',\n  "shell": {json.dumps(s)},\n  "vector": ' for _, s in labels]
            handle.write("[\n" if count else "[]\n")
        for j in range(count):
            column = vectors[:, j]
            if fmt == "csv":
                parts[0::4] = [str(j)] * size
                parts[2::4] = _cells(np.real(column), fmt, ",")
                parts[3::4] = _cells(np.imag(column), fmt, "\n")
            else:
                parts[1::6] = _cells(np.imag(column), fmt, "")
                parts[3::6] = _cells(np.real(column), fmt, "")
                # records end ",\n" but the vector's last, which the next vector's
                # first record or the closing bracket follows
                parts[5::6] = [f"{j}\n }},\n"] * size
                parts[-1] = f"{j}\n }}" + (",\n" if j + 1 < count else "\n]\n")
            handle.write("".join(parts))
    return path


def write_spectrum_outputs(outdir, report: SpectrumReport, fmt: str = "csv"):
    """Write the standard spectrum artifacts; returns the file paths."""
    outdir = Path(outdir)
    ext = fmt
    paths = [
        write_table(outdir / f"grid.{ext}", GRID_HEADER, grid_rows(report.grid), fmt),
        write_table(outdir / f"eigenvalues.{ext}", SPECTRUM_HEADER, spectrum_rows(report), fmt),
        write_table(
            outdir / f"ground_state.{ext}",
            EIGENVECTOR_HEADER,
            eigenvector_rows(report.grid, report.eigenvectors[:, 0]),
            fmt,
        ),
    ]
    paths.append(
        write_eigenvector_bundle(
            outdir / f"eigenvectors.{ext}", report.grid, report.eigenvectors, fmt
        )
    )
    return paths


def write_convergence_outputs(outdir, trace: ConvergenceTrace, fmt: str = "csv"):
    outdir = Path(outdir)
    return [
        write_table(
            outdir / f"level_clusters.{fmt}", LEVEL_CLUSTER_HEADER, level_cluster_rows(trace), fmt
        ),
        write_table(
            outdir / f"trajectories.{fmt}", TRAJECTORY_HEADER, trajectory_rows(trace), fmt
        ),
    ]
