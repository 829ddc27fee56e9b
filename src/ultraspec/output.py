"""CSV/JSON writers for grids, spectra and convergence traces.

Floats are serialized with ``repr`` (shortest round-trip form), so reruns of
the same configuration produce byte-identical files.  The N**2-row
eigenvector bundle is streamed one vector at a time by
``write_eigenvector_bundle``, which writes the bytes ``write_table`` would.
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
    for i, (digits, shell) in enumerate(_point_labels(grid)):
        value = complex(vector[i])
        yield [i, digits, shell, value.real, value.imag]


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
            json.dump(records, handle, indent=1, sort_keys=True, default=_fmt)
            handle.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return path


# json.dump spells these floats its own way; repr gives "nan", "inf", "-inf"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray, fmt: str):
    """The cells ``write_table`` gives the floats ``values``, in order."""
    values = np.asarray(values, dtype=np.float64)
    texts = map(repr, values.tolist())
    if fmt == "json" and not np.isfinite(values).all():
        texts = (_JSON_NONFINITE.get(t, t) for t in texts)
    return texts


def write_eigenvector_bundle(path, grid: Grid, vectors: np.ndarray, fmt: str = "csv"):
    """Write ``eigenvector_rows`` of every column of ``vectors``, led by its index.

    The file is byte-identical to ``write_table`` with the header ``vector``
    + EIGENVECTOR_HEADER, but each point's label is encoded once and the
    rows are formatted and written one vector at a time.
    """
    path = Path(path)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    vectors = np.asarray(vectors)
    labels = _point_labels(grid)

    def columns():
        for j in range(vectors.shape[1]):
            column = vectors[:, j]
            yield j, _float_texts(np.real(column), fmt), _float_texts(np.imag(column), fmt)

    if fmt == "csv":
        # csv.writer quotes the digits cell, which joins digit pairs with commas
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(
            [i, digits, shell] for i, (digits, shell) in enumerate(labels)
        )
        prefixes = buffer.getvalue().splitlines()
        with open(path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerow(["vector"] + EIGENVECTOR_HEADER)
            for j, re, im in columns():
                handle.write("".join(f"{j},{p},{r},{m}\n" for p, r, m in zip(prefixes, re, im)))
    else:
        # one record of json.dump(indent=1, sort_keys=True), cut around the
        # per-vector values; the keys sort as digits, im, point_index, re, shell, vector
        heads = [f' {{\n  "digits": {json.dumps(digits)},\n  "im": ' for digits, _ in labels]
        mids = [f',\n  "point_index": {i},\n  "re": ' for i in range(len(labels))]
        tails = [f',\n  "shell": {json.dumps(shell)},\n  "vector": ' for _, shell in labels]
        with open(path, "w") as handle:
            for j, re, im in columns():
                handle.write("[\n" if j == 0 else ",\n")
                handle.write(
                    ",\n".join(
                        f"{h}{m}{x}{r}{t}{j}\n }}"
                        for h, m, x, r, t in zip(heads, im, mids, re, tails)
                    )
                )
            handle.write("\n]\n" if vectors.shape[1] else "[]\n")
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
