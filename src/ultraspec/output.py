"""CSV/JSON writers for grids, spectra and convergence traces.

Floats are serialized with ``repr`` (shortest round-trip form), so reruns of
the same configuration produce byte-identical files, in the bytes of
``csv.writer`` and ``json.dumps(indent=1, sort_keys=True)``.  A table is
formatted column by column (``repr`` once per distinct float bit pattern,
a JSON string once per distinct string, and a CSV string quoted by hand
unless csv.writer must decide) and joined once per file, each cell and
each separator a part, or once per vector for the N**2-row eigenvector
bundle.  The point labels are two columns per grid, built along the digit
tree, and the row views of the grid and of a vector are zipped from whole
columns.  At N = 2401 (Q_7, n = 2) the library path's three tables, labels
included, take 0.009 s as CSV and 0.010 s as JSON (best of 9, 2 cores,
numpy 2.4.6), against 0.016 and 0.014 s with labels joined row by row and
each distinct cell memoized; at N = 531 441 (q = 3, n = 6) they take
3.3-3.4 s as CSV at a peak RSS of 464 MB, against 7.4-7.5 s and 505 MB.

The bundle is written from the report's families: a vector is a template
on one tree node, so its texts are formatted once per family and spliced
into record pieces built once per row, and no N x N matrix, nor any block
of its columns, is built.  At n = 3 (N = 729) it takes 0.031 s as CSV and
0.063 s as JSON, against 0.075 and 0.091 s with a sort of each column's
values.
"""

from __future__ import annotations

import csv
import json
import weakref
from itertools import repeat
from operator import itemgetter
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


# the digit and shell label columns of each grid's points, built once per grid;
# a pure function of the grid, held only while the grid lives
_LABELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _point_labels(grid: Grid) -> tuple:
    """``(digits, shells)``: ``format_element`` of each point and its shell label, in index order.

    A point's text lists its nonzero digits ``exponent:digit`` in ascending
    exponent, and index order is big-endian base-q counting from exponent
    -n.  So the texts are built along the digit tree: each prefix text is
    extended by the q texts of the next digit (digit 0 adds none), 2n passes
    in all, and no field element or digit row is built.  A shell's text is
    repeated over its run.
    """
    labels = _LABELS.get(grid)
    if labels is None:
        q, n = grid.field.q, grid.n
        digits = [""]  # the all-zero prefix is first, and only it takes no comma
        for exponent in range(-n, n):
            texts = [f"{exponent}:{d}" for d in range(1, q)]
            extend = ["", *("," + text for text in texts)]
            digits = ["", *texts] + [prefix + t for prefix in digits[1:] for t in extend]
        shells = []
        for k, size in grid.shell_sizes.items():
            shells += [_format_shell(k)] * size
        labels = _LABELS[grid] = (digits, shells)
    return labels


def grid_rows(grid: Grid):
    q = float(grid.field.q)
    values = grid.spread_shells([q**k if k != ZERO_SHELL else 0.0 for k in grid.shell_labels()])
    digits, shells = _point_labels(grid)
    return map(list, zip(range(grid.size), digits, shells, values.tolist(), repeat(grid.mass)))


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
    values = vector.astype(complex, copy=False)  # each cell as complex() reads it
    digits, shells = _point_labels(grid)
    return map(
        list, zip(range(grid.size), digits, shells, values.real.tolist(), values.imag.tolist())
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


def _column(cells, fmt: str, lone: bool = False) -> list:
    """The text of each cell as the stdlib encoders write it.

    A float column formats each distinct value once (by bits: ``-0.0 ==
    0.0``) and a JSON str column each distinct string; an int column formats
    every cell, as its cells are mostly distinct (index, rank).  A CSV str
    cell with none of ',', '"', "\\r", "\\n" is its own text, and one with a
    comma alone is quoted here; a cell with one of the other three, and a
    lone "" (which csv.writer quotes alone in its row), go through
    csv.writer.  Other columns keep the per-cell rule.
    """
    kinds = {cells.dtype.type} if isinstance(cells, np.ndarray) else set(map(type, cells))
    if kinds and kinds <= {float, np.float64}:
        bits, inverse = np.unique(
            np.ascontiguousarray(cells, dtype=np.float64).view(np.uint64), return_inverse=True
        )
        texts = list(map(repr, bits.view(np.float64).tolist()))
        if fmt == "json":
            texts = [_JSON_NONFINITE.get(t, t) for t in texts]
        return list(map(texts.__getitem__, inverse.tolist()))
    if kinds not in ({int}, {str}):
        if fmt == "json":
            return [_JSON_CELL.encode(v).replace("\n", "\n  ") for v in cells]
        cells, kinds = list(map(_fmt, cells)), {str}
    if kinds == {int}:
        return list(map(repr, cells))  # int.__repr__: each exact int
    if fmt == "json":
        distinct = list(dict.fromkeys(cells))
        memo = dict(zip(distinct, map(json.encoder.encode_basestring_ascii, distinct)))
        return [memo[v] for v in cells]
    odd = [""] if lone else []
    joined = "".join(cells)
    if '"' in joined or "\r" in joined or "\n" in joined:
        odd += [s for s in dict.fromkeys(cells) if '"' in s or "\r" in s or "\n" in s]
    lines, pad = _Lines(), [] if lone else [""]
    csv.writer(lines, lineterminator="\n").writerows([s, *pad] for s in odd)
    memo = {s: line[: -1 - len(pad)] for s, line in zip(odd, lines)}
    return [memo[s] if s in memo else '"' + s + '"' if "," in s else s for s in cells]


def _records(head: str, columns: list, affixes: list, end: str) -> list:
    """The parts of the file whose cell texts are ``columns``, row by row.

    Each cell is a part and the separator after it another, so no cell's
    text is copied: ``head`` and the first prefix, then each record's cells
    with the prefix of the next between them, its ``close`` and the next
    record's first prefix after it, and ``end`` after the last.
    """
    width, rows = 2 * len(columns), len(columns[0])
    glues = [a[1] + b[0] for a, b in zip(affixes, affixes[1:] + affixes[:1])]
    parts = [head + affixes[0][0]] + [None] * (width * rows)
    for k, (texts, glue) in enumerate(zip(columns, glues)):
        parts[2 * k + 1 :: width] = texts
        parts[2 * k + 2 :: width] = [glue] * rows
    parts[-1] = end
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
    if not header:  # records of no columns are all ``close``
        return _write(path, fmt, ["".join([head] + [close] * (len(rows) - 1) + [end])])
    texts = [_column(list(map(itemgetter(c), rows)), fmt, len(header) == 1) for c in order]
    return _write(path, fmt, ["".join(_records(head, texts, affixes, end))])


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
    digits, shells = _point_labels(report.grid)
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
            prefix, suffix = affix
            cells = _column(labels[name], fmt)
            segments[-1] = [text + prefix + c + suffix for text, c in zip(segments[-1], cells)]
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
