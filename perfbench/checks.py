"""Correctness checks for one operation's outputs, and the dense oracle.

An operation fails when its command exits non-zero or raises, when a written
eigenvalue differs from the oracle by more than ``EIG_RTOL * max(1, max|l|)``,
when a ``verify`` check fails, or when an output file differs from an
earlier run of the same command and seed (the byte-identical rerun rule).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

EIG_RTOL = 1e-10


def oracle_key(config: str, level: int) -> str:
    return f"{config}@{level}"


def oracle_eigenvalues(config_path: str, level: int) -> np.ndarray:
    """eigvalsh of a * F* diag(kin) F + diag(pot), from the public transform."""
    from ultraspec import ZeroCellConvention, build_grid, fourier_matrix, load_config, position_diagonal

    config = load_config(config_path)
    grid = build_grid(config.field, level, cap=config.grid_cap)
    kin = position_diagonal(grid, config.alpha, config.convention)
    # the potential is sampled at zero under SAMPLE_AT_ZERO and averaged otherwise
    pot_convention = (
        ZeroCellConvention.SAMPLE_AT_ZERO
        if config.convention is ZeroCellConvention.SAMPLE_AT_ZERO
        else ZeroCellConvention.AVERAGE_OF_POWER
    )
    pot = position_diagonal(grid, config.potential, pot_convention)
    fmat = fourier_matrix(grid)
    h = config.kinetic_coeff * (fmat.conj().T @ (kin[:, None] * fmat))
    h[np.diag_indices_from(h)] += pot
    return np.linalg.eigvalsh((h + h.conj().T) / 2)


def compute_oracles(plan: dict) -> dict:
    """One oracle spectrum per (config, level) that some operation writes."""
    oracles = {}
    for op in plan["ops"]:
        if op["command"] == "verify":
            continue
        for level in op["levels"]:
            key = oracle_key(op["config"], level)
            if key not in oracles:
                oracles[key] = oracle_eigenvalues(op["config"], level)
    return oracles


def read_table(path: Path, fmt: str) -> list:
    """Rows of a written table as dicts (values are strings for csv)."""
    with open(path, newline="") as handle:
        if fmt == "csv":
            return list(csv.DictReader(handle))
        return json.load(handle)


def _spectrum_problems(values, expected) -> list:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != expected.shape:
        return [f"{values.size} eigenvalues written, oracle has {expected.size}"]
    tol = EIG_RTOL * max(1.0, float(np.abs(expected).max()))
    worst = float(np.abs(values - expected).max())
    if not worst <= tol:
        return [f"eigenvalue error {worst:.3e} exceeds {tol:.3e}"]
    return []


def _cluster_problems(rows, level: int, expected) -> list:
    """Cluster means of one level against the oracle, in ascending order."""
    start, problems = 0, []
    tol = EIG_RTOL * max(1.0, float(np.abs(expected).max()))
    for row in rows:
        if int(row["level"]) != level:
            continue
        mult = int(row["multiplicity"])
        mean = float(np.mean(expected[start : start + mult]))
        if not abs(float(row["value"]) - mean) <= tol:
            problems.append(f"level {level} cluster {row['cluster_id']}: {row['value']} vs {mean!r}")
        start += mult
    if start != expected.size:
        problems.append(f"level {level}: multiplicities sum to {start}, N = {expected.size}")
    return problems


def content_problems(op: dict, oracles: dict) -> list:
    """What is wrong with the files the operation wrote (empty when correct)."""
    out, fmt = Path(op["out"]), op["fmt"]
    try:
        if op["command"] == "verify":
            rows = read_table(out / f"verify_report.{fmt}", fmt)
            failed = [r["check"] for r in rows if r["status"] != "pass"]
            return [f"verify checks failed: {failed}"] if failed or not rows else []
        if op["command"] == "converge":
            rows = read_table(out / f"level_clusters.{fmt}", fmt)
            problems = []
            for level in op["levels"]:
                expected = oracles[oracle_key(op["config"], level)]
                problems += _cluster_problems(rows, level, expected)
            return problems
        rows = read_table(out / f"eigenvalues.{fmt}", fmt)
        rows.sort(key=lambda r: int(r["rank"]))
        expected = oracles[oracle_key(op["config"], op["levels"][0])]
        return _spectrum_problems([float(r["eigenvalue"]) for r in rows], expected)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def file_digests(out: Path) -> dict:
    digests = {}
    for path in sorted(Path(out).iterdir()):
        sha = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                sha.update(chunk)
        digests[path.name] = sha.hexdigest()
    return digests


def digest_problems(key: str, digests: dict, reference: dict) -> list:
    """Compare with the first digests seen for ``key``; record them if new."""
    known = reference.setdefault(key, digests)
    if known == digests:
        return []
    changed = sorted(n for n in set(known) | set(digests) if known.get(n) != digests.get(n))
    return [f"output differs from an earlier run of {key}: {changed}"]
