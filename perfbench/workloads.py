"""Seeded workload plans: the config files and the operation list of one run.

A plan is plain JSON.  Every operation names the files it gives the program
(config path, output directory, format) and what the checker needs to judge
its outputs (the command, the grid levels, and a ``key`` shared by every
operation whose output files must be byte-identical).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("spectrum_cli", "solve_large", "verify_converge")

# verify_converge fields; every (field, level) below has N = q**(2n) <= 729
SMALL_FIELDS = {
    "q3sqrt3": {"family": "eisenstein", "p": 3, "e": 2},
    "q3": {"family": "eisenstein", "p": 3, "e": 1},
    "q2": {"family": "eisenstein", "p": 2, "e": 1},
    "q2cbrt2": {"family": "eisenstein", "p": 2, "e": 3},
    "f3t": {"family": "laurent", "p": 3, "f": 1},
    "f4t": {"family": "laurent", "p": 2, "f": 2},
}

# (field, level, verify commands, converge commands) per round, 116 in all.
# The counts are fixed so that every seed has the same latency profile, and
# each percentile lands inside a block of near-equal operations rather than
# in a gap between two: 56 small Eisenstein (and F_3 level-1) verify runs of
# about 20 ms hold the median, and 20 converge runs at N = 729 hold p90.
# verify is 72 of the 116 commands, about 2/3.
VERIFY_CONVERGE_MIX = (
    ("q3sqrt3", 2, 8, 3),
    ("q3sqrt3", 3, 2, 7),
    ("q3", 2, 8, 3),
    ("q3", 3, 2, 7),
    ("q2", 2, 8, 3),
    ("q2", 3, 8, 3),
    ("q2", 4, 2, 1),
    ("q2cbrt2", 2, 8, 3),
    ("q2cbrt2", 3, 8, 3),
    ("q2cbrt2", 4, 2, 1),
    ("f3t", 1, 8, 0),
    ("f3t", 2, 2, 3),
    ("f3t", 3, 2, 6),
    ("f4t", 1, 2, 0),
    ("f4t", 2, 2, 1),
)

LARGE_FIELDS = {
    "q7": {"family": "eisenstein", "p": 7, "e": 1},
    "f7t": {"family": "laurent", "p": 7, "f": 1},
}
LARGE_LEVEL = 2  # N = 7**4 = 2401

SPECTRUM_FIXTURES = (("q3sqrt3_ho", "csv"), ("f3_laurent", "json"))
SPECTRUM_LEVEL = 3  # N = 3**6 = 729

CONVENTIONS = ("avg-of-power", "power-of-avg", "sample-at-zero")


def draw_model(rng: random.Random) -> dict:
    """Model parameters a seed varies: alpha, kinetic_coeff, potential, convention."""
    return {
        "alpha": round(rng.uniform(1.0, 2.5), 3),
        "kinetic_coeff": round(rng.uniform(0.25, 1.0), 3),
        "potential": {
            "kind": "monomial",
            "c": round(rng.uniform(0.25, 1.0), 3),
            "s": round(rng.uniform(1.0, 3.0), 3),
        },
        "zero_cell_convention": rng.choice(CONVENTIONS),
    }


def _write_config(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return str(path)


def _spectrum_cli(rng, work: Path, root: Path):
    ops, fields = [], []
    for name, fmt in SPECTRUM_FIXTURES:
        data = json.loads((root / "configs" / f"{name}.cfg").read_text())
        data.update(draw_model(rng))
        data["n"] = SPECTRUM_LEVEL
        fields.append(data["field"])
        config = _write_config(work / "configs" / f"{name}.cfg", data)
        out = str(work / "out" / name)
        ops.append({
            "key": f"spectrum:{name}:{fmt}",
            "kind": "cli",
            "command": "spectrum",
            "argv": ["spectrum", "--config", config, "--out", out, "--format", fmt],
            "config": config,
            "out": out,
            "fmt": fmt,
            "levels": [SPECTRUM_LEVEL],
        })
    return ops, fields


def _solve_large(rng, work: Path, root: Path):
    ops = []
    for name, field in LARGE_FIELDS.items():
        data = {"field": field, "n": LARGE_LEVEL, **draw_model(rng)}
        fmt = rng.choice(("csv", "json"))
        config = _write_config(work / "configs" / f"{name}.cfg", data)
        ops.append({
            "key": f"pipeline:{name}:{fmt}",
            "kind": "pipeline",
            "command": "pipeline",
            "config": config,
            "out": str(work / "out" / name),
            "fmt": fmt,
            "levels": [LARGE_LEVEL],
        })
    return ops, list(LARGE_FIELDS.values())


def _verify_converge(rng, work: Path, root: Path):
    models = {name: draw_model(rng) for name in SMALL_FIELDS}
    commands = []
    for name, level, n_verify, n_converge in VERIFY_CONVERGE_MIX:
        base = {"field": SMALL_FIELDS[name], **models[name]}
        if n_verify:
            config = _write_config(
                work / "configs" / f"{name}-n{level}.cfg", {**base, "n": level}
            )
            commands += [("verify", name, config, [level])] * n_verify
        if n_converge:
            levels = [level - 1, level]
            config = _write_config(
                work / "configs" / f"{name}-l{level - 1}-{level}.cfg", {**base, "levels": levels}
            )
            commands += [("converge", name, config, levels)] * n_converge
    rng.shuffle(commands)
    ops = []
    for i, (command, name, config, levels) in enumerate(commands):
        fmt = rng.choice(("csv", "json"))
        out = str(work / "out" / f"op{i:03d}")
        ops.append({
            "key": f"{command}:{Path(config).stem}:{fmt}",
            "kind": "cli",
            "command": command,
            "argv": [command, "--config", config, "--out", out, "--format", fmt],
            "config": config,
            "out": out,
            "fmt": fmt,
            "levels": levels,
        })
    return ops, list(SMALL_FIELDS.values())


_PLANS = {
    "spectrum_cli": _spectrum_cli,
    "solve_large": _solve_large,
    "verify_converge": _verify_converge,
}


def make_plan(workload: str, seed: int, work: Path, root: Path) -> dict:
    """Write the workload's configs under ``work`` and return its plan.

    ``root`` is the checkout (for the shipped fixtures); paths in the plan
    are as given, so pass ``work`` relative to the directory the program
    will run in.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops, fields = _PLANS[workload](rng, Path(work), Path(root))
    for op in ops:
        q = _field_q(op)
        op["N"] = max(q ** (2 * level) for level in op["levels"])
    return {"workload": workload, "seed": seed, "fields": fields, "ops": ops}


def _field_q(op) -> int:
    field = json.loads(Path(op["config"]).read_text())["field"]
    if field["family"] == "laurent":
        return field["p"] ** field.get("f", 1)
    return field["p"]
