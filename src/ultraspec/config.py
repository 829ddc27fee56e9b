"""Run configuration: JSON loading, validation, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Optional

from .errors import ParseError, ValidationError
from .fields import EisensteinExtension, Field, FieldSpec, LaurentField, make_field
from .finite import (
    GRID_CAP_DEFAULT,
    MonomialPotential,
    RadialPotential,
    TablePotential,
    ZeroCellConvention,
    check_grid_cap,
)
from . import spectra

__all__ = ["Tolerances", "RunConfig", "load_config"]

_KNOWN_KEYS = {
    "field",
    "n",
    "levels",
    "alpha",
    "kinetic_coeff",
    "potential",
    "zero_cell_convention",
    "tolerances",
    "output",
    "grid_cap",
    "ground_state_upper_bound",
}
_FIELD_KEYS = {"eisenstein": {"family", "p", "e"}, "laurent": {"family", "p", "f", "modulus"}}
_POTENTIAL_KEYS = {"monomial": {"kind", "c", "s"}, "table": {"kind", "values", "w0"}}
_TOLERANCE_KEYS = ("cluster_tol", "radial_tol", "shell_tol", "residual_tol")


@dataclass(frozen=True)
class Tolerances:
    cluster_tol: float = spectra.DEFAULT_CLUSTER_TOL
    radial_tol: float = spectra.DEFAULT_RADIAL_TOL
    shell_tol: float = spectra.DEFAULT_SHELL_TOL
    residual_tol: float = spectra.DEFAULT_RESIDUAL_TOL

    def __post_init__(self):
        for name in _TOLERANCE_KEYS:
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValidationError(f"tolerances.{name}", f"{value} not in (0, 1)")


@dataclass
class RunConfig:
    field_spec: FieldSpec
    field: Field
    alpha: float
    kinetic_coeff: float
    potential: RadialPotential
    n: Optional[int] = None
    levels: Optional[tuple] = None
    convention: ZeroCellConvention = ZeroCellConvention.AVERAGE_OF_POWER
    tolerances: Tolerances = dataclass_field(default_factory=Tolerances)
    output_dir: str = "out"
    output_format: str = "csv"
    grid_cap: int = GRID_CAP_DEFAULT
    ground_state_upper_bound: Optional[float] = None

    def require_level(self) -> int:
        if self.n is not None:
            return self.n
        if self.levels:
            return max(self.levels)
        raise ValidationError("n", "a grid level is required for this command")

    def require_levels(self) -> tuple:
        if self.levels:
            return self.levels
        if self.n is not None:
            return (self.n,)
        raise ValidationError("levels", "grid levels are required for this command")


NUMBER = (int, float)


def _typed(name: str, value, kinds):
    """``value`` when it is one of ``kinds``; a bool is never taken for a number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ValidationError(name, f"expected {expected}, got {type(value).__name__}")
    return value


def _number(name: str, value) -> float:
    """A config number as a float; an integer past the float range is a ValidationError."""
    try:
        return float(_typed(name, value, NUMBER))
    except OverflowError:
        raise ValidationError(name, "integer too large for a float") from None


def _known_keys(data: dict, keys, where: str = ""):
    """Raise ValidationError naming the first key of ``data``, sorted, that is not in ``keys``."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValidationError(f"{where}.{unknown[0]}" if where else unknown[0], "unknown key")


def _expect(data: dict, key: str, kinds, where: str = ""):
    name = f"{where}.{key}" if where else key
    if key not in data:
        raise ValidationError(name, "missing")
    return _typed(name, data[key], kinds)


def _parse_field(data: dict) -> FieldSpec:
    family = _expect(data, "family", str, "field").lower()
    if family not in _FIELD_KEYS:
        raise ValidationError("field.family", f"unknown family {family!r}")
    _known_keys(data, _FIELD_KEYS[family], "field")
    p = _expect(data, "p", int, "field")
    if family == "eisenstein":
        e = _typed("field.e", data.get("e", 1), int)
        return EisensteinExtension(p=p, e=e)
    f = _typed("field.f", data.get("f", 1), int)
    modulus = data.get("modulus")
    if modulus is not None:
        coeffs = _typed("field.modulus", modulus, list)
        modulus = tuple(_typed("field.modulus", c, int) for c in coeffs)
    return LaurentField(p=p, f=f, modulus=modulus)


def _parse_potential(data: dict) -> RadialPotential:
    kind = _expect(data, "kind", str, "potential").lower()
    if kind not in _POTENTIAL_KEYS:
        raise ValidationError("potential.kind", f"unknown kind {kind!r}")
    _known_keys(data, _POTENTIAL_KEYS[kind], "potential")
    try:
        if kind == "monomial":
            return MonomialPotential(
                c=_number("potential.c", _expect(data, "c", NUMBER, "potential")),
                s=_number("potential.s", _expect(data, "s", NUMBER, "potential")),
            )
        values = _expect(data, "values", dict, "potential")
        return TablePotential(
            values={int(k): _number(f"potential.values.{k}", v) for k, v in values.items()},
            w0=_number("potential.w0", data.get("w0", 0.0)),
        )
    except ValueError as exc:
        raise ValidationError("potential", str(exc)) from exc


def load_config(path) -> RunConfig:
    """Load and validate a JSON run configuration."""
    text = Path(path).read_text()

    def finite(literal):  # NaN, Infinity, -Infinity and a float past the range are refused
        if not math.isfinite(float(literal)):
            raise ParseError(f"{path}: {literal} is not a finite number")
        return float(literal)

    try:
        data = json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("<document>", "top level must be an object")
    _known_keys(data, _KNOWN_KEYS)

    field_spec = _parse_field(_expect(data, "field", dict))
    n = data.get("n")
    levels = data.get("levels")
    if n is None and levels is None:
        raise ValidationError("n", "one of 'n' or 'levels' is required")
    if n is not None:
        n = _typed("n", n, int)
        if n < 1:
            raise ValidationError("n", f"{n} must be >= 1")
    if levels is not None:
        if not isinstance(levels, list) or not levels:
            raise ValidationError("levels", "expected a non-empty list")
        levels = tuple(sorted(_typed("levels", v, int) for v in levels))
        if levels[0] < 1:
            raise ValidationError("levels", "levels must be >= 1")
    grid_cap = _typed("grid_cap", data.get("grid_cap", GRID_CAP_DEFAULT), int)
    # before make_field, whose primality test and modulus search grow with p and f
    top = max((levels or ()) + ((n,) if n is not None else ()))
    check_grid_cap(field_spec.p, getattr(field_spec, "f", 1), top, grid_cap)
    field = make_field(field_spec)

    alpha = _number("alpha", _expect(data, "alpha", NUMBER))
    if alpha <= 0:
        raise ValidationError("alpha", f"{alpha} must be > 0")
    kinetic = _number("kinetic_coeff", _expect(data, "kinetic_coeff", NUMBER))
    if kinetic < 0:
        raise ValidationError("kinetic_coeff", f"{kinetic} must be >= 0")
    potential = _parse_potential(_expect(data, "potential", dict))

    convention_text = data.get("zero_cell_convention", ZeroCellConvention.AVERAGE_OF_POWER.value)
    try:
        convention = ZeroCellConvention(convention_text)
    except ValueError as exc:
        raise ValidationError("zero_cell_convention", str(convention_text)) from exc

    tol_data = _typed("tolerances", data.get("tolerances", {}), dict)
    _known_keys(tol_data, _TOLERANCE_KEYS, "tolerances")
    tolerances = Tolerances(**{k: _number(f"tolerances.{k}", v) for k, v in tol_data.items()})

    out_data = _typed("output", data.get("output", {}), dict)
    _known_keys(out_data, ("dir", "format"), "output")
    output_dir = _typed("output.dir", out_data.get("dir", "out"), str)
    if not output_dir:
        raise ValidationError("output.dir", "the output directory must not be empty")
    output_format = _typed("output.format", out_data.get("format", "csv"), str).lower()
    if output_format not in ("csv", "json"):
        raise ValidationError("output.format", f"{output_format!r} not one of csv, json")

    # the outer shell of level n is |x| = q**n, where |x|**alpha and c |x|**s are largest
    for name, value in (("alpha", alpha), ("potential.s", getattr(potential, "s", 0.0))):
        try:
            float(field.q) ** (top * value)
        except OverflowError:
            raise ValidationError(name, f"q**({top} * {value}) overflows a float") from None
    if isinstance(potential, TablePotential) and potential.k_max < top:
        raise ValidationError(
            "potential", f"table stops at radius q**{potential.k_max}, below level {top}"
        )

    bound = data.get("ground_state_upper_bound")
    if bound is not None:
        bound = _number("ground_state_upper_bound", bound)
        if bound <= 0:
            raise ValidationError("ground_state_upper_bound", f"{bound} must be > 0")

    return RunConfig(
        field_spec=field_spec,
        field=field,
        alpha=alpha,
        kinetic_coeff=kinetic,
        potential=potential,
        n=n,
        levels=levels,
        convention=convention,
        tolerances=tolerances,
        output_dir=output_dir,
        output_format=output_format,
        grid_cap=grid_cap,
        ground_state_upper_bound=bound,
    )
