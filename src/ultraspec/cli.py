"""Command-line front end: ``ultraspec spectrum | verify | converge``.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import errors
from .config import RunConfig, load_config
from .finite import ZeroCellConvention, assemble_hamiltonian, build_grid
from .output import write_convergence_outputs, write_spectrum_outputs, write_table
from .spectra import convergence_report, eigensolve
from .verify import run_verify

USAGE_ERRORS = (
    errors.ConfigError,
    errors.GridTooLarge,
    errors.NonPrimeP,
    errors.WildRamification,
    errors.ReducibleModulus,
)
NUMERICAL_ERRORS = (errors.ResidualTooLarge, errors.NoConvergence)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` finds the handler by command name."""
    parser = argparse.ArgumentParser(
        prog="ultraspec",
        description="Finite spectral models of Schrodinger operators over local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("spectrum", "diagonalize the configured model and write spectra"),
        ("verify", "run the structural identity suite"),
        ("converge", "track clusters across grid levels"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a JSON run configuration")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument("--format", choices=["csv", "json"], help="output format override")
        cmd.add_argument(
            "--convention",
            choices=[c.value for c in ZeroCellConvention],
            help="zero-cell convention override",
        )
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.out is not None:
        if not args.out:
            raise errors.ConfigError("--out: the output directory must not be empty")
        config.output_dir = args.out
    if args.format:
        config.output_format = args.format
    if args.convention:
        config.convention = ZeroCellConvention(args.convention)
    return config


def cmd_spectrum(config: RunConfig) -> int:
    grid = build_grid(config.field, config.require_level(), cap=config.grid_cap)
    model = assemble_hamiltonian(
        grid, config.alpha, config.kinetic_coeff, config.potential, config.convention
    )
    tols = config.tolerances
    report = eigensolve(
        model,
        tol=tols.residual_tol,
        cluster_tol=tols.cluster_tol,
        radial_tol=tols.radial_tol,
        shell_tol=tols.shell_tol,
    )
    paths = write_spectrum_outputs(config.output_dir, report, config.output_format)
    print(f"{'eigenvalue':>12}  {'multiplicity':>12}  type")
    for value, mult, kind in report.summary_rows():
        print(f"{value:12.4f}  {mult:12d}  {kind}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    outcome = run_verify(config)
    write_table(
        f"{config.output_dir}/verify_report.{config.output_format}",
        ["check", "status", "defect", "threshold"],
        outcome.rows(),
        config.output_format,
    )
    width = max(len(c.name) for c in outcome.checks)
    for check in outcome.checks:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{check.name:<{width}}  {status}  defect={check.defect:.3e}"
            f"  threshold={check.threshold:.1e}"
        )
    return 0 if outcome.passed else 2


def cmd_converge(config: RunConfig) -> int:
    tols = config.tolerances
    trace = convergence_report(
        config.field,
        config.alpha,
        config.kinetic_coeff,
        config.potential,
        config.require_levels(),
        convention=config.convention,
        cluster_tol=tols.cluster_tol,
        shell_tol=tols.shell_tol,
        residual_tol=tols.residual_tol,
        ground_state_bound=config.ground_state_upper_bound,
        grid_cap=config.grid_cap,
    )
    paths = write_convergence_outputs(config.output_dir, trace, config.output_format)
    print(f"{'trajectory':>10}  {'level':>5}  {'value':>12}  {'mult':>5}  {'drift':>10}")
    for row in _trajectory_preview(trace):
        print(row)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _trajectory_preview(trace, limit: int = 12):
    lines = []
    for ti, traj in enumerate(trace.trajectories[:limit]):
        for step in traj.steps:
            drift = "" if step.drift is None else f"{step.drift:.2e}"
            lines.append(
                f"{ti:>10d}  {step.level:>5d}  {step.value:>12.4f}  "
                f"{step.multiplicity:>5d}  {drift:>10}"
            )
    if len(trace.trajectories) > limit:
        lines.append(f"... {len(trace.trajectories) - limit} more trajectories in the files")
    return lines


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]  # looked up per call, so a replaced handler runs
    # each warning of loading and running is printed once, as one line, before any failure
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", "ground state ", UserWarning)
        try:
            config = _apply_overrides(load_config(args.config), args)
            return handler(config)
        except USAGE_ERRORS as exc:
            failure, code = f"error: {exc}", 1
        except NUMERICAL_ERRORS as exc:
            failure, code = f"numerical failure: {exc}", 3
        except (OSError, UnicodeDecodeError, MemoryError) as exc:  # bad files, or out of memory
            failure, code = f"error: {str(exc) or 'out of memory'}", 1
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)
    print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
