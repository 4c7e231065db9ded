"""Command-line front end for the experiment runner.

Each subcommand builds an :class:`~bctsim.harness.ExperimentConfig`, runs the
sweep, and writes the table to ``--out`` (or stdout). Grid flags use the form
``lo:hi:steps`` with inclusive endpoints, values in radians. Exit status is 0
on success and 2 on configuration or I/O problems; measured anomalies are
data in the table, never an error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    CALIBRATION_VARIANTS,
    EXPERIMENTS,
    GRIDS,
    ConfigError,
    EmitError,
    ExperimentConfig,
    emit,
    render_text,
    run_experiment,
)
from .protocol import CoinMode, FlipSemantics, Strategy

__all__ = ["main", "build_parser", "parse_grid"]

#: strategy tokens accepted on the command line: the calibration variants that continue after a reflection
STRATEGY_TOKENS = {label: strategy.flip_rule for label, strategy in CALIBRATION_VARIANTS
                   if strategy.flip_semantics is FlipSemantics.CONTINUE}

_SEMANTICS_TOKENS = {
    "continue": FlipSemantics.CONTINUE,
    "terminate": FlipSemantics.TERMINATE,
}


def parse_grid(spec: str) -> tuple[float, ...]:
    """Parse ``lo:hi:steps`` into an inclusive linear grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like lo:hi:steps, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from exc
    if steps < 1:
        raise ConfigError(f"grid needs at least one step, got {spec!r}")
    if steps == 1:
        return (lo,)
    return tuple(lo + (hi - lo) * i / (steps - 1) for i in range(steps))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bctsim",
        description="Monte Carlo experiments on the slot-message simulation of Bell correlations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, default=100_000, metavar="N")
    common.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed; each draw of each row derives its own generator from it",
    )
    common.add_argument(
        "--strategy", choices=sorted(STRATEGY_TOKENS), default="paper-iic",
        help="reading of the axis-reflection step (paper-iic = no reflection, the walkthrough variant)",
    )
    common.add_argument(
        "--flip-semantics", choices=sorted(_SEMANTICS_TOKENS), default="continue",
        help="continue on the reflected axis and negate, or terminate with the negated sign",
    )
    common.add_argument("--coin", choices=[m.value for m in CoinMode], default="independent",
                        help="whether the two evaluations of a two-Bob round share the step coin")
    common.add_argument("--angle-grid", metavar="LO:HI:STEPS", help="setting angles (correlation, calibrate)")
    common.add_argument("--nu-grid", metavar="LO:HI:STEPS", help="offsets above 2*pi/5 in [0, pi/5]")
    common.add_argument("--theta-grid", metavar="LO:HI:STEPS", help="conditioned shared angles in [0, 3*pi/5)")
    common.add_argument("--visibility-grid", metavar="LO:HI:STEPS", help="visibility factors in [0, 1]")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--out", metavar="PATH", help="output file; stdout when omitted")
    common.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="ignored, as rows run in turn; K must be at least 1, and the flag goes once perfbench stops passing it",
    )

    sub = parser.add_subparsers(dest="experiment", required=True)
    for spec in EXPERIMENTS.values():
        sub.add_parser(spec.name, parents=[common], help=spec.help)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.workers < 1:  # checked, then dropped: rows run in turn
        raise ConfigError(f"workers must be positive, got {args.workers}")
    grids = {}
    for name in GRIDS:
        spec = getattr(args, name)
        if spec is None:
            spec = EXPERIMENTS[args.experiment].grids.get(name)
        grids[name] = parse_grid(spec) if spec else ()
    return ExperimentConfig(
        experiment=args.experiment,
        trials=args.trials,
        seed=args.seed,
        strategy=Strategy(STRATEGY_TOKENS[args.strategy], _SEMANTICS_TOKENS[args.flip_semantics]),
        coin_mode=CoinMode(args.coin),
        **grids,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        table = run_experiment(config)
        if args.out:
            emit(table, args.format, args.out)
            print(f"wrote {len(table.rows)} rows to {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(render_text(table, args.format))
        if args.experiment == "calibrate" and table.rows:
            best = min(table.rows, key=lambda r: r["strategy_max_deviation"])
            print(
                f"best fit: {best['strategy']} "
                f"(max deviation {best['strategy_max_deviation']:.6g})",
                file=sys.stderr,
            )
    except (ConfigError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
