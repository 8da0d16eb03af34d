"""Command-line interface: sweep, spectral, saturate, and series subcommands."""

from __future__ import annotations

import argparse
import sys

from .coherent import CoherentSpec
from .config import parse_config
from .dynamics import write_series
from .sweep import (
    run_saturation,
    run_series,
    run_spectral,
    run_sweep,
    write_saturation_csv,
    write_spacing_histogram,
    write_sweep_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echochain",
        description="Kicked-chain dephasing: fidelity dynamics, non-Markovianity "
        "measures, localization, and spectral statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid sweep over coherent states, CSV output")
    sweep.add_argument("config")
    sweep.add_argument("--out", help="override output_path from the config")

    spectral = sub.add_parser("spectral", help="eigenphase spacing statistics and Brody fit")
    spectral.add_argument("config")
    spectral.add_argument("--out", help="histogram output path (default: output_path)")

    saturate = sub.add_parser("saturate", help="measures versus cutoff time for one state")
    saturate.add_argument("config")
    saturate.add_argument("--theta", type=float, required=True)
    saturate.add_argument("--phi", type=float, required=True)
    saturate.add_argument(
        "--checkpoints", required=True, help="comma-separated ascending cutoff times"
    )
    saturate.add_argument("--out", help="override output_path from the config")

    series = sub.add_parser("series", help="dump the f(t) series for one state")
    series.add_argument("config")
    series.add_argument("--theta", type=float, required=True)
    series.add_argument("--phi", type=float, required=True)
    series.add_argument("--out", help="override output_path from the config")
    return parser


def _cmd_sweep(args) -> None:
    config = parse_config(args.config)
    rows = run_sweep(config)
    out = args.out or config.output_path
    write_sweep_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")


def _cmd_spectral(args) -> None:
    config = parse_config(args.config)
    report = run_spectral(config)
    out = args.out or config.output_path
    write_spacing_histogram(report, out)
    print(f"sectors k = {list(report.sectors_used)}, {report.spacings.size} spacings")
    print(f"brody_q = {report.brody_q:.4f}  loglik = {report.brody_loglik:.4f}")
    print(
        f"ks_poisson = {report.ks_poisson:.4f}  ks_wigner = {report.ks_wigner:.4f}  "
        f"ks_brody = {report.ks_brody:.4f}"
    )
    print(f"wrote spacing histogram to {out}")


def _cmd_saturate(args) -> None:
    config = parse_config(args.config)
    checkpoints = [int(part) for part in args.checkpoints.split(",") if part.strip()]
    rows = run_saturation(config, CoherentSpec(args.theta, args.phi), checkpoints)
    out = args.out or config.output_path
    write_saturation_csv(rows, out)
    print(f"wrote {len(rows)} checkpoints to {out}")


def _cmd_series(args) -> None:
    config = parse_config(args.config)
    series = run_series(config, CoherentSpec(args.theta, args.phi))
    out = args.out or config.output_path
    write_series(series, out)
    print(f"wrote {series.t_cut + 1} samples to {out}")


_COMMANDS = {
    "sweep": _cmd_sweep,
    "spectral": _cmd_spectral,
    "saturate": _cmd_saturate,
    "series": _cmd_series,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
