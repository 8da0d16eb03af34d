"""Command-line interface: sweep, spectral, saturate, and series subcommands."""

from __future__ import annotations

import argparse
import sys

from .coherent import CoherentSpec
from .config import RunConfig, parse_config
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error gets the one ``error:`` line of every failure
        raise ValueError(message)


# Each command runs, writes to ``out`` and returns its summary lines; it looks the
# run_*/write_* functions up in this module when called, so they can be replaced.
def _sweep(config: RunConfig, args, out: str) -> list[str]:
    rows = run_sweep(config)
    write_sweep_csv(rows, out)
    return [f"wrote {len(rows)} rows to {out}"]


def _spectral(config: RunConfig, args, out: str) -> list[str]:
    report = run_spectral(config)
    write_spacing_histogram(report, out)
    return [
        f"sectors k = {list(report.sectors_used)}, {report.spacings.size} spacings",
        f"brody_q = {report.brody_q:.4f}  loglik = {report.brody_loglik:.4f}",
        f"ks_poisson = {report.ks_poisson:.4f}  ks_wigner = {report.ks_wigner:.4f}  "
        f"ks_brody = {report.ks_brody:.4f}",
        f"wrote spacing histogram to {out}",
    ]


def _saturate(config: RunConfig, args, out: str) -> list[str]:
    checkpoints = [int(part) for part in args.checkpoints.split(",") if part.strip()]
    rows = run_saturation(config, CoherentSpec(args.theta, args.phi), checkpoints)
    write_saturation_csv(rows, out)
    return [f"wrote {len(rows)} checkpoints to {out}"]


def _series(config: RunConfig, args, out: str) -> list[str]:
    series = run_series(config, CoherentSpec(args.theta, args.phi))
    write_series(series, out)
    return [f"wrote {series.t_cut + 1} samples to {out}"]


_COMMANDS = {
    "sweep": (_sweep, "grid sweep over coherent states, CSV output"),
    "spectral": (_spectral, "eigenphase spacing statistics and Brody fit"),
    "saturate": (_saturate, "measures versus cutoff time for one state"),
    "series": (_series, "dump the f(t) series for one state"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="echochain",
        description="Kicked-chain dephasing: fidelity dynamics, non-Markovianity "
        "measures, localization, and spectral statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.add_argument("config")
        if name in ("saturate", "series"):
            command.add_argument("--theta", type=float, required=True)
            command.add_argument("--phi", type=float, required=True)
        if name == "saturate":
            command.add_argument(
                "--checkpoints", required=True, help="comma-separated ascending cutoff times"
            )
        command.add_argument("--out", help="override output_path from the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = parse_config(args.config)
        command = _COMMANDS[args.command][0]
        print("\n".join(command(config, args, args.out or config.output_path)))
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
