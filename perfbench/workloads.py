"""The benchmark's workloads: one echochain command each, with inputs drawn from a seed.

Every workload is a closed loop of one command at a time. The seed moves only
inputs that leave the amount of work unchanged: a small ``b_par`` jitter, the
sweep grid's origin inside one step (the point count stays fixed), the
series state's angles and the ``VGUE`` draw seed. ``smoke`` shrinks every
workload to a few qubits for the self-check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

NAMES = ("sweep-vj", "sweep-site", "spectral", "series-gue")

# (full size, smoke size) per workload. Sweeps give the grid as a point
# count per axis; the step is the axis range divided by that count.
_SIZES = {
    "sweep-vj": (
        dict(n_qubits=10, t_cut=1200, theta_points=5, phi_points=6),
        dict(n_qubits=6, t_cut=40, theta_points=2, phi_points=2),
    ),
    "sweep-site": (
        dict(n_qubits=10, t_cut=300, theta_points=2, phi_points=3),
        dict(n_qubits=5, t_cut=30, theta_points=2, phi_points=1),
    ),
    "spectral": (dict(n_qubits=12), dict(n_qubits=8)),
    "series-gue": (dict(n_qubits=9, t_cut=6000), dict(n_qubits=5, t_cut=60)),
}


@dataclass(frozen=True)
class Workload:
    """One echochain invocation: its subcommand, config keys and state angles."""

    name: str
    command: str
    config: dict
    angles: tuple[float, float] | None = None

    def with_t_cut(self, t_cut: int) -> "Workload":
        return replace(self, config={**self.config, "t_cut": t_cut})

    def setup(self) -> "Workload | None":
        """The same command cut to the shortest run it accepts.

        Sweeps keep the full grid at ``t_cut = 2`` (the tail average needs
        two periods), so the eigensystem and the pool start stay in set-up;
        ``series`` runs one period. ``spectral`` has no run length, so its
        set-up is measured by the set-up probe instead (None here).
        """
        if self.command == "sweep":
            return self.with_t_cut(2)
        if self.command == "series":
            return self.with_t_cut(1)
        return None

    def config_text(self, output_path: str) -> str:
        items = {**self.config, "output_path": output_path}
        return "".join(f"{key} = {_format(value)}\n" for key, value in items.items())

    def cli_args(self, config_path: str) -> list[str]:
        args = [self.command, config_path]
        if self.angles is not None:
            args += ["--theta", repr(self.angles[0]), "--phi", repr(self.angles[1])]
        return args


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name not in _SIZES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    size = _SIZES[name][1 if smoke else 0]
    rng = random.Random(f"{name}:{seed}")
    b_par = 1.4 + rng.uniform(-0.001, 0.001)
    n = size["n_qubits"]
    if name == "sweep-vj":
        # Acceptance-4 physics near the integrable point; IPR in the k=0 sector.
        config = dict(n_qubits=n, b_perp=0.1, b_par=b_par, epsilon=0.1, coupling="VJ")
        return Workload(name, "sweep", {**config, **_grid(size, rng)})
    if name == "sweep-site":
        # Chaotic chain, site coupling, FULL eigenbasis.
        config = dict(
            n_qubits=n, b_perp=1.0, b_par=b_par, epsilon=0.1, coupling="V0", ipr_basis="FULL"
        )
        return Workload(name, "sweep", {**config, **_grid(size, rng)})
    if name == "spectral":
        # Bare chain (epsilon = 0) in the chaotic regime.
        config = dict(n_qubits=n, b_perp=1.0, b_par=b_par, epsilon=0.0, coupling="VJ")
        return Workload(name, "spectral", config)
    config = dict(
        n_qubits=n, b_perp=1.0, b_par=b_par, epsilon=0.05, coupling="VGUE",
        seed=rng.randrange(2**31), t_cut=size["t_cut"],
    )
    angles = (rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi))
    return Workload(name, "series", config, angles)


def _grid(size: dict, rng: random.Random) -> dict:
    # The origin sits between 0.1 and 0.9 of a step, so the axis keeps exactly
    # `points` values whatever the seed: theta runs to pi, phi stays below 2 pi.
    theta_step = math.pi / size["theta_points"]
    phi_step = 2.0 * math.pi / size["phi_points"]
    return dict(
        t_cut=size["t_cut"],
        theta_min=rng.uniform(0.1, 0.9) * theta_step,
        theta_step=theta_step,
        phi_min=rng.uniform(0.1, 0.9) * phi_step,
        phi_step=phi_step,
    )
