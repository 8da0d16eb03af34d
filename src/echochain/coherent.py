"""Spin coherent states on the qubit chain and Poincare-sphere grids."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Most grid points a config may ask for, counted before any axis is enumerated; the
# default grid has 2,016. A step far below its axis range would otherwise ask for too many.
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class CoherentSpec:
    """Polar angle theta in [0, pi], azimuth phi in [0, 2*pi), radians."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta {self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi {self.phi} outside [0, 2*pi)")

    @property
    def hemisphere(self) -> str:
        return "N" if self.theta <= math.pi / 2.0 else "S"


def build_coherent_state(spec: CoherentSpec, n_qubits: int) -> np.ndarray:
    """Product state with per-qubit amplitudes (cos(theta/2), sin(theta/2) e^{i phi}).

    The amplitude on basis index b depends only on its Hamming weight w:
    cos(theta/2)^(N-w) * (sin(theta/2) e^{i phi})^w.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    dim = 1 << n_qubits
    w = np.bitwise_count(np.arange(dim, dtype=np.uint64)).astype(np.int64)
    c = math.cos(spec.theta / 2.0)
    s = math.sin(spec.theta / 2.0)
    return (c ** (n_qubits - w)) * (s**w) * np.exp(1j * spec.phi * w)


@dataclass(frozen=True)
class SphereGrid:
    theta_min: float
    theta_max: float
    theta_step: float
    phi_min: float
    phi_max: float
    phi_step: float

    def __post_init__(self) -> None:
        if self.theta_step <= 0 or self.phi_step <= 0:
            raise ValueError("grid steps must be positive")
        # Points per axis at most, taken as 1 on an empty axis so that it hides no long one.
        # The float quotient, as a tiny step makes it inf.
        thetas = max(1.0, (self.theta_max - self.theta_min) / self.theta_step + 1.0)
        points = thetas * max(1.0, (self.phi_max - self.phi_min) / self.phi_step + 1.0)
        if not points <= MAX_GRID_POINTS:
            raise ValueError(f"grid of up to {points:.4g} points, over the cap of {MAX_GRID_POINTS}")
        # A point is valid iff its theta and its phi are, and both axes ascend: the first
        # point, then the first theta past pi, raise what enumerating the grid would.
        if not self.thetas or not self.phis:
            raise ValueError("empty grid range")
        CoherentSpec(self.thetas[0], self.phis[0])
        if (past_pi := bisect.bisect_right(self.thetas, math.pi)) < len(self.thetas):
            CoherentSpec(self.thetas[past_pi], self.phis[0])

    @cached_property
    def thetas(self) -> tuple[float, ...]:
        return _axis_values(self.theta_min, self.theta_max, self.theta_step)

    @cached_property
    def phis(self) -> tuple[float, ...]:
        # Half-open at 2 pi (the same azimuth as 0), within the endpoint rule's tolerance.
        values = _axis_values(self.phi_min, self.phi_max, self.phi_step)
        return tuple(v for v in values if v < 2.0 * math.pi - 1e-9 * self.phi_step)


def _axis_values(lo: float, hi: float, step: float) -> tuple[float, ...]:
    # Endpoint rule: include lo + i*step while it does not exceed hi beyond
    # 1e-9 of a step, so accumulated float error never drops or adds a point.
    # The candidates ascend, so the rule keeps a prefix of them; an empty axis has none,
    # also where its quotient is -inf (a step far below max - min < 0).
    values = lo + np.arange(math.floor(max(-2.0, (hi - lo) / step)) + 2) * step
    values = values[values <= hi + 1e-9 * step]
    if np.any(values[1:] <= values[:-1]):
        raise ValueError(f"grid step {step:.4g} is below the rounding of its axis values")
    return tuple(values.tolist())


def enumerate_grid(grid: SphereGrid) -> list[CoherentSpec]:
    """Theta-major, then phi; pole rows are kept even though degenerate."""
    return [CoherentSpec(t, p) for t in grid.thetas for p in grid.phis]
