"""Plain-text run configuration: one `key = value` per line, `#` comments."""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

from .chain import ChainParams, Coupling
from .coherent import SphereGrid


class ConfigError(ValueError):
    pass


class IprBasisChoice(enum.Enum):
    AUTO = "AUTO"
    SECTOR_K0 = "SECTOR_K0"
    FULL = "FULL"


@dataclass(frozen=True)
class RunConfig:
    n_qubits: int
    b_perp: float
    b_par: float
    epsilon: float
    coupling: Coupling
    t_cut: int = 10000
    theta_min: float = 0.0
    theta_max: float = math.pi
    theta_step: float = 0.1
    phi_min: float = 0.0
    phi_max: float = 2.0 * math.pi
    phi_step: float = 0.1
    seed: int = 0
    gue_samples: int = 1
    normalize_by_tcut: bool = False
    ipr_basis: IprBasisChoice = IprBasisChoice.AUTO
    output_path: str = "sweep.csv"
    tail_window_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.t_cut < 1:
            raise ConfigError("t_cut must be >= 1")
        if self.gue_samples < 1:
            raise ConfigError("gue_samples must be >= 1")
        if self.gue_samples > 1 and self.coupling is not Coupling.VGUE:
            raise ConfigError("gue_samples > 1 only makes sense with coupling VGUE")
        if not 0.0 < self.tail_window_fraction <= 1.0:
            raise ConfigError("tail_window_fraction must lie in (0, 1]")
        # Surface parameter errors as config errors at parse time.
        try:
            self.chain_params
            self.grid
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def chain_params(self) -> ChainParams:
        gue_seed = self.seed if self.coupling is Coupling.VGUE else None
        return ChainParams(
            self.n_qubits, self.b_perp, self.b_par, self.epsilon, self.coupling, gue_seed
        )

    @property
    def grid(self) -> SphereGrid:
        return SphereGrid(
            self.theta_min, self.theta_max, self.theta_step,
            self.phi_min, self.phi_max, self.phi_step,
        )

    @property
    def resolved_ipr_basis(self) -> IprBasisChoice:
        if self.ipr_basis is not IprBasisChoice.AUTO:
            return self.ipr_basis
        sector = self.coupling.translation_invariant
        return IprBasisChoice.SECTOR_K0 if sector else IprBasisChoice.FULL


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parser(kind):
    if kind is bool:
        return _parse_bool
    if kind is float:
        return _parse_float
    if not issubclass(kind, enum.Enum):
        return kind

    def parse_enum(text: str):
        try:
            return kind(text.upper())
        except ValueError:
            names = ", ".join(member.value for member in kind)
            raise ValueError(f"expected one of {names}, got {text!r}") from None
    return parse_enum


_PARSERS = {name: _parser(kind) for name, kind in get_type_hints(RunConfig).items()}
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)


def parse_config_text(text: str) -> RunConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        return RunConfig(**raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
