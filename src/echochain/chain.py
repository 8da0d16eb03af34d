"""Kicked Ising chain: coupling variants and the perturbed one-period propagators."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import RngStream, hermitian_expm, sample_gue

DENSE_DIM_CAP = 4096


class Coupling(enum.Enum):
    VJ = "VJ"      # all Ising bonds 1 +- eps
    V01 = "V01"    # only the bond between qubits 0 and 1
    VB = "VB"      # transverse kick field b_perp +- eps on every qubit
    V0 = "V0"      # transverse kick field perturbed on qubit 0 only
    VGUE = "VGUE"  # dense random Hermitian added to the Ising half


@dataclass(frozen=True)
class ChainParams:
    n_qubits: int
    b_perp: float
    b_par: float
    epsilon: float
    coupling: Coupling
    gue_seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("n_qubits must be >= 2 (periodic chain)")
        if not all(map(math.isfinite, (self.b_perp, self.b_par, self.epsilon))):
            raise ValueError("b_perp, b_par and epsilon must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.coupling is Coupling.VGUE and self.gue_seed is None:
            raise ValueError("VGUE coupling requires gue_seed")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _ising_angles(n_qubits: int, bonds: tuple[float, ...]) -> np.ndarray:
    """Diagonal phase angles sum_i J_i s_i s_{i+1}, s_i = 1 - 2*bit_i.

    Qubit i is bit i of the basis index (qubit 0 = least significant bit);
    bond i couples qubits i and (i+1) mod N, so N = 2 counts its single
    bond twice.
    """
    idx = np.arange(1 << n_qubits)
    s = 1.0 - 2.0 * ((idx[:, np.newaxis] >> np.arange(n_qubits)) & 1)
    angles = np.zeros(len(idx))
    for i, j in enumerate(bonds):
        angles += j * s[:, i] * s[:, (i + 1) % n_qubits]
    return angles


def _kick_gate(bx: float, bz: float) -> np.ndarray:
    """exp(-i (bx sigma_x + bz sigma_z)) in closed form."""
    beta = math.hypot(bx, bz)
    if beta == 0.0:
        return np.eye(2, dtype=np.complex128)
    c = math.cos(beta)
    s = math.sin(beta) / beta
    return np.array(
        [[c - 1j * s * bz, -1j * s * bx], [-1j * s * bx, c + 1j * s * bz]],
        dtype=np.complex128,
    )


@dataclass(frozen=True, eq=False)
class FloquetOperator:
    """One-period propagator U = (single-qubit kicks) * (Ising half).

    The Ising half is the diagonal phase built from ``bond_strengths``, or
    ``dense_factor`` when present (dense couplings); the kick applies
    exp(-i (bx sigma_x + bz sigma_z)) per qubit.
    """

    kick_fields: tuple[tuple[float, float], ...]
    bond_strengths: tuple[float, ...]
    dense_factor: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.bond_strengths) != len(self.kick_fields):
            raise ValueError("periodic chain needs exactly one bond per qubit")
        if self.dense_factor is not None and self.dense_factor.shape != (self.dim, self.dim):
            raise ValueError("dense_factor dimension mismatch")

    @property
    def n_qubits(self) -> int:
        return len(self.kick_fields)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def _ising_phases(self) -> np.ndarray:
        return np.exp(-1j * _ising_angles(self.n_qubits, self.bond_strengths))

    @cached_property
    def _kick_gates(self) -> tuple[np.ndarray, ...]:
        return tuple(_kick_gate(bx, bz) for bx, bz in self.kick_fields)


@dataclass(frozen=True, eq=False)
class FloquetPair:
    plus: FloquetOperator
    minus: FloquetOperator

    @property
    def identical(self) -> bool:
        """True at epsilon = 0, where ``build_floquet_pair`` makes both members one object."""
        return self.plus is self.minus


def build_floquet_pair(params: ChainParams, rng: RngStream | None = None) -> FloquetPair:
    """Constructs U+ and U- with the perturbation placed by coupling type.

    ``rng`` feeds the dense random draw for VGUE; when omitted it is derived
    from ``params.gue_seed``. At epsilon = 0 both members are the same object,
    so downstream code can recognize the unperturbed case exactly.
    """
    n = params.n_qubits
    eps = params.epsilon
    base_kick = ((params.b_perp, params.b_par),) * n
    base_bonds = (1.0,) * n

    if eps == 0.0:
        op = FloquetOperator(base_kick, base_bonds)
        return FloquetPair(op, op)

    c = params.coupling
    if c is Coupling.VJ:
        plus = FloquetOperator(base_kick, (1.0 + eps,) * n)
        minus = FloquetOperator(base_kick, (1.0 - eps,) * n)
    elif c is Coupling.V01:
        plus = FloquetOperator(base_kick, (1.0 + eps,) + (1.0,) * (n - 1))
        minus = FloquetOperator(base_kick, (1.0 - eps,) + (1.0,) * (n - 1))
    elif c is Coupling.VB:
        plus = FloquetOperator(((params.b_perp + eps, params.b_par),) * n, base_bonds)
        minus = FloquetOperator(((params.b_perp - eps, params.b_par),) * n, base_bonds)
    elif c is Coupling.V0:
        rest = ((params.b_perp, params.b_par),) * (n - 1)
        plus = FloquetOperator(((params.b_perp + eps, params.b_par),) + rest, base_bonds)
        minus = FloquetOperator(((params.b_perp - eps, params.b_par),) + rest, base_bonds)
    elif c is Coupling.VGUE:
        if params.dim > DENSE_DIM_CAP:
            raise ValueError(
                f"VGUE needs a dense {params.dim}x{params.dim} factor; refusing beyond {DENSE_DIM_CAP}"
            )
        if rng is None:
            rng = RngStream(params.gue_seed, 0)
        v = sample_gue(params.dim, rng)
        h_ising = np.diag(_ising_angles(n, base_bonds)).astype(np.complex128)
        plus = FloquetOperator(base_kick, base_bonds, hermitian_expm(h_ising + eps * v, 1.0))
        minus = FloquetOperator(base_kick, base_bonds, hermitian_expm(h_ising - eps * v, 1.0))
    else:  # pragma: no cover
        raise ValueError(f"unknown coupling {c}")
    return FloquetPair(plus, minus)


def _apply_kicks(op: FloquetOperator, v: np.ndarray) -> np.ndarray:
    # Contract each 2x2 gate against its qubit axis; for a (dim, m) batch the
    # trailing columns ride along inside the reshaped last axis.
    shape = v.shape
    cols = 1 if v.ndim == 1 else shape[1]
    for q, gate in enumerate(op._kick_gates):
        arr = v.reshape(-1, 2, (1 << q) * cols)
        v = np.matmul(gate, arr).reshape(shape)
    return v


def apply_floquet(op: FloquetOperator, state: np.ndarray) -> np.ndarray:
    """U |state>; a (dim, m) array is treated as m independent columns."""
    v = np.asarray(state, dtype=np.complex128)
    if v.shape[0] != op.dim or v.ndim > 2:
        raise ValueError(f"state dimension {v.shape} does not match operator dim {op.dim}")
    if op.dense_factor is not None:
        v = op.dense_factor @ v
    else:
        v = op._ising_phases * v if v.ndim == 1 else op._ising_phases[:, np.newaxis] * v
    return _apply_kicks(op, v)


def assemble_dense(op: FloquetOperator) -> np.ndarray:
    """Dense matrix of the propagator; capped at dimension 4096."""
    if op.dim > DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    if op.dense_factor is not None:
        m = np.array(op.dense_factor)
    else:
        m = np.diag(op._ising_phases)
    return _apply_kicks(op, m)
