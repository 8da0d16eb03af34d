"""Kicked Ising chain: coupling variants and the perturbed one-period propagators."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .linalg import RngStream, hermitian_expm, sample_gue

DENSE_DIM_CAP = 4096
# Qubits per Kronecker product of kick gates. On one BLAS thread, N = 9..16 and 1..100 columns,
# width 4 ran 1.9-11x faster than one 2x2 pass per qubit, within 30% of the best of widths 3..8.
KICK_CHUNK = 4


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

    def __post_init__(self) -> None:
        if self.n_qubits < 2:
            raise ValueError("n_qubits must be >= 2 (periodic chain)")
        if not all(map(math.isfinite, (self.b_perp, self.b_par, self.epsilon))):
            raise ValueError("b_perp, b_par and epsilon must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

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

    The Ising half is the diagonal phase built from ``bond_strengths``; the kick
    gates exp(-i (bx sigma_x + bz sigma_z)) apply as one Kronecker product per
    KICK_CHUNK consecutive qubits.
    """

    kick_fields: tuple[tuple[float, float], ...]
    bond_strengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.bond_strengths) != len(self.kick_fields):
            raise ValueError("periodic chain needs exactly one bond per qubit")
        # A finite sum |J_i| bounds every partial sum of an Ising angle, which adds J_i in order.
        if not math.isfinite(sum(map(abs, self.bond_strengths))):
            raise ValueError("Ising phases overflow: sum |J_i| of the bond strengths is not finite")
        if not all(math.isfinite(math.hypot(bx, bz)) for bx, bz in self.kick_fields):
            raise ValueError("kick phases overflow: hypot(bx, bz) of a kick field is not finite")

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
    def _kick_gates(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(first qubit, Kronecker product of its gates, highest qubit leftmost) per chunk."""
        g = [_kick_gate(bx, bz) for bx, bz in self.kick_fields]
        chunks = range(0, len(g), KICK_CHUNK)
        return tuple((q, reduce(np.kron, g[q : q + KICK_CHUNK][::-1])) for q in chunks)


@dataclass(frozen=True, eq=False)
class FloquetPair:
    """U+ and U-: the operators, or matrices (VGUE's dense U+-, or blocks from ``orbit_blocks``)."""

    plus: FloquetOperator | np.ndarray
    minus: FloquetOperator | np.ndarray

    @property
    def identical(self) -> bool:
        """True at epsilon = 0: ``build_floquet_pair`` and ``orbit_blocks`` give one object."""
        return self.plus is self.minus


def build_floquet_pair(params: ChainParams, rng: RngStream | None = None) -> FloquetPair:
    """Constructs U+ and U- with the perturbation +-eps placed by coupling type.

    VJ/V01 shift the Ising bonds and VB/V0 the transverse kick field, VJ/VB on
    every site and V01/V0 on site 0 only. VGUE's members are the dense matrices
    (kicks) exp(-i (H_I +- eps V)), the form they step in, with V drawn from
    ``rng``. At epsilon = 0 both members are the same object, so downstream code
    can recognize the unperturbed case exactly.
    """
    n = params.n_qubits
    eps = params.epsilon
    base_kick = ((params.b_perp, params.b_par),) * n
    base_bonds = (1.0,) * n

    if eps == 0.0:
        op = FloquetOperator(base_kick, base_bonds)
        return FloquetPair(op, op)

    c = params.coupling
    if c is not Coupling.VGUE:
        sites = n if c in (Coupling.VJ, Coupling.VB) else 1

        def shifted(shift: float) -> FloquetOperator:
            if c in (Coupling.VJ, Coupling.V01):
                return FloquetOperator(base_kick, (1.0 + shift,) * sites + base_bonds[sites:])
            kick = ((params.b_perp + shift, params.b_par),) * sites + base_kick[sites:]
            return FloquetOperator(kick, base_bonds)

        return FloquetPair(shifted(eps), shifted(-eps))
    if params.dim > DENSE_DIM_CAP:
        raise ValueError(
            f"VGUE propagators are dense: refusing dimension {params.dim} > {DENSE_DIM_CAP}"
        )
    if rng is None:
        raise ValueError("VGUE coupling needs an rng for its random draw")
    # H_I +- eps V in one buffer: eps V, then its negative, with the angles on the diagonal.
    kicks = FloquetOperator(base_kick, base_bonds)  # refuses overflowing kicks before the draw
    v = sample_gue(params.dim, rng)
    v *= eps
    diagonal, angles = np.diag_indices(params.dim), _ising_angles(n, base_bonds)
    h = v.copy()
    h[diagonal] += angles
    plus = _apply_kicks(kicks, hermitian_expm(h))
    np.negative(v, out=h)
    del v
    h[diagonal] += angles
    minus = _apply_kicks(kicks, hermitian_expm(h))
    return FloquetPair(plus, minus)


def _apply_kicks(op: FloquetOperator, v: np.ndarray) -> np.ndarray:
    # Contract each chunk's gate against its qubits' axis; for a (dim, m) batch the
    # trailing columns ride along inside the reshaped last axis.
    shape, cols = v.shape, v.size // len(v)
    for q, gate in op._kick_gates:
        v = np.matmul(gate, v.reshape(-1, len(gate), (1 << q) * cols)).reshape(shape)
    return v


def apply_floquet(op: FloquetOperator, state: np.ndarray) -> np.ndarray:
    """U |state>; a (dim, m) array is treated as m independent columns."""
    v = np.asarray(state)  # as given: a real input (an orbit basis) is not copied to complex
    if v.shape[0] != op.dim or v.ndim > 2:
        raise ValueError(f"state dimension {v.shape} does not match operator dim {op.dim}")
    v = op._ising_phases * v if v.ndim == 1 else op._ising_phases[:, np.newaxis] * v
    return _apply_kicks(op, v)


def assemble_dense(op: FloquetOperator) -> np.ndarray:
    """Dense matrix of the propagator; capped at dimension 4096."""
    if op.dim > DENSE_DIM_CAP:
        raise ValueError(f"dense assembly refused beyond dimension {DENSE_DIM_CAP}")
    return _apply_kicks(op, np.diag(op._ising_phases))
