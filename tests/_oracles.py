"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way: explicit
kron products, scipy expm and Schur, characteristic polynomials, double
loops. None of it shares code with the package's computational paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


def axis_values(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo + i*step for i = 0, 1, ... while it does not exceed hi beyond 1e-9 of a step."""
    values = []
    i = 0
    while (v := lo + i * step) <= hi + 1e-9 * step:
        values.append(v)
        i += 1
    return tuple(values)


def site_operator(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """op acting on one qubit, identity elsewhere; bit i of the index is qubit i."""
    m = np.eye(1, dtype=np.complex128)
    for position in range(n_qubits - 1, -1, -1):
        m = np.kron(m, op if position == qubit else ID2)
    return m


def ising_angles(bonds, n_qubits: int) -> np.ndarray:
    """The angles sum_i J_i s_i s_{i+1}, periodic, spin s = 1 - 2*bit."""
    dim = 1 << n_qubits
    angles = np.zeros(dim)
    for b in range(dim):
        spins = [1 - 2 * ((b >> i) & 1) for i in range(n_qubits)]
        angles[b] = sum(
            bonds[i] * spins[i] * spins[(i + 1) % n_qubits] for i in range(n_qubits)
        )
    return angles


def ising_phases(bonds, n_qubits: int) -> np.ndarray:
    """The phases exp(-i sum_i J_i s_i s_{i+1}), periodic, spin s = 1 - 2*bit."""
    return np.exp(-1j * ising_angles(bonds, n_qubits))


def ising_phase_matrix(bonds, n_qubits: int) -> np.ndarray:
    """Diagonal matrix of ``ising_phases``."""
    return np.diag(ising_phases(bonds, n_qubits))


def dense_floquet(kick_fields, bonds, n_qubits: int) -> np.ndarray:
    """expm-built kick factor times the Ising diagonal, kick applied second."""
    dim = 1 << n_qubits
    h_kick = np.zeros((dim, dim), dtype=np.complex128)
    for qubit, (bx, bz) in enumerate(kick_fields):
        h_kick += bx * site_operator(PAULI_X, qubit, n_qubits)
        h_kick += bz * site_operator(PAULI_Z, qubit, n_qubits)
    return scipy.linalg.expm(-1j * h_kick) @ ising_phase_matrix(bonds, n_qubits)


def dense_kick_factor(kick_fields, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    h_kick = np.zeros((dim, dim), dtype=np.complex128)
    for qubit, (bx, bz) in enumerate(kick_fields):
        h_kick += bx * site_operator(PAULI_X, qubit, n_qubits)
        h_kick += bz * site_operator(PAULI_Z, qubit, n_qubits)
    return scipy.linalg.expm(-1j * h_kick)


def vgue_factors(params, rng) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i (H_I + eps V)) and exp(-i (H_I - eps V)) of a VGUE ``params``.

    H_I holds the unit-bond Ising angles on its diagonal. The GUE draw V (from
    ``rng``) and the Hermitian exponential are the library's ``sample_gue`` and
    ``hermitian_expm``, tested on their own, so that a test of the kick layer
    sees no rounding of a second eigensolver.
    """
    from echochain.linalg import hermitian_expm, sample_gue

    n = params.n_qubits
    v = sample_gue(1 << n, rng)
    h_ising = np.diag(ising_angles((1.0,) * n, n))
    return tuple(hermitian_expm(h_ising + s * params.epsilon * v) for s in (1, -1))


def vgue_pair(params, rng) -> tuple[np.ndarray, np.ndarray]:
    """Dense U+ and U- of a VGUE ``params``: ``dense_kick_factor`` times ``vgue_factors``."""
    kick = dense_kick_factor(((params.b_perp, params.b_par),) * params.n_qubits, params.n_qubits)
    return tuple(kick @ factor for factor in vgue_factors(params, rng))


def per_qubit_floquet(kick_fields, bonds, state: np.ndarray, dense_factor=None) -> np.ndarray:
    """U |state> with one 2x2 kick pass per qubit, after the Ising phases or ``dense_factor``.

    ``state`` is (dim,) or (dim, m). Each pass contracts one expm-built gate
    against its qubit's axis, bit q of the index, with any columns riding
    along in the trailing axis.
    """
    n_qubits = len(kick_fields)
    if dense_factor is not None:
        v = dense_factor @ state
    else:
        phases = ising_phases(bonds, n_qubits)
        v = (phases if state.ndim == 1 else phases[:, np.newaxis]) * state
    shape = v.shape
    cols = 1 if v.ndim == 1 else shape[1]
    for qubit, (bx, bz) in enumerate(kick_fields):
        gate = scipy.linalg.expm(-1j * (bx * PAULI_X + bz * PAULI_Z))
        v = np.matmul(gate, v.reshape(-1, 2, (1 << qubit) * cols)).reshape(shape)
    return v


def unitarity_defect(m: np.ndarray) -> float:
    """max|U^dag U - 1|, from the dense product."""
    m = np.asarray(m)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and polynomial roots."""
    n = matrix.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(matrix)
    for k in range(1, n + 1):
        m = matrix @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(matrix @ m) / k
    return np.roots(coeffs)


def taylor_expm(h: np.ndarray, scale: float, terms: int = 30) -> np.ndarray:
    """Truncated series for exp(-i * scale * h)."""
    n = h.shape[0]
    result = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ ((-1j * scale) * h) / k
        result = result + term
    return result


def joint_phase_oracle(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Eigenphases of a unitary via joint diagonalization of its Hermitian parts.

    Diagonalizes C = (U + U^dag)/2; inside each (near-)degenerate C eigenspace,
    S = (U - U^dag)/(2i) is diagonalized to split cos-degenerate +/- phase
    pairs. Returns sorted phases in (-pi, pi].
    """
    c = (u + u.conj().T) / 2.0
    s = (u - u.conj().T) / 2.0j
    c_vals, c_vecs = np.linalg.eigh(c)
    phases = []
    start = 0
    for stop in range(1, len(c_vals) + 1):
        if stop < len(c_vals) and c_vals[stop] - c_vals[start] < tol:
            continue
        block = c_vecs[:, start:stop]
        s_block = block.conj().T @ s @ block
        s_vals, s_vecs = np.linalg.eigh(s_block)
        cos_parts = np.real(np.diag(s_vecs.conj().T @ block.conj().T @ c @ block @ s_vecs))
        for cos_v, sin_v in zip(cos_parts, s_vals):
            phases.append(math.atan2(sin_v, cos_v))
        start = stop
    out = np.sort(np.asarray(phases))
    out[out == -np.pi] = np.pi
    return np.sort(out)


def schur_eig_ref(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenphases in (-pi, pi] ascending, eigenvectors) of a unitary from its Schur form.

    A unitary is normal, so its complex Schur form is diagonal and the Schur
    vectors are eigenvectors.
    """
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    phases[phases == -np.pi] = np.pi
    order = np.argsort(phases, kind="stable")
    return phases[order], z[:, order]


def semicircle_cdf(x: np.ndarray, radius: float) -> np.ndarray:
    """CDF of the Wigner semicircle law on [-radius, radius]."""
    t = np.clip(np.asarray(x, dtype=float) / radius, -1.0, 1.0)
    return 0.5 + (t * np.sqrt(1.0 - t**2) + np.arcsin(t)) / np.pi


def totient(n: int) -> int:
    count = 0
    for m in range(1, n + 1):
        count += math.gcd(m, n) == 1
    return count


def necklace_count(n: int) -> int:
    """Binary necklaces of length n: (1/n) sum_{d|n} phi(d) 2^{n/d}."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += totient(d) * (1 << (n // d))
    return total // n


def pairwise_rise_max(values: np.ndarray) -> float:
    """max over t_i <= t_f of K(t_f) - K(t_i), floored at zero."""
    best = 0.0
    for tf in range(len(values)):
        for ti in range(tf + 1):
            best = max(best, values[tf] - values[ti])
    return best


def rise_above_mean_max(values: np.ndarray) -> float:
    """max over t_f of K(t_f) - mean of all strictly earlier K, floored at zero."""
    best = 0.0
    for tf in range(1, len(values)):
        best = max(best, values[tf] - float(np.mean(values[:tf])))
    return best


def run_based_blp(amplitude: np.ndarray) -> float:
    """Sum of (local max - preceding local min) over maximal rising runs."""
    total = 0.0
    t = 0
    while t < len(amplitude) - 1:
        if amplitude[t + 1] > amplitude[t]:
            start = t
            while t < len(amplitude) - 1 and amplitude[t + 1] > amplitude[t]:
                t += 1
            total += amplitude[t] - amplitude[start]
        else:
            t += 1
    return total


def run_based_rhp(amplitude: np.ndarray) -> float:
    """Sum of log(local max / preceding local min) over maximal rising runs."""
    total = 0.0
    t = 0
    while t < len(amplitude) - 1:
        if amplitude[t + 1] > amplitude[t]:
            start = t
            while t < len(amplitude) - 1 and amplitude[t + 1] > amplitude[t]:
                t += 1
            total += math.log(amplitude[t] / amplitude[start])
        else:
            t += 1
    return total


def brody_alpha_ref(q: float) -> float:
    return math.gamma((q + 2.0) / (q + 1.0)) ** (q + 1.0)


def brody_sample(q: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from P_q: CDF(s) = 1 - exp(-alpha s^(q+1))."""
    u = rng.random(size)
    alpha = brody_alpha_ref(q)
    return (-np.log1p(-u) / alpha) ** (1.0 / (q + 1.0))


def match_phase_multisets(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Greedy circular matching; returns the largest matched distance.

    Works on the unit circle so a phase at pi and one at -pi + delta still
    pair up. Quadratic, fine for the dimensions used in tests.
    """
    if len(a) != len(b):
        raise AssertionError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    za = np.exp(1j * np.asarray(a))
    zb = np.exp(1j * np.asarray(b))
    used = np.zeros(len(b), dtype=bool)
    worst = 0.0
    for z in za:
        dist = np.abs(np.angle(zb / z))
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > tol:
            raise AssertionError(f"unmatched phase, nearest at distance {dist[j]:.2e}")
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst


def kron_coherent(theta: float, phi: float, n_qubits: int) -> np.ndarray:
    """N-fold kron power of the single-qubit Bloch vector."""
    single = np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)],
        dtype=np.complex128,
    )
    state = np.array([1.0], dtype=np.complex128)
    for _ in range(n_qubits):
        state = np.kron(state, single)
    return state


def brody_pdf(s: np.ndarray, q: float) -> np.ndarray:
    """P_q(s) = (q+1) alpha s^q exp(-alpha s^{q+1}); q=0 Poisson, q=1 Wigner."""
    s = np.asarray(s, dtype=float)
    a = brody_alpha_ref(q)
    return (q + 1.0) * a * s**q * np.exp(-a * s ** (q + 1.0))


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with conjugation on the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"vector dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def coherent_overlap(a, b, n_qubits: int) -> complex:
    """Closed-form <a|b> for N-qubit coherent states given by (theta, phi) specs."""
    half_a, half_b = a.theta / 2.0, b.theta / 2.0
    single = math.cos(half_a) * math.cos(half_b) + (
        math.sin(half_a) * math.sin(half_b) * np.exp(1j * (b.phi - a.phi))
    )
    return complex(single**n_qubits)


def translation_permutation(n_qubits: int) -> np.ndarray:
    """Index map of the cyclic shift sending bit i to bit i+1 and the top bit to bit 0."""
    idx = np.arange(1 << n_qubits)
    return ((idx << 1) | (idx >> (n_qubits - 1))) & ((1 << n_qubits) - 1)


def orbits_ref(n_qubits: int) -> list[tuple[int, int]]:
    """(smallest member, period) of every cyclic-shift orbit, found by walking each orbit."""
    perm = translation_permutation(n_qubits)
    seen = set()
    out = []
    for b in range(1 << n_qubits):
        if b in seen:
            continue
        members = [b]
        while int(perm[members[-1]]) != b:
            members.append(int(perm[members[-1]]))
        seen.update(members)
        out.append((b, len(members)))
    return out


def orbit_matrix(basis) -> np.ndarray:
    """The dense real orbit basis C of an ``OrbitBasis``, one basis state at a time."""
    c = np.zeros((len(basis.orbit), len(basis.sizes)))
    for state, orbit in enumerate(basis.orbit):
        c[state, orbit] = 1.0 / math.sqrt(basis.sizes[orbit])
    return c


def sector_basis_ref(basis) -> np.ndarray:
    """Momentum basis columns (1/sqrt p) sum_{j<p} e^{-2 pi i k j/N} T^j |r>, one orbit at a time."""
    n, k = basis.n_qubits, basis.k
    perm = translation_permutation(n)
    b = np.zeros((1 << n, len(basis.orbit_reps)), dtype=np.complex128)
    for col, (rep, period) in enumerate(basis.orbit_reps):
        coeff = np.exp(-2j * np.pi * k * np.arange(period) / n) / math.sqrt(period)
        x = rep
        for j in range(period):
            b[x, col] = coeff[j]
            x = int(perm[x])
    return b


def sector_block_ref(u: np.ndarray, basis) -> np.ndarray:
    """B^dag U B of a dense propagator U, with B the momentum basis columns."""
    b = sector_basis_ref(basis)
    return b.conj().T @ u @ b


def translate(state: np.ndarray, n_qubits: int) -> np.ndarray:
    """Applies the translation operator T once: T|b> = |translation_permutation(b)>."""
    state = np.asarray(state)
    if state.shape != (1 << n_qubits,):
        raise ValueError("state dimension does not match qubit count")
    out = np.empty_like(state)
    out[translation_permutation(n_qubits)] = state
    return out


# Reference formulation of the qubit's dephasing channel, which the
# divisibility indicator G is checked against.


@dataclass(frozen=True)
class ChannelSnapshot:
    """Off-diagonal multiplier of the dephasing channel at one time."""

    f_value: complex


def channel_matrix(snapshot: ChannelSnapshot) -> np.ndarray:
    """4x4 channel matrix in the Pauli basis (1, sigma_x, sigma_y, sigma_z).

    Populations pass through; the coherence block rotates and shrinks by f.
    """
    re, im = snapshot.f_value.real, snapshot.f_value.imag
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, re, -im, 0.0],
            [0.0, im, re, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def choi_eigenvalues(multiplier: complex) -> np.ndarray:
    """Nonzero eigenvalues (1 +- |multiplier|)/2 of the normalized Choi matrix."""
    m = abs(multiplier)
    return np.array([(1.0 + m) / 2.0, (1.0 - m) / 2.0])


def choi_trace_norm(multiplier: complex) -> float:
    """Trace norm of the (possibly non-CP) intermediate dephasing map.

    The intermediate map from t to t' multiplies coherences by
    lambda = f(t')/f(t); its normalized Choi eigenvalues are (1 +- |lambda|)/2,
    so the trace norm is max(1, |lambda|) and exceeds 1 exactly when the
    amplitude rose.
    """
    return max(1.0, abs(multiplier))
