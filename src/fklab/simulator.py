"""Exact statevector kernels for ZZ-lattice simulations.

Conventions, fixed package-wide:
  * basis index bit k is qubit k (little-endian), so qubit indices coincide
    with lattice indices;
  * spin convention |0> -> z = +1, |1> -> z = -1;
  * the diagonal coupling phase of a basis string z under time-t evolution is
    exp(-i * t * (pi/4) * sum_{edges} z_i z_j).

All operations return fresh states; inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DimensionMismatchError, ValidationError
from .lattice import InputSpec, InputType, LatticeGeometry

# Full statevectors are held up to 2^26 amplitudes; dense matrix oracles are
# meant for n <= 6 only.
MAX_STATE_QUBITS = 26
MAX_DENSE_QUBITS = 6

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10

# Single-qubit input states (Z evolution absorbed) and their orthogonal
# complements. The complements fix the rotated measurement bases; only the
# projectors onto the first column are observable.
X_STATE = np.array([0.5 * (1 + 1j), 0.5 * (1 - 1j)], dtype=np.complex128)
Y_STATE = np.array([0.5 * (1 + 1j), np.exp(-1j * np.pi / 4) * 0.5 * (1 - 1j)], dtype=np.complex128)
X_PERP = np.array([0.5 * (1 + 1j), -0.5 * (1 - 1j)], dtype=np.complex128)
Y_PERP = np.array([0.5 * (1 + 1j), -np.exp(-1j * np.pi / 4) * 0.5 * (1 - 1j)], dtype=np.complex128)

_SINGLE_QUBIT_STATES = {InputType.X_TYPE: X_STATE, InputType.Y_TYPE: Y_STATE}
_ROTATED_BASES = {
    InputType.X_TYPE: np.column_stack([X_STATE, X_PERP]),
    InputType.Y_TYPE: np.column_stack([Y_STATE, Y_PERP]),
}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


@dataclass
class PureState:
    """Statevector over `num_qubits` qubits, normalized to within 1e-10."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {1 << self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm^2 = {norm_sq!r}, not 1 within {NORM_ATOL}")

    def copy(self) -> "PureState":
        return PureState(self.num_qubits, self.amplitudes.copy())


def rotated_basis(kind: InputType) -> np.ndarray:
    """2x2 unitary whose columns are the rotated measurement basis for `kind`."""
    return _ROTATED_BASES[kind].copy()


def product_state(spec: InputSpec) -> PureState:
    """Tensor product of the per-qubit input states, qubit 0 at bit 0."""
    amps = np.array([1.0 + 0.0j])
    for kind in spec.choices:
        amps = np.kron(_SINGLE_QUBIT_STATES[kind], amps)
    return PureState(spec.num_qubits, amps)


@lru_cache(maxsize=8)
def interaction_energies(lattice: LatticeGeometry) -> np.ndarray:
    """sum_{edges} z_i z_j for every basis string, as a read-only int16 array."""
    n = lattice.num_qubits
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_STATE_QUBITS}-qubit guard")
    idx = np.arange(1 << n, dtype=np.int64)
    energy = np.zeros(1 << n, dtype=np.int16)
    for i, j in lattice.edges:
        s_i = 1 - 2 * ((idx >> i) & 1)
        s_j = 1 - 2 * ((idx >> j) & 1)
        energy += (s_i * s_j).astype(np.int16)
    energy.flags.writeable = False
    return energy


def zz_phases(lattice: LatticeGeometry, time: float) -> np.ndarray:
    """Diagonal of the time-t coupling evolution over the lattice register."""
    return np.exp((-1j * time * np.pi / 4) * interaction_energies(lattice))


def apply_zz_evolution(state: PureState, lattice: LatticeGeometry, time: float) -> PureState:
    """Multiply each basis amplitude by its diagonal coupling phase."""
    if state.num_qubits != lattice.num_qubits:
        raise DimensionMismatchError(
            f"state has {state.num_qubits} qubits, lattice has {lattice.num_qubits}"
        )
    return PureState(state.num_qubits, state.amplitudes * zz_phases(lattice, time))


def walsh_hadamard(state: PureState) -> PureState:
    """Apply H on every qubit via the in-place butterfly (O(n 2^n))."""
    n = state.num_qubits
    a = state.amplitudes.copy()
    for k in range(n):
        a = a.reshape(-1, 2, 1 << k)
        even = a[:, 0, :].copy()
        odd = a[:, 1, :].copy()
        a[:, 0, :] = even + odd
        a[:, 1, :] = even - odd
    return PureState(n, a.reshape(-1) * 2.0 ** (-0.5 * n))


def apply_single_qubit(state: PureState, qubit: int, gate: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one qubit. Raises ValidationError if non-unitary."""
    g = np.asarray(gate, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 gate, got shape {g.shape}")
    if np.max(np.abs(g.conj().T @ g - np.eye(2))) > UNITARY_ATOL:
        raise ValidationError("gate is not unitary within 1e-10")
    if not 0 <= qubit < state.num_qubits:
        raise DimensionMismatchError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    a = state.amplitudes.copy().reshape(-1, 2, 1 << qubit)
    s0 = a[:, 0, :].copy()
    s1 = a[:, 1, :].copy()
    a[:, 0, :] = g[0, 0] * s0 + g[0, 1] * s1
    a[:, 1, :] = g[1, 0] * s0 + g[1, 1] * s1
    return PureState(state.num_qubits, a.reshape(-1))


def apply_global_cz(state: PureState, control: int, targets) -> PureState:
    """Controlled Z on every target qubit, controlled by one qubit.

    A basis amplitude flips sign iff the control bit is 1 and an odd number
    of target bits are 1.
    """
    targets = tuple(targets)
    if control in targets:
        raise ValidationError(f"control qubit {control} overlaps the target set")
    for q in (control, *targets):
        if not 0 <= q < state.num_qubits:
            raise DimensionMismatchError(f"qubit {q} out of range for {state.num_qubits} qubits")
    idx = np.arange(state.amplitudes.size, dtype=np.int64)
    parity = np.zeros(idx.size, dtype=np.int64)
    for t in targets:
        parity ^= (idx >> t) & 1
    flip = (((idx >> control) & 1) & parity).astype(bool)
    a = state.amplitudes.copy()
    a[flip] *= -1
    return PureState(state.num_qubits, a)


def _build_alias(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction: (alias index J, acceptance threshold q)."""
    p = np.asarray(probabilities, dtype=np.float64)
    size = p.size
    scaled = p * size
    alias = np.arange(size, dtype=np.int64)
    accept = np.ones(size, dtype=np.float64)
    small = [i for i in range(size) if scaled[i] < 1.0]
    large = [i for i in range(size) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    return alias, accept


@dataclass
class Distribution:
    """Discrete distribution over n-bit outcomes with an alias table.

    Sampling costs two uniforms per draw regardless of the support size.
    Outcomes are integer indices; bit k of an index is qubit k's bit.
    """

    num_bits: int
    probabilities: np.ndarray
    _alias: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if self.probabilities.shape != (1 << self.num_bits,):
            raise DimensionMismatchError(
                f"expected {1 << self.num_bits} probabilities, got {self.probabilities.shape}"
            )
        if np.any(self.probabilities < -1e-12):
            raise ValidationError("negative probability")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > NORM_ATOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1 within {NORM_ATOL}")

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        if self._alias is None:
            self._alias = _build_alias(self.probabilities)
        return self._alias

    def pick(self, u_bin: np.ndarray, u_coin: np.ndarray) -> np.ndarray:
        """Map pairs of uniforms in [0,1) to outcome indices (vectorized)."""
        alias, accept = self._table()
        size = alias.size
        u_bin = np.asarray(u_bin)
        u_coin = np.asarray(u_coin)
        bins = np.minimum((u_bin * size).astype(np.int64), size - 1)
        return np.where(u_coin < accept[bins], bins, alias[bins])


def bitstring(index: int, num_bits: int) -> str:
    """Format an outcome index as a bit string, qubit 0 first."""
    return format(index, f"0{num_bits}b")[::-1]


def ideal_output_distribution(lattice: LatticeGeometry, spec: InputSpec) -> Distribution:
    """X-basis outcome distribution of the time-1 evolved input state."""
    n = lattice.num_qubits
    if spec.num_qubits != n:
        raise DimensionMismatchError(
            f"input has {spec.num_qubits} qubits, lattice has {n}"
        )
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_STATE_QUBITS}-qubit guard")
    state = walsh_hadamard(apply_zz_evolution(product_state(spec), lattice, 1.0))
    return Distribution(n, np.abs(state.amplitudes) ** 2)


def u_value(z_outcomes, lattice: LatticeGeometry) -> complex:
    """De facto evolution outcome from single-shot Z results.

    Returns the product over edges of cos(pi/4) - i sin(pi/4) z_i z_j, which
    equals the diagonal entry <z|U|z> of the time-1 evolution.
    """
    z = np.asarray(z_outcomes, dtype=np.int64)
    if z.shape != (lattice.num_qubits,):
        raise DimensionMismatchError(
            f"expected {lattice.num_qubits} outcomes, got shape {z.shape}"
        )
    if not np.all(np.abs(z) == 1):
        raise ValidationError("outcomes must be +1 or -1")
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    u = complex(1.0, 0.0)
    for i, j in lattice.edges:
        u *= complex(c, -s * int(z[i]) * int(z[j]))
    return u


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, global-phase invariant."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError("states have different sizes")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
