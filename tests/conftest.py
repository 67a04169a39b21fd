"""Shared fixtures and independent dense oracles for the test suite.

The oracles here are deliberately written from scratch (explicit Kronecker
products, spectral exponentials) so they share no code with the package's
fast diagonal-phase kernels.
"""

import numpy as np
import pytest

from fklab.lattice import InputSpec, InputType, build_lattice


def brute_force_edges(rows, cols):
    """Enumerate nearest-neighbor pairs by scanning all cell coordinates."""
    def idx(r, c):
        return r * cols + c

    found = set()
    for r1 in range(rows):
        for c1 in range(cols):
            for r2 in range(rows):
                for c2 in range(cols):
                    if abs(r1 - r2) + abs(c1 - c2) == 1:
                        pair = tuple(sorted((idx(r1, c1), idx(r2, c2))))
                        found.add(pair)
    return found


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(single_ops):
    """Tensor product with single_ops[k] on qubit k (bit k of the index)."""
    out = np.array([[1.0 + 0.0j]])
    for op in single_ops:
        out = np.kron(op, out)
    return out


def dense_pauli_on(n, ops_by_qubit):
    """n-qubit operator with the given single-qubit ops, identity elsewhere."""
    return kron_chain([ops_by_qubit.get(k, PAULI["I"]) for k in range(n)])


def dense_coupling_hamiltonian(lattice):
    """sum over edges of (pi/4) Z_i Z_j as a dense matrix."""
    n = lattice.num_qubits
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j in lattice.edges:
        h += (np.pi / 4) * dense_pauli_on(n, {i: PAULI["Z"], j: PAULI["Z"]})
    return h


def spectral_expm(h, t=1.0):
    """exp(-i t h) for Hermitian h."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


def dense_hadamard_all(n):
    """H tensored n times, built from the explicit 2x2 matrix."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return kron_chain([h] * n)


def single_input_vector(kind):
    """The two allowed input states written out from their closed forms."""
    if kind is InputType.X_TYPE:
        return np.array([(1 + 1j) / 2, (1 - 1j) / 2])
    return np.array([(1 + 1j) / 2, np.exp(-1j * np.pi / 4) * (1 - 1j) / 2])


def dense_input_vector(spec):
    amps = np.array([1.0 + 0.0j])
    for kind in spec.choices:
        amps = np.kron(single_input_vector(kind), amps)
    return amps


def dense_history_vector(lattice, spec, theta=0.0):
    """(|0>|phi> + e^{i theta}|1>U|phi>)/sqrt(2) with the clock at the top bit."""
    phi = dense_input_vector(spec)
    u = spectral_expm(dense_coupling_hamiltonian(lattice))
    return np.concatenate([phi, np.exp(1j * theta) * (u @ phi)]) / np.sqrt(2)


def depolarized_mixture_density(model):
    """A depolarized history model's density matrix as an explicit mixture.

    Weight 1-p sits on the coherent history vector. For every basis string z
    and sign s, weight p/2^(n+1) sits on (|0>|a> + s e^{i theta}|1>|z>)/sqrt(2),
    where a is the input component; each +/- pair cancels the clock
    coherences, so together they put p I/2^n on the output branch. That is
    2^(n+1) + 1 pure states, summed one outer product at a time.
    """
    n = model.num_system_qubits
    dim = 1 << n
    p = model.depolarizing_rate
    a = model.input_component.amplitudes
    phase = np.exp(1j * model.clock_phase)
    terms = [(1.0 - p, np.concatenate([a, phase * model.output_component.amplitudes]))]
    for z in range(dim):
        basis_z = np.zeros(dim, dtype=complex)
        basis_z[z] = 1.0
        for sign in (1.0, -1.0):
            terms.append((p / (2 * dim), np.concatenate([a, sign * phase * basis_z])))
    rho = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for weight, vec in terms:
        psi = vec / np.sqrt(2)
        rho += weight * np.outer(psi, psi.conj())
    return rho


def random_state_vector(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_unitary(rng):
    """2x2 unitary from the QR decomposition of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# Reference gate kernels: the package's earlier formulas, kept verbatim so the
# copy-free kernels can be checked bit for bit (np.array_equal), not to a
# tolerance.


def reference_apply_single_qubit(amplitudes, qubit, gate):
    """Copy the state, copy both halves, then overwrite each half."""
    g = np.asarray(gate, dtype=np.complex128)
    a = np.asarray(amplitudes, dtype=np.complex128).copy().reshape(-1, 2, 1 << qubit)
    s0 = a[:, 0, :].copy()
    s1 = a[:, 1, :].copy()
    a[:, 0, :] = g[0, 0] * s0 + g[0, 1] * s1
    a[:, 1, :] = g[1, 0] * s0 + g[1, 1] * s1
    return a.reshape(-1)


def reference_apply_global_cz(amplitudes, control, targets):
    """Negate every amplitude whose int64 index has the control bit set and
    an odd number of target bits set."""
    idx = np.arange(amplitudes.size, dtype=np.int64)
    parity = np.zeros(idx.size, dtype=np.int64)
    for t in targets:
        parity ^= (idx >> t) & 1
    flip = (((idx >> control) & 1) & parity).astype(bool)
    a = amplitudes.copy()
    a[flip] *= -1
    return a


def reference_interaction_energies(lattice):
    """sum_{edges} z_i z_j per basis string, from int64 spins."""
    idx = np.arange(1 << lattice.num_qubits, dtype=np.int64)
    energy = np.zeros(idx.size, dtype=np.int16)
    for i, j in lattice.edges:
        energy += ((1 - 2 * ((idx >> i) & 1)) * (1 - 2 * ((idx >> j) & 1))).astype(np.int16)
    return energy


def reference_echo_amplitudes(lattice, input_amplitudes):
    """The echo circuit of prover.echo_prepare, composed from the reference
    kernels above on |+> (x) the given input amplitudes."""
    n = lattice.num_qubits
    clock = n
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    energies = reference_interaction_energies(lattice)
    half = np.tile(np.exp((-1j * 0.5 * np.pi / 4) * energies), 2)

    def controlled_flip_b(a):
        for q in sorted(lattice.partition_b):
            a = reference_apply_single_qubit(a, q, h)
        a = reference_apply_global_cz(a, clock, range(n))
        for q in sorted(lattice.partition_b):
            a = reference_apply_single_qubit(a, q, h)
        return a

    a = controlled_flip_b(np.kron(plus, input_amplitudes))
    a = controlled_flip_b(a * half)
    a = reference_apply_single_qubit(a, clock, x)
    return a * half


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def lattice_2x2():
    return build_lattice(2, 2)


@pytest.fixture
def xx_input():
    return InputSpec(choices=(InputType.X_TYPE, InputType.X_TYPE))


def small_lattices(max_qubits=6):
    """All lattice shapes with at most `max_qubits` cells (and at least one edge)."""
    shapes = []
    for rows in range(1, max_qubits + 1):
        for cols in range(1, max_qubits + 1):
            if 2 <= rows * cols <= max_qubits:
                shapes.append((rows, cols))
    return shapes
