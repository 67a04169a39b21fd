"""Shared fixtures and independent dense oracles for the test suite.

The oracles here are deliberately written from scratch (explicit Kronecker
products, spectral exponentials) so they share no code with the package's
fast diagonal-phase kernels.
"""

import math
from dataclasses import fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from fklab.errors import CapacityError, ValidationError
from fklab.lattice import InputSpec, InputType
from fklab.rng import TAG_COPIES, substream
from fklab.simulator import (
    MAX_STATE_QUBITS,
    X_STATE,
    Y_STATE,
    PureState,
    product_state,
    walsh_hadamard,
    zz_phases,
)
from fklab.verifier import Counters

# The masked reference kernel's basis column: X and Y for propagation copies,
# none otherwise.
BASIS_X, BASIS_Y, BASIS_NONE = 0, 1, -1


def decode_code(code):
    """The b_sampling, b_testtype and basis columns of a branch-code column,
    in the reference kernel's dtypes. A copy's code is 4 b_sampling + 2
    b_testtype + y; a propagation copy (b_sampling 0, b_testtype 1) is
    measured in Y when y is 1 and in X otherwise."""
    code = np.asarray(code)
    b_sampling = (code // 4).astype(np.uint8)
    b_testtype = (code // 2 % 2).astype(np.uint8)
    prop = (b_sampling == 0) & (b_testtype == 1)
    basis = np.where(prop, np.where(code % 2 == 0, BASIS_X, BASIS_Y), BASIS_NONE)
    return b_sampling, b_testtype, basis.astype(np.int8)


def transcript_columns(transcript):
    """The code, clock and sys_idx columns of a whole transcript: each chunk
    re-measured from its seed, concatenated in chunk order."""
    columns = ([np.zeros(0, np.uint8)], [np.zeros(0, np.int8)], [np.zeros(0, np.int32)])
    for c in transcript._chunks():
        for parts, part in zip(columns, transcript._measure(c)):
            parts.append(part)
    return tuple(np.concatenate(parts) for parts in columns)


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
    a, b, _ = reference_components(model)
    phase = np.exp(1j * model.clock_phase)
    terms = [(1.0 - p, np.concatenate([a, phase * b]))]
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


# Scalar and whole-state oracles the protocol itself does not use.


def apply_zz_evolution(state, lattice, time):
    """Multiply each basis amplitude by its diagonal coupling phase."""
    if state.num_qubits != lattice.num_qubits:
        raise ValidationError(
            f"state has {state.num_qubits} qubits, lattice has {lattice.num_qubits}"
        )
    return PureState(state.num_qubits, zz_phases(lattice, time) * state.amplitudes)


def ideal_output_distribution(lattice, spec):
    """X-basis outcome law of the time-1 evolved input state, as an array."""
    n = lattice.num_qubits
    if spec.num_qubits != n:
        raise ValidationError(f"input has {spec.num_qubits} qubits, lattice has {n}")
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_STATE_QUBITS}-qubit guard")
    state = walsh_hadamard(apply_zz_evolution(product_state(spec), lattice, 1.0))
    return np.abs(state.amplitudes) ** 2


def u_value(z_outcomes, lattice):
    """De facto evolution outcome from single-shot Z results.

    Returns the product over edges of cos(pi/4) - i sin(pi/4) z_i z_j, which
    equals the diagonal entry <z|U|z> of the time-1 evolution.
    """
    z = np.asarray(z_outcomes, dtype=np.int64)
    if z.shape != (lattice.num_qubits,):
        raise ValidationError(
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


# Reference gate kernels: the package's earlier formulas, kept verbatim so the
# copy-free kernels can be checked bit for bit (np.array_equal), not to a
# tolerance.


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


def reference_product_state(spec):
    """The product state as a chain of np.kron calls, qubit 0 at bit 0."""
    amps = np.array([1.0 + 0.0j])
    for kind in spec.choices:
        amps = np.kron({InputType.X_TYPE: X_STATE, InputType.Y_TYPE: Y_STATE}[kind], amps)
    return amps


def reference_components(model):
    """The input component, output component and statevector of a model from
    whole-register arrays: the np.kron product, the R_z phases of every
    string from its per-bit weight, then the per-string coupling phases
    (reference_zz_phases) times the evolved input (phases first)."""
    n = model.num_system_qubits
    ideal = reference_product_state(model.input_spec)

    def tilted(tilt):
        if tilt == 0.0:
            return ideal
        # Named, so that numpy does not reuse the temporary and swap operands.
        phases = np.exp(1j * (tilt / 2.0) * (2 * reference_hamming_weights(n) - n))
        return ideal * phases

    a = tilted(model.input_tilt)
    evolved = tilted(model.input_tilt if model.tilted_output else 0.0)
    phases = reference_zz_phases(model.lattice, 1.0 + model.evolution_scale)
    b = np.multiply(phases, evolved, out=phases)
    psi = np.empty(2 * a.size, dtype=np.complex128)
    psi[: a.size] = a
    np.multiply(np.exp(1j * model.clock_phase), b, out=psi[a.size :])
    psi /= math.sqrt(2)
    return a, b, psi


def reference_interaction_energies(lattice, start=0, stop=None):
    """sum_{edges} z_i z_j per basis string, from spins read off int64
    indices: of every string, or of the strings start..stop-1 only."""
    idx = np.arange(start, 1 << lattice.num_qubits if stop is None else stop, dtype=np.int64)
    spins = [1 - 2 * ((idx >> k) & 1).astype(np.int8) for k in range(lattice.num_qubits)]
    energy = np.zeros(idx.size, dtype=np.int16)
    for i, j in lattice.edges:
        energy += spins[i] * spins[j]
    return energy


def reference_hamming_weights(n):
    """Set bits of every basis index, counted one int64 bit column at a time,
    as int8 like the package's hamming_weights."""
    idx = np.arange(1 << n, dtype=np.int64)
    weight = sum(((idx >> k) & 1 for k in range(n)), np.zeros(idx.size, dtype=np.int64))
    return weight.astype(np.int8)


def reference_zz_phases(lattice, time):
    """e^{-i t (pi/4) E(z)} per basis string, one exp per string of its int16
    reference energy, with the scalar the package takes: bit for bit the
    coupling phase of every string."""
    return np.exp((-1j * (time * (np.pi / 4))) * reference_interaction_energies(lattice))


def reference_hadamard_butterflies(amplitudes, qubits):
    """Unscaled H on each of `qubits`, in order: copy the state, then at each
    qubit copy both halves and overwrite them with their sum and difference."""
    a = np.asarray(amplitudes, dtype=np.complex128).copy()
    for k in qubits:
        a = a.reshape(-1, 2, 1 << k)
        even = a[:, 0, :].copy()
        odd = a[:, 1, :].copy()
        a[:, 0, :] = even + odd
        a[:, 1, :] = even - odd
    return a.reshape(-1)


def reference_walsh_hadamard(amplitudes):
    """H on every qubit: the butterflies at every qubit, scaled last."""
    n = amplitudes.size.bit_length() - 1
    return reference_hadamard_butterflies(amplitudes, range(n)) * 2.0 ** (-0.5 * n)


def reference_swap_halves(amplitudes):
    """X on the top qubit: the two halves, concatenated in swapped order."""
    half = amplitudes.size // 2
    return np.concatenate((amplitudes[half:], amplitudes[:half]))


def reference_echo_prepare(lattice, input_amplitudes):
    """The echo circuit of prover.echo_prepare, out of place: one fresh state
    per step from the reference kernels above, on |+> (x) the given input
    amplitudes, with the half-time phases tiled over both clock halves. An
    H_B layer is the butterflies over sorted(B) times 2^(-|B|/2)."""
    n = lattice.num_qubits
    b_qubits = sorted(lattice.partition_b)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
    energies = reference_interaction_energies(lattice)
    half = np.tile(np.exp((-1j * 0.5 * np.pi / 4) * energies), 2)

    def hadamard_b(a):
        return reference_hadamard_butterflies(a, b_qubits) * 2.0 ** (-0.5 * len(b_qubits))

    def controlled_flip_b(a):
        return hadamard_b(reference_apply_global_cz(hadamard_b(a), n, range(n)))

    a = controlled_flip_b(np.kron(plus, input_amplitudes))
    a = controlled_flip_b(a * half)
    return reference_swap_halves(a) * half


# Reference mode tables: the prover's earlier amplitude formulas (input-test
# table by one full-state rotation per qubit), so the closed-form tables can
# be checked against them.

# The orthogonal complements of the two input states; with the states they
# form the rotated measurement bases of the input test.
X_PERP = np.array([0.5 * (1 + 1j), -0.5 * (1 - 1j)], dtype=np.complex128)
Y_PERP = np.array([0.5 * (1 + 1j), -np.exp(-1j * np.pi / 4) * 0.5 * (1 - 1j)], dtype=np.complex128)


def rotated_basis(kind):
    """2x2 unitary whose columns are the rotated measurement basis for `kind`."""
    if kind is InputType.X_TYPE:
        return np.column_stack([X_STATE, X_PERP])
    return np.column_stack([Y_STATE, Y_PERP])


def reference_mode_tables(model):
    """The four measurement laws of a model, in MODE_ORDER, as arrays."""
    n = model.num_system_qubits
    dim = 1 << n
    p = model.depolarizing_rate
    a, output, _ = reference_components(model)
    b = np.exp(1j * model.clock_phase) * output

    # A maximally mixed output reads uniform in any basis and, in each half
    # of a propagation test, (1/4)(|a_z|^2 + 2^-n).
    def depolarize(clean, mixed):
        return (1.0 - p) * clean + p * mixed

    samp = depolarize(np.abs(walsh_hadamard(PureState(n, output)).amplitudes) ** 2, 1.0 / dim)
    mixed_half = 0.25 * (np.abs(a) ** 2 + 1.0 / dim)
    prop_x = np.concatenate(
        [
            depolarize(0.25 * np.abs(a + b) ** 2, mixed_half),
            depolarize(0.25 * np.abs(a - b) ** 2, mixed_half),
        ]
    )
    prop_y = np.concatenate(
        [
            depolarize(0.25 * np.abs(a - 1j * b) ** 2, mixed_half),
            depolarize(0.25 * np.abs(a + 1j * b) ** 2, mixed_half),
        ]
    )

    rotated = a
    for k, kind in enumerate(model.input_spec.choices):
        gate = rotated_basis(kind).conj().T
        rotated = np.einsum("ij,ajb->aib", gate, rotated.reshape(-1, 2, 1 << k)).reshape(-1)
    input_probs = np.abs(rotated) ** 2

    return (
        samp / samp.sum(),
        input_probs / input_probs.sum(),
        prop_x / prop_x.sum(),
        prop_y / prop_y.sum(),
    )


def reference_propagation_rows(model):
    """Rows 2-3 of the alias buffer, (1 + (1-p) cos phi_z) / 2 and the same
    with sin phi_z, from the per-string phase formula the level gather
    replaced, with the same dtypes and operations."""
    n = model.num_system_qubits
    p = model.depolarizing_rate
    weight = reference_hamming_weights(n)
    t_in, t_out = model.input_tilt, model.input_tilt if model.tilted_output else 0.0
    phi = model.clock_phase + (t_out - t_in) * (weight - n / 2)
    phi -= (np.pi / 4) * (1.0 + model.evolution_scale) * reference_interaction_energies(model.lattice)
    rows = np.empty((2, 1 << n))
    np.cos(phi, out=rows[0])
    np.sin(phi, out=rows[1])
    rows *= 0.5 * (1.0 - p)
    rows += 0.5
    return rows


# The alias build as it was before its exact prefix sums became one uint64
# sum per side, kept verbatim so the new build can be checked bit for bit.


def _exact_cumsum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact prefix sums of non-negative multiples of 2^-53 that total below 2^31.

    Each term splits into whole 2^-32 units and a remainder of fewer than
    2^21 units of 2^-53; both parts are summed in int64 without rounding, so
    prefix sum k is hi[k] * 2^-32 + lo[k] * 2^-53 exactly.
    """
    whole = np.floor(x * 2.0**32)
    rest = (x - whole * 2.0**-32) * 2.0**53
    return np.cumsum(whole.astype(np.int64)), np.cumsum(rest.astype(np.int64))


def reference_vose_build(
    probabilities: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table (alias index J, acceptance threshold q) in closed form.

    The table is written into `out`, an (int32, float64) pair of arrays of the
    table's size, when one is given, and into new arrays of those types
    otherwise: every alias is a bin index, below 2^26 under the 26-qubit
    guard.

    This is the sweep construction (Vose 1991): the smalls (scaled < 1) and
    the larges (scaled >= 1) are each taken in index order. With D_k the
    smalls' cumulative deficit 1 - scaled and S_j the larges' cumulative
    excess scaled - 1, small k keeps q = scaled and aliases the first large
    j with S_j >= D_{k-1}. Large j (all but the last) tips at the first
    small k with D_k > S_j: it keeps q = 1 + S_j - D_k and aliases large
    j+1. Every other bin keeps q = 1 and aliases itself. Bins alias only
    larges, so a zero-probability bin (q = 0) is never drawn.

    Every deficit and excess is a multiple of 2^-53, so 1 + S_j - D_k is
    taken from exact prefix sums: the mass large j keeps and the deficits
    it covers then add up to its scaled probability to within rounding of
    q itself, however many smalls it covers. The pairing is decided on the
    rounded prefix sums, which are non-decreasing.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    size = p.size
    scaled = p * size
    if out is None:
        out = (np.empty(size, dtype=np.int32), np.empty(size, dtype=np.float64))
    alias, accept = out
    alias[...] = np.arange(size)
    accept[...] = 1.0
    is_small = scaled < 1.0
    small = np.flatnonzero(is_small)
    large = np.flatnonzero(~is_small)
    if small.size == 0 or large.size == 0:
        return alias, accept
    deficit = 1.0 - scaled[small]
    excess = scaled[large] - 1.0
    d_sum = np.cumsum(deficit)
    s_sum = np.cumsum(excess)

    accept[small] = scaled[small]
    d_before = np.concatenate(([0.0], d_sum[:-1]))
    # Rounding can leave D_{k-1} above S of the last large; it absorbs the rest.
    donor = np.minimum(np.searchsorted(s_sum, d_before, side="left"), large.size - 1)
    alias[small] = large[donor]

    tip = np.searchsorted(d_sum, s_sum[:-1], side="right")
    j = np.flatnonzero(tip < small.size)
    k = tip[j]
    d_hi, d_lo = _exact_cumsum(deficit)
    s_hi, s_lo = _exact_cumsum(excess)
    kept = 1.0 + ((s_hi[j] - d_hi[k]) * 2.0**-32 + (s_lo[j] - d_lo[k]) * 2.0**-53)
    # Where the rounded pairing and the exact sums disagree in the last bit,
    # kept can leave [0, 1] by that bit.
    accept[large[j]] = np.clip(kept, 0.0, 1.0)
    alias[large[j]] = large[j + 1]
    return alias, accept


def dense_model_parameters(model):
    """F_in, Tr[rho O10] and F_out of a model from 2^n inner products over its
    components: the dense route the level sums replaced."""
    p = model.depolarizing_rate
    ideal = reference_product_state(model.input_spec)
    a, b, _ = reference_components(model)
    u_diag = reference_zz_phases(model.lattice, 1.0)
    f_in = float(np.abs(np.vdot(ideal, a)) ** 2)
    tr = (1.0 - p) * np.vdot(b, u_diag * a) * 0.5 * np.exp(-1j * model.clock_phase)
    f_out = (1.0 - p) * float(np.abs(np.vdot(b, u_diag * ideal)) ** 2) + p / a.size
    return f_in, complex(tr), f_out


class ChunkDraws(NamedTuple):
    """One chunk's draws, decoded as the verifier module docstring lays them
    out: per copy, the branch bits, the clock bit (clock -1 for sampling and
    input-test copies) and the pick's two uniforms; with a flip rate, the
    (n, count) outcome-bit flips and the clock flips, else None."""

    b_sampling: np.ndarray
    b_testtype: np.ndarray
    y_basis: np.ndarray
    clock_minus: np.ndarray
    u_bin: np.ndarray
    u_coin: np.ndarray
    bit_flips: np.ndarray | None
    clock_flips: np.ndarray | None


def decode_draws(master_seed, chunk_index, count, num_system, eps):
    """Decode chunk `chunk_index`'s substream: two raw 64-bit words a, b per
    copy; then, only with eps > 0, one uniform row per outcome bit and one
    for the clock."""
    rng = substream(master_seed, TAG_COPIES, chunk_index)
    a, b = rng.bit_generator.random_raw((2, count))

    def bit(words, k):
        return (words >> np.uint64(k)) & np.uint64(1) == 1

    def uniform(words):
        return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53

    bit_flips = clock_flips = None
    if eps > 0.0:
        bit_flips = np.array([rng.random(count) < eps for _ in range(num_system)])
        clock_flips = rng.random(count) < eps
    return ChunkDraws(
        bit(a, 2), bit(a, 1), bit(a, 0), bit(a, 3), uniform(a), uniform(b), bit_flips, clock_flips
    )


# Reference chunk kernel and counters: the verifier's earlier masked
# formulation, kept so the per-branch kernel's columns and counters can be
# checked column for column with np.array_equal and counter for counter with
# ==. Each branch gathers its copies' uniforms under a boolean mask and picks
# from its own Distribution.


def reference_process_chunk(dists, master_seed, chunk_index, eps, rows):
    """Measure one chunk of copies with per-branch masked picks."""
    b_sampling, b_testtype, basis, clock, sys_idx = rows
    count = b_sampling.size
    n = dists.num_system
    draws = decode_draws(master_seed, chunk_index, count, n, eps)

    b_sampling[:] = draws.b_sampling
    b_testtype[:] = draws.b_testtype
    samp = b_sampling.astype(bool)
    prop = (~samp) & b_testtype.astype(bool)
    input_test = (~samp) & (~b_testtype.astype(bool))
    basis[:] = BASIS_NONE
    basis[prop] = np.where(draws.y_basis[prop], BASIS_Y, BASIS_X)

    sys_idx[:] = -1

    z_branch = samp | input_test
    true_minus = z_branch & draws.clock_minus
    clock[z_branch] = np.where(true_minus[z_branch], -1, 1)

    samp_measured = samp & true_minus
    if samp_measured.any():
        sys_idx[samp_measured] = dists.sample_given_minus.pick(
            draws.u_bin[samp_measured], draws.u_coin[samp_measured]
        )
    input_measured = input_test & ~true_minus
    if input_measured.any():
        sys_idx[input_measured] = dists.input_given_plus.pick(
            draws.u_bin[input_measured], draws.u_coin[input_measured]
        )
    for basis_code, joint in ((BASIS_X, dists.prop_x), (BASIS_Y, dists.prop_y)):
        sel = basis == basis_code
        if sel.any():
            j = joint.pick(draws.u_bin[sel], draws.u_coin[sel])
            clock[sel] = np.where(j >> n, -1, 1)
            sys_idx[sel] = j & ((1 << n) - 1)

    if eps > 0.0:
        clock[draws.clock_flips] *= -1
        flip_bits = (draws.bit_flips.T << np.arange(n)).sum(axis=1)
        measured = sys_idx >= 0
        sys_idx[measured] ^= flip_bits[measured]


def reference_aligned_edges(lattice):
    """k per basis string, its count of aligned edges, as (E + edges) / 2 from
    its reference interaction energy E = 2k - edges, in int64."""
    return (reference_interaction_energies(lattice).astype(np.int64) + lattice.num_edges) // 2


# (-i)^r for r = 0..3, as Gaussian integers (re, im) of Python ints.
REFERENCE_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def reference_times_g(edges, re, im):
    """g (re + i im) for Python ints re and im, g = e^{i pi edges/4}, in
    rationals: g's components are 0, +-1 or +-c, c the double nearest
    sqrt(1/2), and each component of the product is the double nearest its
    exact value."""
    c = Fraction(math.sqrt(0.5))
    g_re, g_im = ((1, 0), (c, c), (0, 1), (-c, c), (-1, 0), (-c, -c), (0, -1), (c, -c))[edges % 8]
    return complex(float(g_re * re - g_im * im), float(g_re * im + g_im * re))


def reference_chunk_counters(b_sampling, b_testtype, basis, clock, sys_idx, aligned):
    """Counters and published samples of one chunk, from boolean masks. A
    propagation copy with outcome z counts at 8 y + 4 minus + aligned[z] % 4
    of prop_counts; as in the verifier's partial, s_xu, s_yu, n_x and n_y
    stay zero."""
    samp = b_sampling.astype(bool)
    input_test = (~samp) & (~b_testtype.astype(bool))
    has_sys = sys_idx >= 0

    stored = samp & (clock == -1) & has_sys
    samples = sys_idx[stored].astype(np.uint32)

    in_plus = input_test & (clock == 1)
    prop_counts = []
    for basis_code in (BASIS_X, BASIS_Y):
        sel = basis == basis_code
        residue = aligned[sys_idx[sel]] % 4
        for clock_outcome in (1, -1):
            for r in range(4):
                prop_counts.append(int(np.count_nonzero((clock[sel] == clock_outcome) & (residue == r))))
    counters = Counters(
        n_total_sampling=int(samp.sum()),
        n_clock_minus=int((input_test & (clock == -1)).sum()),
        n_in_plus=int(in_plus.sum()),
        n_in_plus_0=int((in_plus & has_sys & (sys_idx == 0)).sum()),
        prop_counts=tuple(prop_counts),
    )
    return counters, samples


def reference_merge(partials, edges):
    """Sum per-chunk (counters, samples) in chunk order, field by field from
    zero counters, and join the samples. Each basis's n and its sum of
    clock * u = g clock (-i)^k then come from the summed counts: the sum of
    clock (-i)^k as a Gaussian integer of Python ints, times g once."""
    total = Counters()
    samples = [np.zeros(0, dtype=np.uint32)]
    for counters, chunk_samples in partials:
        for f in fields(Counters):
            if f.name != "prop_counts":
                setattr(total, f.name, getattr(total, f.name) + getattr(counters, f.name))
        total.prop_counts = tuple(a + b for a, b in zip(total.prop_counts, counters.prop_counts))
        samples.append(chunk_samples)
    for y, (size, name) in enumerate((("n_x", "s_xu"), ("n_y", "s_yu"))):
        re = im = 0
        for minus, sign in ((0, 1), (1, -1)):
            for r, (unit_re, unit_im) in enumerate(REFERENCE_MINUS_I_POWERS):
                count = total.prop_counts[8 * y + 4 * minus + r]
                re += sign * count * unit_re
                im += sign * count * unit_im
        setattr(total, size, sum(total.prop_counts[8 * y : 8 * y + 8]))
        setattr(total, name, reference_times_g(edges, re, im))
    return total, np.concatenate(samples)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


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
