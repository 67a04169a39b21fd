"""Statevector kernel tests against dense-matrix oracles."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fklab.errors import CapacityError, ValidationError
from fklab.lattice import InputSpec, InputType, build_lattice, random_input
from fklab.simulator import (
    Distribution,
    PAIR_BLOCK,
    PureState,
    FORMAT_BLOCK,
    STRING_BLOCK,
    _hadamard_butterflies,
    _multiply_by_levels,
    _swap_halves_inplace,
    _vose_build,
    aligned_edges,
    bitstring_blocks,
    hamming_weights,
    level_counts,
    product_state,
    state_fidelity,
    walsh_hadamard,
    zz_phase_levels,
    zz_phases,
)

from conftest import (
    apply_zz_evolution,
    dense_coupling_hamiltonian,
    dense_hadamard_all,
    dense_input_vector,
    dense_pauli_on,
    ideal_output_distribution,
    PAULI,
    random_state_vector,
    reference_apply_global_cz,
    reference_hadamard_butterflies,
    reference_interaction_energies,
    reference_mode_tables,
    reference_product_state,
    reference_swap_halves,
    reference_vose_build,
    reference_walsh_hadamard,
    small_lattices,
    spectral_expm,
    u_value,
)


# ---------------------------------------------------------------------------
# product_state


def test_x_type_amplitudes():
    state = product_state(InputSpec(choices=(InputType.X_TYPE,)))
    assert np.allclose(state.amplitudes, [(1 + 1j) / 2, (1 - 1j) / 2], atol=1e-15)


def test_y_type_amplitudes():
    state = product_state(InputSpec(choices=(InputType.Y_TYPE,)))
    expected = [(1 + 1j) / 2, np.exp(-1j * np.pi / 4) * (1 - 1j) / 2]
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_two_qubit_product_moduli(xx_input):
    state = product_state(xx_input)
    assert np.allclose(np.abs(state.amplitudes), 0.5, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_product_state_normalized(n, rng):
    state = product_state(random_input(n, rng))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 18])
@pytest.mark.parametrize("pattern", ["all X", "all Y", "mixed"])
def test_product_state_bit_identical_to_kron_chain(n, pattern):
    # The doubling fill equals the np.kron chain as uint64 views, on both
    # sides of the 2^16-string block size.
    kinds = {
        "all X": [InputType.X_TYPE] * n,
        "all Y": [InputType.Y_TYPE] * n,
        "mixed": [(InputType.X_TYPE, InputType.Y_TYPE)[k % 3 == 1] for k in range(n)],
    }[pattern]
    spec = InputSpec(choices=tuple(kinds))
    amps = product_state(spec).amplitudes
    assert np.array_equal(amps.view(np.uint64), reference_product_state(spec).view(np.uint64))


# ---------------------------------------------------------------------------
# apply_zz_evolution


def test_zz_time_zero_is_identity(rng):
    lat = build_lattice(2, 3)
    state = PureState(6, random_state_vector(6, rng))
    out = apply_zz_evolution(state, lat, 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_zz_single_edge_all_zero_phase():
    lat = build_lattice(1, 2)
    state = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    out = apply_zz_evolution(state, lat, 1.0)
    assert abs(out.amplitudes[0] - np.exp(-1j * np.pi / 4)) < 1e-14


def test_zz_2x2_checkerboard_phase():
    # Checkerboard pattern (qubits 1 and 2 flipped): all four edges
    # antiparallel, edge sum -4, phase exp(+i pi) = -1.
    lat = build_lattice(2, 2)
    amps = np.zeros(16, dtype=complex)
    amps[0b0110] = 1.0
    out = apply_zz_evolution(PureState(4, amps), lat, 1.0)
    assert abs(out.amplitudes[0b0110] + 1.0) < 1e-14


@pytest.mark.parametrize("rows,cols", small_lattices())
def test_zz_matches_dense_exponential(rows, cols, rng):
    lat = build_lattice(rows, cols)
    n = lat.num_qubits
    state = PureState(n, random_state_vector(n, rng))
    fast = apply_zz_evolution(state, lat, 1.0)
    dense = spectral_expm(dense_coupling_hamiltonian(lat)) @ state.amplitudes
    assert np.max(np.abs(fast.amplitudes - dense)) < 1e-10


def test_zz_size_mismatch():
    lat = build_lattice(2, 2)
    with pytest.raises(ValidationError, match="state has 2 qubits, lattice has 4"):
        apply_zz_evolution(PureState(2, np.array([1, 0, 0, 0], dtype=complex)), lat, 1.0)


def test_zz_phases_bit_identical_to_time_pi_product(rng):
    # zz_phases scales t by pi/4 before the -1j, so a time near the float
    # limit does not overflow; scaling by a power of two commutes with
    # rounding, so every phase equals the former -1j * t * pi / 4 form bit
    # for bit wherever that form is finite.
    lat = build_lattice(3, 3)
    energies = reference_interaction_energies(lat)
    times = np.concatenate([
        [0.0, 1.0, 0.5, 1.02, -1.3, 1e-300, 1e300, -1e300],
        rng.uniform(-50.0, 50.0, 200),
        np.exp(rng.uniform(-690.0, 690.0, 200)),
    ])
    for t in times:
        former = np.exp((-1j * t * np.pi / 4) * energies)
        assert np.array_equal(zz_phases(lat, t).view(np.uint64), former.view(np.uint64))


# The in-place kernels sweep PAIR_BLOCK amplitude pairs at a time. Below
# qubit log2(PAIR_BLOCK) a block holds whole rows of pairs; from it up, a
# block is a slice of one row. These state sizes span 2, 4 and 8 blocks.
BLOCK_SIZES = tuple(PAIR_BLOCK.bit_length() + k for k in range(3))


# ---------------------------------------------------------------------------
# walsh_hadamard


def test_walsh_single_qubit():
    out = walsh_hadamard(PureState(1, np.array([1, 0], dtype=complex)))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)


def test_walsh_is_involution(rng):
    state = PureState(4, random_state_vector(4, rng))
    twice = walsh_hadamard(walsh_hadamard(state))
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_walsh_matches_dense(rng):
    state = PureState(3, random_state_vector(3, rng))
    fast = walsh_hadamard(state)
    dense = dense_hadamard_all(3) @ state.amplitudes
    assert np.max(np.abs(fast.amplitudes - dense)) < 1e-12


@pytest.mark.parametrize("n", [*range(9), *BLOCK_SIZES])
def test_walsh_bit_identical_to_reference(n, rng):
    state = PureState(n, random_state_vector(n, rng))
    before = state.amplitudes.copy()
    out = walsh_hadamard(state)
    expected = reference_walsh_hadamard(before)
    assert np.array_equal(out.amplitudes.view(np.uint64), expected.view(np.uint64))
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    assert np.array_equal(state.amplitudes.view(np.uint64), before.view(np.uint64))


# ---------------------------------------------------------------------------
# the in-place pair kernels and the global CZ


def hadamard(amplitudes, qubits):
    """H on each of `qubits` of a copy of `amplitudes`: the butterflies, then
    the 2^(-m/2) scale, as echo_prepare applies a layer."""
    a = amplitudes.copy()
    _hadamard_butterflies(a, qubits)
    a *= 2.0 ** (-0.5 * len(qubits))
    return a


def swap_halves(amplitudes):
    """_swap_halves_inplace on a copy of `amplitudes`: X on the top qubit."""
    a = amplitudes.copy()
    _swap_halves_inplace(a)
    return a


def global_cz(amplitudes):
    """The echo's global CZ on a copy of `amplitudes`: controlled Z from the
    top qubit onto every other qubit, as echo_prepare applies it, by
    _multiply_by_levels on the top qubit's 1 half with the sign table +1, -1,
    +1, ... gathered at each string's Hamming weight, amplitude first."""
    a = amplitudes.copy()
    n = a.size.bit_length() - 2
    signs = np.resize(np.array([1, -1], dtype=np.complex128), n + 1)
    _multiply_by_levels(a[a.size >> 1 :], signs, hamming_weights(n), table_first=False)
    return a


def test_single_qubit_identity(rng):
    amps = random_state_vector(3, rng)
    assert np.array_equal(hadamard(amps, ()), amps)
    assert np.allclose(hadamard(hadamard(amps, (1,)), (1,)), amps, atol=1e-15)


def test_single_qubit_x_flip():
    out = swap_halves(np.array([1, 0], dtype=complex))
    assert np.allclose(out, [0, 1], atol=1e-15)


def test_hzh_equals_x(rng):
    # On the top qubit, where the half swap is X.
    amps = random_state_vector(3, rng)
    via_hzh = hadamard(amps, (2,))
    via_hzh[4:] *= -1
    via_hzh = hadamard(via_hzh, (2,))
    assert np.max(np.abs(via_hzh - swap_halves(amps))) < 1e-12


@pytest.mark.parametrize("qubit", range(4))
def test_gates_preserve_norm(qubit, rng):
    amps = random_state_vector(4, rng)
    out = hadamard(amps, (qubit,))
    assert abs(np.sum(np.abs(out) ** 2) - 1) < 1e-10


@pytest.mark.parametrize("n", [*range(1, 9), *BLOCK_SIZES])
def test_single_qubit_bit_identical_to_reference(n, rng):
    before = random_state_vector(n, rng)
    for qubit in range(n):
        out = before.copy()
        _hadamard_butterflies(out, (qubit,))
        expected = reference_hadamard_butterflies(before, (qubit,))
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _butterfly_qubit_sets(n):
    """No qubit, the sublattice-B set of every lattice of n qubits with up to
    5 rows, and all qubits in both orders."""
    shapes = [(rows, n // rows) for rows in range(1, 6) if n % rows == 0]
    return [
        (),
        *(sorted(build_lattice(*shape).partition_b) for shape in shapes),
        tuple(range(n)),
        tuple(reversed(range(n))),
    ]


@pytest.mark.parametrize("n", [*range(1, 9), *BLOCK_SIZES])
def test_hadamard_butterflies_bit_identical_to_reference(n, rng):
    before = random_state_vector(n, rng)
    for qubits in _butterfly_qubit_sets(n):
        out = before.copy()
        _hadamard_butterflies(out, qubits)
        expected = reference_hadamard_butterflies(before, qubits)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), qubits


@pytest.mark.parametrize("n", [*range(1, 9), *BLOCK_SIZES])
def test_swap_halves_bit_identical_to_reference(n, rng):
    # An exact permutation: zeros of either sign keep their sign bit.
    before = random_state_vector(n, rng)
    before[::3] = 0.0
    before[1::3] = -0.0
    expected = reference_swap_halves(before)
    assert np.array_equal(swap_halves(before).view(np.uint64), expected.view(np.uint64))


def test_global_cz_control_zero_branch():
    # Control |0>: nothing happens.
    amps = np.zeros(8, dtype=complex)
    amps[0b011] = 1.0  # control qubit 2 is 0
    assert np.allclose(global_cz(amps), amps, atol=1e-15)


def test_global_cz_single_target_sign():
    amps = np.zeros(4, dtype=complex)
    amps[0b11] = 1.0  # control qubit 1 set, target qubit 0 in |1>
    assert abs(global_cz(amps)[0b11] + 1.0) < 1e-15


def test_global_cz_matches_dense(rng):
    n = 5
    control, targets = 4, [0, 1, 2, 3]
    amps = random_state_vector(n, rng)
    z_all = dense_pauli_on(n, {t: PAULI["Z"] for t in targets})
    proj0 = dense_pauli_on(n, {control: np.diag([1, 0]).astype(complex)})
    proj1 = dense_pauli_on(n, {control: np.diag([0, 1]).astype(complex)})
    dense = (proj0 + proj1 @ z_all) @ amps
    assert np.max(np.abs(global_cz(amps) - dense)) < 1e-12


@pytest.mark.parametrize("n", [*range(1, 9), *BLOCK_SIZES, 18, 19])
def test_global_cz_bit_identical_to_reference(n, rng):
    # The echo's one shape: control on the top qubit n - 1, every other
    # qubit a target. Zeros of either sign must flip as the reference's
    # multiplication by -1 flips them, which np.negative would not, and the
    # product by +1 must keep them. At n = 18 and 19 the top qubit's 1 half
    # spans 2 and 4 STRING_BLOCKs.
    before = random_state_vector(n, rng)
    before[::3] = 0.0
    before[1::3] = -0.0
    out = global_cz(before)
    expected = reference_apply_global_cz(before, n - 1, range(n - 1))
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# aligned_edges: a string's interaction energy is 2k - edges


@pytest.mark.parametrize("rows,cols", small_lattices(12))
def test_interaction_energies_match_per_edge_sum(rows, cols):
    lattice = build_lattice(rows, cols)
    n, edges = lattice.num_qubits, len(lattice.edges)
    expected = []
    for index in range(1 << n):
        z = [1 - 2 * ((index >> k) & 1) for k in range(n)]
        expected.append(sum(z[i] * z[j] for i, j in lattice.edges))
    aligned = aligned_edges(lattice)
    assert aligned.dtype == np.uint8
    assert not aligned.flags.writeable
    assert (2 * aligned.astype(np.int64) - edges).tolist() == expected
    # zz_phase_levels takes one exp per level k and zz_phases gathers it by
    # k; the phases are bit for bit one exp per string.
    assert zz_phase_levels(lattice, 1.0).shape == (edges + 1,)
    for time in (0.5, 1.0, 1.37, 1e-3, 123.4):
        former = np.exp((-1j * time * np.pi / 4) * np.array(expected, dtype=np.int16))
        assert np.array_equal(zz_phases(lattice, time).view(np.uint64), former.view(np.uint64))
        by_level = zz_phase_levels(lattice, time)[aligned]
        assert np.array_equal(by_level.view(np.uint64), former.view(np.uint64))
    # The verifier's u table is the unit-time phase, bit for bit as it was
    # once computed on its own, and the verifier reads it by level k.
    u_table = zz_phases(lattice, 1.0)
    assert np.array_equal(u_table, np.exp((-1j * np.pi / 4) * np.array(expected, dtype=np.int16)))


@pytest.mark.parametrize("rows,cols", [(1, 17), (3, 6), (1, 20), (20, 1), (5, 5)])
def test_interaction_energies_across_string_blocks(rows, cols):
    # Past one STRING_BLOCK of strings: 1x20 and 20x1 put every edge between
    # neighbouring and between far-apart bits, and 5x5 is the largest lattice
    # under the set-up guard. The uncached build is compared block by block,
    # so the int64 reference stays small.
    lattice = build_lattice(rows, cols)
    assert 1 << lattice.num_qubits > STRING_BLOCK
    aligned = aligned_edges.__wrapped__(lattice)
    assert aligned.dtype == np.uint8 and not aligned.flags.writeable
    block = 1 << 20
    for start in range(0, aligned.size, block):
        energies = 2 * aligned[start : start + block].astype(np.int16) - len(lattice.edges)
        expected = reference_interaction_energies(lattice, start, min(aligned.size, start + block))
        assert np.array_equal(energies, expected)


def test_interaction_energies_peak_memory_is_the_result_and_block_columns():
    # Uncached at 4x5, the doubling build holds its 1 MiB uint8 result and
    # nothing else of size; a whole-register int8 column per qubit peaked at
    # 31 MiB, and block bit columns at 2.3 MiB.
    lattice = build_lattice(4, 5)
    result_bytes = 1 << lattice.num_qubits
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        aligned_edges.__wrapped__(lattice)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= result_bytes + (64 << 10)


@pytest.mark.parametrize("table_first", [True, False])
@pytest.mark.parametrize("n", [1, 15, 16, 17])
def test_multiply_by_levels_bit_identical_to_whole_register_product(rng, n, table_first):
    # One block (n <= 16) and two (n = 17), in both operand orders, by k and
    # by weight: each amplitude is the whole-register product, bit for bit.
    lattice = build_lattice(1, n)
    amps = random_state_vector(n, rng)
    by_weight = np.exp(1j * 0.05 * (2 * np.arange(n + 1, dtype=np.int8) - n))
    for table, index in (
        (zz_phase_levels(lattice, 1.37), aligned_edges(lattice)),
        (by_weight, hamming_weights(n)),
    ):
        factors = table[index]
        expected = np.multiply(factors, amps) if table_first else np.multiply(amps, factors)
        out = amps.copy()
        _multiply_by_levels(out, table, index, table_first)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", range(13))
def test_hamming_weights_match_per_bit_count(n):
    weights = hamming_weights(n)
    assert weights.dtype == np.int8
    assert not weights.flags.writeable
    assert weights.tolist() == [bin(index).count("1") for index in range(1 << n)]


@pytest.mark.parametrize("rows,cols", small_lattices(12))
def test_level_counts_match_per_string_levels(rows, cols):
    # counts[w, k] strings have weight w and energy 2k - edges, counted one
    # string at a time from its bits.
    lattice = build_lattice(rows, cols)
    n, edges = lattice.num_qubits, len(lattice.edges)
    expected = np.zeros((n + 1, edges + 1), dtype=np.int64)
    for index in range(1 << n):
        z = [1 - 2 * ((index >> k) & 1) for k in range(n)]
        energy = sum(z[i] * z[j] for i, j in lattice.edges)
        expected[bin(index).count("1"), (energy + edges) // 2] += 1
    counts = level_counts(lattice)
    assert not counts.flags.writeable
    assert np.array_equal(counts, expected)


# ---------------------------------------------------------------------------
# state_fidelity


def test_state_fidelity_matches_exact_sum(rng):
    n = 17
    a = PureState(n, random_state_vector(n, rng))
    b = PureState(n, random_state_vector(n, rng))
    terms = np.conjugate(a.amplitudes) * b.amplitudes
    exact = math.fsum(terms.real) ** 2 + math.fsum(terms.imag) ** 2
    assert abs(state_fidelity(a, b) - exact) < 1e-15
    assert abs(state_fidelity(a, a) - 1.0) < 1e-14
    with pytest.raises(ValidationError, match="states have different sizes"):
        state_fidelity(a, PureState(1, [1.0, 0.0]))


_FIDELITY_SCRIPT = """
import numpy as np
from fklab.simulator import PureState, state_fidelity
n = 17
def unit(v):  # np.linalg.norm would itself use BLAS
    return v / np.sqrt(np.sum(np.abs(v) ** 2))
v = np.random.default_rng(7).normal(size=(4, 1 << n))
a = unit(v[0] + 1j * v[1])
b = unit(a + 1e-3 * unit(v[2] + 1j * v[3]))
print(repr(state_fidelity(PureState(n, a), PureState(n, b))))
from fklab.lattice import build_lattice, random_input
from fklab.prover import NoiseModel, exact_model_parameters, make_honest_model
lattice = build_lattice(3, 6)
noise = NoiseModel(clock_phase_theta=0.3, evolution_scale=0.02, input_tilt=0.05, depolarizing_rate=0.1)
model = make_honest_model(lattice, random_input(18, np.random.default_rng(3)), noise)
print(repr(exact_model_parameters(model)))
"""


def test_state_fidelity_independent_of_blas_threads():
    # np.vdot's threaded BLAS sum changes order with the thread count; the
    # printed fidelity of a pair of 2^17 amplitudes and the exact parameters
    # of an 18-qubit model must not.
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _FIDELITY_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# ideal_output_distribution


def test_ideal_distribution_single_qubit():
    lat = build_lattice(1, 1)
    dist = ideal_output_distribution(lat, InputSpec(choices=(InputType.X_TYPE,)))
    dense = dense_hadamard_all(1) @ dense_input_vector(InputSpec(choices=(InputType.X_TYPE,)))
    assert np.allclose(dist, np.abs(dense) ** 2, atol=1e-12)
    assert np.allclose(dist, [0.5, 0.5], atol=1e-12)


def test_ideal_distribution_1x2_matches_brute_force(xx_input):
    lat = build_lattice(1, 2)
    dist = ideal_output_distribution(lat, xx_input)
    u = spectral_expm(dense_coupling_hamiltonian(lat))
    dense = dense_hadamard_all(2) @ (u @ dense_input_vector(xx_input))
    assert np.max(np.abs(dist - np.abs(dense) ** 2)) < 1e-12


@pytest.mark.parametrize("rows,cols", [(1, 3), (2, 2), (2, 3)])
def test_ideal_distribution_normalized(rows, cols, rng):
    lat = build_lattice(rows, cols)
    dist = ideal_output_distribution(lat, random_input(lat.num_qubits, rng))
    assert abs(dist.sum() - 1) < 1e-10


def test_ideal_distribution_capacity_guard():
    lat = build_lattice(3, 9)
    with pytest.raises(CapacityError):
        ideal_output_distribution(lat, random_input(27, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("amplitudes", [[math.nan, 0.0], [math.nan, math.nan], [math.inf, 0.0]])
def test_pure_state_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ValidationError):
        PureState(1, amplitudes)


@pytest.mark.parametrize("probabilities", [[math.nan, 1.0], [math.nan, math.nan], [0.5, math.inf]])
def test_distribution_rejects_non_finite_probabilities(probabilities):
    with pytest.raises(ValidationError):
        Distribution.from_probabilities(1, probabilities)


def test_sample_point_mass():
    dist = Distribution.from_probabilities(2, np.array([0.0, 0.0, 1.0, 0.0]))
    u = np.random.default_rng(9).random((2, 32))
    assert np.all(dist.pick(u[0], u[1]) == 2)


def test_sample_uniform_frequencies():
    dist = Distribution.from_probabilities(2, np.full(4, 0.25))
    u = np.random.default_rng(31415).random((2, 1_000_000))
    freqs = np.bincount(dist.pick(u[0], u[1]), minlength=4) / 1_000_000
    assert np.all(freqs >= 0.2485) and np.all(freqs <= 0.2515)


def test_sample_deterministic_given_seed():
    dist = Distribution.from_probabilities(3, np.full(8, 0.125))
    a = dist.pick(*np.random.default_rng(77).random((2, 100)))
    b = dist.pick(*np.random.default_rng(77).random((2, 100)))
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def models_4x4():
    from fklab.prover import NoiseModel, make_degraded_model, make_honest_model

    lat = build_lattice(4, 4)
    spec = random_input(16, np.random.default_rng(4))
    return {
        "honest": make_honest_model(lat, spec, NoiseModel()),
        "degraded": make_degraded_model(lat, spec, 0.98, 0.97),
    }


@pytest.mark.parametrize("name", ["honest", "degraded"])
def test_alias_table_reconstructs_probabilities(models_4x4, name):
    # The law each table draws against the dense amplitude formula it was
    # built from.
    from fklab.prover import MODE_ORDER, mode_distributions

    model = models_4x4[name]
    dists = mode_distributions(model)
    for table, law in zip(MODE_ORDER, reference_mode_tables(model)):
        assert np.max(np.abs(getattr(dists, table).probabilities - law)) < 1e-12


def _alias_probabilities_exact(alias, accept):
    """The distribution an alias table encodes, each bin's share summed with
    math.fsum: a bin can collect the leftovers of ~10^5 others, and a float
    running sum of those would round by more than the table does."""
    size = alias.size
    order = np.argsort(alias, kind="stable")
    given = np.split((1.0 - accept)[order], np.searchsorted(alias[order], np.arange(1, size)))
    return np.array([math.fsum([kept, *g]) for kept, g in zip(accept.tolist(), given)]) / size


def _random_table(kind, size, rng):
    if kind == "flat":
        p = np.full(size, 1.0 / size)
    elif kind == "uniform":
        p = rng.random(size)
    elif kind == "heavy_tailed":
        p = rng.pareto(0.5, size)
    elif kind == "point_mass":
        p = np.zeros(size)
        p[rng.integers(size)] = 1.0
    else:
        p = rng.random(size) + 1e-3
        p[rng.permutation(size)[: size // 2]] = 0.0
    return p / p.sum()


@pytest.mark.parametrize("size", [1, 2, 3, 10, 257, 4096, 50_001, 1 << 17])
@pytest.mark.parametrize("kind", ["flat", "uniform", "heavy_tailed", "point_mass", "half_zero"])
def test_alias_table_exact(kind, size):
    p = _random_table(kind, size, np.random.default_rng(size))
    alias, accept = _vose_build(p)
    # Bit for bit the table of the hi/lo int64 prefix sums the build replaced.
    ref_alias, ref_accept = reference_vose_build(p)
    assert np.array_equal(alias, ref_alias)
    assert np.array_equal(accept.view(np.uint64), ref_accept.view(np.uint64))
    assert np.all((accept >= 0.0) & (accept <= 1.0))
    assert np.all((alias >= 0) & (alias < size))
    # No bin hands its leftover to a zero-probability outcome, and a zero bin
    # keeps nothing, so a zero bin is never drawn.
    assert np.all(p[alias] > 0.0)
    assert np.all(accept[p == 0.0] == 0.0)
    assert np.max(np.abs(_alias_probabilities_exact(alias, accept) - p)) < 1e-14
    # The law a Distribution computes from the table, padded with zeros up to
    # the next power of two, is the same law to the same tolerance.
    law = Distribution((size - 1).bit_length(), alias, accept).probabilities
    assert np.max(np.abs(law[:size] - p)) < 1e-14 and not law[size:].any()


# ---------------------------------------------------------------------------
# u_value


def test_u_single_edge_aligned():
    lat = build_lattice(1, 2)
    assert abs(u_value([1, 1], lat) - (1 - 1j) / np.sqrt(2)) < 1e-14


def test_u_single_edge_antialigned():
    lat = build_lattice(1, 2)
    assert abs(u_value([1, -1], lat) - (1 + 1j) / np.sqrt(2)) < 1e-14


def test_u_two_edges_aligned():
    lat = build_lattice(1, 3)
    assert abs(u_value([1, 1, 1], lat) - (-1j)) < 1e-14


def test_u_length_mismatch():
    with pytest.raises(ValidationError, match="expected 3 outcomes"):
        u_value([1, 1], build_lattice(1, 3))


@pytest.mark.parametrize("rows,cols", small_lattices())
def test_u_matches_dense_diagonal(rows, cols):
    lat = build_lattice(rows, cols)
    n = lat.num_qubits
    u_dense = spectral_expm(dense_coupling_hamiltonian(lat))
    for z_index in range(1 << n):
        signs = [1 - 2 * ((z_index >> k) & 1) for k in range(n)]
        assert abs(u_value(signs, lat) - u_dense[z_index, z_index]) < 1e-10


# ---------------------------------------------------------------------------
# product-formula equivalence (commuting decomposition)


@pytest.mark.parametrize("rows,cols", small_lattices())
def test_product_formula_matches_dense_exponential(rows, cols):
    lat = build_lattice(rows, cols)
    n = lat.num_qubits
    product = np.eye(1 << n, dtype=complex)
    for i, j in lat.edges:
        h_k = dense_pauli_on(n, {i: PAULI["Z"], j: PAULI["Z"]})
        product = spectral_expm((np.pi / 4) * h_k) @ product
    whole = spectral_expm(dense_coupling_hamiltonian(lat))
    assert np.max(np.abs(product - whole)) < 1e-10


def _bitstring_per_bit(index, num_bits):
    return "".join("1" if (index >> k) & 1 else "0" for k in range(num_bits))


def _split_bitstrings(indices, num_bits):
    """The bit strings of bitstring_blocks one by one, split at each "\\n"."""
    return [z for block in bitstring_blocks(indices, num_bits) for z in block.split("\n")]


def test_bitstring_formatting():
    assert _split_bitstrings([0b0110, 0b0001, 0], 4) == ["0110", "1000", "0000"]
    for n in range(1, 11):
        assert _split_bitstrings(np.arange(1 << n), n) == [
            _bitstring_per_bit(i, n) for i in range(1 << n)
        ]
    rng = np.random.default_rng(16)
    for n in (16, 20, 26):
        indices = rng.integers(0, 1 << n, size=2000)
        assert _split_bitstrings(indices, n) == [_bitstring_per_bit(i, n) for i in indices.tolist()]
    assert _split_bitstrings(np.zeros(0, dtype=np.uint32), 16) == []
    for count in (FORMAT_BLOCK - 1, FORMAT_BLOCK, FORMAT_BLOCK + 1):
        indices = rng.integers(0, 1 << 16, size=count).astype(np.uint32)
        assert _split_bitstrings(indices, 16) == [_bitstring_per_bit(i, 16) for i in indices.tolist()]


@pytest.mark.parametrize("num_bits", [1, 7, 8, 9, 16, 17, 26])
def test_bitstring_blocks_match_format_per_index(num_bits):
    # Each index byte is one uint64 gather of eight characters; the text must
    # be format(i, "0{n}b") reversed, index by index, across a block boundary.
    assert list(bitstring_blocks(np.zeros(0, dtype=np.uint32), num_bits)) == []
    rng = np.random.default_rng(num_bits)
    indices = rng.integers(0, 1 << num_bits, size=FORMAT_BLOCK + 3).astype(np.uint32)
    indices[:2] = 0, (1 << num_bits) - 1
    blocks = list(bitstring_blocks(indices, num_bits))
    assert len(blocks) == 2 and blocks[1].count("\n") == 2
    expected = [format(i, f"0{num_bits}b")[::-1] for i in indices.tolist()]
    assert "\n".join(blocks).split("\n") == expected


def _per_bit_text(indices, num_bits):
    """The sample-file text of `indices`, each bit shifted out on its own."""
    bits = (indices.astype(np.int64)[:, None] >> np.arange(num_bits)) & 1
    chars = np.full((indices.size, num_bits + 1), ord("\n"), dtype=np.uint8)
    chars[:, :num_bits] = bits + ord("0")
    return chars.tobytes().decode("ascii")


@pytest.mark.parametrize("num_bits", [1, 8, 16, 26])
@pytest.mark.parametrize(
    "count", [0, 1, FORMAT_BLOCK - 1, FORMAT_BLOCK, FORMAT_BLOCK + 1, 2 * FORMAT_BLOCK + 1]
)
def test_bitstring_blocks(num_bits, count):
    rng = np.random.default_rng(count + num_bits)
    indices = rng.integers(0, 1 << num_bits, size=count).astype(np.int32)
    blocks = list(bitstring_blocks(indices, num_bits))
    assert len(blocks) == -(-count // FORMAT_BLOCK)
    assert all(block.count("\n") < FORMAT_BLOCK for block in blocks)
    assert "".join(block + "\n" for block in blocks) == _per_bit_text(indices, num_bits)
    if count:
        assert blocks[0].split("\n", 1)[0] == _bitstring_per_bit(int(indices[0]), num_bits)
