"""History-state model, echo circuit, and measurement-statistics tests.

Per-copy measurements are drawn only by the verifier's chunk kernel, so the
measurement tests read its output through run_protocol's transcript columns.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fklab.analysis import DensityMatrix, exact_parameters
from fklab.cli import ECHO_FIDELITY_FLOOR
from fklab.errors import CapacityError, ValidationError
from fklab.lattice import build_lattice, random_input
from fklab import prover, simulator
from fklab.prover import (
    MODE_ORDER,
    P_CLOCK_MINUS,
    ExactParameters,
    HistoryStateModel,
    NoiseModel,
    echo_prepare,
    exact_model_parameters,
    ideal_history_state,
    level_sum,
    make_degraded_model,
    make_honest_model,
    mode_distributions,
    tune_evolution_scale,
)
from fklab.simulator import (
    Distribution,
    aligned_edges,
    hamming_weights,
    level_counts,
    product_state,
    state_fidelity,
    zz_phases,
)
from fklab.verifier import ProtocolConfig, run_protocol

from conftest import (
    BASIS_X,
    BASIS_Y,
    decode_code,
    decode_draws,
    dense_coupling_hamiltonian,
    dense_hadamard_all,
    dense_history_vector,
    dense_model_parameters,
    depolarized_mixture_density,
    ideal_output_distribution,
    kron_chain,
    reference_components,
    reference_echo_prepare,
    reference_interaction_energies,
    reference_mode_tables,
    reference_propagation_rows,
    reference_vose_build,
    rotated_basis,
    small_lattices,
    spectral_expm,
    transcript_columns,
    u_value,
)


@pytest.fixture
def lattice():
    return build_lattice(2, 2)


@pytest.fixture
def spec(rng):
    return random_input(4, rng)


def honest(lattice, spec, **noise_kwargs):
    return make_honest_model(lattice, spec, NoiseModel(**noise_kwargs))


# ---------------------------------------------------------------------------
# make_honest_model and exact parameters


def test_noiseless_model_exact_parameters(lattice, spec):
    params = exact_model_parameters(honest(lattice, spec))
    assert abs(params.f_in - 1.0) < 1e-12
    assert params.p_samp == 0.5
    assert abs(4.0 * abs(params.tr_rho_o10) ** 2 - 1.0) < 1e-12
    assert abs(params.f_out - 1.0) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1, -1.3])
def test_clock_phase_invariance(lattice, spec, theta):
    base = exact_model_parameters(honest(lattice, spec))
    rotated = exact_model_parameters(honest(lattice, spec, clock_phase_theta=theta))
    assert abs(rotated.f_in - base.f_in) < 1e-14
    assert rotated.p_samp == base.p_samp
    assert abs(abs(rotated.tr_rho_o10) - abs(base.tr_rho_o10)) < 1e-14
    assert abs(rotated.f_out - base.f_out) < 1e-14


def test_evolution_scale_hits_target_overlap(lattice, spec):
    eta = tune_evolution_scale(lattice, 0.999)
    params = exact_model_parameters(honest(lattice, spec, evolution_scale=eta))
    assert abs(4.0 * abs(params.tr_rho_o10) ** 2 - 0.999) < 1e-6
    assert abs(params.f_in - 1.0) < 1e-12


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(),
        NoiseModel(clock_phase_theta=0.9),
        NoiseModel(evolution_scale=0.08),
        NoiseModel(input_tilt=0.2),
        NoiseModel(clock_phase_theta=1.4, evolution_scale=0.05, input_tilt=0.1),
        NoiseModel(depolarizing_rate=0.3),
        NoiseModel(clock_phase_theta=0.4, depolarizing_rate=0.1),
    ],
)
def test_model_parameters_match_density_matrix_oracle(lattice, spec, noise):
    model = make_honest_model(lattice, spec, noise)
    analytic = exact_model_parameters(model)
    dense = exact_parameters(
        DensityMatrix(5, depolarized_mixture_density(model)), lattice, spec
    )
    assert abs(analytic.f_in - dense.f_in) < 1e-10
    assert abs(analytic.p_samp - dense.p_samp) < 1e-10
    assert abs(analytic.tr_rho_o10 - dense.tr_rho_o10) < 1e-10
    assert abs(analytic.f_out - dense.f_out) < 1e-10


def test_depolarizing_scales_coherence(lattice, spec):
    clean = exact_model_parameters(honest(lattice, spec))
    noisy = exact_model_parameters(honest(lattice, spec, depolarizing_rate=0.25))
    assert abs(noisy.tr_rho_o10 - 0.75 * clean.tr_rho_o10) < 1e-12
    assert noisy.p_samp == 0.5


def _depolarized_model(lattice, spec, rate):
    return honest(lattice, spec, clock_phase_theta=0.7, evolution_scale=0.04,
                  input_tilt=0.15, depolarizing_rate=rate)


@pytest.mark.parametrize("rate", [0.1, 0.3, 1.0])
@pytest.mark.parametrize("rows,cols", small_lattices())
def test_density_matrix_matches_mixture_oracle(rows, cols, rate):
    # The mixture oracle's 2^(n+1) + 1 pure states sum to the closed form
    # (1-p)|psi><psi| + (p/2)|0,a><0,a| + (p/2^(n+1)) |1><1| x I, with psi the
    # model's coherent statevector and a its input component.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = _depolarized_model(lat, spec, rate)
    dim = 1 << lat.num_qubits
    psi = model.to_statevector().amplitudes
    a = reference_components(model)[0]
    closed = (1.0 - rate) * np.outer(psi, psi.conj())
    closed[:dim, :dim] += (rate / 2.0) * np.outer(a, a.conj())
    closed[dim:, dim:] += (rate / (2 * dim)) * np.eye(dim)
    assert np.max(np.abs(closed - depolarized_mixture_density(model))) < 1e-14


@pytest.mark.parametrize("rows,cols", small_lattices())
def test_depolarized_parameters_match_density_matrix_oracle(rows, cols):
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = _depolarized_model(lat, spec, 0.3)
    analytic = exact_model_parameters(model)
    dense = exact_parameters(
        DensityMatrix(lat.num_qubits + 1, depolarized_mixture_density(model)), lat, spec
    )
    assert abs(analytic.f_in - dense.f_in) < 1e-10
    assert abs(analytic.p_samp - dense.p_samp) < 1e-10
    assert abs(analytic.tr_rho_o10 - dense.tr_rho_o10) < 1e-10
    assert abs(analytic.f_out - dense.f_out) < 1e-10


def test_depolarizing_mixture_weights(lattice, spec):
    # Weight 1-p stays on the coherent output, which components() reports;
    # the rest is the maximally mixed output, and each clock branch keeps 1/2.
    model = honest(lattice, spec, depolarizing_rate=0.2)
    [(weight, component)] = model.components()
    assert weight == 0.8
    assert np.array_equal(component.amplitudes, model.output_component.amplitudes)
    oracle = dense_history_vector(lattice, spec)[16:] * np.sqrt(2)
    assert np.max(np.abs(component.amplitudes - oracle)) < 1e-12
    rho = depolarized_mixture_density(model)
    assert abs(np.trace(rho[:16, :16]) - 0.5) < 1e-12
    assert abs(np.trace(rho[16:, 16:]) - 0.5) < 1e-12


def test_depolarizing_capacity_guard():
    # Depolarizing costs nothing extra to build: a 12-qubit model, past every
    # dense guard, holds one coherent component and has exact parameters.
    lat = build_lattice(3, 4)
    spec = random_input(12, np.random.default_rng(0))
    model = make_honest_model(lat, spec, NoiseModel(depolarizing_rate=0.1))
    [(weight, component)] = model.components()
    assert weight == 0.9 and component.num_qubits == 12
    assert abs(exact_model_parameters(model).f_out - (0.9 + 0.1 / 4096)) < 1e-12


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(measurement_flip_rate=1.5)
    with pytest.raises(ValidationError):
        NoiseModel(depolarizing_rate=-0.1)
    with pytest.raises(ValidationError):
        NoiseModel(clock_phase_theta=float("inf"))


def test_noise_model_json_keys():
    # The keys of a config's prover.noise section, each mapped to its field;
    # a missing key means no noise of that kind.
    data = {"theta": 0.1, "eta": 0.2, "input_tilt": 0.3, "meas_flip": 0.05, "depolarizing": 0.01}
    assert NoiseModel.from_json_dict(data) == NoiseModel(
        clock_phase_theta=0.1, evolution_scale=0.2, input_tilt=0.3,
        measurement_flip_rate=0.05, depolarizing_rate=0.01,
    )
    assert NoiseModel.from_json_dict({"eta": 0.2}) == NoiseModel(evolution_scale=0.2)
    assert NoiseModel.from_json_dict({}) == NoiseModel()


# ---------------------------------------------------------------------------
# make_degraded_model


def test_degraded_identity_targets(lattice, spec):
    model = make_degraded_model(lattice, spec, 1.0, 1.0)
    params = exact_model_parameters(model)
    assert abs(4.0 * abs(params.tr_rho_o10) ** 2 - 1.0) < 1e-12
    assert abs(params.f_in - 1.0) < 1e-12


def test_degraded_o10_target_against_oracle(lattice, spec):
    model = make_degraded_model(lattice, spec, 0.97, 1.0)
    dense = exact_parameters(DensityMatrix(5, depolarized_mixture_density(model)), lattice, spec)
    assert abs(4.0 * abs(dense.tr_rho_o10) ** 2 - 0.97) < 1e-6
    assert abs(dense.f_in - 1.0) < 1e-10


def test_degraded_f_in_target_against_oracle(lattice, spec):
    model = make_degraded_model(lattice, spec, 1.0, 0.95)
    dense = exact_parameters(DensityMatrix(5, depolarized_mixture_density(model)), lattice, spec)
    assert abs(dense.f_in - 0.95) < 1e-6
    assert abs(4.0 * abs(dense.tr_rho_o10) ** 2 - 1.0) < 1e-6


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
def test_degraded_f_in_targets_hit_exactly(rows, cols):
    # F_in = 0 is reachable: the tilt is pi, where cos(t/2)^(2n) vanishes.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * cols))
    for target in (0.0, 0.01, 0.3, 0.5, 0.9, 0.95, 0.97, 0.994, 0.999999):
        model = make_degraded_model(lat, spec, 1.0, target)
        assert abs(exact_model_parameters(model).f_in - target) < 1e-12


def test_degraded_infeasible_target(lattice, spec):
    with pytest.raises(ValidationError, match="unreachable on the monotone segment"):
        make_degraded_model(lattice, spec, 0.0, 1.0)
    with pytest.raises(ValidationError):
        make_degraded_model(lattice, spec, 1.2, 1.0)
    with pytest.raises(ValidationError, match=r"targets must lie in \[0, 1\]"):
        make_degraded_model(lattice, spec, 0.99, -0.1)


# ---------------------------------------------------------------------------
# echo_prepare


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2)])
def test_echo_matches_dense_history_state(rows, cols, rng):
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, rng)
    prepared = echo_prepare(lat, spec)
    target = dense_history_vector(lat, spec)
    fid = float(np.abs(np.vdot(target, prepared.amplitudes)) ** 2)
    assert fid >= 1 - 1e-10


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_echo_sweep_random_inputs(rows, cols):
    lat = build_lattice(rows, cols)
    rng = np.random.default_rng(1000 + rows * 10 + cols)
    for _ in range(4):
        spec = random_input(lat.num_qubits, rng)
        fid = state_fidelity(echo_prepare(lat, spec), ideal_history_state(lat, spec))
        assert fid >= 1 - 1e-10


def test_echo_4x4_fidelity_and_reference_amplitudes():
    # n = 16: the largest echo in the suite, composed step by step.
    lat = build_lattice(4, 4)
    spec = random_input(lat.num_qubits, np.random.default_rng(44))
    prepared = echo_prepare(lat, spec)
    assert state_fidelity(prepared, ideal_history_state(lat, spec)) >= ECHO_FIDELITY_FLOOR
    expected = reference_echo_prepare(lat, product_state(spec).amplitudes)
    assert np.array_equal(prepared.amplitudes, expected)


@pytest.mark.parametrize("rows,cols", small_lattices(12) + [(1, 17), (3, 6)])
def test_echo_bit_identical_to_out_of_place_reference(rows, cols):
    # The in-place echo on one buffer equals, as uint64 views, the sequence
    # that builds a fresh state per step and tiles the half-time phases. At
    # 1x17 and 3x6 each clock half spans 2 and 4 blocks of the phase kernel.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    prepared = echo_prepare(lat, spec).amplitudes
    expected = reference_echo_prepare(lat, product_state(spec).amplitudes)
    assert np.array_equal(prepared.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("build", ["echo_prepare", "ideal_history_state"])
def test_history_state_peak_memory_is_one_buffer(build):
    # At 3x6 with warm caches, each state is built in its 2^(n+1)-amplitude
    # buffer with block-sized temporaries; a kron product, a 2^n phase array
    # and copies of the halves peaked at 1.6 (echo) and 2.1 (ideal).
    lat = build_lattice(3, 6)
    spec = random_input(lat.num_qubits, np.random.default_rng(36))
    builder = {"echo_prepare": echo_prepare, "ideal_history_state": ideal_history_state}[build]
    builder(lat, spec)
    state_bytes = 16 << (lat.num_qubits + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        builder(lat, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * state_bytes


def test_tilted_statevector_peak_memory_is_one_buffer():
    # The R_z tilt is taken into each single-qubit input state, so the tilted
    # statevector is built in its one buffer, bit for bit the np.kron chain of
    # the tilted states: at 3x6 it peaks near 1.2 state sizes, as it does
    # untilted; one 2^n phase array took it to 2.0.
    lat = build_lattice(3, 6)
    spec = random_input(lat.num_qubits, np.random.default_rng(36))
    model = honest(lat, spec, input_tilt=0.05)
    amps = model.to_statevector().amplitudes
    assert np.array_equal(amps.view(np.uint64), reference_components(model)[2].view(np.uint64))
    del amps
    state_bytes = 16 << (lat.num_qubits + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.to_statevector()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state_bytes


def test_echo_peak_memory_is_one_buffer_and_the_phases():
    # At 4x4 with warm caches the echo holds its 2^17-amplitude buffer, the
    # 2^16 half-time phases and block-sized temporaries: about 1.5 state
    # sizes. A fresh state per gate and tiled phases peak near 4.6.
    lat = build_lattice(4, 4)
    spec = random_input(lat.num_qubits, np.random.default_rng(44))
    echo_prepare(lat, spec)
    state_bytes = 16 << (lat.num_qubits + 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        echo_prepare(lat, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state_bytes


def test_echo_clock_balance(lattice, spec):
    state = echo_prepare(lattice, spec)
    p_minus = float(np.sum(np.abs(state.amplitudes[16:]) ** 2))
    assert abs(p_minus - 0.5) < 1e-10


def test_echo_norm_check_catches_a_skipped_butterfly(monkeypatch, lattice, spec):
    # A layer that skips one of its qubits is still scaled by 2^(-|B|/2), so
    # it leaves norm^2 1/2, and the check right after it raises: the global
    # CZ and both half-time evolutions, which all come after it, never run.
    butterflies, ran = prover._hadamard_butterflies, []
    monkeypatch.setattr(prover, "_hadamard_butterflies", lambda a, qubits: butterflies(a, qubits[1:]))
    monkeypatch.setattr(prover, "_multiply_by_levels", lambda *args: ran.append(args))
    with pytest.raises(ValidationError, match="norm"):
        echo_prepare(lattice, spec)
    assert ran == []


def test_echo_capacity_guard():
    lat = build_lattice(10, 10)
    with pytest.raises(CapacityError):
        echo_prepare(lat, random_input(100, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Measurement statistics of the verifier's chunk kernel


def _run(model, lattice, spec, num_copies, seed, noise=None):
    config = ProtocolConfig(num_copies=num_copies, master_seed=seed)
    return run_protocol(model, lattice, spec, config, noise=noise)


def test_input_test_perfect_state(lattice, spec):
    model = honest(lattice, spec)
    transcript, _ = _run(model, lattice, spec, 4_000, seed=17)
    code, clock, sys_idx = transcript_columns(transcript)
    b_sampling, b_testtype, _ = decode_code(code)
    input_test = (b_sampling == 0) & (b_testtype == 0)
    plus = input_test & (clock == 1)
    assert plus.any()
    # A perfect input reads the input state itself (outcome 0) on every qubit.
    assert np.all(sys_idx[plus] == 0)
    assert np.all(sys_idx[input_test & (clock == -1)] == -1)


def test_sample_mode_record_shape(lattice, spec):
    model = honest(lattice, spec)
    transcript, _ = _run(model, lattice, spec, 400, seed=18)
    for record in transcript.iter_records():
        if record["b_sampling"] != 1:
            continue
        assert record["basis_choice"] is None
        if record["clock_outcome"] == -1:
            assert len(record["system_outcomes"]) == 4
        else:
            assert record["system_outcomes"] is None


def test_flip_rate_one_negates_everything(lattice, spec):
    model = honest(lattice, spec)
    noise = NoiseModel(measurement_flip_rate=1.0)
    transcript, _ = _run(model, lattice, spec, 4_000, seed=19, noise=noise)
    code, clock, sys_idx = transcript_columns(transcript)
    b_sampling, b_testtype, _ = decode_code(code)
    input_test = (b_sampling == 0) & (b_testtype == 0)
    measured = input_test & (sys_idx >= 0)
    assert measured.any()
    # True clock was +1 and perfect inputs give all +1, so every reported
    # value is now -1: clock -1 and every system bit set.
    assert np.all(clock[measured] == -1)
    assert np.all(sys_idx[measured] == (1 << 4) - 1)
    sampled = (b_sampling == 1) & (sys_idx >= 0)
    assert np.all(clock[sampled] == 1)


def _dense_mode_joints(rho, spec):
    """Born-rule outcome distribution of each branch, from a dense rho.

    "sample" and "input" are length 2^n + 1: entry z is the probability of
    system outcome z on the clock value the branch measures after (-1 for
    sampling, +1 for the input test), and the last entry is the probability
    of the other clock value, which skips the system measurement. "x" and
    "y" are the 2^(n+1) propagation joints indexed b_bit * 2^n + z, b_bit 1
    meaning clock outcome -1.
    """
    dim = 1 << spec.num_qubits
    rho_00 = rho[:dim, :dim]
    rho_11 = rho[dim:, dim:]
    had = dense_hadamard_all(spec.num_qubits)
    rot = kron_chain([rotated_basis(kind).conj().T for kind in spec.choices])
    joints = {
        "sample": np.append(np.diag(had @ rho_11 @ had.conj().T).real, np.trace(rho_00).real),
        "input": np.append(np.diag(rot @ rho_00 @ rot.conj().T).real, np.trace(rho_11).real),
    }
    # Rows are the bras of the clock's +1 and -1 eigenstates.
    clock_bras = {
        "x": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "y": np.array([[1, -1j], [1, 1j]]) / np.sqrt(2),
    }
    for name, bras in clock_bras.items():
        v = np.kron(bras, np.eye(dim))
        joints[name] = np.diag(v @ rho @ v.conj().T).real
    return joints


def _branch_histogram(columns, n, mode):
    """Empirical version of one _dense_mode_joints entry from a transcript's
    columns on n system qubits."""
    code, clock, sys_idx = columns
    dim = 1 << n
    sys_idx = sys_idx.astype(np.int64)
    b_sampling, b_testtype, basis = decode_code(code)
    if mode in ("sample", "input"):
        samp = b_sampling == 1
        rows = samp if mode == "sample" else (~samp & (b_testtype == 0))
        measured = rows & (sys_idx >= 0)
        counts = np.bincount(sys_idx[measured], minlength=dim + 1).astype(np.float64)
        counts[dim] = (rows & (sys_idx < 0)).sum()
    else:
        rows = basis == (BASIS_X if mode == "x" else BASIS_Y)
        joint = ((clock[rows] == -1).astype(np.int64) << n) | sys_idx[rows]
        counts = np.bincount(joint, minlength=2 * dim).astype(np.float64)
    return counts / rows.sum()


KERNEL_MODELS = {
    "honest": NoiseModel(clock_phase_theta=0.6, evolution_scale=0.03),
    "depolarized": NoiseModel(clock_phase_theta=0.6, evolution_scale=0.03, depolarizing_rate=0.3),
}


@pytest.fixture(scope="module")
def kernel_transcripts():
    """The columns of one 4e6-copy transcript per model on a 2x2 lattice,
    built on first use."""
    lattice = build_lattice(2, 2)
    spec = random_input(4, np.random.default_rng(20240811))
    cache = {}

    def get(name):
        if name not in cache:
            model = make_honest_model(lattice, spec, KERNEL_MODELS[name])
            transcript, _ = _run(model, lattice, spec, 4_000_000, seed=555)
            cache[name] = (model, transcript_columns(transcript))
        return cache[name]

    return get


@pytest.mark.parametrize("mode", ["sample", "input", "x", "y"])
@pytest.mark.parametrize("model_name", sorted(KERNEL_MODELS))
def test_measurement_marginals_match_born_rule(kernel_transcripts, model_name, mode):
    # Branch-conditioned histograms from one transcript against a dense joint
    # built from the model's density matrix. The propagation branches get
    # about 5e5 copies each, for an expected empirical TVD near 3e-3.
    model, columns = kernel_transcripts(model_name)
    dense = _dense_mode_joints(depolarized_mixture_density(model), model.input_spec)[mode]
    assert abs(dense.sum() - 1.0) < 1e-12
    tvd_emp = 0.5 * np.abs(_branch_histogram(columns, model.num_system_qubits, mode) - dense).sum()
    assert tvd_emp < 0.01


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("rows,cols", small_lattices())
def test_mode_distributions_match_dense_joints(rows, cols, rate):
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = _depolarized_model(lat, spec, rate)
    dists = mode_distributions(model)
    joints = _dense_mode_joints(depolarized_mixture_density(model), spec)
    dim = 1 << lat.num_qubits
    assert abs(P_CLOCK_MINUS - joints["sample"][dim]) < 1e-12
    for table, joint in (
        (dists.sample_given_minus, joints["sample"][:dim]),
        (dists.input_given_plus, joints["input"][:dim]),
        (dists.prop_x, joints["x"]),
        (dists.prop_y, joints["y"]),
    ):
        assert np.max(np.abs(table.probabilities - joint / joint.sum())) < 1e-12


REFERENCE_MODELS = {
    "honest": lambda lat, spec: honest(lat, spec),
    "noisy": lambda lat, spec: honest(
        lat, spec, clock_phase_theta=0.3, evolution_scale=0.02, input_tilt=0.05
    ),
    "depolarized_0.1": lambda lat, spec: honest(lat, spec, depolarizing_rate=0.1),
    "depolarized_1.0": lambda lat, spec: honest(lat, spec, depolarizing_rate=1.0),
    "degraded": lambda lat, spec: make_degraded_model(lat, spec, 0.97, 0.95),
}


@pytest.mark.parametrize("rows,cols", small_lattices(12))
@pytest.mark.parametrize("kind", sorted(REFERENCE_MODELS))
def test_mode_tables_match_amplitude_reference(kind, rows, cols):
    # The closed-form input and propagation tables against the amplitude
    # formulas (and the gate loop) they replace. The sampling law is the same
    # expression, so its row must be, bit for bit, the Vose build of the
    # reference law.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = REFERENCE_MODELS[kind](lat, spec)
    dists = mode_distributions(model)
    reference = reference_mode_tables(model)
    built = Distribution.from_probabilities(lat.num_qubits, reference[0])
    assert np.array_equal(dists.alias[0], built.alias)
    assert np.array_equal(dists.accept[0].view(np.uint64), built.accept.view(np.uint64))
    for name, law in zip(MODE_ORDER, reference):
        assert np.max(np.abs(getattr(dists, name).probabilities - law)) < 1e-14


@pytest.mark.parametrize("rows,cols", small_lattices(16))
@pytest.mark.parametrize("kind", sorted(REFERENCE_MODELS))
def test_mode_tables_bit_identical_to_reference_vose_build(monkeypatch, kind, rows, cols):
    # The alias buffer of a fresh model, built once with the reference alias
    # build (hi/lo int64 prefix sums) and once with the package's.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_vose_build", reference_vose_build)
        reference = mode_distributions(REFERENCE_MODELS[kind](lat, spec))
    dists = mode_distributions(REFERENCE_MODELS[kind](lat, spec))
    assert np.array_equal(dists.alias, reference.alias)
    assert np.array_equal(dists.accept.view(np.uint64), reference.accept.view(np.uint64))


@pytest.mark.parametrize("kind", ["honest", "degraded"])
def test_mode_tables_peak_memory(kind):
    # At 4x5 with warm per-lattice caches, set-up holds the 48 B (4, 2^n)
    # alias buffer and peaks at 96 B per 2^n: the scaled law is built in the
    # accept row and the pairing's temporaries are freed before the exact
    # prefix sums, one uint64 sum per side. The hi/lo int64 sums and a second
    # copy of the sampling law peaked at 145 B.
    lat = build_lattice(4, 5)
    spec = random_input(lat.num_qubits, np.random.default_rng(45))
    mode_distributions(REFERENCE_MODELS[kind](lat, spec))
    model = REFERENCE_MODELS[kind](lat, spec)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mode_distributions(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 112 << lat.num_qubits


def test_model_is_its_scalars_and_setup_runs_no_gate_kernel(monkeypatch, lattice, spec):
    assert [f.name for f in dataclasses.fields(HistoryStateModel)] == [
        "lattice", "input_spec", "clock_phase", "evolution_scale", "input_tilt",
        "tilted_output", "depolarizing_rate",
    ]

    def gate_kernel(*args):
        raise AssertionError("a gate kernel ran during set-up")

    monkeypatch.setattr(prover, "_hadamard_butterflies", gate_kernel)
    monkeypatch.setattr(prover, "_swap_halves_inplace", gate_kernel)
    mode_distributions(make_degraded_model(lattice, spec, 0.97, 0.95))
    mode_distributions(honest(lattice, spec, input_tilt=0.05, depolarizing_rate=0.1))


def test_degraded_model_builds_no_component(monkeypatch, lattice, spec):
    # The degraded model's tuning and target check are level sums: no 2^n
    # component is built.
    def dense(*args):
        raise AssertionError("a dense component was built")

    monkeypatch.setattr(prover, "_write_product_state", dense)
    monkeypatch.setattr(prover, "_multiply_by_levels", dense)
    model = make_degraded_model(lattice, spec, 0.97, 0.95)
    exact_model_parameters(model)


@pytest.mark.parametrize("rows,cols", small_lattices(12))
def test_energy_histogram_overlap_matches_dense_sum(rows, cols):
    # chi(eta) = sum_z |phi_z|^2 e^{i eta (pi/4) E(z)}, summed over all 2^n
    # strings with the input's own weights and per-edge energies, against the
    # level sum tune_evolution_scale bisects on.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    weights = np.abs(product_state(spec).amplitudes) ** 2
    energy = reference_interaction_energies(lat)
    assert level_counts(lat).shape == (lat.num_qubits + 1, len(lat.edges) + 1)
    for eta in (0.0, 0.013, 0.1, 0.7, 2.5):
        dense = abs(np.sum(weights * np.exp(1j * eta * (np.pi / 4) * energy))) ** 2
        assert abs(abs(level_sum(lat, 0.0, eta * (np.pi / 4))) ** 2 - dense) < 1e-12


@pytest.mark.parametrize("rows,cols", small_lattices(12))
@pytest.mark.parametrize("kind", sorted(REFERENCE_MODELS))
def test_propagation_rows_gather_the_per_string_formula(kind, rows, cols):
    # Rows 2-3 are gathered from the (2, n+1, edges+1) accept levels at each
    # string's (w, E): bit for bit the per-string formula.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = REFERENCE_MODELS[kind](lat, spec)
    rows_23 = mode_distributions(model).accept[2:]
    assert np.array_equal(rows_23.view(np.uint64), reference_propagation_rows(model).view(np.uint64))


@pytest.mark.parametrize("rows,cols", small_lattices(12) + [(4, 5)])
@pytest.mark.parametrize("kind", sorted(REFERENCE_MODELS))
def test_level_sum_parameters_match_dense_oracle(kind, rows, cols):
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = REFERENCE_MODELS[kind](lat, spec)
    params = exact_model_parameters(model)
    f_in, tr, f_out = dense_model_parameters(model)
    assert params.p_samp == P_CLOCK_MINUS
    assert abs(params.f_in - f_in) < 1e-12
    assert abs(params.tr_rho_o10 - tr) < 1e-12
    assert abs(params.f_out - f_out) < 1e-12


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 3), (3, 3), (4, 4)])
def test_ideal_history_state_bit_identical_to_amplitude_formula(rows, cols):
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    phi = product_state(spec).amplitudes
    for theta in (0.0, 0.7, -1.3):
        out = zz_phases(lat, 1.0) * phi
        expected = np.concatenate([phi, np.exp(1j * theta) * out]) / math.sqrt(2)
        assert np.array_equal(ideal_history_state(lat, spec, theta).amplitudes, expected)


COMPONENT_MODELS = {
    "honest": lambda lat, spec: honest(lat, spec),
    "theta": lambda lat, spec: honest(lat, spec, clock_phase_theta=0.7),
    "eta": lambda lat, spec: honest(lat, spec, evolution_scale=0.04),
    "input_tilt": lambda lat, spec: honest(lat, spec, input_tilt=0.15),
    "tilted_output": lambda lat, spec: HistoryStateModel(
        lat, spec, clock_phase=-1.3, evolution_scale=0.02, input_tilt=0.15, tilted_output=True
    ),
    "depolarizing": lambda lat, spec: honest(lat, spec, depolarizing_rate=0.3),
    "degraded": lambda lat, spec: make_degraded_model(lat, spec, 0.97, 0.95),
}


@pytest.mark.parametrize("rows,cols", [(3, 3), (1, 17)])
@pytest.mark.parametrize("kind", sorted(COMPONENT_MODELS))
def test_components_bit_identical_to_whole_register_formulas(kind, rows, cols):
    # The one-buffer builders against the kron product, whole-register tilt
    # and per-string coupling phase formulas, as uint64 views; 1x17 spans two
    # phase blocks. The statevector's lower half is the input component.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = COMPONENT_MODELS[kind](lat, spec)
    built = (model.output_component.amplitudes, model.to_statevector().amplitudes)
    for amps, expected in zip(built, reference_components(model)[1:]):
        assert np.array_equal(amps.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_alias_tables_share_one_buffer(rate):
    lat = build_lattice(3, 3)
    spec = random_input(9, np.random.default_rng(33))
    model = _depolarized_model(lat, spec, rate)
    dists = mode_distributions(model)
    n = lat.num_qubits
    assert dists.alias.shape == dists.accept.shape == (4, 1 << n)
    for t, name in enumerate(MODE_ORDER):
        table = getattr(dists, name)
        # Each table is its row of the buffer: nothing is stored twice.
        assert table.alias.base is dists.alias and table.accept.base is dists.accept
        assert np.array_equal(table.alias, dists.alias[t]) and np.array_equal(table.accept, dists.accept[t])
    # The input-test row is, bit for bit, the Vose build of the product law
    # c^(n-w) s^w written out here; the sampling row is checked against the
    # amplitude reference in test_mode_tables_match_amplitude_reference.
    c, s = math.cos(model.input_tilt / 2) ** 2, math.sin(model.input_tilt / 2) ** 2
    weight = np.array([bin(z).count("1") for z in range(1 << n)])
    law = np.array([c ** (n - w) * s**w for w in range(n + 1)])[weight]
    built = Distribution.from_probabilities(n, law)
    assert np.array_equal(dists.alias[1], built.alias)
    assert np.array_equal(dists.accept[1].view(np.uint64), built.accept.view(np.uint64))


@pytest.mark.parametrize("kind", ["honest", "degraded"])
def test_setup_holds_only_the_alias_buffer(kind):
    # With the per-lattice caches warm, a model and its four tables hold the
    # (4, 2^n) alias buffer, 64 B per basis state, and a few small objects.
    lat = build_lattice(4, 4)
    n = lat.num_qubits
    spec = random_input(n, np.random.default_rng(44))
    hamming_weights(n), aligned_edges(lat), level_counts(lat)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = REFERENCE_MODELS[kind](lat, spec)
        mode_distributions(model)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 64 * (1 << n) + (64 << 10)


@pytest.mark.parametrize("rows,cols", small_lattices(12))
@pytest.mark.parametrize("kind", sorted(REFERENCE_MODELS))
def test_propagation_alias_rows_are_closed_form(kind, rows, cols):
    # Bin z of a propagation row keeps z (clock +1) and aliases z + 2^n (clock
    # -1). The law the row encodes is the reference joint and, bit for bit,
    # the table's own probabilities, and the chunk kernel draws as pick does.
    lat = build_lattice(rows, cols)
    spec = random_input(lat.num_qubits, np.random.default_rng(rows * 10 + cols))
    model = REFERENCE_MODELS[kind](lat, spec)
    dists = mode_distributions(model)
    reference = reference_mode_tables(model)
    n, dim = lat.num_qubits, 1 << lat.num_qubits
    seed, count = 606, 20_000
    transcript, _ = _run(model, lat, spec, count, seed=seed)
    draws = decode_draws(seed, 0, count, n, 0.0)
    code, clock, sys_idx = transcript_columns(transcript)
    for row, basis, ref in ((2, BASIS_X, reference[2]), (3, BASIS_Y, reference[3])):
        table = getattr(dists, MODE_ORDER[row])
        alias, accept = dists.alias[row], dists.accept[row]
        assert np.array_equal(alias, np.arange(dim) + dim)
        law = np.zeros(2 * dim)
        law[:dim] += accept / dim
        law[alias] += (1.0 - accept) / dim
        assert np.array_equal(law, table.probabilities)
        assert np.max(np.abs(law - ref)) < 1e-14
        sel = decode_code(code)[2] == basis
        joint = table.pick(draws.u_bin[sel], draws.u_coin[sel])
        assert np.array_equal(joint & (dim - 1), sys_idx[sel])
        assert np.array_equal(np.where(joint >> n, -1, 1), clock[sel])


def test_prop_x_empirical_mean_matches_dense_expectation(lattice, spec):
    # <X (x) U> oracle: psi_top^dag U psi_bot + psi_bot^dag U psi_top for the
    # dense time-1 evolution.
    model = honest(lattice, spec, clock_phase_theta=0.25)
    u_dense = spectral_expm(dense_coupling_hamiltonian(lattice))
    top = reference_components(model)[0] / np.sqrt(2)
    bot = np.exp(1j * model.clock_phase) * model.output_component.amplitudes / np.sqrt(2)
    exact = np.vdot(top, u_dense @ bot) + np.vdot(bot, u_dense @ top)

    transcript, _ = _run(model, lattice, spec, 800_000, seed=8)
    code, clock, sys_idx = transcript_columns(transcript)
    prop_x = decode_code(code)[2] == BASIS_X
    u_vals = np.array([u_value([1 - 2 * ((z >> k) & 1) for k in range(4)], lattice)
                       for z in range(16)])
    mean_bu = np.mean(clock[prop_x] * u_vals[sys_idx[prop_x]])
    assert abs(mean_bu - exact) < 0.02


def test_sample_histogram_matches_ideal_distribution(lattice, spec):
    from fklab.analysis import tvd

    model = honest(lattice, spec)
    _, report = _run(model, lattice, spec, 2_000_000, seed=99)
    hist = np.bincount(report.samples, minlength=16) / report.samples.size
    assert tvd(hist, ideal_output_distribution(lattice, spec)) < 0.01


def test_mode_distributions_cached(lattice, spec):
    model = honest(lattice, spec)
    assert mode_distributions(model) is mode_distributions(model)
    # The cache is keyed by identity, so a model must not change under it.
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.depolarizing_rate = 1.0


def test_history_model_rejects_bad_mixture(lattice, spec):
    for rate in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValidationError):
            HistoryStateModel(
                lattice=lattice,
                input_spec=spec,
                clock_phase=0.0,
                depolarizing_rate=rate,
            )


@pytest.mark.parametrize(
    "noise", [{"input_tilt": 1e308}, {"evolution_scale": 1e308}, {"clock_phase": 1e308, "input_tilt": 1e308}]
)
def test_history_model_rejects_non_finite_phases(lattice, spec, noise):
    kwargs = {"clock_phase": 0.0, **noise}
    with pytest.raises(ValidationError, match="not finite"):
        HistoryStateModel(lattice=lattice, input_spec=spec, **kwargs)


def test_statevector_against_conftest_oracle(lattice, spec):
    model = honest(lattice, spec, clock_phase_theta=1.1)
    mine = model.to_statevector().amplitudes
    oracle = dense_history_vector(lattice, spec, theta=1.1)
    assert np.max(np.abs(mine - oracle)) < 1e-10


def test_both_routes_return_one_range_checked_record(lattice, spec):
    model = honest(lattice, spec, input_tilt=0.2, depolarizing_rate=0.1)
    dense = exact_parameters(DensityMatrix(5, depolarized_mixture_density(model)), lattice, spec)
    assert type(exact_model_parameters(model)) is type(dense) is ExactParameters
    for name in ("f_in", "p_samp", "f_out"):
        values = {"f_in": 1.0, "p_samp": 0.5, "tr_rho_o10": 0.5, "f_out": 1.0, name: 1.0 + 2e-10}
        with pytest.raises(ValidationError, match=rf"{name} = 1.0000000002 is outside \[0, 1\]"):
            ExactParameters(**values)
        ExactParameters(**{**values, name: 1.0 + 1e-10})


_PROVER_RAISES = {
    "model-input-size": (
        lambda: HistoryStateModel(
            build_lattice(2, 2), random_input(3, np.random.default_rng(0)), clock_phase=0.0
        ),
        ValidationError, "input spec size does not match lattice",
    ),
    "echo-input-size": (
        lambda: echo_prepare(build_lattice(2, 2), random_input(3, np.random.default_rng(0))),
        ValidationError, "input spec size does not match lattice",
    ),
    "overlap-target-range": (
        lambda: tune_evolution_scale(build_lattice(2, 2), 1.5),
        ValidationError, r"target overlap must be in \[0, 1\], got 1.5",
    ),
}


@pytest.mark.parametrize("case", sorted(_PROVER_RAISES))
def test_prover_raise_sites(case):
    call, error, message = _PROVER_RAISES[case]
    with pytest.raises(error, match=message):
        call()
