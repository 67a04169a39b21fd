"""Prover-side models: history states, the echo preparation circuit, and
the outcome distributions the verifier samples copies from.

The honest prover is modeled analytically as clock-indexed input/output
components plus a scalar depolarizing weight on the output, so copy
measurement statistics and exact parameters have closed forms in each
string's Hamming weight w and aligned-edge count k (simulator.level_counts),
precomputed once and sampled in O(1) per shot. echo_prepare exists
separately to certify that a gate-level device prepares the same state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError
from .lattice import InputSpec, LatticeGeometry
from .simulator import (
    Distribution,
    PureState,
    _hadamard_butterflies,
    _multiply_by_levels,
    _swap_halves_inplace,
    _write_product_state,
    aligned_edges,
    hamming_weights,
    level_counts,
    string_levels,
    walsh_hadamard,
    zz_phase_levels,
)

MAX_ECHO_SYSTEM_QUBITS = 20
# Peak set-up memory per basis state: the model, its four mode tables and
# their (4, 2^n) alias buffer, as peak RSS above the baseline after lattice
# and input, divided by 2^n: 76.2-77.4/75.3-75.6/75.1-75.2 B at
# n = 20/22/24, honest and degraded, 3 runs each (Python 3.11, numpy 2.4,
# x86-64), plus 10% and rounded up to a multiple of 8. n = 18 is left out:
# its 79.7-90.7 B are allocator noise plus a fixed ~1 MB of model building.
SETUP_BYTES_PER_BASIS_STATE = 88
# Half of an 8 GB host, leaving room for the published samples (at most
# 128 MiB) and the outputs. It admits n <= 25 (2.75 GiB), not n = 26.
MAX_SETUP_BYTES = 4 << 30

TARGET_TOL = 1e-6

# Each clock branch has weight 1/2 in every model, depolarized or not. The
# verifier draws a copy's clock as one fair bit, which encodes this value.
P_CLOCK_MINUS = 0.5

# Config key of each NoiseModel field; a missing key means no noise of that kind.
NOISE_JSON_FIELDS = {
    "theta": "clock_phase_theta",
    "eta": "evolution_scale",
    "input_tilt": "input_tilt",
    "meas_flip": "measurement_flip_rate",
    "depolarizing": "depolarizing_rate",
}


@dataclass(frozen=True)
class NoiseModel:
    """Device imperfections applied when building and measuring models.

    clock_phase_theta: fixed phase on the output branch of the clock.
    evolution_scale: eta, so the simulated evolution time is T*(1+eta).
    input_tilt: per-qubit diagonal rotation angle on state preparation.
    measurement_flip_rate: probability that each reported outcome flips.
    depolarizing_rate: probability of replacing the output component with
        the maximally mixed state.
    """

    clock_phase_theta: float = 0.0
    evolution_scale: float = 0.0
    input_tilt: float = 0.0
    measurement_flip_rate: float = 0.0
    depolarizing_rate: float = 0.0

    def __post_init__(self):
        for name in ("measurement_flip_rate", "depolarizing_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        for name in ("clock_phase_theta", "evolution_scale", "input_tilt"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    @classmethod
    def from_json_dict(cls, data: dict) -> "NoiseModel":
        """The model of a config's prover.noise object, whose keys are among NOISE_JSON_FIELDS."""
        return cls(**{NOISE_JSON_FIELDS[key]: float(value) for key, value in data.items()})


@dataclass(frozen=True, eq=False)
class HistoryStateModel:
    """Analytic (n+1)-qubit history state with a depolarized output branch.

    The coherent part is (|0>|a> + e^{i theta}|1>|b>)/sqrt(2) with a the input
    and b the output component; the clock sits at the highest bit, so its
    statevector is the concatenation [a, e^{i theta} b] / sqrt(2). With
    depolarizing_rate p the output branch is replaced, with probability p, by
    the maximally mixed state:

        (1-p)|psi><psi| + (p/2)|0><0|(x)|a><a| + (p/2^(n+1))|1><1|(x)I.

    The model is its scalars: a is the input with an R_z(input_tilt) error
    per qubit, and b evolves the ideal input (a if tilted_output) for time
    1 + evolution_scale. Both are built anew on each use and not kept.

    Frozen, because it memoizes its outcome tables and their accept levels.
    """

    lattice: LatticeGeometry
    input_spec: InputSpec
    clock_phase: float
    evolution_scale: float = 0.0
    input_tilt: float = 0.0
    tilted_output: bool = False
    depolarizing_rate: float = 0.0

    def __post_init__(self):
        if self.input_spec.num_qubits != self.lattice.num_qubits:
            raise ValidationError("input spec size does not match lattice")
        if not 0.0 <= self.depolarizing_rate <= 1.0:
            raise ValidationError(
                f"depolarizing_rate must be in [0, 1], got {self.depolarizing_rate}"
            )
        # Built with the model, so that a phase past float range is a config error.
        self.accept_levels

    @cached_property
    def accept_levels(self) -> np.ndarray:
        """The (2, n+1, edges+1) accept levels of the X and Y propagation alias
        rows: entry [r, w, k] is the accept of every string of weight w and
        energy 2k - edges (_mode_tables). Raises ValidationError if one is not
        finite."""
        n, edges, p = self.num_system_qubits, self.lattice.num_edges, self.depolarizing_rate
        t_in, t_out = self.input_tilt, self.input_tilt if self.tilted_output else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.clock_phase + (t_out - t_in) * (np.arange(n + 1)[:, None] - n / 2)
            phi = phi - (np.pi / 4) * (1.0 + self.evolution_scale) * np.arange(-edges, edges + 1, 2)
            levels = 0.5 + 0.5 * (1.0 - p) * np.stack((np.cos(phi), np.sin(phi)))
        if not np.isfinite(levels).all():
            raise ValidationError("the propagation phases of this noise model are not finite")
        return levels

    @property
    def num_system_qubits(self) -> int:
        return self.lattice.num_qubits

    @property
    def output_component(self) -> PureState:
        amps = np.empty(1 << self.num_system_qubits, dtype=np.complex128)
        self._write_output(amps)
        return PureState(self.num_system_qubits, amps)

    def _write_output(self, out: np.ndarray) -> None:
        """Write b into `out`: the input (tilted if tilted_output), then the
        coupling phases of time 1 + evolution_scale, phases first."""
        _write_input(out, self.input_spec, self.input_tilt if self.tilted_output else 0.0)
        phases = zz_phase_levels(self.lattice, 1.0 + self.evolution_scale)
        _multiply_by_levels(out, phases, aligned_edges(self.lattice), table_first=True)

    @cached_property
    def distributions(self) -> ModeDistributions:
        """The four measurement distributions and their alias tables, built
        here, once, so that the threads of a run only read them."""
        dim = 1 << self.num_system_qubits
        alias = np.empty((len(MODE_ORDER), dim), dtype=np.int32)
        accept = np.empty((len(MODE_ORDER), dim), dtype=np.float64)
        return ModeDistributions(
            num_system=self.num_system_qubits,
            **dict(zip(MODE_ORDER, _mode_tables(self, alias, accept))),
            alias=alias,
            accept=accept,
        )

    def components(self) -> list[tuple[float, PureState]]:
        """The coherent output component and its weight 1-p."""
        return [(1.0 - self.depolarizing_rate, self.output_component)]

    def to_statevector(self) -> PureState:
        """Full (n+1)-qubit statevector of the coherent part, built in one
        buffer: a in the lower half, b in the upper half, then e^{i theta}
        (first operand) on b and 1/sqrt(2) on both."""
        dim = 1 << self.num_system_qubits
        amps = np.empty(2 * dim, dtype=np.complex128)
        _write_input(amps[:dim], self.input_spec, self.input_tilt)
        output = amps[dim:]
        self._write_output(output)
        np.multiply(np.exp(1j * self.clock_phase), output, out=output)
        amps /= math.sqrt(2)
        return PureState(self.num_system_qubits + 1, amps)


@dataclass(frozen=True)
class ModelParameters:
    """Exact protocol parameters of an analytic model (any guarded size)."""

    f_in: float
    p_samp: float
    tr_rho_o10: complex
    f_out: float


def _write_input(out: np.ndarray, spec: InputSpec, tilt: float) -> None:
    """Write the ideal product input of `spec` into `out` with a diagonal
    R_z(tilt) error on every qubit: unless tilt is 0, the state is multiplied
    (amplitude first) by the R_z phase of every string.

    The phase depends on the string's weight w alone, so the n+1 level
    phases are built once, from the int8 levels 2w - n as the per-string
    formula would build them, and _multiply_by_levels gathers them by
    hamming_weights: every amplitude is bit for bit the per-string product.
    """
    _write_product_state(out, spec)
    if tilt != 0.0:
        n = spec.num_qubits
        # R_z(t) = diag(e^{-it/2}, e^{+it/2}) per qubit.
        levels = np.exp(1j * (tilt / 2.0) * (2 * np.arange(n + 1, dtype=np.int8) - n))
        _multiply_by_levels(out, levels, hamming_weights(n), table_first=False)


def make_honest_model(
    lattice: LatticeGeometry, input_spec: InputSpec, noise: NoiseModel
) -> HistoryStateModel:
    """Honest prover's (possibly noisy) history state.

    The input component carries the preparation tilt; the output component is
    the (1+eta)-time evolution of the ideal input; the clock carries theta.
    With depolarizing_rate p the output becomes (1-p)|phi'><phi'| + p I/2^n.
    """
    return HistoryStateModel(
        lattice=lattice,
        input_spec=input_spec,
        clock_phase=noise.clock_phase_theta,
        evolution_scale=noise.evolution_scale,
        input_tilt=noise.input_tilt,
        depolarizing_rate=noise.depolarizing_rate,
    )


def level_sum(lattice: LatticeGeometry, weight_phase: float, energy_phase: float) -> complex:
    """2^-n sum_z e^{i weight_phase (w(z) - n/2) + i energy_phase E(z)}, summed
    over the level grid by weight, then by energy."""
    n = lattice.num_qubits
    by_weight = np.exp(1j * weight_phase * (np.arange(n + 1) - n / 2))
    by_energy = np.sum(by_weight[:, None] * level_counts(lattice), axis=0)
    levels = 2 * np.arange(by_energy.size) - lattice.num_edges
    return np.sum(by_energy * np.exp(1j * energy_phase * levels)) / (1 << n)


def exact_model_parameters(model: HistoryStateModel) -> ModelParameters:
    """Exact F_in, p_samp, Tr[rho O10], F_out of an analytic model.

    Every amplitude of a, b and the ideal input has modulus 2^(-n/2) and a
    phase set by w(z) and E(z), so <b|U a> = level_sum(t_in - t_out, (pi/4)
    eta), <b|U phi> = level_sum(-t_out, (pi/4) eta) and F_in = cos(t_in/2)^(2n).
    Depolarizing scales Tr[rho O10] by 1-p and mixes F_out with the 2^-n
    overlap of the maximally mixed state.
    """
    lattice, n, p = model.lattice, model.num_system_qubits, model.depolarizing_rate
    t_in, t_out = model.input_tilt, model.input_tilt if model.tilted_output else 0.0
    energy_phase = model.evolution_scale * (np.pi / 4)
    f_in = math.cos(t_in / 2) ** (2 * n)
    tr = (1.0 - p) * level_sum(lattice, t_in - t_out, energy_phase) * 0.5
    tr *= np.exp(-1j * model.clock_phase)
    f_out = (1.0 - p) * float(np.abs(level_sum(lattice, -t_out, energy_phase)) ** 2) + p / (1 << n)
    return ModelParameters(f_in=f_in, p_samp=P_CLOCK_MINUS, tr_rho_o10=complex(tr), f_out=f_out)


def tune_evolution_scale(lattice: LatticeGeometry, target_overlap_sq: float) -> float:
    """Find eta >= 0 with |<U^{1+eta} phi | U phi>|^2 = target within 1e-6."""
    if not 0.0 <= target_overlap_sq <= 1.0:
        raise ValidationError(f"target overlap must be in [0, 1], got {target_overlap_sq}")
    if target_overlap_sq == 1.0:
        return 0.0

    def overlap_sq(eta: float) -> float:
        return float(np.abs(level_sum(lattice, 0.0, eta * (np.pi / 4))) ** 2)

    hi = 0.0
    for _ in range(400):
        hi += 0.02
        if overlap_sq(hi) < target_overlap_sq:
            break
    else:
        raise ValidationError(f"overlap target {target_overlap_sq} unreachable on the monotone segment")
    lo = hi - 0.02
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if overlap_sq(mid) > target_overlap_sq:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    if abs(overlap_sq(eta) - target_overlap_sq) > TARGET_TOL:
        raise ValidationError("overlap bisection failed to converge")
    return eta


def _tune_input_tilt(input_spec: InputSpec, target_f_in: float) -> float:
    """Tilt t in [0, pi] with |<phi_ideal | phi_tilt>|^2 = target.

    Every input qubit has amplitudes of modulus 1/sqrt(2), so R_z(t) keeps an
    overlap cos(t/2) per qubit and F_in(t) = cos(t/2)^(2n).
    """
    if not 0.0 <= target_f_in <= 1.0:
        raise ValidationError(f"target input fidelity must be in [0, 1], got {target_f_in}")
    return 2.0 * math.acos(target_f_in ** (1.0 / (2 * input_spec.num_qubits)))


def make_degraded_model(
    lattice: LatticeGeometry,
    input_spec: InputSpec,
    target_o10_sq: float,
    target_f_in: float,
) -> HistoryStateModel:
    """Soundness fixture hitting exact parameter targets within 1e-6.

    The two knobs decouple: the input tilt is diagonal, so the propagation
    overlap depends only on eta, and 4|Tr rho O10|^2 = target_o10_sq while
    F_in = target_f_in. Unlike make_honest_model, the output component evolves
    the tilted input, which keeps (1, f_in < 1) targets reachable.
    """
    if not 0.0 <= target_o10_sq <= 1.0 or not 0.0 <= target_f_in <= 1.0:
        raise ValidationError("targets must lie in [0, 1]")
    model = HistoryStateModel(
        lattice=lattice,
        input_spec=input_spec,
        clock_phase=0.0,
        evolution_scale=tune_evolution_scale(lattice, target_o10_sq),
        input_tilt=_tune_input_tilt(input_spec, target_f_in),
        tilted_output=True,
    )
    params = exact_model_parameters(model)
    if abs(4.0 * abs(params.tr_rho_o10) ** 2 - target_o10_sq) > 2 * TARGET_TOL:
        raise ValidationError("degraded model missed the o10 target")
    if abs(params.f_in - target_f_in) > 2 * TARGET_TOL:
        raise ValidationError("degraded model missed the f_in target")
    return model


def echo_prepare(lattice: LatticeGeometry, input_spec: InputSpec) -> PureState:
    """Gate-level echo preparation of the history state.

    Runs, on |+>|phi_in>: (H_B, global CZ, H_B), half-time evolution, (H_B,
    global CZ, H_B), X on the clock, half-time evolution. The clock is the
    highest qubit; the global CZ acts on every system qubit, and the H
    conjugation turns it into a controlled bit-flip on sublattice B while the
    stray controlled-Z phases on sublattice A cancel between the two blocks.

    Every step runs in place on one 2^(n+1) buffer, and the norm check
    follows the input and each step: phi_in is written into the upper half,
    and |+> (x) phi_in is taken from it in np.kron's operand order. An H_B
    layer is the Hadamard butterflies over sorted(B) and then one multiply by
    2^(-|B|/2); the X on the clock swaps the two halves. The other steps are
    diagonal, and each is one _multiply_by_levels sweep (amplitude first)
    over a small table built once per call, so no 2^n phase or mask array
    is built: the global CZ multiplies the clock-1 half by the sign table
    +1, -1, +1, ... gathered by hamming_weights, and each half-time
    evolution multiplies both clock halves by the coupling phases of
    edges + 1 levels gathered by aligned_edges.
    """
    n = lattice.num_qubits
    if input_spec.num_qubits != n:
        raise ValidationError("input spec size does not match lattice")
    if n > MAX_ECHO_SYSTEM_QUBITS:
        raise CapacityError(
            f"echo statevector needs {n}+1 qubits, over the {MAX_ECHO_SYSTEM_QUBITS}-qubit guard"
        )
    dim = 1 << n
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2)
    a = np.empty(2 * dim, dtype=np.complex128)
    lower, upper = a[None, :dim], a[None, dim:]
    _write_product_state(a[dim:], input_spec)
    np.multiply(plus[0:1, None], upper, out=lower)
    np.multiply(plus[1:2, None], upper, out=upper)
    PureState(n + 1, a)  # the norm check the input state passes

    b_qubits = sorted(lattice.partition_b)
    b_scale = 2.0 ** (-0.5 * len(b_qubits))
    half_phases, aligned = zz_phase_levels(lattice, 0.5), aligned_edges(lattice)
    signs = np.resize(np.array([1, -1], dtype=np.complex128), n + 1)

    def hadamard_b(amplitudes: np.ndarray) -> None:
        _hadamard_butterflies(amplitudes, b_qubits)
        amplitudes *= b_scale

    def evolve_half(amplitudes: np.ndarray) -> None:
        for part in (amplitudes[:dim], amplitudes[dim:]):
            _multiply_by_levels(part, half_phases, aligned, table_first=False)

    def global_cz(amplitudes: np.ndarray) -> None:
        _multiply_by_levels(amplitudes[dim:], signs, hamming_weights(n), table_first=False)

    flip_b = (hadamard_b, global_cz, hadamard_b)
    for step in (*flip_b, evolve_half, *flip_b, _swap_halves_inplace, evolve_half):
        step(a)
        state = PureState(n + 1, a)  # the norm check every step's output passes
    return state


def ideal_history_state(
    lattice: LatticeGeometry, input_spec: InputSpec, theta: float = 0.0
) -> PureState:
    """(|0>|phi_in> + e^{i theta}|1>U|phi_in>)/sqrt(2), clock at the top bit."""
    return HistoryStateModel(lattice, input_spec, clock_phase=theta).to_statevector()


# The order of the four outcome tables, which is the row order of
# ModeDistributions' alias buffer.
MODE_ORDER = ("sample_given_minus", "input_given_plus", "prop_x", "prop_y")


@dataclass
class ModeDistributions:
    """Per-instruction-mode outcome distributions of one model.

    Precomputed once per model so copies sample in O(1). Joint propagation
    outcomes are indexed j = b_bit * 2^n + z with b_bit 0 meaning clock
    outcome +1. Every alias table has 2^n bins, and table t's is row t of
    one (4, 2^n) (alias, accept) pair, in MODE_ORDER: int32 aliases (every
    outcome is below 2^27 under the 26-qubit guard) and float64 accepts,
    48 B per 2^n in all.
    """

    num_system: int
    sample_given_minus: Distribution
    input_given_plus: Distribution
    prop_x: Distribution
    prop_y: Distribution
    alias: np.ndarray
    accept: np.ndarray


def _mode_tables(
    model: HistoryStateModel, alias: np.ndarray, accept: np.ndarray
) -> tuple[Distribution, ...]:
    """The four measurement distributions of a model, in MODE_ORDER, with their
    alias tables written into the rows of (alias, accept).

    All of a and b have modulus 2^(-n/2), so e^{i theta} b_z / a_z = e^{i phi}
    with phi = theta + (t_out - t_in)(w - n/2) - (pi/4)(1+eta)E for z of weight
    w and energy E. A depolarized propagation half is 2^-n/2 (1 +- (1-p) cos phi)
    in X and the same with sin phi in Y. So a propagation alias table is closed
    form: bin z keeps z (clock +1) with accept (1 + (1-p) cos phi) / 2, gathered
    from model.accept_levels at (w, k), and else aliases z + 2^n (clock -1), so
    no dense joint is built. The input test reads back each qubit's
    input state with c = cos^2(t_in/2), so z has c^(n-w) s^w, s = sin^2(t_in/2);
    that product law and the sampling table get a Vose build.
    """
    n = model.num_system_qubits
    dim = 1 << n
    p = model.depolarizing_rate
    samp = (1.0 - p) * np.abs(walsh_hadamard(model.output_component).amplitudes) ** 2 + p / dim
    samp /= samp.sum()
    sample_given_minus = Distribution.from_probabilities(n, samp, (alias[0], accept[0]))
    del samp

    t_in = model.input_tilt
    c, s = math.cos(t_in / 2) ** 2, math.sin(t_in / 2) ** 2
    w = np.arange(n + 1)
    input_given_plus = Distribution.from_probabilities(
        n, (c ** (n - w) * s**w)[hamming_weights(n)], (alias[1], accept[1])
    )

    levels = model.accept_levels.reshape(2, -1)
    np.take(levels, string_levels(model.lattice), axis=1, out=accept[2:], mode="clip")
    alias[2:] = np.arange(dim, 2 * dim)
    prop_x, prop_y = (Distribution(n + 1, alias[row], accept[row]) for row in (2, 3))
    return sample_given_minus, input_given_plus, prop_x, prop_y


def mode_distributions(model: HistoryStateModel) -> ModeDistributions:
    """The four measurement distributions of a model and their alias tables
    (HistoryStateModel.distributions, built on first use)."""
    return model.distributions
