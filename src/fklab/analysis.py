"""Exact oracles and bound verifiers.

Everything here works on dense arrays at desk scale (system size n <= 6 for
matrix oracles) and is independent of the fast diagonal-phase kernels, so it
can certify them. Matrix exponentials are of Hermitian generators only and
are computed spectrally.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    FklabError,
    InconsistentInputsError,
    NotInvertibleError,
    OutOfRegimeError,
    ValidationError,
)
from .lattice import InputSpec, LatticeGeometry, build_lattice, random_input
from .prover import ideal_history_state
from .rng import TAG_BOUNDS, substream
from .simulator import (
    MAX_DENSE_QUBITS,
    PureState,
    product_state,
    walsh_hadamard,
    zz_phases,
)

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# ---------------------------------------------------------------------------
# Dense building blocks


def _validate_pauli_label(label: str, num_qubits: int | None = None) -> None:
    if num_qubits is not None and len(label) != num_qubits:
        raise ValidationError(f"label {label!r} has length {len(label)}, expected {num_qubits}")
    for ch in label:
        if ch not in PAULI_MATRICES:
            raise ValidationError(f"malformed Pauli label character {ch!r}")


def dense_pauli(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string; label[k] acts on qubit k (bit k)."""
    _validate_pauli_label(label)
    out = np.array([[1.0 + 0.0j]])
    for ch in label:
        out = np.kron(PAULI_MATRICES[ch], out)
    return out


def dense_hamiltonian(terms, num_qubits: int) -> np.ndarray:
    """Sum of weighted Pauli strings as a dense Hermitian matrix."""
    dim = 1 << num_qubits
    h = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, label in terms:
        _validate_pauli_label(label, num_qubits)
        h += complex(coeff) * dense_pauli(label)
    return h


def expm_hermitian(h: np.ndarray, time: float = 1.0) -> np.ndarray:
    """exp(-i * time * h) for Hermitian h, via eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * time * evals)) @ evecs.conj().T


def zz_terms(lattice: LatticeGeometry) -> list[tuple[float, str]]:
    """The lattice coupling as weighted Pauli strings (pi/4 Z_i Z_j per edge)."""
    n = lattice.num_qubits
    terms = []
    for i, j in lattice.edges:
        label = "".join("Z" if k in (i, j) else "I" for k in range(n))
        terms.append((math.pi / 4, label))
    return terms


def dense_evolution_product(lattice: LatticeGeometry) -> np.ndarray:
    """Product over edges of exp(-i pi/4 Z_i Z_j), each factor exponentiated densely."""
    n = lattice.num_qubits
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"dense product at {n} qubits exceeds the {MAX_DENSE_QUBITS}-qubit guard")
    u = np.eye(1 << n, dtype=np.complex128)
    for coeff, label in zz_terms(lattice):
        u = expm_hermitian(coeff * dense_pauli(label)) @ u
    return u


def apply_two_qubit_dense(vec: np.ndarray, num_qubits: int, qi: int, qj: int, gate: np.ndarray) -> np.ndarray:
    """Apply a 4x4 gate to qubits (qi, qj) of a dense statevector."""
    if qi == qj:
        raise ValidationError("two-qubit gate needs distinct qubits")
    t = vec.reshape([2] * num_qubits)
    ax_i = num_qubits - 1 - qi
    ax_j = num_qubits - 1 - qj
    t = np.moveaxis(t, (ax_i, ax_j), (0, 1)).reshape(4, -1)
    t = gate @ t
    t = np.moveaxis(t.reshape(2, 2, *[2] * (num_qubits - 2)), (0, 1), (ax_i, ax_j))
    return t.reshape(-1)


# ---------------------------------------------------------------------------
# Exact protocol parameters


MAX_CLOCKED_QUBITS = MAX_DENSE_QUBITS + 1  # density matrices and the dense echo: clock included


@dataclass
class DensityMatrix:
    """Validated density matrix on `num_qubits` qubits (at most 7)."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.num_qubits > MAX_CLOCKED_QUBITS:
            raise CapacityError(
                f"{self.num_qubits} qubits exceeds the {MAX_CLOCKED_QUBITS}-qubit density guard"
            )
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        dim = 1 << self.num_qubits
        if self.matrix.shape != (dim, dim):
            raise DimensionMismatchError(f"expected {dim}x{dim} matrix, got {self.matrix.shape}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > HERMITIAN_ATOL:
            raise ValidationError("matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"trace is {tr!r}, not 1 within 1e-10")
        if float(np.linalg.eigvalsh(self.matrix).min()) < EIGENVALUE_FLOOR:
            raise ValidationError("matrix has an eigenvalue below -1e-10")


@dataclass(frozen=True)
class ExactParameters:
    """Exact protocol parameters of a density matrix.

    Construction raises ValidationError on a fidelity, sampling probability
    or purity outside [0, 1]; in a bound suite _tally counts that as a failed
    check. suite_cauchy_schwarz checks the ceiling |Tr rho O10|^2 <= 1/4.
    """

    f_in: float
    p_samp: float
    tr_rho_o10: complex
    f_out: float
    purity: float

    def __post_init__(self):
        for name in ("f_in", "p_samp", "f_out", "purity"):
            v = getattr(self, name)
            if not -1e-10 <= v <= 1.0 + 1e-10:
                raise ValidationError(f"{name} = {v!r} is outside [0, 1]")


def exact_parameters(
    rho: DensityMatrix, lattice: LatticeGeometry, input_spec: InputSpec
) -> ExactParameters:
    """The parameters as matrix elements of rho's 2^n clock blocks rho_ab
    (clock = highest qubit), with phi the input and U the diagonal coupling:
    F_in = <phi|rho00|phi> / Tr rho00, p_samp = Tr rho11, Tr rho O10 =
    Tr(rho01 U), F_out = <U phi|rho11|U phi> / Tr rho11, purity = Tr rho^2."""
    n = lattice.num_qubits
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(f"exact parameters at {n} system qubits exceeds the guard")
    if input_spec.num_qubits != n:
        raise DimensionMismatchError("input spec size does not match lattice")
    if rho.num_qubits != n + 1:
        raise DimensionMismatchError(
            f"density matrix has {rho.num_qubits} qubits, expected {n + 1}"
        )
    dim = 1 << n
    phi_in = product_state(input_spec).amplitudes
    u_diag = zz_phases(lattice, 1.0)
    u_phi = u_diag * phi_in
    m = rho.matrix
    rho00, rho01, rho11 = m[:dim, :dim], m[:dim, dim:], m[dim:, dim:]
    weight_plus = float(np.trace(rho00).real)
    weight_minus = float(np.trace(rho11).real)
    if weight_plus < 1e-12 or weight_minus < 1e-12:
        raise ValidationError("state has (numerically) no support on one clock branch")
    return ExactParameters(
        f_in=float(np.vdot(phi_in, rho00 @ phi_in).real) / weight_plus,
        p_samp=weight_minus,
        tr_rho_o10=complex(np.sum(np.diagonal(rho01) * u_diag)),
        f_out=float(np.vdot(u_phi, rho11 @ u_phi).real) / weight_minus,
        purity=float(np.vdot(m, m).real),
    )


# ---------------------------------------------------------------------------
# Closed-form bounds


def fidelity_lower_bound(o10_sq: float, f_in: float) -> float:
    """Output-fidelity floor 16*o10_sq + 3*f_in - 6 (o10_sq is |Tr rho O10|^2)."""
    return 16.0 * o10_sq + 3.0 * f_in - 6.0


def tvd(p, q) -> float:
    """Total variation distance (1/2) sum |p - q|."""
    p_arr, q_arr = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p_arr.shape != q_arr.shape:
        raise DimensionMismatchError(f"support sizes differ: {p_arr.shape} vs {q_arr.shape}")
    return 0.5 * float(np.abs(p_arr - q_arr).sum())


def tvd_fidelity_bound(f_out: float) -> float:
    """sqrt(1 - f_out), the TVD ceiling implied by the output fidelity."""
    if not 0.0 <= f_out <= 1.0:
        raise ValidationError(f"fidelity must be in [0, 1], got {f_out}")
    return math.sqrt(1.0 - f_out)


def stochastic_trace_bound(delta_f: float, delta_p: float) -> float:
    """Trace-distance ceiling delta_f + sqrt(delta_f - delta_f^2/2 - delta_p/2).

    The radicand is non-negative for any true (infidelity, impurity) pair;
    values below -1e-12 mean the impurity exceeds what the fidelity permits.
    """
    if not 0.0 <= delta_f <= 1.0 or not 0.0 <= delta_p <= 1.0:
        raise ValidationError("delta_f and delta_p must be in [0, 1]")
    radicand = delta_f - delta_f**2 / 2.0 - delta_p / 2.0
    if radicand < -1e-12:
        raise InconsistentInputsError(
            f"impurity {delta_p} exceeds what infidelity {delta_f} permits"
        )
    return delta_f + math.sqrt(max(0.0, radicand))


def hoeffding_bound(delta: float, trials: int, sides: int) -> float:
    """Two- or four-sided Hoeffding tail sides * exp(-2 delta^2 trials)."""
    if delta <= 0 or trials < 1 or sides not in (2, 4):
        raise ValidationError("need delta > 0, trials >= 1, sides in {2, 4}")
    return sides * math.exp(-2.0 * delta * delta * trials)


def completeness_rejection_bound(num_copies: int) -> float:
    """Worst-case rejection probability of a perfect prover.

    Copy budget split: half the copies sample, a quarter feed the input test
    (half of those land on clock +1), a quarter feed the propagation
    estimate. The compound bound is the worse of the 0.006-deviation input
    tail and the 0.0015-deviation propagation tail.
    """
    return max(
        hoeffding_bound(0.006, num_copies // 8, 2),
        hoeffding_bound(0.0015, num_copies // 4, 4),
    )


def noisy_measurement_tvd_bound(delta_f: float, eps: float, n: int) -> float:
    """(1 - eps*n) sqrt(delta_f) + eps*n, valid while eps*n < 1."""
    if not 0.0 <= delta_f <= 1.0:
        raise ValidationError(f"delta_f must be in [0, 1], got {delta_f}")
    if eps < 0:
        raise ValidationError("eps must be non-negative")
    if eps * n >= 1.0:
        raise OutOfRegimeError(f"eps*n = {eps * n} is out of the eps*n < 1 regime")
    return (1.0 - eps * n) * math.sqrt(delta_f) + eps * n


def convolve_flip_noise(probabilities: np.ndarray, eps: float, n: int) -> np.ndarray:
    """Exact outcome distribution after independent per-bit flips at rate eps."""
    p = np.asarray(probabilities, dtype=np.float64).copy()
    if p.size != 1 << n:
        raise DimensionMismatchError(f"expected {1 << n} probabilities")
    for k in range(n):
        p = p.reshape(-1, 2, 1 << k)
        keep = p.copy()
        p[:, 0, :] = (1 - eps) * keep[:, 0, :] + eps * keep[:, 1, :]
        p[:, 1, :] = (1 - eps) * keep[:, 1, :] + eps * keep[:, 0, :]
    return p.reshape(-1)


# ---------------------------------------------------------------------------
# Correlated trials: the exact deviation law of a two-state chain


# The martingale suite's two trial schemes. Each trial's outcome is +-1
# (beta = 1), and its law depends only on the previous outcome, so a scheme
# is a two-state chain: (P(+1) on the first trial, P(+1) after a +1, P(+1)
# after a -1).
IID_CHAIN = (0.5, 0.5, 0.5)
# Adversarial correlations: the trial state flips between two fixed
# preparations depending on the previous outcome's sign.
ALTERNATING_CHAIN = (0.9, 0.9, 0.1)

# Probabilities below sqrt(tiny) are set to 0 after every polynomial product,
# so that no product of two of them is subnormal (subnormal operands slow
# np.convolve about 15-fold). No tail moves by more than 1e-140.
_FLUSH = math.sqrt(np.finfo(np.float64).tiny)


def azuma_tail_bound(deviation: float, trials: int, beta: float) -> float:
    """Azuma tail 2 exp(-deviation^2 trials / (8 beta^2)) for 2beta/N differences."""
    return 2.0 * math.exp(-(deviation**2) * trials / (8.0 * beta**2))


def _polynomial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two matrices of polynomials with non-negative coefficients
    (lowest degree first, on the last axis), by direct convolution, so that
    every coefficient keeps its relative accuracy."""
    rows, inner, _ = a.shape
    out = np.zeros((rows, b.shape[1], a.shape[2] + b.shape[2] - 1))
    for i in range(rows):
        for j in range(b.shape[1]):
            for m in range(inner):
                out[i, j] += np.convolve(a[i, m], b[m, j])
    out[out < _FLUSH] = 0.0
    return out


def chain_outcome_law(trials: int, chain: tuple[float, float, float]) -> np.ndarray:
    """Exact law of the last outcome and the number k of +1 outcomes over
    `trials` >= 1 trials of a two-state chain (p_first, p_after_plus,
    p_after_minus): row 0 holds P(k, last = +1) and row 1 P(k, last = -1),
    for k = 0..trials.

    The law is the first trial's row [p_first x, 1 - p_first] times the step
    matrix [[a x, 1 - a], [b x, 1 - b]] (a = p_after_plus, b = p_after_minus,
    x marking a +1) to the power trials - 1, taken by binary powering.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    p_first, after_plus, after_minus = chain
    law = np.array([[[0.0, p_first], [1.0 - p_first, 0.0]]])
    power = np.array([[[0.0, after_plus], [1.0 - after_plus, 0.0]],
                      [[0.0, after_minus], [1.0 - after_minus, 0.0]]])
    exponent = trials - 1
    while exponent:
        if exponent & 1:
            law = _polynomial_matmul(law, power)
        exponent >>= 1
        if exponent:
            power = _polynomial_matmul(power, power)
    return law[0]


def deviation_quantile(trials: int, chain: tuple[float, float, float], level: float) -> float:
    """The exact `level` quantile, the least d with P(dev <= d) >= level, of
    dev = |f_sum - mean_sum| / N over N = `trials` trials of `chain`.

    f_sum adds the +-1 outcomes and mean_sum their conditional means 2 p - 1,
    so f_sum - mean_sum is a function of (k, last outcome): of the first
    N - 1 outcomes, k - [last = +1] are +1 and the rest -1.
    """
    p_first, after_plus, after_minus = chain
    k = np.arange(trials + 1)
    before_last = np.stack([k - 1, k])
    mean_sum = (
        (2.0 * p_first - 1.0)
        + before_last * (2.0 * after_plus - 1.0)
        + (trials - 1 - before_last) * (2.0 * after_minus - 1.0)
    )
    dev = (np.abs((2 * k - trials) - mean_sum) / trials).ravel()
    order = np.argsort(dev, kind="stable")
    below = np.cumsum(chain_outcome_law(trials, chain).ravel()[order])
    return float(dev[order][np.searchsorted(below, level)])


# ---------------------------------------------------------------------------
# Pauli-product sign inversion and the generalized echo


def php_negation_check(terms, p: str) -> bool:
    """True iff the single-qubit product P anticommutes with every term.

    Two Pauli strings anticommute iff they differ on an odd number of
    positions where both are non-identity.
    """
    _validate_pauli_label(p)
    for coeff, label in terms:
        _validate_pauli_label(label, len(p))
        if coeff == 0:
            continue
        differing = sum(
            1 for a, b in zip(label, p) if a != "I" and b != "I" and a != b
        )
        if differing % 2 == 0:
            return False
    return True


def _echo_circuit(h: np.ndarray, p_dense: np.ndarray, amplitudes: np.ndarray, time: float) -> np.ndarray:
    """Controlled-P, half-time evolution under h, controlled-P, X on the
    clock, half-time evolution on (|0> + |1>)|phi>/sqrt(2); the clock is the
    highest qubit of the returned amplitudes."""
    u_half = expm_hermitian(h, time / 2.0)
    v0 = v1 = amplitudes / math.sqrt(2)
    v1 = p_dense @ v1                     # controlled-P
    v0, v1 = u_half @ v0, u_half @ v1     # half-time evolution
    v1 = p_dense @ v1                     # controlled-P
    v0, v1 = v1, v0                       # X on the clock
    v0, v1 = u_half @ v0, u_half @ v1     # half-time evolution
    return np.concatenate([v0, v1])


def generalized_echo_prepare(terms, p: str, input_state: PureState, time: float) -> PureState:
    """History-state preparation for any Hamiltonian with a sign-inverting P:
    _echo_circuit on the dense H of `terms` and the dense P.

    Raises CapacityError past the dense-echo guard and NotInvertibleError
    when P does not anticommute with every term.
    """
    n = input_state.num_qubits
    if n + 1 > MAX_CLOCKED_QUBITS:
        raise CapacityError(
            f"{n + 1} qubits exceeds the {MAX_CLOCKED_QUBITS}-qubit dense-echo guard"
        )
    if not php_negation_check(terms, p):
        raise NotInvertibleError("P does not anticommute with every Hamiltonian term")
    _validate_pauli_label(p, n)
    h = dense_hamiltonian(terms, n)
    return PureState(n + 1, _echo_circuit(h, dense_pauli(p), input_state.amplitudes, time))


def xb_inversion_label(lattice: LatticeGeometry) -> str:
    """X on sublattice B, identity elsewhere; inverts the coupling sign."""
    return "".join("X" if k in lattice.partition_b else "I" for k in range(lattice.num_qubits))


# ---------------------------------------------------------------------------
# Random states for the bound suites


def random_density_matrix(num_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized full-rank Wishart (Ginibre) random state."""
    dim = 1 << num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(num_qubits, rho)


def _random_two_qubit_rotation(num_qubits: int, rng: np.random.Generator) -> tuple[int, int, np.ndarray]:
    """A random two-qubit unitary e^{-i angle G}, G Hermitian of unit norm,
    angle uniform in [0, 0.05], on two distinct random qubits."""
    qi, qj = rng.choice(num_qubits, size=2, replace=False)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = 0.5 * (g + g.conj().T)
    g /= max(np.linalg.norm(g, 2), 1e-12)
    angle = rng.uniform(0.0, 0.05)
    return int(qi), int(qj), expm_hermitian(g, angle)


def near_ideal_history_density(
    lattice: LatticeGeometry, input_spec: InputSpec, rng: np.random.Generator
) -> DensityMatrix:
    """Perfect history state with small coherent and depolarizing admixtures:
    a clock phase uniform in [0, 2 pi), two _random_two_qubit_rotation gates
    and a depolarizing rate uniform in [0, 0.004].

    The perturbations are small, but they do not always stay inside the
    epsilon <= 0.02 regime of the first-order output-fidelity bound: a random
    two-qubit rotation that touches the clock qubit can move p_samp by up to
    about 0.027. Callers that need the regime must check each draw.
    """
    n = lattice.num_qubits
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    psi = ideal_history_state(lattice, input_spec, theta).amplitudes
    for _ in range(2):
        qi, qj, gate = _random_two_qubit_rotation(n + 1, rng)
        psi = apply_two_qubit_dense(psi, n + 1, qi, qj, gate)
    rate = float(rng.uniform(0.0, 0.004))
    dim = psi.size
    rho = (1.0 - rate) * np.outer(psi, psi.conj()) + rate * np.eye(dim) / dim
    return DensityMatrix(n + 1, rho)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2)||rho - sigma||_tr via the spectrum of the Hermitian difference."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


# ---------------------------------------------------------------------------
# Bound-verification suites


@dataclass(frozen=True)
class SuiteResult:
    """One row of the bound-verification table.

    max_margin is the worst signed margin toward violation; positive margin
    means the bound was violated by that amount.
    """

    test_name: str
    instances: int
    violations: int
    max_margin: float


def _tally(name: str, margins) -> SuiteResult:
    """Count the checks and the violations (margin > 0) of a stream of
    margins, and keep the worst margin (-inf when there is none). A
    FklabError other than CapacityError that ends the stream is one more
    check, violated with margin inf, and its text is printed to stderr."""
    counted = []
    try:
        for margin in margins:
            counted.append(margin)
    except FklabError as exc:
        if isinstance(exc, CapacityError):
            raise
        print(f"{name}: a check raised, counted as a violation: {exc}", file=sys.stderr)
        counted.append(math.inf)
    violations = sum(margin > 0 for margin in counted)
    return SuiteResult(name, len(counted), violations, max(counted, default=-math.inf))


# Every suite by name, in definition order: the order SUITE_NAMES and the CLI list them.
SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str):
    """Register a generator of margins, one per check, as the suite `name`;
    calling the registered suite tallies its margins."""

    def register(margins: Callable[..., Iterator[float]]) -> Callable[..., SuiteResult]:
        @functools.wraps(margins)
        def suite(*args, **kwargs) -> SuiteResult:
            return _tally(name, margins(*args, **kwargs))

        SUITES[name] = suite
        return suite

    return register


def _suite_setting(
    seed: int, stream: int
) -> tuple[LatticeGeometry, InputSpec, np.ndarray, np.random.Generator]:
    """The suites' 2x2 lattice, its input, the ideal output U|phi_in> and the
    suite's own substream."""
    lattice = build_lattice(2, 2)
    spec = random_input(lattice.num_qubits, substream(seed, TAG_BOUNDS, 997))
    ideal_out = product_state(spec).amplitudes * zz_phases(lattice, 1.0)
    return lattice, spec, ideal_out, substream(seed, TAG_BOUNDS, stream)


def _x_basis_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|WHT psi|^2: the outcome law of measuring every qubit in the X basis."""
    n = amplitudes.size.bit_length() - 1
    return np.abs(walsh_hadamard(PureState(n, amplitudes)).amplitudes) ** 2


@_suite("cauchy_schwarz")
def suite_cauchy_schwarz(instances: int, seed: int):
    """|Tr rho O10|^2 <= 1/4 for arbitrary states."""
    lattice, spec, _, rng = _suite_setting(seed, 0)
    for _ in range(instances):
        rho = random_density_matrix(lattice.num_qubits + 1, rng)
        params = exact_parameters(rho, lattice, spec)
        yield abs(params.tr_rho_o10) ** 2 - 0.25 - 1e-10


# Draws suite_lower_bound makes per instance before it gives up (a failed check).
LOWER_BOUND_DRAWS = 10
LOWER_BOUND_SLACK = 5e-3


@_suite("lower_bound")
def suite_lower_bound(instances: int, seed: int):
    """f_out >= 16|Tr rho O10|^2 + 3 f_in - 6 - LOWER_BOUND_SLACK for in-regime states."""
    lattice, spec, _, rng = _suite_setting(seed, 1)
    for _ in range(instances):
        # An out-of-regime draw is replaced by the next one from the same stream.
        for _ in range(LOWER_BOUND_DRAWS):
            rho = near_ideal_history_density(lattice, spec, rng)
            params = exact_parameters(rho, lattice, spec)
            eps = 0.25 - abs(params.tr_rho_o10) ** 2
            eps_prime = abs(0.5 - params.p_samp)
            eps_dprime = 1.0 - params.f_in
            if max(eps, eps_prime, eps_dprime) <= 0.02:
                break
        else:
            raise ValidationError(
                f"{LOWER_BOUND_DRAWS} generated states in a row left the epsilon <= 0.02 regime"
            )
        bound = fidelity_lower_bound(abs(params.tr_rho_o10) ** 2, params.f_in)
        yield (bound - LOWER_BOUND_SLACK) - params.f_out


@_suite("tvd_chain")
def suite_tvd_chain(instances: int, seed: int):
    """tvd(P_ideal, P_real) <= sqrt(1 - f_out) for pure output states."""
    lattice, _, ideal_out, rng = _suite_setting(seed, 2)
    n = lattice.num_qubits
    p_ideal = _x_basis_probabilities(ideal_out)
    for k in range(instances):
        if k % 2 == 0:
            raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        else:
            raw = ideal_out + 0.15 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        phi = raw / np.linalg.norm(raw)
        f_out = float(np.abs(np.vdot(phi, ideal_out)) ** 2)
        yield tvd(p_ideal, _x_basis_probabilities(phi)) - tvd_fidelity_bound(f_out) - 1e-10


@_suite("stochastic")
def suite_stochastic(instances: int, seed: int):
    """(1/2)||rho - sigma||_tr <= stochastic_trace_bound(delta_f, delta_p)."""
    lattice, _, ideal_out, rng = _suite_setting(seed, 3)
    n = lattice.num_qubits
    sigma = np.outer(ideal_out, ideal_out.conj())
    for _ in range(instances):
        raw = ideal_out + rng.uniform(0.0, 0.4) * (
            rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        )
        phi = raw / np.linalg.norm(raw)
        w = rng.uniform(0.0, 0.3)
        rho = (1.0 - w) * np.outer(phi, phi.conj()) + w * random_density_matrix(n, rng).matrix
        delta_f = 1.0 - float(np.real(ideal_out.conj() @ rho @ ideal_out))
        delta_p = 1.0 - float(np.real(np.trace(rho @ rho)))
        bound = stochastic_trace_bound(min(max(delta_f, 0.0), 1.0), min(max(delta_p, 0.0), 1.0))
        yield trace_distance(rho, sigma) - bound - 1e-10


@_suite("martingale")
def suite_martingale(instances: int, seed: int):
    """Exact 99th-percentile deviations inside the 3.2 beta/sqrt(N) envelope.

    For N = 1000 and 10000 trials of each scheme (IID_CHAIN,
    ALTERNATING_CHAIN), the margin is the exact 99th percentile of
    |f_sum - mean_sum| / N, from deviation_quantile, minus 3.2/sqrt(N). No
    trial is drawn, so `instances` and `seed` change nothing: the suite is
    always these four checks, with the same margins.
    """
    for trials in (1000, 10000):
        for chain in (IID_CHAIN, ALTERNATING_CHAIN):
            yield deviation_quantile(trials, chain, 0.99) - 3.2 / math.sqrt(trials)


@_suite("php_echo")
def suite_php_echo(instances: int, seed: int):
    """Symbolic PHP = -H checks against dense algebra plus echo fidelities.

    A symbolic check that disagrees with the dense algebra yields 1.0; one
    that agrees yields -inf, so it counts as an instance but sets no margin.
    The echo runs on the dense H and P, whatever the symbolic check said.
    """
    rng = substream(seed, TAG_BOUNDS, 6)
    shapes = [(1, 2), (2, 2), (1, 3)]
    for k in range(max(1, instances // 4)):
        lattice = build_lattice(*shapes[k % len(shapes)])
        n = lattice.num_qubits
        spec = random_input(n, rng)
        terms = zz_terms(lattice)
        label = xb_inversion_label(lattice)
        # Symbolic answer vs dense PHP + H == 0.
        h = dense_hamiltonian(terms, n)
        p_dense = dense_pauli(label)
        dense_inverts = float(np.max(np.abs(p_dense @ h @ p_dense + h))) < 1e-10
        yield 1.0 if php_negation_check(terms, label) != dense_inverts else -math.inf
        state = _echo_circuit(h, p_dense, product_state(spec).amplitudes, 1.0)
        target = ideal_history_state(lattice, spec).amplitudes
        yield (1.0 - 1e-10) - float(np.abs(np.vdot(target, state)) ** 2)
    # The non-commuting hopping-plus-field instance on a 1x2 lattice.
    h = dense_hamiltonian([(1.0, "XX"), (1.0, "YY"), (1.0, "ZI"), (1.0, "IZ")], 2)
    phi = np.array([0.5, 0.5, 0.5, 0.5], dtype=np.complex128)
    state = _echo_circuit(h, dense_pauli("XY"), phi, 1.0)
    target = np.concatenate([phi, expm_hermitian(h, 1.0) @ phi]) / math.sqrt(2)
    yield (1.0 - 1e-10) - float(np.abs(np.vdot(target, state)) ** 2)


@_suite("noisy_meas")
def suite_noisy_meas(instances: int, seed: int):
    """Exact flip-convolved sampling TVD at eps = 1/(100 n) against (1 - eps n) sqrt(delta_f) + eps n."""
    lattice, _, ideal_out, rng = _suite_setting(seed, 4)
    n = lattice.num_qubits
    eps = 1.0 / (100.0 * n)
    p_ideal = _x_basis_probabilities(ideal_out)
    for k in range(instances):
        if k == 0:
            phi = ideal_out
        else:
            raw = ideal_out + 0.1 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
            phi = raw / np.linalg.norm(raw)
        delta_f = 1.0 - float(np.abs(np.vdot(phi, ideal_out)) ** 2)
        p_noisy = convolve_flip_noise(_x_basis_probabilities(phi), eps, n)
        yield tvd(p_noisy, p_ideal) - noisy_measurement_tvd_bound(min(delta_f, 1.0), eps, n) - 1e-10


SUITE_NAMES = tuple(SUITES)
# The most instances one suite runs. The slowest suite, lower_bound, takes
# 1.6-2 ms per instance (x86-64, numpy 2.4), so at most about 20 s at the
# cap; martingale runs its four exact checks whatever the instance count.
MAX_SUITE_INSTANCES = 10_000


def run_bound_suite(name: str, instances: int, seed: int) -> SuiteResult:
    """Dispatch a named suite; unknown names raise ValidationError, and more
    than MAX_SUITE_INSTANCES instances raise CapacityError."""
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if instances > MAX_SUITE_INSTANCES:
        raise CapacityError(
            f"{instances} instances exceeds the {MAX_SUITE_INSTANCES}-instance suite guard"
        )
    return SUITES[name](instances, seed)
