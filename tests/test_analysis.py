"""Oracle and bound-verifier tests."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from fklab import analysis
from fklab.analysis import (
    ALTERNATING_CHAIN,
    DensityMatrix,
    IID_CHAIN,
    SUITE_NAMES,
    azuma_tail_bound,
    chain_outcome_law,
    completeness_rejection_bound,
    convolve_flip_noise,
    dense_evolution_product,
    dense_hamiltonian,
    dense_pauli,
    deviation_quantile,
    exact_parameters,
    expm_hermitian,
    fidelity_lower_bound,
    generalized_echo_prepare,
    hoeffding_bound,
    near_ideal_history_density,
    noisy_measurement_tvd_bound,
    php_negation_check,
    random_density_matrix,
    run_bound_suite,
    stochastic_trace_bound,
    suite_cauchy_schwarz,
    suite_lower_bound,
    suite_martingale,
    suite_noisy_meas,
    suite_php_echo,
    suite_stochastic,
    suite_tvd_chain,
    trace_distance,
    tvd,
    tvd_fidelity_bound,
    xb_inversion_label,
    zz_terms,
)
from fklab.errors import CapacityError, ValidationError
from fklab.lattice import build_lattice, random_input
from fklab.prover import ideal_history_state, make_degraded_model
from fklab.simulator import PureState, product_state, zz_phases

from conftest import (
    dense_coupling_hamiltonian,
    dense_history_vector,
    depolarized_mixture_density,
    spectral_expm,
)


@pytest.fixture(scope="module")
def setting():
    lattice = build_lattice(2, 2)
    spec = random_input(4, np.random.default_rng(3))
    return lattice, spec


def _direct_params(matrix, lattice, spec):
    """Block-formula parameters, independent of any eigendecomposition."""
    n = lattice.num_qubits
    d = 1 << n
    phi = product_state(spec).amplitudes
    u = np.diag(zz_phases(lattice, 1.0))
    rho00, rho01, rho11 = matrix[:d, :d], matrix[:d, d:], matrix[d:, d:]
    return {
        "f_in": float(np.real(phi.conj() @ rho00 @ phi / np.trace(rho00))),
        "p_samp": float(np.real(np.trace(rho11))),
        "tr": complex(np.trace(rho01 @ u)),
        "f_out": float(np.real((u @ phi).conj() @ rho11 @ (u @ phi) / np.trace(rho11))),
        "purity": float(np.real(np.trace(matrix @ matrix))),
    }


# ---------------------------------------------------------------------------
# exact_parameters


@pytest.mark.parametrize("theta", [0.0, 0.9, 4.2])
def test_perfect_history_state_parameters(setting, theta):
    lattice, spec = setting
    psi = ideal_history_state(lattice, spec, theta).amplitudes
    rho = DensityMatrix(5, np.outer(psi, psi.conj()))
    params = exact_parameters(rho, lattice, spec)
    assert abs(params.f_in - 1.0) < 1e-10
    assert abs(params.p_samp - 0.5) < 1e-10
    assert abs(abs(params.tr_rho_o10) ** 2 - 0.25) < 1e-10
    assert abs(params.f_out - 1.0) < 1e-10
    assert abs(params.purity - 1.0) < 1e-10


def test_maximally_mixed_parameters(setting):
    lattice, spec = setting
    rho = DensityMatrix(5, np.eye(32) / 32.0)
    params = exact_parameters(rho, lattice, spec)
    assert abs(params.p_samp - 0.5) < 1e-12
    assert abs(params.tr_rho_o10) < 1e-12
    assert abs(params.purity - 1.0 / 32) < 1e-12


def test_tuned_overlap_state_parameters(setting):
    lattice, spec = setting
    model = make_degraded_model(lattice, spec, 0.999, 1.0)
    params = exact_parameters(DensityMatrix(5, depolarized_mixture_density(model)), lattice, spec)
    assert abs(4.0 * abs(params.tr_rho_o10) ** 2 - 0.999) < 1e-6
    assert abs(params.f_out - 0.999) < 1e-6


def test_parameters_match_block_formulas(setting):
    # Also exercises degenerate spectra: the block route never diagonalizes.
    lattice, spec = setting
    rng = np.random.default_rng(17)
    candidates = [random_density_matrix(5, rng).matrix for _ in range(20)]
    candidates.append(np.eye(32) / 32.0)
    for matrix in candidates:
        params = exact_parameters(DensityMatrix(5, matrix), lattice, spec)
        direct = _direct_params(matrix, lattice, spec)
        assert abs(params.f_in - direct["f_in"]) < 1e-10
        assert abs(params.p_samp - direct["p_samp"]) < 1e-10
        assert abs(params.tr_rho_o10 - direct["tr"]) < 1e-10
        assert abs(params.f_out - direct["f_out"]) < 1e-10
        assert abs(params.purity - direct["purity"]) < 1e-12


def test_density_matrix_validation():
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.3  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(2, bad)
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.eye(4))  # trace 4
    neg = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(ValidationError):
        DensityMatrix(2, neg)
    with pytest.raises(ValidationError, match="expected 8x8 matrix"):
        DensityMatrix(3, np.eye(4) / 4.0)


def test_exact_parameters_size_guards(setting):
    lattice, spec = setting
    with pytest.raises(ValidationError, match="density matrix has 4 qubits, expected 5"):
        exact_parameters(DensityMatrix(4, np.eye(16) / 16.0), lattice, spec)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_fidelity_lower_bound_values():
    assert fidelity_lower_bound(0.25, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_lower_bound(0.988 / 4, 0.988) == pytest.approx(0.916, abs=1e-12)
    assert fidelity_lower_bound(0.988 / 4, 0.988) >= 0.915
    assert fidelity_lower_bound(0.2, 1.0) == pytest.approx(0.2, abs=1e-12)


def test_first_order_form_is_polynomial_identity():
    # With |Tr rho O10|^2 = 1/4 - eps and F_in = 1 - eps'', the closed form
    # equals 1 - 16 eps - 3 eps'' identically.
    rng = np.random.default_rng(5)
    for _ in range(100):
        eps = rng.uniform(0, 0.02)
        eps2 = rng.uniform(0, 0.02)
        lhs = fidelity_lower_bound(0.25 - eps, 1.0 - eps2)
        assert abs(lhs - (1.0 - 16.0 * eps - 3.0 * eps2)) < 1e-12


def test_tvd_values(setting):
    assert tvd(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="support sizes differ"):
        tvd(np.array([1.0]), np.array([0.5, 0.5]))


def test_tvd_perturbed_distribution_matches_direct_sum():
    lattice = build_lattice(1, 2)
    spec = random_input(2, np.random.default_rng(2))
    ideal = product_state(spec).amplitudes * zz_phases(lattice, 1.0)
    perturbed = product_state(spec).amplitudes * zz_phases(lattice, 1.1)
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h_all = np.kron(h2, h2)
    p = np.abs(h_all @ ideal) ** 2
    q = np.abs(h_all @ perturbed) ** 2
    direct = 0.5 * sum(abs(p[i] - q[i]) for i in range(4))
    assert abs(tvd(p, q) - direct) < 1e-12


def test_tvd_fidelity_bound_values():
    assert tvd_fidelity_bound(1.0) == 0.0
    assert tvd_fidelity_bound(0.915) <= 0.292
    assert tvd_fidelity_bound(0.915) == pytest.approx(math.sqrt(0.085), abs=1e-15)
    assert tvd_fidelity_bound(0.0) == 1.0


def test_stochastic_trace_bound_values():
    delta_f = 0.1
    assert stochastic_trace_bound(delta_f, 0.0) == pytest.approx(
        delta_f + math.sqrt(delta_f - delta_f**2 / 2), abs=1e-15
    )
    # Fully stochastic extreme: the bound collapses to delta_f itself,
    # which is the relaxed 1 - 0.708 threshold at delta_f = 0.292.
    extreme = stochastic_trace_bound(0.292, 2 * 0.292 - 0.292**2)
    assert extreme == pytest.approx(0.292, abs=1e-12)
    assert stochastic_trace_bound(0.0, 0.0) == 0.0
    with pytest.raises(ValidationError, match="impurity 0.5 exceeds what infidelity 0.0 permits"):
        stochastic_trace_bound(0.0, 0.5)


def _dec_exp(x: float) -> Decimal:
    """Arbitrary-precision exp via the positive series (inverted for x < 0)."""
    getcontext().prec = 60
    mag = Decimal(repr(abs(x)))
    term = Decimal(1)
    total = Decimal(1)
    for k in range(1, 500):
        term = term * mag / k
        total += term
        if term < Decimal(10) ** -55:
            break
    return Decimal(1) / total if x < 0 else total


def test_hoeffding_bound_values():
    # Compound completeness bound at the full copy budget.
    compound = completeness_rejection_bound(3_500_000)
    assert abs(compound - 0.078) < 0.002
    assert compound == pytest.approx(4 * math.exp(-(0.0015**2) * 3_500_000 / 2), rel=1e-12)
    # Large deviations vanish.
    assert hoeffding_bound(5.0, 10_000, 2) < 1e-200
    # Input-test tail at N/8 copies, cross-checked against an
    # arbitrary-precision exponential.
    val = hoeffding_bound(0.006, 437_500, 2)
    expected = 2 * _dec_exp(-2 * 0.006**2 * 437_500)
    assert abs(val - float(expected)) < 1e-12 * float(expected) + 1e-300
    assert val == pytest.approx(2 * math.exp(-31.5), rel=1e-12)
    with pytest.raises(ValidationError):
        hoeffding_bound(0.1, 100, 3)


def test_noisy_measurement_bound_values():
    assert noisy_measurement_tvd_bound(0.09, 0.0, 4) == pytest.approx(0.3)
    assert noisy_measurement_tvd_bound(0.0, 1.0 / 400, 4) == pytest.approx(0.01)
    with pytest.raises(ValidationError, match="out of the eps\\*n < 1 regime"):
        noisy_measurement_tvd_bound(0.1, 0.3, 4)


def test_convolve_flip_noise_is_stochastic():
    rng = np.random.default_rng(1)
    p = rng.random(16)
    p /= p.sum()
    q = convolve_flip_noise(p, 0.01, 4)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all(q >= 0)
    # eps = 1/2 fully mixes.
    flat = convolve_flip_noise(p, 0.5, 4)
    assert np.max(np.abs(flat - 1 / 16)) < 1e-12


# ---------------------------------------------------------------------------
# correlated trials: the exact deviation law


def test_azuma_tail_values():
    assert azuma_tail_bound(3.2 / 100, 10_000, 1.0) == pytest.approx(
        2 * math.exp(-(3.2**2) / 8), rel=1e-12
    )
    assert 2 * math.exp(-(3.2**2) / 8) <= 0.56


def _enumerated_law(trials, chain):
    """P(last, k) summed over every outcome sequence of `trials` trials, each
    weighted by the scheme's rule, in chain_outcome_law's layout."""
    p_first, after_plus, after_minus = chain
    law = np.zeros((2, trials + 1))
    for bits in range(1 << trials):
        outcomes = [1 if (bits >> j) & 1 else -1 for j in range(trials)]
        prob, prev = 1.0, None
        for f in outcomes:
            p_plus = p_first if prev is None else after_plus if prev == 1 else after_minus
            prob *= p_plus if f == 1 else 1.0 - p_plus
            prev = f
        law[0 if outcomes[-1] == 1 else 1, outcomes.count(1)] += prob
    return law


def _check_law_against_enumeration(chain):
    law = chain_outcome_law(10, chain)
    expected = _enumerated_law(10, chain)
    assert law.shape == expected.shape
    assert abs(law.sum() - 1.0) < 1e-12
    assert np.max(np.abs(law - expected)) < 1e-15


def test_alternating_deviation_law_matches_enumeration():
    _check_law_against_enumeration(ALTERNATING_CHAIN)


def test_iid_deviation_law_matches_enumeration():
    _check_law_against_enumeration(IID_CHAIN)


def test_chain_outcome_law_needs_a_trial():
    with pytest.raises(ValidationError):
        chain_outcome_law(0, IID_CHAIN)


def test_martingale_single_trial():
    # One trial: the law is the first trial's, and dev = |F_1 - (2 p_first - 1)|.
    for chain, q99 in ((IID_CHAIN, 1.0), (ALTERNATING_CHAIN, 1.8)):
        p_first = chain[0]
        assert np.array_equal(chain_outcome_law(1, chain), [[0.0, p_first], [1.0 - p_first, 0.0]])
        assert deviation_quantile(1, chain, 0.99) == pytest.approx(q99, abs=1e-15)


def _binomial_row(trials):
    """C(N, k) for k = 0..N, in integers."""
    row = [1]
    for k in range(trials):
        row.append(row[-1] * (trials - k) // (k + 1))
    return row


def _iid_envelope_tail(trials):
    """Exact P(|2k - N|/N > 3.2/sqrt(N)) for k ~ Bin(N, 1/2): the IID scheme's
    deviation outside suite_martingale's envelope. The condition is tested in
    integers, 100 (2k - N)^2 > 1024 N, so no rounding enters."""
    outside = sum(
        count
        for k, count in enumerate(_binomial_row(trials))
        if 100 * (2 * k - trials) ** 2 > 1024 * trials
    )
    return Fraction(outside, 2**trials)


def _deviation_values(trials, chain):
    """5 N (f_sum - mean_sum) at each (last, k) of chain_outcome_law, in
    integers: the conditional means 2p - 1 are multiples of 1/5 for both
    schemes. Of the first N - 1 outcomes, k - [last = +1] are +1."""
    p_first, after_plus, after_minus = (round(5 * (2 * p - 1)) for p in chain)
    k = np.arange(trials + 1, dtype=np.int64)
    values = []
    for last, before_last in ((1, k - 1), (-1, k)):
        mean_sum = p_first + before_last * after_plus + (trials - 1 - before_last) * after_minus
        values.append(5 * (2 * k - trials) - mean_sum)
    return np.stack(values)


def _envelope_tail(trials, chain):
    """P(dev > 3.2/sqrt(N)) from chain_outcome_law; in integers,
    (5 N dev)^2 > 256 N."""
    law = chain_outcome_law(trials, chain)
    return float(law[_deviation_values(trials, chain) ** 2 > 256 * trials].sum())


@pytest.mark.parametrize("trials", [1000, 10_000])
def test_iid_martingale_exact_tail_inside_azuma(trials):
    tail = _iid_envelope_tail(trials)
    assert tail < azuma_tail_bound(3.2 / math.sqrt(trials), trials, 1.0)
    # The exact 99th percentile of the deviation lies inside the envelope.
    assert tail < Fraction(1, 100)
    # About the normal two-sided tail at 3.2 sigma, 1.37e-3.
    assert 1e-3 < tail < 2e-3
    # The two-state chain law with every step at 1/2 is the binomial law.
    assert abs(_envelope_tail(trials, IID_CHAIN) - float(tail)) < 1e-15


@pytest.mark.parametrize("trials", [1000, 10_000])
def test_alternating_martingale_exact_tail_inside_azuma(trials):
    tail = _envelope_tail(trials, ALTERNATING_CHAIN)
    assert tail < azuma_tail_bound(3.2 / math.sqrt(trials), trials, 1.0)
    # The exact 99th percentile of the deviation lies inside the envelope.
    assert tail < 0.01
    # Far below the IID scheme's 1.4e-3: about 3.9e-8 at N = 1000 and 8.7e-8
    # at N = 10000. At N = 10000 the envelope is itself a deviation value
    # (|S + 5 F_N - 4| = 1600, probability 1.6e-9 each side), which the
    # strict inequality leaves out.
    assert 1e-8 < tail < 1e-7


def test_martingale_iid_reduces_to_hoeffding_width():
    q99 = deviation_quantile(10_000, IID_CHAIN, 0.99)
    # Hoeffding-scale width: the 99th percentile sits well under 3.2/sqrt(N),
    # where the Azuma tail is still above 1%.
    assert q99 <= 3.2 / math.sqrt(10_000)
    assert azuma_tail_bound(q99, 10_000, 1.0) >= 0.01


def test_martingale_alternating_within_azuma_envelope():
    q99 = deviation_quantile(10_000, ALTERNATING_CHAIN, 0.99)
    assert q99 <= 3.2 / math.sqrt(10_000)
    assert azuma_tail_bound(q99, 10_000, 1.0) >= 0.01
    # The trivial ceiling |dev| <= 2 holds on the whole support.
    assert np.abs(_deviation_values(10_000, ALTERNATING_CHAIN)).max() <= 2 * 5 * 10_000


@pytest.mark.parametrize("trials", [1000, 10_000])
@pytest.mark.parametrize("chain", [IID_CHAIN, ALTERNATING_CHAIN])
def test_deviation_quantile_matches_integer_law(trials, chain):
    # The least integer v with P(5 N dev <= v) >= 0.99, over the exact law.
    values = np.abs(_deviation_values(trials, chain)).ravel()
    law = chain_outcome_law(trials, chain).ravel()
    v = next(u for u in sorted(set(values.tolist())) if law[values <= u].sum() >= 0.99)
    assert deviation_quantile(trials, chain, 0.99) == pytest.approx(v / (5 * trials), abs=1e-15)


@pytest.mark.parametrize("trials,m", [(1000, 82), (10_000, 258)])
def test_iid_deviation_quantile_from_binomial(trials, m):
    # P(|2k - N| <= m) first reaches 0.99 at m, in integers:
    # 100 sum C(N, k) >= 99 2^N. The envelope is 3.2 sqrt(N) (101 and 320).
    counts = _binomial_row(trials)

    def reaches_99_percent(width):
        inside = sum(c for k, c in enumerate(counts) if abs(2 * k - trials) <= width)
        return 100 * inside >= 99 * 2**trials

    assert not reaches_99_percent(m - 2) and reaches_99_percent(m)
    assert deviation_quantile(trials, IID_CHAIN, 0.99) == m / trials


# ---------------------------------------------------------------------------
# Pauli-product inversion and the generalized echo


def test_php_single_edge_cases():
    terms = [(math.pi / 4, "ZZ")]
    assert php_negation_check(terms, "XI")
    assert not php_negation_check(terms, "ZZ")


def test_php_hopping_plus_field():
    terms = [(1.0, "XX"), (1.0, "YY"), (1.0, "ZI"), (1.0, "IZ")]
    assert php_negation_check(terms, "XY")


def test_php_malformed_term():
    with pytest.raises(ValidationError):
        php_negation_check([(1.0, "ZQ")], "XI")


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (2, 3)])
def test_php_sublattice_flip_inverts_coupling(rows, cols):
    lattice = build_lattice(rows, cols)
    terms = zz_terms(lattice)
    label = xb_inversion_label(lattice)
    assert php_negation_check(terms, label)
    h = dense_hamiltonian(terms, lattice.num_qubits)
    p = dense_pauli(label)
    assert np.max(np.abs(p @ h @ p + h)) < 1e-12


def test_generalized_echo_on_coupling_lattice(rng):
    lattice = build_lattice(2, 2)
    spec = random_input(4, rng)
    state = generalized_echo_prepare(
        zz_terms(lattice), xb_inversion_label(lattice), product_state(spec), 1.0
    )
    target = dense_history_vector(lattice, spec)
    assert np.abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-10


def test_generalized_echo_noncommuting_instance():
    terms = [(1.0, "XX"), (1.0, "YY"), (1.0, "ZI"), (1.0, "IZ")]
    phi = PureState(2, np.full(4, 0.5, dtype=complex))
    state = generalized_echo_prepare(terms, "XY", phi, 1.0)
    h = np.zeros((4, 4), dtype=complex)
    for coeff, label in terms:
        h += coeff * dense_pauli(label)
    target = np.concatenate([phi.amplitudes, spectral_expm(h, 1.0) @ phi.amplitudes]) / np.sqrt(2)
    assert np.abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-10


def test_generalized_echo_zero_time(rng):
    lattice = build_lattice(1, 2)
    spec = random_input(2, rng)
    phi = product_state(spec)
    state = generalized_echo_prepare(zz_terms(lattice), xb_inversion_label(lattice), phi, 0.0)
    target = np.concatenate([phi.amplitudes, phi.amplitudes]) / np.sqrt(2)
    assert np.abs(np.vdot(target, state.amplitudes)) ** 2 >= 1 - 1e-12


def test_generalized_echo_rejects_commuting_p():
    terms = [(math.pi / 4, "ZZ")]
    phi = PureState(2, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValidationError, match="P does not anticommute"):
        generalized_echo_prepare(terms, "ZZ", phi, 1.0)


def test_generalized_echo_capacity_guard():
    terms = [(1.0, "Z" * 8)]
    amps = np.zeros(256, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(CapacityError):
        generalized_echo_prepare(terms, "X" * 8, PureState(8, amps), 1.0)


def test_dense_evolution_product_matches_whole_exponential():
    for rows, cols in [(1, 2), (2, 2), (2, 3)]:
        lattice = build_lattice(rows, cols)
        product = dense_evolution_product(lattice)
        whole = spectral_expm(dense_coupling_hamiltonian(lattice))
        assert np.max(np.abs(product - whole)) < 1e-10


def test_expm_hermitian_unitary(rng):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g = 0.5 * (g + g.conj().T)
    u = expm_hermitian(g, 0.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10


# ---------------------------------------------------------------------------
# bound suites (small instance counts; acceptance runs the full sizes)


def test_suite_cauchy_schwarz_clean():
    res = suite_cauchy_schwarz(100, seed=0)
    assert res.violations == 0
    assert res.max_margin <= 0


def test_suite_lower_bound_clean():
    res = suite_lower_bound(100, seed=0)
    assert res.violations == 0


@pytest.mark.parametrize("seed", [2028277857, 1912923437])
def test_suite_lower_bound_redraws_out_of_regime_states(seed):
    # At these seeds a generated state leaves the epsilon <= 0.02 regime; the
    # suite replaces it with the next draw instead of failing.
    res = suite_lower_bound(200, seed=seed)
    assert res.instances == 200
    assert res.violations == 0


def test_suite_tvd_chain_clean():
    res = suite_tvd_chain(100, seed=0)
    assert res.violations == 0


def test_suite_stochastic_clean():
    res = suite_stochastic(100, seed=0)
    assert res.violations == 0


def test_suite_noisy_meas_clean():
    res = suite_noisy_meas(50, seed=0)
    assert res.violations == 0


def test_suite_martingale_clean():
    # Seed 1 failed the earlier Monte-Carlo gate (a 0.3% false alarm); the
    # exact gate gives the same four clean checks for every seed and count.
    res = suite_martingale(1, seed=1)
    assert res == suite_martingale(200, seed=0) == run_bound_suite("martingale", 10_000, 7)
    assert (res.instances, res.violations) == (4, 0)
    # The worst check is IID at N = 10000: q99 = 258/N against 3.2/sqrt(N).
    assert res.max_margin == 258 / 10_000 - 3.2 / 100


def test_suite_php_echo_clean():
    res = suite_php_echo(12, seed=0)
    assert res.violations == 0


def test_suite_tally_counts_php_disagreements(monkeypatch):
    # The suite's own symbolic check disagrees with the dense algebra; the
    # echo circuit runs on the operators the suite built, so its fidelities
    # still pass.
    true_check = analysis.php_negation_check
    monkeypatch.setattr(analysis, "php_negation_check", lambda terms, p: not true_check(terms, p))
    res = suite_php_echo(12, seed=0)
    assert (res.instances, res.violations, res.max_margin) == (7, 3, 1.0)


def test_suite_tally_counts_every_violated_bound(monkeypatch):
    monkeypatch.setattr(analysis, "tvd_fidelity_bound", lambda f_out: -1.0)
    res = suite_tvd_chain(10, seed=0)
    assert (res.instances, res.violations) == (10, 10)
    assert res.max_margin > 0


@pytest.mark.parametrize("suite", [suite_cauchy_schwarz, suite_lower_bound, suite_tvd_chain,
                                   suite_stochastic, suite_noisy_meas])
def test_suite_with_no_instances(suite):
    res = suite(0, seed=0)
    assert (res.instances, res.violations, res.max_margin) == (0, 0, -math.inf)


def test_run_bound_suite_dispatch():
    assert run_bound_suite("cauchy_schwarz", 10, 1).test_name == "cauchy_schwarz"
    with pytest.raises(ValidationError):
        run_bound_suite("not_a_suite", 10, 1)
    assert set(SUITE_NAMES) == {
        "cauchy_schwarz",
        "lower_bound",
        "tvd_chain",
        "stochastic",
        "martingale",
        "php_echo",
        "noisy_meas",
    }


def test_near_ideal_generator_stays_in_regime(setting):
    lattice, spec = setting
    rng = np.random.default_rng(12)
    for _ in range(25):
        rho = near_ideal_history_density(lattice, spec, rng)
        params = exact_parameters(rho, lattice, spec)
        assert 0.25 - abs(params.tr_rho_o10) ** 2 <= 0.02
        assert abs(0.5 - params.p_samp) <= 0.02
        assert 1.0 - params.f_in <= 0.02


def test_trace_distance_basics(setting):
    lattice, spec = setting
    psi = ideal_history_state(lattice, spec).amplitudes
    rho = np.outer(psi, psi.conj())
    assert trace_distance(rho, rho) < 1e-14
    assert trace_distance(rho, np.eye(32) / 32) <= 1.0
