"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The protocol criteria run the full 3.5e6-copy budget on the 4x4
lattice with frozen seeds, so every number below is reproducible.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fklab.analysis import (
    completeness_rejection_bound,
    dense_evolution_product,
    dense_hamiltonian,
    fidelity_lower_bound,
    generalized_echo_prepare,
    run_bound_suite,
    stochastic_trace_bound,
    tvd_fidelity_bound,
    xb_inversion_label,
    zz_terms,
)
from fklab.lattice import build_lattice, random_input
from fklab.prover import (
    NoiseModel,
    echo_prepare,
    exact_model_parameters,
    ideal_history_state,
    make_degraded_model,
    make_honest_model,
)
from fklab.rng import TAG_INPUT, TAG_REPETITION, child_seed, substream
from fklab.simulator import PureState, product_state, state_fidelity
from fklab.verifier import CHUNK_SIZE, ProtocolConfig, run_protocol

from conftest import (
    dense_coupling_hamiltonian,
    dense_history_vector,
    small_lattices,
    spectral_expm,
    u_value,
)

MASTER_SEED = 20240801
INPUT_SEED = 7
FULL_BUDGET = 3_500_000
REPS = 20


def announce(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def setting_4x4():
    lattice = build_lattice(4, 4)
    spec = random_input(16, substream(INPUT_SEED, TAG_INPUT))
    return lattice, spec


def run_repetitions(model, lattice, spec, reps=REPS):
    base = ProtocolConfig(num_copies=FULL_BUDGET, master_seed=MASTER_SEED)
    reports = []
    for rep in range(reps):
        config = replace(base, master_seed=child_seed(MASTER_SEED, TAG_REPETITION, rep))
        reports.append(run_protocol(model, lattice, spec, config)[1])
    return reports


def test_criterion_1_completeness(setting_4x4):
    lattice, spec = setting_4x4
    start = time.time()
    model = make_honest_model(lattice, spec, NoiseModel())
    reports = run_repetitions(model, lattice, spec)
    accepts = sum(r.accepted for r in reports)
    conditions = [
        r.f_in_m >= 0.994 and r.o10_sq_scaled >= 0.994 and 0.494 <= r.p_samp_m <= 0.506
        for r in reports
    ]
    ok = accepts >= 19 and all(c == r.accepted for c, r in zip(conditions, reports))
    announce(
        "1 (completeness)",
        ok,
        f"{accepts}/{REPS} accepts at n=16, N_M={FULL_BUDGET}; "
        f"min o10_sq={min(r.o10_sq_scaled for r in reports):.5f}, "
        f"min f_in={min(r.f_in_m for r in reports):.5f}, "
        f"{time.time() - start:.1f}s",
    )


def test_criterion_2_robustness(setting_4x4):
    lattice, spec = setting_4x4
    start = time.time()
    model = make_degraded_model(lattice, spec, 0.999, 1.0)
    exact = 4.0 * abs(exact_model_parameters(model).tr_rho_o10) ** 2
    reports = run_repetitions(model, lattice, spec)
    accepts = sum(r.accepted for r in reports)
    ok = abs(exact - 0.999) < 1e-6 and accepts >= math.ceil(2 * REPS / 3)
    announce(
        "2 (robustness)",
        ok,
        f"exact overlap {exact:.7f}; {accepts}/{REPS} accepts "
        f"(need >= {math.ceil(2 * REPS / 3)}); {time.time() - start:.1f}s",
    )


def test_criterion_3_soundness_fixtures(setting_4x4):
    lattice, spec = setting_4x4
    start = time.time()
    results = {}
    for label, targets in [("o10=0.97", (0.97, 1.0)), ("f_in=0.97", (1.0, 0.97))]:
        model = make_degraded_model(lattice, spec, *targets)
        reports = run_repetitions(model, lattice, spec)
        results[label] = sum(not r.accepted for r in reports)
    ok = all(rejects >= 19 for rejects in results.values())
    announce(
        "3 (soundness fixtures)",
        ok,
        f"rejections {results} out of {REPS} each; {time.time() - start:.1f}s",
    )


def test_criterion_4_numeric_reproduction():
    compound = completeness_rejection_bound(FULL_BUDGET)
    lower = fidelity_lower_bound(0.988 / 4, 0.988)
    tvd_ceiling = tvd_fidelity_bound(0.915)
    extreme = stochastic_trace_bound(0.292, 2 * 0.292 - 0.292**2)
    ok = (
        abs(compound - 0.078) <= 0.002
        and abs(lower - 0.916) < 1e-12
        and lower >= 0.915
        and tvd_ceiling <= 0.292
        and abs(extreme - 0.292) < 1e-12
    )
    announce(
        "4 (numeric reproduction)",
        ok,
        f"compound={compound:.4f}, lower_bound={lower:.4f}, "
        f"tvd_ceiling={tvd_ceiling:.4f}, stochastic_extreme={extreme:.4f} "
        f"(relaxed threshold {1 - extreme:.3f})",
    )


def test_criterion_5_oracle_equivalence():
    start = time.time()
    worst_u_entry = 0.0
    worst_diag = 0.0
    for rows, cols in small_lattices(6):
        lattice = build_lattice(rows, cols)
        n = lattice.num_qubits
        product = dense_evolution_product(lattice)
        whole = spectral_expm(dense_coupling_hamiltonian(lattice))
        worst_u_entry = max(worst_u_entry, float(np.max(np.abs(product - whole))))
        for z in range(1 << n):
            signs = [1 - 2 * ((z >> k) & 1) for k in range(n)]
            worst_diag = max(worst_diag, abs(u_value(signs, lattice) - whole[z, z]))
    ok = worst_u_entry <= 1e-10 and worst_diag <= 1e-10
    announce(
        "5 (oracle equivalence)",
        ok,
        f"max product-vs-exponential entry diff {worst_u_entry:.2e}, "
        f"max u_value-vs-diagonal diff {worst_diag:.2e}; {time.time() - start:.1f}s",
    )


def test_criterion_6_echo_correctness():
    start = time.time()
    worst = 1.0
    for rows, cols in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        lattice = build_lattice(rows, cols)
        rng = np.random.default_rng(600 + 10 * rows + cols)
        for _ in range(10):
            spec = random_input(lattice.num_qubits, rng)
            fid = state_fidelity(echo_prepare(lattice, spec), ideal_history_state(lattice, spec))
            worst = min(worst, fid)

    # Generalized echo: coupling lattice with the sublattice-B flip, and the
    # non-commuting hopping-plus-field instance on a 1x2 chain.
    lattice = build_lattice(2, 2)
    spec = random_input(4, np.random.default_rng(61))
    state = generalized_echo_prepare(
        zz_terms(lattice), xb_inversion_label(lattice), product_state(spec), 1.0
    )
    fid_zz = float(np.abs(np.vdot(dense_history_vector(lattice, spec), state.amplitudes)) ** 2)

    terms = [(1.0, "XX"), (1.0, "YY"), (1.0, "ZI"), (1.0, "IZ")]
    phi = PureState(2, np.full(4, 0.5, dtype=complex))
    gen = generalized_echo_prepare(terms, "XY", phi, 1.0)
    u_full = spectral_expm(dense_hamiltonian(terms, 2), 1.0)
    target = np.concatenate([phi.amplitudes, u_full @ phi.amplitudes]) / np.sqrt(2)
    fid_general = float(np.abs(np.vdot(target, gen.amplitudes)) ** 2)

    ok = worst >= 1 - 1e-10 and fid_zz >= 1 - 1e-10 and fid_general >= 1 - 1e-10
    announce(
        "6 (echo correctness)",
        ok,
        f"worst lattice-echo fidelity {worst:.12f}, generalized echo "
        f"{fid_zz:.12f} / {fid_general:.12f}; {time.time() - start:.1f}s",
    )


def test_criterion_7_bound_suites():
    start = time.time()
    plan = [
        ("cauchy_schwarz", 1000),
        ("lower_bound", 1000),
        ("tvd_chain", 500),
        ("stochastic", 500),
        ("noisy_meas", 200),
        ("martingale", 400),
        ("php_echo", 12),
    ]
    results = {name: run_bound_suite(name, count, seed=20240812) for name, count in plan}
    elapsed = time.time() - start
    ok = all(r.violations == 0 for r in results.values()) and elapsed <= 300
    detail = ", ".join(f"{name}={r.violations}/{r.instances}" for name, r in results.items())
    announce("7 (bound suites)", ok, f"violations {detail}; {elapsed:.1f}s")


def test_criterion_8_determinism(setting_4x4, tmp_path, monkeypatch):
    lattice, spec = setting_4x4
    start = time.time()
    model = make_honest_model(lattice, spec, NoiseModel())
    config = ProtocolConfig(num_copies=3 * CHUNK_SIZE + 777, master_seed=MASTER_SEED)

    payloads = []
    for threads in (1, 8, 1, 8):
        _, report = run_protocol(model, lattice, spec, config, threads=threads)
        payloads.append(json.dumps(report.to_json_dict(), sort_keys=True))
    library_ok = len(set(payloads)) == 1

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "lattice": {"rows": 2, "cols": 2},
        "input_seed": 5,
        "protocol": {"num_copies": 150_000, "master_seed": 31337},
        "repetitions": 2,
    }))
    from fklab.cli import main

    blobs = []
    for threads, out in (("1", "t1"), ("8", "t8")):
        monkeypatch.setenv("FKLAB_THREADS", threads)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        blobs.append(
            (tmp_path / out / "report_rep000.json").read_bytes()
            + (tmp_path / out / "report_rep001.json").read_bytes()
            + (tmp_path / out / "summary.csv").read_bytes()
        )
    cli_ok = blobs[0] == blobs[1]

    ok = library_ok and cli_ok
    announce(
        "8 (determinism)",
        ok,
        f"library reports identical across reruns and thread counts: {library_ok}; "
        f"CLI bytes identical across FKLAB_THREADS 1 vs 8: {cli_ok}; "
        f"{time.time() - start:.1f}s",
    )
