"""Protocol state-machine tests: counters, estimators, decision, determinism."""

import json
import math
import os
import re
import tracemalloc
from concurrent import futures
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
from fklab.analysis import hoeffding_bound
from fklab.errors import CapacityError, ValidationError
from fklab.lattice import build_lattice, random_input
from fklab.prover import (
    P_CLOCK_MINUS,
    NoiseModel,
    exact_model_parameters,
    make_degraded_model,
    make_honest_model,
    mode_distributions,
)
from fklab.rng import TAG_COPIES, substream
from fklab.simulator import FORMAT_BLOCK
from fklab import verifier
from fklab.verifier import (
    CHUNK_SIZE,
    MAX_COPIES,
    MEASURE_BLOCK,
    ProtocolConfig,
    decide,
    resolve_threads,
    run_protocol,
)

from conftest import (
    BASIS_NONE,
    BASIS_X,
    BASIS_Y,
    REFERENCE_MINUS_I_POWERS,
    decode_code,
    reference_aligned_edges,
    reference_chunk_counters,
    reference_merge,
    reference_process_chunk,
    reference_times_g,
    transcript_columns,
    u_value,
)

FULL_BUDGET = 3_500_000


@pytest.fixture(scope="module")
def setup_2x2():
    lattice = build_lattice(2, 2)
    spec = random_input(4, np.random.default_rng(11))
    model = make_honest_model(lattice, spec, NoiseModel(clock_phase_theta=0.4))
    return lattice, spec, model


def run(model, lattice, spec, num_copies, seed, **cfg_kwargs):
    config = ProtocolConfig(num_copies=num_copies, master_seed=seed, **cfg_kwargs)
    return run_protocol(model, lattice, spec, config)


# ---------------------------------------------------------------------------
# full-budget behavior


def test_perfect_prover_accepted_at_full_budget(setup_2x2):
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, FULL_BUDGET, seed=1234)
    assert report.accepted
    assert report.f_in_m >= 0.994
    assert report.o10_sq_scaled >= 0.994
    assert 0.494 <= report.p_samp_m <= 0.506


def test_branch_allocation_concentration(setup_2x2):
    # Expected branch sizes N/2, N/4, N/8, N/8; each within 1% at 3.5e6 copies.
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, FULL_BUDGET, seed=77)
    c = report.counters
    assert abs(c.n_total_sampling - FULL_BUDGET / 2) < 0.01 * FULL_BUDGET / 2
    assert abs(c.n_input_test - FULL_BUDGET / 4) < 0.01 * FULL_BUDGET / 4
    assert abs(c.n_x - FULL_BUDGET / 8) < 0.01 * FULL_BUDGET / 8
    assert abs(c.n_y - FULL_BUDGET / 8) < 0.01 * FULL_BUDGET / 8


def test_degraded_prover_rejected(setup_2x2):
    lattice, spec, _ = setup_2x2
    degraded = make_degraded_model(lattice, spec, 0.97, 1.0)
    for seed in (5, 6, 7):
        _, report = run(degraded, lattice, spec, FULL_BUDGET, seed=seed)
        assert not report.accepted
        assert report.o10_sq_scaled < 0.994


# ---------------------------------------------------------------------------
# counters and transcript


def test_counter_invariants_and_books_balance(setup_2x2):
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, 200_000, seed=3)
    c = report.counters
    assert c.n_in_plus_0 <= c.n_in_plus
    total = c.n_total_sampling + c.n_input_test + c.n_x + c.n_y
    assert total == 200_000
    assert report.samples.size <= c.n_total_sampling


def test_report_recomputable_from_transcript_bit_for_bit(setup_2x2):
    lattice, spec, model = setup_2x2
    # Each re-measured chunk is reduced by the masked reference and the
    # chunks are merged in order, independently of run_protocol's reduction.
    transcript, report = run(model, lattice, spec, 150_000, seed=21)
    code, clock, sys_idx = transcript_columns(transcript)
    aligned = reference_aligned_edges(lattice)
    partials = []
    for start in range(0, transcript.num_copies, transcript.chunk_size):
        chunk = slice(start, start + transcript.chunk_size)
        partials.append(
            reference_chunk_counters(*decode_code(code[chunk]), clock[chunk], sys_idx[chunk], aligned)
        )
    counters, samples = reference_merge(partials, lattice.num_edges)
    assert len(partials) == 3
    # Every counter, the 16 propagation counts among them, and s_xu and s_yu:
    # 2x2 has 4 edges, so g = -1 and the sums are Gaussian integers, exactly.
    assert counters == report.counters
    for s in (report.counters.s_xu, report.counters.s_yu):
        assert s.real.is_integer() and s.imag.is_integer()
    assert np.array_equal(samples, report.samples)
    o10_again = 4.0 * abs((counters.s_xu / counters.n_x - 1j * counters.s_yu / counters.n_y) / 2.0) ** 2
    assert o10_again == report.o10_sq_scaled


def test_transcript_records_well_formed(setup_2x2):
    lattice, spec, model = setup_2x2
    transcript, _ = run(model, lattice, spec, 400, seed=8)
    modes_seen = set()
    for record in transcript.iter_records():
        json.dumps(record)  # JSONL-serializable
        assert record["clock_outcome"] in (-1, 1)
        if record["b_sampling"] == 1:
            assert record["basis_choice"] is None
            assert record["u"] is None
            modes_seen.add("sample")
            if record["clock_outcome"] == -1:
                assert len(record["system_outcomes"]) == 4
        elif record["b_testtype"] == 1:
            assert record["basis_choice"] in ("X", "Y")
            assert len(record["system_outcomes"]) == 4
            assert abs(complex(*record["u"])) == pytest.approx(1.0, abs=1e-9)
            modes_seen.add("prop")
        else:
            modes_seen.add("input")
    assert modes_seen == {"sample", "prop", "input"}


def test_u_column_matches_u_value(setup_2x2):
    lattice, spec, model = setup_2x2
    transcript, _ = run(model, lattice, spec, 2_000, seed=13)
    code, _, sys_idx = transcript_columns(transcript)
    prop = decode_code(code)[2] != BASIS_NONE
    records = list(transcript.iter_records())
    for i in np.flatnonzero(prop)[:50]:
        signs = [1 - 2 * ((int(sys_idx[i]) >> k) & 1) for k in range(4)]
        assert abs(complex(*records[i]["u"]) - u_value(signs, lattice)) < 1e-10


def test_odd_edge_sums_are_g_times_the_per_copy_gaussian_integer():
    # 2x3 has 7 edges, so g = (1 - i) / sqrt(2). Each basis's sum of
    # clock (-i)^k is summed copy by copy in Python ints, with k = (E + edges)
    # / 2 from the reference energies. The reported sum is g times it, rounded
    # as documented, and within two ulps of the exact value, in rationals.
    model, _ = _kernel_model("honest", 2, 3)
    lattice = model.lattice
    assert lattice.num_edges == 7
    config = ProtocolConfig(num_copies=CHUNK_SIZE + 999, master_seed=17)
    transcript, report = run_protocol(model, lattice, model.input_spec, config)
    code, clock, sys_idx = transcript_columns(transcript)
    basis = decode_code(code)[2]
    aligned = reference_aligned_edges(lattice).tolist()
    for basis_code, s in ((BASIS_X, report.counters.s_xu), (BASIS_Y, report.counters.s_yu)):
        sel = basis == basis_code
        re_sum = im_sum = 0
        for c, z in zip(clock[sel].tolist(), sys_idx[sel].tolist()):
            unit_re, unit_im = REFERENCE_MINUS_I_POWERS[aligned[z] % 4]
            re_sum += c * unit_re
            im_sum += c * unit_im
        assert s == reference_times_g(7, re_sum, im_sum)
        # g (re + i im) = ((re + im) + i (im - re)) / sqrt(2)
        for got, scaled in ((s.real, re_sum + im_sum), (s.imag, im_sum - re_sum)):
            assert scaled != 0 and (got > 0) == (scaled > 0)
            lo = Fraction(abs(got) - 2 * math.ulp(got))
            hi = Fraction(abs(got) + 2 * math.ulp(got))
            assert 2 * lo * lo < scaled * scaled < 2 * hi * hi


def test_report_and_transcript_print_no_signed_zero(setup_2x2):
    # On 2x2 (4 edges, a cycle) g = -1 and k is even, so u is -1 or 1 and
    # the sums are real: zero imaginary parts, which a complex product by g
    # would print as -0.0.
    signed_zero = re.compile(r"-0\.0(?![0-9])")
    lattice, spec, model = setup_2x2
    transcript, report = run(model, lattice, spec, 20_000, seed=6)
    assert not signed_zero.search(json.dumps(report.to_json_dict()))
    u_printed = set()
    for record in transcript.iter_records():
        assert not signed_zero.search(json.dumps(record))
        if record["u"] is not None:
            u_printed.add(json.dumps(record["u"]))
    assert u_printed == {"[1.0, 0.0]", "[-1.0, 0.0]"}
    assert report.counters.s_xu.imag == report.counters.s_yu.imag == 0.0
    # A merged sum of one count, at every cell and every g.
    for cell in range(16):
        counters = verifier.Counters(prop_counts=tuple(int(i == cell) for i in range(16)))
        for edges in range(8):
            merged, _ = verifier._merge([(counters, np.zeros(0, dtype=np.uint32))], edges)
            assert not signed_zero.search(json.dumps(merged.to_json_dict()))


def _old_bitstring(index, num_bits):
    return format(index, f"0{num_bits}b")[::-1]


def _record_per_copy(columns, num_system, i, u_table):
    """One copy's record built by per-copy numpy indexing into the
    transcript's columns and the dense 2^n u table, the reference for the
    columnar iter_records."""
    code, clock, sys_idx = columns
    has_sys = sys_idx[i] >= 0
    b_sampling, b_testtype, basis = decode_code(code[i])
    prop = basis != BASIS_NONE
    u = u_table[sys_idx[i]] if prop else None
    return {
        "copy_index": i,
        "b_sampling": int(b_sampling),
        "b_testtype": int(b_testtype),
        "basis_choice": {0: "X", 1: "Y", -1: None}[int(basis)],
        "clock_outcome": int(clock[i]),
        "system_outcomes": _old_bitstring(int(sys_idx[i]), num_system) if has_sys else None,
        "u": None if u is None else [u.real, u.imag],
    }


@pytest.mark.parametrize("prover", ["honest", "degraded_flip"])
def test_transcript_jsonl_matches_per_copy_reference(prover):
    lattice = build_lattice(3, 3)
    spec = random_input(9, np.random.default_rng(12))
    if prover == "honest":
        model, noise = make_honest_model(lattice, spec, NoiseModel()), None
    else:
        model = make_degraded_model(lattice, spec, 0.97, 0.99)
        noise = NoiseModel(measurement_flip_rate=0.01)
    config = ProtocolConfig(num_copies=100_000, master_seed=606)
    transcript, _ = run_protocol(model, lattice, spec, config, noise=noise)
    records = list(transcript.iter_records())
    lines = [json.dumps(r, sort_keys=True) + "\n" for r in records]
    # u = g (-i)^k per basis string, k = (E + edges) / 2.
    u_table = [
        reference_times_g(lattice.num_edges, *REFERENCE_MINUS_I_POWERS[k % 4])
        for k in reference_aligned_edges(lattice).tolist()
    ]
    columns, n = transcript_columns(transcript), transcript.dists.num_system
    reference = [
        json.dumps(_record_per_copy(columns, n, i, u_table), sort_keys=True) + "\n"
        for i in range(transcript.num_copies)
    ]
    assert "".join(lines) == "".join(reference)
    for i in (0, CHUNK_SIZE - 1, CHUNK_SIZE, transcript.num_copies - 1):
        assert records[i] == _record_per_copy(columns, n, i, u_table)


# ---------------------------------------------------------------------------
# the chunk kernel against the masked reference


def test_clock_bit_encodes_p_clock_minus():
    # Bit 3 of a copy's first word is one fair bit: the clock law it draws.
    assert P_CLOCK_MINUS == 0.5


def test_raw_words_are_the_uniforms_random_makes():
    # u = (word >> 11) 2^-53 is the double random() makes from a raw word,
    # and the uniforms drawn after the words continue the same stream.
    words = substream(3, TAG_COPIES, 9).bit_generator.random_raw(1000)
    expected = substream(3, TAG_COPIES, 9).random(1500)
    assert np.array_equal((words >> np.uint64(11)).astype(np.float64) * 2.0**-53, expected[:1000])
    rng = substream(3, TAG_COPIES, 9)
    rng.bit_generator.random_raw(1000)
    assert np.array_equal(rng.random(500), expected[1000:])


def test_process_chunk_decodes_the_documented_words(monkeypatch):
    # Every code, both clock bits, the first and last bin, and a coin equal
    # to the bin's accept (which takes the alias) or one ulp below it (which
    # keeps the bin), with every bit the layout does not read set. The
    # per-branch kernel's picks, scattered into the transcript's columns and
    # reduced to a run's counters, both decode them as documented.
    n, dim = 3, 8
    alias = np.array(
        [(np.arange(dim) + shift) % dim + high for shift, high in ((3, 0), (5, 0), (1, dim), (2, 0))],
        dtype=np.int32,
    )
    accept = np.full((4, dim), 0.625)
    dists = SimpleNamespace(num_system=n, alias=alias, accept=accept)
    table_of_code = (1, 1, 2, 3, 0, 0, 0, 0)
    accept_units = int(0.625 * 2**53)
    cases = [
        (code, minus_bit, bin_, below)
        for code in range(8)
        for minus_bit in (0, 1)
        for bin_ in (0, dim - 1)
        for below in (False, True)
    ]
    middle = ((1 << (64 - n)) - 1) & ~0xF
    a = [(bin_ << (64 - n)) | middle | (minus_bit << 3) | code for code, minus_bit, bin_, _ in cases]
    b = [((accept_units - below) << 11) | 0x7FF for _, _, _, below in cases]
    words = np.array([a, b], dtype=np.uint64)
    stream = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words.copy()))
    monkeypatch.setattr(verifier, "substream", lambda *key: stream)

    count = len(cases)
    # Arbitrary aligned-edge counts, every residue mod 4 among them.
    levels = (np.arange(dim) * 3 % 7).astype(np.uint8)
    transcript = verifier.ProtocolTranscript(count, 0, 0.0, dists, levels, 5)
    code, clock, sys_idx = transcript._measure(0)
    for i, (c, minus_bit, bin_, below) in enumerate(cases):
        j = bin_ if below else int(alias[table_of_code[c], bin_])
        if c in (2, 3):
            expected = (-1 if j >> n else 1, j & (dim - 1))
        else:
            measured = minus_bit == (c >> 2)
            expected = (-1 if minus_bit else 1, j if measured else -1)
        assert (code[i], clock[i], sys_idx[i]) == (c, *expected), cases[i]
    counters, samples = transcript._reduce(0)
    expected = reference_chunk_counters(*decode_code(code), clock, sys_idx, levels)
    assert counters == expected[0]
    assert samples.dtype == expected[1].dtype
    assert np.array_equal(samples, expected[1])
    # The merge at every eighth root of unity g = e^{i pi edges/4}.
    for edges in range(8):
        assert verifier._merge([(counters, samples)], edges)[0] == reference_merge([expected], edges)[0]


def _kernel_model(kind, rows, cols):
    """A model and its measurement noise. A 1x1 lattice has no edge, so its
    propagation overlap is 1 at any evolution time: its degraded model keeps
    the O10 target at 1."""
    lattice = build_lattice(rows, cols)
    spec = random_input(lattice.num_qubits, np.random.default_rng(rows * 10 + cols))
    if kind == "honest":
        return make_honest_model(lattice, spec, NoiseModel()), None
    if kind == "noisy":
        noise = NoiseModel(clock_phase_theta=0.3, evolution_scale=0.02, input_tilt=0.05)
        return make_honest_model(lattice, spec, noise), noise
    if kind == "depolarizing":
        noise = NoiseModel(depolarizing_rate=0.3)
        return make_honest_model(lattice, spec, noise), noise
    target_o10 = 0.97 if lattice.edges else 1.0
    model = make_degraded_model(lattice, spec, target_o10, 0.99)
    return model, NoiseModel(measurement_flip_rate=0.02)


def _reference_run(model, num_copies, master_seed, eps):
    """Columns, counters and samples from the masked reference kernel."""
    dists = mode_distributions(model)
    columns = (
        np.empty(num_copies, dtype=np.uint8),
        np.empty(num_copies, dtype=np.uint8),
        np.empty(num_copies, dtype=np.int8),
        np.empty(num_copies, dtype=np.int8),
        np.empty(num_copies, dtype=np.int32),
    )
    aligned = reference_aligned_edges(model.lattice)
    partials = []
    for start in range(0, num_copies, CHUNK_SIZE):
        rows = tuple(column[start : start + CHUNK_SIZE] for column in columns)
        reference_process_chunk(dists, master_seed, start // CHUNK_SIZE, eps, rows)
        partials.append(reference_chunk_counters(*rows, aligned))
    return (columns, *reference_merge(partials, model.lattice.num_edges))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)])
@pytest.mark.parametrize("kind", ["honest", "noisy", "depolarizing", "degraded_flip"])
def test_chunk_kernel_bit_identical_to_reference(kind, rows, cols):
    model, noise = _kernel_model(kind, rows, cols)
    eps = noise.measurement_flip_rate if noise is not None else 0.0
    names = ("b_sampling", "b_testtype", "basis", "clock", "sys_idx")
    # 1-3 copies leave some branch groups empty; MEASURE_BLOCK + 5 ends a
    # chunk inside its second measurement block.
    for num in (0, 1, 2, 3, MEASURE_BLOCK + 5, CHUNK_SIZE, 3 * CHUNK_SIZE + 777):
        columns, counters, samples = _reference_run(model, num, 4242, eps)
        config = ProtocolConfig(num_copies=num, master_seed=4242)
        for threads in (1, 2):
            transcript, report = run_protocol(
                model, model.lattice, model.input_spec, config, noise=noise, threads=threads
            )
            code, clock, sys_idx = transcript_columns(transcript)
            decoded = (*decode_code(code), clock, sys_idx)
            for name, got, column in zip(names, decoded, columns):
                assert got.dtype == column.dtype
                assert np.array_equal(got, column), (name, num, threads)
            assert report.counters == counters
            assert json.dumps(report.counters.to_json_dict()) == json.dumps(counters.to_json_dict())
            assert report.samples.dtype == samples.dtype
            assert np.array_equal(report.samples, samples)


@pytest.mark.parametrize("kind", ["honest", "degraded_flip"])
@pytest.mark.parametrize("key", range(16))
def test_chunk_kernel_on_blocks_of_one_key(monkeypatch, kind, key):
    # Every copy carries the same low four bits of a (its code and clock
    # bit), so at most one branch group of each block is nonempty; the
    # kernel, its columns and its counters must still equal the reference.
    model, noise = _kernel_model(kind, 2, 3)
    eps = noise.measurement_flip_rate if noise is not None else 0.0

    def one_key_substream(*seed):
        rng = substream(*seed)

        def random_raw(size):
            words = rng.bit_generator.random_raw(size)
            words[0] = (words[0] & ~np.uint64(15)) | np.uint64(key)
            return words

        return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw), random=rng.random)

    monkeypatch.setattr(verifier, "substream", one_key_substream)
    monkeypatch.setattr(conftest, "substream", one_key_substream)
    num = MEASURE_BLOCK + 5
    columns, counters, samples = _reference_run(model, num, 808, eps)
    config = ProtocolConfig(num_copies=num, master_seed=808)
    transcript, report = run_protocol(model, model.lattice, model.input_spec, config, noise=noise)
    code, clock, sys_idx = transcript_columns(transcript)
    assert np.unique(code).tolist() == [key & 7]
    for got, column in zip((*decode_code(code), clock, sys_idx), columns):
        assert got.dtype == column.dtype
        assert np.array_equal(got, column)
    assert report.counters == counters
    assert report.samples.dtype == samples.dtype
    assert np.array_equal(report.samples, samples)


@pytest.mark.parametrize("kind", ["honest", "degraded_flip"])
def test_measure_block_changes_no_output(monkeypatch, kind):
    # MEASURE_BLOCK sets only how many copies each kernel step takes: at any
    # block size, from 2^12 up to a whole chunk, and any thread count, the
    # counters, samples and columns are those at the default size.
    model, noise = _kernel_model(kind, 3, 3)

    def outputs(num, threads):
        config = ProtocolConfig(num_copies=num, master_seed=31)
        transcript, report = run_protocol(
            model, model.lattice, model.input_spec, config, noise=noise, threads=threads
        )
        return report.counters, report.samples, transcript_columns(transcript)

    nums = (0, 1, MEASURE_BLOCK + 5, 3 * CHUNK_SIZE + 777)
    expected = {num: outputs(num, 1) for num in nums}
    for block in (1 << 12, 1 << 14, 1 << 15, CHUNK_SIZE):
        monkeypatch.setattr(verifier, "MEASURE_BLOCK", block)
        for num in nums:
            counters, samples, columns = expected[num]
            for threads in (1, 2):
                got_counters, got_samples, got_columns = outputs(num, threads)
                assert got_counters == counters, (block, num, threads)
                assert got_samples.dtype == samples.dtype == np.uint32
                assert np.array_equal(got_samples, samples), (block, num, threads)
                for got, column in zip(got_columns, columns):
                    assert got.dtype == column.dtype
                    assert np.array_equal(got, column), (block, num, threads)


# ---------------------------------------------------------------------------
# estimator statistics


def test_estimators_unbiased_over_runs(rng):
    lattice = build_lattice(2, 2)
    spec = random_input(4, rng)
    model = make_honest_model(lattice, spec, NoiseModel(clock_phase_theta=1.0))
    exact = exact_model_parameters(model)
    o10s, f_ins = [], []
    for seed in range(200):
        _, report = run(model, lattice, spec, 20_000, seed=seed)
        o10s.append(report.o10_m)
        f_ins.append(report.f_in_m)
    o10s = np.array(o10s)
    assert all(f == 1.0 for f in f_ins)  # perfect input, no flips
    for part in (np.real, np.imag):
        vals = part(o10s)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - part(exact.tr_rho_o10)) < 3 * se + 1e-12


def test_f_in_deviation_fraction_within_hoeffding(rng):
    # Degraded input fidelity 0.97; with ~N/8 clock +1 input copies the
    # deviation beyond 0.006 should be rarer than the two-sided tail bound.
    lattice = build_lattice(2, 2)
    spec = random_input(4, rng)
    model = make_degraded_model(lattice, spec, 1.0, 0.97)
    num_copies = 200_000
    exceed = 0
    runs = 10
    for seed in range(runs):
        _, report = run(model, lattice, spec, num_copies, seed=1_000 + seed)
        exceed += abs(report.f_in_m - 0.97) > 0.006
    bound = hoeffding_bound(0.006, num_copies // 8, 2)
    assert exceed / runs <= bound + 0.1


def _hoeffding_width(trials, value_range, failure_prob):
    """Two-sided Hoeffding half-width for a mean of `trials` bounded terms."""
    return value_range * np.sqrt(np.log(2.0 / failure_prob) / (2.0 * trials))


def test_depolarized_4x4_estimators_within_hoeffding_width():
    lattice = build_lattice(4, 4)
    spec = random_input(16, np.random.default_rng(7))
    model = make_honest_model(lattice, spec, NoiseModel(depolarizing_rate=0.01))
    exact = exact_model_parameters(model)
    _, report = run(model, lattice, spec, FULL_BUDGET, seed=2024)
    c = report.counters
    per_check = 1e-9 / 4  # F_in, p_samp and the two parts of o10
    assert abs(report.f_in_m - exact.f_in) <= _hoeffding_width(c.n_in_plus, 1.0, per_check)
    assert abs(report.p_samp_m - exact.p_samp) <= _hoeffding_width(c.n_input_test, 1.0, per_check)
    # o10 = (h_x - i h_y) / 2 and each b*u term has parts in [-1, 1].
    w_o10 = 0.5 * (_hoeffding_width(c.n_x, 2.0, per_check) + _hoeffding_width(c.n_y, 2.0, per_check))
    dev = report.o10_m - exact.tr_rho_o10
    assert max(abs(dev.real), abs(dev.imag)) <= w_o10
    # The 1% depolarized output is 0.99 of the coherent one: |Tr rho O10|^2 = 0.99^2 / 4.
    assert abs(4.0 * abs(exact.tr_rho_o10) ** 2 - 0.99**2) < 1e-12


# ---------------------------------------------------------------------------
# degenerate inputs


def test_zero_copies_rejected_with_reason(setup_2x2):
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, 0, seed=1)
    assert not report.accepted
    assert report.undefined_reason is not None
    assert report.f_in_m is None and report.o10_m is None and report.p_samp_m is None


def test_single_copy_starves_some_branch(setup_2x2):
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, 1, seed=2)
    assert not report.accepted
    assert report.undefined_reason is not None


# ---------------------------------------------------------------------------
# decide


def test_decide_examples():
    config = ProtocolConfig(num_copies=1, master_seed=0)
    assert decide(1.0, 1.0, 0.5, config)
    assert not decide(0.9939, 1.0, 0.5, config)  # strict floor
    assert not decide(1.0, 1.0, 0.52, config)  # outside the sampling window


def test_decide_window_inclusive():
    config = ProtocolConfig(num_copies=1, master_seed=0)
    assert decide(1.0, 1.0, 0.494, config)
    assert decide(1.0, 1.0, 0.506, config)


def _run_protocol_peak(model, lattice, spec, num_copies, noise=None):
    """tracemalloc peak of one single-thread run_protocol, in bytes."""
    config = ProtocolConfig(num_copies=num_copies, master_seed=17)
    tracemalloc.start()
    try:
        run_protocol(model, lattice, spec, config, noise=noise, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_protocol_memory_grows_by_the_samples_only(setup_2x2):
    # Each chunk is reduced as it is measured, so what a run holds per copy
    # is its published samples: about a quarter of the copies at 4 B each,
    # held per chunk and then joined. Per-copy columns would add 6 B.
    lattice, spec, model = setup_2x2
    small, large = 4 * CHUNK_SIZE, 16 * CHUNK_SIZE
    _run_protocol_peak(model, lattice, spec, small)
    growth = _run_protocol_peak(model, lattice, spec, large) - _run_protocol_peak(
        model, lattice, spec, small
    )
    assert growth <= 2 * (large - small)


def test_flip_draws_add_no_per_chunk_block():
    # The flips are drawn one row of uniforms at a time, so a flip rate adds
    # a few chunk-sized rows to the peak, not a (count, n + 1) float64 block
    # (8.5 MiB at 4x4).
    lattice = build_lattice(4, 4)
    spec = random_input(16, np.random.default_rng(5))
    model = make_honest_model(lattice, spec, NoiseModel())
    flips = NoiseModel(measurement_flip_rate=0.01)
    num_copies = 3 * CHUNK_SIZE
    _run_protocol_peak(model, lattice, spec, num_copies, noise=flips)
    clean = _run_protocol_peak(model, lattice, spec, num_copies)
    flipped = _run_protocol_peak(model, lattice, spec, num_copies, noise=flips)
    assert flipped - clean <= 1.5 * 2**20, (clean, flipped)


def test_iter_records_replays_the_same_records(setup_2x2):
    # Every drain re-measures the chunks from the seed: the same records.
    lattice, spec, model = setup_2x2
    transcript, _ = run(model, lattice, spec, CHUNK_SIZE + 333, seed=12)
    first = list(transcript.iter_records())
    assert len(first) == CHUNK_SIZE + 333
    assert list(transcript.iter_records()) == first


def test_transcript_columns_are_code_clock_sys_idx(setup_2x2):
    # The transcript holds no per-copy array; its re-measured columns are
    # the uint8 code, the int8 clock and the int32 system outcome.
    lattice, spec, model = setup_2x2
    num = 1000
    transcript, _ = run(model, lattice, spec, num, seed=3)
    assert not any(
        isinstance(getattr(transcript, f.name), np.ndarray)
        and getattr(transcript, f.name).shape == (num,)
        for f in fields(transcript)
    )
    columns = transcript_columns(transcript)
    per_copy = {name: column.dtype for name, column in zip(("code", "clock", "sys_idx"), columns)}
    assert per_copy == {
        "code": np.dtype(np.uint8),
        "clock": np.dtype(np.int8),
        "sys_idx": np.dtype(np.int32),
    }
    assert all(column.shape == (num,) for column in columns)
    assert set(np.unique(columns[0]).tolist()) == set(range(8))


def test_config_validation():
    with pytest.raises(Exception):
        ProtocolConfig(num_copies=-1, master_seed=0)
    with pytest.raises(Exception):
        ProtocolConfig(num_copies=1, master_seed=0, threshold_o10=1.5)
    with pytest.raises(Exception):
        ProtocolConfig(num_copies=1, master_seed=0, psamp_window=(0.6, 0.4))
    assert ProtocolConfig(num_copies=MAX_COPIES, master_seed=0).num_copies == MAX_COPIES
    with pytest.raises(CapacityError):
        ProtocolConfig(num_copies=MAX_COPIES + 1, master_seed=0)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_reproduces_everything(setup_2x2):
    lattice, spec, model = setup_2x2
    t1, r1 = run(model, lattice, spec, 80_000, seed=99)
    t2, r2 = run(model, lattice, spec, 80_000, seed=99)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    _, clock1, sys_idx1 = transcript_columns(t1)
    _, clock2, sys_idx2 = transcript_columns(t2)
    assert np.array_equal(sys_idx1, sys_idx2)
    assert np.array_equal(clock1, clock2)


def _assert_same_at_one_and_eight_threads(model, monkeypatch, noise=None, num=3 * CHUNK_SIZE + 777):
    # Eight usable CPUs, so that eight threads run whatever this host has.
    # The default num is multiple chunks plus a partial one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    lattice, spec = model.lattice, model.input_spec
    config = ProtocolConfig(num_copies=num, master_seed=314)
    t1, r1 = run_protocol(model, lattice, spec, config, noise=noise, threads=1)
    t8, r8 = run_protocol(model, lattice, spec, config, noise=noise, threads=8)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r8.to_json_dict(), sort_keys=True
    )
    assert r1.counters == r8.counters  # s_xu and s_yu bitwise, not approximate
    columns1, columns8 = transcript_columns(t1), transcript_columns(t8)
    for got, expected in zip(columns8, columns1):
        assert np.array_equal(got, expected)
    for got, expected in zip(decode_code(columns8[0]), decode_code(columns1[0])):
        assert np.array_equal(got, expected)


def test_thread_count_does_not_change_results(setup_2x2, monkeypatch):
    _assert_same_at_one_and_eight_threads(setup_2x2[2], monkeypatch)


def test_thread_count_does_not_change_flipped_degraded_results(monkeypatch):
    # The flip rows are drawn per chunk, so the thread count must not move
    # them either.
    model, noise = _kernel_model("degraded_flip", 3, 3)
    _assert_same_at_one_and_eight_threads(model, monkeypatch, noise)


def test_thread_count_does_not_change_odd_edge_results(monkeypatch):
    # 2x3 has 7 edges, so g = (1 - i) sqrt(1/2) rounds the sums: it must
    # multiply them once, after the merge, at any thread count.
    model, noise = _kernel_model("degraded_flip", 2, 3)
    _assert_same_at_one_and_eight_threads(model, monkeypatch, noise, num=2 * CHUNK_SIZE + 99)


def test_thread_count_is_capped_at_the_usable_cpus(monkeypatch):
    # Each thread holds a chunk's temporaries, so no request, by argument or
    # by FKLAB_THREADS, gets more threads than the CPUs the process may use.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.delenv("FKLAB_THREADS", raising=False)
    assert resolve_threads() == 1
    assert [resolve_threads(t) for t in (-7, 0, 1, 2, 3, 4, 2048, 10**9)] == [1, 1, 1, 2, 3, 3, 3, 3]
    for env, expected in (("-3", 1), ("2", 2), ("3", 3), ("2048", 3), (str(10**12), 3)):
        monkeypatch.setenv("FKLAB_THREADS", env)
        assert resolve_threads() == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads(64) == 1
    # Without CPU affinity every CPU counts, and an unknown count as one.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_threads(8) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads(8) == 1


def test_run_protocol_pool_is_capped_at_the_usable_cpus(setup_2x2, monkeypatch):
    lattice, spec, model = setup_2x2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pools = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # run_protocol imports the pool class where it makes the pool.
    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    config = ProtocolConfig(num_copies=4 * CHUNK_SIZE, master_seed=5)
    run_protocol(model, lattice, spec, config, threads=4096)
    assert pools == [2]


def test_report_json_schema(setup_2x2):
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, 50_000, seed=4)
    data = report.to_json_dict()
    assert set(data) == {
        "f_in_m",
        "p_samp_m",
        "o10_re",
        "o10_im",
        "o10_sq_scaled",
        "accepted",
        "counters",
    }
    assert set(data["counters"]) == {
        "s_xu",
        "s_yu",
        "n_x",
        "n_y",
        "n_in_plus",
        "n_in_plus_0",
        "n_total_sampling",
        "n_clock_minus",
    }
    assert data["o10_sq_scaled"] == 4.0 * abs(complex(data["o10_re"], data["o10_im"])) ** 2


def test_sample_bitstrings_shape(setup_2x2):
    """Writing item + "\\n" for each item writes one line per sample."""
    lattice, spec, model = setup_2x2
    _, report = run(model, lattice, spec, 300_000, seed=5)
    blocks = list(report.sample_bitstrings())
    assert report.samples.size > FORMAT_BLOCK and len(blocks) == 2
    assert all(block.count("\n") < FORMAT_BLOCK for block in blocks)
    strings = "".join(block + "\n" for block in blocks).split("\n")
    assert strings.pop() == ""
    assert len(strings) == report.samples.size
    assert all(len(s) == 4 and set(s) <= {"0", "1"} for s in strings)
    assert strings == [_old_bitstring(x, 4) for x in report.samples.tolist()]


_VERIFIER_RAISES = {
    "model-lattice": (
        lambda lattice, spec, model: run_protocol(model, build_lattice(1, 4), spec, ProtocolConfig(20000, 1)),
        "model lattice differs from the protocol lattice",
    ),
    "model-input": (
        lambda lattice, spec, model: run_protocol(
            model, lattice, random_input(4, np.random.default_rng(12)), ProtocolConfig(20000, 1)
        ),
        "model input spec differs from the protocol input",
    ),
}


@pytest.mark.parametrize("case", sorted(_VERIFIER_RAISES))
def test_verifier_raise_sites(setup_2x2, case):
    call, message = _VERIFIER_RAISES[case]
    with pytest.raises(ValidationError, match=message):
        call(*setup_2x2)
