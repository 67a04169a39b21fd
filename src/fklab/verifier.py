"""The verification protocol: branch selection, counters, estimators, decision.

Copies are processed in fixed 65536-copy chunks. Chunk c draws all of its
randomness from the substream (master_seed, TAG_COPIES, c) in a fixed layout.
Each chunk is measured into chunk-sized columns and reduced at once, while
they are in cache, to its counters (numpy's pairwise sums) and its published
samples; the chunks' partials are merged in chunk order, so results are
byte-identical for any thread count. No per-copy record is kept: the
transcript is the model's tables and the seed, and it re-measures chunk c from
its substream whenever its records or counters are read.

Draw layout of a chunk of `count` copies: first words =
bit_generator.random_raw((2, count)), two raw 64-bit words per copy; then,
only with a measurement flip rate eps > 0, one row random(count) per outcome
bit k = 0..n-1, then one row random(count) for the clock. Copy i reads
a = words[0, i] and b = words[1, i]:
  a & 7      the copy's branch code 4 b_sampling + 2 b_testtype + y: bit 2
             is b_sampling (the sampling branch), bit 1 is b_testtype (the
             propagation test; 0 is the input test), read only when
             b_sampling = 0, and bit 0 is y (basis Y, else X), read only by a
             propagation copy. Codes 0-1 are the input test, 2 X
             propagation, 3 Y propagation, 4-7 sampling;
  bit 3 of a the clock reads -1 (one fair bit: P_CLOCK_MINUS = 1/2), for
             sampling and input-test copies; a propagation copy's clock is
             bit n of its outcome;
  a >> 11, b >> 11   the alias pick from the copy's table on u_bin =
             (a >> 11) 2^-53 and u_coin = (b >> 11) 2^-53, the doubles
             random() makes from those words: bin int(u_bin * 2^n) =
             a >> (64 - n), kept when u_coin < accept[bin], else
             alias[bin]. Bins use the top n <= 26 bits of a, disjoint from
             bits 0-3. A sampling copy is measured on clock -1, an input-test
             copy on clock +1, and a propagation copy always; the others keep
             sys_idx -1.
With eps > 0, flip row k below eps flips outcome bit k of a measured copy,
and the clock row below eps negates the reported clock.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import CapacityError, DimensionMismatchError, ValidationError
from .lattice import InputSpec, LatticeGeometry
from .prover import (
    MODE_ORDER,
    HistoryStateModel,
    ModeDistributions,
    NoiseModel,
    mode_distributions,
)
from .rng import TAG_COPIES, substream
from .simulator import aligned_edges, bitstring_blocks, zz_phase_levels

CHUNK_SIZE = 1 << 16
# A chunk is measured this many copies at a time, so that the allocator keeps
# the kernel's temporaries (about 50 B a copy) from one chunk to the next
# rather than returning them to the system and faulting them in again.
MEASURE_BLOCK = 1 << 14
# A run holds its published samples, about a quarter of the copies at 4 B
# each: about 128 MiB at the guard, within the memory the 26-qubit
# statevector guard admits.
MAX_COPIES = 1 << 27


@dataclass(frozen=True)
class ProtocolConfig:
    """Copy budget, acceptance thresholds, and the master seed."""

    num_copies: int
    master_seed: int
    threshold_o10: float = 0.994
    threshold_fin: float = 0.994
    psamp_window: tuple[float, float] = (0.494, 0.506)

    def __post_init__(self):
        if self.num_copies < 0:
            raise ValidationError("num_copies must be non-negative")
        if self.num_copies > MAX_COPIES:
            raise CapacityError(f"{self.num_copies} copies exceeds the {MAX_COPIES}-copy guard")
        for name in ("threshold_o10", "threshold_fin"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        lo, hi = self.psamp_window
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError(f"psamp_window must be an interval in [0, 1], got {self.psamp_window}")


@dataclass
class Counters:
    """Protocol accumulators."""

    s_xu: complex = 0.0 + 0.0j
    s_yu: complex = 0.0 + 0.0j
    n_x: int = 0
    n_y: int = 0
    n_in_plus: int = 0
    n_in_plus_0: int = 0
    n_total_sampling: int = 0
    n_clock_minus: int = 0

    @property
    def n_input_test(self) -> int:
        """Copies that took the input-test branch (any clock outcome)."""
        return self.n_in_plus + self.n_clock_minus

    def to_json_dict(self) -> dict:
        return {
            "s_xu": [self.s_xu.real, self.s_xu.imag],
            "s_yu": [self.s_yu.real, self.s_yu.imag],
            "n_x": self.n_x,
            "n_y": self.n_y,
            "n_in_plus": self.n_in_plus,
            "n_in_plus_0": self.n_in_plus_0,
            "n_total_sampling": self.n_total_sampling,
            "n_clock_minus": self.n_clock_minus,
        }


@dataclass
class EstimatorReport:
    """Protocol outcome: estimators, decision, published samples."""

    f_in_m: float | None
    p_samp_m: float | None
    o10_m: complex | None
    o10_sq_scaled: float | None
    accepted: bool
    samples: np.ndarray
    counters: Counters
    num_system: int
    undefined_reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "f_in_m": self.f_in_m,
            "p_samp_m": self.p_samp_m,
            "o10_re": None if self.o10_m is None else self.o10_m.real,
            "o10_im": None if self.o10_m is None else self.o10_m.imag,
            "o10_sq_scaled": self.o10_sq_scaled,
            "accepted": self.accepted,
            "counters": self.counters.to_json_dict(),
        }

    def sample_bitstrings(self) -> Iterator[str]:
        """The published samples as text blocks of up to FORMAT_BLOCK bit
        strings joined by "\\n" (simulator.bitstring_blocks): writing
        item + "\\n" for each item writes the sample file."""
        return bitstring_blocks(self.samples, self.num_system)


@dataclass
class ProtocolTranscript:
    """The per-copy records of a run, re-measured from its seed, not stored.

    Chunk c of the num_copies copies is measured again from the substream
    (master_seed, TAG_COPIES, c) with the model's tables (dists) and the
    measurement flip rate eps, into three columns: the copy's branch code
    (module docstring), from which a record decodes b_sampling, b_testtype
    and the basis; the reported clock outcome; and the system outcome
    sys_idx, -1 when no system measurement happened. A propagation copy's
    u = e^{-i pi E/4}, E = 2k - edges, is read from u_levels, the edges + 1
    unit-time phases, at the outcome's aligned-edge count k (levels, the
    cached uint8 simulator.aligned_edges).
    """

    num_copies: int
    chunk_size: int
    master_seed: int
    eps: float
    dists: ModeDistributions
    levels: np.ndarray
    u_levels: np.ndarray

    def u_values(self, outcomes: np.ndarray) -> np.ndarray:
        """u of each propagation outcome: entry k of u_levels."""
        return self.u_levels[self.levels[outcomes]]

    def iter_records(self):
        for c in self._chunks():
            yield from self._records(c)

    def _chunks(self) -> range:
        """The chunk indices, in order."""
        return range(-(-self.num_copies // self.chunk_size))

    def _measure(self, chunk_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The code, clock and sys_idx columns of one chunk, measured anew."""
        count = min(self.chunk_size, self.num_copies - chunk_index * self.chunk_size)
        columns = (
            np.empty(count, dtype=np.uint8),
            np.empty(count, dtype=np.int8),
            np.empty(count, dtype=np.int32),
        )
        _process_chunk(self.dists, self.master_seed, chunk_index, self.eps, columns)
        return columns

    def _reduce(self, chunk_index: int) -> tuple[Counters, np.ndarray]:
        """Counters and published samples of one chunk, measured and reduced."""
        return _chunk_counters(*self._measure(chunk_index), self.u_values)

    def _records(self, chunk_index: int):
        """JSON-ready records of one chunk, built from list columns."""
        code, clock, sys_idx = self._measure(chunk_index)
        start = chunk_index * self.chunk_size
        blocks = bitstring_blocks(sys_idx[sys_idx >= 0], self.dists.num_system)
        outcomes = (z for block in blocks for z in block.split("\n"))
        u = self.u_values(sys_idx[(code >> 1) == 1])
        u_pairs = iter(zip(u.real.tolist(), u.imag.tolist()))
        for i, c, clock_outcome, z in zip(
            range(start, start + code.size), code.tolist(), clock.tolist(), sys_idx.tolist()
        ):
            basis = _BASIS_NAMES.get(c)
            yield {
                "copy_index": i,
                "b_sampling": c >> 2,
                "b_testtype": (c >> 1) & 1,
                "basis_choice": basis,
                "clock_outcome": clock_outcome,
                "system_outcomes": next(outcomes) if z >= 0 else None,
                "u": None if basis is None else list(next(u_pairs)),
            }


def _merge(partials) -> tuple[Counters, np.ndarray]:
    """Sum per-chunk counters in chunk order and join their samples."""
    total = Counters()
    samples = [np.zeros(0, dtype=np.uint32)]
    for counters, chunk_samples in partials:
        for f in fields(Counters):
            setattr(total, f.name, getattr(total, f.name) + getattr(counters, f.name))
        samples.append(chunk_samples)
    return total, np.concatenate(samples)


def _chunk_counters(code, clock, sys_idx, u_values) -> tuple[Counters, np.ndarray]:
    """Counters and published samples of one chunk of transcript columns.

    Rows are selected through index arrays rather than boolean masks: the
    gathered values, and so every sum, are the same, and an index gather is
    faster than a masked one on a random mask.
    """
    samp = code >= 4
    input_test = code < 2
    has_sys = sys_idx >= 0

    stored = samp & (clock == -1) & has_sys
    samples = sys_idx[np.flatnonzero(stored)].astype(np.uint32)

    in_plus = input_test & (clock == 1)
    counters = Counters(
        n_total_sampling=int(np.count_nonzero(samp)),
        n_clock_minus=int(np.count_nonzero(input_test & (clock == -1))),
        n_in_plus=int(np.count_nonzero(in_plus)),
        n_in_plus_0=int(np.count_nonzero(in_plus & has_sys & (sys_idx == 0))),
    )
    for prop_code in (2, 3):
        sel = np.flatnonzero(code == prop_code)
        contrib = complex(np.sum(clock[sel].astype(np.float64) * u_values(sys_idx[sel])))
        if prop_code == 2:
            counters.s_xu = contrib
            counters.n_x = sel.size
        else:
            counters.s_yu = contrib
            counters.n_y = sel.size
    return counters, samples


# A branch code's outcome table (an index into MODE_ORDER) and, for the two
# propagation codes, its basis.
_TABLE_OF_CODE = np.array(
    [MODE_ORDER.index(name) for name in ("input_given_plus",) * 2 + ("prop_x", "prop_y")]
    + [MODE_ORDER.index("sample_given_minus")] * 4,
    dtype=np.int64,
)
_BASIS_NAMES = {2: "X", 3: "Y"}


def _process_chunk(dists, master_seed: int, chunk_index: int, eps: float, columns) -> None:
    """Measure one chunk of copies, writing every entry of its three columns.

    Every copy draws from its own table in one pass, MEASURE_BLOCK copies at
    a time: its code selects the table's row of the (4, 2^n) alias buffer,
    and the pick is Distribution.pick's arithmetic on that row, read off the
    copy's two raw words (module docstring).
    """
    count = columns[0].size
    n = dists.num_system
    rng = substream(master_seed, TAG_COPIES, chunk_index)
    words = rng.bit_generator.random_raw((2, count))
    for start in range(0, count, MEASURE_BLOCK):
        block = slice(start, start + MEASURE_BLOCK)
        a, b = words[:, block]
        code, clock, sys_idx = (column[block] for column in columns)
        low = a.astype(np.uint8)
        np.bitwise_and(low, 7, out=code)
        prop = (code >> 1) == 1

        # Every table has 2^n bins, so int(u_bin * 2^n) is the top n bits of a:
        # Distribution.pick's clamp to 2^n - 1 never binds here. The uint64
        # shifts take np.uint64 counts, which numpy 1.x needs to keep them uint64.
        a >>= np.uint64(64 - n)
        local = a.astype(np.int32)
        entry = np.take(_TABLE_OF_CODE << n, code)
        entry |= a.view(np.int64)
        b >>= np.uint64(11)
        u_coin = b.astype(np.float64)
        u_coin *= 2.0**-53
        # j = local where the coin is below the bin's accept, else its alias: an
        # arithmetic select, far cheaper than np.where on a random condition.
        alias = np.take(dists.alias, entry)
        j = local - alias
        j *= u_coin < np.take(dists.accept, entry)
        j += alias

        # A propagation outcome carries its clock bit at bit n; a sampling or
        # input-test outcome is below 2^n, and its clock is bit 3 of a. The
        # clock is 1 - 2 minus, computed in int8.
        true_minus = (low >> 3) & 1
        minus = (j >> n).astype(np.uint8)
        minus |= true_minus & ~prop
        np.subtract(1, minus.view(np.int8) << 1, out=clock)
        # A sampling copy is measured on clock -1, an input-test copy on +1. An
        # unmeasured copy's outcome is ORed with measured - 1 = -1, which leaves
        # -1: cheaper than np.where on a random condition.
        measured = prop | (true_minus == code >> 2)
        np.bitwise_and(j, (1 << n) - 1, out=sys_idx)
        sys_idx |= measured.view(np.int8) - 1

    if eps > 0.0:
        # Drawn one chunk-sized row of uniforms at a time, to keep the
        # temporaries of a chunk small.
        _, clock, sys_idx = columns
        flip_bits = np.zeros(count, dtype=np.int32)
        for k in range(n):
            flip_bits |= (rng.random(count) < eps).astype(np.int32) << k
        clock[rng.random(count) < eps] *= -1
        measured = sys_idx >= 0
        sys_idx[measured] ^= flip_bits[measured]


def decide(
    o10_sq_scaled: float, f_in_m: float, p_samp_m: float, config: ProtocolConfig
) -> bool:
    """Pure threshold comparison on the three estimators."""
    lo, hi = config.psamp_window
    return (
        o10_sq_scaled >= config.threshold_o10
        and f_in_m >= config.threshold_fin
        and lo <= p_samp_m <= hi
    )


def resolve_threads(threads: int | None = None) -> int:
    """Thread cap: explicit argument, else FKLAB_THREADS, else 1, and never
    more than the CPUs this process may run on. Each thread holds its chunk's
    temporaries, so an unbounded count would hold them for every chunk at
    once; the outputs are the same at any count."""
    if threads is not None:
        requested = int(threads)
    else:
        env = os.environ.get("FKLAB_THREADS")
        try:
            requested = int(env) if env else 1
        except ValueError as exc:
            raise ValidationError(f"FKLAB_THREADS must be an integer, got {env!r}") from exc
    # CPU affinity is a Linux call; elsewhere every CPU counts as usable.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus))


def run_protocol(
    model: HistoryStateModel,
    lattice: LatticeGeometry,
    input_spec: InputSpec,
    config: ProtocolConfig,
    noise: NoiseModel | None = None,
    threads: int | None = None,
) -> tuple[ProtocolTranscript, EstimatorReport]:
    """Run the full protocol against a prover model.

    Per copy: draw the sampling and test-type bits; the sampling branch
    stores system outcomes only when the reported clock is -1; the input-test
    branch updates N_in+ / N_in+0 on reported clock +1; the propagation
    branch picks X or Y uniformly and accumulates b*u. Estimators, the
    accept/reject decision, and the published samples go into the report.
    A starved estimator denominator rejects with a recorded reason rather
    than raising.
    """
    if model.lattice != lattice:
        raise DimensionMismatchError("model lattice differs from the protocol lattice")
    if model.input_spec != input_spec:
        raise DimensionMismatchError("model input spec differs from the protocol input")
    dists = mode_distributions(model)
    transcript = ProtocolTranscript(
        num_copies=config.num_copies,
        chunk_size=CHUNK_SIZE,
        master_seed=config.master_seed,
        eps=noise.measurement_flip_rate if noise is not None else 0.0,
        dists=dists,
        levels=aligned_edges(lattice),
        u_levels=zz_phase_levels(lattice, 1.0),
    )
    chunks = transcript._chunks()
    n_threads = resolve_threads(threads)
    if n_threads > 1 and len(chunks) > 1:
        # Imported here, so that a single-threaded run never loads it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            counters, samples = _merge(pool.map(transcript._reduce, chunks))
    else:
        counters, samples = _merge(map(transcript._reduce, chunks))
    report = _build_report(counters, samples, config, dists.num_system)
    return transcript, report


def _build_report(
    counters: Counters, samples: np.ndarray, config: ProtocolConfig, num_system: int
) -> EstimatorReport:
    reasons = []
    if counters.n_x == 0:
        reasons.append("no X-propagation copies")
    if counters.n_y == 0:
        reasons.append("no Y-propagation copies")
    if counters.n_in_plus == 0:
        reasons.append("no clock +1 input-test copies")
    if counters.n_input_test == 0:
        reasons.append("no input-test copies")

    o10_m = None
    o10_sq = None
    if counters.n_x > 0 and counters.n_y > 0:
        h_x = counters.s_xu / counters.n_x
        h_y = counters.s_yu / counters.n_y
        o10_m = (h_x - 1j * h_y) / 2.0
        o10_sq = 4.0 * abs(o10_m) ** 2
    f_in_m = counters.n_in_plus_0 / counters.n_in_plus if counters.n_in_plus > 0 else None
    p_samp_m = (
        counters.n_clock_minus / counters.n_input_test if counters.n_input_test > 0 else None
    )

    if reasons:
        accepted = False
        reason = "; ".join(reasons)
    else:
        accepted = decide(o10_sq, f_in_m, p_samp_m, config)
        reason = None
    return EstimatorReport(
        f_in_m=f_in_m,
        p_samp_m=p_samp_m,
        o10_m=o10_m,
        o10_sq_scaled=o10_sq,
        accepted=accepted,
        samples=samples,
        counters=counters,
        num_system=num_system,
        undefined_reason=reason,
    )
