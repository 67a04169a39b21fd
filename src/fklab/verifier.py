"""The verification protocol: branch selection, counters, estimators, decision.

Copies are processed in fixed 65536-copy chunks. Chunk c draws all of its
randomness from the substream (master_seed, TAG_COPIES, c) in a fixed layout.
One kernel measures a chunk MEASURE_BLOCK copies at a time, picking outcomes
only for the copies a branch measures, grouped by the table they draw from. A
run reduces the picks at once to integer counters, exact in any order, and
published samples, joined in chunk order, so results are byte-identical for any
thread count. No per-copy record is kept: the transcript is the model's tables
and the seed, and it re-measures chunk c, scattering the same picks into
per-copy columns, whenever its records are read.

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
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from .errors import CapacityError, ValidationError
from .lattice import InputSpec, LatticeGeometry
from .prover import HistoryStateModel, ModeDistributions, NoiseModel, mode_distributions
from .rng import TAG_COPIES, substream
from .simulator import aligned_edges, bitstring_blocks

CHUNK_SIZE = 1 << 16
# A chunk is measured this many copies at a time, so that the allocator keeps
# the kernel's temporaries (about 38 B a copy, 1.2 MiB a block: the tracemalloc
# peak of _reduce grows by that much per copy of block size) from one chunk to
# the next rather than returning them to the system and faulting them in
# again. 2^16-copy blocks have read up to 53k minor faults in one 3.5e6-copy
# 4x4 run, against 26-27k at 2^15.
MEASURE_BLOCK = 1 << 15
# A run holds its published samples, about a quarter of the copies at 4 B
# each, and _merge joins the per-chunk parts into a second array: a
# tracemalloc peak of 2.0 B per copy in run_protocol (2^22 copies, 2x2), and
# 3.0 B while cmd_run keeps the previous repetition's report. So about 256 MiB
# at the guard, 384 MiB across repetitions, within what the 26-qubit
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
    """Protocol accumulators. prop_counts counts the propagation copies by
    basis y (1 for Y), reported clock (minus for -1) and aligned-edge count k
    at 8 y + 4 minus + (k & 3); s_xu, s_yu, n_x and n_y come from it (_merge)."""

    s_xu: complex = 0.0 + 0.0j
    s_yu: complex = 0.0 + 0.0j
    n_x: int = 0
    n_y: int = 0
    n_in_plus: int = 0
    n_in_plus_0: int = 0
    n_total_sampling: int = 0
    n_clock_minus: int = 0
    prop_counts: tuple[int, ...] = (0,) * 16

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
        """The report's JSON fields; undefined_reason appears only when set,
        so a report whose estimators are all defined keeps its bytes."""
        data = {
            "f_in_m": self.f_in_m,
            "p_samp_m": self.p_samp_m,
            "o10_re": None if self.o10_m is None else self.o10_m.real,
            "o10_im": None if self.o10_m is None else self.o10_m.imag,
            "o10_sq_scaled": self.o10_sq_scaled,
            "accepted": self.accepted,
            "counters": self.counters.to_json_dict(),
        }
        if self.undefined_reason is not None:
            data["undefined_reason"] = self.undefined_reason
        return data

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
    u = e^{-i pi E/4}, E = 2k - edges, is g (-i)^k (_times_g), read at the
    outcome's aligned-edge count k (levels, the cached simulator.aligned_edges).
    """

    # Not a field: the report counted CHUNK_SIZE-copy chunks, so any other
    # size would re-measure different copies.
    chunk_size: ClassVar[int] = CHUNK_SIZE
    num_copies: int
    master_seed: int
    eps: float
    dists: ModeDistributions
    levels: np.ndarray
    edges: int

    def iter_records(self):
        for c in self._chunks():
            yield from self._records(c)

    def _chunks(self) -> range:
        """The chunk indices, in order."""
        return range(-(-self.num_copies // self.chunk_size))

    def _picks(self, chunk_index: int):
        """The one kernel: measure one chunk MEASURE_BLOCK copies at a time,
        picking outcomes only for the copies a branch measures.

        Each block yields (start, key, idx, picks, bounds). key is a & 15 of
        every copy: its code and, at bit 3, the reported clock of a sampling
        or input-test copy. idx holds the block offsets of the measured
        copies, split at the three bounds into four groups in copy order:
        sampling on true clock -1, input test on true clock +1, X and Y
        propagation. Group r draws from row r of the (4, 2^n) tables
        (MODE_ORDER): picks holds its outcomes j, Distribution.pick's
        arithmetic read off the copies' two raw words. With eps > 0, j also
        carries the flipped outcome bits and, at bit n, the clock flip: a
        propagation copy's reported clock; for the others, a flag that the
        reported clock is not the true one.
        """
        count = min(self.chunk_size, self.num_copies - chunk_index * self.chunk_size)
        n = self.dists.num_system
        rng = substream(self.master_seed, TAG_COPIES, chunk_index)
        words = rng.bit_generator.random_raw((2, count))
        if self.eps > 0.0:
            # Drawn one chunk-sized row of uniforms at a time, to keep the
            # temporaries of a chunk small.
            flips = np.zeros(count, dtype=np.int32)
            for k in range(n):
                flips |= (rng.random(count) < self.eps).astype(np.int32) << k
            clock_flips = rng.random(count) < self.eps
            flips |= clock_flips.astype(np.int32) << n
        alias, accept = self.dists.alias.reshape(-1), self.dists.accept.reshape(-1)
        for start in range(0, count, MEASURE_BLOCK):
            a, b = words[:, start : start + MEASURE_BLOCK]
            key = a.astype(np.uint8)
            key &= 15
            code = key & 7
            groups = [np.flatnonzero(g) for g in (key >= 12, key < 2, code == 2, code == 3)]
            idx = np.concatenate(groups)
            bounds = list(accumulate(g.size for g in groups[:3]))

            # Every table has 2^n bins, so int(u_bin * 2^n) is the top n bits of
            # a: Distribution.pick's clamp to 2^n - 1 never binds here. The uint64
            # shifts take np.uint64 counts, which numpy 1.x needs to keep them
            # uint64. Group r adds r 2^n to its own entries, so it reads row r.
            entry = (a[idx] >> np.uint64(64 - n)).view(np.int64)
            local = entry.astype(np.int32)
            for row, (lo, hi) in enumerate(zip(bounds, bounds[1:] + [idx.size]), 1):
                entry[lo:hi] += row << n
            u_coin = (b[idx] >> np.uint64(11)).astype(np.float64)
            u_coin *= 2.0**-53
            # j = local where the coin is below the bin's accept, else its
            # alias: an arithmetic select, far cheaper than np.where on a
            # random condition.
            j = np.take(alias, entry)
            local -= j
            local *= u_coin < np.take(accept, entry)
            j += local
            if self.eps > 0.0:
                j ^= flips[idx + start]
                key ^= clock_flips[start : start + MEASURE_BLOCK].view(np.uint8) << 3
            yield start, key, idx, j, bounds

    def _measure(self, chunk_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The code, clock and sys_idx columns of one chunk, with each block's
        picks scattered into them."""
        count = min(self.chunk_size, self.num_copies - chunk_index * self.chunk_size)
        n = self.dists.num_system
        code = np.empty(count, dtype=np.uint8)
        clock = np.empty(count, dtype=np.int8)
        sys_idx = np.full(count, -1, dtype=np.int32)
        for start, key, idx, picks, bounds in self._picks(chunk_index):
            block = slice(start, start + key.size)
            np.bitwise_and(key, 7, out=code[block])
            # The clock is 1 - 2 minus, computed in int8; a propagation copy's
            # minus is bit n of its pick.
            np.subtract(1, (key >> 3).view(np.int8) << 1, out=clock[block])
            idx += start
            prop = slice(bounds[1], None)
            clock[idx[prop]] = 1 - ((picks[prop] >> n) << 1)
            sys_idx[idx] = picks & ((1 << n) - 1)
        return code, clock, sys_idx

    def _reduce(self, chunk_index: int) -> tuple[Counters, np.ndarray]:
        """Counters and published samples of one chunk, reduced from each
        block's picks. A sampling copy is stored, and an input-test copy
        counts toward N_in+0, only while bit n of its pick (a flipped
        reported clock) is clear."""
        n = self.dists.num_system
        counters = Counters()
        samples, prop_counts = [], np.zeros(16, dtype=np.int64)
        for _, key, _, picks, (s, p, x) in self._picks(chunk_index):
            sampled, in_plus, prop = picks[:s], picks[s:p], picks[p:]
            n_sampling = int(np.count_nonzero(key & 4))
            # Without clock flips the reported clock is the true one, so N_in+
            # is the input group's size.
            n_in_plus = p - s if self.eps == 0.0 else int(np.count_nonzero(key < 2))
            counters.n_total_sampling += n_sampling
            counters.n_in_plus += n_in_plus
            counters.n_clock_minus += key.size - n_sampling - n_in_plus - prop.size
            counters.n_in_plus_0 += int(np.count_nonzero(in_plus == 0))
            if self.eps > 0.0:
                sampled = sampled[(sampled >> n) == 0]
            samples.append(sampled)
            cell = np.take(self.levels, prop & ((1 << n) - 1)) & 3
            cell |= (prop >> n << 2).astype(np.uint8)
            cell[x - p :] |= 8
            prop_counts += np.bincount(cell, minlength=16)
        counters.prop_counts = tuple(prop_counts.tolist())
        return counters, np.concatenate(samples, dtype=np.uint32, casting="unsafe")

    def _records(self, chunk_index: int):
        """JSON-ready records of one chunk, built from list columns."""
        code, clock, sys_idx = self._measure(chunk_index)
        start = chunk_index * self.chunk_size
        blocks = bitstring_blocks(sys_idx[sys_idx >= 0], self.dists.num_system)
        outcomes = (z for block in blocks for z in block.split("\n"))
        pairs = [(u.real, u.imag) for u in (_times_g(self.edges, *z) for z in _MINUS_I_POWERS)]
        u_pairs = map(pairs.__getitem__, (self.levels[sys_idx[(code >> 1) == 1]] & 3).tolist())
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


_BASIS_NAMES = {2: "X", 3: "Y"}
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^r, r = 0..3, as (re, im)


def _times_g(edges: int, re: int, im: int) -> complex:
    """g (re + i im), g = e^{i pi edges/4}, from integer components: exact
    for even edges (g = 1, i, -1, -i), one product by sqrt(1/2) for odd."""
    re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[edges // 2 % 4]
    if edges % 2:
        return complex(np.sqrt(0.5) * (re - im), np.sqrt(0.5) * (re + im))
    return complex(re, im)


def _merge(partials, edges: int) -> tuple[Counters, np.ndarray]:
    """Sum per-chunk counters, all integers, so exact in any order, and join
    their samples in chunk order. s_xu, s_yu, n_x and n_y, zero in a partial,
    come from the merged counts: g times the sum of clock (-i)^k per basis."""
    total, counts = Counters(), np.zeros(16, dtype=np.int64)
    samples = [np.zeros(0, dtype=np.uint32)]
    for counters, chunk_samples in partials:
        for name in ("n_in_plus", "n_in_plus_0", "n_total_sampling", "n_clock_minus"):
            setattr(total, name, getattr(total, name) + getattr(counters, name))
        counts += counters.prop_counts
        samples.append(chunk_samples)
    total.prop_counts = tuple(counts.tolist())
    plus, minus = counts.reshape(2, 2, 4).transpose(1, 0, 2)  # [clock][basis, k & 3]
    total.n_x, total.n_y = (plus + minus).sum(axis=1).tolist()
    total.s_xu, total.s_yu = (_times_g(edges, *z) for z in (plus - minus) @ _MINUS_I_POWERS)
    return total, np.concatenate(samples)


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
        raise ValidationError("model lattice differs from the protocol lattice")
    if model.input_spec != input_spec:
        raise ValidationError("model input spec differs from the protocol input")
    dists = mode_distributions(model)
    transcript = ProtocolTranscript(
        num_copies=config.num_copies,
        master_seed=config.master_seed,
        eps=noise.measurement_flip_rate if noise is not None else 0.0,
        dists=dists,
        levels=aligned_edges(lattice),
        edges=lattice.num_edges,
    )
    chunks = transcript._chunks()
    n_threads = resolve_threads(threads)
    if n_threads > 1 and len(chunks) > 1:
        # Imported here, so that a single-threaded run never loads it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            counters, samples = _merge(pool.map(transcript._reduce, chunks), transcript.edges)
    else:
        counters, samples = _merge(map(transcript._reduce, chunks), transcript.edges)
    return transcript, _build_report(counters, samples, config, dists.num_system)


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

    o10_m = o10_sq = None
    if counters.n_x > 0 and counters.n_y > 0:
        h_x = counters.s_xu / counters.n_x
        h_y = counters.s_yu / counters.n_y
        o10_m = (h_x - 1j * h_y) / 2.0
        o10_sq = 4.0 * abs(o10_m) ** 2
    f_in_m = counters.n_in_plus_0 / counters.n_in_plus if counters.n_in_plus > 0 else None
    p_samp_m = (
        counters.n_clock_minus / counters.n_input_test if counters.n_input_test > 0 else None
    )
    return EstimatorReport(
        f_in_m=f_in_m,
        p_samp_m=p_samp_m,
        o10_m=o10_m,
        o10_sq_scaled=o10_sq,
        accepted=not reasons and decide(o10_sq, f_in_m, p_samp_m, config),
        samples=samples,
        counters=counters,
        num_system=num_system,
        undefined_reason="; ".join(reasons) or None,
    )
