"""The verification protocol: branch selection, counters, estimators, decision.

Copies are processed in fixed 65536-copy chunks. Chunk c draws all of its
randomness from the substream (master_seed, TAG_COPIES, c) in a fixed layout,
and counter reduction is numpy's pairwise sum within a chunk followed by a
sequential merge in chunk order, so results are byte-identical for any thread
count. Per-chunk counters are computed FROM the transcript columns through a
shared helper, which makes the report reproducible from the transcript
bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .lattice import InputSpec, LatticeGeometry
from .prover import HistoryStateModel, NoiseModel, mode_distributions
from .rng import TAG_COPIES, substream
from .simulator import bitstring

CHUNK_SIZE = 1 << 16

BASIS_X = 0
BASIS_Y = 1
BASIS_NONE = -1


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
    num_copies: int
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

    def sample_bitstrings(self) -> list[str]:
        return [bitstring(int(x), self.num_system) for x in self.samples]


@dataclass
class ProtocolTranscript:
    """Columnar per-copy records.

    basis is BASIS_X/BASIS_Y for propagation copies, BASIS_NONE otherwise;
    sys_idx is -1 when no system measurement happened; clock holds the
    reported clock outcome. A propagation copy's u is u_table[sys_idx], looked
    up when it is read rather than stored.
    """

    num_copies: int
    num_system: int
    chunk_size: int
    b_sampling: np.ndarray
    b_testtype: np.ndarray
    basis: np.ndarray
    clock: np.ndarray
    sys_idx: np.ndarray
    u_table: np.ndarray

    def record(self, i: int) -> dict:
        has_sys = self.sys_idx[i] >= 0
        prop = self.basis[i] != BASIS_NONE
        u = self.u_table[self.sys_idx[i]] if prop else None
        return {
            "copy_index": i,
            "b_sampling": int(self.b_sampling[i]),
            "b_testtype": int(self.b_testtype[i]),
            "basis_choice": {BASIS_X: "X", BASIS_Y: "Y", BASIS_NONE: None}[int(self.basis[i])],
            "clock_outcome": int(self.clock[i]),
            "system_outcomes": bitstring(int(self.sys_idx[i]), self.num_system) if has_sys else None,
            "u": None if u is None else [u.real, u.imag],
        }

    def iter_records(self):
        for i in range(self.num_copies):
            yield self.record(i)

    def recompute_counters(self) -> tuple[Counters, np.ndarray]:
        """Re-derive counters and samples with the run's exact reduction order."""
        partials = []
        for start in range(0, self.num_copies, self.chunk_size):
            stop = min(start + self.chunk_size, self.num_copies)
            sl = slice(start, stop)
            partials.append(
                _chunk_counters(
                    self.b_sampling[sl],
                    self.b_testtype[sl],
                    self.basis[sl],
                    self.clock[sl],
                    self.sys_idx[sl],
                    self.u_table,
                )
            )
        return _merge_partials(partials)


@dataclass
class _ChunkPartial:
    counters: Counters
    samples: np.ndarray


def _chunk_counters(b_sampling, b_testtype, basis, clock, sys_idx, u_table) -> _ChunkPartial:
    """Counter updates for one chunk of transcript columns."""
    samp = b_sampling.astype(bool)
    input_test = (~samp) & (~b_testtype.astype(bool))
    has_sys = sys_idx >= 0

    stored = samp & (clock == -1) & has_sys
    samples = sys_idx[stored].astype(np.uint32)

    in_plus = input_test & (clock == 1)
    counters = Counters(
        n_total_sampling=int(samp.sum()),
        n_clock_minus=int((input_test & (clock == -1)).sum()),
        n_in_plus=int(in_plus.sum()),
        n_in_plus_0=int((in_plus & has_sys & (sys_idx == 0)).sum()),
    )
    for basis_code in (BASIS_X, BASIS_Y):
        sel = basis == basis_code
        contrib = complex(np.sum(clock[sel].astype(np.float64) * u_table[sys_idx[sel]]))
        if basis_code == BASIS_X:
            counters.s_xu = contrib
            counters.n_x = int(sel.sum())
        else:
            counters.s_yu = contrib
            counters.n_y = int(sel.sum())
    return _ChunkPartial(counters=counters, samples=samples)


def _merge_partials(partials: list[_ChunkPartial]) -> tuple[Counters, np.ndarray]:
    total = Counters()
    for part in partials:
        c = part.counters
        total.s_xu += c.s_xu
        total.s_yu += c.s_yu
        total.n_x += c.n_x
        total.n_y += c.n_y
        total.n_in_plus += c.n_in_plus
        total.n_in_plus_0 += c.n_in_plus_0
        total.n_total_sampling += c.n_total_sampling
        total.n_clock_minus += c.n_clock_minus
    if partials:
        samples = np.concatenate([p.samples for p in partials])
    else:
        samples = np.zeros(0, dtype=np.uint32)
    return total, samples


def _process_chunk(dists, master_seed: int, chunk_index: int, count: int, eps: float):
    """Generate one chunk of copies: transcript columns plus counter partial."""
    n = dists.num_system
    rng = substream(master_seed, TAG_COPIES, chunk_index)
    u_rand = rng.random((6, count))
    flips = rng.random((count, n + 1)) if eps > 0.0 else None

    b_sampling = (u_rand[0] < 0.5).astype(np.uint8)
    b_testtype = (u_rand[1] < 0.5).astype(np.uint8)
    samp = b_sampling.astype(bool)
    prop = (~samp) & b_testtype.astype(bool)
    input_test = (~samp) & (~b_testtype.astype(bool))
    basis = np.full(count, BASIS_NONE, dtype=np.int8)
    basis[prop] = np.where(u_rand[2][prop] < 0.5, BASIS_X, BASIS_Y)

    clock = np.zeros(count, dtype=np.int8)
    sys_idx = np.full(count, -1, dtype=np.int64)

    z_branch = samp | input_test
    true_minus = z_branch & (u_rand[3] < dists.p_clock_minus)
    clock[z_branch] = np.where(true_minus[z_branch], -1, 1)

    samp_measured = samp & true_minus
    if samp_measured.any():
        sys_idx[samp_measured] = dists.sample_given_minus.pick(
            u_rand[4][samp_measured], u_rand[5][samp_measured]
        )
    input_measured = input_test & ~true_minus
    if input_measured.any():
        sys_idx[input_measured] = dists.input_given_plus.pick(
            u_rand[4][input_measured], u_rand[5][input_measured]
        )
    for basis_code, joint in ((BASIS_X, dists.prop_x), (BASIS_Y, dists.prop_y)):
        sel = basis == basis_code
        if sel.any():
            j = joint.pick(u_rand[4][sel], u_rand[5][sel])
            clock[sel] = np.where(j >> n, -1, 1)
            sys_idx[sel] = j & ((1 << n) - 1)

    if flips is not None:
        clock = (clock * np.where(flips[:, n] < eps, -1, 1)).astype(np.int8)
        flip_bits = ((flips[:, :n] < eps) << np.arange(n)).sum(axis=1).astype(np.int64)
        measured = sys_idx >= 0
        sys_idx = np.where(measured, sys_idx ^ flip_bits, sys_idx)

    partial = _chunk_counters(b_sampling, b_testtype, basis, clock, sys_idx, dists.u_table)
    columns = (b_sampling, b_testtype, basis, clock, sys_idx)
    return columns, partial


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
    """Thread cap: explicit argument, else FKLAB_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("FKLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"FKLAB_THREADS must be an integer, got {env!r}") from exc
    return 1


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
    eps = noise.measurement_flip_rate if noise is not None else 0.0
    n_m = config.num_copies

    n_chunks = (n_m + CHUNK_SIZE - 1) // CHUNK_SIZE
    sizes = [min(CHUNK_SIZE, n_m - c * CHUNK_SIZE) for c in range(n_chunks)]

    def worker(c: int):
        return _process_chunk(dists, config.master_seed, c, sizes[c], eps)

    n_threads = resolve_threads(threads)
    if n_threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(worker, range(n_chunks)))
    else:
        results = [worker(c) for c in range(n_chunks)]

    def col(i, dtype):
        if not results:
            return np.zeros(0, dtype=dtype)
        return np.concatenate([r[0][i] for r in results]).astype(dtype, copy=False)

    transcript = ProtocolTranscript(
        num_copies=n_m,
        num_system=dists.num_system,
        chunk_size=CHUNK_SIZE,
        b_sampling=col(0, np.uint8),
        b_testtype=col(1, np.uint8),
        basis=col(2, np.int8),
        clock=col(3, np.int8),
        sys_idx=col(4, np.int32),
        u_table=dists.u_table,
    )
    counters, samples = _merge_partials([r[1] for r in results])
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
        num_copies=config.num_copies,
        num_system=num_system,
        undefined_reason=reason,
    )
