"""Exact statevector kernels for ZZ-lattice simulations.

Conventions, fixed package-wide:
  * basis index bit k is qubit k (little-endian), so qubit indices coincide
    with lattice indices;
  * spin convention |0> -> z = +1, |1> -> z = -1;
  * the diagonal coupling phase of a basis string z under time-t evolution is
    exp(-i * t * (pi/4) * sum_{edges} z_i z_j).

The public operations return fresh states and never mutate their inputs.
The `_`-prefixed kernels work in place on an amplitude array, so a state is
built and evolved in one buffer: _write_product_state fills it by doubling
from one 2-entry state per qubit (_input_states, with any R_z tilt taken
into each, and the echo's |+> clock), _multiply_by_levels multiplies it by
per-string phases 2^16 entries at a time, the Hadamard butterflies apply
each run of low qubits to one cache-sized block at a time
(_block_butterflies), and the butterflies at high qubits and the half swap
sweep it one cache-sized block of amplitude pairs at a time (_pair_blocks).
zz_phases, the whole 2^n diagonal, stays for the analysis oracles.

A string z enters every diagonal phase through two small integers: its
Hamming weight w (hamming_weights, int8) and its count k of aligned edges
(aligned_edges, uint8), with interaction energy E = 2k - edges. A phase
table has one entry per level, n + 1 by weight or edges + 1 by k, and
_multiply_by_levels gathers it per string. That one kernel applies every
diagonal that is no product of single-qubit phases, in place: the coupling
phases by k, and the echo's global controlled Z, a sign table (-1)^w on the
clock-1 half.

bitstring_blocks formats outcome indices as text lines, for the sample file
and the transcript alike: each block's lines are written in place in one
record array, one gather per index byte from a 256-entry table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby

import numpy as np

from .errors import CapacityError, ValidationError
from .lattice import InputSpec, InputType, LatticeGeometry

# Full statevectors are held up to 2^26 amplitudes.
MAX_STATE_QUBITS = 26

NORM_ATOL = 1e-10

# Single-qubit input states (Z evolution absorbed), amplitudes of modulus 1/sqrt(2).
X_STATE = np.array([0.5 * (1 + 1j), 0.5 * (1 - 1j)], dtype=np.complex128)
Y_STATE = np.array([0.5 * (1 + 1j), np.exp(-1j * np.pi / 4) * 0.5 * (1 - 1j)], dtype=np.complex128)

_SINGLE_QUBIT_STATES = {InputType.X_TYPE: X_STATE, InputType.Y_TYPE: Y_STATE}


@dataclass
class PureState:
    """Statevector over `num_qubits` qubits, normalized to within 1e-10."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValidationError(
                f"expected {1 << self.num_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        # A float view summed by einsum: no BLAS call, so the bits and the
        # time of the check do not depend on the BLAS thread count.
        view = np.ascontiguousarray(self.amplitudes).view(np.float64)
        norm_sq = float(np.einsum("i,i->", view, view))
        # Negated so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= NORM_ATOL:
            raise ValidationError(f"state norm^2 = {norm_sq!r}, not 1 within {NORM_ATOL}")


def product_state(spec: InputSpec) -> PureState:
    """Tensor product of the per-qubit input states, qubit 0 at bit 0, built
    in one 2^n buffer by _write_product_state."""
    amps = np.empty(1 << spec.num_qubits, dtype=np.complex128)
    _write_product_state(amps, _input_states(spec))
    return PureState(spec.num_qubits, amps)


def _input_states(spec: InputSpec, tilt: float = 0.0) -> list[np.ndarray]:
    """The single-qubit input states of `spec`, qubit 0 first, each with an
    R_z(tilt) = diag(e^{-it/2}, e^{+it/2}) error taken entry by entry. At
    tilt 0 no product is taken, so the ideal states keep their bits."""
    states = [_SINGLE_QUBIT_STATES[kind] for kind in spec.choices]
    if tilt != 0.0:
        rz = np.exp(1j * (tilt / 2.0) * np.array([-1.0, 1.0]))
        states = [state * rz for state in states]
    return states


def _write_product_state(amps: np.ndarray, states) -> None:
    """Write the product of the 2-entry single-qubit `states`, qubit 0 first,
    into `amps`, a complex128 array of 2^len(states) entries, by doubling:
    with the first m = 2^k entries holding qubits 0..k-1, qubit k's state s
    sets amps[m:2m] = s[1] amps[:m], then amps[:m] = s[0] amps[:m].

    Each product takes the state entry first, in np.kron's broadcast form,
    so every amplitude is bit for bit that of the np.kron chain.
    """
    amps[0] = 1.0
    for k, state in enumerate(states):
        m = 1 << k
        np.multiply(state[1:2, None], amps[None, :m], out=amps[None, m : 2 * m])
        np.multiply(state[0:1, None], amps[None, :m], out=amps[None, :m])


# The phase kernel sweeps a register this many basis strings at a time, so
# its temporaries stay near 1 MiB whatever the register size.
STRING_BLOCK = 1 << 16


@lru_cache(maxsize=8)
def aligned_edges(lattice: LatticeGeometry) -> np.ndarray:
    """k(z), the number of edges whose two bits agree, for every basis
    string, as a read-only uint8 array (k <= 40 edges under the 26-qubit
    guard). A string's interaction energy sum_{edges} z_i z_j is 2k - edges.

    Built by doubling, as hamming_weights is: with the first 2^q counts
    holding the edges among qubits 0..q-1, the strings with qubit q set copy
    them, and each edge (i, q), i < q, adds 1 where bit i equals bit q: in
    the lower half where bit i is 0, in the upper half where it is 1.
    """
    n = lattice.num_qubits
    if n > MAX_STATE_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_STATE_QUBITS}-qubit guard")
    aligned = np.zeros(1 << n, dtype=np.uint8)
    for q in range(n):
        lower, upper = aligned[: 1 << q], aligned[1 << q : 2 << q]
        upper[...] = lower
        for i, j in lattice.edges:
            if j == q:
                lower.reshape(-1, 2, 1 << i)[:, 0] += 1
                upper.reshape(-1, 2, 1 << i)[:, 1] += 1
    aligned.flags.writeable = False
    return aligned


@lru_cache(maxsize=8)
def hamming_weights(num_qubits: int) -> np.ndarray:
    """Set bits of every basis index, as a read-only int8 array built by doubling."""
    if num_qubits > MAX_STATE_QUBITS:
        raise CapacityError(f"{num_qubits} qubits exceeds the {MAX_STATE_QUBITS}-qubit guard")
    weight = np.zeros(1 << num_qubits, dtype=np.int8)
    for k in range(num_qubits):
        np.add(weight[: 1 << k], 1, out=weight[1 << k : 2 << k])
    weight.flags.writeable = False
    return weight


@lru_cache(maxsize=8)
def level_counts(lattice: LatticeGeometry) -> np.ndarray:
    """counts[w, k], the number of basis strings of weight w and k aligned
    edges (interaction energy 2k - edges): a read-only int64 (n+1, edges+1)
    grid."""
    shape = (lattice.num_qubits + 1, lattice.num_edges + 1)
    counts = np.bincount(string_levels(lattice), minlength=shape[0] * shape[1]).reshape(shape)
    counts.flags.writeable = False
    return counts


def string_levels(lattice: LatticeGeometry) -> np.ndarray:
    """Each basis string's flat index w (edges+1) + k into level_counts, as int16."""
    level = hamming_weights(lattice.num_qubits).astype(np.int16)
    level *= lattice.num_edges + 1
    level += aligned_edges(lattice)
    return level


def zz_phases(lattice: LatticeGeometry, time: float) -> np.ndarray:
    """Diagonal of the time-t coupling evolution over the lattice register,
    gathered from zz_phase_levels(lattice, time) at each string's k."""
    return zz_phase_levels(lattice, time)[aligned_edges(lattice)]


def zz_phase_levels(lattice: LatticeGeometry, time: float) -> np.ndarray:
    """The time-t coupling phases by aligned-edge count: entry k is
    e^{-i t pi E/4} with E = 2k - edges, the phase of every string with k
    aligned edges.

    The scalar is -1j * (t * pi/4), so a time near the float limit does not
    overflow, and it multiplies the int16 energy level as it would the int16
    energy of one string: each phase is the per-string product, bit for bit.
    """
    edges = lattice.num_edges
    return np.exp((-1j * (time * (np.pi / 4))) * np.arange(-edges, edges + 1, 2, dtype=np.int16))


def _multiply_by_levels(
    amps: np.ndarray, table: np.ndarray, index: np.ndarray, table_first: bool
) -> None:
    """Multiply `amps` in place by table[index], one STRING_BLOCK at a time:
    each block's factors are gathered from the small per-level `table` at
    the block's entries of the per-string `index` (aligned_edges or
    hamming_weights). Complex products are not bitwise commutative, so the
    caller fixes the operand order: table first or amplitude first.
    """
    block = min(amps.size, STRING_BLOCK)
    factors = np.empty(block, dtype=np.complex128)
    for start in range(0, amps.size, block):
        part = amps[start : start + block]
        np.take(table, index[start : start + block], out=factors, mode="clip")
        if table_first:
            np.multiply(factors, part, out=part)
        else:
            np.multiply(part, factors, out=part)


# The pair kernels sweep a state this many amplitude pairs at a time, so
# their temporary is 256 KiB and a block's working set stays in a core's cache.
PAIR_BLOCK = 1 << 14


def _pair_blocks(a: np.ndarray, qubit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Flat views (s0, s1) of the amplitudes of `a` whose `qubit` bit is 0
    and 1, in blocks of min(PAIR_BLOCK, 2^qubit) pairs, in index order: s1
    holds the partners of s0, element for element.
    """
    stride = 1 << qubit
    block = min(stride, PAIR_BLOCK)
    for row in a.reshape(-1, 2, stride // block, block):
        yield from zip(row[0], row[1])


def _block_temporary(a: np.ndarray) -> np.ndarray:
    """One complex temporary of one _pair_blocks block of `a` at its top
    qubit, or at any qubit from log2(PAIR_BLOCK) up."""
    return np.empty(min(a.size >> 1, PAIR_BLOCK), dtype=np.complex128)


# A Hadamard layer applies each run of qubits below this bit to one block of
# 2^15 amplitudes (512 KiB) at a time, so the block and its two ping-pong
# buffers stay in a core's cache for the whole run.
HADAMARD_BLOCK_BITS = 15
# numpy adds two strided views at full speed only where its inner loop gets
# long: runs of at least 4096 contiguous elements, or runs of one element,
# which it merges into one strided loop. At bit position p a block's pair
# halves are runs of 2^p amplitudes, 2^(p+1) float64 parts, so a butterfly
# runs at bit 0 or, on float views, at the top four positions of a 2^15
# block: 38-44 us there against 90-300 us at positions 1-10 (numpy 2.4, one
# core of a 2-vCPU x86-64 host).
_FAST_TOP_POSITIONS = 4


def _hadamard_butterflies(a: np.ndarray, qubits) -> None:
    """At each of `qubits`, in order, overwrite each amplitude pair (e, o) of
    `a` with (e + o, e - o). Nothing is scaled: H on m qubits is these
    butterflies times 2^(-m/2).

    Each maximal run of qubits below HADAMARD_BLOCK_BITS takes one sweep:
    block by block, every qubit of the run through two block buffers
    (_block_steps, _block_butterflies). Each qubit at or above it takes one
    _pair_blocks sweep through one block temporary. Every amplitude sees
    the same sums in the same order as in one sweep per qubit, so the
    result is the same bits.
    """
    bits = min(HADAMARD_BLOCK_BITS, a.size.bit_length() - 1)
    total = _block_temporary(a)
    for below, run in groupby(qubits, key=lambda k: k < bits):
        if below:
            _block_butterflies(a, _block_steps(run, bits), bits)
            continue
        for k in run:
            for even, odd in _pair_blocks(a, k):
                np.add(even, odd, out=total)
                np.subtract(even, odd, out=odd)
                even[...] = total


def _block_steps(run, bits: int) -> list:
    """The out-of-place steps that apply the butterflies of `run`, in order,
    to one block of 2^bits amplitudes. Block bit k sits at position
    (k + shift) % bits: shift starts at 0, and a qubit outside bit 0 and the
    top _FAST_TOP_POSITIONS positions is first rotated to the lowest of
    those, so the next four qubits up land in them too. The last step
    rotates the block back to shift 0.
    """
    steps, shift, lowest = [], 0, bits - _FAST_TOP_POSITIONS
    for k in run:
        if 0 < (k + shift) % bits < lowest:
            steps.append(partial(_rotate_bits, shift=(lowest - k - shift) % bits))
            shift = (lowest - k) % bits
        steps.append(partial(_butterfly, position=(k + shift) % bits))
    if shift:
        steps.append(partial(_rotate_bits, shift=-shift % bits))
    return steps


def _block_butterflies(a: np.ndarray, steps: list, bits: int) -> None:
    """Run `steps` on each 2^bits block of `a` in turn: each step reads one
    buffer and writes the next, the two spare buffers in turn, and the
    last step writes the block itself (a lone step goes through a spare
    and is copied back)."""
    spares = np.empty((2, 1 << bits), dtype=np.complex128)
    for block in a.reshape(-1, 1 << bits):
        src = block
        for i, step in enumerate(steps):
            dst = block if i == len(steps) - 1 and src is not block else spares[i & 1]
            step(src, dst)
            src = dst
        if src is not block:
            block[...] = src


def _rotate_bits(src: np.ndarray, dst: np.ndarray, shift: int) -> None:
    """dst = src with each bit position p of the index moved to
    (p + shift) % bits: one transposed copy."""
    low = src.size >> shift
    np.copyto(dst.reshape(low, -1), src.reshape(-1, low).T)


def _butterfly(src: np.ndarray, dst: np.ndarray, position: int) -> None:
    """The butterflies at one bit position, from src into dst: each pair's
    sum goes to dst's 0 half and its difference to the 1 half. Above bit 0
    they run on float64 views, whose part-by-part sums are the complex sums
    bit for bit, in rows twice as long."""
    width = 1 << position
    if position:
        src, dst, width = src.view(np.float64), dst.view(np.float64), 2 * width
    pairs, out = src.reshape(-1, 2, width), dst.reshape(-1, 2, width)
    np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
    np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])


def _swap_halves_inplace(a: np.ndarray) -> None:
    """X on the top qubit of `a`: the two halves trade places block by block
    through one block temporary, an exact permutation."""
    held = _block_temporary(a)
    for lower, upper in _pair_blocks(a, a.size.bit_length() - 2):
        held[...] = lower
        lower[...] = upper
        upper[...] = held


def walsh_hadamard(state: PureState) -> PureState:
    """Apply H on every qubit (O(n 2^n)): one copy of the state, the
    butterflies at every qubit in place, and the 2^(-n/2) scale last."""
    n = state.num_qubits
    a = state.amplitudes.copy()
    _hadamard_butterflies(a, range(n))
    a *= 2.0 ** (-0.5 * n)
    return PureState(n, a)


def _vose_build(
    probabilities: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table (alias index J, acceptance threshold q) in closed form.

    The table is written into `out`, an (int32, float64) pair of arrays of the
    table's size, when one is given, and into new arrays of those types
    otherwise: every alias is a bin index, below 2^26 under the 26-qubit
    guard.

    This is the sweep construction (Vose 1991): the smalls (scaled < 1) and
    the larges (scaled >= 1) are each taken in index order. With D_k the
    smalls' cumulative deficit 1 - scaled and S_j the larges' cumulative
    excess scaled - 1, small k keeps q = scaled and aliases the first large
    j with S_j >= D_{k-1}. Large j (all but the last) tips at the first
    small k with D_k > S_j: it keeps q = 1 + S_j - D_k and aliases large
    j+1. Every other bin keeps q = 1 and aliases itself. Bins alias only
    larges, so a zero-probability bin (q = 0) is never drawn.

    Every deficit and excess is a multiple of 2^-53, so 1 + S_j - D_k is
    taken from exact prefix sums: the mass large j keeps and the deficits
    it covers then add up to its scaled probability to within rounding of
    q itself, however many smalls it covers. Each side is summed in uint64
    as 2^-53 units (whole part << 53 plus fraction * 2^53), so modulo 2^64;
    S_j - D_k lies within about +-2^53 units, so the wrapped difference
    read as int64 is exact. The pairing is decided on the rounded prefix
    sums, which are non-decreasing.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    size = p.size
    if out is None:
        out = (np.empty(size, dtype=np.int32), np.empty(size, dtype=np.float64))
    alias, accept = out
    alias[...] = np.arange(size)
    # The scaled law is built in accept, where the smalls keep it as q.
    np.multiply(p, size, out=accept)
    small = np.flatnonzero(accept < 1.0)
    large = np.flatnonzero(accept >= 1.0)
    if small.size == 0 or large.size == 0:
        accept[...] = 1.0
        return alias, accept
    deficit = 1.0 - accept[small]
    excess = accept[large] - 1.0
    accept[large] = 1.0
    d_sum = np.cumsum(deficit)
    s_sum = np.cumsum(excess)

    # Rounding can leave D_{k-1} above S of the last large; it absorbs the rest.
    donor = np.searchsorted(s_sum, np.concatenate(([0.0], d_sum[:-1])), side="left")
    alias[small] = large[np.minimum(donor, large.size - 1, out=donor)]

    tip = np.searchsorted(d_sum, s_sum[:-1], side="right")
    j = np.flatnonzero(tip < small.size)
    k = tip[j]
    # Freed before the exact sums are taken, which is where set-up peaks.
    del donor, d_sum, s_sum, tip
    d_units, s_units = (
        np.cumsum((np.floor(x).astype(np.uint64) << np.uint64(53)) + ((x % 1.0) * 2.0**53).astype(np.uint64))
        for x in (deficit, excess)
    )
    kept = 1.0 + (s_units[j] - d_units[k]).view(np.int64) * 2.0**-53
    # Where the rounded pairing and the exact sums disagree in the last bit,
    # kept can leave [0, 1] by that bit.
    accept[large[j]] = np.clip(kept, 0.0, 1.0)
    alias[large[j]] = large[j + 1]
    return alias, accept


@dataclass
class Distribution:
    """Discrete distribution over n-bit outcomes, held as its alias table.

    Sampling costs two uniforms per draw regardless of the support size.
    Outcomes are integer indices; bit k of an index is qubit k's bit. Bin i
    keeps i with probability accept[i] and otherwise draws alias[i]; alias
    is int32 (an outcome below 2^27 under the 26-qubit guard). The
    table may have fewer bins than there are outcomes, when its aliases
    reach outcomes that no bin keeps: pick draws its bin among alias.size.
    """

    num_bits: int
    alias: np.ndarray
    accept: np.ndarray

    @classmethod
    def from_probabilities(cls, num_bits: int, probabilities, out=None) -> Distribution:
        """The Vose table of a law over 2^num_bits outcomes, written into `out`
        (see _vose_build) when one is given."""
        p = np.asarray(probabilities, dtype=np.float64)
        if p.shape != (1 << num_bits,):
            raise ValidationError(f"expected {1 << num_bits} probabilities, got {p.shape}")
        # Negated so that NaN probabilities fail too.
        if not np.all(p >= -1e-12):
            raise ValidationError("negative or NaN probability")
        total = float(p.sum())
        if not abs(total - 1.0) <= NORM_ATOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1 within {NORM_ATOL}")
        return cls(num_bits, *_vose_build(p, out))

    @property
    def probabilities(self) -> np.ndarray:
        """The law the table draws: bin i's 1/size share split between i and
        alias[i], computed on each access. Each outcome's leftovers are summed
        pairwise (np.add.reduceat), so ~10^5 of them still round to ~1e-16."""
        order = np.argsort(self.alias, kind="stable")
        targets = self.alias[order]
        starts = np.flatnonzero(np.diff(targets, prepend=-1))
        law = np.zeros(1 << self.num_bits)
        law[targets[starts]] = np.add.reduceat((1.0 - self.accept)[order], starts)
        law[: self.alias.size] += self.accept
        return law / self.alias.size

    def pick(self, u_bin: np.ndarray, u_coin: np.ndarray) -> np.ndarray:
        """Map pairs of uniforms in [0,1) to outcome indices (vectorized)."""
        size = self.alias.size
        u_bin = np.asarray(u_bin)
        u_coin = np.asarray(u_coin)
        bins = np.minimum((u_bin * size).astype(np.int64), size - 1)
        return np.where(u_coin < self.accept[bins], bins, self.alias[bins])


# Indices are formatted in blocks of this many, so the temporaries stay near
# 1 MiB whatever the input size.
FORMAT_BLOCK = 1 << 16
# Row b holds the bits of byte b, least significant first, as eight ASCII
# '0'/'1' bytes: 2 KiB, so the gathers read it from cache.
_BYTE_CHARS = (((np.arange(256)[:, None] >> np.arange(8)) & 1) + ord("0")).astype(np.uint8)


def bitstring_blocks(indices, num_bits: int) -> Iterator[str]:
    """Format outcome indices in [0, 2^num_bits), num_bits <= 32, as bit
    strings, qubit 0 first.

    Each FORMAT_BLOCK indices yield one str: their bit strings joined by
    "\\n", with no trailing newline. Empty input yields nothing.

    Each line is written in place in a record of num_bits + 1 bytes: index
    byte k gathers its characters into the field at offset 8k, one void item
    per byte value from the first w columns of _BYTE_CHARS (w = 8, less in
    the last piece when 8 does not divide num_bits), and the last byte is
    the newline. A block's records are then decoded at once into its str.
    """
    indices = np.asarray(indices)
    starts = range(0, num_bits, 8)
    widths = [min(8, num_bits - s) for s in starts]
    tables = [np.ascontiguousarray(_BYTE_CHARS[:, :w]).view(f"V{w}").ravel() for w in widths]
    record = np.dtype(
        {
            "names": [*(f"bits{s}" for s in starts), "newline"],
            "formats": [*(t.dtype for t in tables), np.uint8],
            "offsets": [*starts, num_bits],
            "itemsize": num_bits + 1,
        }
    )
    # Reused from block to block: each str is a copy.
    records = np.empty(min(indices.size, FORMAT_BLOCK), dtype=record)
    records["newline"] = ord("\n")
    for start in range(0, indices.size, FORMAT_BLOCK):
        block = np.ascontiguousarray(indices[start : start + FORMAT_BLOCK], dtype="<u4")
        index_bytes = block.view(np.uint8).reshape(-1, 4).T
        lines = records[: block.size]
        for name, table, index_byte in zip(record.names, tables, index_bytes):
            lines[name] = np.take(table, index_byte)
        yield str(memoryview(lines.view(np.uint8)[:-1]), "ascii")


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, global-phase invariant. The overlap is summed in a fixed
    order in blocks of 2^16 amplitudes (1 MiB temporaries), so it does not
    depend on the BLAS thread count as np.vdot's order does."""
    if a.num_qubits != b.num_qubits:
        raise ValidationError("states have different sizes")
    overlap = 0j
    for start in range(0, a.amplitudes.size, 1 << 16):
        block = slice(start, start + (1 << 16))
        overlap += np.sum(np.conjugate(a.amplitudes[block]) * b.amplitudes[block])
    return float(abs(overlap) ** 2)
