"""Square-lattice geometry, checkerboard bipartition, and random input choices.

Qubit indexing is row-major: cell (r, c) maps to index r*cols + c. The
non-filled sublattice (cells with r+c odd) forms partition B; every
nearest-neighbor edge has exactly one endpoint in B.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError


class InputType(Enum):
    """Per-qubit input choice.

    X_TYPE is the state (1/2)[(1+i)|0> + (1-i)|1>] and Y_TYPE is
    (1/2)[(1+i)|0> + e^{-i pi/4}(1-i)|1>], i.e. the two allowed inputs with
    the single-qubit Z evolution absorbed.
    """

    X_TYPE = "x"
    Y_TYPE = "y"


@dataclass(frozen=True)
class LatticeGeometry:
    """Rows x cols grid with nearest-neighbor edges and bipartition B."""

    rows: int
    cols: int
    edges: tuple[tuple[int, int], ...]
    partition_b: frozenset[int]

    @property
    def num_qubits(self) -> int:
        return self.rows * self.cols

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def build_lattice(rows: int, cols: int) -> LatticeGeometry:
    """Construct the rows x cols nearest-neighbor geometry.

    Edges are listed row-major, right neighbor before down neighbor, each as
    an (i, j) pair with i < j. Raises ValidationError for non-positive
    dimensions.
    """
    if rows < 1 or cols < 1:
        raise ValidationError(f"lattice dimensions must be positive, got {rows}x{cols}")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    part_b = frozenset(r * cols + c for r in range(rows) for c in range(cols) if (r + c) % 2 == 1)
    return LatticeGeometry(rows=rows, cols=cols, edges=tuple(edges), partition_b=part_b)


@dataclass(frozen=True)
class InputSpec:
    """Per-qubit choice from the two allowed input states."""

    choices: tuple[InputType, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.choices)


def random_input(n: int, rng: np.random.Generator) -> InputSpec:
    """Draw each qubit's input uniformly from {X_TYPE, Y_TYPE}."""
    if n < 1:
        raise ValidationError(f"input length must be positive, got {n}")
    bits = rng.integers(0, 2, size=n)
    return InputSpec(choices=tuple(InputType.Y_TYPE if b else InputType.X_TYPE for b in bits))
