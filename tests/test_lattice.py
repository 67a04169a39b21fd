"""Geometry and input-choice tests."""

import numpy as np
import pytest

from fklab.errors import ValidationError
from fklab.lattice import InputType, build_lattice, random_input

from conftest import brute_force_edges


def test_single_edge_lattice():
    lat = build_lattice(1, 2)
    assert lat.edges == ((0, 1),)
    assert lat.partition_b == frozenset({1})


def test_2x2_lattice():
    lat = build_lattice(2, 2)
    assert lat.num_edges == 4
    assert lat.partition_b == frozenset({1, 2})


def test_5x5_lattice_against_brute_force():
    lat = build_lattice(5, 5)
    assert lat.num_edges == 40
    assert len(lat.partition_b) == 12
    assert set(tuple(sorted(e)) for e in lat.edges) == brute_force_edges(5, 5)


@pytest.mark.parametrize("rows", range(1, 9))
@pytest.mark.parametrize("cols", range(1, 9))
def test_edges_match_brute_force_all_small(rows, cols):
    lat = build_lattice(rows, cols)
    assert set(tuple(sorted(e)) for e in lat.edges) == brute_force_edges(rows, cols)
    assert lat.num_edges == rows * (cols - 1) + cols * (rows - 1)


@pytest.mark.parametrize("rows,cols", [(1, 5), (3, 3), (4, 2), (5, 4)])
def test_bipartiteness_and_adjacency(rows, cols):
    lat = build_lattice(rows, cols)
    for i, j in lat.edges:
        ri, ci = divmod(i, cols)
        rj, cj = divmod(j, cols)
        assert abs(ri - rj) + abs(ci - cj) == 1
        assert (i in lat.partition_b) != (j in lat.partition_b)


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (-1, 2)])
def test_invalid_dimensions(rows, cols):
    with pytest.raises(ValidationError, match="lattice dimensions must be positive"):
        build_lattice(rows, cols)


def test_random_input_deterministic():
    a = random_input(4, np.random.default_rng(123))
    b = random_input(4, np.random.default_rng(123))
    assert a == b
    assert a.num_qubits == 4


def test_random_input_single_qubit():
    spec = random_input(1, np.random.default_rng(0))
    assert len(spec.choices) == 1
    assert spec.choices[0] in (InputType.X_TYPE, InputType.Y_TYPE)


def test_random_input_balanced():
    # Binomial: P(|fraction - 1/2| > 0.03) < 1e-8 at n = 10^4.
    spec = random_input(10_000, np.random.default_rng(42))
    frac_x = sum(c is InputType.X_TYPE for c in spec.choices) / 10_000
    assert 0.47 <= frac_x <= 0.53


def test_random_input_rejects_zero_length():
    with pytest.raises(ValidationError, match="input length must be positive"):
        random_input(0, np.random.default_rng(0))
