"""Fourier transform construction: three independent builds must agree."""

from __future__ import annotations

import numpy as np
import pytest

from wreath_hsp.errors import CapacityError
from wreath_hsp.qft import (
    GateCountRow,
    gate_count_report,
    qft_circuit,
    qft_matrix_block,
    qft_matrix_entrywise,
    qft_matrix_exact,
)
from wreath_hsp.simulator import circuit_to_matrix
from wreath_hsp.wreath import all_elements, group_order, pairing

TOLERANCE = 1e-10

EXACT_N1 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1, 1, -1, -1],
        [1, 1, -1, -1, 1, -1, 1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, 1, -1, -1, -1, 1, -1, 1],
        [1, -1, 1, -1, -1, -1, 1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
    ]
)


def test_exact_matrix_golden_n1():
    assert np.array_equal(qft_matrix_exact(1), EXACT_N1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_three_constructions_agree(n):
    bundle = qft_circuit(n)
    from_gates = circuit_to_matrix(bundle.circuit)
    from_blocks = qft_matrix_block(n)
    entrywise = qft_matrix_entrywise(n)
    assert np.max(np.abs(from_gates - from_blocks)) < TOLERANCE
    assert np.max(np.abs(from_gates - entrywise)) < TOLERANCE
    dim = group_order(n)
    assert np.allclose(from_gates.conj().T @ from_gates, np.eye(dim), atol=TOLERANCE)


@pytest.mark.parametrize("n", [1, 2])
def test_entrywise_values_follow_pairing(n):
    m = qft_matrix_entrywise(n)
    scale = 1 / np.sqrt(group_order(n))
    elems = all_elements(n)
    for g in elems:
        for h in elems:
            want = scale * (-1) ** pairing(g, h)
            assert abs(m[g.index, h.index] - want) < TOLERANCE
    assert np.allclose(m, m.T)  # the pairing is symmetric


@pytest.mark.parametrize("n", [1, 2])
def test_base_block_is_scaled_hadamard_transform(n):
    # restricted to base-group rows/columns the transform is the 2n-bit
    # Hadamard transform divided by sqrt(2)
    m = qft_matrix_entrywise(n)
    half = 1 << (2 * n)
    wh = np.array([[1.0]])
    for _ in range(2 * n):
        wh = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), wh)
    assert np.allclose(m[:half, :half] * np.sqrt(2), wh, atol=TOLERANCE)


@pytest.mark.parametrize("n", [1, 2])
def test_transform_is_hadamard_conjugated_by_relabeling(n):
    # P^T H^(2n+1) P where P permutes basis states by the pairing relabeling
    dim = group_order(n)
    wh = np.array([[1.0]])
    for _ in range(2 * n + 1):
        wh = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), wh)
    p = np.zeros((dim, dim))
    for g in all_elements(n):
        p[g.pairing_vector(), g.index] = 1
    assert np.allclose(p.T @ wh @ p, qft_matrix_entrywise(n), atol=TOLERANCE)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17])
def test_gate_counts(n):
    bundle = qft_circuit(n)
    assert bundle.hadamard_count == 2 * n + 1
    assert bundle.toffoli_count == 6 * n
    kinds = [g.kind for g in bundle.circuit.gates]
    assert kinds.count("H") == 2 * n + 1
    assert kinds.count("CSWAP") == 2 * n
    assert bundle.circuit.qubit_count == 2 * n + 1


def test_gate_count_report():
    rows = gate_count_report(4)
    assert rows == [
        GateCountRow(1, 3, 6, 9),
        GateCountRow(2, 5, 12, 17),
        GateCountRow(3, 7, 18, 25),
        GateCountRow(4, 9, 24, 33),
    ]
    with pytest.raises(ValueError):
        gate_count_report(0)


def test_matrix_capacity():
    with pytest.raises(CapacityError):
        qft_matrix_exact(4)
    with pytest.raises(CapacityError):
        qft_matrix_block(4)
    with pytest.raises(ValueError):
        qft_circuit(0)
