"""Statevector simulator: gate semantics, measurement statistics, capacity."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wreath_hsp import simulator
from wreath_hsp.errors import CapacityError
from wreath_hsp.simulator import (
    Circuit,
    Gate,
    basis_state,
    circuit_to_matrix,
    measure,
    run_circuit,
    zero_state,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))


def test_hadamard_semantics():
    c = Circuit(1, [Gate.h(0)])
    out = run_circuit(c)
    assert np.allclose(out, np.full(2, 1 / math.sqrt(2)))
    again = run_circuit(Circuit(1, [Gate.h(0), Gate.h(0)]))
    assert np.allclose(again, basis_state(1, 0))


def test_x_cnot_toffoli_cswap_truth_tables():
    cnot = circuit_to_matrix(Circuit(2, [Gate.cnot(0, 1)]))
    perm = [0, 3, 2, 1]  # control qubit 0, target qubit 1; index bit i = qubit i
    want = np.zeros((4, 4), dtype=complex)
    for col, row in enumerate(perm):
        want[row, col] = 1
    assert np.array_equal(cnot, want)

    cswap = circuit_to_matrix(Circuit(3, [Gate.cswap(2, 0, 1)]))
    for col in range(8):
        if col & 4:
            b0, b1 = col & 1, (col >> 1) & 1
            row = (col & 4) | (b0 << 1) | b1
        else:
            row = col
        assert cswap[row, col] == 1


def test_oracle_xor_semantics():
    table = (2, 0, 3, 3)
    gate = Gate.oracle_xor((0, 1), (2, 3), table)
    for value in range(4):
        out = run_circuit(Circuit(4, [gate]), basis_state(4, value))
        assert out[value | table[value] << 2] == 1
    # XOR into a dirty register, and the gate is an involution
    state = run_circuit(Circuit(4, [gate, gate]), basis_state(4, 0b1101))
    assert state[0b1101] == 1


def test_oracle_entangles_hidden_function_labels():
    # H layer then oracle: the state must be sum over g of |g>|f(g)>/sqrt(|W|)
    from wreath_hsp.subgroups import Subgroup, build_hidden_function
    from wreath_hsp.wreath import GroupElement, all_elements, group_order

    f = build_hidden_function(Subgroup(1, (GroupElement(0, 1, 1, 1),)))
    total = 3 + f.label_bits
    c = Circuit(total, [Gate.h(q) for q in range(3)])
    c.append(Gate.oracle_xor(range(3), range(3, total), f.labels))
    state = run_circuit(c)
    want = np.zeros(1 << total, dtype=np.complex128)
    for g in all_elements(1):
        want[g.index | f(g) << 3] = 1 / math.sqrt(group_order(1))
    assert np.allclose(state, want)


def test_label_measurement_collapses_to_flat_coset():
    from wreath_hsp.subgroups import Subgroup, build_hidden_function
    from wreath_hsp.wreath import GroupElement

    sub = Subgroup(2, (GroupElement(1, 1, 0, 2), GroupElement(0, 0, 1, 2)))
    f = build_hidden_function(sub)
    total = 5 + f.label_bits
    c = Circuit(total, [Gate.h(q) for q in range(5)])
    c.append(Gate.oracle_xor(range(5), range(5, total), f.labels))
    state = run_circuit(c)
    rng = np.random.default_rng(13)
    label_qubits = tuple(range(5, total))
    for _ in range(30):
        label, collapsed = measure(state, label_qubits, rng)
        coset = {int(i) for i in np.flatnonzero(f.labels == label)}
        support = {int(i) & 0b11111 for i in np.flatnonzero(np.abs(collapsed) > 1e-12)}
        assert support == coset
        flat = 1 / math.sqrt(len(coset))
        for idx in support:
            assert abs(collapsed[idx | label << 5] - flat) < 1e-12


def test_empty_circuit_matrix_is_identity():
    assert np.array_equal(circuit_to_matrix(Circuit(3, [])), np.eye(8, dtype=complex))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate.cnot(1, 1)
    with pytest.raises(ValueError):
        Gate.cswap(0, 0, 1)
    with pytest.raises(ValueError):
        Gate("X", (0,))  # not a gate kind
    with pytest.raises(ValueError):
        Gate.oracle_xor((0, 1), (2,), (0, 1, 2))  # wrong table length
    with pytest.raises(ValueError):
        Gate.oracle_xor((0, 1), (2,), (0, 1, 2, 2))  # value overflows register
    with pytest.raises(ValueError):
        Circuit(2, [Gate.h(2)])
    c = Circuit(2, [])
    with pytest.raises(ValueError):
        c.append(Gate.cnot(0, 2))


def test_run_circuit_checks_dimensions():
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, [Gate.h(0)]), zero_state(3))


def test_run_circuit_rejects_an_unnormalized_input_under_python_O():
    script = (
        "from wreath_hsp.simulator import Circuit, Gate, basis_state, run_circuit\n"
        "try:\n"
        "    run_circuit(Circuit(2, [Gate.h(0)]), 2 * basis_state(2, 1))\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_run_circuit_reports_norm_drift(monkeypatch):
    monkeypatch.setattr(simulator, "apply_gate", lambda state, gate, qubits: 1.5 * state)
    with pytest.raises(RuntimeError):
        run_circuit(Circuit(1, [Gate.h(0)]))


def test_measure_basis_state_is_deterministic():
    rng = np.random.default_rng(0)
    state = basis_state(3, 0b101)
    outcome, collapsed = measure(state, (0, 1, 2), rng)
    assert outcome == 0b101
    assert np.array_equal(collapsed, state)
    sub_outcome, _ = measure(state, (2, 0), rng)
    assert sub_outcome == 0b01 | 0b1 << 1  # bit order follows the qubit list


def test_measure_subset_collapses_consistently():
    # GHZ-style correlation: measuring one qubit pins the other
    c = Circuit(2, [Gate.h(0), Gate.cnot(0, 1)])
    state = run_circuit(c)
    rng = np.random.default_rng(42)
    for _ in range(20):
        first, collapsed = measure(state, (0,), rng)
        second, _ = measure(collapsed, (1,), rng)
        assert first == second


def chi_square_threshold(bins):
    dof = bins - 1
    return dof + 3 * math.sqrt(2 * dof)


def test_measurement_marginals_match_amplitudes():
    rng = np.random.default_rng(2024)
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = raw / np.linalg.norm(raw)
    probs = np.abs(state) ** 2
    shots = 10_000
    counts = np.zeros(16)
    for _ in range(shots):
        outcome, _ = measure(state, (0, 1, 2, 3), rng)
        counts[outcome] += 1
    expected = probs * shots
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi_square_threshold(16)


def test_collapsed_state_is_renormalized_and_consistent():
    c = Circuit(3, [Gate.h(0), Gate.h(1), Gate.cnot(0, 2)])
    state = run_circuit(c)
    rng = np.random.default_rng(7)
    outcome, collapsed = measure(state, (2,), rng)
    assert np.isclose(np.linalg.norm(collapsed), 1.0)
    # support of the collapsed state agrees with the observed bit
    for index, amp in enumerate(collapsed):
        if abs(amp) > 1e-12:
            assert (index >> 2) & 1 == outcome


def test_circuit_serialization_roundtrip():
    c = Circuit(
        4,
        [
            Gate.h(0),
            Gate.cnot(0, 1),
            Gate.cswap(3, 0, 1),
            Gate.oracle_xor((0, 1), (2, 3), (0, 1, 2, 3)),
        ],
    )
    payload = c.to_dict()
    again = Circuit.from_dict(payload)
    assert again.to_dict() == payload
    assert np.allclose(circuit_to_matrix(again), circuit_to_matrix(c))


def test_matrix_capacity_limit():
    with pytest.raises(CapacityError):
        circuit_to_matrix(Circuit(13, [Gate.h(0)]))


def test_random_circuit_is_unitary():
    rng = np.random.default_rng(9)
    gates = []
    for _ in range(25):
        kind = rng.integers(0, 3)
        q = [int(v) for v in rng.permutation(4)]
        if kind == 0:
            gates.append(Gate.h(q[0]))
        elif kind == 1:
            gates.append(Gate.cnot(q[0], q[1]))
        else:
            gates.append(Gate.cswap(q[0], q[1], q[2]))
    m = circuit_to_matrix(Circuit(4, gates))
    assert np.allclose(m.conj().T @ m, np.eye(16), atol=1e-12)
