"""Small seedable statevector simulator.

Gate set: H, CNOT, CSWAP and ORACLE_XOR (classical reversible table lookup
XORed into an output register).  Qubit k is bit k of the basis index, matching
the element index layout used by the group code.  Everything except H permutes
basis states, so gates are applied as cached index gathers; states are numpy
complex vectors of unit norm.  All randomness comes through an injected numpy
Generator.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt

import numpy as np

from .errors import CapacityError

StateVector = np.ndarray

GATE_KINDS = ("H", "CNOT", "CSWAP", "ORACLE_XOR")

_RSQRT2 = 1.0 / sqrt(2.0)

MATRIX_QUBIT_LIMIT = 12

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        touched = self.targets + self.controls
        if len(set(touched)) != len(touched):
            raise ValueError(f"{self.kind}: repeated qubit in {touched}")
        if any(q < 0 for q in touched):
            raise ValueError(f"{self.kind}: negative qubit index")
        shapes = {"H": (1, 0), "CNOT": (1, 1), "CSWAP": (2, 1)}
        if self.kind in shapes:
            nt, nc = shapes[self.kind]
            if len(self.targets) != nt or len(self.controls) != nc:
                raise ValueError(f"{self.kind}: expected {nt} targets and {nc} controls")
            if self.table is not None:
                raise ValueError(f"{self.kind}: table not allowed")
        else:  # ORACLE_XOR: controls = input register, targets = output register
            if not self.controls or not self.targets:
                raise ValueError("ORACLE_XOR: input and output registers must be nonempty")
            if self.table is None:
                raise ValueError("ORACLE_XOR: missing table")
            table = np.asarray(self.table, dtype=np.int64)
            if table.shape != (1 << len(self.controls),):
                raise ValueError(f"ORACLE_XOR: table must have 2^{len(self.controls)} entries")
            if table.min() < 0 or table.max() >= (1 << len(self.targets)):
                raise ValueError("ORACLE_XOR: table value out of output-register range")
            table = table.copy()
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    # -- convenience constructors -------------------------------------------

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (target,), (control,))

    @classmethod
    def cswap(cls, control: int, t1: int, t2: int) -> "Gate":
        return cls("CSWAP", (t1, t2), (control,))

    @classmethod
    def oracle_xor(cls, inputs, outputs, table) -> "Gate":
        return cls("ORACLE_XOR", tuple(outputs), tuple(inputs), table=table)

    @property
    def max_qubit(self) -> int:
        return max(self.targets + self.controls)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "targets": list(self.targets)}
        if self.controls:
            out["controls"] = list(self.controls)
        if self.table is not None:
            out["table"] = [int(v) for v in self.table]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Gate":
        return cls(
            kind=data["kind"],
            targets=tuple(data["targets"]),
            controls=tuple(data.get("controls", ())),
            table=np.asarray(data["table"], dtype=np.int64) if "table" in data else None,
        )


@dataclass
class Circuit:
    qubit_count: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be positive, got {self.qubit_count}")
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate) -> None:
        if gate.max_qubit >= self.qubit_count:
            raise ValueError(f"gate {gate.kind} touches qubit {gate.max_qubit}, circuit has {self.qubit_count}")

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    def to_dict(self) -> dict:
        return {"qubits": self.qubit_count, "gates": [g.to_dict() for g in self.gates]}

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        return cls(int(data["qubits"]), [Gate.from_dict(g) for g in data["gates"]])


def zero_state(qubit_count: int) -> StateVector:
    state = np.zeros(1 << qubit_count, dtype=np.complex128)
    state[0] = 1.0
    return state


def basis_state(qubit_count: int, index: int) -> StateVector:
    state = np.zeros(1 << qubit_count, dtype=np.complex128)
    state[index] = 1.0
    return state


# Permutation gates reduce to one cached index gather per (gate, register size).
_DEST_CACHE: "weakref.WeakKeyDictionary[Gate, dict[int, np.ndarray]]" = weakref.WeakKeyDictionary()


def _gather_indices(gate: Gate, dim: int) -> np.ndarray:
    per_gate = _DEST_CACHE.setdefault(gate, {})
    dest = per_gate.get(dim)
    if dest is not None:
        return dest
    idx = np.arange(dim, dtype=np.intp)
    if gate.kind == "CNOT":
        (c,), (t,) = gate.controls, gate.targets
        dest = idx ^ (((idx >> c) & 1) << t)
    elif gate.kind == "CSWAP":
        (c,), (t1, t2) = gate.controls, gate.targets
        both = ((idx >> c) & ((idx >> t1) ^ (idx >> t2))) & 1
        dest = idx ^ (both * ((1 << t1) | (1 << t2)))
    elif gate.kind == "ORACLE_XOR":
        value = np.zeros(dim, dtype=np.int64)
        for pos, q in enumerate(gate.controls):
            value |= ((idx >> q) & 1) << pos
        mask = gate.table[value]
        shift = np.zeros(dim, dtype=np.intp)
        for pos, q in enumerate(gate.targets):
            shift |= (((mask >> pos) & 1) << q).astype(np.intp)
        dest = idx ^ shift
    else:
        raise AssertionError(gate.kind)
    dest = np.ascontiguousarray(dest, dtype=np.intp)
    dest.setflags(write=False)
    per_gate[dim] = dest
    return dest


def apply_gate(state: StateVector, gate: Gate, qubit_count: int) -> StateVector:
    dim = 1 << qubit_count
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    if gate.max_qubit >= qubit_count:
        raise ValueError(f"gate {gate.kind} touches qubit {gate.max_qubit}, register has {qubit_count}")
    if gate.kind == "H":
        k = gate.targets[0]
        psi = state.reshape(-1, 2, 1 << k)
        out = np.empty_like(psi)
        a, b = psi[:, 0, :], psi[:, 1, :]
        out[:, 0, :] = (a + b) * _RSQRT2
        out[:, 1, :] = (a - b) * _RSQRT2
        return out.reshape(dim)
    # the other gates are involutions on basis indices, so gather == scatter
    return state[_gather_indices(gate, dim)]


def run_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    if state is None:
        state = zero_state(circuit.qubit_count)
    dim = 1 << circuit.qubit_count
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    if not _unit_norm(state):
        raise ValueError("input state does not have unit norm")
    for gate in circuit.gates:
        state = apply_gate(state, gate, circuit.qubit_count)
    if not _unit_norm(state):
        raise RuntimeError(f"state norm drifted over {len(circuit.gates)} gates")
    return state


def _unit_norm(state: StateVector) -> bool:
    return abs(float(np.vdot(state, state).real) - 1.0) < NORM_TOLERANCE


@lru_cache(maxsize=None)
def _outcome_values(qubits: tuple[int, ...], qubit_count: int) -> np.ndarray:
    idx = np.arange(1 << qubit_count, dtype=np.int64)
    vals = np.zeros_like(idx)
    for pos, q in enumerate(qubits):
        vals |= ((idx >> q) & 1) << pos
    vals.setflags(write=False)
    return vals


def measure(state: StateVector, qubits, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Projectively measure `qubits`; returns (packed outcome, collapsed state).

    Bit i of the outcome is the measured value of qubits[i].
    """
    qubits = tuple(int(q) for q in qubits)
    dim = state.shape[0]
    qubit_count = dim.bit_length() - 1
    if dim != (1 << qubit_count):
        raise ValueError(f"state length {dim} is not a power of two")
    if len(set(qubits)) != len(qubits) or any(not 0 <= q < qubit_count for q in qubits):
        raise ValueError(f"bad measurement qubits {qubits} for register of {qubit_count}")
    vals = _outcome_values(qubits, qubit_count)
    weights = np.abs(state) ** 2
    probs = np.bincount(vals, weights=weights, minlength=1 << len(qubits))
    total = probs.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise RuntimeError("state has no probability mass")
    probs = probs / total
    outcome = int(rng.choice(probs.size, p=probs))
    collapsed = np.where(vals == outcome, state, 0.0)
    norm = float(np.linalg.norm(collapsed))
    if norm == 0.0:
        raise RuntimeError("measurement collapsed to the zero vector")
    return outcome, collapsed / norm


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (capped at 12 qubits), column by column."""
    if circuit.qubit_count > MATRIX_QUBIT_LIMIT:
        raise CapacityError(f"dense circuit matrix capped at {MATRIX_QUBIT_LIMIT} qubits")
    dim = 1 << circuit.qubit_count
    out = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        out[:, j] = run_circuit(circuit, basis_state(circuit.qubit_count, j))
    return out
