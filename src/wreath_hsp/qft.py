"""The Fourier transform on W_n, built three independent ways.

1. As a circuit on 2n+1 qubits: conditionally swap the x/y halves on the a
   qubit, Hadamard the a qubit, conditionally swap again, then Hadamard all
   2n remaining qubits.  The swap block on both sides of the a-qubit
   Hadamard makes the matrix real symmetric.
2. As a block matrix (1/sqrt2) [[A, AP], [AP, -A]] with A the 2n-qubit
   Hadamard transform and P the x<->y relabeling permutation.
3. Entrywise: M[g, h] = (-1)^pairing(g, h) / sqrt(|W_n|).

Gate cost of the canonical circuit: 2n+1 Hadamards and 2n conditional swaps,
counted as 3 Toffoli equivalents each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .simulator import Circuit, Gate
from .wreath import group_order, pairing_vector_array

MATRIX_ARITY_LIMIT = 3

TOFFOLI_PER_CSWAP = 3


@dataclass(frozen=True)
class QftBundle:
    n: int
    circuit: Circuit
    hadamard_count: int
    toffoli_count: int


def _swap_block(n: int) -> list[Gate]:
    return [Gate.cswap(2 * n, i, n + i) for i in range(n)]


@lru_cache(maxsize=None)
def _qft_gates(n: int) -> tuple[Gate, ...]:
    # gates are immutable, so circuits can share one instance per n; sharing
    # also keeps the simulator's per-gate index cache warm
    return (
        *_swap_block(n),
        Gate.h(2 * n),
        *_swap_block(n),
        *(Gate.h(q) for q in range(2 * n)),
    )


def qft_circuit(n: int) -> QftBundle:
    """Transform circuit over qubits 0..2n (x: 0..n-1, y: n..2n-1, a: 2n)."""
    if n < 1:
        raise ValueError(f"arity must be at least 1, got {n}")
    gates = _qft_gates(n)
    circuit = Circuit(2 * n + 1, list(gates))
    cswaps = sum(1 for g in gates if g.kind == "CSWAP")
    return QftBundle(
        n=n,
        circuit=circuit,
        hadamard_count=sum(1 for g in gates if g.kind == "H"),
        toffoli_count=TOFFOLI_PER_CSWAP * cswaps,
    )


def _check_arity(n: int) -> None:
    if n > MATRIX_ARITY_LIMIT:
        raise CapacityError(f"dense transform matrices capped at n={MATRIX_ARITY_LIMIT}, got {n}")
    if n < 1:
        raise ValueError(f"arity must be at least 1, got {n}")


def qft_matrix_block(n: int) -> np.ndarray:
    """Block-matrix construction from the 2n-qubit Hadamard transform."""
    _check_arity(n)
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    a = np.array([[1.0]])
    for _ in range(2 * n):
        a = np.kron(a, h2)
    size = 1 << (2 * n)
    mask = (1 << n) - 1
    p = np.zeros((size, size))
    for c in range(size):
        p[(c >> n) | ((c & mask) << n), c] = 1.0
    ap = a @ p
    return np.block([[a, ap], [ap, -a]]) / math.sqrt(2.0)


def qft_matrix_exact(n: int) -> np.ndarray:
    """Integer matrix of entries +-1; the unitary is this over sqrt(|W_n|)."""
    _check_arity(n)
    codes = pairing_vector_array(n)
    parities = np.bitwise_count(codes[:, None] & codes[None, :]) & 1
    return (1 - 2 * parities.astype(np.int64)).astype(np.int64)


def qft_matrix_entrywise(n: int) -> np.ndarray:
    """Entrywise construction straight from the pairing."""
    return qft_matrix_exact(n) / math.sqrt(group_order(n))


@dataclass(frozen=True)
class GateCountRow:
    n: int
    hadamards: int
    toffolis: int
    total: int


def gate_count_report(n_max: int) -> list[GateCountRow]:
    """Hadamard/Toffoli-equivalent counts of the canonical circuit for n = 1..n_max."""
    if not 1 <= n_max <= 64:
        raise ValueError(f"n_max must be in 1..64, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        bundle = qft_circuit(n)
        rows.append(
            GateCountRow(
                n=n,
                hadamards=bundle.hadamard_count,
                toffolis=bundle.toffoli_count,
                total=bundle.hadamard_count + bundle.toffoli_count,
            )
        )
    return rows
