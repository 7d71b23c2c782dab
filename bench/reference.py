"""Reference kernel: fixed work that calls no library code, timed between ops.

The host the benchmark runs on slows down and speeds up by tens of percent
for seconds to minutes at a time, for every process on it.  The kernel does
the two kinds of work the workloads spend their time on: hashing and
multiplying small Python objects with a set lookup per product (like the
candidate check and the group code), and permuting a 2^17-amplitude complex
state with numpy (like the simulator).  Timed right before each op, its mean
over a run says how fast the host ran during that run; the benchmark scales
its timings to a host on which the kernel takes NOMINAL_S.

The kernel runs with the garbage collector off, so its time does not depend
on how many objects the library keeps alive.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.02  # about the kernel's time on a 2-vCPU VM (Python 3.11, numpy 2.4)

_QUBITS = 17
_PERMUTATIONS = 12
_SET_SIZE = 400
_FACTORS = 90


class _Element:
    """Three small ints, hashed and compared by value, with a wreath-style product."""

    __slots__ = ("x", "y", "a")

    def __init__(self, x: int, y: int, a: int):
        self.x, self.y, self.a = x, y, a

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.a))

    def __eq__(self, other) -> bool:
        return self.x == other.x and self.y == other.y and self.a == other.a

    def __mul__(self, other: "_Element") -> "_Element":
        if other.a == 0:
            return _Element(self.x ^ other.x, self.y ^ other.y, self.a)
        return _Element(self.y ^ other.x, self.x ^ other.y, self.a ^ 1)


_rng = np.random.default_rng(1)
_ELEMENTS = frozenset(
    _Element(int(x), int(y), int(a)) for x, y, a in _rng.integers((16, 16, 2), size=(_SET_SIZE, 3))
)
_PRODUCT_FACTORS = sorted(_ELEMENTS, key=lambda e: (e.x, e.y, e.a))[:_FACTORS]
_STATE = _rng.standard_normal(1 << _QUBITS) + 0j
_PERMUTATION = _rng.permutation(1 << _QUBITS)


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        hits = sum(a * b in _ELEMENTS for a in _PRODUCT_FACTORS for b in _PRODUCT_FACTORS)
        state = _STATE
        for _ in range(_PERMUTATIONS):
            state = state[_PERMUTATION] * 1.0
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if hits == 0 or state.shape != _STATE.shape:
        raise AssertionError("reference kernel computed nothing")
    return elapsed
