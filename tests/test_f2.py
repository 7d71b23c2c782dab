"""GF(2) linear algebra on bit-packed integers."""

from __future__ import annotations

from hypothesis import given, strategies as st

from wreath_hsp.f2 import (
    dot,
    kernel_basis,
    rank,
    rref,
    span_contains,
    span_equal,
    span_vectors,
)


def test_hand_computed_rref():
    # rows 110, 011, 101 over width 3: third is the sum, rank 2
    rows = [0b110, 0b011, 0b101]
    assert rank(rows, 3) == 2
    basis = rref(rows, 3)
    assert len(basis) == 2
    assert span_equal(basis, rows, 3)
    assert span_contains(basis, 0b101, 3)
    assert not span_contains(basis, 0b100, 3)


def test_hand_computed_kernel():
    # x1 + x2 = 0 and x2 + x3 = 0 over width 3: kernel is {000, 111}
    ker = kernel_basis([0b110, 0b011], 3)
    assert ker == [0b111]
    assert set(span_vectors(ker, 3)) == {0, 0b111}


def test_degenerate_spans():
    assert rref([], 4) == []
    assert rank([0, 0], 4) == 0
    assert kernel_basis([], 3) == rref([1, 2, 4], 3)
    assert kernel_basis([(1 << 5) - 1], 5) == rref([0b11, 0b110, 0b1100, 0b11000], 5)
    assert span_vectors([], 3) == [0]


def test_identity_matrix():
    eye = [1 << i for i in range(5)]
    assert rank(eye, 5) == 5
    assert kernel_basis(eye, 5) == []


def test_dot():
    assert dot(0b1011, 0b1110) == 0
    assert dot(0b1011, 0b0110) == 1
    assert dot(0, 0b111) == 0


def test_wide_random_matrices():
    # rank-nullity and complement involution at the widths the solver uses
    import numpy as np

    rng = np.random.default_rng(64)
    for _ in range(20):
        width = int(rng.integers(1, 65))
        rows = [int(rng.integers(0, 1 << width)) for _ in range(int(rng.integers(0, 100)))]
        ker = kernel_basis(rows, width)
        assert rank(rows, width) + len(ker) == width
        for k in ker:
            for v in rows:
                assert dot(v, k) == 0
    for _ in range(20):
        m = int(rng.integers(1, 17))
        basis = [int(rng.integers(0, 1 << m)) for _ in range(int(rng.integers(0, m + 1)))]
        twice = kernel_basis(kernel_basis(basis, m), m)
        assert span_equal(twice, basis, m)


vector_lists = st.integers(1, 10).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(st.integers(0, (1 << w) - 1), max_size=8),
    )
)


@given(vector_lists)
def test_rref_is_canonical_and_spans(case):
    width, rows = case
    basis = rref(rows, width)
    assert rref(basis, width) == basis
    assert span_equal(basis, rows, width)
    assert rank(rows, width) == len(basis)
    for v in rows:
        assert span_contains(basis, v, width)
    # pivot bits strictly increase and each pivot appears in exactly one row
    pivots = [b & -b for b in basis]
    assert pivots == sorted(pivots)
    for b, p in zip(basis, pivots):
        for other in basis:
            if other != b:
                assert other & p == 0


@given(vector_lists)
def test_rank_nullity_and_orthogonality(case):
    width, rows = case
    ker = kernel_basis(rows, width)
    assert rank(rows, width) + len(ker) == width
    for v in rows:
        for k in ker:
            assert dot(v, k) == 0
    # complementing twice recovers the row span
    assert span_equal(kernel_basis(ker, width), rows, width)


@given(vector_lists)
def test_span_vectors_consistent(case):
    width, rows = case
    basis = rref(rows, width)
    if len(basis) > 12:
        return
    vecs = span_vectors(basis, width)
    assert len(vecs) == 1 << len(basis)
    assert len(set(vecs)) == len(vecs)
    for v in vecs:
        assert span_contains(basis, v, width)
