"""Verification suites: dispatch, pool handling, failure serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

import wreath_hsp.suites as suites
from wreath_hsp.errors import CapacityError
from wreath_hsp.suites import (
    SUITE_IDS,
    check_balanced_duals,
    check_character_sums,
    check_dual_identities,
    check_factorization,
    check_galois,
    check_halving,
    check_subgroup_state_transform,
    check_transform_matrices,
    run_suite,
    subgroup_pool,
)
from wreath_hsp.wreath import all_elements


def test_pool_is_exhaustive_at_n1_and_seeded_elsewhere():
    pool = subgroup_pool(1, 3, np.random.default_rng(0))
    assert len(pool) == 10
    a = subgroup_pool(2, 5, np.random.default_rng(4))
    b = subgroup_pool(2, 5, np.random.default_rng(4))
    assert a == b and len(a) == 5


@pytest.mark.parametrize("n", [1, 2])
def test_every_check_passes_on_small_pools(n):
    pool = subgroup_pool(n, 20, np.random.default_rng(77))
    for check in (
        check_factorization,
        check_character_sums,
        check_halving,
        check_balanced_duals,
        check_dual_identities,
        check_galois,
    ):
        result = check(n, pool)
        assert result.passed, result.failures[:3]
        assert result.checked >= len(pool)
    assert check_transform_matrices(n).passed
    assert check_subgroup_state_transform(n, pool).passed


def test_run_suite_dispatch():
    names = {r.name for r in run_suite("all", 1, 10, seed=1)}
    assert names == {
        "factorization",
        "character-sums",
        "halving",
        "balanced-duals",
        "dual-identities",
        "galois",
        "transform-matrices",
        "subgroup-state-transform",
    }
    assert [r.name for r in run_suite("lemma1", 1, 10, seed=1)] == ["factorization"]
    assert [r.name for r in run_suite("corollary", 1, 10, seed=1)] == ["dual-identities", "galois"]
    assert [r.name for r in run_suite("qft", 2, 10, seed=1)] == ["transform-matrices"]
    with pytest.raises(ValueError):
        run_suite("bogus", 1, 10, seed=1)
    with pytest.raises(ValueError):
        run_suite("lemma1", 1, 0, seed=1)  # an empty pool would check nothing
    assert "all" in SUITE_IDS


def test_matrix_suites_reject_beyond_capacity(monkeypatch):
    # an empty result list would read as a pass, so the dense-matrix suites
    # refuse n > 3 outright, before any pool is drawn
    def no_pool(*args):
        raise AssertionError("pool drawn for a suite that cannot run")

    monkeypatch.setattr(suites, "subgroup_pool", no_pool)
    for suite in ("qft", "theorem6", "all"):
        with pytest.raises(CapacityError):
            run_suite(suite, 4, 10, seed=1)


def test_failures_are_json_serializable(monkeypatch):
    # squeeze the tolerance to zero so the matrix comparison has to fail,
    # then confirm the counterexample report survives serialization
    monkeypatch.setattr(suites, "MATRIX_TOLERANCE", -1.0)
    result = check_transform_matrices(1)
    assert not result.passed
    text = json.dumps(result.failures, sort_keys=True)
    assert "transform" in text or "matrix" in text or result.failures
    restored = json.loads(text)
    assert isinstance(restored, list) and restored


def test_subgroup_failure_records_carry_the_subgroup(monkeypatch):
    monkeypatch.setattr(suites, "MATRIX_TOLERANCE", -1.0)
    pool = subgroup_pool(1, 10, np.random.default_rng(0))
    result = check_subgroup_state_transform(1, pool)
    assert not result.passed
    for failure in result.failures:
        assert "reason" in failure
        payload = json.loads(json.dumps(failure, sort_keys=True))
        assert payload["subgroup"]["n"] == 1


def _drop_one(result):
    return result - {max(result, key=lambda g: g.index)} if len(result) > 1 else result


def _add_one(result):
    outside = [g for g in all_elements(next(iter(result)).n) if g not in result]
    return result | {outside[-1]} if outside else result


@pytest.mark.parametrize(
    "target, mutate, checks",
    [
        ("product_set", _drop_one, (check_factorization,)),
        ("perp_bruteforce", _drop_one, (check_character_sums, check_balanced_duals, check_dual_identities)),
        ("perp_bruteforce", _add_one, (check_character_sums, check_balanced_duals, check_dual_identities)),
    ],
    ids=["product-drop", "perp-drop", "perp-add"],
)
def test_checks_catch_a_broken_identity(monkeypatch, target, mutate, checks):
    # the checks run on index arrays; a wrong set must still fail them
    original = getattr(suites, target)
    monkeypatch.setattr(suites, target, lambda *args: mutate(original(*args)))
    pool = subgroup_pool(2, 20, np.random.default_rng(77))
    for check in checks:
        assert not check(2, pool).passed, check.__name__
