"""Command-line harness: exit codes, determinism, payload schemas."""

from __future__ import annotations

import json

import numpy as np
import pytest

from wreath_hsp.cli import main
from wreath_hsp.qft import qft_matrix_exact
from wreath_hsp.subgroups import Subgroup, closure_of
from wreath_hsp.wreath import GroupElement


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_planted_generators(capsys):
    code, out, err = run_cli(capsys, "solve", "--n", "1", "--generators", "0|1|1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["matches_planted"] is True
    assert payload["planted_generators"] == ["0|1|1"]
    recovered = [GroupElement.from_literal(lit) for lit in payload["generators"]]
    want = closure_of(1, [GroupElement.from_literal("0|1|1")])
    assert closure_of(1, recovered) == want
    assert payload["transcript"][0]["round"] == 1


def test_solve_is_deterministic(capsys):
    args = ("solve", "--n", "2", "--random", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_solve_verifies_a_planted_non_base_generator(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "2", "--generators", "01|01|1", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["matches_planted"] is True


def test_omitting_seed_uses_the_published_default(capsys):
    _, implicit, _ = run_cli(capsys, "solve", "--n", "1", "--random")
    _, explicit, _ = run_cli(capsys, "solve", "--n", "1", "--random", "--seed", "42")
    assert implicit == explicit


def test_solve_seed_changes_instance(capsys):
    _, out1, _ = run_cli(capsys, "solve", "--n", "2", "--random", "--seed", "1")
    _, out2, _ = run_cli(capsys, "solve", "--n", "2", "--random", "--seed", "2")
    assert json.loads(out1)["planted_generators"] != json.loads(out2)["planted_generators"]


def test_solve_rejects_bad_literal(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "1", "--generators", "0|1|5")
    assert code == 2
    assert err.startswith("usage:")


def test_solve_rejects_arity_mismatch(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "2", "--generators", "0|1|1")
    assert code == 2 and "usage:" in err


def test_solve_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--n", "1", "--generators", "0|1|1", "--random"])
    assert info.value.code == 2
    capsys.readouterr()


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", "--n", "1", "--random", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["n"] == 1
    assert out == ""


def test_qft_matrix_golden(capsys):
    code, out, _ = run_cli(capsys, "qft", "--n", "1", "--emit", "matrix")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["scale"] == "1/sqrt(8)"
    assert np.array_equal(np.array(payload["rows"]), qft_matrix_exact(1))


def test_qft_matrix_capacity(capsys):
    code, _, err = run_cli(capsys, "qft", "--n", "5", "--emit", "matrix")
    assert code == 1
    assert err.startswith("capacity:")


def test_qft_circuit_payload(capsys):
    code, out, _ = run_cli(capsys, "qft", "--n", "2", "--emit", "circuit")
    assert code == 0
    payload = json.loads(out)
    assert payload["qubits"] == 5
    assert payload["hadamards"] == 5
    assert payload["toffoli_equivalents"] == 12
    kinds = [g["kind"] for g in payload["gates"]]
    assert kinds.count("H") == 5 and kinds.count("CSWAP") == 4


def test_qft_circuit_counts_scale_linearly(capsys):
    code, out, _ = run_cli(capsys, "qft", "--n", "16", "--emit", "circuit")
    assert code == 0
    payload = json.loads(out)
    assert payload["hadamards"] == 33
    assert payload["toffoli_equivalents"] == 96


def test_qft_text_table(capsys):
    code, out, _ = run_cli(capsys, "qft", "--n", "3", "--emit", "circuit", "--format", "text")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 4  # header plus one row per arity
    assert lines[-1].split()[0] == "3"


def test_verify_all_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--suite", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {row["name"] for row in payload["results"]}
    assert {"factorization", "galois", "transform-matrices"} <= names
    for row in payload["results"]:
        assert row["failures"] == []
        assert row["checked"] > 0


def test_verify_factorization_covers_every_small_subgroup(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--n", "1")
    assert code == 0
    (row,) = json.loads(out)["results"]
    assert row["checked"] == 10
    assert row["failures"] == []


def test_verify_all_suites_at_largest_arity(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "3", "--samples", "50")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_single_suite_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "lemma1", "--samples", "12", "--format", "text")
    assert code == 0
    assert "factorization" in out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--n", "1", "--suite", "nonsense"])
    capsys.readouterr()


def test_verify_rejects_large_arity(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "4", "--suite", "qft")
    assert code == 2 and err.startswith("usage:")


def test_sweep_schema_and_determinism(capsys):
    args = ("sweep", "--n", "1", "--trials", "8", "--samples", "2,4", "--seed", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert [row["i"] for row in rows] == [2, 4]
    for row in rows:
        assert set(row) == {"i", "trials", "successes", "empirical", "bound"}
        assert 0.0 <= row["empirical"] <= 1.0
    _, out2, _ = run_cli(capsys, *args)
    assert out == out2


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    orders = sorted(entry["order"] for entry in payload["subgroups"])
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]
    for entry in payload["subgroups"]:
        sub = Subgroup.from_dict({"n": 1, "generators": entry["generators"]})
        assert sub.order == entry["order"]


def test_enumerate_rejects_large_arity(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "3")
    assert code == 2
    assert err.startswith("usage:")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sweep_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run_cli(capsys, "sweep", "--n", "2", "--trials", trials, "--samples", "4", "--format", "text")
    assert code == 2 and out == "" and err.startswith("usage:")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_an_empty_pool(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--samples", samples)
    assert code == 2 and out == "" and err.startswith("usage:")
    # the transform-matrix suite draws no pool, so it runs at any pool size
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "qft", "--samples", samples)
    assert code == 0 and json.loads(out)["passed"] is True
