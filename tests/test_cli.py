"""Exit-code contract, JSON round-trips and subcommand wiring."""
import dataclasses
import json
import re

import numpy as np
import pytest

import submaj.cli
from submaj.acceptance import expected_display_matrix
from submaj.cli import main
from submaj.matrices import StochMatrix
from submaj.preservers import TruncatedOperator
from submaj.relations import chain_product_from_parts, TTransformChain, TTransformStep
from test_relations import dense_chain_product_reference


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write, tmp_path


def test_check_weak_holds(files, capsys):
    write, _ = files
    f = write("f.json", {"dim": 2, "values": [0.3, 0.2]})
    g = write("g.json", {"dim": 2, "values": [1.0, 0.0]})
    assert main(["check", "--relation", "weak", f, g]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_majorize_fails_with_named_index(files, capsys):
    write, _ = files
    f = write("f.json", {"dim": 2, "values": [0.3, 0.2]})
    g = write("g.json", {"dim": 2, "values": [1.0, 0.0]})
    assert main(["check", "--relation", "majorize", f, g]) == 1
    assert "position 2" in capsys.readouterr().out


def test_check_emits_witness_with_certificate(files):
    write, tmp = files
    f = write("f.json", {"dim": 2, "values": [0.5, 0.5]})
    g = write("g.json", {"dim": 2, "values": [2.0, 0.0]})
    out = tmp / "w.json"
    assert main(["check", "--relation", "sub", f, g, "--emit-witness", str(out)]) == 0
    payload = json.loads(out.read_text())
    witness = StochMatrix.from_json_dict(payload["witness"])
    assert np.max(np.abs(witness.data @ [2, 0] - [0.5, 0.5])) <= 1e-9
    assert payload["certificate"]["completion"]["class"] == "doubly-stochastic"


def test_check_builds_witness_only_when_emitting(files, monkeypatch):
    write, tmp = files
    f = write("f.json", {"dim": 2, "values": [0.5, 0.5]})
    g = write("g.json", {"dim": 2, "values": [2.0, 0.0]})
    asked = []
    check = submaj.cli._CHECKS["sub"]

    def recording(*args, with_witness):
        asked.append(with_witness)
        return check(*args, with_witness=with_witness)

    monkeypatch.setitem(submaj.cli._CHECKS, "sub", recording)
    assert main(["check", "--relation", "sub", f, g]) == 0
    assert main(["check", "--relation", "sub", f, g, "--emit-witness", str(tmp / "w.json")]) == 0
    assert asked == [False, True]


def test_internal_fault_exits_3(files, monkeypatch, capsys):
    write, _ = files
    f = write("f.json", {"dim": 1, "values": [1.0]})

    def faulty(*args, **kwargs):
        raise RuntimeError("stalled")

    monkeypatch.setitem(submaj.cli._CHECKS, "weak", faulty)
    assert main(["check", "--relation", "weak", f, f]) == 3
    assert "internal error: stalled" in capsys.readouterr().err


def test_any_other_exception_exits_3(files, monkeypatch, capsys):
    write, _ = files
    f = write("f.json", {"dim": 1, "values": [1.0]})

    def faulty(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(submaj.cli._CHECKS, "weak", faulty)
    assert main(["check", "--relation", "weak", f, f]) == 3
    assert "internal error: unsupported operand" in capsys.readouterr().err


_WELL_FORMED_SPEC = {"p": 1.0, "weights": [1.0], "injections": [[1, 2]]}


@pytest.mark.parametrize(
    "name,payload,argv",
    [
        ("op.json", {"rows": 2, "cols": 2, "entries": [5]}, ["classify", "--space", "l1"]),
        ("spec.json", {**_WELL_FORMED_SPEC, "p": None}, ["build-preserver", "--rows", "4", "--cols", "2"]),
        ("spec.json", {**_WELL_FORMED_SPEC, "p": None}, ["preserve-test"]),
        ("spec.json", {**_WELL_FORMED_SPEC, "injections": [3]}, ["build-preserver", "--rows", "4", "--cols", "2"]),
        ("spec.json", {**_WELL_FORMED_SPEC, "injections": [3]}, ["preserve-test"]),
        ("lam.json", [1, None], ["demo", "paper-matrix", "--which", "T1", "--lambda"]),
        ("m.json", {"n": 2, "data": [1, 0, 0, None]}, ["complete"]),
    ],
)
def test_malformed_documents_are_input_errors(files, capsys, name, payload, argv):
    write, _ = files
    path = write(name, payload)
    assert main([*argv, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_check_json_output(files, capsys):
    write, _ = files
    f = write("f.json", {"dim": 1, "values": [1.0]})
    assert main(["--json", "check", "--relation", "weak", f, f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True and payload["relation"] == "weak"


def test_malformed_json_is_input_error(files, capsys):
    _, tmp = files
    bad = tmp / "bad.json"
    bad.write_text("{not json")
    ok = tmp / "ok.json"
    ok.write_text(json.dumps({"dim": 1, "values": [1.0]}))
    assert main(["check", "--relation", "weak", str(bad), str(ok)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_missing_file_is_input_error(files, capsys):
    write, _ = files
    ok = write("ok.json", {"dim": 1, "values": [1.0]})
    assert main(["check", "--relation", "weak", "/nonexistent.json", ok]) == 2


def test_negative_vector_is_input_error(files, capsys):
    write, _ = files
    bad = write("bad.json", {"dim": 2, "values": [1.0, -1.0]})
    assert main(["check", "--relation", "weak", bad, bad]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_witness_chain_reconstructs(files, capsys):
    write, tmp = files
    f = write("f.json", {"dim": 3, "values": [1.0, 1.0, 1.0]})
    g = write("g.json", {"dim": 3, "values": [3.0, 0.0, 0.0]})
    out = tmp / "chain.json"
    assert main(["witness", f, g, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    chain = TTransformChain(
        steps=tuple(TTransformStep(s["i"], s["j"], s["t"]) for s in payload["steps"]),
        pre_perm=tuple(payload["pre_perm"]),
        post_perm=tuple(payload["post_perm"]),
        product=StochMatrix.from_json_dict(payload["product"]),
    )
    assert len(chain.steps) <= 2
    reference = dense_chain_product_reference(chain)
    assert np.max(np.abs(chain.product.data - reference)) <= 1e-12
    assert np.max(np.abs(chain_product_from_parts(chain) - reference)) <= 1e-12


def test_witness_fails_when_relation_fails(files, capsys):
    write, _ = files
    f = write("f.json", {"dim": 2, "values": [2.0, 0.0]})
    g = write("g.json", {"dim": 2, "values": [1.0, 1.0]})
    assert main(["witness", f, g]) == 1
    assert "fails" in capsys.readouterr().err


def test_complete_doubly_stochastic_is_fixed_point(files, capsys):
    write, _ = files
    d = write("d.json", {"n": 2, "data": [0.5, 0.5, 0.5, 0.5]})
    assert main(["complete", d]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completion"]["data"] == [0.5, 0.5, 0.5, 0.5]
    assert payload["steps"] == []


def test_complete_rejects_general_matrix(files, capsys):
    write, _ = files
    d = write("d.json", {"n": 2, "data": [0.6, 0.6, 0.6, 0.6]})
    assert main(["complete", d]) == 2
    assert "substochastic" in capsys.readouterr().err


def test_classify_accept_and_reject(files, capsys):
    write, _ = files
    good = write("good.json", {"rows": 3, "cols": 2, "entries": [[2, 1, 0.5], [3, 2, 0.5]]})
    bad = write("bad.json", {"rows": 3, "cols": 2, "entries": [[1, 1, 0.5], [1, 2, 0.9]]})
    assert main(["classify", "--space", "lp", good]) == 0
    assert main(["classify", "--space", "lp", bad]) == 1


def test_build_preserver_round_trip(files, capsys):
    write, tmp = files
    spec = write(
        "spec.json",
        {"p": 2.0, "weights": [0.5, 0.25], "injections": [[2, 3, 5], [4, 6, 9]]},
    )
    out = tmp / "t.json"
    assert main(["build-preserver", spec, "--rows", "9", "--cols", "3", "--out", str(out)]) == 0
    op = TruncatedOperator.from_json_dict(json.loads(out.read_text()))
    assert op.entries[(2, 1)] == 0.5 and op.entries[(9, 3)] == 0.25
    assert main(["classify", "--space", "lp", str(out)]) == 0


def test_preserve_test_identity_spec(files, capsys):
    write, _ = files
    spec = write("spec.json", {"p": 2.0, "weights": [1.0], "injections": [[1, 2, 3, 4, 5]]})
    assert main(["preserve-test", spec, "--trials", "20", "--dim", "5"]) == 0
    assert "20/20" in capsys.readouterr().out


def test_demo_shift_exact_window(files, capsys):
    assert main(["--json", "demo", "shift", "--n", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    op = TruncatedOperator.from_json_dict(payload["forced"])
    expected = np.eye(6, k=-1)
    assert np.array_equal(op.to_dense(), expected)
    assert payload["fully_determined"] is True
    assert payload["conclusion"] == "equals-right-shift"
    assert "annotation" in payload


def test_demo_paper_matrix_t1(files, capsys):
    assert main(["--json", "demo", "paper-matrix", "--which", "T1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    op = TruncatedOperator.from_json_dict(payload["operator"])
    dense = op.to_dense()
    assert dense.shape == (16, 5)
    assert dense[1, 0] == 0.5 and dense[15, 0] == 0.03125 and dense[0].tolist() == [0] * 5


def test_demo_paper_matrix_custom_lambda(files, capsys):
    write, _ = files
    lam = write("lam.json", [0.9, 0.1])
    assert main(["--json", "demo", "paper-matrix", "--which", "T", "--lambda", lam, "--a", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dense = TruncatedOperator.from_json_dict(payload["operator"]).to_dense()
    assert np.all(dense[0] == 0.4)
    assert dense[1, 0] == 0.9 and dense[3, 0] == 0.1


def test_demo_paper_matrix_example2_matches_reference(files, capsys):
    write, _ = files
    mu = write("mu.json", [0.9, 0.8, 0.7, 0.6])  # the reference fixture's constant rows
    assert main(["--json", "demo", "paper-matrix", "--which", "example2", "--mu", mu]) == 0
    payload = json.loads(capsys.readouterr().out)
    dense = TruncatedOperator.from_json_dict(payload["operator"]).to_dense()
    assert np.array_equal(dense, expected_display_matrix("example2"))


def test_demo_paper_matrix_t_on_a_wider_window(files, capsys):
    window = ["--rows", "20", "--cols", "7"]
    assert main(["--json", "demo", "paper-matrix", "--which", "T", "--a", "0.7", *window]) == 0
    t = TruncatedOperator.from_json_dict(json.loads(capsys.readouterr().out)["operator"]).to_dense()
    assert main(["--json", "demo", "paper-matrix", "--which", "T1", *window]) == 0
    t1 = TruncatedOperator.from_json_dict(json.loads(capsys.readouterr().out)["operator"]).to_dense()
    assert t.shape == t1.shape == (20, 7)
    assert np.all(t[0] == 0.7) and np.all(t1[0] == 0)
    assert np.array_equal(t[1:], t1[1:])  # a sits in row 1 only


def test_demo_recip_square(files, capsys):
    assert main(["--json", "demo", "recip-square", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partial_matched_support"] == [1, 2, 3]
    assert payload["weak_g_under_f_holds"] is True
    assert payload["weak_f_under_g_holds"] is False


def test_maj_tol_env_override(files, monkeypatch, capsys):
    write, _ = files
    f = write("f.json", {"dim": 2, "values": [1.0, 0.0]})
    g = write("g.json", {"dim": 2, "values": [1.0001, 0.0]})
    assert main(["check", "--relation", "majorize", f, g]) == 1
    monkeypatch.setenv("MAJ_TOL", "0.01")
    assert main(["check", "--relation", "majorize", f, g]) == 0


def _spy_on_battery(monkeypatch, results):
    """Replace the battery behind ``selftest`` with ``results``; return its calls."""
    calls = []

    def spy(seed, tol, tol_exact):
        calls.append((seed, tol, tol_exact))
        return results

    monkeypatch.setattr(submaj.cli, "run_acceptance", spy)
    return calls


def test_selftest_passes_and_prints_per_criterion(seed0_battery, monkeypatch, capsys):
    calls = _spy_on_battery(monkeypatch, seed0_battery)
    assert main(["selftest"]) == 0
    assert calls == [(0, 1e-9, 1e-12)]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [r.line() for r in seed0_battery]
    assert sum(line.startswith("[PASS]") for line in lines) == 13
    assert re.fullmatch(r"\[PASS\] criterion  1 greedy completion: 1000 completions ok \(\d+\.\d\ds\)", lines[0])
    assert main(["selftest", "--seed", "5"]) == 0
    assert calls[-1] == (5, 1e-9, 1e-12)


def test_selftest_json_gives_each_criterion_time(seed0_battery, monkeypatch, capsys):
    _spy_on_battery(monkeypatch, seed0_battery)
    assert main(["--json", "selftest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["index"] for p in payload] == list(range(1, 14))
    assert all(p["passed"] for p in payload)
    assert [p["elapsed_s"] for p in payload] == [r.elapsed_s for r in seed0_battery]
    assert all(isinstance(p["elapsed_s"], float) and p["elapsed_s"] > 0 for p in payload)


def test_selftest_exits_1_when_a_criterion_fails(seed0_battery, monkeypatch, capsys):
    failed = dataclasses.replace(seed0_battery[4], passed=False, detail="1 failure(s); first: case 0: stub")
    _spy_on_battery(monkeypatch, [*seed0_battery[:4], failed, *seed0_battery[5:]])
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:6] for line in lines] == ["[PASS]"] * 4 + ["[FAIL]"] + ["[PASS]"] * 8
    assert lines[4] == failed.line()
    assert main(["--json", "selftest"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [p["passed"] for p in payload] == [True] * 4 + [False] + [True] * 8


def test_bad_tolerance_combo_is_usage_error(files, capsys):
    write, _ = files
    f = write("f.json", {"dim": 1, "values": [1.0]})
    assert main(["--tol", "1e-13", "check", "--relation", "weak", f, f]) == 2
    assert "tol" in capsys.readouterr().err
