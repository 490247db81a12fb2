"""Tests of the benchmark itself: its checkers catch corrupted outputs, its
exact reference behaves, and every workload runs once on tiny inputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, harness, inputs, workloads  # noqa: E402


def _averaging_witness(g):
    """A doubly stochastic W (pairs averaged) and f = W g."""
    n = g.size
    w = np.zeros((n, n))
    for k in range(0, n - 1, 2):
        w[k : k + 2, k : k + 2] = 0.5
    if n % 2:
        w[-1, -1] = 1.0
    return w, w @ g


def test_verdict_checker_flags_a_flipped_verdict():
    f, g = inputs.major_pair(np.random.default_rng(0), 50)
    ref = inputs.reference(f, g)
    assert ref.majorize is None
    assert checks.check_verdict(True, None, ref.majorize, "ok") == []
    assert checks.check_verdict(False, 3, ref.majorize, "flipped")
    fail = inputs.reference(*inputs.failing_pair(np.random.default_rng(1), 50))
    assert fail.weak == 1
    assert checks.check_verdict(False, 1, fail.weak, "ok") == []
    assert checks.check_verdict(True, None, fail.weak, "flipped")
    assert checks.check_verdict(False, 2, fail.weak, "wrong index")


def test_witness_checker_flags_a_row_sum_of_1_01():
    g = inputs.grid_vector(np.random.default_rng(2), 9)
    w, f = _averaging_witness(g)
    assert checks.check_witness(w, f, g, "ok") == []
    assert checks.check_completion(w, w, "ok") == []
    bad = w.copy()
    bad[0] *= 1.01
    assert any("row sum" in p for p in checks.check_witness(bad, bad @ g, g, "bad"))
    assert checks.check_witness(w, f + 1e-6, g, "residual")
    assert checks.check_completion(w * 0.99, w, "below")


def test_apply_checker_flags_a_wrong_entry():
    images = inputs.family_images("quadratic", 3, 5)
    weights = np.array([0.5, 0.25, 0.125])
    x = np.arange(1.0, 6.0)
    rows = int(images.max())
    expected = checks.scatter_add(images, weights, x, rows)
    dense = np.zeros((rows, 5))
    for k in range(3):
        dense[images[k] - 1, np.arange(5)] = weights[k]
    assert np.allclose(dense @ x, expected)
    assert checks.check_apply(dense @ x, expected, "ok") == []
    dense[images[1, 2] - 1, 2] = 0.3
    assert checks.check_apply(dense @ x, expected, "wrong entry")


def test_cli_checker_flags_a_wrong_exit_code():
    holds = json.dumps({"holds": True, "failed_index": None})
    fails = json.dumps({"holds": False, "failed_index": 1})
    assert checks.check_cli_check(0, holds, None, "ok") == []
    assert checks.check_cli_check(1, fails, 1, "ok") == []
    assert checks.check_cli_check(2, holds, None, "exit 2")
    assert checks.check_cli_check(1, holds, None, "exit 1 on a holding pair")
    assert checks.check_cli_check(0, holds, 1, "exit 0 on a failing pair")
    assert checks.check_cli_preserve(1, json.dumps({"trials": 5, "passes": 5}), 5, "exit 1")


def test_intertwining_and_forcing_checkers():
    images = inputs.family_images("quadratic", 2, 3)
    d = np.full((3, 3), 1 / 3)
    n = int(images.max())
    s = {(int(r), int(c)): 1 / 3 for row in images for r in row for c in row}
    s.update({(i, i): 1.0 for i in range(1, n + 1) if i not in images})
    assert checks.check_intertwining(s, n, images, d, "ok") == []
    s[(int(images[0, 0]), int(images[0, 1]))] = 0.5
    assert checks.check_intertwining(s, n, images, d, "bad")
    shift = {(k + 1, k): 1.0 for k in range(1, 5)}
    assert checks.check_shift_forcing(shift, True, "equals-right-shift", 5, "ok") == []
    assert checks.check_shift_forcing({**shift, (1, 1): 1.0}, True, "equals-right-shift", 5, "bad")


def test_reference_is_exact_and_invariant():
    rng = np.random.default_rng(3)
    for make in (inputs.major_pair, inputs.weak_pair, inputs.failing_pair):
        f, g = make(rng, 200)
        ref = inputs.reference(f, g)
        assert inputs.reference(f * inputs.SCALE, g * inputs.SCALE) == ref
        assert inputs.reference(f[rng.permutation(200)], g[::-1]) == ref
    assert inputs.reference(*inputs.weak_pair(rng, 200)).majorize == 200
    # Fault 2b pairs are majorized exactly, at every scale.
    for f, g in inputs.fault_2b_pairs(50, 3, 0):
        assert inputs.reference(f * inputs.SCALE, g * inputs.SCALE) == inputs.Reference(None, None)
    # One ulp above g at 2**23 exceeds the absolute tolerance exactly.
    f, g = inputs.fault_2a_pairs(0)[0]
    assert inputs.reference(f, g).weak == 1


def _declared(kind):
    """name -> unit of the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_runs_once_on_tiny_inputs(name):
    result = harness.measure(name, seed=0, seconds=0, trace=False, root=ROOT, tiny=True, probes=1, log=lambda _: None)
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name in ("preservers", "cli"):
        assert result["failed"] == 0
    traced = harness.measure(name, seed=0, seconds=0, trace=True, root=ROOT, tiny=True, probes=1, log=lambda _: None)
    assert traced["correct"]
    assert (traced["attempted"], traced["failed"]) == (result["attempted"], result["failed"])
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == _declared("per_layer")
