"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import re
import time

import numpy as np
import pytest

import submaj.acceptance
from submaj.acceptance import _Criterion, run_acceptance

CRITERIA = 13
NAMES = [
    "greedy completion", "oracle agreement", "witness soundness", "finite collapse", "antisymmetry",
    "closure", "decomposition", "intertwining", "golden fixtures", "preserver round-trip",
    "empirical preservation", "shift forcing", "injection families",
]


@pytest.fixture(scope="module")
def battery(seed0_battery):
    return {r.index: r for r in seed0_battery}


def _check(battery, index):
    result = battery[index]
    print(result.line())
    assert result.passed, result.line()


def test_battery_covers_all_criteria(battery):
    assert sorted(battery) == list(range(1, CRITERIA + 1))
    assert [battery[i].name for i in sorted(battery)] == NAMES
    assert all(r.elapsed_s > 0 for r in battery.values())
    assert all(r.line().endswith(f" ({r.elapsed_s:.2f}s)") for r in battery.values())


# The driver tests below swap the battery table for stubs, so they do not run
# the real battery.

def _stub_table(monkeypatch, *rows):
    monkeypatch.setattr(submaj.acceptance, "_CRITERIA", rows)


def test_criterion_k_draws_from_child_k_minus_1_of_the_seed(monkeypatch):
    draws = []

    def draw(rng, tol, failures):
        draws.append((rng.random(4), tol))
        return "drew"

    _stub_table(monkeypatch, *(_Criterion(draw, f"c{k}", exact=k == 3) for k in range(1, 6)))
    results = run_acceptance(seed=7, tol=1e-8, tol_exact=1e-11)
    assert [(r.index, r.name, r.passed, r.detail) for r in results] == [
        (k, f"c{k}", True, "drew") for k in range(1, 6)
    ]
    for k, (got, tol) in enumerate(draws, start=1):
        want = np.random.default_rng(np.random.SeedSequence(7).spawn(k)[k - 1]).random(4)
        assert np.array_equal(got, want)
        assert tol == (1e-11 if k == 3 else 1e-8)


def test_crashed_criteria_keep_their_names(monkeypatch):
    # The real table, with every criterion but 9, 12 and 13 swapped for a stub
    # that raises, and a broken index map that crashes criterion 13 inside its
    # own body: every result keeps its index and name, crashes report the
    # exception and fail, and the criteria after a crash still run.
    def broken(i, j):
        raise RuntimeError("broken index map")

    def crash(rng, tol, failures):
        raise ZeroDivisionError("stub")

    real = submaj.acceptance._CRITERIA
    kept = {9, 12, 13}
    monkeypatch.setattr(submaj.acceptance, "theta_quadratic", broken)
    _stub_table(monkeypatch, *(row if k in kept else row._replace(run=crash) for k, row in enumerate(real, start=1)))
    results = run_acceptance(seed=0)
    assert [r.index for r in results] == list(range(1, CRITERIA + 1))
    assert [r.name for r in results] == NAMES
    crashed = {r.index for r in results if r.detail.startswith("raised ")}
    assert crashed == set(range(1, CRITERIA + 1)) - {9, 12}
    assert results[12].detail == "raised RuntimeError: broken index map"
    assert {results[k - 1].detail for k in crashed - {13}} == {"raised ZeroDivisionError: stub"}
    assert not any(r.passed for r in results if r.index in crashed)
    assert results[8].passed and results[11].passed


def test_a_criterion_over_its_budget_fails(monkeypatch):
    def slow(rng, tol, failures):
        time.sleep(0.02)
        return "done"

    def slow_and_failing(rng, tol, failures):
        failures.append("case 0: wrong")
        return slow(rng, tol, failures)

    _stub_table(
        monkeypatch,
        _Criterion(slow, "budgeted", budget_s=0.01),
        _Criterion(slow, "unbudgeted"),
        _Criterion(slow_and_failing, "failing", budget_s=0.01),
    )
    over, free, failing = run_acceptance()
    assert not over.passed and over.elapsed_s >= 0.02
    assert re.fullmatch(r"1 failure\(s\); first: runtime \d+\.\d\ds exceeds 0\.01s budget", over.detail)
    assert free.passed and free.detail == "done" and free.elapsed_s >= 0.02
    assert failing.detail == "2 failure(s); first: case 0: wrong"


def test_a_negative_seed_raises_before_any_criterion_runs(monkeypatch):
    ran = []
    _stub_table(monkeypatch, _Criterion(lambda rng, tol, failures: ran.append(1), "stub"))
    with pytest.raises(ValueError):
        run_acceptance(seed=-1)
    assert ran == []


def test_criterion_01_greedy_completion(battery):
    _check(battery, 1)


def test_criterion_02_oracle_agreement(battery):
    _check(battery, 2)


def test_criterion_03_witness_soundness(battery):
    _check(battery, 3)


def test_criterion_04_finite_collapse(battery):
    _check(battery, 4)


def test_criterion_05_antisymmetry(battery):
    _check(battery, 5)


def test_criterion_06_closure(battery):
    _check(battery, 6)


def test_criterion_07_decomposition(battery):
    _check(battery, 7)


def test_criterion_08_intertwining(battery):
    _check(battery, 8)


def test_criterion_09_golden_fixtures(battery):
    _check(battery, 9)


def test_criterion_10_preserver_roundtrip(battery):
    _check(battery, 10)


def test_criterion_11_empirical_preservation(battery):
    _check(battery, 11)


def test_criterion_12_shift_forcing(battery):
    _check(battery, 12)


def test_criterion_13_injection_families(battery):
    _check(battery, 13)


def test_reseeded_battery_still_passes():
    results = run_acceptance(seed=2026)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
