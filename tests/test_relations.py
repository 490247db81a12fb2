"""Relation checks, witness constructions, permutation extraction, oracle."""
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from perfbench import inputs

import submaj.matrices
import submaj.relations
from submaj.config import DEFAULT_CLASS_TOL
from submaj.matrices import (
    IncreasabilityCertificate,
    MatrixClass,
    apply,
    classify_matrix,
    compose,
    identity_matrix,
    vonneumann_complete,
)
from submaj.relations import (
    TTransformChain,
    TTransformStep,
    chain_product_from_parts,
    check_majorize,
    check_submajorize,
    check_weak_majorize,
    hlp_witness,
    intermediate_h,
    oracle_majorize_bruteforce,
    partial_permutation,
    permutation_between,
    strict_permutation,
    weak_witness,
)
from submaj.sampling import (
    random_doubly_stochastic,
    random_doubly_substochastic,
    random_nonneg_vector,
    random_permutation_matrix,
)
from submaj.vectors import NonNegVector, common_dim

import oracles
from corpus import (
    EDGE_T,
    STALLING,
    block_edge_pairs,
    chain_pairs,
    class_pairs,
    decision_pairs,
    dyadic_pairs,
    fallback_pair,
    holding_weak_pairs,
    perfbench_pair,
    position_one_pairs,
    unequal_dimension_pairs,
    unit_t_chains,
    weak_witness_pairs,
    witness_pairs,
)

V = NonNegVector.of


def _verdict(v):
    return v.holds, v.failed_index, v.message


def _traced(run):
    """run()'s result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckMajorize:
    def test_averaged_pair_holds_with_witness(self):
        verdict = check_majorize(V(1, 1), V(2, 0))
        assert verdict.holds
        assert verdict.witness.data.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_reflexive_with_identity_witness(self):
        f = V(0.7, 0.1, 0.4)
        verdict = check_majorize(f, f)
        assert verdict.holds
        assert np.array_equal(verdict.witness.data, np.eye(3))

    def test_total_mismatch_fails(self):
        verdict = check_majorize(V(0.3, 0.2), V(1, 0))
        assert not verdict.holds
        assert verdict.failed_index == 2
        assert "totals differ" in verdict.message
        # No doubly stochastic witness can exist: the class preserves totals.
        assert not oracle_majorize_bruteforce(V(0.3, 0.2), V(1, 0), "strong")

    def test_prefix_violation_names_first_index(self):
        verdict = check_majorize(V(2, 0), V(1, 1))
        assert not verdict.holds
        assert verdict.failed_index == 1

    def test_pads_unequal_dims(self):
        assert check_majorize(V(1, 1), V(2)).holds  # g padded to (2, 0)

    def test_signed_zeros_print_as_zero(self):
        verdict = check_majorize(NonNegVector([-0.0, -0.0]), NonNegVector([1.0, 0.0]))
        assert verdict.message == "totals differ at position 2: 0 vs 1"


class TestValuesOnlySort:
    def test_verdicts_and_sorts_match_the_stable_sort(self):
        seen = {(check, holds) for check in oracles.HOLDS for holds in (True, False)}
        for f, g in decision_pairs():
            for raw in (v.values for v in common_dim(f, g)):
                order = np.argsort(-raw, kind="stable")
                got = submaj.relations._Sorted(raw)
                assert got.values.tobytes() == raw[order].tobytes()
                assert np.array_equal(got.order, order)
            for check, want in oracles.decide(f, g, DEFAULT_CLASS_TOL).items():
                for with_witness in (True, False):
                    verdict = check(f, g, with_witness=with_witness)
                    assert _verdict(verdict) == want
                    assert (verdict.witness is not None) == (want[0] and with_witness)
                seen.discard((check, want[0]))
        assert not seen  # every check both holds and fails

    def test_decisions_and_mismatched_permutations_never_argsort(self, monkeypatch):
        rng = np.random.default_rng(48)
        g = rng.uniform(0, 1, 10_000)
        pairs = {
            "permuted copy": (rng.permutation(g), (True, True)),
            "scaled down": (0.9 * rng.permutation(g), (False, True)),
            "scaled up": (1.1 * g, (False, False)),
        }
        g = NonNegVector(g)

        def refuse(*args, **kwargs):
            raise AssertionError("np.argsort called")

        monkeypatch.setattr(np, "argsort", refuse)
        for name, (f, (strong, weak)) in pairs.items():
            f = NonNegVector(f)
            assert check_majorize(f, g, with_witness=False).holds is strong, name
            assert check_weak_majorize(f, g, with_witness=False).holds is weak, name
            assert check_submajorize(f, g, with_witness=False).holds is weak, name
        assert strict_permutation(V(1, 2, 0), V(2, 2, 0)) is None
        assert partial_permutation(V(1, 2, 0), V(0, 2, 2)) is None
        assert partial_permutation(V(1, 2, 0), V(2, 2, 2)) is None
        with pytest.raises(AssertionError, match="argsort"):  # the guard is live
            strict_permutation(V(1, 2), V(2, 1))


class TestBlockedScan:
    def test_block_edges_match_the_whole_vector_reference(self):
        messages = set()
        for label, f, g, planted in block_edge_pairs():
            f, g = NonNegVector(f), NonNegVector(g)
            for check, want in oracles.decide(f, g, DEFAULT_CLASS_TOL).items():
                if planted is not None:
                    assert want[1] == planted, label
                for with_witness in (True, False):
                    assert _verdict(check(f, g, with_witness=with_witness)) == want, (label, check)
                messages.add(want[2].split(" at position")[0])
        assert messages == {
            "sorted partial sums fail", "totals differ", "majorization holds", "weak majorization holds",
            "submajorization holds (finite collapse to the weak relation)",
        }

    def test_random_sizes_match_the_whole_vector_reference(self):
        block = submaj.relations._BLOCK
        rng = np.random.default_rng(20)
        for case in range(24):
            n = int(rng.integers(1, 5 * block))
            scale = 2.0 ** int(rng.integers(-60, 61))
            g = rng.integers(0, 2**20, size=n) / 2.0**20
            f = [0.9 * g, g[rng.permutation(n)], rng.integers(0, 2**20, size=n) / 2.0**20][case % 3]
            if case % 4 == 0:
                f = f[: int(rng.integers(1, n + 1))]
            f, g = NonNegVector(f * scale), NonNegVector(g * scale)
            for check, want in oracles.decide(f, g, DEFAULT_CLASS_TOL).items():
                assert _verdict(check(f, g, with_witness=False)) == want, (case, n, check)

    def test_weak_decision_at_n_1e6_holds_only_the_two_sorted_copies(self):
        n = 10**6
        f, g = (NonNegVector(v) for v in perfbench_pair(n))
        verdict, peak = _traced(lambda: check_weak_majorize(f, g, with_witness=False))
        assert verdict.holds
        assert peak < 2.25 * 8 * n  # two sorted copies and the block buffers; whole-vector sums took 5.1 x 8n

    def test_an_unequal_dimension_decision_makes_no_padded_copy(self):
        # f cut to its largest n/2 entries still holds; its sorted copy has
        # n/2 entries, and the scan writes zeros past them, where a padded
        # copy of f and its sort took about 3.5 x 8n bytes at this n.
        n = 10**5
        f, g = perfbench_pair(n)
        f, g = NonNegVector(np.sort(f)[::-1][: n // 2]), NonNegVector(g)
        for check in (check_majorize, check_weak_majorize, check_submajorize):
            verdict, peak = _traced(lambda: check(f, g, with_witness=False))
            assert verdict.holds is (check is not check_majorize), check
            assert peak < 2.25 * 8 * n, (check, peak / (8 * n))

    def test_only_the_weak_witness_builds_partial_sums(self, monkeypatch):
        made, raised = [], []
        raise_h = submaj.relations._raised

        class Recorded(submaj.relations._Sorted):
            def __init__(self, raw):
                super().__init__(raw)
                made.append(self)

        def recorded_raise(sf, sg):
            raised.append((sf, sg))
            return raise_h(sf, sg)

        monkeypatch.setattr(submaj.relations, "_Sorted", Recorded)
        monkeypatch.setattr(submaj.relations, "_raised", recorded_raise)
        f, g = V(0.5, 0.25, 0.0), V(1.0, 0.0, 0.0)
        for run in (
            lambda: submaj.relations._decide(f, g, DEFAULT_CLASS_TOL, equal_totals=False),
            lambda: check_weak_majorize(f, g, with_witness=False),
            lambda: check_submajorize(f, g, with_witness=False),
            lambda: check_majorize(V(0.5, 0.5), V(1.0, 0.0)),
            lambda: hlp_witness(V(0.5, 0.5), V(1.0, 0.0)),
            lambda: strict_permutation(f, g),
            lambda: strict_permutation(g, g),
            lambda: partial_permutation(f, f),
        ):
            made.clear()
            run()
            assert len(made) == 2 and not raised
        # A weak witness raises h once, from the decision's two records, and
        # h's record comes from f's: two records made through __init__,
        # unless rounding breaks f's order and h is sorted too.
        for run in (
            lambda: check_weak_majorize(f, g),
            lambda: check_submajorize(f, g),
            lambda: weak_witness(f, g),
            lambda: intermediate_h(f, g),
        ):
            made.clear()
            raised.clear()
            run()
            assert len(made) == 2 and raised == [tuple(made)]
        fallback = [NonNegVector(v) for v in fallback_pair()]
        made.clear()
        raised.clear()
        check_submajorize(*fallback)
        assert len(made) == 3 and raised == [tuple(made[:2])]
        assert np.array_equal(made[2].raw, intermediate_h(*fallback).values)

    @pytest.mark.parametrize("n", [16383, 16384, 16385, 2 * 16384 + 1])
    def test_h_and_w_at_block_edges_match_the_padded_reference(self, n):
        # h is raised from one cumsum of each sorted copy, not from the
        # scan's blocks; both must be bitwise the closed form on the stable
        # sort and whole-vector sums of the zero-padded pair, with f one
        # entry short of g.
        assert submaj.relations._BLOCK == 16384
        rng = np.random.default_rng(n)
        g = rng.uniform(0, 1, n)
        f = NonNegVector(0.9 * g[rng.permutation(n)][: n - 1])
        g = NonNegVector(g)
        fv = f.padded(n).values
        order = np.argsort(-fv, kind="stable")
        x, fs, gs = fv[order], np.cumsum(fv[order]), np.cumsum(np.sort(g.values)[::-1])
        total = np.clip(np.minimum.accumulate((gs - fs)[::-1])[::-1], 0.0, gs[-1] - fs[-1])
        want = np.empty(n)
        want[order] = x + np.diff(total, prepend=0.0)
        assert intermediate_h(f, g).values.tobytes() == want.tobytes()
        scales = np.divide(fv, want, out=np.ones(n), where=want > 0)
        for witness in (weak_witness(f, g), check_weak_majorize(f, g).witness, check_submajorize(f, g).witness):
            assert witness.row_sums.tobytes() == scales.tobytes()


class _CountedSorted(submaj.relations._Sorted):
    """A record that lists itself in ``made``: one entry per values-only sort."""

    made = []

    def __init__(self, raw):
        super().__init__(raw)
        self.made.append(self)


class TestPositionOneRefutation:
    def test_refutations_match_the_whole_vector_reference(self):
        indices = set()
        for label, f, g, tol in position_one_pairs():
            f, g = NonNegVector(f), NonNegVector(g)
            for check, want in oracles.decide(f, g, tol).items():
                for with_witness in (True, False):
                    assert _verdict(check(f, g, tol=tol, with_witness=with_witness)) == want, (label, check)
                indices.add(want[1] if want[1] in (None, 1) else "later")
        assert indices == {None, 1, "later"}

    def test_the_edge_at_max_g_plus_tol_is_decided_exactly(self):
        # f's maximum one ulp below, onto and one ulp above fl(max g + tol)
        # fails position 1 exactly when max f - max g > tol in exact
        # arithmetic.  Where fl(max g + tol) rounds up, a float comparison
        # against it accepts a maximum that exceeds it exactly (fault 2a).
        rounded_up = 0
        for tol in (DEFAULT_CLASS_TOL, 0.0, 0.125):
            for scale in (2.0**-30, 1.0, 2.0**30):
                for top in (0.75, 0.61, 0.55, 0.9):
                    g = np.array([top, 0.5, 0.25]) * scale
                    edge = g[0] + tol
                    for target in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                        fails = Fraction(target) - Fraction(g[0]) > tol
                        rounded_up += fails and not target > edge
                        verdict = check_weak_majorize(V(target), V(*g), tol=tol, with_witness=False)
                        assert (verdict.failed_index == 1) is fails, (tol, scale, target)
        assert rounded_up == 5

    def test_the_fault_2a_pairs_fail_at_position_one(self):
        # max g lies in [2^23, 2^24), where one ulp is 1.86e-9, and max f is
        # one ulp above it: fl(max g + 1e-9) rounds up to max f, but the
        # exact margin exceeds tol, as the exact reference says.
        for f, g in inputs.fault_2a_pairs(3):
            assert inputs.reference(f, g) == inputs.Reference(1, 1)
            f, g = NonNegVector(f), NonNegVector(g)
            for check in oracles.HOLDS:
                for with_witness in (True, False):
                    verdict = check(f, g, tol=DEFAULT_CLASS_TOL, with_witness=with_witness)
                    assert (verdict.holds, verdict.failed_index) == (False, 1), (check, f.values, g.values)
            for build in (hlp_witness, weak_witness, intermediate_h):
                with pytest.raises(ValueError, match="fail at position 1"):
                    build(f, g)

    def test_a_position_one_failure_builds_no_sorted_values(self, monkeypatch):
        monkeypatch.setattr(submaj.relations, "_Sorted", _CountedSorted)
        made = _CountedSorted.made
        f, g = V(2.0, 0.5, 0.0), V(1.0, 1.0)  # unequal dimensions
        made.clear()
        for equal_totals in (False, True):
            sf, sg, failed = submaj.relations._decide(f, g, DEFAULT_CLASS_TOL, equal_totals)
            assert (sf, sg, failed.failed_index) == (None, None, 1)
        for check in oracles.HOLDS:
            for with_witness in (True, False):
                assert check(f, g, with_witness=with_witness).failed_index == 1
        for build in (hlp_witness, weak_witness, intermediate_h):
            with pytest.raises(ValueError, match="precondition fails: sorted partial sums fail at position 1"):
                build(f, g)
        assert made == []

    def test_a_decision_past_position_one_sorts_each_input_once(self, monkeypatch):
        monkeypatch.setattr(submaj.relations, "_Sorted", _CountedSorted)
        made = _CountedSorted.made
        # Each record sorts its input once, and h's record is read off f's.
        f, g = V(0.5, 0.25), V(1.0, 0.0, 0.0)  # f is padded only for a witness
        for run, inputs in (
            (lambda: check_majorize(f, g, with_witness=False), (f.values, g.values)),  # fails at the totals
            (lambda: check_majorize(V(0.5, 0.5), V(1.0, 0.0)), ([0.5, 0.5], [1.0, 0.0])),
            (lambda: check_weak_majorize(f, g), (f.padded(3).values, g.values)),
            (lambda: check_submajorize(f, g), (f.padded(3).values, g.values)),
            (lambda: check_submajorize(f, g, with_witness=False), (f.values, g.values)),
            (lambda: hlp_witness(V(0.5, 0.5), V(1.0, 0.0)), ([0.5, 0.5], [1.0, 0.0])),
            (lambda: weak_witness(f, g), (f.padded(3).values, g.values)),
            (lambda: intermediate_h(f, g), (f.padded(3).values, g.values)),
        ):
            made.clear()
            run()
            assert [s.raw.tolist() for s in made] == [list(v) for v in inputs]

    def test_a_position_one_failure_at_n_1e6_makes_no_sorted_copy(self):
        n = 10**6
        g, f = (NonNegVector(v) for v in perfbench_pair(n))  # swapped, so f peaks above g
        verdict, peak = _traced(lambda: check_weak_majorize(f, g, with_witness=False))
        assert verdict.failed_index == 1
        assert peak < 0.25 * 8 * n

    def test_an_unequal_dimension_refutation_with_a_witness_makes_no_padded_copy(self):
        # The records are padded only after a holding decision, so a pair
        # refuted at position 1 is not copied when a witness is requested;
        # padding g to f's length first took 1.00 x 8n bytes here.
        n = 10**5
        f, g = perfbench_pair(n, inputs.failing_pair)
        f, g = NonNegVector(f), NonNegVector(g[: n // 2])
        for check in oracles.HOLDS:
            verdict, peak = _traced(lambda: check(f, g))
            assert verdict.failed_index == 1
            assert peak < 0.25 * 8 * n, (check.__name__, peak / (8 * n))


class TestNanTolerance:
    def test_every_check_and_witness_constructor_rejects_a_nan_tol(self):
        f, g = V(5, 0), V(1, 0)  # NaN used to accept this pair, with a GENERAL witness
        nan = float("nan")
        for check in oracles.HOLDS:
            for with_witness in (True, False):
                with pytest.raises(ValueError, match="tol must not be NaN"):
                    check(f, g, tol=nan, with_witness=with_witness)
        for build in (hlp_witness, weak_witness, intermediate_h):
            for pair in ((f, g), (g, f)):
                with pytest.raises(ValueError, match="tol must not be NaN"):
                    build(*pair, tol=np.float64(nan))


class TestCheckWeakMajorize:
    def test_smaller_vector_holds(self):
        verdict = check_weak_majorize(V(0.3, 0.2), V(1, 0))
        assert verdict.holds
        assert verdict.witness.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC)
        assert np.max(np.abs(verdict.witness.data @ [1, 0] - [0.3, 0.2])) <= 1e-9

    def test_first_partial_sum_violation(self):
        verdict = check_weak_majorize(V(2, 0), V(1, 1))
        assert not verdict.holds
        assert verdict.failed_index == 1

    def test_zero_vector_gets_zero_witness(self):
        verdict = check_weak_majorize(V(0, 0), V(2, 0))
        assert verdict.holds
        assert np.array_equal(verdict.witness.data, np.zeros((2, 2)))


class TestCheckSubmajorize:
    def test_holds_with_certificate(self):
        verdict = check_submajorize(V(0.5, 0.5), V(2, 0))
        assert verdict.holds
        assert verdict.certificate is not None
        cert = verdict.certificate
        assert cert.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
        assert np.all(cert.completion.data >= verdict.witness.data - 1e-12)

    def test_fails_on_prefix(self):
        verdict = check_submajorize(V(1, 1), V(1, 0))
        assert not verdict.holds
        assert verdict.failed_index == 2

    def test_reflexive(self):
        f = V(0.2, 0.9)
        verdict = check_submajorize(f, f)
        assert verdict.holds
        assert np.array_equal(verdict.witness.data, np.eye(2))

    def test_collapses_to_weak_relation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            f = random_nonneg_vector(rng, n)
            g = random_nonneg_vector(rng, n)
            assert (
                check_submajorize(f, g, with_witness=False).holds
                == check_weak_majorize(f, g, with_witness=False).holds
            )


class TestHlpWitness:
    def test_single_step_midpoint(self):
        chain = hlp_witness(V(1, 1), V(2, 0))
        assert [tuple(s) for s in chain.steps] == [(1, 2, 0.5)]
        assert chain.product.data.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_single_step_quarter_mix(self):
        chain = hlp_witness(V(1.5, 0.5), V(2, 0))
        assert [tuple(s) for s in chain.steps] == [(1, 2, 0.25)]
        assert chain.product.data.tolist() == [[0.75, 0.25], [0.25, 0.75]]

    def test_equal_vectors_give_empty_chain(self):
        chain = hlp_witness(V(3, 1, 2), V(3, 1, 2))
        assert chain.steps == ()
        assert np.array_equal(chain.product.data, np.eye(3))

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="precondition"):
            hlp_witness(V(2, 0), V(1, 1))

    @pytest.mark.parametrize("pre, post, bad", [
        ((0, 1, 1), (1, 2, 3), "pre_perm"),  # a repeated and a wrapped index: column sums 2, 0, 1
        ((1, 2, 3), (3, 1, 3), "post_perm"),
        ((1, 2), (1, 2, 3), "pre_perm"),
        ((1, 2, 3), (2, 3, 4), "post_perm"),
    ])

    def test_chain_rejects_sort_orders_that_are_not_permutations(self, pre, post, bad):
        with pytest.raises(ValueError, match=f"{bad} must be a permutation of 1..3"):
            TTransformChain(steps=(), pre_perm=pre, post_perm=post, product=identity_matrix(3))

    @pytest.mark.parametrize("t", [-1e-16, 1 + 2**-52, float("nan")])
    def test_chain_rejects_coefficients_just_outside_the_unit_interval(self, t):
        # The exact-ones lemma and nonnegativity of the product need the closed
        # [0, 1] that _ChainMatrix checks, with no slack on either side.
        with pytest.raises(ValueError, match=r"step coefficient outside \[0, 1\]"):
            TTransformChain(steps=(TTransformStep(1, 2, t),), pre_perm=(1, 2), post_perm=(1, 2),
                            product=identity_matrix(2))

    @pytest.mark.parametrize("t", [0.0, -0.0, 1.0])
    def test_chain_accepts_the_closed_unit_interval(self, t):
        chain = TTransformChain(steps=(TTransformStep(1, 2, t),), pre_perm=(1, 2), post_perm=(1, 2),
                                product=identity_matrix(2))
        assert chain.steps[0].t == t

    def test_random_chains_are_short_sound_and_reconstructible(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            g = random_nonneg_vector(rng, n)
            f = apply(random_doubly_stochastic(rng, n), g)
            chain = hlp_witness(f, g)
            assert len(chain.steps) <= max(0, n - 1)
            assert chain.product.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
            assert np.max(np.abs(chain.product.data @ g.values - f.values)) <= 1e-9
            reference = oracles.dense_chain_product(chain)
            assert np.max(np.abs(chain.product.data - reference)) <= 1e-12
            assert np.max(np.abs(chain_product_from_parts(chain) - reference)) <= 1e-12

    def test_sum_preservation_of_witnesses(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            g = random_nonneg_vector(rng, n)
            f = apply(random_doubly_stochastic(rng, n), g)
            witness = hlp_witness(f, g).product
            assert abs((witness.data @ g.values).sum() - g.values.sum()) <= 1e-9

    def test_majorize_witness_keeps_one_dense_array_alive(self):
        # The product is written in place into the witness itself, on the
        # first read of its data: no sorted-coordinate accumulator beside it.
        n = 400
        g = np.random.default_rng(72).uniform(0, 1, n)
        f = g[::-1].copy()
        f[: n - 1 : 2] = f[1::2] = (f[: n - 1 : 2] + f[1::2]) / 2
        tracemalloc.start()
        try:
            verdict = check_majorize(NonNegVector(f), NonNegVector(g))
            verdict.witness.data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and verdict.witness is not None
        assert peak < 1.5 * n * n * 8


class TestIntermediateH:
    def test_deficit_fills_largest_coordinate(self):
        h = intermediate_h(V(0.5, 0.5), V(2, 0))
        assert h.values.tolist() == [1.5, 0.5]

    def test_zero_deficit_returns_f(self):
        f = V(1, 1)
        assert intermediate_h(f, V(2, 0)).values.tolist() == [1, 1]

    def test_zero_vector_fills_to_g(self):
        assert intermediate_h(V(0, 0), V(1, 1)).values.tolist() == [1, 1]

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="precondition"):
            intermediate_h(V(3, 0), V(1, 1))

    def test_random_h_dominates_f_and_is_majorized(self):
        rng = np.random.default_rng(24)
        for _ in range(80):
            n = int(rng.integers(1, 25))
            g = random_nonneg_vector(rng, n)
            f = apply(random_doubly_substochastic(rng, n), g)
            h = intermediate_h(f, g)
            assert np.all(h.values >= f.values)
            assert check_majorize(h, g, with_witness=False).holds


def test_closed_form_h_matches_water_filling_loop():
    rng = np.random.default_rng(29)
    for case in range(200):
        m = int(rng.integers(1, 25))
        g = random_nonneg_vector(rng, m).values * (rng.uniform(size=m) > 0.3)
        fv = (random_doubly_substochastic(rng, m).data @ g) * (rng.uniform(size=m) > 0.3)
        n = int(rng.integers(1, 30)) if case % 3 == 0 else m
        f = NonNegVector(np.concatenate([fv, np.zeros(max(0, n - m))])[:n])  # truncating keeps f weakly below g
        g = NonNegVector(g)
        h = intermediate_h(f, g)
        ref = oracles.water_filled_h(f, g)
        assert h.dim == ref.size
        assert np.max(np.abs(h.values - ref)) <= 1e-12 * max(1.0, g.total())


@settings(max_examples=200, deadline=None)
@given(dyadic_pairs())
def test_verdicts_are_permutation_invariant_and_witnesses_build(pair):
    f, g, pf, pg = pair
    n = max(f.dim, g.dim)
    f2, g2 = f.padded(n).values, g.padded(n).values
    bound = 2 * DEFAULT_CLASS_TOL + 4 * n * np.finfo(float).eps * g2.max()
    for check, klass in (
        (check_majorize, MatrixClass.DOUBLY_STOCHASTIC),
        (check_weak_majorize, MatrixClass.DOUBLY_SUBSTOCHASTIC),
        (check_submajorize, MatrixClass.DOUBLY_SUBSTOCHASTIC),
    ):
        verdict = check(f, g)
        permuted = check(pf, pg, with_witness=False)
        assert (permuted.holds, permuted.failed_index) == (verdict.holds, verdict.failed_index)
        if not verdict.holds:
            continue
        w = verdict.witness
        assert w.matrix_class.at_least(klass)
        assert np.max(np.abs(w.data @ g2 - f2)) <= bound
        if check is check_submajorize:
            cert = verdict.certificate
            assert cert.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
            assert np.all(cert.completion.data >= w.data)
            assert cert.steps == ()


@settings(max_examples=300, deadline=None)
@given(unequal_dimension_pairs(), st.booleans())
def test_unequal_dimension_decisions_equal_the_zero_padded_pair(pair, with_witness):
    # A call sorts each input at its own length and writes zeros past the
    # shorter one's end; its verdict is the padded pair's.  A witness is
    # built from the two records padded after the decision, and its data
    # is bitwise the padded pair's.
    f, g, tol, block = pair
    n = max(f.dim, g.dim)
    padded = f.padded(n), g.padded(n)
    with mock.patch.object(submaj.relations, "_BLOCK", block):
        for check in oracles.HOLDS:
            verdict = check(f, g, tol=tol, with_witness=with_witness)
            want = check(*padded, tol=tol, with_witness=with_witness)
            assert _verdict(verdict) == _verdict(want)
            if want.witness is not None:
                assert verdict.witness.data.tobytes() == want.witness.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(holding_weak_pairs())
def test_witness_path_ranges_hold_without_clamps(pair):
    # The witness path relies on three ranges it does not clamp: h >= f
    # (every raise is a difference of a non-decreasing total), each chain step
    # has 0 < t <= 1, and the weak witness diag(f / h) D1 stays under D1.  The
    # chain is the one the weak witness builds for h; hlp_witness(h, g) would
    # first re-decide h against g, which an ulp of rounding in h can fail at
    # large scales.
    f, g = pair
    verdict = check_submajorize(f, g)
    assume(verdict.holds)
    h = intermediate_h(f, g)
    assert np.all(h.values >= f.values)
    steps = submaj.relations._hlp_chain(*map(submaj.relations._Sorted, (h.values, g.values)), DEFAULT_CLASS_TOL)
    assert all(0.0 < step[2] <= 1.0 for step in steps)
    assert np.all(verdict.witness.data <= verdict.certificate.completion.data)


def _chain_outcome(chain, sf, sg):
    """The steps of a chain builder as plain tuples, or its error."""
    try:
        return [tuple(step) for step in chain(sf, sg, DEFAULT_CLASS_TOL)]
    except RuntimeError as err:
        return repr(err)


def _assert_chain_is_the_scan_loop(sf, sg, label=None):
    """The chain's steps, compared with == on floats, or its error, are
    the scan loop's; returns that outcome."""
    want = _chain_outcome(oracles.scan_hlp_chain, sf, sg)
    assert _chain_outcome(submaj.relations._hlp_chain, sf, sg) == want, label
    return want


@settings(max_examples=400, deadline=None)
@given(chain_pairs())
def test_incremental_chain_matches_the_scan_loop(pair):
    # Ties, exact zeros, one-ulp moves, scales 2^-60..2^60 and unequal
    # totals: the same steps, compared with == on floats, or the same error.
    _assert_chain_is_the_scan_loop(*pair)


def test_incremental_chain_matches_the_scan_loop_on_long_chains():
    rng = np.random.default_rng(73)
    for n in (300, 700):
        g = rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.2)
        g[rng.integers(0, n, n // 4)] = g[0]  # ties
        f = random_doubly_substochastic(rng, n).data @ g
        sf, sg = (submaj.relations._Sorted(v) for v in (f, g))
        sh = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
        assert len(_assert_chain_is_the_scan_loop(sh, sg)) > n // 2


@pytest.mark.parametrize("x, y", STALLING)
def test_chain_on_a_pair_that_is_not_majorized_stalls_like_the_scan_loop(x, y):
    sf, sg = (submaj.relations._Sorted(np.array(v)) for v in (x, y))
    with pytest.raises(RuntimeError, match="stalled; input not majorized"):
        submaj.relations._hlp_chain(sf, sg, DEFAULT_CLASS_TOL)
    assert "stalled" in _assert_chain_is_the_scan_loop(sf, sg)


def _assert_raised_record_is_the_sort_of_h(f, g):
    """h's record from f's equals a fresh sort of h, bitwise, in values and
    in order; returns whether h kept f's order, so that the record was
    derived rather than sorted."""
    sf, sg = submaj.relations._Sorted(f), submaj.relations._Sorted(g)
    h = submaj.relations._raised(sf, sg)
    got, want = submaj.relations._raised_record(h, sf), submaj.relations._Sorted(h)
    assert got.raw is h
    assert got.values.tobytes() == want.values.tobytes()
    assert got.order.tobytes() == want.order.tobytes()
    assert got.order.tobytes() == np.argsort(-h, kind="stable").tobytes()
    along = h[np.argsort(-f, kind="stable")]
    return bool(np.all(along[1:] <= along[:-1]))


def test_raised_record_is_the_sort_of_h_on_both_branches():
    derived = {label: _assert_raised_record_is_the_sort_of_h(f, g) for label, f, g in weak_witness_pairs()}
    assert derived.pop("off-grid fallback n=250") is False
    assert all(derived.values())  # every other pair keeps f's order


@settings(max_examples=300, deadline=None)
@given(holding_weak_pairs())
def test_raised_record_is_the_sort_of_h_with_ties_zeros_and_ulp_moves(pair):
    f, g = pair
    assume(check_weak_majorize(f, g, with_witness=False).holds)
    _assert_raised_record_is_the_sort_of_h(f.values, g.values)


def test_buffer_gap_chain_matches_the_scan_loop_in_the_weak_witness_form():
    # The chain as the weak witness runs it, on h raised from f against g,
    # and on the stalling pairs as they are too.  In the first pair one step
    # leaves j with an excess of about 3e-10, above eps and below 10 * tol,
    # and no short position: the chain ends without stalling, on j's excess
    # as the step left it.
    pairs = [("small excess left", np.array([1.5, 0.5]), np.array([2.0, 3e-10]))]
    for label, f, g in weak_witness_pairs():
        sf, sg = submaj.relations._Sorted(f), submaj.relations._Sorted(g)
        pairs.append((label, submaj.relations._raised(sf, sg), g))
        if label.startswith("stalling"):
            pairs.append((f"{label} as is", f, g))
    outcomes = [_assert_chain_is_the_scan_loop(*map(submaj.relations._Sorted, (x, y)), label) for label, x, y in pairs]
    assert sum(isinstance(o, str) for o in outcomes) >= 2


@pytest.mark.parametrize(
    "raw",
    [
        np.arange(10.0),
        np.arange(10.0)[np.random.default_rng(212).integers(0, 10, 1000)],
        np.full(17, 0.375),
        np.zeros(33),
        np.array([2.5]),
        np.random.default_rng(213).integers(0, 10, 10**5) / 1.0,
        np.random.default_rng(214).uniform(0, 1, 10**5),
        np.array([1.0, 0.0, 3.0, 1.0, 2.0, 3.0]),
        np.array([0.0, 3.0, 4.0, 0.0, 3.0]),
    ],
    ids=[
        "0..9", "0..9 repeated", "all equal", "all zero", "n=1", "0..9 at n=1e5", "uniform at n=1e5",
        "tied first, untied last", "untied first, tied last",
    ],
)
def test_order_is_the_stable_argsort(raw):
    order = submaj.relations._Sorted(raw).order
    assert order.tobytes() == np.argsort(-raw, kind="stable").tobytes()


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_witness_class_is_the_class_of_its_sums(tol):
    # The class is read off the scales when some |s_i - 1| exceeds tol, and
    # from the pulled-back column sums otherwise; either way it is the one
    # class rule on both sums.  Read later, the column sums are the eager
    # pull-back of ones, bitwise, and lie in [0, 1].
    decided = {True: 0, False: 0}
    for f, g in class_pairs():
        verdict = check_submajorize(f, g, tol=tol)
        assert verdict.holds
        w = verdict.witness
        by_scales = not np.all(np.abs(w.row_sums - 1) <= tol)
        decided[by_scales] += 1
        assert (w._col_sums is None) is by_scales
        eager = w._rmatvec(np.ones(w.n))
        assert w.col_sums.tobytes() == eager.tobytes()
        assert w.col_sums is w.col_sums and not w.col_sums.flags.writeable
        assert np.all((0.0 <= eager) & (eager <= 1.0))
        assert w.matrix_class is submaj.matrices._class_of(w.row_sums, eager, tol)
        d1 = verdict.certificate.completion
        assert d1.matrix_class is submaj.matrices._class_of(d1.row_sums, d1.col_sums, tol)
    assert decided[True] and decided[False]


def test_submajorize_runs_no_pull_back_when_the_scales_decide_the_class(monkeypatch):
    pulled = []
    real = submaj.relations._ChainMatrix._rmatvec
    monkeypatch.setattr(submaj.relations._ChainMatrix, "_rmatvec", lambda m, x: pulled.append(m) or real(m, x))
    f, g = (NonNegVector(v) for v in perfbench_pair(2000))
    w = check_submajorize(f, g).witness
    assert w.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC
    assert pulled == []
    w.col_sums, w.col_sums
    assert pulled == [w]
    same = check_submajorize(g, g).witness  # every scale is 1: the sums decide
    assert same.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
    assert pulled == [w, same]


def test_submajorize_scans_with_np_nonzero_a_fixed_number_of_times(monkeypatch):
    # The chain scans twice, however many steps it takes; the decision scans
    # its blocks with no np.nonzero.
    n = 2000
    rng = np.random.default_rng(74)
    g = rng.uniform(0, 1, n)
    f = 0.9 * g[rng.permutation(n)]
    f[: n - 1 : 2] = f[1::2] = (f[: n - 1 : 2] + f[1::2]) / 2
    calls = []
    nonzero = np.nonzero

    def counted(*args, **kwargs):
        calls.append(1)
        return nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "nonzero", counted)
    verdict = check_submajorize(NonNegVector(f), NonNegVector(g))
    assert verdict.holds and verdict.certificate is not None
    assert len(calls) <= 4
    sf, sg = (submaj.relations._Sorted(v) for v in (f, g))
    sh = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
    assert len(submaj.relations._hlp_chain(sh, sg, DEFAULT_CLASS_TOL)) > n // 2


def test_submajorize_decides_once_and_runs_no_completion(monkeypatch):
    def forbidden(*args, **kwargs):
        raise RuntimeError("check_submajorize must not call this")

    for name in ("check_majorize", "check_weak_majorize", "hlp_witness", "intermediate_h", "weak_witness"):
        monkeypatch.setattr(submaj.relations, name, forbidden)
    monkeypatch.setattr(submaj.matrices, "vonneumann_complete", forbidden)
    g = V(2, 0, 0.5)
    verdict = check_submajorize(V(0.5, 0.25, 0.5), g)
    assert verdict.holds
    assert np.max(np.abs(verdict.witness.data @ g.values - [0.5, 0.25, 0.5])) <= 1e-12
    assert verdict.certificate.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC


def test_submajorize_keeps_two_dense_arrays_alive():
    # Reading both arrays makes W and its factor D1 the only n x n arrays at
    # the peak: D1 is built once and W scaled from it.
    n = 400
    g = NonNegVector(np.random.default_rng(71).uniform(0, 1, n))
    f = NonNegVector(0.9 * g.values)
    tracemalloc.start()
    try:
        verdict = check_submajorize(f, g)
        verdict.witness.data, verdict.certificate.completion.data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.certificate is not None
    assert peak < 2.5 * n * n * 8


@settings(max_examples=300, deadline=None)
@given(witness_pairs(), st.booleans())
def test_witness_factors_match_the_dense_reference(pair, completion_first):
    # D1 and the majorization witness within 1e-12 of the product of their
    # chains' explicit T matrices, and W bitwise D1 scaled by its row sums
    # s, whichever of W and D1 is read first; each with the class its dense
    # sums give and structural sums within (n + 2 steps) eps of the dense ones.
    f, g = pair
    verdict, major = check_submajorize(f, g), check_majorize(f, g)
    witnesses = []
    if verdict.holds:
        witnesses += [verdict.witness, verdict.certificate.completion][:: -1 if completion_first else 1]
    if major.holds:
        witnesses.append(major.witness)
    for m in witnesses:
        data = m.data
        if m._factor is None:
            reference = oracles.dense_chain_product(submaj.relations._chain_of(m))
            assert np.max(np.abs(data - reference)) <= 1e-12
        else:
            assert data.tobytes() == (m._factor.data * m.row_sums[:, None]).tobytes()
        assert m.matrix_class is classify_matrix(data).matrix_class
        bound = (m.n + 2 * len(m._steps)) * np.finfo(float).eps
        assert np.max(np.abs(m.row_sums - data.sum(axis=1))) <= bound
        assert np.max(np.abs(m.col_sums - data.sum(axis=0))) <= bound


def _counting_chain_product(monkeypatch, refuse=False):
    """Count the calls of the dense builder; with ``refuse``, fail each one
    before it allocates."""
    calls = []
    real = submaj.relations._chain_product

    def spy(*args):
        calls.append(1)
        if refuse:
            raise AssertionError("_chain_product called")
        return real(*args)

    monkeypatch.setattr(submaj.relations, "_chain_product", spy)
    return calls


@pytest.mark.parametrize("completion_first", [False, True])
def test_dense_arrays_are_built_once_on_first_read(monkeypatch, completion_first):
    calls = _counting_chain_product(monkeypatch)
    g = NonNegVector(np.random.default_rng(75).uniform(0, 1, 50))
    f = NonNegVector(0.9 * g.values[::-1])
    verdict = check_submajorize(f, g)
    w, d1 = verdict.witness, verdict.certificate.completion
    assert all(repr(m).endswith("data not built)") for m in (w, d1))
    assert calls == []
    first, second = (d1, w) if completion_first else (w, d1)
    arrays = [first.data, second.data]
    assert len(calls) == 1
    assert first.data is arrays[0] and second.data is arrays[1]
    assert not any(a.flags.writeable for a in arrays)
    assert w.data.tobytes() == (d1.data * (f.values / intermediate_h(f, g).values)[:, None]).tobytes()
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        w.data = d1.data


@settings(max_examples=200, deadline=None)
@given(witness_pairs(), st.integers(0, 2**32 - 1))
def test_chain_apply_matches_the_dense_product(pair, seed):
    # apply() runs the chain in O(n + steps); the dense product rounds every
    # entry along the same steps and then sums n terms.  Pushing a unit
    # vector through the chain does each column's arithmetic of the dense
    # build, so it gives that column bitwise.
    f, g = pair
    witnesses = []
    verdict = check_submajorize(f, g)
    if verdict.holds:
        witnesses += [verdict.witness, verdict.certificate.completion]
    major = check_majorize(f, g)
    if major.holds:
        witnesses.append(major.witness)
    for m in witnesses:
        x = np.random.default_rng(seed).uniform(0, 1, m.n) * 2.0 ** (seed % 121 - 60)
        bound = (m.n + 2 * len(m._steps)) * np.finfo(float).eps * x.max()
        assert np.max(np.abs(apply(m, NonNegVector(x)).values - m.data @ x)) <= bound
        for j, unit in enumerate(np.eye(m.n)):
            assert apply(m, NonNegVector(unit)).values.tobytes() == m.data[:, j].tobytes()


@settings(max_examples=100, deadline=None)
@given(witness_pairs())
def test_chain_entries_match_the_dense_array_bitwise(pair):
    # entry() pushes e_j through the chain until data is built, then reads
    # data; every entry of every witness agrees bitwise either way.
    f, g = pair
    witnesses = []
    verdict = check_submajorize(f, g)
    if verdict.holds:
        witnesses += [verdict.witness, verdict.certificate.completion]
    major = check_majorize(f, g)
    if major.holds:
        witnesses += [major.witness, hlp_witness(f, g).product]
    indices = range(1, max(f.dim, g.dim) + 1)
    from_chain = [np.array([[m.entry(i, j) for j in indices] for i in indices]) for m in witnesses]
    assert all(repr(m).endswith("data not built)") for m in witnesses)
    for m, entries in zip(witnesses, from_chain):
        assert entries.tobytes() == m.data.tobytes()
        assert all(m.entry(i, j) == m.data[i - 1, j - 1] for i in indices for j in indices)


def test_submajorize_at_n_1e5_builds_no_dense_array(monkeypatch):
    # A dense array at this size would take 80 GB: the spy refuses before any
    # allocation, and no line here reads .data.
    from perfbench.checks import residual_bound

    calls = _counting_chain_product(monkeypatch, refuse=True)
    f, g = perfbench_pair(10**5)
    verdict = check_submajorize(NonNegVector(f), NonNegVector(g))
    assert verdict.holds
    assert verdict.witness.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC
    assert verdict.certificate.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
    assert np.max(np.abs(apply(verdict.witness, NonNegVector(g)).values - f)) <= residual_bound(g)
    assert calls == []


def test_entry_and_rebuilt_certificate_at_n_1e5_build_no_dense_array(monkeypatch):
    # One entry runs the chain once; a certificate rebuilt from the verdict's
    # own W and D1 skips the scan, so neither reads .data.
    calls = _counting_chain_product(monkeypatch, refuse=True)
    n = 10**5
    verdict = check_submajorize(*(NonNegVector(v) for v in perfbench_pair(n)))
    w, d1 = verdict.witness, verdict.certificate.completion
    cert = IncreasabilityCertificate(base=w, completion=d1)
    assert (cert.base, cert.completion, cert.steps) == (w, d1, ())
    assert 0.0 <= w.entry(1, 1) <= 1.0
    assert 0.0 <= d1.entry(n, n) <= 1.0
    assert w.entry(1, 1) <= d1.entry(1, 1)
    assert calls == []


def test_submajorize_peak_is_linear_in_n(monkeypatch):
    # The dense path would hold two 3.2 GB arrays at n = 2 * 10^4; the spy
    # fails it before the first.
    _counting_chain_product(monkeypatch, refuse=True)
    f, g = (NonNegVector(v) for v in perfbench_pair(2 * 10**4))
    verdict, peak = _traced(lambda: check_submajorize(f, g))
    assert verdict.holds and verdict.certificate is not None
    assert peak < 64 * 2**20


def test_witness_peaks_at_n_1e5_hold_no_partial_sum_buffer():
    # A witness-building decision once kept an n-length complex buffer of
    # both inputs' partial sums (2 x 8n bytes) while the witness was built;
    # h's sums are now made in _raised and freed there.  Peaks in units of
    # 8n bytes with that buffer / without it barely move with n.  At
    # n = 2 * 10^4: check_majorize 33.5 / 31.5 on the majorization pair,
    # check_submajorize 31.0 / 29.0 on the weak pair and 37.5 / 35.5 on the
    # majorization pair.  At n = 10^5: check_majorize 4.2 / 2.5 on the weak
    # pair, which fails at the totals (4.95 / 4.58 at 2 * 10^4, too close to
    # gate).  Each gate lies halfway.
    for n, make, check, holds, gate in (
        (2 * 10**4, inputs.major_pair, check_majorize, True, 32.5),
        (10**5, inputs.weak_pair, check_majorize, False, 3.35),
        (2 * 10**4, inputs.weak_pair, check_submajorize, True, 30.0),
        (2 * 10**4, inputs.major_pair, check_submajorize, True, 36.5),
    ):
        f, g = (NonNegVector(v) for v in perfbench_pair(n, make))
        verdict, peak = _traced(lambda: check(f, g))
        assert verdict.holds is holds
        assert peak < gate * 8 * n, (n, make.__name__, check.__name__, peak / (8 * n))


def test_submajorize_at_n_2000_runs_no_dense_classification_or_dominance_scan(monkeypatch):
    # The classes come from the chain and the certificate dominates by
    # construction, also when rebuilt from the same W and D1; a certificate
    # with a dense copy of W still scans.
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for module in (submaj.matrices, submaj.relations):
        for name in ("_classify", "classify_matrix", "_dominates"):
            real = getattr(submaj.matrices, name)
            monkeypatch.setattr(module, name, spy(name, real), raising=False)
    n = 2000
    rng = np.random.default_rng(74)
    g = rng.uniform(0, 1, n)
    f = 0.9 * g[rng.permutation(n)]
    f[: n - 1 : 2] = f[1::2] = (f[: n - 1 : 2] + f[1::2]) / 2
    verdict = check_submajorize(NonNegVector(f), NonNegVector(g))
    assert verdict.holds and verdict.certificate is not None
    assert verdict.witness.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC
    assert verdict.certificate.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
    assert calls == []
    w, d1 = verdict.witness, verdict.certificate.completion
    IncreasabilityCertificate(base=w, completion=d1)
    assert calls == []
    dense = submaj.matrices.StochMatrix(w.data, w.row_sums, w.col_sums, w.matrix_class)
    IncreasabilityCertificate(base=dense, completion=d1)
    assert calls == ["_dominates"]


def test_only_the_witness_own_factor_skips_the_dominance_scan(monkeypatch):
    # The skip is an identity test on W's factor, not equality: an equal D1
    # from a second verdict, D1 under itself and W under another completion
    # all scan, and a completion that does not dominate W is rejected.
    calls = []
    real = submaj.matrices._dominates
    monkeypatch.setattr(submaj.matrices, "_dominates", lambda *a: calls.append(1) or real(*a))
    g = NonNegVector(np.random.default_rng(76).uniform(0, 1, 40))
    f = NonNegVector(0.9 * g.values[::-1])
    verdict, again = check_submajorize(f, g), check_submajorize(f, g)
    w, d1 = verdict.witness, verdict.certificate.completion
    assert calls == []
    IncreasabilityCertificate(base=w, completion=d1)
    assert calls == []
    IncreasabilityCertificate(base=w, completion=again.certificate.completion)
    assert len(calls) == 1
    IncreasabilityCertificate(base=d1, completion=d1)
    assert len(calls) == 2
    assert not w._below(again.certificate.completion) and not d1._below(d1)
    with pytest.raises(ValueError, match="dominate"):
        IncreasabilityCertificate(base=w, completion=identity_matrix(40))
    assert len(calls) == 3


def test_witness_factors_are_checked_not_assumed(monkeypatch):
    f, g = V(1, 0.5, 1), V(2, 0, 0.5)
    sf, sg = submaj.relations._Sorted(f.values), submaj.relations._Sorted(g.values)
    steps = submaj.relations._hlp_chain(sf, sg, DEFAULT_CLASS_TOL)
    for t in (-0.25, 1.25, float("nan")):
        bad = steps[:-1] + (steps[-1][:2] + (t,),)
        with pytest.raises(RuntimeError, match=r"coefficient outside \[0, 1\]"):
            submaj.relations._ChainMatrix(bad, sf.order, sg.order, DEFAULT_CLASS_TOL)
    # An h one ulp below f = g would give row scales above 1, so W would not
    # sit under D1; the chain for h against g itself runs.
    monkeypatch.setattr(submaj.relations, "_raised", lambda sf, sg: np.nextafter(sf.raw, 0))
    with pytest.raises(RuntimeError, match=r"row scales outside \[0, 1\]"):
        check_submajorize(g, g)


# t at the edges of the lemma's two cases: 0, the least subnormal, every power
# of two, 1/2 and 1 with their neighbouring ulps.
@settings(max_examples=500, deadline=None)
@given(unit_t_chains())
def test_ones_pass_through_a_chain_of_unit_t_exactly(chain):
    # fl(fl(1 - t) * 1 + t * 1) = 1 for every t in [0, 1]: for t >= 1/2,
    # 1 - t is exact (Sterbenz); below, fl(1 - t) = 1 - t + e with
    # |e| <= 2^-54, and 1 + e rounds to 1 (the tie at e = -2^-54 to the even
    # neighbour, 1).  The chain witnesses take their sums from this.
    # _mixed indexes its list by the 1-based step coordinates; x[0] is a placeholder.
    n, steps = chain
    assert submaj.relations._mixed(steps, [0.0] + [1.0] * n) == [0.0] + [1.0] * n
    assert submaj.relations._mixed(steps[::-1], [0.0] + [1.0] * n) == [0.0] + [1.0] * n


def test_ones_pass_through_every_edge_t_exactly():
    for t in EDGE_T:
        assert submaj.relations._mixed([(1, 2, t)], [0.0, 1.0, 1.0]) == [0.0, 1.0, 1.0], t


def _chain_witnesses(f, g):
    """Every chain matrix the relations build for (f, g): W and D1, the
    majorization witness and ``hlp_witness().product``, as far as each holds."""
    out = []
    verdict = check_submajorize(f, g)
    if verdict.holds:
        out += [verdict.witness, verdict.certificate.completion]
    major = check_majorize(f, g)
    if major.holds:
        out += [major.witness, hlp_witness(f, g).product]
    return out


def _assert_sums_are_the_chain_passes(m):
    # The sums as computed before the lemma, kept as the oracle: ones pushed
    # through the chain (for W, then scaled by s) and pulled back through it.
    ones = np.ones(m.n)
    rows, cols = m._matvec(ones), m._rmatvec(ones)
    assert m.row_sums.tobytes() == rows.tobytes()
    assert m.col_sums.tobytes() == cols.tobytes()
    assert m.matrix_class is submaj.matrices._class_of(rows, cols, DEFAULT_CLASS_TOL)


@pytest.mark.parametrize("n", [250, 2000])
def test_chain_sums_equal_the_chain_passes_on_perfbench_pairs(n):
    for k in range(1, 4):
        for pair in (inputs.weak_pair, inputs.major_pair):
            f, g = pair(np.random.default_rng([1, k]), n)
            witnesses = _chain_witnesses(NonNegVector(f), NonNegVector(g))
            assert len(witnesses) == (4 if pair is inputs.major_pair else 2)
            for m in witnesses:
                _assert_sums_are_the_chain_passes(m)


@settings(max_examples=300, deadline=None)
@given(holding_weak_pairs())
def test_chain_sums_equal_the_chain_passes(pair):
    # Ties, exact zeros, one-ulp moves and scales 2^-60..2^60: every chain
    # witness takes its sums from the chain passes, bitwise.
    for m in _chain_witnesses(*pair):
        _assert_sums_are_the_chain_passes(m)


def test_hlp_witness_keeps_named_steps_and_its_json():
    chain = hlp_witness(V(0.25, 0.5, 0.25), V(0, 1, 0))
    assert all(type(step) is TTransformStep for step in chain.steps)
    assert [step.t for step in chain.steps] == [0.25, 1 / 3]
    assert json.dumps(chain.to_json_dict()) == (
        '{"steps": [{"i": 1, "j": 2, "t": 0.25}, {"i": 1, "j": 3, "t": 0.3333333333333333}], '
        '"pre_perm": [2, 1, 3], "post_perm": [2, 1, 3], "product": {"n": 3, "data": [0.75, 0.25, 0.0, '
        '0.16666666666666669, 0.5, 0.3333333333333333, 0.08333333333333333, 0.25, 0.6666666666666667], '
        '"class": "doubly-stochastic"}}'
    )


class TestWeakWitness:
    def test_row_scaled_witness_matches_derivation(self):
        d = weak_witness(V(0.5, 0.5), V(2, 0))
        assert d.data == pytest.approx(np.array([[0.25, 1 / 12], [0.25, 0.75]]), abs=1e-12)
        assert d.data @ [2, 0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert d.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC)

    def test_exact_majorization_needs_no_scaling(self):
        f, g = V(1, 1), V(2, 0)
        assert np.array_equal(weak_witness(f, g).data, hlp_witness(f, g).product.data)

    def test_zero_vector_gets_zero_matrix(self):
        assert np.array_equal(weak_witness(V(0, 0), V(2, 0)).data, np.zeros((2, 2)))

    def test_random_weak_witnesses_sound(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(1, 25))
            g = random_nonneg_vector(rng, n)
            f = apply(random_doubly_substochastic(rng, n), g)
            d = weak_witness(f, g)
            assert d.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC)
            assert np.max(np.abs(d.data @ g.values - f.values)) <= 1e-9


class TestTransitivityViaComposition:
    def test_composed_witness_certifies_transitive_relation(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            k = random_nonneg_vector(rng, n)
            g = apply(random_doubly_substochastic(rng, n), k)
            f = apply(random_doubly_substochastic(rng, n), g)
            d_fg = check_submajorize(f, g).witness
            d_gk = check_submajorize(g, k).witness
            d_fk = compose(d_fg, d_gk)
            assert d_fk.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC)
            assert np.max(np.abs(d_fk.data @ k.values - f.values)) <= 1e-9
            vonneumann_complete(d_fk)  # increasable, certificate exists


class TestPermutations:
    def test_strict_found_for_same_multiset(self):
        perm = strict_permutation(V(1, 2, 3), V(3, 1, 2))
        assert perm is not None
        g = V(3, 1, 2)
        assert [g.values[p - 1] for p in perm] == [1, 2, 3]

    def test_reciprocal_square_zero_padded(self):
        f = V(1, 1 / 4, 1 / 9, 0)
        g = V(0, 1, 1 / 4, 1 / 9)
        assert strict_permutation(f, g) is not None
        support_map = partial_permutation(f, g)
        assert support_map == {1: 2, 2: 3, 3: 4}

    def test_none_when_multisets_differ(self):
        assert permutation_between(V(1, 2), V(2, 2), "strict") is None
        assert permutation_between(V(1, 2), V(2, 2), "partial") is None

    def test_partial_ignores_zeros(self):
        assert partial_permutation(V(0, 5, 0), V(5, 0, 0)) == {2: 1}

    def test_partial_matches_list_sort_reference(self):
        # Half-integer values give ties and exact zeros; g reuses f's positives
        # (shuffled, some shifted by 0.5, zeros added) in unequal dimensions.
        rng = np.random.default_rng(43)
        outcomes = set()
        for _ in range(1500):
            f = NonNegVector(rng.integers(0, 5, size=int(rng.integers(1, 9))) / 2)
            if rng.uniform() < 0.75:
                pos = rng.permutation(f.values[f.values > 0])
                pos = pos + 0.5 * (rng.uniform(size=pos.size) < 0.15)
                g_vals = np.concatenate([pos, np.zeros(int(rng.integers(0, 4)))])
                g = NonNegVector(rng.permutation(g_vals) if g_vals.size else np.zeros(1))
            else:
                g = NonNegVector(rng.integers(0, 5, size=int(rng.integers(1, 9))) / 2)
            for value_tol in (0.0, 0.6):
                want = oracles.partial_permutation(f, g, value_tol)
                got = partial_permutation(f, g, value_tol)
                assert got == want
                if want is not None:
                    assert list(got.items()) == list(want.items())  # same order too
                outcomes.add((value_tol, want is None, f.dim == g.dim))
        assert len(outcomes) == 8  # every tolerance meets maps and None, in equal and unequal dims

    def test_mode_dispatch_validates(self):
        with pytest.raises(ValueError, match="mode"):
            permutation_between(V(1), V(1), "fancy")

    def test_mutual_submajorization_iff_permutation(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            f = random_nonneg_vector(rng, n)
            pf = apply(random_permutation_matrix(rng, n), f)
            assert check_submajorize(f, pf, with_witness=False).holds
            assert check_submajorize(pf, f, with_witness=False).holds
            assert strict_permutation(f, pf) is not None


class TestOracle:
    def test_spec_goldens(self):
        assert oracle_majorize_bruteforce(V(1, 1), V(2, 0), "strong")
        assert not oracle_majorize_bruteforce(V(2, 0.5), V(2, 0), "weak")
        f = V(0.4, 1.1, 0.2)
        assert oracle_majorize_bruteforce(f, f, "strong")

    def test_scipy_loads_only_with_the_oracle(self):
        script = (
            "import sys, submaj\n"
            "assert 'scipy.optimize' not in sys.modules, 'import submaj loaded scipy.optimize'\n"
            "V = submaj.NonNegVector.of\n"
            "assert submaj.oracle_majorize_bruteforce(V(1, 1), V(2, 0), 'strong')\n"
            "assert not submaj.oracle_majorize_bruteforce(V(2, 0.5), V(2, 0), 'weak')\n"
            "assert 'scipy.optimize' in sys.modules\n"
        )
        src = str(Path(submaj.relations.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_boundary_pair_where_the_oracle_and_the_checks_disagree(self):
        # Each coordinate of f is 9e-10 above g's, within tol = 1e-9, and the
        # totals differ by 1.8e-9, within n * tol: the oracle accepts.  The
        # second sorted prefix sum exceeds g's by 1.8e-9 > tol: the check
        # rejects.  Documents the two rules; neither is changed here.
        f, g = V(1 + 9e-10, 1 + 9e-10), V(1, 1)
        assert oracle_majorize_bruteforce(f, g, "strong")
        verdict = check_majorize(f, g, with_witness=False)
        assert (verdict.holds, verdict.failed_index) == (False, 2)

    def test_dim_limit(self):
        big = NonNegVector(np.ones(7))
        with pytest.raises(ValueError, match="dim"):
            oracle_majorize_bruteforce(big, big, "strong")

    def test_relation_validated(self):
        with pytest.raises(ValueError, match="relation"):
            oracle_majorize_bruteforce(V(1), V(1), "medium")

    def test_agreement_on_random_pairs(self):
        rng = np.random.default_rng(28)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            g = random_nonneg_vector(rng, n)
            roll = rng.uniform()
            if roll < 0.4:
                f = apply(random_doubly_substochastic(rng, n), g)
            elif roll < 0.7:
                f = apply(random_doubly_stochastic(rng, n), g)
            else:
                f = random_nonneg_vector(rng, n)
            assert oracle_majorize_bruteforce(f, g, "strong") == check_majorize(
                f, g, with_witness=False
            ).holds
            assert oracle_majorize_bruteforce(f, g, "weak") == check_weak_majorize(
                f, g, with_witness=False
            ).holds
