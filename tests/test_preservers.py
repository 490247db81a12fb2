"""Injection families, operator builds, classification, intertwining, fuzzing."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submaj.preservers
from submaj.demos import (
    quadratic_family,
    shift_forcing,
    theta_quadratic,
    theta_triangular,
    triangular_constant_row,
    triangular_family,
)
from submaj.matrices import classify_matrix, vonneumann_complete
from submaj.preservers import (
    _intertwining_gap,
    Injection,
    InjectionFamily,
    PreserverSpec,
    TruncatedOperator,
    apply_Th,
    apply_injection_operator,
    build_preserver,
    classify_preserver_l1,
    classify_preserver_lp,
    construct_S,
    empirical_preservation_check,
    identity_injection,
    injection_matrix,
    preservation_rows_needed,
    random_injection_family,
    validate_family,
)
from submaj.relations import check_weak_majorize
from submaj.sampling import random_doubly_substochastic
from submaj.vectors import NonNegVector, p_norm

import oracles
from corpus import families, operators, placement_cases

V = NonNegVector.of


class TestInjection:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            Injection((1, 2, 2))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Injection((0, 1))

    def test_identity_application(self):
        f = V(1, 2, 3)
        assert apply_injection_operator(identity_injection(3), f).values.tolist() == [1, 2, 3]

    def test_shift_as_injection(self):
        theta = Injection((2, 3, 4))  # j -> j + 1
        out = apply_injection_operator(theta, V(1, 2, 3))
        assert out.values.tolist() == [0, 1, 2, 3]

    def test_quadratic_member_placement(self):
        theta = quadratic_family(1, 3).members[0]  # images (2, 3, 5)
        out = apply_injection_operator(theta, V(1, 2, 3))
        assert out.values.tolist() == [0, 1, 2, 0, 3]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_injection_operator(identity_injection(3), V(1, 2))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
    def test_norm_preserved(self, p):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            targets = rng.choice(40, size=n, replace=False) + 1
            theta = Injection(tuple(int(t) for t in targets))
            f = NonNegVector(rng.uniform(0, 2, n))
            assert p_norm(apply_injection_operator(theta, f), p) == pytest.approx(
                p_norm(f, p), rel=1e-12
            )


class TestFamilyValidation:
    def test_quadratic_family_disjoint(self):
        verdict = validate_family(quadratic_family(2, 4))
        assert verdict.valid and verdict.collision is None

    def test_identity_twice_collides(self):
        verdict = validate_family(InjectionFamily((identity_injection(3), identity_injection(3))))
        assert not verdict.valid
        assert tuple(verdict.collision) == (1, 1, 2, 1)

    def test_single_member_always_valid(self):
        assert validate_family(InjectionFamily((Injection((4, 9, 1)),))).valid

    def test_family_requires_common_domain(self):
        with pytest.raises(ValueError, match="domain"):
            InjectionFamily((identity_injection(2), identity_injection(3)))


class TestPreserverSpec:
    def test_weight_count_must_match(self):
        with pytest.raises(ValueError, match="weight"):
            PreserverSpec(p=2.0, weights=(0.5,), family=quadratic_family(2, 3))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PreserverSpec(p=2.0, weights=(-0.5, 1.0), family=quadratic_family(2, 3))

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p >= 1"):
            PreserverSpec(p=0.5, weights=(1.0,), family=quadratic_family(1, 3))

    def test_constant_row_only_for_p_one(self):
        h = V(1, 0, 0)
        with pytest.raises(ValueError, match="p = 1"):
            PreserverSpec(p=2.0, weights=(1.0,), family=quadratic_family(1, 3), constant_row=h)

    def test_constant_row_support_must_avoid_images(self):
        h = np.zeros(6)
        h[1] = 0.4  # index 2 is the first quadratic image
        with pytest.raises(ValueError, match="avoid"):
            PreserverSpec(p=1.0, weights=(1.0,), family=quadratic_family(1, 3),
                          constant_row=NonNegVector(h))

    def test_constant_row_hits_list_the_first_three_ascending(self):
        # Images (2, 3, 5, 8, 12) and (4, 6, 9, 13, 18); h is positive at
        # 1-based 1, 4, 5, 8, 9, 13 and 14, so it hits 4, 5, 8, 9 and 13, in
        # member order 5, 8, 4, 9, 13; image 18 lies past h.
        h = np.zeros(14)
        h[[0, 3, 4, 7, 8, 12, 13]] = 0.1
        with pytest.raises(ValueError) as err:
            PreserverSpec(p=1.0, weights=(0.5, 0.5), family=quadratic_family(2, 5), constant_row=NonNegVector(h))
        assert str(err.value) == "constant-row support must avoid all injection images; hits [4, 5, 8]"

    def test_constant_row_support_sets_the_window_and_its_rows(self):
        h = np.zeros(30)
        h[[0, 6, 29]] = (0.3, 0.2, 0.1)  # 1-based 1, 7 and 30 avoid every image
        spec = PreserverSpec(p=1.0, weights=(0.5, 0.5), family=quadratic_family(2, 5), constant_row=NonNegVector(h))
        assert preservation_rows_needed(spec, 3) == 30
        for rows, kept in ((6, [1]), (7, [1, 7]), (29, [1, 7]), (30, [1, 7, 30])):
            op = build_preserver(spec, rows, 3)
            assert sorted({i for (i, j) in op.entries if h[i - 1] > 0}) == kept

    def test_json_round_trip(self):
        h = np.zeros(8)
        h[0] = 0.25
        spec = PreserverSpec(p=1.0, weights=(0.5, 0.25), family=quadratic_family(2, 3),
                             constant_row=NonNegVector(h))
        back = PreserverSpec.from_json_dict(spec.to_json_dict())
        assert back.p == 1.0
        assert back.weights == (0.5, 0.25)
        assert [m.mapping for m in back.family.members] == [m.mapping for m in spec.family.members]
        assert np.array_equal(back.constant_row.values, spec.constant_row.values)


class TestTruncatedOperator:
    def test_rejects_entries_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            TruncatedOperator(rows=2, cols=2, entries={(3, 1): 1.0})

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            TruncatedOperator(rows=2, cols=2, entries={(1, 1): 0.0})

    @pytest.mark.parametrize("entries", [{(1, 2, 3): 1.0}, {(1, 2): 1.0, (3,): 2.0}])
    def test_rejects_keys_that_are_not_pairs(self, entries):
        with pytest.raises(ValueError):
            TruncatedOperator(rows=3, cols=3, entries=entries)

    def test_apply_matches_dense(self):
        t = TruncatedOperator(rows=3, cols=2, entries={(1, 1): 0.5, (3, 2): 2.0})
        f = V(2, 1)
        assert np.array_equal(t.apply(f).values, t.to_dense() @ f.values)

    def test_apply_dimension_mismatch(self):
        t = TruncatedOperator(rows=2, cols=2, entries={(1, 1): 1.0})
        with pytest.raises(ValueError, match="mismatch"):
            t.apply(V(1, 2, 3))

    def test_json_round_trip(self):
        t = TruncatedOperator(rows=3, cols=2, entries={(1, 2): 0.5, (3, 1): 1.5})
        back = TruncatedOperator.from_json_dict(t.to_json_dict())
        assert back.entries == t.entries and back.rows == 3 and back.cols == 2


class TestBuildPreserver:
    def test_empty_spec_builds_zero_operator(self):
        spec = PreserverSpec(p=1.0, weights=(), family=InjectionFamily(()))
        t = build_preserver(spec, rows=3, cols=2)
        assert t.entries == {}
        assert np.array_equal(t.to_dense(), np.zeros((3, 2)))

    def test_zero_weights_leave_no_entries(self):
        spec = PreserverSpec(p=2.0, weights=(0.0,), family=quadratic_family(1, 3))
        assert build_preserver(spec, rows=8, cols=3).entries == {}

    def test_columns_capped_by_domain(self):
        spec = PreserverSpec(p=2.0, weights=(1.0,), family=quadratic_family(1, 3))
        with pytest.raises(ValueError, match="domain"):
            build_preserver(spec, rows=8, cols=4)


class TestApplyTh:
    def test_formula(self):
        assert apply_Th(V(1, 0), V(2, 3)).values.tolist() == [5, 0]

    def test_zero_input(self):
        assert apply_Th(V(1, 2), V(0, 0)).values.tolist() == [0, 0]

    def test_first_coordinate_scales_total(self):
        a = 0.3
        h = NonNegVector(np.array([a, 0, 0, 0, 0, 0]))
        f = V(0.1, 0.2, 0.3, 0.4, 0.5)
        out = apply_Th(h, f)
        assert out.values[0] == pytest.approx(a * f.values.sum())
        assert np.all(out.values[1:] == 0)


class TestDisjointAdditivity:
    def test_one_norm_scales_by_total_weight(self):
        # Disjoint images make the weighted copies of f non-overlapping, so
        # the built operator multiplies the 1-norm by the weight total.
        rng = np.random.default_rng(32)
        for _ in range(20):
            members = int(rng.integers(1, 5))
            domain = int(rng.integers(1, 7))
            family = random_injection_family(rng, members, domain, truncate=members * domain + 10)
            weights = tuple(float(w) for w in rng.uniform(0.0, 2.0, members))
            spec = PreserverSpec(p=1.0, weights=weights, family=family)
            rows = max(family.union_image())
            t = build_preserver(spec, rows=rows, cols=domain)
            f = NonNegVector(rng.uniform(0, 1, domain))
            assert p_norm(t.apply(f), 1) == pytest.approx(sum(weights) * p_norm(f, 1), abs=1e-12)


class TestClassifiers:
    def test_built_operator_accepted_lp(self):
        spec = PreserverSpec(p=2.0, weights=(0.5, 0.2), family=quadratic_family(2, 3))
        rows = max(spec.family.union_image())
        assert classify_preserver_lp(build_preserver(spec, rows, 3)).accepted

    def test_shift_as_single_injection_accepted(self):
        # Right shift = P_theta with theta(j) = j + 1; rows cover every image.
        t = injection_matrix(Injection((2, 3, 4, 5)), rows=5, cols=4)
        assert classify_preserver_lp(t).accepted

    def test_row_with_two_positives_rejected(self):
        t = TruncatedOperator(rows=2, cols=2, entries={(1, 1): 1.0, (1, 2): 0.5})
        verdict = classify_preserver_lp(t)
        assert not verdict.accepted and "row 1" in verdict.reason

    def test_l1_accepts_constant_row_build(self):
        h = np.zeros(16)
        h[0] = 0.7
        spec = PreserverSpec(p=1.0, weights=(0.5, 0.25, 0.125, 0.0625, 0.03125),
                             family=quadratic_family(5, 5), constant_row=NonNegVector(h))
        rows = max(spec.family.union_image())
        assert classify_preserver_l1(build_preserver(spec, rows, 5)).accepted

    def test_l1_accepts_interleaved_constant_rows(self):
        spec = PreserverSpec(p=1.0, weights=(0.5, 0.25, 0.125, 0.0625, 0.03125),
                             family=triangular_family(5, 5),
                             constant_row=triangular_constant_row((0.9, 0.8, 0.7, 0.6), 16))
        rows = max(spec.family.union_image())
        t = build_preserver(spec, rows, 5)
        assert classify_preserver_l1(t).accepted
        for j in range(1, 6):  # constant rows land at 2, 5, 9, 14 in every column
            assert t.entries[(2, j)] == 0.9 and t.entries[(14, j)] == 0.6

    def test_l1_rejects_uneven_row(self):
        t = TruncatedOperator(rows=1, cols=3, entries={(1, 1): 0.4, (1, 2): 0.4, (1, 3): 0.9})
        verdict = classify_preserver_l1(t)
        assert not verdict.accepted and "row 1" in verdict.reason

    def test_lp_rejects_column_multiset_mismatch(self):
        t = TruncatedOperator(rows=4, cols=2, entries={(1, 1): 0.5, (2, 2): 0.75})
        verdict = classify_preserver_lp(t)
        assert not verdict.accepted and "multiset" in verdict.reason

    def test_corruption_flips_verdict(self):
        spec = PreserverSpec(p=2.0, weights=(0.5, 0.2), family=quadratic_family(2, 3))
        rows = max(spec.family.union_image())
        t = build_preserver(spec, rows, 3)
        assert classify_preserver_lp(t).accepted
        corrupted = dict(t.entries)
        corrupted[(1, 1)] = 0.33  # row 1 is empty in the build; a stray positive breaks columns
        assert not classify_preserver_lp(
            TruncatedOperator(rows=rows, cols=3, entries=corrupted)
        ).accepted

    def test_weight_limit_still_classifies(self):
        # Geometric weight sequences converging entrywise keep the verdict.
        base = np.array([0.5, 0.25, 0.125])
        for m in range(1, 13):
            lam = tuple(base + 2.0**-m)
            spec = PreserverSpec(p=2.0, weights=lam, family=quadratic_family(3, 4))
            rows = max(spec.family.union_image())
            assert classify_preserver_lp(build_preserver(spec, rows, 4)).accepted
        spec = PreserverSpec(p=2.0, weights=tuple(base), family=quadratic_family(3, 4))
        rows = max(spec.family.union_image())
        assert classify_preserver_lp(build_preserver(spec, rows, 4)).accepted


class TestConstructS:
    def test_identity_family_reproduces_base(self):
        rng = np.random.default_rng(33)
        d = random_doubly_substochastic(rng, 3)
        cert = vonneumann_complete(d)
        s = construct_S(cert, InjectionFamily((identity_injection(3),)), a=0.42)
        assert np.max(np.abs(s.to_dense() - d.data)) <= 1e-12

    def test_offset_injection_places_block_and_diagonal(self):
        d = classify_matrix([[0.5, 0.5], [0.5, 0.5]])
        cert = vonneumann_complete(d)
        family = InjectionFamily((Injection((3, 4)),))  # j -> j + 2
        s = construct_S(cert, family, a=0.5, truncate=4).to_dense()
        assert np.max(np.abs(s[2:, 2:] - d.data)) <= 1e-12
        assert s[0, 0] == 0.5 and s[1, 1] == 0.5
        assert s[0, 1] == 0 and s[2, 0] == 0

    def test_equal_norms_pin_outside_diagonal_to_one(self):
        # a = 1 - |f|/|g| collapses to 0 when the norms agree.
        d = classify_matrix([[1.0]])
        cert = vonneumann_complete(d)
        s = construct_S(cert, InjectionFamily((Injection((2,)),)), a=0.0, truncate=3).to_dense()
        assert s[0, 0] == 1.0 and s[2, 2] == 1.0 and s[1, 1] == 1.0

    def test_intertwining_identity_random(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            members = int(rng.integers(1, 4))
            n = int(rng.integers(members * m, members * m + 20))
            family = random_injection_family(rng, members, m, n)
            cert = vonneumann_complete(random_doubly_substochastic(rng, m))
            s = construct_S(cert, family, float(rng.uniform()), truncate=n)
            s_dense = s.to_dense()
            for member in family.members:
                p_theta = injection_matrix(member, rows=n, cols=m).to_dense()
                gap = np.max(np.abs(p_theta @ cert.base.data - s_dense @ p_theta))
                assert gap <= 1e-12

    def test_gap_matches_the_dense_check(self):
        # The gap read off S's coordinate arrays equals, bit for bit, the one
        # the dense S gave; a second, unrelated D gives gaps far from zero.
        rng = np.random.default_rng(35)
        for _ in range(1500):
            m = int(rng.integers(1, 8))
            members = int(rng.integers(1, 4))
            n = int(rng.integers(members * m, members * m + 10))
            family = random_injection_family(rng, members, m, n)
            cert = vonneumann_complete(random_doubly_substochastic(rng, m))
            s = construct_S(cert, family, float(rng.uniform()), truncate=n)
            s_dense = s.to_dense()
            for d in (cert.base.data, random_doubly_substochastic(rng, m).data):
                for member in family.members:
                    theta = np.asarray(member.mapping) - 1
                    p_theta_d = np.zeros((n, m))
                    p_theta_d[theta] = d
                    want = float(np.max(np.abs(p_theta_d - s_dense[:, theta])))
                    assert _intertwining_gap(s, theta, d) == want

    def test_self_check_raises_when_the_identity_is_violated(self):
        # A negative tolerance fails even a zero gap, so the check must run.
        cert = vonneumann_complete(classify_matrix([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(RuntimeError, match="intertwining identity violated"):
            construct_S(cert, InjectionFamily((Injection((3, 1)),)), a=0.2, check_tol=-1.0)

    def test_rejects_bad_a(self):
        cert = vonneumann_complete(classify_matrix([[1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            construct_S(cert, InjectionFamily((identity_injection(1),)), a=1.5)

    def test_rejects_image_outside_truncation(self):
        cert = vonneumann_complete(classify_matrix([[1.0]]))
        with pytest.raises(ValueError, match="truncation"):
            construct_S(cert, InjectionFamily((Injection((5,)),)), truncate=3)


class TestEmpiricalPreservation:
    def test_identity_spec_always_passes(self):
        spec = PreserverSpec(p=2.0, weights=(1.0,), family=InjectionFamily((identity_injection(6),)))
        report = empirical_preservation_check(spec, trials=40, n=6, seed=1)
        assert report.all_passed and report.failures == 0

    def test_quadratic_family_passes(self):
        spec = PreserverSpec(p=1.0, weights=(0.5, 0.25, 0.125), family=quadratic_family(3, 10))
        report = empirical_preservation_check(spec, trials=100, n=10, seed=2)
        assert report.all_passed

    def test_deterministic_for_fixed_seed(self):
        spec = PreserverSpec(p=2.0, weights=(0.7, 0.2), family=quadratic_family(2, 8))
        r1 = empirical_preservation_check(spec, trials=25, n=8, seed=9)
        r2 = empirical_preservation_check(spec, trials=25, n=8, seed=9)
        assert r1.passes == r2.passes == 25

    def test_adversarial_operator_has_concrete_counterexample(self):
        # A row with two distinct positives is rejected by classification and
        # genuinely breaks preservation on a permuted pair.
        t = TruncatedOperator(rows=2, cols=2, entries={(1, 1): 1.0, (1, 2): 0.5})
        assert not classify_preserver_lp(t).accepted
        f, g = V(1, 0), V(0, 1)  # f is a permutation of g, so f sub g holds
        assert not check_weak_majorize(t.apply(f), t.apply(g), with_witness=False).holds


# ----------------------------------------------------------------------
# Differential tests: the indexed TruncatedOperator against the dict scans
# of ``oracles``.
# ----------------------------------------------------------------------

class TestIndexedOperatorMatchesDictScans:
    @pytest.mark.parametrize("tol", [1e-9, 0.0, 0.3, -1.0])  # a negative tol keeps every entry
    def test_classifiers_match_reference(self, tol):
        verdicts = set()
        for t in operators(seed=61, count=700):
            for new, ref in ((classify_preserver_lp, oracles.classify_lp),
                             (classify_preserver_l1, oracles.classify_l1)):
                got = new(t, tol)
                assert (got.accepted, got.reason) == ref(t, tol), t.entries
                verdicts.add((new.__name__, got.reason.split(" ")[0]))
        if tol == 1e-9:  # every branch of both classifiers was reached
            for name in ("classify_preserver_lp", "classify_preserver_l1"):
                assert {(name, "rows"), (name, "row"), (name, "column")} <= verdicts

    def test_classifiers_share_one_multiset_check_per_tol(self, monkeypatch):
        # Both classifiers at several tols on one operator, in both orders:
        # the same verdicts, and the column multisets compared once per tol.
        calls = []
        real = submaj.preservers._multiset_mismatch
        monkeypatch.setattr(submaj.preservers, "_multiset_mismatch", lambda t, tol: calls.append(tol) or real(t, tol))
        tols = [1e-9, 0.0, 0.3, -1.0]
        pairs = [(classify_preserver_l1, oracles.classify_l1), (classify_preserver_lp, oracles.classify_lp)]
        for t in operators(seed=64, count=300):
            calls.clear()
            for tol in tols + tols[::-1]:
                for new, ref in pairs:
                    got = new(t, tol)
                    assert (got.accepted, got.reason) == ref(t, tol), t.entries
                pairs.reverse()
            assert len(calls) == len(set(calls))

    def test_rows_columns_and_apply_match_reference(self):
        rng = np.random.default_rng(62)
        for t in operators(seed=63, count=300):
            for i in range(0, t.rows + 2):
                assert list(t.row(i).items()) == [(j, v) for (ii, j), v in t.entries.items() if ii == i]
            for j in range(0, t.cols + 2):
                assert list(t.column(j).items()) == [(i, v) for (i, jj), v in t.entries.items() if jj == j]
            f = NonNegVector(rng.uniform(0, 3, t.cols) * (rng.uniform(size=t.cols) > 0.3))
            expected = oracles.apply_entries(t.entries, t.rows, f)
            got = t.apply(f).values
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.abs(expected).sum())
            dense = np.zeros((t.rows, t.cols))
            for (i, j), v in t.entries.items():
                dense[i - 1, j - 1] = v
            assert np.array_equal(t.to_dense(), dense)

    def test_entries_and_errors_match_reference(self):
        rng = np.random.default_rng(64)
        bad_keys = [(0, 1), (-1, 1), (1, 0), (99, 1), (1, 99), (2.5, 99)]
        bad_values = [0.0, -0.5, float("nan"), float("inf"), -float("inf")]
        raised = 0
        for case in range(400):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            entries = {(int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))): float(rng.uniform(0.1, 1))
                       for _ in range(int(rng.integers(0, 8)))}
            for _ in range(int(rng.integers(0, 3))):
                if rng.uniform() < 0.5:
                    entries[bad_keys[int(rng.integers(len(bad_keys)))]] = 1.0
                else:
                    key = (int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1)))
                    entries[key] = bad_values[int(rng.integers(len(bad_values)))]
            keys = list(entries)
            entries = {keys[k]: entries[keys[k]] for k in rng.permutation(len(keys))}
            expected = oracles.clean_entries(rows, cols, entries)
            if isinstance(expected, str):
                raised += 1
                with pytest.raises(ValueError) as err:
                    TruncatedOperator(rows=rows, cols=cols, entries=entries)
                assert str(err.value) == expected
            else:
                t = TruncatedOperator(rows=rows, cols=cols, entries=entries)
                assert list(t.entries.items()) == list(expected.items())
                assert all(type(i) is int and type(j) is int and type(v) is float for (i, j), v in t.entries.items())
        assert 50 < raised < 350

    def test_float_and_numpy_keys_are_cleaned_like_before(self):
        entries = {(np.int64(2), 1): np.float32(0.5), (1.0, 2): 3, (1.5, 2): 1.25}  # (1.5, 2) lands on (1, 2)
        t = TruncatedOperator(rows=2, cols=2, entries=entries)
        want = [((2, 1), 0.5), ((1, 2), 1.25)]
        assert list(t.entries.items()) == list(oracles.clean_entries(2, 2, entries).items()) == want
        assert t.row(1) == {2: 1.25} and t.column(2) == {1: 1.25} and t.row(2) == {1: 0.5}
        assert t.apply(V(1, 1)).values.tolist() == [1.25, 0.5]


# ----------------------------------------------------------------------
# Differential tests: injection_matrix, apply_injection_operator and
# construct_S place entries through build_preserver and index arrays; the
# entry loops of ``oracles`` place them one by one.
# ----------------------------------------------------------------------


def _operator(rows, cols, entries):
    """The operator of an oracle's entry dict; fails on the oracle's error message."""
    assert isinstance(entries, dict), entries
    return TruncatedOperator(rows=rows, cols=cols, entries=entries)


def _assert_same_operator(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(i) is int and type(j) is int and type(v) is float for (i, j), v in got.entries.items())
    for name in ("_i", "_j", "_v"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc


class TestPlacementMatchesEntryLoops:
    def test_operators_and_actions_match_reference(self):
        seen = set()
        for spec, rows, cols, cert, a, truncate in placement_cases(seed=71, count=400):
            family = spec.family
            want = _operator(rows, cols, oracles.build_entries(spec, rows, cols))
            _assert_same_operator(build_preserver(spec, rows, cols), want)
            for theta in family.members:
                one = PreserverSpec(p=1.0, weights=(1.0,), family=InjectionFamily((theta,)))
                want = _operator(rows, cols, oracles.build_entries(one, rows, cols))
                _assert_same_operator(injection_matrix(theta, rows, cols), want)
                m, top = theta.domain_dim, max(theta.mapping)
                f = NonNegVector(np.random.default_rng(rows).uniform(0, 2, m) * (np.arange(m) % 3 > 0))
                got = apply_injection_operator(theta, f).values
                assert got.shape == (top,)
                assert np.array_equal(got, oracles.apply_entries(oracles.build_entries(one, top, m), top, f))
            s = construct_S(cert, family, a, truncate=truncate)
            want, gap = oracles.construct_S(cert, family, a, truncate)
            _assert_same_operator(s, want)
            with pytest.raises(RuntimeError) as err:
                construct_S(cert, family, a, truncate=truncate, check_tol=-1.0)
            assert str(err.value) == f"intertwining identity violated by {gap:.3e}"
            seen |= {("rows below top", rows < max(family.union_image())), ("cols below domain", cols < m),
                     ("zero weight", 0.0 in spec.weights), ("constant row", spec.constant_row is not None),
                     ("a", a)}
        assert {("rows below top", True), ("cols below domain", True), ("zero weight", True),
                ("constant row", True), ("a", 0.0), ("a", 1.0)} <= seen

    def test_errors_match_reference(self):
        theta = Injection((4, 2, 7))
        spec = PreserverSpec(p=1.0, weights=(1.0,), family=InjectionFamily((theta,)))
        for rows, cols in ((0, 1), (1, 0), (5, -1), (-2, 2), (9, 4), (9, 10)):
            want = oracles.build_entries(spec, rows, cols)
            assert isinstance(want, str)
            for got in (_outcome(injection_matrix, theta, rows, cols), _outcome(build_preserver, spec, rows, cols)):
                assert isinstance(got, ValueError) and str(got) == want
        assert str(_outcome(injection_matrix, theta, 0, 1)) == "truncation must have at least one row and column"
        assert str(_outcome(injection_matrix, theta, 9, 4)) == "injection domain 3 smaller than 4 columns"
        got = _outcome(apply_injection_operator, theta, V(1, 2))
        assert str(got) == "dimension mismatch: injection domain 3, vector dim 2"

    def test_gap_counts_entries_off_the_block(self):
        # A faulty S may put entries in columns theta outside the block; the
        # gap must see them, as the dense slice S[:, theta] did.
        rng = np.random.default_rng(73)
        for _ in range(300):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            m = min(m, n)
            theta = rng.permutation(n)[:m]
            cells = {(int(i), int(j)) for i, j in rng.integers(1, n + 1, size=(int(rng.integers(0, 3 * n)), 2))}
            s = TruncatedOperator(rows=n, cols=n, entries={c: float(rng.uniform(0.1, 1)) for c in cells})
            d = random_doubly_substochastic(rng, m).data
            p_theta_d = np.zeros((n, m))
            p_theta_d[theta] = d
            assert _intertwining_gap(s, theta, d) == float(np.max(np.abs(p_theta_d - s.to_dense()[:, theta])))

    def test_gap_memory_is_linear_in_the_entries(self):
        # Quadratic family at m = 100: n = 5362 rows, so a dense n x m slice
        # alone takes n * m * 8 = 4.3 MB; S has about 45 000 entries.
        import tracemalloc

        rng = np.random.default_rng(5)
        m = 100
        cert = vonneumann_complete(random_doubly_substochastic(rng, m))
        family = quadratic_family(5, m)
        s = construct_S(cert, family, 0.3)
        theta = np.asarray(family.members[0].mapping) - 1
        tracemalloc.start()
        try:
            gap = _intertwining_gap(s, theta, cert.base.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap <= 1e-12
        assert peak < s.rows * m * 8, peak


# ----------------------------------------------------------------------
# Coordinate arrays as the one representation: ``entries`` is built on its
# first read; injections, families and family validation run on arrays,
# checked against the per-element loops of ``oracles``.
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(families())
def test_validate_family_matches_dict_scan(family):
    got = validate_family(family)
    assert got == oracles.validate_family(family)
    assert got.collision is None or all(type(x) is int for x in got.collision)


class TestCoordinateArrays:
    def test_entries_are_built_on_first_read_only(self):
        rng = np.random.default_rng(81)
        cols, m = 700, 6
        spec = PreserverSpec(p=2.0, weights=(0.5, 0.3, 0.15, 0.05), family=quadratic_family(4, cols))
        rows = preservation_rows_needed(spec, cols)
        t = build_preserver(spec, rows, cols)
        assert classify_preserver_l1(t).accepted and classify_preserver_lp(t).accepted
        t.apply(NonNegVector(rng.uniform(0, 1, cols)))
        json.dumps(t.to_json_dict())
        s = construct_S(vonneumann_complete(random_doubly_substochastic(rng, m)), quadratic_family(4, m), 0.3)
        forced = shift_forcing(NonNegVector(np.arange(cols, 0, -1.0))).forced
        for op in (t, s, forced):
            assert "entries" not in vars(op)
        first = t.entries
        assert list(first.items()) == list(oracles.build_entries(spec, rows, cols).items())
        assert all(type(i) is int and type(j) is int and type(v) is float for (i, j), v in first.items())
        assert t.entries is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.entries = {}
        assert t.entries is first

    def test_json_matches_sorted_entries(self):
        for t in operators(seed=82, count=200):
            want = {"rows": t.rows, "cols": t.cols, "entries": [[i, j, v] for (i, j), v in sorted(t.entries.items())]}
            assert json.dumps(t.to_json_dict()) == json.dumps(want)
        t = build_preserver(PreserverSpec(p=2.0, weights=(1.0, 0.5), family=quadratic_family(2, 9)), 60, 9)
        t.to_json_dict()
        assert "entries" not in vars(t)

    @pytest.mark.parametrize("theta", [theta_quadratic, theta_triangular])
    def test_families_match_scalar_index_maps(self, theta):
        members, largest = 4, 1000
        reference = [tuple(theta(i, j) for j in range(1, largest + 1)) for i in range(1, members + 1)]
        assert all(type(x) is int for row in reference for x in row)
        build = quadratic_family if theta is theta_quadratic else triangular_family
        for dim in range(1, largest + 1):
            family = build(members, dim)
            assert [m.mapping for m in family.members] == [row[:dim] for row in reference]
        assert all(type(x) is int for m in family.members for x in m.mapping)
        with pytest.raises(ValueError, match="positive"):
            theta(1, np.array([3, 0]))

    @pytest.mark.parametrize("wrap", [tuple, list, lambda x: np.array(x, dtype=np.int64)])
    def test_injection_inputs_agree(self, wrap):
        rng = np.random.default_rng(83)
        for _ in range(50):
            images = (rng.permutation(40)[: int(rng.integers(1, 20))] + 1).tolist()
            theta = Injection(wrap(images))
            assert theta.mapping == tuple(images)
            assert all(type(x) is int for x in theta.mapping)
        cases = [([], "injection must have a nonempty domain"), ([0, 1], "injection images must be positive integers"),
                 ([2, -1], "injection images must be positive integers"), ([1, 2, 2], "injection images must be pairwise distinct")]
        for images, message in cases:
            with pytest.raises(ValueError) as err:
                Injection(wrap(images))
            assert str(err.value) == message
        for images in ((1, 2.5), [2.5], np.array([1.0, 2.5])):
            with pytest.raises(ValueError) as err:
                Injection(images)
            assert str(err.value) == "injection images must be positive integers"

    def test_repeated_cells_collapse_alike_on_both_paths(self):
        # On the dict path (1.5, 2) truncates onto (1, 2); on the array path the cell is given twice.
        via_dict = TruncatedOperator(rows=2, cols=2, entries={(1, 2): 3.0, (2, 1): 0.5, (1.5, 2): 1.25})
        via_arrays = TruncatedOperator._from_cells(2, 2, np.array([1, 2, 1]), np.array([2, 1, 2]), np.array([3.0, 0.5, 1.25]))
        _assert_same_operator(via_arrays, via_dict)
        assert list(via_arrays.entries.items()) == [((1, 2), 1.25), ((2, 1), 0.5)]
        rng = np.random.default_rng(84)
        for _ in range(200):
            rows, cols, nnz = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(0, 12))
            i, j = rng.integers(1, rows + 1, nnz), rng.integers(1, cols + 1, nnz)
            v = rng.uniform(0.1, 1.0, nnz)
            want = TruncatedOperator(rows=rows, cols=cols, entries=dict(zip(zip(i.tolist(), j.tolist()), v.tolist())))
            _assert_same_operator(TruncatedOperator._from_cells(rows, cols, i, j, v), want)

    def test_array_path_raises_the_dict_messages(self):
        cases = [(2, 2, [3], [1], [1.0]), (2, 2, [1, 1], [1, 2], [0.5, 0.0]), (2, 2, [1], [1], [np.nan]),
                 (0, 2, [], [], []), (2, 2, [1, 2], [0, 1], [1.0, -1.0])]
        for rows, cols, i, j, v in cases:
            want = oracles.clean_entries(rows, cols, dict(zip(zip(i, j), v)))
            assert isinstance(want, str)
            got = _outcome(TruncatedOperator._from_cells, rows, cols, np.array(i, dtype=np.int64),
                           np.array(j, dtype=np.int64), np.array(v, dtype=float))
            assert isinstance(got, ValueError) and str(got) == want

    def test_rows_needed_refuses_an_empty_window(self):
        spec = PreserverSpec(p=2.0, weights=(1.0,), family=quadratic_family(1, 3))
        for cols in (0, -2):
            with pytest.raises(ValueError) as err:
                preservation_rows_needed(spec, cols)
            assert str(err.value) == f"a preservation window needs at least one column, got {cols} columns"
