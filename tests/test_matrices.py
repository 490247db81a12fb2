"""Matrix classification, greedy completion, and the certificate algebra."""
import json
import warnings

import numpy as np
import pytest

import submaj.matrices
from submaj.config import DEFAULT_EXACT_TOL
from submaj.matrices import (
    IncreasabilityCertificate,
    MatrixClass,
    StochMatrix,
    apply,
    classify_matrix,
    compose,
    compose_certificates,
    convex_combine,
    convex_combine_certificates,
    decompose_increasable,
    identity_matrix,
    shift_matrix,
    _classify,
    vonneumann_complete,
    zero_matrix,
)
from submaj.sampling import random_doubly_stochastic, random_doubly_substochastic
from submaj.vectors import NonNegVector

import oracles
from corpus import classify_inputs


class TestClassify:
    def test_identity_is_doubly_stochastic(self):
        assert classify_matrix(np.eye(3)).matrix_class is MatrixClass.DOUBLY_STOCHASTIC

    def test_truncated_right_shift_is_substochastic_only(self):
        m = shift_matrix(4, "right")
        assert m.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC
        assert m.row_sums[0] == 0.0 and m.col_sums[3] == 0.0

    def test_oversized_sums_give_general(self):
        m = classify_matrix([[0.6, 0.6], [0.6, 0.6]])
        assert m.matrix_class is MatrixClass.GENERAL

    def test_one_sided_classes(self):
        rows_only = classify_matrix([[0.5, 0.5], [0.9, 0.0]])  # col 1 sums to 1.4
        assert rows_only.matrix_class is MatrixClass.ROW_SUBSTOCHASTIC
        cols_only = classify_matrix([[0.5, 0.9], [0.5, 0.0]])
        assert cols_only.matrix_class is MatrixClass.COL_SUBSTOCHASTIC

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            classify_matrix([[0.5, -0.1], [0.0, 0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            classify_matrix(np.ones((2, 3)))

    def test_class_monotone_in_tol(self):
        rng = np.random.default_rng(2)
        tols = [1e-12, 1e-9, 1e-6, 1e-3, 1e-1]
        for _ in range(40):
            n = int(rng.integers(1, 8))
            raw = rng.uniform(0, 0.6, (n, n))
            ranks = [classify_matrix(raw, tol).matrix_class.rank for tol in tols]
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_public_classification_copies_its_input(self):
        raw = np.array([[0.5, 0.25], [0.25, 0.5]])
        m = classify_matrix(raw)
        raw[0, 0] = 0.9
        assert m.data[0, 0] == 0.5 and not m.data.flags.writeable and raw.flags.writeable

    @pytest.mark.parametrize(
        "data, message",
        [
            ([[np.nan, 0.5], [0.5, 0.5]], "finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[-np.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[-1.0, np.inf], [0.0, 1.0]], "finite"),
            ([[0.5, 0.5], [np.inf, -np.inf]], "finite"),
            ([[np.inf, 0.0], [1e308, 1e308]], "finite"),  # its finite row overflows
            ([[1.0, -1e-300], [0.0, 1.0]], "nonnegative"),
        ],
    )

    def test_rejects_non_finite_before_negative_without_warnings(self, data, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^matrix entries must be {message}$"):
                classify_matrix(data)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_finite_sums_give_general_with_one_warning(self):
        with pytest.warns(RuntimeWarning, match="overflow") as caught:
            m = classify_matrix([[1e308, 1e308], [0.0, 0.0]])
        assert len(caught) == 1
        assert m.matrix_class is MatrixClass.GENERAL
        assert m.row_sums.tolist() == [np.inf, 0.0] and m.col_sums.tolist() == [1e308, 1e308]

    def test_private_classification_freezes_its_input_in_place(self):
        raw = np.array([[0.5, 0.25], [0.25, 0.5]])
        m = _classify(raw)
        assert m.data is raw and not raw.flags.writeable
        assert m.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC

    def test_json_round_trip(self):
        m = shift_matrix(3, "left")
        back = StochMatrix.from_json_dict(m.to_json_dict())
        assert np.array_equal(back.data, m.data)
        assert back.matrix_class is m.matrix_class

    def test_json_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            StochMatrix.from_json_dict({"n": 2, "data": [1.0, 2.0, 3.0]})

    def test_json_is_byte_identical_to_the_float_loop(self):
        # -0.0, a subnormal, thirds and wide exponents: tolist() gives the
        # same Python floats as float() on each entry, so the same text.
        data = np.array([[-0.0, 5e-324, 1 / 3], [2 / 3, 1e-300, 0.0], [0.1, 0.2, 0.7]])
        m = _classify(data.copy())
        old = {"n": 3, "data": [float(v) for v in m.data.ravel()], "class": m.matrix_class.value}
        assert json.dumps(m.to_json_dict(), indent=2) == json.dumps(old, indent=2)
        assert json.dumps(m.to_json_dict()).count("-0.0") == 1


class TestApply:
    def test_identity(self):
        f = NonNegVector.of(1, 2)
        assert apply(identity_matrix(2), f).values.tolist() == [1, 2]

    def test_right_shift_on_reciprocal_squares(self):
        out = apply(shift_matrix(3, "right"), NonNegVector.of(1, 1 / 4, 1 / 9))
        assert out.values.tolist() == [0, 1, 1 / 4]

    def test_averaging(self):
        out = apply(classify_matrix([[0.5, 0.5], [0.5, 0.5]]), NonNegVector.of(2, 0))
        assert out.values.tolist() == [1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply(identity_matrix(3), NonNegVector.of(1, 2))


class TestCompletion:
    def test_doubly_stochastic_input_needs_no_steps(self):
        d = classify_matrix([[0.5, 0.5], [0.5, 0.5]])
        cert = vonneumann_complete(d)
        assert cert.steps == ()
        assert np.array_equal(cert.completion.data, d.data)

    def test_hand_traced_diagonal_fill(self):
        cert = vonneumann_complete(classify_matrix([[0.5, 0.0], [0.0, 0.0]]))
        assert cert.completion.data.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert [tuple(s) for s in cert.steps] == [(1, 1, 0.5), (2, 2, 1.0)]

    def test_hand_traced_antidiagonal(self):
        cert = vonneumann_complete(classify_matrix([[0.0, 0.5], [0.5, 0.0]]))
        assert cert.completion.data.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_rejects_non_substochastic(self):
        with pytest.raises(ValueError, match="substochastic"):
            vonneumann_complete(classify_matrix([[0.6, 0.6], [0.6, 0.6]]))

    def test_random_completions_are_certified(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 31))
            d = random_doubly_substochastic(rng, n)
            cert = vonneumann_complete(d)
            assert cert.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
            assert np.all(cert.completion.data >= d.data)
            assert len(cert.steps) <= 2 * n - 1

    def test_pointer_loop_matches_the_nonzero_scans(self):
        # Substochastic samples (with exact zeros and full rows), doubly
        # stochastic inputs, some shrunk so that their deficiencies straddle
        # aug_tol, shifts and zero matrices, n from 1 to 39.
        rng = np.random.default_rng(5)
        for case in range(1200):
            n = int(rng.integers(1, 40))
            kind = case % 6
            if kind == 0:
                d = random_doubly_stochastic(rng, n)
            elif kind == 5:
                shrink = 1 - 10 ** rng.uniform(-15, -11, size=(n, 1))
                d = classify_matrix(random_doubly_stochastic(rng, n).data * shrink)
            elif kind == 1:
                d = shift_matrix(n, "left" if rng.uniform() < 0.5 else "right")
            elif kind == 2:
                d = zero_matrix(n)
            else:
                d = random_doubly_substochastic(rng, n)
            cert = vonneumann_complete(d)
            steps, completion = oracles.greedy_completion(d, DEFAULT_EXACT_TOL)
            assert [tuple(s) for s in cert.steps] == list(steps)
            assert np.array_equal(cert.completion.data, completion)

    def test_certificate_json_round_trip(self):
        cert = vonneumann_complete(classify_matrix([[0.0, 0.5], [0.5, 0.0]]))
        back = IncreasabilityCertificate.from_json_dict(cert.to_json_dict())
        assert np.array_equal(back.completion.data, cert.completion.data)
        assert back.steps == cert.steps

    def test_certificate_validation(self):
        base = classify_matrix([[0.9, 0.0], [0.0, 0.9]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            IncreasabilityCertificate(base=base, completion=base)
        with pytest.raises(ValueError, match="dominate"):
            IncreasabilityCertificate(base=identity_matrix(2), completion=classify_matrix([[0, 1], [1, 0]]))

    def test_certificate_json_rejects_a_completion_that_does_not_dominate(self):
        doc = {
            "base": identity_matrix(2).to_json_dict(),
            "completion": classify_matrix([[0, 1], [1, 0]]).to_json_dict(),
            "steps": [],
        }
        with pytest.raises(ValueError, match="dominate"):
            IncreasabilityCertificate.from_json_dict(doc)

    def test_every_dense_certificate_runs_the_dominance_scan(self, monkeypatch):
        calls = []
        real = submaj.matrices._dominates
        monkeypatch.setattr(submaj.matrices, "_dominates", lambda *a: calls.append(1) or real(*a))
        ca = vonneumann_complete(classify_matrix([[0.0, 0.5], [0.5, 0.0]]))
        cb = vonneumann_complete(classify_matrix([[0.25, 0.0], [0.5, 0.25]]))
        assert len(calls) == 2
        IncreasabilityCertificate.from_json_dict(ca.to_json_dict())
        compose_certificates(ca, cb)
        convex_combine_certificates(0.3, ca, cb)
        IncreasabilityCertificate(base=ca.base, completion=ca.completion)
        assert len(calls) == 6

    def test_certificate_by_construction_still_checks_shape_and_class(self):
        # The one constructor checks shape and class before any dominance.
        base = classify_matrix([[0.9, 0.0], [0.0, 0.9]])
        with pytest.raises(ValueError, match="doubly stochastic"):
            IncreasabilityCertificate(base=base, completion=base)
        with pytest.raises(ValueError, match="share a dimension"):
            IncreasabilityCertificate(base=base, completion=identity_matrix(3))
        cert = IncreasabilityCertificate(base=base, completion=identity_matrix(2))
        assert (cert.base, cert.steps) == (base, ())


class TestDecomposition:
    def test_doubly_stochastic_base_gets_zero_residual(self):
        d = classify_matrix([[0.5, 0.5], [0.5, 0.5]])
        decomp = decompose_increasable(d, vonneumann_complete(d))
        assert np.array_equal(decomp.d2.data, np.zeros((2, 2)))

    def test_hand_traced_residual(self):
        d = classify_matrix([[0.5, 0.0], [0.0, 0.0]])
        decomp = decompose_increasable(d, vonneumann_complete(d))
        assert decomp.d2.data.tolist() == [[0.5, 0.0], [0.0, 1.0]]
        assert decomp.d2.matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC

    def test_shift_base_keeps_completion_first_row(self):
        d = shift_matrix(3, "right")
        cert = vonneumann_complete(d)
        decomp = decompose_increasable(d, cert)
        assert np.array_equal(decomp.d2.data[0], cert.completion.data[0])

    def test_rejects_mismatched_certificate(self):
        d = shift_matrix(3, "right")
        cert = vonneumann_complete(identity_matrix(3))
        with pytest.raises(ValueError, match="does not match"):
            decompose_increasable(d, cert)

    def test_identity_reconstruction_random(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            d = random_doubly_substochastic(rng, int(rng.integers(1, 15)))
            decomp = decompose_increasable(d, vonneumann_complete(d))
            gap = np.max(np.abs(decomp.d1.data - (d.data + decomp.d2.data)))
            assert gap <= 1e-12


class TestAlgebra:
    def test_identity_composition(self):
        d = classify_matrix([[0.2, 0.3], [0.4, 0.1]])
        assert np.allclose(compose(identity_matrix(2), d).data, d.data)

    def test_left_times_right_shift(self):
        prod = compose(shift_matrix(3, "left"), shift_matrix(3, "right"))
        assert prod.data.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_product_of_doubly_stochastic_stays_doubly_stochastic(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_doubly_stochastic(rng, 4)
            b = random_doubly_stochastic(rng, 4)
            assert compose(a, b).matrix_class is MatrixClass.DOUBLY_STOCHASTIC

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compose(identity_matrix(2), identity_matrix(3))

    def test_convex_combine_endpoints(self):
        a = identity_matrix(2)
        b = classify_matrix([[0, 1], [1, 0]])
        assert np.array_equal(convex_combine(1.0, a, b).data, a.data)
        assert convex_combine(0.5, a, b).data.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_convex_combine_rejects_bad_t(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            convex_combine(1.5, identity_matrix(2), identity_matrix(2))

    def test_convex_combine_random_substochastic(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_doubly_substochastic(rng, 5)
            b = random_doubly_substochastic(rng, 5)
            c = convex_combine(0.25, a, b)
            weaker = min(a.matrix_class.rank, b.matrix_class.rank)
            assert c.matrix_class.rank >= weaker

    def test_certificate_composition_and_combination(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ca = vonneumann_complete(random_doubly_substochastic(rng, 6))
            cb = vonneumann_complete(random_doubly_substochastic(rng, 6))
            prod = compose_certificates(ca, cb)
            mix = convex_combine_certificates(0.3, ca, cb)
            for cert in (prod, mix):
                assert cert.completion.matrix_class is MatrixClass.DOUBLY_STOCHASTIC
                assert np.all(cert.completion.data >= cert.base.data - 1e-9)


def test_fresh_products_are_classified_without_a_copy(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify_matrix copies an array that is already fresh")

    rng = np.random.default_rng(13)
    a, b = random_doubly_substochastic(rng, 5), random_doubly_substochastic(rng, 5)
    monkeypatch.setattr(submaj.matrices, "classify_matrix", forbidden)
    cert = vonneumann_complete(a)
    decompose_increasable(a, cert)
    compose(a, b)
    convex_combine(0.4, a, b)


class TestShift:
    def test_right_shift_2x2(self):
        assert shift_matrix(2, "right").data.tolist() == [[0, 0], [1, 0]]

    def test_left_shift_2x2(self):
        assert shift_matrix(2, "left").data.tolist() == [[0, 1], [0, 0]]

    def test_degenerate_dimension(self):
        assert shift_matrix(1, "left").data.tolist() == [[0]]
        assert shift_matrix(1, "right").data.tolist() == [[0]]

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            shift_matrix(3, "up")

    def test_zero_matrix_is_substochastic(self):
        assert zero_matrix(3).matrix_class is MatrixClass.DOUBLY_SUBSTOCHASTIC


def _outcome(fn, *args):
    """What a call gives, bit for bit: its result or its exception type and
    message, and the number of RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:
            out = (type(exc), str(exc))
    if isinstance(out, StochMatrix):
        out = (out.matrix_class, out.row_sums.tobytes(), out.col_sums.tobytes(), out.data.tobytes())
    return out, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def test_one_path_classify_matches_the_two_path_reference():
    seen = set()
    for data in classify_inputs():
        new = _outcome(_classify, np.array(data, dtype=float, copy=True))
        old = _outcome(oracles.classify, np.array(data, dtype=float, copy=True), submaj.matrices.DEFAULT_CLASS_TOL)
        assert new == old, (data, new, old)
        assert _outcome(classify_matrix, data) == old
        seen.add(new[0][0] if isinstance(new[0][0], MatrixClass) else new[0][1])
        seen.add(("warnings", new[1]))
    # The corpus reaches every class, every error and the overflow warning.
    assert set(MatrixClass) <= seen
    assert {
        "matrix must be square",
        "matrix dimension must be at least 1",
        "matrix entries must be finite",
        "matrix entries must be nonnegative",
    } <= seen
    assert ("warnings", 1) in seen


def test_one_comparison_dominance_matches_the_row_blocked_reference():
    rng = np.random.default_rng(18)
    tol = submaj.matrices.DEFAULT_CLASS_TOL
    cases = 0
    for n in (1, 2, 3, 7, 40, 129, 300):
        lower = rng.uniform(0.0, 1.0, size=(n, n))
        for pos in {(0, 0), (n - 1, n - 1), (n // 2, n - 1), (n - 1, 0)}:
            at_bound = lower - tol
            upper = lower + rng.uniform(0.0, 0.5, size=(n, n))
            for value, dominates in (
                (at_bound[pos], True),
                (np.nextafter(at_bound[pos], -np.inf), False),
                (np.nextafter(at_bound[pos], np.inf), True),
            ):
                u = upper.copy()
                u[pos] = value
                assert submaj.matrices._dominates(u, lower) is dominates
                assert oracles.dominates(u, lower, tol) is dominates
                cases += 1
        upper = lower + rng.uniform(-1e-3, 1e-3, size=(n, n))
        assert submaj.matrices._dominates(upper, lower) == oracles.dominates(upper, lower, tol)
    assert cases > 50
