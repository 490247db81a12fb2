"""Vector primitives: rearrangements, partial sums, level sets, p-norms."""
import itertools
import json

import numpy as np
import pytest

from submaj.vectors import (
    NonNegVector,
    common_dim,
    decreasing_rearrangement,
    level_sets,
    p_norm,
    partial_sums,
    scatter_level_sets,
)


class TestConstruction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NonNegVector.of(1.0, -0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            NonNegVector.of(1.0, bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NonNegVector(np.array([]))

    def test_values_are_immutable(self):
        v = NonNegVector.of(1, 2)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_padding(self):
        v = NonNegVector.of(1, 2).padded(4)
        assert v.values.tolist() == [1, 2, 0, 0]
        with pytest.raises(ValueError):
            NonNegVector.of(1, 2, 3).padded(2)

    def test_common_dim(self):
        f, g = common_dim(NonNegVector.of(1), NonNegVector.of(2, 3))
        assert f.dim == g.dim == 2


class TestJson:
    def test_round_trip(self):
        v = NonNegVector.of(0.5, 0.0, 2.25)
        assert NonNegVector.from_json_dict(v.to_json_dict()).values.tolist() == [0.5, 0.0, 2.25]

    def test_negative_zero_is_written_as_zero(self):
        v = NonNegVector.of(-0.0, 1.0, -0.0)
        assert not np.any(np.signbit(v.values))
        assert json.dumps(v.to_json_dict()) == '{"dim": 3, "values": [0.0, 1.0, 0.0]}'

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            NonNegVector.from_json_dict({"dim": 3, "values": [1.0, 2.0]})

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            NonNegVector.from_json_dict({"dim": 2, "values": [1.0, -2.0]})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            NonNegVector.from_json_dict([1.0, 2.0])


class TestRearrangement:
    def test_basic_sort_with_witness(self):
        r = decreasing_rearrangement(NonNegVector.of(3, 1, 2))
        assert r.sorted.values.tolist() == [3, 2, 1]
        assert r.perm == (1, 3, 2)

    def test_all_equal_keeps_index_order(self):
        r = decreasing_rearrangement(NonNegVector.of(0, 0, 0))
        assert r.sorted.values.tolist() == [0, 0, 0]
        assert r.perm == (1, 2, 3)

    def test_shifted_reciprocal_squares(self):
        r = decreasing_rearrangement(NonNegVector.of(0, 1, 1 / 4, 1 / 9))
        assert r.sorted.values.tolist() == [1, 1 / 4, 1 / 9, 0]

    def test_witness_reproduces_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = NonNegVector(rng.uniform(0, 1, rng.integers(1, 9)))
            r = decreasing_rearrangement(v)
            assert np.array_equal(r.sorted.values, v.values[np.asarray(r.perm) - 1])

    def test_rearrangement_maximizes_prefix_sums(self):
        # Exhaustive over all permutations at small dimension.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            v = NonNegVector(np.round(rng.uniform(0, 1, n), 3))
            best = partial_sums(decreasing_rearrangement(v).sorted)
            for perm in itertools.permutations(v.values.tolist()):
                other = np.cumsum(perm)
                assert np.all(best >= other - 1e-12)


class TestPartialSums:
    def test_direct(self):
        assert partial_sums(NonNegVector.of(2, 0, 1)).tolist() == [2, 2, 3]

    def test_zero(self):
        assert partial_sums(NonNegVector.of(0, 0)).tolist() == [0, 0]

    def test_reciprocal_squares(self):
        # Oracle: plain running sums computed independently.
        vals = [1.0, 1 / 4, 1 / 9]
        expected = [sum(vals[: k + 1]) for k in range(3)]
        got = partial_sums(NonNegVector.of(*vals))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got[-1] == pytest.approx(1.3611111111111112, abs=1e-12)


class TestLevelSets:
    def test_blocks_and_indices(self):
        decomp = level_sets(NonNegVector.of(3, 1, 3, 0))
        assert [(b.value, b.indices) for b in decomp.blocks] == [(3, (1, 3)), (1, (2,))]

    def test_empty_support(self):
        assert level_sets(NonNegVector.of(0, 0)).blocks == ()

    def test_strictly_decreasing_singletons(self):
        decomp = level_sets(NonNegVector.of(1, 1 / 4, 1 / 9, 1 / 16))
        assert [b.indices for b in decomp.blocks] == [(1,), (2,), (3,), (4,)]
        values = [b.value for b in decomp.blocks]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_scatter_reconstructs_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            v = NonNegVector(np.round(rng.uniform(0, 1, n), 2))
            rebuilt = scatter_level_sets(level_sets(v), n)
            assert np.array_equal(rebuilt.values, v.values)


class TestPNorm:
    def test_pythagorean(self):
        assert p_norm(NonNegVector.of(3, 4), 2) == pytest.approx(5.0)

    def test_one_norm_is_sum(self):
        assert p_norm(NonNegVector.of(1, 1, 1), 1) == 3.0

    def test_reciprocal_squares_one_norm(self):
        assert p_norm(NonNegVector.of(1, 1 / 4, 1 / 9), 1) == pytest.approx(1.3611111111111112)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p >= 1"):
            p_norm(NonNegVector.of(1), 0.5)

    def test_one_norm_matches_last_partial_sum_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = NonNegVector(rng.uniform(0, 1, rng.integers(1, 40)))
            assert p_norm(v, 1) == partial_sums(v)[-1]
