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

V = NonNegVector.of


def _t_transform_matrix(n, step):
    m = np.eye(n)
    i, j, t = step.i - 1, step.j - 1, step.t
    m[i, i] = m[j, j] = 1 - t
    m[i, j] = m[j, i] = t
    return m


def _perm_matrix(perm):
    p = np.zeros((len(perm), len(perm)))
    p[np.arange(len(perm)), np.asarray(perm) - 1] = 1.0
    return p


def dense_chain_product_reference(chain):
    """P_post^T (T_m ... T_1) P_pre from dense matrices, O(n^3) per step: a
    reference that shares no code with the in-place builder."""
    acc = np.eye(chain.product.n)
    for step in chain.steps:
        acc = _t_transform_matrix(chain.product.n, step) @ acc
    return _perm_matrix(chain.post_perm).T @ acc @ _perm_matrix(chain.pre_perm)


def _accumulator_hlp_chain(sf, sg, tol):
    """The chain builder the in-place product replaced, kept as a reference: a
    dense accumulator in sorted coordinates, scattered into a second array."""
    x = sf.values
    y = sg.values.copy()
    scale = max(1.0, float(y.max(initial=0.0)))
    eps = 1e-12 * scale
    steps = []
    while True:
        d = y - x
        pos = np.nonzero(d > eps)[0]
        if pos.size == 0:
            break
        j = int(pos[-1])
        neg = np.nonzero(d[j + 1 :] < 0)[0]
        if neg.size == 0:
            if float(np.abs(d).max()) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        k = j + 1 + int(neg[0])
        delta = min(d[j], -d[k])
        gap = y[j] - y[k]
        t = min(1.0, max(0.0, delta / gap)) if gap > 0 else 1.0
        if d[j] <= -d[k]:
            y[k] += delta
            y[j] = x[j]
        else:
            y[j] -= delta
            y[k] = x[k]
        steps.append((j + 1, k + 1, float(t)))
    return tuple(steps), _accumulated_product(steps, sf.order, sg.order)


def _accumulated_product(steps, rows, cols):
    """The accumulator of ``_accumulator_hlp_chain``: rows mixed from copies
    in sorted coordinates, scattered into a second array."""
    acc = np.eye(len(rows))
    for j, k, t in steps:
        row_j = acc[j - 1].copy()
        row_k = acc[k - 1].copy()
        acc[j - 1] = (1 - t) * row_j + t * row_k
        acc[k - 1] = t * row_j + (1 - t) * row_k
    full = np.empty_like(acc)
    full[np.ix_(rows, cols)] = acc
    return full


def _tuple_chain_product(steps, rows, cols):
    """The in-place builder as it was before its two row buffers: each step
    assigned both mixed rows as a tuple of fresh arrays.  Kept as the dense
    reference for the buffered builder."""
    out = np.zeros((len(rows), len(rows)))
    out[rows, cols] = 1.0
    for i, j, t in steps:
        a, b = rows[i - 1], rows[j - 1]
        out[a], out[b] = (1 - t) * out[a] + t * out[b], t * out[a] + (1 - t) * out[b]
    return out


def _scan_hlp_chain(sf, sg, tol):
    """The chain loop that recomputed d = y - x and ran two np.nonzero scans on
    every step, kept as a reference for the incremental loop."""
    x = sf.values
    y = sg.values.copy()
    scale = max(1.0, float(y.max(initial=0.0)))
    eps = 1e-12 * scale
    steps = []
    while True:
        d = y - x
        pos = np.nonzero(d > eps)[0]
        if pos.size == 0:
            break
        j = int(pos[-1])
        neg = np.nonzero(d[j + 1 :] < 0)[0]
        if neg.size == 0:
            if float(np.abs(d).max()) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        k = j + 1 + int(neg[0])
        delta = min(d[j], -d[k])
        t = delta / (y[j] - y[k])
        if d[j] <= -d[k]:
            y[k] += delta
            y[j] = x[j]
        else:
            y[j] -= delta
            y[k] = x[k]
        steps.append((j + 1, k + 1, float(t)))
    return tuple(steps)


def _bisect_hlp_chain(sf, sg, tol):
    """The chain loop that kept the positions with d < 0 in one sorted list,
    searched with bisect and edited with del and insert at the search
    position (each edit moves the list's tail, so long chains took quadratic
    time), and walked j down one position at a time.  Kept as the bitwise
    reference for the buffer-gap loop at large n."""
    from bisect import bisect_right

    x = sf.values.tolist()
    y = sg.values.tolist()
    n = len(x)
    scale = max(1.0, float(sg.values.max(initial=0.0)))
    eps = 1e-12 * scale
    diff = sg.values - sf.values
    d = diff.tolist()
    pos = np.nonzero(diff > eps)[0]
    j = int(pos[-1]) if pos.size else -1
    neg = np.nonzero(diff < 0)[0].tolist()
    neg.append(n)
    steps = []
    while j >= 0:
        i = bisect_right(neg, j)
        k = neg[i]
        if k == n:
            if max(map(abs, d)) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        dj, short, yj, yk = d[j], -d[k], y[j], y[k]
        if dj <= short:
            t = dj / (yj - yk)
            y[k] = yk = yk + dj
            y[j] = yj = x[j]
        else:
            t = short / (yj - yk)
            y[j] = yj = yj - short
            y[k] = yk = x[k]
        steps.append((j + 1, k + 1, t))
        d[j] = dj = yj - x[j]
        d[k] = dk = yk - x[k]
        if dk >= 0:
            del neg[i]
        if dj < 0:
            neg.insert(i, j)
        if dk > eps:
            j = k
        else:
            while j >= 0 and not d[j] > eps:
                j -= 1
    return tuple(steps)


def _partial_permutation_loop(f, g, value_tol):
    """The list-sort loop partial_permutation replaced, kept as a reference."""
    fpos = [i for i in range(f.dim) if f.values[i] > 0]
    gpos = [i for i in range(g.dim) if g.values[i] > 0]
    if len(fpos) != len(gpos):
        return None
    fpos.sort(key=lambda i: (-f.values[i], i))
    gpos.sort(key=lambda i: (-g.values[i], i))
    for a, b in zip(fpos, gpos):
        if abs(f.values[a] - g.values[b]) > value_tol:
            return None
    return {a + 1: b + 1 for a, b in zip(fpos, gpos)}


def _stable_sort_reference(raw):
    """The stable argsort and gather every decision ran before the values-only
    sort, kept as a reference: (order, values, partial sums)."""
    order = np.argsort(-raw, kind="stable")
    values = raw[order]
    return order, values, np.cumsum(values)


def _decide_reference(f, g, tol, equal_totals):
    """The decision on the stable sort, kept as a reference: (holds, failed_index, message).

    Position 1 compares the two maxima exactly; every later position
    compares the float partial sums against fl(G_k + tol)."""
    f2, g2 = common_dim(f, g)
    pf, pg = _stable_sort_reference(f2.values)[2], _stable_sort_reference(g2.values)[2]
    over = pf > pg + tol
    over[0] = Fraction(pf[0]) - Fraction(pg[0]) > tol  # a Fraction compares with a float exactly
    bad = np.nonzero(over)[0]
    if bad.size:
        k = int(bad[0])
        return False, k + 1, f"sorted partial sums fail at position {k + 1}: {pf[k]:.12g} > {pg[k]:.12g}"
    if equal_totals and abs(pf[-1] - pg[-1]) > tol:
        k = pf.size - 1
        return False, k + 1, f"totals differ at position {k + 1}: {pf[k]:.12g} vs {pg[k]:.12g}"
    return True, None, None


_HOLDS = {
    check_majorize: (True, "majorization holds"),
    check_weak_majorize: (False, "weak majorization holds"),
    check_submajorize: (False, "submajorization holds (finite collapse to the weak relation)"),
}


def _differential_pair(rng, case):
    """A seeded pair with quarter-grid ties or exact zeros; f is mixed from g,
    a permuted copy of g or an independent draw; unequal dimensions, scales
    2^-20, 1 and 2^20, and some zeros written as -0.0."""
    m = int(rng.integers(1, 30))
    if case % 2:
        g = rng.integers(0, 9, size=m) / 4
    else:
        g = rng.uniform(0, 1, m) * (rng.uniform(size=m) > 0.3)
    kind = case // 2 % 4
    if kind == 0:
        f = random_doubly_stochastic(rng, m).data @ g
    elif kind == 1:
        f = random_doubly_substochastic(rng, m).data @ g
    elif kind == 2:
        f = g[rng.permutation(m)]
    else:
        f = rng.integers(0, 9, size=m) / 4 if case % 2 else rng.uniform(0, 1, m) * (rng.uniform(size=m) > 0.3)
    if case % 5 == 0:
        f = np.concatenate([f, np.zeros(3)])[: int(rng.integers(1, m + 4))]
    scale = 2.0 ** int(rng.choice([-20, 0, 20]))
    f, g = f * scale, g * scale
    if case % 3 == 0:
        f = np.where((f == 0) & (rng.uniform(size=f.size) < 0.5), -0.0, f)
        g = np.where((g == 0) & (rng.uniform(size=g.size) < 0.5), -0.0, g)
    return NonNegVector(f), NonNegVector(g)


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
        rng = np.random.default_rng(47)
        seen = {(check, holds) for check in _HOLDS for holds in (True, False)}
        for case in range(600):
            f, g = _differential_pair(rng, case)
            f2, g2 = common_dim(f, g)
            for raw in (f2.values, g2.values):
                order, values, _ = _stable_sort_reference(raw)
                got = submaj.relations._Sorted(raw)
                assert got.values.tobytes() == values.tobytes()
                assert np.array_equal(got.order, order)
            for check, (equal_totals, holds_message) in _HOLDS.items():
                holds, failed_index, message = _decide_reference(f, g, DEFAULT_CLASS_TOL, equal_totals)
                want = (holds, failed_index, message if message is not None else holds_message)
                for with_witness in (True, False):
                    verdict = check(f, g, with_witness=with_witness)
                    assert (verdict.holds, verdict.failed_index, verdict.message) == want
                    assert (verdict.witness is not None) == (holds and with_witness)
                seen.discard((check, holds))
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


def _block_edge_pairs():
    """Pairs whose verdicts turn at or next to the block edges of the
    decision's scan: (label, f, g, planted first failing position or None).

    g is n, n - 1, ..., 1 times a power of two, so every partial sum is exact.
    A planted pair moves 1/4 (scaled) from sorted position p + 1 to p, so its
    sums exceed g's at p alone; p runs over the first and the last position
    of every block.  Totals pairs move f's total to one ulp either side of,
    and onto, fl(G_n + tol) and fl(G_n - tol).  Unequal dimensions straddle
    an edge.
    """
    block = submaj.relations._BLOCK
    rng = np.random.default_rng(19)
    sizes = [block - 1, block, block + 1, 2 * block, 2 * block + 1, *rng.integers(1, 5 * block, size=3).tolist()]
    scales = [2.0**e for e in (-60, -20, 0, 20, 60)]
    for case, n in enumerate(sizes):
        g = np.arange(n, 0, -1, dtype=float)
        planted_scale = scales[1 + case % 4]  # a quarter clears tol at 2^-20 and above
        for p in sorted({q for start in range(0, n, block) for q in (start + 1, min(start + block, n))}):
            f = g.copy()
            f[p - 1] += 0.25
            if p < n:
                f[p] -= 0.25
            yield f"planted at {p}, n={n}", f[rng.permutation(n)] * planted_scale, g * planted_scale, p
        scale = scales[case % 5]
        gs = g * scale
        yield f"permuted, n={n}", gs[rng.permutation(n)], gs, None
        head = np.cumsum(gs)[-2] if n > 1 else 0.0
        total = np.cumsum(gs)[-1]
        for edge in (total + DEFAULT_CLASS_TOL, total - DEFAULT_CLASS_TOL):
            for target in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                f = gs.copy()
                f[-1] = max(0.0, target - head)
                yield f"total near {target!r}, n={n}", f[rng.permutation(n)], gs, None
        for m in (max(1, n - 2), n + 2):
            f = np.arange(m, 0, -1, dtype=float) * scale
            yield f"dims {m} and {n}", f[rng.permutation(m)], gs, None


class TestBlockedScan:
    def test_block_edges_match_the_whole_vector_reference(self):
        messages = set()
        for label, f, g, planted in _block_edge_pairs():
            f, g = NonNegVector(f), NonNegVector(g)
            for check, (equal_totals, holds_message) in _HOLDS.items():
                holds, failed_index, message = _decide_reference(f, g, DEFAULT_CLASS_TOL, equal_totals)
                if planted is not None:
                    assert failed_index == planted, label
                want = (holds, failed_index, message if message is not None else holds_message)
                for with_witness in (True, False):
                    verdict = check(f, g, with_witness=with_witness)
                    assert (verdict.holds, verdict.failed_index, verdict.message) == want, (label, check)
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
            for check, (equal_totals, holds_message) in _HOLDS.items():
                holds, failed_index, message = _decide_reference(f, g, DEFAULT_CLASS_TOL, equal_totals)
                want = (holds, failed_index, message if message is not None else holds_message)
                verdict = check(f, g, with_witness=False)
                assert (verdict.holds, verdict.failed_index, verdict.message) == want, (case, n, check)

    def test_weak_decision_at_n_1e6_holds_only_the_two_sorted_copies(self):
        n = 10**6
        f, g = (NonNegVector(v) for v in _perfbench_weak_pair(n))
        tracemalloc.start()
        try:
            verdict = check_weak_majorize(f, g, with_witness=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak < 2.25 * 8 * n  # two sorted copies and the block buffers; whole-vector sums took 5.1 x 8n

    def test_an_unequal_dimension_decision_makes_no_padded_copy(self):
        # f cut to its largest n/2 entries still holds; its sorted copy has
        # n/2 entries, and the scan writes zeros past them, where a padded
        # copy of f and its sort took about 3.5 x 8n bytes at this n.
        n = 10**5
        f, g = _perfbench_weak_pair(n)
        f, g = NonNegVector(np.sort(f)[::-1][: n // 2]), NonNegVector(g)
        for check in (check_majorize, check_weak_majorize, check_submajorize):
            tracemalloc.start()
            try:
                verdict = check(f, g, with_witness=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
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
        fallback = [NonNegVector(v) for v in _fallback_pair()]
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
        order, x, fs = _stable_sort_reference(fv)
        gs = _stable_sort_reference(g.values)[2]
        total = np.clip(np.minimum.accumulate((gs - fs)[::-1])[::-1], 0.0, gs[-1] - fs[-1])
        want = np.empty(n)
        want[order] = x + np.diff(total, prepend=0.0)
        assert intermediate_h(f, g).values.tobytes() == want.tobytes()
        scales = np.divide(fv, want, out=np.ones(n), where=want > 0)
        for witness in (weak_witness(f, g), check_weak_majorize(f, g).witness, check_submajorize(f, g).witness):
            assert witness.row_sums.tobytes() == scales.tobytes()


def _position_one_pairs():
    """Pairs whose verdicts turn at sorted position 1: (label, f, g, tol).

    At tol 1e-9, 0 and 1/8 and scales 2^-30, 1 and 2^30: f's maximum set
    one ulp below, onto and one ulp above fl(max g + tol) over a halved
    permuted copy of g; f a permuted copy of g (a tie at the maximum); f
    well above g; f and g of unequal dimensions; and all-zero f, g or both.
    """
    rng = np.random.default_rng(24)
    for tol in (DEFAULT_CLASS_TOL, 0.0, 0.125):
        for scale in (2.0**-30, 1.0, 2.0**30):
            for case in range(4):
                n = int(rng.integers(1, 12))
                g = rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.3)
                g[rng.integers(n)] = rng.uniform(0.5, 1)
                g *= scale
                edge = g.max() + tol
                for target in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    f = g[rng.permutation(n)] / 2
                    f[rng.integers(n)] = target
                    yield f"max at {target!r}, scale {scale}, tol {tol}", f, g, tol
                yield f"tie at the maximum, n={n}", g[rng.permutation(n)], g, tol
                yield f"f above g, n={n}", 2 * g[rng.permutation(n)] + tol, g, tol
                m = int(rng.integers(1, 2 * n + 2))
                f = rng.uniform(0, 1, m) * scale
                yield f"dims {m} and {n}", f, g, tol
                yield f"dims {n} and {m}", g, f, tol
                yield f"zero f, n={n}", np.zeros(m), g, tol
                yield f"zero g, n={n}", f, np.zeros(n), tol
            yield "both zero", np.zeros(3), np.zeros(5), tol


class _CountedSorted(submaj.relations._Sorted):
    """A record that lists itself in ``made``: one entry per values-only sort."""

    made = []

    def __init__(self, raw):
        super().__init__(raw)
        self.made.append(self)


class TestPositionOneRefutation:
    def test_refutations_match_the_whole_vector_reference(self):
        indices = set()
        for label, f, g, tol in _position_one_pairs():
            f, g = NonNegVector(f), NonNegVector(g)
            for check, (equal_totals, holds_message) in _HOLDS.items():
                holds, failed_index, message = _decide_reference(f, g, tol, equal_totals)
                want = (holds, failed_index, message if message is not None else holds_message)
                for with_witness in (True, False):
                    verdict = check(f, g, tol=tol, with_witness=with_witness)
                    assert (verdict.holds, verdict.failed_index, verdict.message) == want, (label, check)
                indices.add(failed_index if failed_index in (None, 1) else "later")
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
        from perfbench import inputs

        for f, g in inputs.fault_2a_pairs(3):
            assert inputs.reference(f, g) == inputs.Reference(1, 1)
            f, g = NonNegVector(f), NonNegVector(g)
            for check in _HOLDS:
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
        for check in _HOLDS:
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
        g, f = (NonNegVector(v) for v in _perfbench_weak_pair(n))  # swapped, so f peaks above g
        tracemalloc.start()
        try:
            verdict = check_weak_majorize(f, g, with_witness=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.failed_index == 1
        assert peak < 0.25 * 8 * n


class TestNanTolerance:
    def test_every_check_and_witness_constructor_rejects_a_nan_tol(self):
        f, g = V(5, 0), V(1, 0)  # NaN used to accept this pair, with a GENERAL witness
        nan = float("nan")
        for check in _HOLDS:
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
            reference = dense_chain_product_reference(chain)
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


    def test_builder_matches_the_accumulator_chain(self, monkeypatch):
        # Ties (quarter grid), exact zeros and unequal dimensions; f is mixed
        # from g by a doubly stochastic or substochastic matrix, or averaged
        # over disjoint pairs of a permutation of g.
        rng = np.random.default_rng(44)
        held = {check_majorize: 0, check_weak_majorize: 0, check_submajorize: 0}
        for case in range(600):
            m = int(rng.integers(1, 25))
            g = rng.integers(0, 9, size=m) / 4 * (rng.uniform(size=m) > 0.25)
            if case % 3 == 0:
                f = random_doubly_stochastic(rng, m).data @ g
            elif case % 3 == 1:
                f = random_doubly_substochastic(rng, m).data @ g
            else:
                f = g[rng.permutation(m)]
                f[: m - 1 : 2] = f[1::2] = (f[: m - 1 : 2] + f[1::2]) / 2
            if case % 4 == 0:  # pad or truncate f: truncation keeps it weakly below g
                f = np.concatenate([f, np.zeros(3)])[: int(rng.integers(1, m + 4))]
            f, g = NonNegVector(f), NonNegVector(g)
            for check in held:
                verdict = check(f, g)
                if not verdict.holds:
                    continue
                held[check] += 1
                with monkeypatch.context() as patched:
                    patched.setattr(submaj.relations, "_chain_product", _accumulated_product)
                    before = check(f, g)
                    # Built on the first read, so read while the accumulator is in place.
                    before_data = before.witness.data
                    if check is check_submajorize:
                        before_completion = before.certificate.completion.data
                assert np.array_equal(verdict.witness.data, before_data)
                if check is check_submajorize:
                    assert np.array_equal(verdict.certificate.completion.data, before_completion)
                # The chain from the (raised) f itself: steps and product.
                h = f if check is check_majorize else intermediate_h(f, g)
                sh, sg, _ = submaj.relations._decide(*common_dim(h, g), DEFAULT_CLASS_TOL, equal_totals=True)
                steps, product = _accumulator_hlp_chain(sh, sg, DEFAULT_CLASS_TOL)
                chain = hlp_witness(h, g)
                assert [tuple(step) for step in chain.steps] == list(steps)
                assert np.array_equal(chain.product.data, product)
        assert min(held.values()) >= 300

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


def _water_fill_reference(f, g):
    """intermediate_h as the O(n^2) water-filling loop it was first written as."""
    n = max(f.dim, g.dim)
    fv = f.padded(n).values
    order = np.argsort(-fv, kind="stable")
    x = fv[order].copy()
    target = np.cumsum(np.sort(g.padded(n).values)[::-1])
    prefix = np.cumsum(x)
    deficit = max(0.0, float(target[-1] - prefix[-1]))
    for k in range(n):
        if deficit <= 0:
            break
        raise_k = min(deficit, max(0.0, float(np.min(target[k:] - prefix[k:]))))
        if raise_k > 0:
            x[k] += raise_k
            prefix[k:] += raise_k
            deficit -= raise_k
    h = np.empty(n)
    h[order] = x
    return np.maximum(h, fv)


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
        ref = _water_fill_reference(f, g)
        assert h.dim == ref.size
        assert np.max(np.abs(h.values - ref)) <= 1e-12 * max(1.0, g.total())


@st.composite
def _dyadic_pairs(draw):
    """(f, g, permuted f, permuted g) with entries k / 64; f is drawn freely,
    averaged from g over disjoint pairs, or scaled from g by k / 16."""
    ints = st.lists(st.integers(0, 1024), min_size=1, max_size=12)
    g = np.array(draw(ints), dtype=float) / 64
    kind = draw(st.sampled_from(("free", "averaged", "scaled")))
    if kind == "free":
        f = np.array(draw(ints), dtype=float) / 64
    else:
        f = g[draw(st.permutations(range(g.size)))]
        for i in range(0, f.size - 1, 2):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
        if kind == "scaled":
            f = f * np.array(draw(st.lists(st.integers(8, 16), min_size=f.size, max_size=f.size))) / 16
    pf = f[draw(st.permutations(range(f.size)))]
    pg = g[draw(st.permutations(range(g.size)))]
    return tuple(NonNegVector(v) for v in (f, g, pf, pg))


@settings(max_examples=200, deadline=None)
@given(_dyadic_pairs())
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


@st.composite
def _unequal_dimension_pairs(draw):
    """(f, g, tol, block): inputs of unequal dimensions, either one the
    shorter.  g is dyadic (k / 64) or uniform, with exact zeros; f is drawn
    freely, or is a permutation of g averaged over disjoint pairs and scaled
    by k / 16, cut or extended with zeros; both are scaled by 2**e, e in
    -30..30.  tol is 0, 1e-9 or 1/8, and the scan's block 1, 3, 4 or its
    own size, so the shorter input ends inside blocks and at their edges."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24).filter(lambda k: k != n))
    if draw(st.booleans()):
        g = np.array(draw(st.lists(st.integers(0, 1024), min_size=n, max_size=n)), dtype=float) / 64
    else:
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, n)
    g[draw(st.lists(st.integers(0, n - 1), max_size=n // 2 + 1))] = 0.0
    if draw(st.booleans()):
        f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, m)
    else:
        f = g[draw(st.permutations(range(n)))]
        for i in range(0, n - 1, 2):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
        f = f * np.array(draw(st.lists(st.integers(8, 16), min_size=n, max_size=n))) / 16
        f = np.concatenate([f, np.zeros(max(0, m - n))])[:m]
    if draw(st.booleans()):
        f, g = g, f
    scale = 2.0 ** draw(st.integers(-30, 30))
    tol = draw(st.sampled_from((0.0, DEFAULT_CLASS_TOL, 0.125)))
    block = draw(st.sampled_from((1, 3, 4, submaj.relations._BLOCK)))
    return NonNegVector(f * scale), NonNegVector(g * scale), tol, block


@settings(max_examples=300, deadline=None)
@given(_unequal_dimension_pairs())
def test_unequal_dimension_decisions_equal_the_zero_padded_pair(pair):
    # A decision-only call sorts each input at its own length and writes
    # zeros past the shorter one's end; its verdict is the padded pair's.
    f, g, tol, block = pair
    n = max(f.dim, g.dim)
    padded = f.padded(n), g.padded(n)
    with mock.patch.object(submaj.relations, "_BLOCK", block):
        for check in _HOLDS:
            verdict = check(f, g, tol=tol, with_witness=False)
            want = check(*padded, tol=tol, with_witness=False)
            assert (verdict.holds, verdict.failed_index, verdict.message) == (want.holds, want.failed_index, want.message)


@st.composite
def _holding_weak_pairs(draw):
    """(f, g) for which f is weakly majorized by g.  g is dyadic (k / 64) or
    uniform, with ties and exact zeros; f is a permutation of g averaged over
    disjoint pairs and scaled by k / 16 (so also exact zeros); single entries
    of both move by one ulp; both are scaled by 2**e, e in -60..60."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        g = np.array(draw(st.lists(st.integers(0, 1024), min_size=n, max_size=n)), dtype=float) / 64
    else:
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, n)
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
            g[i] = g[j]
    g[draw(st.lists(st.integers(0, n - 1), max_size=n // 2 + 1))] = 0.0
    f = g[draw(st.permutations(range(n)))]
    for i in range(0, n - 1, 2):
        if draw(st.booleans()):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
    f = f * np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 16
    for v in (f, g):
        for i, towards in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((0.0, np.inf))), max_size=3)):
            v[i] = np.nextafter(v[i], towards)
    scale = 2.0 ** draw(st.integers(-60, 60))
    return NonNegVector(f * scale), NonNegVector(g * scale)


@settings(max_examples=300, deadline=None)
@given(_holding_weak_pairs())
def test_witness_path_ranges_hold_without_clamps(pair):
    # The witness path relies on three ranges it does not clamp: h >= f
    # (every raise is a difference of a non-decreasing total), each chain step
    # has 0 < t <= 1, and the weak witness diag(f / h) D1 stays under D1.  The
    # chain is the one the weak witness builds for h; hlp_witness(h, g) would
    # first re-decide h against g, which an ulp of rounding in h can fail at
    # large scales.
    f, g = pair
    assume(check_weak_majorize(f, g, with_witness=False).holds)
    h = intermediate_h(f, g)
    assert np.all(h.values >= f.values)
    steps = submaj.relations._hlp_chain(*map(submaj.relations._Sorted, (h.values, g.values)), DEFAULT_CLASS_TOL)
    assert all(0.0 < step[2] <= 1.0 for step in steps)
    verdict = check_submajorize(f, g)
    assert np.all(verdict.witness.data <= verdict.certificate.completion.data)


def _chain_outcome(chain, sf, sg):
    """The steps of a chain builder as plain tuples, or its error."""
    try:
        return [tuple(step) for step in chain(sf, sg, DEFAULT_CLASS_TOL)]
    except RuntimeError as err:
        return repr(err)


@st.composite
def _chain_pairs(draw):
    """Sorted (x, y) for the chain: f and g of ``_holding_weak_pairs`` with f
    itself (unequal totals, so the chain may stall), f raised to h through
    ``_raised``, or f swapped with g (not majorized)."""
    f, g = draw(_holding_weak_pairs())
    n = max(f.dim, g.dim)
    sf, sg = (submaj.relations._Sorted(v.padded(n).values) for v in (f, g))
    kind = draw(st.sampled_from(("raised", "as is", "swapped")))
    if kind == "raised":
        sf = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
    elif kind == "swapped":
        sf, sg = sg, sf
    return sf, sg


@settings(max_examples=400, deadline=None)
@given(_chain_pairs())
def test_incremental_chain_matches_the_scan_loop(pair):
    # Ties, exact zeros, one-ulp moves, scales 2^-60..2^60 and unequal
    # totals: the same steps, compared with == on floats, or the same error.
    sf, sg = pair
    assert _chain_outcome(submaj.relations._hlp_chain, sf, sg) == _chain_outcome(_scan_hlp_chain, sf, sg)


def test_incremental_chain_matches_the_scan_loop_on_long_chains():
    rng = np.random.default_rng(73)
    for n in (300, 700):
        g = rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.2)
        g[rng.integers(0, n, n // 4)] = g[0]  # ties
        f = random_doubly_substochastic(rng, n).data @ g
        sf, sg = (submaj.relations._Sorted(v) for v in (f, g))
        sh = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
        steps = _chain_outcome(submaj.relations._hlp_chain, sh, sg)
        assert len(steps) > n // 2
        assert steps == _chain_outcome(_scan_hlp_chain, sh, sg)


# The two pairs that stall the chain, as its (x, y).  In the second the only
# excess is below 10 * tol; the shortfall is not.
_STALLING = (([2.0, 1.0, 0.0], [1.5, 1.5, 0.0]), ([2.0, 0.5], [1.5, 0.5 + 5e-10]))


@pytest.mark.parametrize("x, y", _STALLING)
def test_chain_on_a_pair_that_is_not_majorized_stalls_like_the_scan_loop(x, y):
    sf, sg = (submaj.relations._Sorted(np.array(v)) for v in (x, y))
    with pytest.raises(RuntimeError, match="stalled; input not majorized") as err:
        submaj.relations._hlp_chain(sf, sg, DEFAULT_CLASS_TOL)
    assert repr(err.value) == _chain_outcome(_scan_hlp_chain, sf, sg)


def _weak_witness_pairs():
    """(label, f, g) as arrays: perfbench weak pairs as drawn, off the grid
    (f times uniform factors) and scaled by 2^40 and 2^-40."""
    from perfbench import inputs

    rng = np.random.default_rng(211)
    out = []
    for n in (50, 300, 1000):
        f, g = inputs.weak_pair(rng, n)
        variants = {"drawn": (f, g), "off-grid": (f * rng.uniform(0.5, 1.0, n), g)}
        for e in (40, -40):
            variants[f"scaled 2^{e}"] = (f * 2.0**e, g * 2.0**e)
        out += [(f"{name} n={n}", a, b) for name, (a, b) in variants.items()]
    return out


def _weak_witness_chain_pairs():
    """(label, sf, sg) for the chain as the weak witness runs it, h raised
    from f by ``_raised`` against g, on the pairs of ``_weak_witness_pairs``,
    and the two stalling pairs, raised and as they are."""
    out = []
    for label, f, g in _weak_witness_pairs():
        sf, sg = submaj.relations._Sorted(f), submaj.relations._Sorted(g)
        out.append((label, submaj.relations._Sorted(submaj.relations._raised(sf, sg)), sg))
    for x, y in _STALLING:
        sf, sg = (submaj.relations._Sorted(np.array(v)) for v in (x, y))
        sh = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
        out += [(f"stalling {x}", sf, sg), (f"stalling {x} raised", sh, sg)]
    # One step leaves j with an excess of about 3e-10, above eps and below
    # 10 * tol, and no short position: the chain ends without stalling, on
    # j's excess as the step left it.
    sf, sg = submaj.relations._Sorted(np.array([1.5, 0.5])), submaj.relations._Sorted(np.array([2.0, 3e-10]))
    out.append(("small excess left", sf, sg))
    return out


def _fallback_pair():
    """An off-grid perfbench weak pair at n = 250 whose raised h leaves f's
    sorted order: rounding puts one value of h a few ulps above the one
    before it along f's order."""
    from perfbench import inputs

    rng = np.random.default_rng(61)
    f, g = inputs.weak_pair(rng, 250)
    return f * rng.uniform(0.5, 1.0, 250), g


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
    pairs = _weak_witness_pairs()
    pairs += [(f"stalling {x}", np.array(x), np.array(y)) for x, y in _STALLING]
    pairs.append(("off-grid fallback n=250", *_fallback_pair()))
    derived = {label: _assert_raised_record_is_the_sort_of_h(f, g) for label, f, g in pairs}
    assert derived.pop("off-grid fallback n=250") is False
    assert all(derived.values())  # every other pair keeps f's order


@settings(max_examples=300, deadline=None)
@given(_holding_weak_pairs())
def test_raised_record_is_the_sort_of_h_with_ties_zeros_and_ulp_moves(pair):
    f, g = pair
    n = max(f.dim, g.dim)
    assume(check_weak_majorize(f, g, with_witness=False).holds)
    _assert_raised_record_is_the_sort_of_h(f.padded(n).values, g.padded(n).values)


def test_buffer_gap_chain_matches_the_scan_loop_in_the_weak_witness_form():
    # The same steps, compared with == on floats, or the same error.
    stalled = 0
    for label, sh, sg in _weak_witness_chain_pairs():
        want = _chain_outcome(_scan_hlp_chain, sh, sg)
        assert _chain_outcome(submaj.relations._hlp_chain, sh, sg) == want, label
        stalled += isinstance(want, str)
    assert stalled >= 2


def test_buffer_gap_chain_matches_the_bisect_list_chain_at_n_1e5():
    # The list-and-bisect loop is the bitwise reference at a size the scan
    # loop cannot reach; the chain has about 6 * 10^4 steps here.
    f, g = _perfbench_weak_pair(10**5)
    sf, sg = submaj.relations._Sorted(f), submaj.relations._Sorted(g)
    sh = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
    steps = submaj.relations._hlp_chain(sh, sg, DEFAULT_CLASS_TOL)
    assert len(steps) > 5 * 10**4
    assert steps == _bisect_hlp_chain(sh, sg, DEFAULT_CLASS_TOL)


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


def _class_pairs():
    """Holding weak pairs, among them pairs whose scales all equal 1 (f = g,
    an exact majorization) or lie within 1e-3 of 1 (f = g but one entry
    lowered by a relative 1e-6)."""
    from perfbench import inputs

    rng = np.random.default_rng(215)
    pairs = [inputs.weak_pair(rng, n) for n in (1, 7, 300)] + [inputs.major_pair(rng, n) for n in (7, 300)]
    g = inputs.grid_vector(rng, 300)
    pairs.append((g, g))
    lowered = g.copy()
    lowered[int(np.argmax(g))] *= 1 - 1e-6
    pairs.append((lowered, g))
    pairs.append((np.zeros(5), inputs.grid_vector(rng, 5)))
    return [(NonNegVector(f), NonNegVector(g)) for f, g in pairs]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_witness_class_is_the_class_of_its_sums(tol):
    # The class is read off the scales when some |s_i - 1| exceeds tol, and
    # from the pulled-back column sums otherwise; either way it is the one
    # class rule on both sums.  Read later, the column sums are the eager
    # pull-back of ones, bitwise, and lie in [0, 1].
    decided = {True: 0, False: 0}
    for f, g in _class_pairs():
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
    f, g = (NonNegVector(v) for v in _perfbench_weak_pair(2000))
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


@st.composite
def _witness_pairs(draw):
    """``_holding_weak_pairs`` with f zero-padded or truncated to another
    dimension (which keeps it weakly below g), or replaced by zeros."""
    f, g = draw(_holding_weak_pairs())
    values = np.concatenate([f.values, np.zeros(3)])[: draw(st.integers(1, f.dim + 3))]
    if draw(st.integers(0, 9)) == 0:
        values = np.zeros_like(values)
    return NonNegVector(values), g


@settings(max_examples=300, deadline=None)
@given(_witness_pairs(), st.booleans())
def test_witness_factors_match_the_dense_reference(pair, completion_first):
    # W, D1 and the majorization witness bitwise equal to the tuple-assigning
    # builder (scaled by s for W), whichever of W and D1 is read first, with
    # the class the dense sums give and structural sums within (n + 2 steps)
    # eps of the dense ones.
    f, g = pair
    n = max(f.dim, g.dim)
    f2, g2 = f.padded(n).values, g.padded(n).values
    sf, sg = submaj.relations._Sorted(f2), submaj.relations._Sorted(g2)
    expected = []
    verdict = check_submajorize(f, g)
    if verdict.holds:
        if np.any(f2 > 0):
            h = submaj.relations._raised(sf, sg)
            sh = submaj.relations._Sorted(h)
            steps, rows = submaj.relations._hlp_chain(sh, sg, DEFAULT_CLASS_TOL), sh.order
            s = np.where(h > 0, f2 / np.where(h > 0, h, 1.0), 1.0)
        else:
            steps, rows, s = (), sg.order, np.zeros(n)
        d1 = _tuple_chain_product(steps, rows, sg.order)
        expected += [(verdict.witness, d1 * s[:, None], steps), (verdict.certificate.completion, d1, steps)]
        if completion_first:
            expected.reverse()
    major = check_majorize(f, g)
    if major.holds:
        steps = submaj.relations._hlp_chain(sf, sg, DEFAULT_CLASS_TOL)
        expected.append((major.witness, _tuple_chain_product(steps, sf.order, sg.order), steps))
    for got, want, steps in expected:
        assert got.data.tobytes() == want.tobytes()
        assert got.matrix_class is classify_matrix(want).matrix_class
        bound = (n + 2 * len(steps)) * np.finfo(float).eps
        assert np.max(np.abs(got.row_sums - want.sum(axis=1))) <= bound
        assert np.max(np.abs(got.col_sums - want.sum(axis=0))) <= bound


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
@given(_witness_pairs(), st.integers(0, 2**32 - 1))
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
@given(_witness_pairs())
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


def _perfbench_weak_pair(n):
    from perfbench import inputs

    return inputs.weak_pair(np.random.default_rng([1, 1]), n)


def test_submajorize_at_n_1e5_builds_no_dense_array(monkeypatch):
    # A dense array at this size would take 80 GB: the spy refuses before any
    # allocation, and no line here reads .data.
    from perfbench.checks import residual_bound

    calls = _counting_chain_product(monkeypatch, refuse=True)
    f, g = _perfbench_weak_pair(10**5)
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
    verdict = check_submajorize(*(NonNegVector(v) for v in _perfbench_weak_pair(n)))
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
    f, g = (NonNegVector(v) for v in _perfbench_weak_pair(2 * 10**4))
    tracemalloc.start()
    try:
        verdict = check_submajorize(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.certificate is not None
    assert peak < 64 * 2**20


def test_witness_peaks_at_n_1e5_hold_no_partial_sum_buffer():
    # A witness-building decision once kept an n-length complex buffer of
    # both inputs' partial sums (2 x 8n bytes) while the witness was built;
    # h's sums are now made in _raised and freed there.  Peaks in units of
    # 8n bytes with that buffer / without it: check_majorize 33.5 / 31.5 on
    # the majorization pair and 4.2 / 2.5 on the weak pair, which fails at
    # the totals; check_submajorize 31.7 / 29.7 and 37.5 / 35.5.  Each gate
    # lies halfway.
    from perfbench import inputs

    n = 10**5
    for make, check, holds, gate in (
        (inputs.major_pair, check_majorize, True, 32.5),
        (inputs.weak_pair, check_majorize, False, 3.35),
        (inputs.weak_pair, check_submajorize, True, 30.7),
        (inputs.major_pair, check_submajorize, True, 36.5),
    ):
        f, g = (NonNegVector(v) for v in make(np.random.default_rng([1, 1]), n))
        tracemalloc.start()
        try:
            verdict = check(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds is holds
        assert peak < gate * 8 * n, (make.__name__, check.__name__, peak / (8 * n))


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



def _ulp_walk(x, towards, count):
    out = []
    for _ in range(count):
        x = float(np.nextafter(x, towards))
        out.append(x)
    return out


# t at the edges of the lemma's two cases: 0, the least subnormal, every power
# of two, 1/2 and 1 with their neighbouring ulps.
_EDGE_T = (
    0.0, 5e-324, 1.0, *(2.0**-k for k in range(1, 1075)),
    *_ulp_walk(0.5, 0.0, 4), *_ulp_walk(0.5, 1.0, 4), *_ulp_walk(1.0, 0.0, 4),
)


@st.composite
def _unit_t_chains(draw):
    """(n, steps): up to 40 steps (i, j, t), 1 <= i < j <= n, t in [0, 1]."""
    n = draw(st.integers(2, 12))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(sorted)
    t = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_T))
    return n, [(i, j, x) for (i, j), x in draw(st.lists(st.tuples(pair, t), max_size=40))]


@settings(max_examples=500, deadline=None)
@given(_unit_t_chains())
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
    for t in _EDGE_T:
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
    from perfbench import inputs

    for k in range(1, 4):
        for pair in (inputs.weak_pair, inputs.major_pair):
            f, g = pair(np.random.default_rng([1, k]), n)
            witnesses = _chain_witnesses(NonNegVector(f), NonNegVector(g))
            assert len(witnesses) == (4 if pair is inputs.major_pair else 2)
            for m in witnesses:
                _assert_sums_are_the_chain_passes(m)


@settings(max_examples=300, deadline=None)
@given(_holding_weak_pairs())
def test_chain_sums_equal_the_chain_passes(pair):
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
                want = _partial_permutation_loop(f, g, value_tol)
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
