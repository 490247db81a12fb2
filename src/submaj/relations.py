"""Decision procedures and witness constructors for the majorization orders.

Three relations on nonnegative vectors (shorter input read as zero-padded):

* majorize:        f = Dg for a doubly stochastic D.  Finite test: sorted
                   partial-sum dominance plus equal totals.
* weak majorize:   f = Dg for a doubly substochastic D.  Finite test drops
                   the equal-totals condition.
* submajorize:     f = Dg for an increasable doubly substochastic D.  On
                   finite vectors this coincides with weak majorization,
                   because every finite doubly substochastic matrix is
                   increasable; the verdict additionally carries the
                   increasability certificate of its witness.

Every accepted relation is certified constructively: a chain of at most
n-1 two-coordinate mixing steps (T-transforms) built by the classical
Hardy-Littlewood-Polya argument, row-scaled when totals differ: the weak
witness is W = diag(s) D1 with 0 <= s <= 1 and D1 doubly stochastic.  D1
dominates W entrywise, so D1 is the submajorization certificate, and its
``steps`` is empty (no greedy completion runs).  Each call decides once: a
decision reads the two maxima first, the partial sums at position 1, and
refutes a pair that fails there with no sort; only a pair that passes is
sorted, each input once and values only.  The stable tie-broken order is an
argsort of its own, made only when a witness, h or a permutation is built.
The decision scans the sorted copies in cache-sized blocks of one complex
buffer, f's partial sums in its real parts and g's in its imaginary parts,
bitwise the sums of one ``cumsum`` of each zero-padded input.  It writes
zeros past the shorter input's end, so it makes no padded copy, and stops
at the first block that fails.  A call that builds a witness pads the two
records only after a holding decision (:func:`_padded`); h
is raised from one ``cumsum`` of each sorted copy, bitwise the decision's
sums, and h's sorted values and order are read off f's, since h along f's
sorted order is non-increasing, and h is sorted anew only when rounding
breaks that order.
The chain itself picks each step from index sets it keeps up to date (j,
the last position with y - x > eps, on a stack, and the positions with
y < x, split at j into a buffer gap), so after the sorts it costs amortised
O(n + steps) in all rather than O(n) per step.

Every witness (W, D1, the majorization witness, ``hlp_witness().product``)
is a :class:`_ChainMatrix`, held as its chain: the steps, the two sort
orders and, for W, the row scales s and D1 itself.  Its class follows from
the chain: with every t in [0, 1] and 0 <= s <= 1 (both checked) the
entries are nonnegative.  D1's row sums are ones pushed through the steps
and its column sums ones pulled back through them (each T is symmetric),
and in floats both are exactly ones, because fl(fl(1 - t) * 1 + t * 1) = 1
for every t in [0, 1]: for t >= 1/2, 1 - t is exact (Sterbenz's lemma); for
t < 1/2, fl(1 - t) = 1 - t + e with |e| <= 2^-54, and 1 + e rounds to 1
(the tie at e = -2^-54 goes to the even neighbour, 1).  So D1 takes ones
without running the chain, and W takes s as its row sums and s pulled back
as its column sums: a weak witness costs one pass through the chain, not
three, and W makes that pass only when its column sums are first read or
its class needs them (see :class:`_ChainMatrix`).
:func:`~submaj.matrices.apply` pushes a vector through the steps the same
way, and ``entry(i, j)`` pushes the unit vector e_j.  A verdict with its
witness therefore costs the sorts plus amortised O(n + steps) time, and
O(n + steps) memory.

The n x n arrays are built only when ``data`` is first read, and then kept.
D1's is written once, in original coordinates, by mixing rows of a
permutation matrix in place (O(n) per step); W's is fl(s_i * D1[i, j]) from
it, so reading both builds D1's once, in either order.  At large n a read
allocates n^2 floats (80 GB at n = 10^5).  Since fl(s_i * D1[i, j]) never
exceeds D1[i, j], a certificate whose base is W and whose completion is
W's own factor D1 (the very object, not an equal one) skips the entrywise
scan; every other certificate runs it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT_CLASS_TOL
from .matrices import IncreasabilityCertificate, MatrixClass, StochMatrix, _class_of
from .vectors import NonNegVector, common_dim


@dataclass(frozen=True, eq=False)
class RelationVerdict:
    """Outcome of a relation check.

    When the relation holds and a witness was requested, ``witness`` is a
    matrix of the class the relation demands, with ||witness @ g - f||_inf
    at float precision for exactly-held inputs.  Inputs that hold only
    marginally within the tolerance may leave a residual up to about twice
    it; no witness of the class can do better there, since the residual is
    bounded below by the distance of f from the exactly-related set.
    ``failed_index`` is the first 1-based sorted-partial-sum position that
    is violated when the relation fails (the last position doubles as the
    totals check for strict majorization).
    """

    holds: bool
    witness: Optional[StochMatrix] = None
    certificate: Optional[IncreasabilityCertificate] = None
    failed_index: Optional[int] = None
    message: str = ""


class TTransformStep(NamedTuple):
    """Mix 1-based coordinates i < j by t: identity except the 2x2 block
    [[1-t, t], [t, 1-t]] on rows/columns {i, j}."""

    i: int
    j: int
    t: float


@dataclass(frozen=True, eq=False)
class TTransformChain:
    """T-transform factorization of a majorization witness.

    The steps act on sorted coordinates; ``pre_perm`` sorts g non-increasingly
    and ``post_perm`` sorts f, both 1-based as in
    :class:`~submaj.vectors.Rearrangement`.  ``product`` is the full witness
    in original coordinates:

        product = P_f^T  (T_m ... T_1)  P_g

    where P_v is the permutation matrix with P_v[k, perm[k]] = 1.
    """

    steps: tuple[TTransformStep, ...]
    pre_perm: tuple[int, ...]
    post_perm: tuple[int, ...]
    product: StochMatrix

    def __post_init__(self) -> None:
        n = self.product.n
        if len(self.steps) > max(0, n - 1):
            raise ValueError("T-transform chains use at most n-1 steps")
        for s in self.steps:
            if not (1 <= s.i < s.j <= n):
                raise ValueError(f"step coordinates out of range: {s}")
            if not 0.0 <= s.t <= 1.0:
                raise ValueError(f"step coefficient outside [0, 1]: {s}")
        for name, perm in (("pre_perm", self.pre_perm), ("post_perm", self.post_perm)):
            if sorted(perm) != list(range(1, n + 1)):
                raise ValueError(f"{name} must be a permutation of 1..{n}")

    def to_json_dict(self) -> dict:
        return {
            "steps": [{"i": s.i, "j": s.j, "t": s.t} for s in self.steps],
            "pre_perm": list(self.pre_perm),
            "post_perm": list(self.post_perm),
            "product": self.product.to_json_dict(),
        }


def chain_product_from_parts(chain: TTransformChain) -> np.ndarray:
    """Rebuild the witness from steps and sort permutations (for audits), in O(n * steps)."""
    return _chain_product(chain.steps, np.asarray(chain.post_perm) - 1, np.asarray(chain.pre_perm) - 1)


def _chain_product(steps: tuple[TTransformStep, ...], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """P_f^T (T_m ... T_1) P_g for the 0-based sort orders ``rows`` of f and ``cols`` of g.

    Starts from the permutation matrix with out[rows[k], cols[k]] = 1.  A step
    mixing sorted rows i and j is the same mix of the rows they land on,
    rows[i-1] and rows[j-1], so every step updates those two rows in place,
    with two length-n buffers for t times each row and no other temporary.
    Each entry is rounded as in ``(1 - t) * a + t * b``.
    """
    n = len(rows)
    out = np.zeros((n, n))
    out[rows, cols] = 1.0
    ta, tb = np.empty(n), np.empty(n)
    for i, j, t in steps:
        a, b = out[rows[i - 1]], out[rows[j - 1]]  # views
        np.multiply(a, t, out=ta)
        np.multiply(b, t, out=tb)
        u = 1 - t
        a *= u
        a += tb
        b *= u
        b += ta
    return out


def _mixed(steps, x: list) -> list:
    """The list x[1:] pushed through the T-transforms ``steps`` in the order
    given, in place; x[0] is a placeholder, so the 1-based step coordinates
    index x directly.  Each T is symmetric, so the steps reversed pull x
    through the transpose of their product."""
    for i, j, t in steps:
        a, b = x[i], x[j]
        u = 1 - t
        x[i], x[j] = u * a + t * b, t * a + u * b
    return x


class _ChainMatrix(StochMatrix):
    """diag(s) P_f^T (T_m ... T_1) P_g held as its parts: the steps, the
    0-based sort orders ``rows`` of f and ``cols`` of g and, for a scaled
    matrix, the row scales s and its ``factor``, the unscaled matrix of the
    same chain.  Classified in O(n + steps), without its entries.

    Every t is checked to lie in [0, 1], so each entry of the unscaled
    product is a convex combination of nonnegative ones.  Its row sums are
    ones pushed through the steps, its column sums ones pulled back through
    them (each T is symmetric), and both are exactly ones: each step gives
    fl(fl(1 - t) + t) = 1, since 1 - t is exact for t >= 1/2 (Sterbenz) and,
    for t < 1/2, fl(1 - t) = 1 - t + e with |e| <= 2^-54, so 1 + e rounds to
    1 (the tie to the even neighbour, 1).  They are taken as ones, with no
    pass through the chain, and the class follows from them.  s is checked
    to lie in [0, 1]; the scaled matrix's row sums are s times the factor's,
    which is s, and its column sums are s pulled back, its one chain pass,
    made on their first read.  Pulled back through steps with t in [0, 1],
    s in [0, 1]^n stays in [0, 1]^n, since rounding is monotone and ones pass
    exactly; so when some |s_i - 1| exceeds tol >= 0 the class is doubly
    substochastic, read off s without the pass.  ``data`` is built on its
    first read and then kept, frozen: by
    :func:`_chain_product`, or as fl(s_i * factor[i, j]) from the factor's,
    so the chain product is built once for both.
    """

    def __init__(
        self,
        steps: tuple[TTransformStep, ...],
        rows: np.ndarray,
        cols: np.ndarray,
        tol: float,
        scales: Optional[np.ndarray] = None,
    ) -> None:
        if scales is None:
            ts = np.fromiter(map(itemgetter(2), steps), float, len(steps))
            if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # NaN fails both
                raise RuntimeError("T-transform coefficient outside [0, 1]")
        elif not (scales.min() >= 0.0 and scales.max() <= 1.0):
            raise RuntimeError("weak witness row scales outside [0, 1]")
        factor = None if scales is None else _ChainMatrix(steps, rows, cols, tol)
        # The instance is frozen, so its fields go into its dict past __setattr__.
        vars(self).update(_steps=steps, _rows=rows, _cols=cols, _scales=scales, _factor=factor, _data=None)
        if factor is None:
            ones = np.ones(len(rows))  # ones pass through every checked step exactly
            ones.flags.writeable = False
            vars(self).update(row_sums=ones, _col_sums=ones)
            cls = MatrixClass.DOUBLY_STOCHASTIC if tol >= 0 else _class_of(ones, ones, tol)
        else:
            row_sums = scales * factor.row_sums
            row_sums.flags.writeable = False
            vars(self).update(row_sums=row_sums, _col_sums=None)
            if tol >= 0 and not (np.abs(row_sums - 1) <= tol).all():
                cls = MatrixClass.DOUBLY_SUBSTOCHASTIC  # every column sum lies in [0, 1]
            else:
                cls = _class_of(row_sums, self.col_sums, tol)
        vars(self)["matrix_class"] = cls

    @property
    def col_sums(self) -> np.ndarray:
        if self._col_sums is None:
            sums = self._rmatvec(np.ones(self.n))
            sums.flags.writeable = False
            vars(self)["_col_sums"] = sums
        return self._col_sums

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            if self._factor is None:
                arr = _chain_product(self._steps, self._rows, self._cols)
            else:
                arr = self._factor.data * self._scales[:, None]
            arr.flags.writeable = False
            vars(self)["_data"] = arr
        return self._data

    def entry(self, i: int, j: int) -> float:
        """Entry at 1-based position (i, j): from ``data`` once built, else
        the unit vector e_j pushed through the chain, which does column j's
        arithmetic of the dense build and so gives it bitwise."""
        if self._data is not None:
            return float(self._data[i - 1, j - 1])
        unit = np.zeros(self.n)
        unit[j - 1] = 1.0
        return float(self._matvec(unit)[i - 1])

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """x gathered by ``cols``, pushed through the steps, scattered by ``rows``."""
        y = np.empty(x.size)
        y[self._rows] = _mixed(self._steps, [0.0, *x[self._cols].tolist()])[1:]
        return y if self._scales is None else self._scales * y

    def _rmatvec(self, x: np.ndarray) -> np.ndarray:
        """The transpose's action: the same path backwards, the steps reversed."""
        if self._scales is not None:
            x = self._scales * x
        y = np.empty(x.size)
        y[self._cols] = _mixed(self._steps[::-1], [0.0, *x[self._rows].tolist()])[1:]
        return y

    def _below(self, other: StochMatrix) -> bool:
        """True for the factor: fl(s_i * x) <= x for s_i in [0, 1] (checked),
        since rounding is monotone."""
        return other is self._factor

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:  # the dataclass repr would build the n x n array
        built = "built" if self._data is not None else "not built"
        return f"StochMatrix(n={self.n}, matrix_class={self.matrix_class}, data {built})"


class _Sorted:
    """A vector sorted once: ``raw``, its non-increasing ``values`` from one
    values-only sort of a copy, and ``order``, the stable non-increasing
    order (0-based, ties by ascending index), made on first read: a decision
    needs only the values, and only code that un-sorts (a witness, h, a
    permutation) reads the order.  It is numpy's default (SIMD) argsort of
    -raw with the tie runs of ``values`` put in index order
    (:func:`_ties_by_index`).  ``raw[order]`` equals ``values`` bitwise for
    any ``raw`` without -0.0, which a NonNegVector never stores.  The weak
    witness makes h's record from f's (:func:`_raised_record`), with no sort
    of h.
    """

    def __init__(self, raw: np.ndarray) -> None:
        self.raw = raw
        values = raw.copy()
        values.sort()
        self.values = values[::-1]

    @cached_property
    def order(self) -> np.ndarray:
        return _ties_by_index(np.argsort(-self.raw), self.values)


def _ties_by_index(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``order``, a permutation that sorts a vector into ``values``, with
    each run of equal ``values`` listing its indices ascending, in place:
    the stable order, bitwise.  The positions in such runs get the keys
    run * n + index, one integer sort puts every run's indices in ascending
    order back into its own positions, and the key mod n is the index.  The
    runs are counted over those positions alone: a run starts at each one
    not tied to the position before it."""
    tie = values[1:] == values[:-1]
    if tie.any():
        n = order.size
        member = np.zeros(n, dtype=bool)
        member[1:] = tie
        member[:-1] |= tie
        at = member.nonzero()[0]
        # At at[0] = 0 this reads tie[-1], which adds n to every key or to
        # none, and so changes neither their order nor their residues.
        keys = np.cumsum(~tie[at - 1], dtype=np.int64)
        keys *= n
        keys += order[at]
        keys.sort()
        order[at] = keys % n
    return order


# Positions per block of the decision's scan, chosen from timings of blocks
# of 4096 to 65536 at n = 10^4, 3 * 10^4 and 10^5.  Its buffers (one complex,
# one float and one bool, about 400 KB) stay in a core's L2 cache, and a pair
# that fails in the first block pays little more than its two sorts.  The
# buffers are allocated apart: as one array at n = 10^4 they would pass
# glibc's mmap threshold, and a fresh process would map and fault them in
# anew on every call.
_BLOCK = 16384


def _decide(
    f: NonNegVector, g: NonNegVector, tol: float, equal_totals: bool
) -> tuple[Optional[_Sorted], Optional[_Sorted], Optional[RelationVerdict]]:
    """Test sorted-partial-sum dominance of the zero-padded f and g, sorting
    each once, and only past position 1.

    ``equal_totals`` adds the majorization condition on the last position.
    Returns both records and the failing verdict (None if it holds).  A NaN
    ``tol`` raises ValueError: every comparison with it is False, so it
    would accept every pair.

    Position 1's partial sums are the two maxima, so they are read first,
    with two O(n) ``max`` calls on the inputs as given (zero padding moves
    neither maximum of nonnegative entries), and compared exactly: a pair
    whose f peaks more than tol above g returns at once, as (None, None,
    verdict), with no record built.  top_f - top_g is exact when
    top_g / 2 <= top_f <= 2 top_g (Sterbenz's lemma); otherwise its rounding
    is monotone, so it orders correctly against tol unless it rounds onto
    tol, which ``math.fsum`` settles.  What this accepts passes the scan's
    position 1 too: top_f <= top_g + tol gives top_f <= fl(top_g + tol).

    Every other pair is sorted, each input at its own length, and scanned in
    blocks of ``_BLOCK`` positions of one complex buffer, f's partial sums
    in the real parts and g's in the imaginary parts.  A block is filled from
    the sorted copies, zeros past the shorter one's end, gets the carried sum
    at its first position and is summed by one in-place ``cumsum``, the
    sequential ``add.accumulate``, whose complex add is two independent
    float64 adds.  So every partial sum, comparison, ``failed_index`` and
    message is bitwise what one ``cumsum`` of each zero-padded vector gives.
    The scan stops at the first block that holds a failing position.  The
    records keep their inputs' lengths; a caller that builds a witness pads
    them after a holding decision (:func:`_padded`), so a refutation copies
    neither input.
    """
    if tol != tol:
        raise ValueError("tol must not be NaN")
    top_f, top_g = f.values.max(), g.values.max()
    gap = top_f - top_g
    if gap > tol or gap == tol and math.fsum((top_f, -top_g, -tol)) > 0:
        message = f"sorted partial sums fail at position 1: {top_f:.12g} > {top_g:.12g}"
        return None, None, RelationVerdict(holds=False, failed_index=1, message=message)
    sf, sg = _Sorted(f.values), _Sorted(g.values)
    n = max(f.dim, g.dim)
    size = min(n, _BLOCK)
    block, bound, above = np.empty(size, dtype=complex), np.empty(size), np.empty(size, dtype=bool)
    for start in range(0, n, size):
        stop = min(start + size, n)
        block, bound, above = block[: stop - start], bound[: stop - start], above[: stop - start]
        for part, values in ((block.real, sf.values), (block.imag, sg.values)):
            head = values[start:stop]
            part[: head.size] = head
            part[head.size :] = 0.0
        if start:
            block[0] += carry
        block.cumsum(out=block)
        np.add(block.imag, tol, out=bound)
        np.greater(block.real, bound, out=above)
        k = int(above.argmax())  # the first True, or 0 if there is none
        if above[k]:
            bad = block[k]
            message = f"sorted partial sums fail at position {start + k + 1}: {bad.real:.12g} > {bad.imag:.12g}"
            return sf, sg, RelationVerdict(holds=False, failed_index=start + k + 1, message=message)
        carry = block[-1]
    if equal_totals and abs(carry.real - carry.imag) > tol:
        message = f"totals differ at position {n}: {carry.real:.12g} vs {carry.imag:.12g}"
        return sf, sg, RelationVerdict(holds=False, failed_index=n, message=message)
    return sf, sg, None


def _padded(sf: _Sorted, sg: _Sorted) -> tuple[_Sorted, _Sorted]:
    """The two records of a holding decision, zero-padded in place to one
    length for a witness, before either ``order`` is read: zeros appended to
    the shorter record's ``raw`` and ``values``, and its ``order`` then read
    from the padded ``raw``.  Bitwise the record of the zero-padded input,
    since its zeros sort last and a NonNegVector holds no -0.0."""
    n = max(sf.raw.size, sg.raw.size)
    for s in (sf, sg):
        if s.raw.size < n:
            zeros = np.zeros(n - s.raw.size)
            s.raw, s.values = np.concatenate((s.raw, zeros)), np.concatenate((s.values, zeros))
    return sf, sg


def _require(f: NonNegVector, g: NonNegVector, tol: float, equal_totals: bool) -> tuple[_Sorted, _Sorted]:
    """:func:`_decide` and the padded records, raising the witness constructors' precondition error."""
    sf, sg, failed = _decide(f, g, tol, equal_totals)
    if failed is not None:
        relation = "majorization" if equal_totals else "weak majorization"
        raise ValueError(f"{relation} precondition fails: {failed.message}")
    return _padded(sf, sg)


def check_majorize(
    f: NonNegVector,
    g: NonNegVector,
    tol: float = DEFAULT_CLASS_TOL,
    with_witness: bool = True,
) -> RelationVerdict:
    """Decide f majorized by g; certify with a doubly stochastic witness."""
    sf, sg, failed = _decide(f, g, tol, equal_totals=True)
    if failed is not None:
        return failed
    witness = None
    if with_witness:
        sf, sg = _padded(sf, sg)
        witness = _ChainMatrix(_hlp_chain(sf, sg, tol), sf.order, sg.order, tol)
    return RelationVerdict(holds=True, witness=witness, message="majorization holds")


def check_weak_majorize(
    f: NonNegVector,
    g: NonNegVector,
    tol: float = DEFAULT_CLASS_TOL,
    with_witness: bool = True,
) -> RelationVerdict:
    """Decide f weakly majorized by g; certify with a doubly substochastic witness."""
    sf, sg, failed = _decide(f, g, tol, equal_totals=False)
    if failed is not None:
        return failed
    witness = _weak_factors(*_padded(sf, sg), tol)[0] if with_witness else None
    return RelationVerdict(holds=True, witness=witness, message="weak majorization holds")


def check_submajorize(
    f: NonNegVector,
    g: NonNegVector,
    tol: float = DEFAULT_CLASS_TOL,
    with_witness: bool = True,
) -> RelationVerdict:
    """Decide f submajorized by g on truncations (zero tails assumed).

    Coincides with the weak check on finite vectors.  On acceptance the
    witness is W = diag(s) D1 with D1 doubly stochastic, and the certificate
    is that factor: ``IncreasabilityCertificate(base=W, completion=D1)``.
    D1 dominates W entrywise by construction, which is exactly
    increasability, so the entrywise scan is not run, here or when the
    certificate is rebuilt from this W and this D1; the certificate's
    ``steps`` is empty, since no greedy completion runs.

    W and D1 are held as their T-transform chain, with sums and classes from
    it, in O(n + steps) memory; ``apply`` and ``entry`` run the chain.  Their
    n x n arrays are built on the first read of ``data`` (D1's once for
    both) and then kept; at large n that read allocates n^2 floats.
    """
    sf, sg, failed = _decide(f, g, tol, equal_totals=False)
    if failed is not None:
        return failed
    message = "submajorization holds (finite collapse to the weak relation)"
    if not with_witness:
        return RelationVerdict(holds=True, message=message)
    witness, d1 = _weak_factors(*_padded(sf, sg), tol)
    cert = IncreasabilityCertificate(base=witness, completion=d1)
    return RelationVerdict(holds=True, witness=witness, certificate=cert, message=message)


def hlp_witness(f: NonNegVector, g: NonNegVector, tol: float = DEFAULT_CLASS_TOL) -> TTransformChain:
    """Constructive majorization witness as a chain of at most n-1 T-transforms.

    Works on sorted copies.  While the running vector y differs from the
    target x = f-sorted, pick j as the last position with y[j] - x[j] > eps
    (eps = 1e-12 * max(1, max y)) and k as the first later position with
    y[k] < x[k]; mixing (j, k) by t = delta / (y[j] - y[k]) with
    delta = min(y[j]-x[j], x[k]-y[k]) moves y closer while pinning at least
    one more coordinate exactly.  Each step changes y only at j and k, so the
    chain updates j and the set {y < x} instead of rescanning them: the sorts
    plus amortised O(n + steps) in all.  The product is held as the chain;
    its dense array, in original coordinates through both rearrangement
    permutations, is written on the first read of ``product.data``.
    """
    sf, sg = _require(f, g, tol, equal_totals=True)
    return _chain_of(_ChainMatrix(_hlp_chain(sf, sg, tol), sf.order, sg.order, tol))


def _chain_of(product: _ChainMatrix) -> TTransformChain:
    """The public chain of an unscaled chain-held witness, such as
    :func:`check_majorize`'s, with ``product`` itself as its product."""
    return TTransformChain(
        steps=tuple(map(TTransformStep._make, product._steps)),
        pre_perm=tuple((product._cols + 1).tolist()),
        post_perm=tuple((product._rows + 1).tolist()),
        product=product,
    )


def _hlp_chain(sf: _Sorted, sg: _Sorted, tol: float) -> tuple[tuple[int, int, float], ...]:
    """The steps of :func:`hlp_witness`, on sorted coordinates, as plain
    (i, j, t) tuples, in amortised O(n + steps) after the sorts.

    x, y and d = y - x are lists with a placeholder at index 0, so the
    1-based step coordinates index them directly.  d is computed once.  A
    step changes y only at j and k, and only d[j] and d[k] are recomputed,
    with the same expression, so d stays bitwise what a full recomputation
    would give; the coordinate a step pins gets d = 0.0, which is what
    x[j] - x[j] gives, and its y, never read again, is not written.  j's d
    and y are held in locals while j stays, and written back when j leaves
    or before the stall check reads d.

    ``above`` is a stack of the positions at most j with d > eps, j on top:
    the steps touch no position below j, and a position rises above eps only
    as k, which then replaces j, pinned, on top.  The positions with d < 0
    form a buffer gap at j: ``lo`` holds those below j in ascending order,
    ``hi`` those past j in descending order, above the sentinel n + 1 that
    stops the search, so k is ``hi[-1]``.  A j that rounding leaves short
    goes on ``hi``, as j moves below it.  Every delete, insert and move of j
    is then a pop or an append: j moves up only to k, past no short
    position, and moves down past each entry of ``lo``, which only shrinks,
    at most once.
    """
    n = sf.values.size
    xs, ys = np.empty(n + 1), np.empty(n + 1)
    xs[0] = ys[0] = 0.0
    xs[1:], ys[1:] = sf.values, sg.values
    scale = max(1.0, float(ys[1]))  # the largest of g, as n >= 1
    eps = 1e-12 * scale

    diff = ys - xs
    x, y, d = xs.tolist(), ys.tolist(), diff.tolist()
    above = (diff > eps).nonzero()[0].tolist()
    if not above:
        return ()
    short = (diff < 0).nonzero()[0]
    j = above[-1]
    cut = int(short.searchsorted(j))
    lo = short[:cut].tolist()
    hi = [n + 1]
    hi += short[cut:][::-1].tolist()
    steps = []
    step = steps.append
    dj, yj = d[j], y[j]
    while True:
        k = hi[-1]
        if k > n:
            d[j] = dj
            if max(map(abs, d)) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        dk, yk = d[k], y[k]
        # delta = min(d[j], -d[k]); t = delta / (y[j] - y[k]) lies in (0, 1]:
        # y[k] < x[k] <= x[j], so y[j] - y[k] >= d[j] >= delta > 0.
        if dj <= -dk:
            step((j, k, dj / (yj - yk)))
            yk += dj
            dk = yk - x[k]
            d[j] = 0.0  # pinned: y[j] = x[j]
            if dk >= 0:
                hi.pop()
                if dk > eps:  # every position past j was at most eps and is unchanged
                    above[-1] = j = k
                    dj, yj = dk, yk
                    continue
            y[k], d[k] = yk, dk
        else:
            step((j, k, -dk / (yj - yk)))
            hi.pop()
            yj += dk
            dj = yj - x[j]
            d[k] = 0.0  # pinned: y[k] = x[k]
            if dj > eps:
                continue
            y[j], d[j] = yj, dj
            if dj < 0:
                hi.append(j)
        above.pop()
        if not above:
            break
        j = above[-1]
        dj, yj = d[j], y[j]
        while lo and lo[-1] > j:
            hi.append(lo.pop())
    return tuple(steps)


def intermediate_h(f: NonNegVector, g: NonNegVector, tol: float = DEFAULT_CLASS_TOL) -> NonNegVector:
    """Raise f entrywise to an h with f <= h and h majorized by g.

    Water-fills the total deficit onto f in descending-rearrangement order,
    capping each raise by the remaining sorted-partial-sum headroom of g, so
    dominance is preserved at every prefix and the result is deterministic.
    """
    return NonNegVector(_raised(*_require(f, g, tol, equal_totals=False)))


def _raised(sf: _Sorted, sg: _Sorted) -> np.ndarray:
    """The values of :func:`intermediate_h`, in original coordinates.  The
    partial sums are bitwise the decision's (see :func:`_decide`)."""
    fs, gs = np.cumsum(sf.values), np.cumsum(sg.values)
    deficit = max(0.0, float(gs[-1] - fs[-1]))
    # A raise at sorted position k lifts every later partial sum of f by the
    # same amount, so the total raised through k is the least headroom of g
    # over positions k..n, capped by the deficit.
    headroom = np.minimum.accumulate((gs - fs)[::-1])[::-1]
    total = np.minimum(np.maximum(headroom, 0.0), deficit)  # no NaN, no -0.0: np.clip's bits
    raised = np.empty_like(total)
    raised[0] = total[0]
    np.subtract(total[1:], total[:-1], out=raised[1:])
    h = np.empty_like(sf.raw)
    h[sf.order] = sf.values + raised
    return h


def _raised_record(h: np.ndarray, sf: _Sorted) -> _Sorted:
    """h's sorted record, derived from f's with no sort of h when it can be.

    In exact arithmetic h along f's sorted order is non-increasing: a raise
    at sorted position k + 1 needs a tight prefix at k, so, in sorted
    coordinates, h_{k+1} <= g_{k+1} <= g_k <= h_k.  When the floats keep
    that order (one O(n) test), h gathered by f's order is h's sorted
    values, and h's stable order is f's with each run of equal values put
    in index order.  When rounding breaks it (an inversion of a few ulps),
    h is sorted anew.
    """
    values = h[sf.order]
    if not (values[1:] <= values[:-1]).all():
        return _Sorted(h)
    sh = _Sorted.__new__(_Sorted)
    vars(sh).update(raw=h, values=values, order=_ties_by_index(sf.order.copy(), values))
    return sh


def weak_witness(f: NonNegVector, g: NonNegVector, tol: float = DEFAULT_CLASS_TOL) -> StochMatrix:
    """Doubly substochastic witness for a weak majorization.

    Builds the intermediate h, takes the doubly stochastic witness for
    h majorized by g, and scales row i by f(i)/h(i) (rows with h(i) = 0
    already reproduce f(i) = 0 and keep scale 1).  The all-zero f gets the
    zero matrix directly.
    """
    return _weak_factors(*_require(f, g, tol, equal_totals=False), tol)[0]


def _weak_factors(sf: _Sorted, sg: _Sorted, tol: float) -> tuple[StochMatrix, StochMatrix]:
    """The witness W = diag(s) D1 of :func:`weak_witness` and its factor D1
    (the identity for the all-zero f, with s = 0).

    W is a :class:`_ChainMatrix` that holds D1 as its factor; both are
    classified from the chain.  s is checked to lie in [0, 1], so W is
    nonnegative and every entry fl(s_i * D1[i, j]) is at most D1[i, j].  No
    n x n array is made here; reading either ``data`` builds D1's once and
    W's from it.
    """
    f = sf.raw
    if sf.values[0] > 0:
        h = _raised(sf, sg)
        sh = _raised_record(h, sf)
        steps, rows = _hlp_chain(sh, sg, tol), sh.order
        scales = np.divide(f, h, out=np.ones(f.size), where=h > 0)  # _raised only adds to f
    else:
        steps, rows = (), sg.order
        scales = np.zeros(f.size)
    witness = _ChainMatrix(steps, rows, sg.order, tol, scales)
    return witness, witness._factor


def strict_permutation(f: NonNegVector, g: NonNegVector, value_tol: float = 0.0) -> Optional[tuple[int, ...]]:
    """1-based permutation pi with g(pi(k)) = f(k), or None.

    Exists iff the full value multisets coincide (entrywise within
    ``value_tol``; exact by default).  Ties are matched by ascending index.
    """
    f2, g2 = common_dim(f, g)
    sf, sg = _Sorted(f2.values), _Sorted(g2.values)
    if np.any(np.abs(sf.values - sg.values) > value_tol):
        return None
    out = np.empty(f2.dim, dtype=int)
    out[sf.order] = sg.order + 1
    return tuple(out.tolist())


def partial_permutation(
    f: NonNegVector, g: NonNegVector, value_tol: float = 0.0
) -> Optional[dict[int, int]]:
    """Support bijection {f-index: g-index} (1-based), or None.

    Exists iff the multisets of strictly positive values coincide (entrywise
    within ``value_tol`` after sorting).  Ties are matched by ascending index.
    """
    k = int(np.count_nonzero(f.values > 0))
    if k != np.count_nonzero(g.values > 0):
        return None
    sf, sg = _Sorted(f.values), _Sorted(g.values)  # positives form the sorted prefix
    if np.any(np.abs(sf.values[:k] - sg.values[:k]) > value_tol):
        return None
    return dict(zip((sf.order[:k] + 1).tolist(), (sg.order[:k] + 1).tolist()))


def permutation_between(f: NonNegVector, g: NonNegVector, mode: str = "strict"):
    """Dispatch to :func:`strict_permutation` or :func:`partial_permutation`."""
    if mode == "strict":
        return strict_permutation(f, g)
    if mode == "partial":
        return partial_permutation(f, g)
    raise ValueError(f'permutation mode must be "strict" or "partial", got {mode!r}')


_ORACLE_MAX_DIM = 6


def oracle_majorize_bruteforce(
    f: NonNegVector,
    g: NonNegVector,
    relation: str = "strong",
    tol: float = DEFAULT_CLASS_TOL,
) -> bool:
    """Independent small-dimension oracle via the permutation polytope.

    Enumerates the distinct permutations of g as explicit polytope vertices
    and minimizes, by linear programming, the sup-norm distance z from f to
    the polytope (strong), or the largest entrywise undershoot of f by a
    polytope point (weak).  This computation path is fully separate from the
    sorted-partial-sum checks.  Dimensions above 6 are rejected.

    Its rule: strong holds iff the totals of f and g differ by at most
    ``n * tol`` and some polytope point is within ``tol`` of f in every
    coordinate; weak holds iff some polytope point falls short of f by at
    most ``tol`` in every coordinate.  The tolerance bounds residuals
    entrywise, whereas the checks bound each sorted prefix sum by ``tol``, so
    the two can disagree within a few ``tol`` of the boundary: for
    f = (1 + 9e-10, 1 + 9e-10), g = (1, 1) and tol = 1e-9 the oracle accepts
    and :func:`check_majorize` rejects at position 2.
    """
    if relation not in ("strong", "weak"):
        raise ValueError(f'relation must be "strong" or "weak", got {relation!r}')
    f2, g2 = common_dim(f, g)
    n = f2.dim
    if n > _ORACLE_MAX_DIM:
        raise ValueError(f"oracle limited to dim <= {_ORACLE_MAX_DIM}, got {n}")

    vertices = sorted(set(itertools.permutations(g2.values.tolist())))
    v = np.asarray(vertices, dtype=float).T  # n x m
    m = v.shape[1]
    fv = f2.values

    if relation == "strong" and abs(float(fv.sum() - g2.values.sum())) > n * tol:
        return False  # every polytope point has the total of g

    # Variables (lambda_1..lambda_m, z): minimize z subject to the residual
    # bounds; the program is always feasible and bounded below by zero.
    ones = np.ones((n, 1))
    if relation == "strong":
        a_ub = np.block([[v, -ones], [-v, -ones]])
        b_ub = np.concatenate([fv, -fv])
    else:
        a_ub = np.block([[-v, -ones]])
        b_ub = -fv

    from scipy.optimize import linprog  # loaded here only: importing it dominates start-up

    res = linprog(
        c=np.concatenate([np.zeros(m), [1.0]]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.concatenate([np.ones(m), [0.0]]).reshape(1, -1),
        b_eq=np.ones(1),
        bounds=[(0, None)] * m + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"oracle linear program did not converge: status {res.status}")
    return float(res.fun) <= tol
