"""Decision procedures and witness constructors for the majorization orders.

Three relations on nonnegative vectors (shorter input zero-padded first):

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
``steps`` is empty (no greedy completion runs).  Each call sorts every
vector once and decides once.  A decision sorts values only; the stable
tie-broken order is computed only when a witness, h or a permutation is
built, and the witness is built from that same sorted data.
The chain itself picks each step from index sets it keeps up to date (j,
the last position with y - x > eps, and the sorted positions with y < x),
O(n log n + steps) in all rather than O(n) per step.  A chain's product is
written once, directly in original coordinates, by mixing rows of a
permutation matrix in place: O(n) per step, O(n * steps) in all, with the
n x n result as the only dense array.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT_CLASS_TOL
from .matrices import IncreasabilityCertificate, StochMatrix, _classify
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
            if not -1e-15 <= s.t <= 1 + 1e-15:
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
    rows[i-1] and rows[j-1], so every step updates the result in place.
    """
    out = np.zeros((len(rows), len(rows)))
    out[rows, cols] = 1.0
    for i, j, t in steps:
        a, b = rows[i - 1], rows[j - 1]
        out[a], out[b] = (1 - t) * out[a] + t * out[b], t * out[a] + (1 - t) * out[b]
    return out


class _Sorted:
    """A vector sorted once: the vector, its non-increasing values and their
    partial sums, from one values-only sort.

    ``order``, the stable non-increasing order (0-based, ties by ascending
    index), is computed on first use: a decision needs only the values, and
    only code that un-sorts (a witness, h, a permutation) reads the order.
    ``raw[order]`` equals ``values`` bitwise for any ``raw`` without -0.0,
    which a NonNegVector never stores.
    """

    def __init__(self, raw: np.ndarray) -> None:
        self.raw = raw
        self.values = np.sort(raw)[::-1]
        self.sums = np.cumsum(self.values)

    @cached_property
    def order(self) -> np.ndarray:
        return np.argsort(-self.raw, kind="stable")


def _decide(
    f: NonNegVector, g: NonNegVector, tol: float, equal_totals: bool
) -> tuple[_Sorted, _Sorted, Optional[RelationVerdict]]:
    """Sort the zero-padded f and g once and test sorted-partial-sum dominance.

    ``equal_totals`` adds the majorization condition on the last position.
    Returns both sorted vectors and the failing verdict (None if it holds).
    """
    f2, g2 = common_dim(f, g)
    sf, sg = _Sorted(f2.values), _Sorted(g2.values)
    pf, pg = sf.sums, sg.sums
    bad = np.nonzero(pf > pg + tol)[0]
    if bad.size:
        k = int(bad[0])
        message = f"sorted partial sums fail at position {k + 1}: {pf[k]:.12g} > {pg[k]:.12g}"
    elif equal_totals and abs(pf[-1] - pg[-1]) > tol:
        k = pf.size - 1
        message = f"totals differ at position {k + 1}: {pf[k]:.12g} vs {pg[k]:.12g}"
    else:
        return sf, sg, None
    return sf, sg, RelationVerdict(holds=False, failed_index=k + 1, message=message)


def _require(f: NonNegVector, g: NonNegVector, tol: float, equal_totals: bool) -> tuple[_Sorted, _Sorted]:
    """:func:`_decide` for the witness constructors: raise their precondition error on failure."""
    sf, sg, failed = _decide(f, g, tol, equal_totals)
    if failed is not None:
        relation = "majorization" if equal_totals else "weak majorization"
        raise ValueError(f"{relation} precondition fails: {failed.message}")
    return sf, sg


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
    witness = _hlp_product(sf, sg, tol) if with_witness else None
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
    witness = _weak_factors(sf, sg, tol)[0] if with_witness else None
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
    D1 dominates W entrywise, which is exactly increasability; the
    certificate's ``steps`` is empty, since no greedy completion runs.
    """
    sf, sg, failed = _decide(f, g, tol, equal_totals=False)
    if failed is not None:
        return failed
    message = "submajorization holds (finite collapse to the weak relation)"
    if not with_witness:
        return RelationVerdict(holds=True, message=message)
    witness, d1 = _weak_factors(sf, sg, tol)
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
    chain updates j and the set {y < x} instead of rescanning them:
    O(n log n + steps) in all.  The product is written in original
    coordinates through both rearrangement permutations.
    """
    sf, sg = _require(f, g, tol, equal_totals=True)
    steps = _hlp_chain(sf, sg, tol)
    return TTransformChain(
        steps=steps,
        pre_perm=tuple((sg.order + 1).tolist()),
        post_perm=tuple((sf.order + 1).tolist()),
        product=_classify(_chain_product(steps, sf.order, sg.order), tol),
    )


def _hlp_chain(sf: _Sorted, sg: _Sorted, tol: float) -> tuple[TTransformStep, ...]:
    """The steps of :func:`hlp_witness`, on sorted coordinates.

    d = y - x is computed once.  A step changes y only at j and k, and only
    d[j] and d[k] are recomputed, with the same expression, so d stays
    bitwise what a full recomputation would give.
    """
    x = sf.values.tolist()
    y = sg.values.tolist()
    scale = max(1.0, float(sg.values.max(initial=0.0)))
    eps = 1e-12 * scale

    diff = sg.values - sf.values
    d = diff.tolist()
    pos = np.nonzero(diff > eps)[0]
    j = int(pos[-1]) if pos.size else -1  # the last position with d > eps
    neg = np.nonzero(diff < 0)[0].tolist()
    steps: list[TTransformStep] = []
    while j >= 0:
        i = bisect_right(neg, j)
        if i == len(neg):
            if max(map(abs, d)) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        k = neg[i]
        delta = min(d[j], -d[k])
        t = delta / (y[j] - y[k])  # in (0, 1]: y[k] < x[k] <= x[j], so y[j] - y[k] >= d[j] >= delta > 0
        if d[j] <= -d[k]:
            y[k] += delta
            y[j] = x[j]  # pin exactly
        else:
            y[j] -= delta
            y[k] = x[k]  # pin exactly
        steps.append(TTransformStep(j + 1, k + 1, t))
        d[j] = y[j] - x[j]
        d[k] = y[k] - x[k]
        # neg[:i] lies below j, so j, negative only by rounding, goes in at i.
        if d[k] >= 0:
            del neg[i]
        if d[j] < 0:
            neg.insert(i, j)
        if d[k] > eps:
            j = k  # every later position was at most eps and is unchanged
        else:
            while j >= 0 and not d[j] > eps:
                j -= 1
    return tuple(steps)


def _hlp_product(sf: _Sorted, sg: _Sorted, tol: float) -> StochMatrix:
    """The product of the :func:`hlp_witness` chain, classified."""
    return _classify(_chain_product(_hlp_chain(sf, sg, tol), sf.order, sg.order), tol)


def intermediate_h(f: NonNegVector, g: NonNegVector, tol: float = DEFAULT_CLASS_TOL) -> NonNegVector:
    """Raise f entrywise to an h with f <= h and h majorized by g.

    Water-fills the total deficit onto f in descending-rearrangement order,
    capping each raise by the remaining sorted-partial-sum headroom of g, so
    dominance is preserved at every prefix and the result is deterministic.
    """
    return NonNegVector(_raised(*_require(f, g, tol, equal_totals=False)))


def _raised(sf: _Sorted, sg: _Sorted) -> np.ndarray:
    """The values of :func:`intermediate_h`, in original coordinates."""
    deficit = max(0.0, float(sg.sums[-1] - sf.sums[-1]))
    # A raise at sorted position k lifts every later partial sum of f by the
    # same amount, so the total raised through k is the least headroom of g
    # over positions k..n, capped by the deficit.
    headroom = np.minimum.accumulate((sg.sums - sf.sums)[::-1])[::-1]
    total = np.clip(headroom, 0.0, deficit)
    h = np.empty_like(sf.raw)
    h[sf.order] = sf.values + np.diff(total, prepend=0.0)
    return h


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
    (the identity for the all-zero f)."""
    f = sf.raw
    n = f.size
    if not np.any(f > 0):
        return _classify(np.zeros((n, n)), tol), _classify(np.eye(n), tol)
    h = _raised(sf, sg)
    # _classify takes each fresh product as it is, so at most two n x n
    # arrays (D1 and W) are alive at once.
    d1 = _hlp_product(_Sorted(h), sg, tol)
    safe = np.where(h > 0, h, 1.0)
    scales = np.where(h > 0, f / safe, 1.0)  # in [0, 1]: _raised only adds to f
    return _classify(d1.data * scales[:, None], tol), d1


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
    polytope point (weak).  The relation holds iff the optimum is at most
    ``tol``.  This computation path is fully separate from the
    sorted-partial-sum checks.  Dimensions above 6 are rejected.
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
