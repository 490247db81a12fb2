"""Square nonnegative matrices with row/column-sum classification.

The classes form a lattice: doubly stochastic (all row and column sums equal
one) refines doubly substochastic (all sums at most one), which refines the
one-sided classes, which refine "general".  A doubly substochastic matrix can
always be raised entrywise to a doubly stochastic one (von Neumann); the
greedy constructive completion below returns that witness together with its
augmentation trace.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CLASS_TOL, DEFAULT_EXACT_TOL
from .vectors import NonNegVector


class MatrixClass(enum.Enum):
    GENERAL = "general"
    ROW_SUBSTOCHASTIC = "row-substochastic"
    COL_SUBSTOCHASTIC = "col-substochastic"
    DOUBLY_SUBSTOCHASTIC = "doubly-substochastic"
    DOUBLY_STOCHASTIC = "doubly-stochastic"

    @property
    def rank(self) -> int:
        return _CLASS_RANK[self]

    def at_least(self, other: "MatrixClass") -> bool:
        """Whether this class is at least as strong as ``other``."""
        return self.rank >= other.rank


_CLASS_RANK = {
    MatrixClass.GENERAL: 0,
    MatrixClass.ROW_SUBSTOCHASTIC: 1,
    MatrixClass.COL_SUBSTOCHASTIC: 1,
    MatrixClass.DOUBLY_SUBSTOCHASTIC: 2,
    MatrixClass.DOUBLY_STOCHASTIC: 3,
}


@dataclass(frozen=True, eq=False)
class StochMatrix:
    """Square nonnegative matrix with cached sums and its strongest class.

    A matrix classified from an array holds that array as ``data``.  The
    witnesses that :mod:`submaj.relations` builds are held as their
    T-transform chain instead: their sums and class come from the chain, and
    :func:`apply` and :meth:`entry` run the chain, so none of them needs the
    array.  Their ``data`` is built on its first read and then kept, frozen;
    at large n that read allocates n^2 floats (80 GB at n = 10^5).
    """

    data: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    matrix_class: MatrixClass

    @property
    def n(self) -> int:
        return int(self.row_sums.shape[0])

    def entry(self, i: int, j: int) -> float:
        """Entry at 1-based position (i, j)."""
        return float(self.data[i - 1, j - 1])

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """The action on a vector, for :func:`apply`."""
        return self.data @ x

    def _below(self, other: "StochMatrix") -> bool:
        """Whether this matrix is known, from how it was built, to be at most
        ``other`` entrywise; False when that is not known."""
        return False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "data": self.data.ravel().tolist(),
            "class": self.matrix_class.value,
        }

    @classmethod
    def from_json_dict(cls, obj: dict, tol: float = DEFAULT_CLASS_TOL) -> "StochMatrix":
        if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
            raise ValueError('matrix JSON must be {"n": n, "data": [n*n reals]}')
        n = obj["n"]
        data = obj["data"]
        if not isinstance(n, int) or n < 1:
            raise ValueError("matrix JSON: n must be a positive integer")
        if not isinstance(data, list) or len(data) != n * n:
            raise ValueError("matrix JSON: data must hold exactly n*n entries")
        return classify_matrix(np.asarray(data, dtype=float).reshape(n, n), tol)


def classify_matrix(data, tol: float = DEFAULT_CLASS_TOL) -> StochMatrix:
    """Tag a square nonnegative matrix with its strongest sum class.

    Enlarging ``tol`` never demotes the class: every predicate is of the form
    "sum <= 1 + tol" or "|sum - 1| <= tol".
    """
    return _classify(np.array(data, dtype=float, copy=True), tol)


def _classify(arr: np.ndarray, tol: float = DEFAULT_CLASS_TOL) -> StochMatrix:
    """:func:`classify_matrix` on a float array nobody else holds; it is frozen in place.

    One check order: square, nonempty, then a ``min`` and ``max`` screen,
    behind which finiteness is checked before nonnegativity; then the sums,
    computed once (numpy warns if a finite row or column overflows)."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if arr.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not (arr.min() >= 0 and arr.max() < np.inf):  # NaN fails both
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        raise ValueError("matrix entries must be nonnegative")
    sums = arr.sum(axis=1), arr.sum(axis=0)
    for a in (arr, *sums):
        a.flags.writeable = False
    return StochMatrix(data=arr, row_sums=sums[0], col_sums=sums[1], matrix_class=_class_of(*sums, tol))


def _class_of(row_sums: np.ndarray, col_sums: np.ndarray, tol: float) -> MatrixClass:
    """The one class rule: the strongest class that the row and column sums of
    a finite nonnegative matrix allow.  :func:`_classify` passes the two sums
    it computes once from the screened entries, the witnesses of
    :mod:`submaj.relations` the sums that their T-transform chain gives."""
    if (np.abs(row_sums - 1) <= tol).all() and (np.abs(col_sums - 1) <= tol).all():
        return MatrixClass.DOUBLY_STOCHASTIC
    rows_ok = bool((row_sums <= 1 + tol).all())
    cols_ok = bool((col_sums <= 1 + tol).all())
    if rows_ok and cols_ok:
        return MatrixClass.DOUBLY_SUBSTOCHASTIC
    if rows_ok:
        return MatrixClass.ROW_SUBSTOCHASTIC
    if cols_ok:
        return MatrixClass.COL_SUBSTOCHASTIC
    return MatrixClass.GENERAL


def apply(m: StochMatrix, f: NonNegVector) -> NonNegVector:
    """Matrix action (Mf)(i) = sum_j M[i,j] f(j).

    A witness held as its T-transform chain pushes f through the steps in
    O(n + steps), without building its n x n array; its result differs from
    ``m.data @ f`` by rounding only.
    """
    if m.n != f.dim:
        raise ValueError(f"dimension mismatch: matrix is {m.n}x{m.n}, vector has dim {f.dim}")
    return NonNegVector(m._matvec(f.values))


class AugmentationStep(NamedTuple):
    """One greedy completion step: ``amount`` added at 1-based (row, col)."""

    row: int
    col: int
    amount: float


@dataclass(frozen=True, eq=False)
class IncreasabilityCertificate:
    """Doubly stochastic matrix dominating ``base`` entrywise.

    The existence of such a completion is exactly what makes ``base``
    increasable; in finite dimensions every doubly substochastic matrix has
    one.  Dominance is checked by one O(n^2) entrywise comparison, which
    makes n x n temporaries; it is skipped only when the base was built from
    the completion itself: the weak witness W = diag(s) D1 of
    :mod:`submaj.relations`, with 0 <= s <= 1 checked, under its own factor
    D1.
    """

    base: StochMatrix
    completion: StochMatrix
    steps: tuple[AugmentationStep, ...] = ()

    def __post_init__(self) -> None:
        if self.base.n != self.completion.n:
            raise ValueError("certificate base and completion must share a dimension")
        if self.completion.matrix_class is not MatrixClass.DOUBLY_STOCHASTIC:
            raise ValueError("certificate completion must be doubly stochastic")
        if not self.base._below(self.completion) and not _dominates(self.completion.data, self.base.data):
            raise ValueError("certificate completion must dominate the base entrywise")

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "completion": self.completion.to_json_dict(),
            "steps": [{"i": s.row, "j": s.col, "amount": s.amount} for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, tol: float = DEFAULT_CLASS_TOL) -> "IncreasabilityCertificate":
        if not isinstance(obj, dict) or "base" not in obj or "completion" not in obj:
            raise ValueError('certificate JSON must hold "base" and "completion"')
        steps = tuple(
            AugmentationStep(int(s["i"]), int(s["j"]), float(s["amount"]))
            for s in obj.get("steps", [])
        )
        return cls(
            base=StochMatrix.from_json_dict(obj["base"], tol),
            completion=StochMatrix.from_json_dict(obj["completion"], tol),
            steps=steps,
        )


def _dominates(upper: np.ndarray, lower: np.ndarray) -> bool:
    """Whether ``upper >= lower - DEFAULT_CLASS_TOL`` entrywise; the comparison
    makes n x n temporaries."""
    return not np.any(upper < lower - DEFAULT_CLASS_TOL)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of an increasable matrix: d1 = base + d2 with d1 doubly stochastic."""

    d1: StochMatrix
    d2: StochMatrix


def vonneumann_complete(
    d: StochMatrix,
    tol: float = DEFAULT_CLASS_TOL,
    aug_tol: float = DEFAULT_EXACT_TOL,
) -> IncreasabilityCertificate:
    """Greedily raise a doubly substochastic matrix to a doubly stochastic one.

    Repeatedly adds the smaller of the two deficiencies at the first row and
    the first column whose sums fall short.  Each step zeroes at least one
    deficiency exactly, so at most 2n-1 steps run, and deficiencies only
    fall, so both indices only move forward.  ``aug_tol`` is the deficiency
    threshold that keeps augmenting (well below ``tol`` so that the
    completion is comfortably doubly stochastic at the class tolerance).

    Raises ValueError if the input is not doubly substochastic at ``tol``.
    """
    if np.any(d.row_sums > 1 + tol) or np.any(d.col_sums > 1 + tol):
        raise ValueError("completion requires a doubly substochastic input")

    a = d.data.copy()
    r, c = (1.0 - d.row_sums).tolist(), (1.0 - d.col_sums).tolist()  # deficiencies
    steps: list[AugmentationStep] = []
    n, i, j = len(r), 0, 0
    while True:
        while i < n and r[i] <= aug_tol:
            i += 1
        while j < n and c[j] <= aug_tol:
            j += 1
        if i == n or j == n:
            break
        t = min(r[i], c[j])
        a[i, j] += t
        r[i] -= t
        c[j] -= t
        steps.append(AugmentationStep(i + 1, j + 1, float(t)))

    completion = _classify(a, tol)
    if completion.matrix_class is not MatrixClass.DOUBLY_STOCHASTIC:
        raise RuntimeError("completion failed to reach a doubly stochastic matrix")
    return IncreasabilityCertificate(base=d, completion=completion, steps=tuple(steps))


def decompose_increasable(
    d: StochMatrix,
    cert: IncreasabilityCertificate,
    tol: float = DEFAULT_CLASS_TOL,
    tol_exact: float = DEFAULT_EXACT_TOL,
) -> Decomposition:
    """Split d1 = d + d2 using the certificate's completion as d1."""
    if cert.base is not d and not np.array_equal(cert.base.data, d.data):
        raise ValueError("certificate base does not match the given matrix")
    diff = cert.completion.data - d.data
    if diff.min() < -tol_exact:
        raise ValueError("certificate completion does not dominate the matrix")
    d2 = _classify(np.clip(diff, 0.0, None), tol)
    if np.max(np.abs(cert.completion.data - (d.data + d2.data))) > tol_exact:
        raise RuntimeError("decomposition identity d1 = d + d2 violated")
    return Decomposition(d1=cert.completion, d2=d2)


def compose(a: StochMatrix, b: StochMatrix, tol: float = DEFAULT_CLASS_TOL) -> StochMatrix:
    """Matrix product, reclassified; substochastic classes are closed under it."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return _classify(a.data @ b.data, tol)


def compose_certificates(
    ca: IncreasabilityCertificate,
    cb: IncreasabilityCertificate,
    tol: float = DEFAULT_CLASS_TOL,
) -> IncreasabilityCertificate:
    """Certificate for a product: completions multiply along with the bases."""
    return IncreasabilityCertificate(
        base=compose(ca.base, cb.base, tol),
        completion=compose(ca.completion, cb.completion, tol),
    )


def convex_combine(
    t: float, a: StochMatrix, b: StochMatrix, tol: float = DEFAULT_CLASS_TOL
) -> StochMatrix:
    """t*A + (1-t)*B for t in [0, 1]; never weaker than both inputs' classes."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing coefficient must lie in [0, 1], got {t}")
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return _classify(t * a.data + (1.0 - t) * b.data, tol)


def convex_combine_certificates(
    t: float,
    ca: IncreasabilityCertificate,
    cb: IncreasabilityCertificate,
    tol: float = DEFAULT_CLASS_TOL,
) -> IncreasabilityCertificate:
    """Certificate for a convex combination: combine bases and completions alike."""
    return IncreasabilityCertificate(
        base=convex_combine(t, ca.base, cb.base, tol),
        completion=convex_combine(t, ca.completion, cb.completion, tol),
    )


def shift_matrix(n: int, direction: str) -> StochMatrix:
    """Truncated shift: ones on the superdiagonal (left) or subdiagonal (right).

    Both truncations are doubly substochastic but not doubly stochastic (one
    row and one column sum to zero); for n = 1 the matrix is all zero.
    """
    if n < 1:
        raise ValueError("shift dimension must be at least 1")
    if direction == "left":
        return classify_matrix(np.eye(n, k=1))
    if direction == "right":
        return classify_matrix(np.eye(n, k=-1))
    raise ValueError(f'shift direction must be "left" or "right", got {direction!r}')


def identity_matrix(n: int) -> StochMatrix:
    return classify_matrix(np.eye(n))


def zero_matrix(n: int) -> StochMatrix:
    return classify_matrix(np.zeros((n, n)))
