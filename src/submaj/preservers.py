"""Structured operators built from injections with pairwise disjoint images.

An injection theta sends coordinate k of a vector to coordinate theta(k); the
induced operator P_theta is an isometry for every p-norm.  Weighted sums
T = sum_k lambda_k P_theta_k over a disjoint-image family, optionally plus a
rank-one constant-row part T_h(f) = h * sum(f) in the 1-norm regime, are
exactly the bounded operators that preserve the submajorization order on the
positive cone.  This module builds their truncations, classifies candidate
truncations against the two row criteria, constructs the intertwining
operator S with P_theta D = S P_theta, and fuzzes order preservation
empirically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT_CLASS_TOL, DEFAULT_EXACT_TOL
from .matrices import IncreasabilityCertificate, decompose_increasable, vonneumann_complete
from .relations import check_weak_majorize
from .sampling import random_doubly_substochastic, random_nonneg_vector
from .vectors import NonNegVector


@dataclass(frozen=True, eq=False)
class Injection:
    """One-to-one map on 1-based indices: mapping[j-1] is the image of j."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.mapping:
            raise ValueError("injection must have a nonempty domain")
        if any(int(i) != i or i < 1 for i in self.mapping):
            raise ValueError("injection images must be positive integers")
        if len(set(self.mapping)) != len(self.mapping):
            raise ValueError("injection images must be pairwise distinct")
        object.__setattr__(self, "mapping", tuple(int(i) for i in self.mapping))

    @property
    def domain_dim(self) -> int:
        return len(self.mapping)

    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def __call__(self, j: int) -> int:
        if not 1 <= j <= self.domain_dim:
            raise ValueError(f"injection argument {j} outside 1..{self.domain_dim}")
        return self.mapping[j - 1]


def identity_injection(n: int) -> Injection:
    return Injection(tuple(range(1, n + 1)))


@dataclass(frozen=True, eq=False)
class InjectionFamily:
    """Injections over a common domain; validity needs pairwise disjoint images."""

    members: tuple[Injection, ...]

    def __post_init__(self) -> None:
        dims = {m.domain_dim for m in self.members}
        if len(dims) > 1:
            raise ValueError("family members must share a domain dimension")

    @property
    def domain_dim(self) -> Optional[int]:
        return self.members[0].domain_dim if self.members else None

    def union_image(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.members:
            out.update(m.mapping)
        return frozenset(out)


def random_injection_family(
    rng: np.random.Generator, members: int, domain_dim: int, truncate: int
) -> InjectionFamily:
    """Disjoint-image injections from {1..domain_dim} into {1..truncate}."""
    need = members * domain_dim
    if need > truncate:
        raise ValueError(f"cannot fit {need} disjoint image points into 1..{truncate}")
    targets = rng.choice(truncate, size=need, replace=False) + 1
    parts = targets.reshape(members, domain_dim)
    return InjectionFamily(tuple(Injection(tuple(int(t) for t in row)) for row in parts))


class FamilyCollision(NamedTuple):
    """Members k and k_other collide: theta_k(j) == theta_k_other(j_other)."""

    k: int
    j: int
    k_other: int
    j_other: int


@dataclass(frozen=True)
class FamilyVerdict:
    valid: bool
    collision: Optional[FamilyCollision] = None


def validate_family(family: InjectionFamily) -> FamilyVerdict:
    """Accept iff images are pairwise disjoint; report the first collision."""
    seen: dict[int, tuple[int, int]] = {}
    for k, member in enumerate(family.members, start=1):
        for j, target in enumerate(member.mapping, start=1):
            if target in seen:
                k0, j0 = seen[target]
                return FamilyVerdict(False, FamilyCollision(k0, j0, k, j))
            seen[target] = (k, j)
    return FamilyVerdict(True)


@dataclass(frozen=True, eq=False)
class PreserverSpec:
    """Weights, an injection family, and an optional constant-row function.

    For p > 1 the operator is a pure weighted sum of injections.  In the
    1-norm mode a constant-row part h may be added, provided h vanishes on
    every index in the union of the injections' images.
    """

    p: float
    weights: tuple[float, ...]
    family: InjectionFamily
    constant_row: Optional[NonNegVector] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {self.p}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(w < 0 or not np.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if len(self.weights) != len(self.family.members):
            raise ValueError("one weight per family member is required")
        check = validate_family(self.family)
        if not check.valid:
            raise ValueError(f"injection images must be pairwise disjoint: {check.collision}")
        if self.constant_row is not None:
            if self.p != 1:
                raise ValueError("a constant-row part is only allowed when p = 1")
            overlap = set(self.constant_row.support()) & set(self.family.union_image())
            if overlap:
                raise ValueError(
                    f"constant-row support must avoid all injection images; hits {sorted(overlap)[:3]}"
                )

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "weights": list(self.weights),
            "injections": [list(m.mapping) for m in self.family.members],
        }
        if self.constant_row is not None:
            out["h"] = self.constant_row.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PreserverSpec":
        if not isinstance(obj, dict) or "p" not in obj or "weights" not in obj:
            raise ValueError('preserver JSON must hold "p", "weights" and "injections"')
        members = tuple(Injection(tuple(m)) for m in obj.get("injections", []))
        h = NonNegVector.from_json_dict(obj["h"]) if "h" in obj and obj["h"] is not None else None
        return cls(
            p=float(obj["p"]),
            weights=tuple(float(w) for w in obj["weights"]),
            family=InjectionFamily(members),
            constant_row=h,
        )


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Sparse rows x cols window of an operator: (i, j) -> positive entry.

    Construction also fixes the coordinate arrays of the entries (1-based
    int64 row and column indices and float values, in the order of
    ``entries``); every method and classifier below runs on those arrays.
    """

    rows: int
    cols: int
    entries: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("truncation must have at least one row and column")
        keys = list(self.entries)
        nnz = len(keys)
        ij = np.array(keys, dtype=float).reshape(nnz, 2)  # raises unless every key is a pair
        v = np.fromiter(self.entries.values(), dtype=float, count=nnz)
        outside = ~np.all((ij >= 1) & (ij <= (self.rows, self.cols)), axis=1)
        bad = outside | ~(np.isfinite(v) & (v > 0))
        if bad.any():
            k = int(np.argmax(bad))  # the first offending entry in dict order
            i, j = keys[k]
            if outside[k]:
                raise ValueError(f"entry ({i}, {j}) outside the {self.rows}x{self.cols} window")
            raise ValueError(f"entries must be finite and positive, got {float(v[k])} at ({i}, {j})")
        i, j = ij.astype(np.int64).T
        clean = dict(zip(zip(i.tolist(), j.tolist()), v.tolist()))
        if len(clean) < nnz:  # non-integral keys truncated onto one cell: the last value wins
            i, j = np.array(list(clean), dtype=np.int64).reshape(-1, 2).T
            v = np.fromiter(clean.values(), dtype=float, count=len(clean))
        for name, arr in (("_i", i), ("_j", j), ("_v", v)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "entries", clean)

    @cached_property
    def _by_row(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row indices ascending, then column indices and values; dict order within a row."""
        order = np.argsort(self._i, kind="stable")
        return self._i[order], self._j[order], self._v[order]

    @cached_property
    def _by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Column indices ascending, then row indices and values; dict order within a column."""
        order = np.argsort(self._j, kind="stable")
        return self._j[order], self._i[order], self._v[order]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self._i - 1, self._j - 1] = self._v
        return out

    def apply(self, f: NonNegVector) -> NonNegVector:
        """Action on a vector of dimension ``cols``; output has dimension ``rows``."""
        if f.dim != self.cols:
            raise ValueError(f"dimension mismatch: operator has {self.cols} columns, vector dim {f.dim}")
        return NonNegVector(
            np.bincount(self._i - 1, weights=self._v * f.values[self._j - 1], minlength=self.rows)
        )

    def column(self, j: int) -> dict[int, float]:
        return _group(self._by_column, j)

    def row(self, i: int) -> dict[int, float]:
        return _group(self._by_row, i)

    def to_json_dict(self) -> dict:
        triplets = sorted((i, j, v) for (i, j), v in self.entries.items())
        return {"rows": self.rows, "cols": self.cols, "entries": [[i, j, v] for i, j, v in triplets]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TruncatedOperator":
        if not isinstance(obj, dict) or "rows" not in obj or "cols" not in obj:
            raise ValueError('operator JSON must hold "rows", "cols" and "entries"')
        entries = {}
        for item in obj.get("entries", []):
            if len(item) != 3:
                raise ValueError("operator JSON entries must be [i, j, value] triplets")
            i, j, v = item
            entries[(int(i), int(j))] = float(v)
        return cls(rows=int(obj["rows"]), cols=int(obj["cols"]), entries=entries)


def _group(view: tuple[np.ndarray, np.ndarray, np.ndarray], key: int) -> dict[int, float]:
    """The entries under ``key`` of a view sorted by its first array."""
    keys, other, values = view
    lo, hi = np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right")
    return dict(zip(other[lo:hi].tolist(), values[lo:hi].tolist()))


def apply_injection_operator(theta: Injection, f: NonNegVector) -> NonNegVector:
    """P_theta f: place f(k) at coordinate theta(k); preserves every p-norm."""
    if f.dim != theta.domain_dim:
        raise ValueError(
            f"dimension mismatch: injection domain {theta.domain_dim}, vector dim {f.dim}"
        )
    return injection_matrix(theta, max(theta.mapping), f.dim).apply(f)


def apply_Th(h: NonNegVector, f: NonNegVector) -> NonNegVector:
    """Rank-one constant-row action: h scaled by the total of f."""
    return NonNegVector(h.values * float(f.values.sum()))


def injection_matrix(theta: Injection, rows: int, cols: int) -> TruncatedOperator:
    """Truncated 0/1 matrix of P_theta: ones at (theta(j), j)."""
    spec = PreserverSpec(p=1.0, weights=(1.0,), family=InjectionFamily((theta,)))
    return build_preserver(spec, rows, cols)


def build_preserver(spec: PreserverSpec, rows: int, cols: int) -> TruncatedOperator:
    """Truncation of T = sum_k lambda_k P_theta_k (+ constant-row part).

    Places lambda_k at (theta_k(j), j) for 1 <= j <= cols whenever the image
    lands within ``rows``; in 1-norm mode, every column additionally carries
    h(i) at each support index i of h inside the window.
    """
    if spec.family.members and cols > spec.family.domain_dim:
        raise ValueError(
            f"injection domain {spec.family.domain_dim} smaller than {cols} columns"
        )
    entries: dict[tuple[int, int], float] = {}
    for weight, member in zip(spec.weights, spec.family.members):
        if weight > 0:
            entries.update({(i, j): weight for j, i in enumerate(member.mapping[:cols], start=1) if i <= rows})
    if spec.constant_row is not None:
        h = spec.constant_row.values
        for i in spec.constant_row.support():
            if i <= rows:
                for j in range(1, cols + 1):
                    entries[(i, j)] = float(h[i - 1])
    return TruncatedOperator(rows=rows, cols=cols, entries=entries)


@dataclass(frozen=True)
class PreserverVerdict:
    accepted: bool
    reason: str = ""


def _columns_share_multiset(t: TruncatedOperator, tol: float) -> Optional[str]:
    """Check all columns carry the same multiset of entries above tol."""
    keep = t._v > tol
    order = np.lexsort((t._v[keep], t._j[keep]))  # by column, then by value
    cols, values = t._j[keep][order], t._v[keep][order]
    counts = np.bincount(cols - 1, minlength=t.cols)
    rank = np.arange(cols.size) - (np.cumsum(counts) - counts)[cols - 1]
    reference = values[: counts[0]]
    bad = counts != counts[0]
    same = ~bad[cols - 1]  # entries of columns as long as column 1, compared by rank
    bad[cols[same][np.abs(values[same] - reference[rank[same]]) > tol] - 1] = True
    bad[0] = False
    if bad.any():
        return f"column {int(np.argmax(bad)) + 1} carries a different positive multiset than column 1"
    return None


def classify_preserver_lp(t: TruncatedOperator, tol: float = DEFAULT_CLASS_TOL) -> PreserverVerdict:
    """Row criterion for p > 1: at most one positive entry per row.

    Also requires all columns to share one positive multiset (the finite
    shadow of the columns being mutual rearrangements).  The caller must
    choose the truncation large enough that every column's support lies
    inside the window; a truncated tail is indistinguishable from zeros.
    """
    rows = t._i[t._v > tol]
    order = np.argsort(rows, kind="stable")
    repeats = order[1:][np.diff(rows[order]) == 0]
    if repeats.size:  # the row whose second positive entry comes first in entry order
        return PreserverVerdict(False, f"row {int(rows[repeats.min()])} has more than one positive entry")
    mismatch = _columns_share_multiset(t, tol)
    if mismatch is not None:
        return PreserverVerdict(False, mismatch)
    return PreserverVerdict(True, "rows are singletons and columns share one multiset")


def classify_preserver_l1(t: TruncatedOperator, tol: float = DEFAULT_CLASS_TOL) -> PreserverVerdict:
    """Row criterion for the 1-norm: singleton-support or constant rows.

    Each row must either have at most one entry above tol, or carry the same
    positive value in every column of the window; columns must share one
    positive multiset.  Same truncation caveat as the p > 1 classifier.
    """
    rows, _, values = t._by_row
    keep = values > tol
    rows, values = rows[keep], values[keep]
    if rows.size:
        starts = np.flatnonzero(np.diff(rows, prepend=0))
        counts = np.diff(starts, append=rows.size)
        spread = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
        bad = (counts > 1) & ~((spread <= tol) & (counts == t.cols))
        if bad.any():
            i = int(rows[starts[np.argmax(bad)]])
            return PreserverVerdict(
                False,
                f"row {i} is neither singleton-support nor constant across all columns",
            )
    mismatch = _columns_share_multiset(t, tol)
    if mismatch is not None:
        return PreserverVerdict(False, mismatch)
    return PreserverVerdict(True, "rows are singletons or constant and columns share one multiset")


def construct_S(
    cert: IncreasabilityCertificate,
    family: InjectionFamily,
    a: float = 0.0,
    truncate: int | None = None,
    check_tol: float = DEFAULT_EXACT_TOL,
) -> TruncatedOperator:
    """Intertwining operator S with P_theta D = S P_theta for every member.

    Entries: within one member's image, S[theta(r), theta(c)] carries
    d1[r, c] - d2[r, c] where d1 = D + d2 is the certificate decomposition;
    on the diagonal outside all images S carries 1 - a; zero elsewhere.  The
    intertwining identity is verified on the window before returning.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter a must lie in [0, 1], got {a}")
    if not family.members:
        raise ValueError("intertwining needs at least one injection")
    m = cert.base.n
    if family.domain_dim != m:
        raise ValueError(
            f"family domain {family.domain_dim} must match the operator dimension {m}"
        )
    check = validate_family(family)
    if not check.valid:
        raise ValueError(f"injection images must be pairwise disjoint: {check.collision}")
    images = family.union_image()
    top = max(images)
    n = truncate if truncate is not None else top
    if top > n:
        raise ValueError(f"injection image {top} exceeds the truncation {n}")

    decomp = decompose_increasable(cert.base, cert)
    block = decomp.d1.data - decomp.d2.data
    r, c = np.nonzero(block > 0)  # row-major: the order of the entries within each member
    values = block[r, c].tolist()
    thetas = [np.asarray(member.mapping) - 1 for member in family.members]
    entries: dict[tuple[int, int], float] = {}
    for theta in thetas:
        entries.update(zip(zip((theta[r] + 1).tolist(), (theta[c] + 1).tolist()), values))
    outside = 1.0 - a
    if outside > 0:
        entries.update({(i, i): outside for i in range(1, n + 1) if i not in images})
    s = TruncatedOperator(rows=n, cols=n, entries=entries)

    for theta in thetas:
        gap = _intertwining_gap(s, theta, cert.base.data)
        if gap > check_tol:
            raise RuntimeError(f"intertwining identity violated by {gap:.3e}")
    return s


def _intertwining_gap(s: TruncatedOperator, theta: np.ndarray, d: np.ndarray) -> float:
    """max |P_theta D - S P_theta| for the 0-based images ``theta``, in O(nnz + m^2).

    P_theta D is D on the block (theta, theta) and zero elsewhere, and S P_theta
    is S[:, theta]; so S's entries on the block are compared with D and its other
    entries in columns theta with zero.
    """
    slot = np.full(max(s.rows, s.cols), -1)
    slot[theta] = np.arange(theta.size)
    row, col = slot[s._i - 1], slot[s._j - 1]
    inside = (row >= 0) & (col >= 0)
    block = np.array(d, dtype=float)
    block[row[inside], col[inside]] -= s._v[inside]
    strays = s._v[(row < 0) & (col >= 0)]
    return float(max(np.max(np.abs(block)), np.max(strays, initial=0.0)))


class CounterexamplePair(NamedTuple):
    trial: int
    f: NonNegVector
    g: NonNegVector


@dataclass(frozen=True, eq=False)
class PreservationReport:
    trials: int
    passes: int
    first_counterexample: Optional[CounterexamplePair] = None

    @property
    def failures(self) -> int:
        return self.trials - self.passes

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials


def preservation_rows_needed(spec: PreserverSpec, cols: int) -> int:
    """Smallest window height containing every image of columns 1..cols."""
    top = 1
    for member in spec.family.members:
        top = max(top, max(member.mapping[:cols]))
    if spec.constant_row is not None and spec.constant_row.support():
        top = max(top, max(spec.constant_row.support()))
    return top


def empirical_preservation_check(
    spec: PreserverSpec,
    trials: int,
    n: int,
    seed: int,
    tol: float = DEFAULT_CLASS_TOL,
) -> PreservationReport:
    """Fuzz order preservation: sample f = Dg with D an increasable witness.

    Per trial: draw g >= 0 of dimension n and a random doubly substochastic D
    (completed, which certifies increasability), set f = Dg, push both
    through the built truncation, and check the weak relation between the
    images.  Deterministic for a fixed master seed; per-trial seeds come from
    a spawned seed sequence.
    """
    if spec.family.members and n > spec.family.domain_dim:
        raise ValueError(f"spec injections cover {spec.family.domain_dim} columns, need {n}")
    rows = preservation_rows_needed(spec, n)
    t = build_preserver(spec, rows=rows, cols=n)

    passes = 0
    first: Optional[CounterexamplePair] = None
    for trial, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(ss)
        g = random_nonneg_vector(rng, n)
        d = random_doubly_substochastic(rng, n, tol)
        vonneumann_complete(d, tol)  # certifies the witness is increasable
        f = NonNegVector(d.data @ g.values)
        ok = check_weak_majorize(t.apply(f), t.apply(g), tol, with_witness=False).holds
        if ok:
            passes += 1
        elif first is None:
            first = CounterexamplePair(trial=trial, f=f, g=g)
    return PreservationReport(trials=trials, passes=passes, first_counterexample=first)
