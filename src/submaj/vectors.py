"""Nonnegative vector primitives.

A :class:`NonNegVector` of dimension ``n`` stands for a sequence that is
exactly zero beyond index ``n`` (truncation semantics).  All indices in
external formats (JSON, permutation witnesses, level-set blocks) are 1-based;
internal numpy arrays are indexed as usual.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True, eq=False)
class NonNegVector:
    """Finite vector with nonnegative, finite float entries and dim >= 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError("vector values must be one-dimensional")
        if arr.size < 1:
            raise ValueError("vector dimension must be at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite (no NaN/inf)")
        if np.any(arr < 0):
            raise ValueError("vector entries must be nonnegative")
        arr += 0.0  # -0.0 becomes +0.0: sorted values and JSON carry no signed zero
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.dim

    def total(self) -> float:
        """Sum of all entries (the 1-norm)."""
        return float(partial_sums(self)[-1])

    def padded(self, dim: int) -> "NonNegVector":
        """Zero-pad to the requested dimension (a no-op if already there)."""
        if dim < self.dim:
            raise ValueError(f"cannot pad dim {self.dim} down to {dim}")
        if dim == self.dim:
            return self
        out = np.zeros(dim)
        out[: self.dim] = self.values
        return NonNegVector(out)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the strictly positive entries."""
        return tuple(int(i) + 1 for i in np.nonzero(self.values > 0)[0])

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "values": [float(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NonNegVector":
        if not isinstance(obj, dict) or "dim" not in obj or "values" not in obj:
            raise ValueError('vector JSON must be {"dim": n, "values": [...]}')
        values = obj["values"]
        if not isinstance(values, list) or len(values) != obj["dim"]:
            raise ValueError("vector JSON: dim does not match number of values")
        return cls(np.asarray(values, dtype=float))

    @classmethod
    def of(cls, *entries: float) -> "NonNegVector":
        return cls(np.asarray(entries, dtype=float))


def vector(entries: Iterable[float]) -> NonNegVector:
    """Convenience constructor from any iterable of floats."""
    return NonNegVector(np.fromiter(entries, dtype=float))


@dataclass(frozen=True)
class Rearrangement:
    """Non-increasing sort of a vector with its permutation witness.

    ``perm`` is 1-based and satisfies ``sorted[k] = original[perm[k]]`` for
    every 1-based position ``k``; ties are broken by ascending original index.
    """

    sorted: NonNegVector
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.sorted.dim
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a bijection on {1..dim}")
        if np.any(np.diff(self.sorted.values) > 0):
            raise ValueError("sorted part must be non-increasing")


@dataclass(frozen=True)
class LevelBlock:
    value: float
    indices: tuple[int, ...]  # 1-based, ascending


@dataclass(frozen=True)
class LevelSetDecomposition:
    """Positive values of a vector grouped by level, largest level first."""

    blocks: tuple[LevelBlock, ...]

    def __post_init__(self) -> None:
        values = [b.value for b in self.blocks]
        if any(v <= 0 for v in values):
            raise ValueError("level-set values must be strictly positive")
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("level-set values must be strictly decreasing")
        seen: set[int] = set()
        for block in self.blocks:
            if not block.indices:
                raise ValueError("level-set blocks must be nonempty")
            if seen.intersection(block.indices):
                raise ValueError("level-set index sets must be disjoint")
            seen.update(block.indices)


def decreasing_rearrangement(v: NonNegVector) -> Rearrangement:
    """Sort non-increasingly, keeping a 1-based permutation witness.

    Ties are broken by ascending original index, so the result is
    deterministic and suitable for golden comparisons.
    """
    order = np.argsort(-v.values, kind="stable")
    return Rearrangement(
        sorted=NonNegVector(v.values[order]),
        perm=tuple(int(i) + 1 for i in order),
    )


def partial_sums(v: NonNegVector) -> np.ndarray:
    """Cumulative sums s_k = v_1 + ... + v_k; the last entry is the 1-norm."""
    return np.cumsum(v.values)


def level_sets(v: NonNegVector) -> LevelSetDecomposition:
    """Group the support of ``v`` by value, strictly decreasing across blocks."""
    blocks = []
    for value in sorted({float(x) for x in v.values if x > 0}, reverse=True):
        idx = tuple(int(i) + 1 for i in np.nonzero(v.values == value)[0])
        blocks.append(LevelBlock(value=value, indices=idx))
    return LevelSetDecomposition(blocks=tuple(blocks))


def scatter_level_sets(decomp: LevelSetDecomposition, dim: int) -> NonNegVector:
    """Rebuild the vector a decomposition came from (zeros off the support)."""
    out = np.zeros(dim)
    for block in decomp.blocks:
        for i in block.indices:
            if not 1 <= i <= dim:
                raise ValueError(f"level-set index {i} outside 1..{dim}")
            out[i - 1] = block.value
    return NonNegVector(out)


def p_norm(v: NonNegVector, p: float) -> float:
    """The p-norm (sum of p-th powers, then the 1/p-th root); requires p >= 1.

    For p = 1 the summation order matches :func:`partial_sums` exactly.
    """
    if p < 1:
        raise ValueError(f"p-norm requires p >= 1, got {p}")
    if p == 1:
        return float(partial_sums(v)[-1])
    return float(np.sum(v.values**p) ** (1.0 / p))


def common_dim(f: NonNegVector, g: NonNegVector) -> tuple[NonNegVector, NonNegVector]:
    """Zero-pad the shorter vector so both share a dimension."""
    n = max(f.dim, g.dim)
    return f.padded(n), g.padded(n)
