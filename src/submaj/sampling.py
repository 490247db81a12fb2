"""Seeded random generators for tests, fuzzing and the selftest battery.

Every generator draws from the ``numpy.random.Generator`` it is given, so a
caller that seeds its generators (the fuzzer spawns one per trial from a
``SeedSequence``) draws identical instances on every run.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_CLASS_TOL
from .matrices import StochMatrix, classify_matrix
from .vectors import NonNegVector


def random_nonneg_vector(rng: np.random.Generator, dim: int, zero_frac: float = 0.2) -> NonNegVector:
    """Uniform entries with a sprinkling of exact zeros for tie coverage."""
    vals = rng.uniform(0.0, 1.0, size=dim)
    vals[rng.uniform(size=dim) < zero_frac] = 0.0
    return NonNegVector(vals)


def random_doubly_substochastic(
    rng: np.random.Generator, n: int, tol: float = DEFAULT_CLASS_TOL
) -> StochMatrix:
    """Random nonnegative matrix scaled so all row and column sums are <= 1."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    raw[rng.uniform(size=(n, n)) < 0.2] = 0.0
    cap = max(float(raw.sum(axis=0).max()), float(raw.sum(axis=1).max()), 1e-12)
    return classify_matrix(raw / cap * rng.uniform(0.4, 1.0), tol)


def random_permutation_matrix(rng: np.random.Generator, n: int) -> StochMatrix:
    perm = rng.permutation(n)
    data = np.zeros((n, n))
    data[np.arange(n), perm] = 1.0
    return classify_matrix(data)


def random_doubly_stochastic(
    rng: np.random.Generator, n: int, tol: float = DEFAULT_CLASS_TOL
) -> StochMatrix:
    """Convex combination of a handful of permutation matrices."""
    k = int(rng.integers(1, n + 3))
    weights = rng.dirichlet(np.ones(k))
    data = np.zeros((n, n))
    for w in weights:
        data[np.arange(n), rng.permutation(n)] += w
    return classify_matrix(data, tol)
