"""Seeded inputs and the exact-arithmetic reference verdicts.

Nothing here imports submaj, so a change to the program can change neither
the inputs a workload feeds it nor the verdicts its outputs are checked
against.

Seeded relation inputs live on a dyadic grid (multiples of 2**-20 in [0, 1)),
and every derived vector is made by averaging pairs of grid values or by
multiplying with a grid factor.  The sorted partial sums the program's
decisions form from them are then exact in binary floating point, at every
power-of-two scale, so a verdict on them cannot depend on rounding.  The
inputs of the named faults (2a, 2b) are generated from FAULT_SEED, never
from ``--seed``, so the number of operations they make fail is the same in
every run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

# submaj's documented default class tolerance (submaj.config.DEFAULT_CLASS_TOL),
# restated so that the reference does not read it from the program.
TOL = 1e-9
GRID_BITS = 20
FAULT_SEED = 20210205
SCALE = 2.0**20  # power-of-two scaling used by the decide workload and fault 2b

# The pair ROADMAP item 2a reports: decided as weakly majorized, after which
# the witness construction raises.
ROADMAP_2A = (
    [9584793.232366526, 847153.5374634754, 712687.8522658882],
    [9584793.232366525, 847153.5374634754, 712687.8522658886],
)


def grid_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2**GRID_BITS, size=n) / 2.0**GRID_BITS


def mixed(rng: np.random.Generator, g: np.ndarray, rounds: int = 3) -> np.ndarray:
    """h = D g for a doubly stochastic D: rounds of averaging disjoint pairs.

    Each round adds one bit below the grid, so h is exact.
    """
    h = g.copy()
    half = h.size // 2
    for _ in range(rounds):
        p = rng.permutation(h.size)
        a, b = p[:half], p[half : 2 * half]
        m = (h[a] + h[b]) / 2
        h[a] = m
        h[b] = m
    return h


def major_pair(rng, n):
    """f majorized by g (hence weakly and sub-majorized): f = permuted D g."""
    g = grid_vector(rng, n)
    return mixed(rng, g)[rng.permutation(n)], g


def weak_pair(rng, n):
    """f weakly majorized by g with a total deficit: f = c * (D g), c in [1/2, 1]."""
    g = grid_vector(rng, n)
    c = rng.integers(8, 17, size=n) / 16.0
    return mixed(rng, g) * c, g


def failing_pair(rng, n):
    """Fails every relation at sorted position 1, by a margin of 1/2."""
    f, g = major_pair(rng, n)
    f[int(np.argmax(f))] = g.max() + 0.5
    return f, g


def fault_2a_pairs(count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ROADMAP 2a pair plus ``count`` fixed pairs like it.

    g[0] lies in [2**23, 2**24), where one unit in the last place is 1.86e-9,
    so g[0] + 1e-9 rounds up to f[0] = g[0] + 1 ulp; f[2] sits a few ulps
    below g[2].  A float comparison against the absolute 1e-9 accepts the
    weak relation, although f[0] - g[0] exceeds 1e-9 exactly.
    """
    rng = np.random.default_rng([FAULT_SEED, 1])
    out = [(np.array(ROADMAP_2A[0]), np.array(ROADMAP_2A[1]))]
    for _ in range(count):
        g = np.array([rng.uniform(2**23, 2**24), *np.sort(rng.uniform(5e5, 1e6, 2))[::-1]])
        f = g.copy()
        f[0] = np.nextafter(g[0], np.inf)
        f[2] = g[2] - int(rng.integers(1, 5)) * np.spacing(g[2])
        out.append((f, g))
    return out


def fault_2b_pairs(n: int, count: int, stream: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """f = (g + g o pi) / 2 with g on the 2**-52 grid in [1/2, 1), so f is exact.

    f is majorized by g in exact arithmetic; the program's float partial sums
    of 53-bit values round, and the rounding grows with the scale and with n.
    """
    rng = np.random.default_rng([FAULT_SEED, 2, stream])
    out = []
    for _ in range(count):
        g = rng.integers(2**51, 2**52, size=n) / 2.0**52
        out.append(((g + g[rng.permutation(n)]) / 2, g))
    return out


# ----------------------------------------------------------------------
# Exact reference
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """Exact verdicts: the first failing 1-based sorted position, or None.

    The program's documented test is "sorted partial sums of f <= those of g
    plus tol" (and "totals within tol" for majorization); here it is
    evaluated in exact arithmetic on the very floats the program receives.
    Submajorization coincides with weak majorization on finite vectors.
    """

    majorize: Optional[int]
    weak: Optional[int]

    def index(self, relation: str) -> Optional[int]:
        return self.majorize if relation == "majorize" else self.weak


def _exact_prefix_sums(sorted_values: np.ndarray, exponent: int) -> list[int]:
    mant, exp = np.frexp(sorted_values)
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    shifts = (exp.astype(np.int64) - 53 - exponent).tolist()
    return list(itertools.accumulate(i << s if i else 0 for i, s in zip(ints, shifts)))


def reference(f: np.ndarray, g: np.ndarray, tol: float = TOL) -> Reference:
    """Exact verdicts for f against g (the shorter input zero-padded).

    Floats are dyadic rationals: every value is an integer times a power of
    two, so Python integers over the smallest exponent present are exact.
    """
    n = max(f.size, g.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: f.size] = f
    b[: g.size] = g
    a = -np.sort(-a)
    b = -np.sort(-b)
    everything = np.concatenate([a, b, [tol]])
    nonzero = everything[everything != 0]
    exponent = int((np.frexp(nonzero)[1].astype(np.int64) - 53).min())
    pf = _exact_prefix_sums(a, exponent)
    pg = _exact_prefix_sums(b, exponent)
    t = _exact_prefix_sums(np.array([tol]), exponent)[0]
    weak = next((k + 1 for k in range(n) if pf[k] > pg[k] + t), None)
    major = weak
    if major is None and abs(pf[-1] - pg[-1]) > t:
        major = n
    return Reference(majorize=major, weak=weak)


# ----------------------------------------------------------------------
# Preserver families, from the paper's closed forms
# ----------------------------------------------------------------------


def theta_quadratic(i, j):
    """theta_i(j) = i + 1 + (0 + 1 + ... + (i + j - 2))."""
    m = i + j - 2
    return i + 1 + m * (m + 1) // 2


def theta_triangular(i, j):
    """theta_i(j) = i - 1 + (1 + 2 + ... + (i + j - 1))."""
    m = i + j - 1
    return i - 1 + m * (m + 1) // 2


def family_images(kind: str, members: int, cols: int) -> np.ndarray:
    """members x cols array of 1-based images theta_i(j) for a paper family."""
    i = np.arange(1, members + 1)[:, None]
    j = np.arange(1, cols + 1)[None, :]
    theta = theta_triangular if kind == "triangular" else theta_quadratic
    return theta(i, j)


def constant_row_indices(count: int) -> np.ndarray:
    """Support 2 + 3 + ... + (i + 1) of the i-th constant row of Example 2."""
    i = np.arange(1, count + 1)
    return (i + 1) * (i + 2) // 2 - 1


def random_images(rng: np.random.Generator, members: int, cols: int, spread: int = 4) -> np.ndarray:
    """Disjoint images for a random injection family, drawn from 1..spread*members*cols."""
    need = members * cols
    return (rng.choice(spread * need, size=need, replace=False) + 1).reshape(members, cols)
