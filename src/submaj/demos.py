"""Executable worked examples.

* Shift forcing: for a strictly decreasing positive g and f equal to g
  shifted right, the only doubly substochastic matrix with f = Dg is the
  right shift itself, returned in closed form.
* Two concrete injection families with closed-form index maps, and the
  paper's three display operators built from them (:func:`display_spec`),
  whose 16x5 windows serve as golden fixtures.
* The reciprocal-squares sequence, whose shift is mutually weakly majorized
  with it yet not its permutation in the untruncated sense.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_CLASS_TOL
from .preservers import Injection, InjectionFamily, PreserverSpec, TruncatedOperator
from .relations import check_weak_majorize, strict_permutation
from .vectors import NonNegVector

FORCED_EQUALS_RIGHT_SHIFT = "equals-right-shift"


@dataclass(frozen=True, eq=False)
class ForcingResult:
    """Forced witness for the shifted-sequence equation f = Dg.

    ``fully_determined`` means every cell of the window is pinned to a
    literal 0 or 1 by the forcing argument; no tolerance is involved.  For
    admissible g it always is, and ``forced`` is the right shift.
    """

    forced: TruncatedOperator
    fully_determined: bool
    conclusion: str


def shift_forcing(g: NonNegVector) -> ForcingResult:
    """The doubly substochastic D with f = Dg, f being g shifted right.

    Requires g strictly decreasing with all entries positive.  Row 1 must
    vanish because f(1) = 0 while every g(j) > 0.  Row k+1 reads
    g(k) = sum_j D[k+1, j] g(j) with columns below k already zeroed; since
    every remaining g(j) is at most g(k) with equality only at j = k, the row
    cap forces D[k+1, k] = 1 and zeros elsewhere, and column substochasticity
    then clears column k.  Within the window every cell gets pinned, so the
    forced matrix is the right shift whatever the values of g.

    The infinite-sequence conclusion (the right shift admits no doubly
    stochastic completion) is a limit statement; callers should present it
    as an annotation, never as a computed finite fact.
    """
    vals = g.values
    if np.any(vals <= 0):
        raise ValueError("shift forcing requires strictly positive entries")
    if np.any(np.diff(vals) >= 0):
        raise ValueError("shift forcing requires a strictly decreasing sequence")
    n = g.dim
    k = np.arange(1, n)
    return ForcingResult(
        forced=TruncatedOperator._from_cells(n, n, k + 1, k, np.ones(n - 1)),
        fully_determined=True,
        conclusion=FORCED_EQUALS_RIGHT_SHIFT,
    )


def theta_quadratic(i: int, j: int) -> int:
    """Index map theta_i(j) = i + 1 + (0 + 1 + ... + (i+j-2)), elementwise on integer arrays."""
    if np.any(np.less(i, 1)) or np.any(np.less(j, 1)):
        raise ValueError("indices must be positive")
    m = i + j - 2
    return i + 1 + m * (m + 1) // 2


def theta_triangular(i: int, j: int) -> int:
    """Index map theta_i(j) = i - 1 + (1 + 2 + ... + (i+j-1)), elementwise on integer arrays."""
    if np.any(np.less(i, 1)) or np.any(np.less(j, 1)):
        raise ValueError("indices must be positive")
    m = i + j - 1
    return i - 1 + m * (m + 1) // 2


def constant_row_support_index(i: int) -> int:
    """Support index 2 + 3 + ... + (i+1) of the i-th constant row."""
    if i < 1:
        raise ValueError("index must be positive")
    return (i + 1) * (i + 2) // 2 - 1


def _family(theta: Callable[[int, int], int], members: int, domain_dim: int) -> InjectionFamily:
    j = np.arange(1, domain_dim + 1)
    return InjectionFamily(tuple(Injection(theta(i, j)) for i in range(1, members + 1)))


def quadratic_family(members: int, domain_dim: int) -> InjectionFamily:
    return _family(theta_quadratic, members, domain_dim)


def triangular_family(members: int, domain_dim: int) -> InjectionFamily:
    return _family(theta_triangular, members, domain_dim)


def triangular_constant_row(mu, dim: int) -> NonNegVector:
    """Constant-row function with mu_i at support index 2 + ... + (i+1)."""
    out = np.zeros(dim)
    for i, value in enumerate(mu, start=1):
        idx = constant_row_support_index(i)
        if idx > dim:
            break
        out[idx - 1] = float(value)
    return NonNegVector._adopt(out)


def display_spec(
    which: str, lam: tuple[float, ...], a: float, mu: tuple[float, ...], rows: int, cols: int
) -> PreserverSpec:
    """The paper's display operators on a rows x cols window.

    ``T1`` is sum_k lam_k P_theta_k over the quadratic family (p = 2); ``T``
    adds the constant row a at index 1 (p = 1); ``example2`` is the
    triangular family plus the constant rows mu (p = 1).
    """
    if which == "T1":
        return PreserverSpec(p=2.0, weights=lam, family=quadratic_family(len(lam), cols))
    if which == "T":
        h = np.zeros(max(rows, 1))
        h[0] = a
        return PreserverSpec(
            p=1.0,
            weights=lam,
            family=quadratic_family(len(lam), cols),
            constant_row=NonNegVector(h),
        )
    if which == "example2":
        return PreserverSpec(
            p=1.0,
            weights=lam,
            family=triangular_family(len(lam), cols),
            constant_row=triangular_constant_row(mu, rows),
        )
    raise ValueError(f"unknown display matrix {which!r}")


@dataclass(frozen=True, eq=False)
class ReciprocalSquareReport:
    """Findings for f(i) = 1/i^2 and its right shift g at a truncation.

    ``weak_f_under_g_holds`` refers to the literal finite check.  The sorted
    partial sums of f and g agree up to position n - 1, and at position n f's
    exceeds g's by the window's last value 1/n^2, which has nowhere to go; so
    the check fails while 1/n^2 exceeds the absolute tolerance and holds
    once 1/n^2 falls within it (up to the rounding of the partial sums): at
    the default tol 1e-9 it fails for n <= 31622 and holds from n = 31623
    on.  That acceptance is fault 2b's absolute-tol form: an absolute tol
    swallows a deficit that is real but small.  The window fields exhibit
    the untruncated direction instead: dropping the last coordinate of f
    gives an exact partial permutation into g.
    ``infinite_range_excludes_zero`` is a semantic annotation (g(1) = 0 is
    not a value of the untruncated f), not a finite computation.
    """

    n: int
    f: NonNegVector
    g: NonNegVector
    right_shift_witness_exact: bool
    weak_g_under_f_holds: bool
    weak_f_under_g_holds: bool
    left_shift_window_exact: bool
    window_boundary_defect: float
    partial_matched_support: tuple[int, ...]
    strict_perm_with_zero_pad: Optional[tuple[int, ...]]
    infinite_range_excludes_zero: bool = True


def reciprocal_square_example(n: int, tol: float = DEFAULT_CLASS_TOL) -> ReciprocalSquareReport:
    """Build f(i) = 1/i^2 and g, the forced right shift applied to f, at truncation n.

    :func:`shift_forcing` holds the shift as its n - 1 cells, so this takes
    O(n) memory; the left shift of g, ``g[1:]``, is compared with f."""
    if n < 1:
        raise ValueError("truncation must be at least 1")
    f = NonNegVector(np.array([1.0 / (i * i) for i in range(1, n + 1)]))
    g = shift_forcing(f).forced.apply(f)

    right_exact = bool(np.array_equal(g.values, np.concatenate(([0.0], f.values[:-1]))))
    weak_g_under_f = check_weak_majorize(g, f, tol, with_witness=False).holds
    weak_f_under_g = check_weak_majorize(f, g, tol, with_witness=False).holds

    window_exact = bool(np.array_equal(g.values[1:], f.values[: n - 1]))
    boundary_defect = float(f.values[-1])

    matched = tuple(
        i for i in range(1, n) if g.values[i] == f.values[i - 1]
    )  # map i -> i+1 on the window

    padded = f.values.copy()
    padded[-1] = 0.0
    strict = strict_permutation(NonNegVector(padded), g)

    return ReciprocalSquareReport(
        n=n,
        f=f,
        g=g,
        right_shift_witness_exact=right_exact,
        weak_g_under_f_holds=weak_g_under_f,
        weak_f_under_g_holds=weak_f_under_g,
        left_shift_window_exact=window_exact,
        window_boundary_defect=boundary_defect,
        partial_matched_support=matched,
        strict_perm_with_zero_pad=strict,
    )
