"""Checkers that judge the program's outputs independently of the program.

Each returns a list of problems; an empty list means the output is correct.
They take plain numbers and numpy arrays, so the benchmark's tests can hand
them corrupted outputs.
"""
from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .inputs import TOL

EPS = float(np.finfo(float).eps)


def check_verdict(holds: bool, failed_index: Optional[int], expected: Optional[int], label: str) -> list[str]:
    """A verdict against the exact reference (``expected`` is the first failing position)."""
    if holds != (expected is None):
        return [f"{label}: holds={holds}, exact reference says holds={expected is None}"]
    if not holds and failed_index != expected:
        return [f"{label}: failed_index={failed_index}, exact reference says {expected}"]
    return []


def residual_bound(g: np.ndarray, tol: float = TOL) -> float:
    """The bound RelationVerdict documents for ||W g - f||_inf.

    Float precision for exactly related inputs, taken as the a-priori error
    of an n-term dot product with row sums at most one (n eps ||g||_inf, with
    a factor 4 for the chain), plus the 2 tol it allows for marginal inputs.
    """
    return 2 * tol + 4 * g.size * EPS * float(np.max(g, initial=0.0))


def check_witness(w: np.ndarray, f: np.ndarray, g: np.ndarray, label: str, tol: float = TOL) -> list[str]:
    """W >= 0, row and column sums <= 1 + tol, and W g reproduces f."""
    problems = []
    if w.shape != (g.size, g.size):
        return [f"{label}: witness shape {w.shape}, expected {(g.size, g.size)}"]
    if w.min() < 0:
        problems.append(f"{label}: witness has a negative entry {w.min():.3g}")
    for axis, what in ((1, "row"), (0, "column")):
        top = float(w.sum(axis=axis).max())
        if top > 1 + tol:
            problems.append(f"{label}: witness {what} sum {top:.12g} exceeds 1 + tol")
    residual = float(np.max(np.abs(w @ g - f)))
    if residual > residual_bound(g, tol):
        problems.append(f"{label}: ||W g - f||_inf = {residual:.3g} exceeds {residual_bound(g, tol):.3g}")
    return problems


def check_completion(c: np.ndarray, w: np.ndarray, label: str, tol: float = TOL) -> list[str]:
    """The completion is doubly stochastic and dominates the witness entrywise."""
    problems = []
    for axis, what in ((1, "row"), (0, "column")):
        off = float(np.max(np.abs(c.sum(axis=axis) - 1)))
        if off > tol:
            problems.append(f"{label}: completion {what} sums miss 1 by {off:.3g}")
    if c.min() < 0:
        problems.append(f"{label}: completion has a negative entry")
    gap = float(np.max(w - c))
    if gap > tol:
        problems.append(f"{label}: completion falls below the witness by {gap:.3g}")
    return problems


def scatter_add(
    images: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
    rows: int,
    const_rows: Optional[np.ndarray] = None,
    const_values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """T x for T = sum_k w_k P_theta_k + (constant rows), from the spec alone.

    ``images[k, j]`` is theta_k(j + 1), 1-based; images beyond ``rows`` fall
    outside the window and are dropped.  Constant row i (1-based) carries
    its value in every column, so it adds value * sum(x) at i.
    """
    y = np.zeros(rows)
    keep = images <= rows
    vals = (weights[:, None] * x[None, :])[keep]
    np.add.at(y, images[keep] - 1, vals)
    if const_rows is not None:
        inside = const_rows <= rows
        y[const_rows[inside] - 1] += const_values[inside] * x.sum()
    return y


def check_apply(y: np.ndarray, expected: np.ndarray, label: str) -> list[str]:
    if y.shape != expected.shape:
        return [f"{label}: apply gave dimension {y.size}, expected {expected.size}"]
    off = float(np.max(np.abs(y - expected)))
    if off > 1e-12 * max(1.0, float(np.abs(expected).sum())):
        return [f"{label}: apply differs from the scatter-add by {off:.3g}"]
    return []


def check_intertwining(
    s_entries: dict, n: int, images: np.ndarray, d: np.ndarray, label: str, tol: float = 1e-12
) -> list[str]:
    """P_theta D = S P_theta for every member, with dense matrices built here."""
    s = np.zeros((n, n))
    for (i, j), v in s_entries.items():
        s[i - 1, j - 1] = v
    m = d.shape[0]
    problems = []
    for k, row in enumerate(images):
        p = np.zeros((n, m))
        p[row - 1, np.arange(m)] = 1.0
        gap = float(np.max(np.abs(p @ d - s @ p)))
        if gap > tol:
            problems.append(f"{label}: P_theta D != S P_theta for member {k + 1} (gap {gap:.3g})")
    return problems


def check_shift_forcing(entries: dict, fully_determined: bool, conclusion: str, n: int, label: str) -> list[str]:
    """The forced witness of a shifted strictly decreasing sequence is the right shift."""
    expected = {(k + 1, k): 1.0 for k in range(1, n)}
    problems = []
    if entries != expected:
        problems.append(f"{label}: forced witness is not the {n}x{n} right shift")
    if not fully_determined or conclusion != "equals-right-shift":
        problems.append(f"{label}: forcing ended {conclusion!r}, fully_determined={fully_determined}")
    return problems


def check_cli_check(code: int, stdout: str, expected: Optional[int], label: str) -> list[str]:
    """``submaj check --json``: exit 0 iff the relation holds, 1 iff it fails."""
    want = 0 if expected is None else 1
    if code != want:
        return [f"{label}: exit code {code}, expected {want}"]
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"{label}: no JSON verdict on stdout"]
    return check_verdict(payload.get("holds"), payload.get("failed_index"), expected, label)


def check_cli_preserve(code: int, stdout: str, trials: int, label: str) -> list[str]:
    """``submaj preserve-test --json`` on a valid spec: exit 0, every trial passes."""
    if code != 0:
        return [f"{label}: exit code {code}, expected 0"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{label}: no JSON report on stdout"]
    if payload.get("trials") != trials or payload.get("passes") != trials:
        return [f"{label}: {payload.get('passes')}/{payload.get('trials')} trials passed, expected {trials}/{trials}"]
    return []
