"""Acceptance battery: the executable exit criteria for this package.

A criterion holds only its checks: it draws from the generator it is given,
appends failures to the list it is given and returns the detail of a pass.
``run_acceptance`` owns the rest: one child stream of the master seed per
criterion (criterion k draws from child k-1), index and name, clock and
budget, and crash handling.  ``tests/test_acceptance.py`` and the ``submaj
selftest`` command share the battery; the command prints a line per criterion.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_CLASS_TOL, DEFAULT_EXACT_TOL
from .demos import (
    constant_row_support_index,
    display_spec,
    quadratic_family,
    shift_forcing,
    theta_quadratic,
    theta_triangular,
    triangular_family,
)
from .matrices import (
    MatrixClass,
    apply,
    compose_certificates,
    convex_combine_certificates,
    decompose_increasable,
    shift_matrix,
    vonneumann_complete,
)
from .preservers import (
    PreserverSpec,
    TruncatedOperator,
    build_preserver,
    classify_preserver_l1,
    classify_preserver_lp,
    construct_S,
    empirical_preservation_check,
    injection_matrix,
    preservation_rows_needed,
    random_injection_family,
)
from .relations import (
    check_majorize,
    check_submajorize,
    check_weak_majorize,
    hlp_witness,
    oracle_majorize_bruteforce,
    strict_permutation,
)
from .sampling import (
    random_doubly_stochastic,
    random_doubly_substochastic,
    random_nonneg_vector,
    random_permutation_matrix,
)
from .vectors import NonNegVector


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} {self.name}: {self.detail} ({self.elapsed_s:.2f}s)"


# ----------------------------------------------------------------------
# 1. Greedy completion of doubly substochastic matrices
# ----------------------------------------------------------------------

def criterion_completion(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """1000 random doubly substochastic matrices, n in [1, 30]: every
    completion is doubly stochastic within 1e-9, dominates the input
    entrywise, and uses at most 2n-1 augmentation steps."""
    for case in range(1000):
        n = int(rng.integers(1, 31))
        d = random_doubly_substochastic(rng, n, tol)
        cert = vonneumann_complete(d, tol)
        comp = cert.completion
        if np.max(np.abs(comp.row_sums - 1)) > tol or np.max(np.abs(comp.col_sums - 1)) > tol:
            failures.append(f"case {case}: completion not doubly stochastic at {tol}")
        if np.any(comp.data < d.data):
            failures.append(f"case {case}: completion fails entrywise domination")
        if len(cert.steps) > 2 * n - 1:
            failures.append(f"case {case}: {len(cert.steps)} steps exceeds 2n-1 = {2 * n - 1}")
    return "1000 completions ok"


# ----------------------------------------------------------------------
# 2. Oracle agreement at small dimension
# ----------------------------------------------------------------------

_ADVERSARIAL_BASE = [
    ((1.0, 1.0), (2.0, 0.0)),
    ((1.5, 0.5), (2.0, 0.0)),
    ((0.3, 0.2), (1.0, 0.0)),
    ((2.0, 0.5), (2.0, 0.0)),
    ((0.0, 0.0), (1.0, 1.0)),
    ((1.0,), (1.0,)),
    ((1.0,), (2.0,)),
    ((0.0,), (0.0,)),
    ((1.0, 1.0, 1.0), (3.0, 0.0, 0.0)),
    ((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)),
    ((2.0, 2.0, 2.0), (3.0, 2.0, 1.0)),
    ((1.0, 1.0, 1.0, 1.0), (4.0, 0.0, 0.0, 0.0)),
    ((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 0.0, 0.0)),
    ((2.5, 1.5), (2.0, 2.0)),
    ((1.0, 0.25, 1.0 / 9), (0.0, 1.0, 0.25)),
    ((0.5, 0.5, 0.0), (0.4, 0.4, 0.4)),
    ((0.4, 0.4, 0.4), (0.5, 0.5, 0.0)),
    ((1.0, 1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0, 1.0)),
    ((5.0, 0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0, 1.0)),
    ((1.0, 1.0, 1.0, 1.0, 1.0), (5.0, 0.0, 0.0, 0.0, 0.0)),
    ((0.2, 0.2, 0.2, 0.2, 0.2), (1.0, 0.0, 0.0, 0.0, 0.0)),
    ((1.001, 1.0), (2.0, 0.0)),
    ((0.999, 1.0), (2.0, 0.0)),
    ((3.0, 1.0), (3.0, 1.0)),
    ((0.0, 1.0, 0.0, 2.0), (2.0, 1.0, 0.0, 0.0)),
]


def adversarial_corpus() -> list[tuple[NonNegVector, NonNegVector]]:
    """50 decisive hand-built pairs (each base pair and its swap)."""
    out = []
    for f_vals, g_vals in _ADVERSARIAL_BASE:
        f, g = NonNegVector.of(*f_vals), NonNegVector.of(*g_vals)
        out.append((f, g))
        out.append((g, f))
    return out


def _random_relation_pair(rng: np.random.Generator, n: int) -> tuple[NonNegVector, NonNegVector]:
    """Mix of held and failed relations: pushforwards, permutations, noise."""
    g = random_nonneg_vector(rng, n) if rng.uniform() < 0.8 else NonNegVector(rng.uniform(0, 3, n))
    mode = int(rng.integers(0, 4))
    if mode == 0:
        f = apply(random_doubly_stochastic(rng, n), g)
    elif mode == 1:
        f = apply(random_doubly_substochastic(rng, n), g)
    elif mode == 2:
        f = random_nonneg_vector(rng, n)
    else:
        f = apply(random_permutation_matrix(rng, n), g)
    return f, g


def criterion_oracle_agreement(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """500 random pairs plus the 50-case adversarial corpus at dim <= 5: the
    partial-sum checks agree exactly with the polytope oracle.  That holds on
    this corpus, which stays clear of the tolerance boundary; at the boundary
    the rules differ, as the oracle bounds the totals by ``n * tol`` and the
    residuals entrywise, and the checks bound each prefix sum by ``tol``."""
    pairs = [_random_relation_pair(rng, int(rng.integers(1, 6))) for _ in range(500)]
    pairs += adversarial_corpus()
    for idx, (f, g) in enumerate(pairs):
        for relation, check in (("strong", check_majorize), ("weak", check_weak_majorize)):
            fast = check(f, g, tol, with_witness=False).holds
            slow = oracle_majorize_bruteforce(f, g, relation, tol)
            if fast != slow:
                failures.append(
                    f"pair {idx}: {relation} disagreement (check={fast}, oracle={slow}) "
                    f"f={f.values.tolist()} g={g.values.tolist()}"
                )
    return "550 pairs agree on both relations"


# ----------------------------------------------------------------------
# 3. Witness soundness
# ----------------------------------------------------------------------

def criterion_witness_soundness(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """Accepted relations certify themselves: ||Dg - f||_inf <= 1e-9 with the
    class the relation demands; T-transform chains stay within n-1 steps on
    500 random majorization pairs with n <= 40."""
    for case in range(500):
        n = int(rng.integers(1, 41))
        g = random_nonneg_vector(rng, n)
        f = apply(random_doubly_stochastic(rng, n), g)
        chain = hlp_witness(f, g, tol)
        if len(chain.steps) > max(0, n - 1):
            failures.append(f"case {case}: chain used {len(chain.steps)} steps at n={n}")
        witness = chain.product
        if witness.matrix_class is not MatrixClass.DOUBLY_STOCHASTIC:
            failures.append(f"case {case}: strict witness class {witness.matrix_class}")
        residual = float(np.max(np.abs(witness.data @ g.values - f.values)))
        if residual > tol:
            failures.append(f"case {case}: strict witness residual {residual:.3e}")
        if case % 2 == 0:
            fw = apply(random_doubly_substochastic(rng, n), g)
            verdict = (check_weak_majorize if case % 4 == 0 else check_submajorize)(fw, g, tol)
            if not verdict.holds or verdict.witness is None:
                failures.append(f"case {case}: pushforward relation unexpectedly rejected")
                continue
            if not verdict.witness.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC):
                failures.append(f"case {case}: weak witness class {verdict.witness.matrix_class}")
            residual = float(np.max(np.abs(verdict.witness.data @ g.values - fw.values)))
            if residual > tol:
                failures.append(f"case {case}: weak witness residual {residual:.3e}")
            if case % 4 == 2 and verdict.certificate is None:
                failures.append(f"case {case}: submajorization verdict lacks a certificate")
    return "500 strict + 250 weak/sub witnesses sound"


# ----------------------------------------------------------------------
# 4. Finite collapse of submajorization onto weak majorization
# ----------------------------------------------------------------------

def criterion_finite_collapse(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """check_submajorize iff check_weak_majorize on 1000 random pairs, with
    an increasability certificate produced whenever the relation holds."""
    for case in range(1000):
        n = int(rng.integers(1, 13))
        f, g = _random_relation_pair(rng, n)
        weak = check_weak_majorize(f, g, tol, with_witness=False)
        sub = check_submajorize(f, g, tol, with_witness=True)
        if weak.holds != sub.holds:
            failures.append(f"case {case}: weak={weak.holds} but sub={sub.holds}")
            continue
        if sub.holds:
            if sub.certificate is None:
                failures.append(f"case {case}: no certificate on acceptance")
            elif sub.certificate.completion.matrix_class is not MatrixClass.DOUBLY_STOCHASTIC:
                failures.append(f"case {case}: certificate completion not doubly stochastic")
    return "1000 pairs: sub iff weak, certificates valid"


# ----------------------------------------------------------------------
# 5. Antisymmetry up to permutation
# ----------------------------------------------------------------------

def criterion_antisymmetry(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """200 random (f, P): both directed submajorization checks accept and a
    valid strict permutation is recovered; 200 pairs failing a directed weak
    check never get a strict permutation claimed."""
    for case in range(200):
        n = int(rng.integers(2, 21))
        f = random_nonneg_vector(rng, n)
        pf = apply(random_permutation_matrix(rng, n), f)
        if not check_submajorize(f, pf, tol, with_witness=False).holds:
            failures.append(f"case {case}: f not submajorized by its permutation")
        if not check_submajorize(pf, f, tol, with_witness=False).holds:
            failures.append(f"case {case}: permutation not submajorized by f")
        perm = strict_permutation(f, pf)
        if perm is None:
            failures.append(f"case {case}: strict permutation not recovered")
        elif not np.array_equal(pf.values[np.asarray(perm) - 1], f.values):
            failures.append(f"case {case}: recovered permutation is not a witness")
    negatives = 0
    while negatives < 200:
        n = int(rng.integers(2, 11))
        f = random_nonneg_vector(rng, n)
        g = random_nonneg_vector(rng, n)
        both_weak = (
            check_weak_majorize(f, g, tol, with_witness=False).holds
            and check_weak_majorize(g, f, tol, with_witness=False).holds
        )
        if both_weak:
            continue  # mutual weak majorization can be a legitimate permutation pair
        negatives += 1
        if strict_permutation(f, g) is not None:
            failures.append(f"strict permutation claimed for non-equivalent pair {f.values} {g.values}")
    return "200 permutation pairs + 200 negatives behaved"


# ----------------------------------------------------------------------
# 6. Closure under composition and convex combination
# ----------------------------------------------------------------------

def criterion_closure(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """200 random certificate-carrying pairs: composed and convex-combined
    operators pass the certificate invariants within 1e-9."""
    for case in range(200):
        n = int(rng.integers(1, 16))
        ca = vonneumann_complete(random_doubly_substochastic(rng, n, tol), tol)
        cb = vonneumann_complete(random_doubly_substochastic(rng, n, tol), tol)
        try:
            prod = compose_certificates(ca, cb, tol)
            mix = convex_combine_certificates(float(rng.uniform()), ca, cb, tol)
        except (ValueError, RuntimeError) as exc:
            failures.append(f"case {case}: certificate invariants rejected: {exc}")
            continue
        for tag, cert in (("composition", prod), ("combination", mix)):
            if cert.completion.matrix_class is not MatrixClass.DOUBLY_STOCHASTIC:
                failures.append(f"case {case}: {tag} completion not doubly stochastic")
            if np.any(cert.completion.data < cert.base.data - tol):
                failures.append(f"case {case}: {tag} completion fails domination at {tol}")
            if not cert.base.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC):
                failures.append(f"case {case}: {tag} base lost substochasticity")
    return "200 composed + combined certificates valid"


# ----------------------------------------------------------------------
# 7. Decomposition identity
# ----------------------------------------------------------------------

def criterion_decomposition(rng: np.random.Generator, tol_exact: float, failures: list[str]) -> str:
    """d1 = d + d2 reconstructs within 1e-12 on 200 random increasable matrices."""
    for case in range(200):
        n = int(rng.integers(1, 21))
        d = random_doubly_substochastic(rng, n)
        cert = vonneumann_complete(d)
        decomp = decompose_increasable(d, cert, tol_exact=tol_exact)
        gap = float(np.max(np.abs(decomp.d1.data - (d.data + decomp.d2.data))))
        if gap > tol_exact:
            failures.append(f"case {case}: reconstruction gap {gap:.3e}")
        if not decomp.d2.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC):
            failures.append(f"case {case}: residual part class {decomp.d2.matrix_class}")
    return "200 reconstructions within 1e-12"


# ----------------------------------------------------------------------
# 8. Intertwining identity
# ----------------------------------------------------------------------

def criterion_intertwining(rng: np.random.Generator, tol_exact: float, failures: list[str]) -> str:
    """100 random (D, family, a) at truncations n <= 60:
    ||P_theta D - S P_theta||_inf <= 1e-12 for every family member."""
    for case in range(100):
        m = int(rng.integers(1, 7))
        members = int(rng.integers(1, 4))
        n = int(rng.integers(members * m, 61))
        family = random_injection_family(rng, members, m, n)
        cert = vonneumann_complete(random_doubly_substochastic(rng, m))
        a = float(rng.uniform())
        try:
            s_dense = construct_S(cert, family, a, truncate=n, check_tol=tol_exact).to_dense()
        except RuntimeError as exc:
            failures.append(f"case {case}: {exc}")
            continue
        for member in family.members:
            p_theta = injection_matrix(member, rows=n, cols=m).to_dense()
            gap = float(np.max(np.abs(p_theta @ cert.base.data - s_dense @ p_theta)))
            if gap > tol_exact:
                failures.append(f"case {case}: intertwining gap {gap:.3e}")
    return "100 constructions within 1e-12"


# ----------------------------------------------------------------------
# 9. Golden display matrices
# ----------------------------------------------------------------------

_GOLD_LAMBDA = (0.5, 0.25, 0.125, 0.0625, 0.03125)
_GOLD_A = 0.7
_GOLD_MU = (0.9, 0.8, 0.7, 0.6)

_T1_PLACEMENT = [
    (2, 1, 1), (3, 2, 1), (4, 1, 2), (5, 3, 1), (6, 2, 2), (7, 1, 3), (8, 4, 1),
    (9, 3, 2), (10, 2, 3), (11, 1, 4), (12, 5, 1), (13, 4, 2), (14, 3, 3),
    (15, 2, 4), (16, 1, 5),
]
_EX2_PLACEMENT = [
    (1, 1, 1), (3, 2, 1), (4, 1, 2), (6, 3, 1), (7, 2, 2), (8, 1, 3), (10, 4, 1),
    (11, 3, 2), (12, 2, 3), (13, 1, 4), (15, 5, 1), (16, 4, 2),
]
_EX2_MU_ROWS = (2, 5, 9, 14)


def expected_display_matrix(which: str) -> np.ndarray:
    """Hand-coded 16x5 display fixtures for the three reference operators."""
    lam = _GOLD_LAMBDA
    out = np.zeros((16, 5))
    if which in ("T1", "T"):
        for i, j, k in _T1_PLACEMENT:
            out[i - 1, j - 1] = lam[k - 1]
        if which == "T":
            out[0, :] = _GOLD_A
        return out
    if which == "example2":
        for i, j, k in _EX2_PLACEMENT:
            out[i - 1, j - 1] = lam[k - 1]
        for idx, row in enumerate(_EX2_MU_ROWS):
            out[row - 1, :] = _GOLD_MU[idx]
        return out
    raise ValueError(f"unknown display matrix {which!r}")


def built_display_matrix(which: str) -> TruncatedOperator:
    """The same three operators produced by the builder."""
    return build_preserver(display_spec(which, _GOLD_LAMBDA, _GOLD_A, _GOLD_MU, 16, 5), rows=16, cols=5)


def criterion_golden_fixtures(_rng: np.random.Generator, _tol: float, failures: list[str]) -> str:
    """The builder reproduces all three 16x5 display matrices entry-for-entry."""
    for which in ("T1", "T", "example2"):
        got = built_display_matrix(which).to_dense()
        want = expected_display_matrix(which)
        if not np.array_equal(got, want):
            bad = np.argwhere(got != want)[0]
            failures.append(
                f"{which}: first mismatch at ({bad[0] + 1}, {bad[1] + 1}): "
                f"got {got[bad[0], bad[1]]}, want {want[bad[0], bad[1]]}"
            )
    mu_rows = tuple(constant_row_support_index(i) for i in range(1, 5))
    if mu_rows != _EX2_MU_ROWS:
        failures.append(f"constant-row support indices {mu_rows} != {_EX2_MU_ROWS}")
    return "three 16x5 displays match entry-for-entry"


# ----------------------------------------------------------------------
# 10. Classification round-trip with corruptions
# ----------------------------------------------------------------------

def _random_spec(rng: np.random.Generator, min_cols: int = 2, max_cols: int = 6) -> PreserverSpec:
    members = int(rng.integers(1, 5))
    domain = int(rng.integers(min_cols, max_cols + 1))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        family = quadratic_family(members, domain)
    elif kind == 1:
        family = triangular_family(members, domain)
    else:
        family = random_injection_family(rng, members, domain, truncate=members * domain + 12)
    weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, size=members))
    p = float(rng.choice([1.0, 2.0, 3.5]))
    constant_row = None
    if p == 1.0 and rng.uniform() < 0.5:
        top = max(family.union_image())
        spare = [i for i in range(1, top + 2) if i not in family.union_image()]
        support = rng.choice(spare, size=min(2, len(spare)), replace=False)
        h = np.zeros(top + 1)
        for i in support:
            h[i - 1] = float(rng.uniform(0.1, 1.0))
        constant_row = NonNegVector(h)
    return PreserverSpec(p=p, weights=weights, family=family, constant_row=constant_row)


def _classify_for(spec: PreserverSpec, t: TruncatedOperator, tol: float):
    return classify_preserver_l1(t, tol) if spec.p == 1.0 else classify_preserver_lp(t, tol)


def _corrupt(rng: np.random.Generator, t: TruncatedOperator) -> TruncatedOperator:
    """Flip one entry so the row pattern (and column multisets) must break."""
    entries = dict(t.entries)
    keys = sorted(entries)
    if rng.uniform() < 0.5:
        i, j = keys[int(rng.integers(0, len(keys)))]
        entries[(i, j)] = entries[(i, j)] + 3.33  # clear of every legitimate value
    else:
        i, j = keys[int(rng.integers(0, len(keys)))]
        other_cols = [c for c in range(1, t.cols + 1) if (i, c) not in entries]
        if other_cols:
            entries[(i, int(other_cols[0]))] = 3.33
        else:
            entries[(i, j)] = entries[(i, j)] + 3.33  # constant row: desync one column
    return TruncatedOperator(rows=t.rows, cols=t.cols, entries=entries)


def criterion_preserver_roundtrip(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """100 random valid operator builds classify as order preservers in their
    matching mode; 100 single-entry corruptions flip the verdict."""
    for case in range(100):
        spec = _random_spec(rng)
        cols = spec.family.domain_dim
        rows = preservation_rows_needed(spec, cols)
        t = build_preserver(spec, rows=rows, cols=cols)
        verdict = _classify_for(spec, t, tol)
        if not verdict.accepted:
            failures.append(f"case {case}: valid build rejected: {verdict.reason}")
            continue
        corrupted = _corrupt(rng, t)
        if _classify_for(spec, corrupted, tol).accepted:
            failures.append(f"case {case}: corruption not detected")
    return "100 builds accepted, 100 corruptions rejected"


# ----------------------------------------------------------------------
# 11. Empirical order preservation
# ----------------------------------------------------------------------

def criterion_empirical_preservation(rng: np.random.Generator, tol: float, failures: list[str]) -> str:
    """20 random specs x 50 sampled pushforward pairs at n <= 40: the weak
    relation holds between the images in every trial."""
    for case in range(20):
        n = int(rng.integers(5, 41))
        spec = _random_spec(rng, min_cols=n, max_cols=n)
        report = empirical_preservation_check(spec, trials=50, n=n, seed=int(rng.integers(0, 2**31)), tol=tol)
        if not report.all_passed:
            ce = report.first_counterexample
            failures.append(f"spec {case}: {report.failures} failed trials, first at trial {ce.trial}")
    return "20 specs x 50 trials all preserved the order"


# ----------------------------------------------------------------------
# 12. Shift forcing
# ----------------------------------------------------------------------

def criterion_shift_forcing(_rng: np.random.Generator, _tol: float, failures: list[str]) -> str:
    """For g(i) = 1/i^2 at n = 50 the forced witness equals the truncated
    right shift with literal 0/1 entries on all pinned rows."""
    g = NonNegVector(np.array([1.0 / (i * i) for i in range(1, 51)]))
    result = shift_forcing(g)
    expected = shift_matrix(50, "right").data
    if not np.array_equal(result.forced.to_dense(), expected):
        failures.append("forced matrix differs from the truncated right shift")
    if not result.fully_determined:
        failures.append("forced witness left free entries")
    if result.conclusion != "equals-right-shift":
        failures.append(f"conclusion {result.conclusion!r}")
    return "50x50 forced witness equals the right shift exactly"


# ----------------------------------------------------------------------
# 13. Exhaustive checks for the closed-form injection families
# ----------------------------------------------------------------------

def criterion_theta_families(_rng: np.random.Generator, _tol: float, failures: list[str], bound: int = 10_000) -> str:
    """Injectivity and pairwise image-disjointness of both index maps for all
    values <= 10,000, and no collision between the second family's images and
    the constant-row support indices."""
    for name, theta in (("quadratic", theta_quadratic), ("triangular", theta_triangular)):
        seen: dict[int, tuple[int, int]] = {}
        i = 1
        while theta(i, 1) <= bound:
            j = 1
            while (value := theta(i, j)) <= bound:
                if value in seen:
                    i0, j0 = seen[value]
                    failures.append(f"{name}: theta_{i}({j}) collides with theta_{i0}({j0})")
                seen[value] = (i, j)
                j += 1
            i += 1
        if name == "triangular":
            triangular_values = set(seen)
    support = set()
    i = 1
    while (idx := constant_row_support_index(i)) <= bound:
        support.add(idx)
        i += 1
    overlap = support & triangular_values
    if overlap:
        failures.append(f"constant-row support collides with images at {sorted(overlap)[:3]}")
    return f"all values <= {bound} injective, disjoint, support-free"


# ----------------------------------------------------------------------
# Battery driver
# ----------------------------------------------------------------------

class _Criterion(NamedTuple):
    run: Callable[[np.random.Generator, float, list[str]], str]
    name: str
    exact: bool = False  # takes tol_exact in place of tol
    budget_s: float = math.inf  # wall time at or above which the criterion fails


# The battery in order: a criterion's index is its position here, and the
# driver reads its name, stream and budget from here, whatever the outcome.
_CRITERIA = (
    _Criterion(criterion_completion, "greedy completion", budget_s=5.0),
    _Criterion(criterion_oracle_agreement, "oracle agreement", budget_s=60.0),
    _Criterion(criterion_witness_soundness, "witness soundness"),
    _Criterion(criterion_finite_collapse, "finite collapse"),
    _Criterion(criterion_antisymmetry, "antisymmetry"),
    _Criterion(criterion_closure, "closure"),
    _Criterion(criterion_decomposition, "decomposition", exact=True),
    _Criterion(criterion_intertwining, "intertwining", exact=True),
    _Criterion(criterion_golden_fixtures, "golden fixtures"),
    _Criterion(criterion_preserver_roundtrip, "preserver round-trip"),
    _Criterion(criterion_empirical_preservation, "empirical preservation"),
    _Criterion(criterion_shift_forcing, "shift forcing"),
    _Criterion(criterion_theta_families, "injection families"),
)


def run_acceptance(
    seed: int = 0,
    tol: float = DEFAULT_CLASS_TOL,
    tol_exact: float = DEFAULT_EXACT_TOL,
) -> list[CriterionResult]:
    """Run the full battery; sampled criteria re-randomize with the seed.

    Criterion k draws from ``default_rng`` of child k-1 of
    ``SeedSequence(seed)``, which rejects a negative seed with ValueError.
    Each result carries its criterion's wall time in ``elapsed_s``.
    """
    streams = np.random.SeedSequence(seed).spawn(len(_CRITERIA))
    results = []
    for index, ((run, name, exact, budget_s), stream) in enumerate(zip(_CRITERIA, streams), start=1):
        failures: list[str] = []
        start = time.perf_counter()
        try:
            detail = run(np.random.default_rng(stream), tol_exact if exact else tol, failures)
        except Exception as exc:  # a crashed criterion is a failed criterion
            detail = f"raised {type(exc).__name__}: {exc}"
            results.append(CriterionResult(index, name, False, detail, time.perf_counter() - start))
            continue
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            failures.append(f"runtime {elapsed:.2f}s exceeds {budget_s:g}s budget")
        if failures:
            detail = f"{len(failures)} failure(s); first: {failures[0]}"
        results.append(CriterionResult(index, name, not failures, detail, elapsed))
    return results
