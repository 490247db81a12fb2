"""Independent references for the tests, one per job.

Each reference computes what one part of submaj must give by a path of
its own (it may call other public parts, which their own tests cover), and
its docstring names the float path it pins bitwise, or says that it pins
none and how close the part must come.  A speed change proves its outputs
bitwise unchanged with ``scripts/verdict_digest.py`` on two checkouts, not
with a new copy here.
"""
from fractions import Fraction

import numpy as np

from submaj.demos import ReciprocalSquareReport
from submaj.matrices import MatrixClass, StochMatrix, decompose_increasable
from submaj.preservers import FamilyCollision, FamilyVerdict, TruncatedOperator
from submaj.relations import check_majorize, check_submajorize, check_weak_majorize, strict_permutation
from submaj.vectors import LevelBlock, LevelSetDecomposition, NonNegVector, common_dim


# The message of each check's holding verdict.
HOLDS = {
    check_majorize: "majorization holds",
    check_weak_majorize: "weak majorization holds",
    check_submajorize: "submajorization holds (finite collapse to the weak relation)",
}


# ----------------------------------------------------------------------
# Vectors
# ----------------------------------------------------------------------


def level_sets(v):
    """The level-set decomposition by one scan of the whole vector per
    distinct positive value, largest first.

    Pins the blocks exactly: Python float values and ascending 1-based
    Python int indices.
    """
    blocks = []
    for value in sorted({float(x) for x in v.values if x > 0}, reverse=True):
        idx = tuple(int(i) + 1 for i in np.nonzero(v.values == value)[0])
        blocks.append(LevelBlock(value=value, indices=idx))
    return LevelSetDecomposition(blocks=tuple(blocks))


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------


def decide(f, g, tol):
    """{check: (holds, failed_index, message)} that each check of ``HOLDS``
    must return for f and g.

    Pins bitwise the float decision: each zero-padded input sorted by a
    stable argsort, one ``np.cumsum`` of each, position k failing where
    F_k > fl(G_k + tol), and for majorization the totals compared last.
    Position 1 compares the two maxima exactly (a Fraction compares with a
    float exactly).
    """
    f2, g2 = common_dim(f, g)
    pf, pg = (np.cumsum(v.values[np.argsort(-v.values, kind="stable")]) for v in (f2, g2))
    over = pf > pg + tol
    over[0] = Fraction(pf[0]) - Fraction(pg[0]) > tol
    bad = np.nonzero(over)[0]
    if bad.size:
        k = int(bad[0])
        message = f"sorted partial sums fail at position {k + 1}: {pf[k]:.12g} > {pg[k]:.12g}"
        return dict.fromkeys(HOLDS, (False, k + 1, message))
    out = {check: (True, None, message) for check, message in HOLDS.items()}
    if abs(pf[-1] - pg[-1]) > tol:
        k = pf.size - 1
        out[check_majorize] = (False, k + 1, f"totals differ at position {k + 1}: {pf[k]:.12g} vs {pg[k]:.12g}")
    return out


def scan_hlp_chain(sf, sg, tol):
    """The T-transform chain on sorted records, by a loop that recomputes
    d = y - x and runs two ``np.nonzero`` scans on every step.

    Pins bitwise every step (i, j, t) of ``relations._hlp_chain`` and its
    stall error: j is the last position with d > eps, k the first later one
    with d < 0, t = min(d[j], -d[k]) / (y[j] - y[k]), and the coordinate a
    step pins set to x exactly.  O(n) per step, so only for short chains.
    """
    x = sf.values
    y = sg.values.copy()
    eps = 1e-12 * max(1.0, float(y.max(initial=0.0)))
    steps = []
    while True:
        d = y - x
        pos = np.nonzero(d > eps)[0]
        if pos.size == 0:
            break
        j = int(pos[-1])
        neg = np.nonzero(d[j + 1 :] < 0)[0]
        if neg.size == 0:
            if float(np.abs(d).max()) > 10 * max(tol, eps):
                raise RuntimeError("T-transform construction stalled; input not majorized")
            break
        k = j + 1 + int(neg[0])
        delta = min(d[j], -d[k])
        t = delta / (y[j] - y[k])
        if d[j] <= -d[k]:
            y[k] += delta
            y[j] = x[j]
        else:
            y[j] -= delta
            y[k] = x[k]
        steps.append((j + 1, k + 1, float(t)))
    return tuple(steps)


def dense_chain_product(chain):
    """P_post^T (T_m ... T_1) P_pre of a ``TTransformChain``, from explicit
    dense T and permutation matrices, O(n^3) per step.

    Pins no float path bitwise: the in-place builder rounds each entry
    differently, and agrees to within 1e-12.
    """
    n = chain.product.n
    acc = np.eye(n)
    for step in chain.steps:
        t_matrix = np.eye(n)
        i, j, t = step.i - 1, step.j - 1, step.t
        t_matrix[i, i] = t_matrix[j, j] = 1 - t
        t_matrix[i, j] = t_matrix[j, i] = t
        acc = t_matrix @ acc
    post, pre = (np.eye(n)[np.asarray(perm) - 1] for perm in (chain.post_perm, chain.pre_perm))
    return post.T @ acc @ pre


def water_filled_h(f, g):
    """``intermediate_h`` as an O(n^2) water-filling loop: raise f's sorted
    entries in turn by the least headroom of g's partial sums from there on,
    until the total deficit is spent.

    Pins no float path bitwise; ``intermediate_h`` agrees to within
    1e-12 * max(1, total of g).
    """
    n = max(f.dim, g.dim)
    fv = f.padded(n).values
    order = np.argsort(-fv, kind="stable")
    x = fv[order].copy()
    target = np.cumsum(np.sort(g.padded(n).values)[::-1])
    prefix = np.cumsum(x)
    deficit = max(0.0, float(target[-1] - prefix[-1]))
    for k in range(n):
        if deficit <= 0:
            break
        raise_k = min(deficit, max(0.0, float(np.min(target[k:] - prefix[k:]))))
        if raise_k > 0:
            x[k] += raise_k
            prefix[k:] += raise_k
            deficit -= raise_k
    h = np.empty(n)
    h[order] = x
    return np.maximum(h, fv)


def partial_permutation(f, g, value_tol):
    """``partial_permutation`` as a list sort of each support by (-value,
    index), matched in order.  Pins the map and its key order exactly."""
    fpos = [i for i in range(f.dim) if f.values[i] > 0]
    gpos = [i for i in range(g.dim) if g.values[i] > 0]
    if len(fpos) != len(gpos):
        return None
    fpos.sort(key=lambda i: (-f.values[i], i))
    gpos.sort(key=lambda i: (-g.values[i], i))
    for a, b in zip(fpos, gpos):
        if abs(f.values[a] - g.values[b]) > value_tol:
            return None
    return {a + 1: b + 1 for a, b in zip(fpos, gpos)}


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


def classify(arr, tol):
    """``classify_matrix`` by two paths: the sums first, under errstate,
    and the entrywise checks (finite before nonnegative) and a second
    summation only when an entry is negative or a sum is not finite; the
    class rule restated.  Pins bitwise the two sums, the class, each error
    message and the number of overflow warnings.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if arr.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    sums = None
    if arr.min() >= 0:
        with np.errstate(over="ignore"):
            sums = arr.sum(axis=1), arr.sum(axis=0)
        if not all(np.isfinite(s).all() for s in sums):
            sums = None
    if sums is None:
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if np.any(arr < 0):
            raise ValueError("matrix entries must be nonnegative")
        sums = arr.sum(axis=1), arr.sum(axis=0)
    rows, cols = sums
    if np.all(np.abs(rows - 1) <= tol) and np.all(np.abs(cols - 1) <= tol):
        cls = MatrixClass.DOUBLY_STOCHASTIC
    else:
        rows_ok, cols_ok = bool(np.all(rows <= 1 + tol)), bool(np.all(cols <= 1 + tol))
        cls = {
            (True, True): MatrixClass.DOUBLY_SUBSTOCHASTIC,
            (True, False): MatrixClass.ROW_SUBSTOCHASTIC,
            (False, True): MatrixClass.COL_SUBSTOCHASTIC,
            (False, False): MatrixClass.GENERAL,
        }[rows_ok, cols_ok]
    return StochMatrix(data=arr, row_sums=rows, col_sums=cols, matrix_class=cls)


def dominates(upper, lower, tol):
    """Whether upper >= lower - tol entrywise, scanned in blocks of rows.
    Pins the verdict exactly, at the bound and one ulp either side."""
    block = max(1, 2**14 // lower.shape[0])
    return not any(
        np.any(upper[r : r + block] < lower[r : r + block] - tol) for r in range(0, lower.shape[0], block)
    )


def greedy_completion(d, aug_tol):
    """``vonneumann_complete`` as the north-west corner loop that rescans
    both deficiency vectors with ``np.nonzero`` on every step.  Pins
    bitwise every step (i, j, amount) and the completed array."""
    a = d.data.copy()
    r = 1.0 - d.row_sums.copy()
    c = 1.0 - d.col_sums.copy()
    steps = []
    while True:
        rows_open = np.nonzero(r > aug_tol)[0]
        cols_open = np.nonzero(c > aug_tol)[0]
        if rows_open.size == 0 or cols_open.size == 0:
            break
        i, j = int(rows_open[0]), int(cols_open[0])
        t = min(r[i], c[j])
        a[i, j] += t
        r[i] -= t
        c[j] -= t
        steps.append((i + 1, j + 1, float(t)))
    return tuple(steps), a


# ----------------------------------------------------------------------
# Demos
# ----------------------------------------------------------------------


def reciprocal_square_report(n, tol):
    """``reciprocal_square_example(n)`` with both shifts as dense n x n
    matrices.  Pins every field bitwise."""
    f = NonNegVector(np.array([1.0 / (i * i) for i in range(1, n + 1)]))
    g = NonNegVector(np.eye(n, k=-1) @ f.values)
    lg = np.eye(n, k=1) @ g.values
    padded = f.values.copy()
    padded[-1] = 0.0
    return ReciprocalSquareReport(
        n=n,
        f=f,
        g=g,
        right_shift_witness_exact=bool(np.array_equal(g.values, np.concatenate(([0.0], f.values[:-1])))),
        weak_g_under_f_holds=check_weak_majorize(g, f, tol, with_witness=False).holds,
        weak_f_under_g_holds=check_weak_majorize(f, g, tol, with_witness=False).holds,
        left_shift_window_exact=bool(np.array_equal(lg[: n - 1], f.values[: n - 1])) if n > 1 else True,
        window_boundary_defect=float(f.values[-1]),
        partial_matched_support=tuple(i for i in range(1, n) if g.values[i] == f.values[i - 1]),
        strict_perm_with_zero_pad=strict_permutation(NonNegVector(padded), g),
    )


# ----------------------------------------------------------------------
# Preservers: scans of an entry dict {(i, j): v}, 1-based
# ----------------------------------------------------------------------


def clean_entries(rows, cols, entries):
    """The entry rules of ``TruncatedOperator`` as a dict loop: the cleaned
    dict, in the given key order with int keys and float values, or the
    message of the first bad entry.  Pins keys, values and messages exactly."""
    if rows < 1 or cols < 1:
        return "truncation must have at least one row and column"
    clean = {}
    for (i, j), v in entries.items():
        if not (1 <= i <= rows and 1 <= j <= cols):
            return f"entry ({i}, {j}) outside the {rows}x{cols} window"
        v = float(v)
        if not np.isfinite(v) or v <= 0:
            return f"entries must be finite and positive, got {v} at ({i}, {j})"
        clean[(int(i), int(j))] = v
    return clean


def build_entries(spec, rows, cols):
    """``build_preserver(spec, rows, cols)`` as an entry loop: each member's
    weight at (theta(j), j), then each constant row over every column; the
    cleaned dict, or the error message.  Pins the entries and their order
    exactly.  ``injection_matrix(theta, ...)`` is the one-member spec of
    weight 1."""
    if spec.family.members and cols > spec.family.domain_dim:
        return f"injection domain {spec.family.domain_dim} smaller than {cols} columns"
    entries = {}
    for weight, member in zip(spec.weights, spec.family.members):
        if weight > 0:
            for j in range(1, cols + 1):
                if member.mapping[j - 1] <= rows:
                    entries[(member.mapping[j - 1], j)] = weight
    if spec.constant_row is not None:
        for i in spec.constant_row.support():
            if i <= rows:
                for j in range(1, cols + 1):
                    entries[(i, j)] = float(spec.constant_row.values[i - 1])
    return clean_entries(rows, cols, entries)


def apply_entries(entries, rows, f):
    """T f as a scatter-add over the entry dict.  Pins no float path
    bitwise when a row has several entries (within 1e-12 relative); exact
    for one entry a row."""
    out = np.zeros(rows)
    for (i, j), v in entries.items():
        out[i - 1] += v * f.values[j - 1]
    return out


def _multiset_mismatch(t, tol):
    reference = None
    for j in range(1, t.cols + 1):
        values = sorted(v for (_, jj), v in t.entries.items() if jj == j and v > tol)
        if reference is None:
            reference = values
        elif len(values) != len(reference) or any(abs(a - b) > tol for a, b in zip(values, reference)):
            return f"column {j} carries a different positive multiset than column 1"
    return None


def classify_lp(t, tol):
    """(accepted, reason) of ``classify_preserver_lp`` by dict scans: no row
    with two entries above tol, then every column's sorted entries above tol
    within tol of column 1's.  Pins verdict and reason exactly."""
    per_row = {}
    for (i, _), v in t.entries.items():
        if v > tol:
            per_row[i] = per_row.get(i, 0) + 1
            if per_row[i] > 1:
                return False, f"row {i} has more than one positive entry"
    mismatch = _multiset_mismatch(t, tol)
    if mismatch is not None:
        return False, mismatch
    return True, "rows are singletons and columns share one multiset"


def classify_l1(t, tol):
    """(accepted, reason) of ``classify_preserver_l1`` by dict scans: each
    row above tol a singleton or constant within tol across all columns,
    then the column multisets.  Pins verdict and reason exactly."""
    for i in sorted({i for (i, _), v in t.entries.items() if v > tol}):
        row = [v for (ii, _), v in t.entries.items() if ii == i and v > tol]
        if len(row) > 1 and not (max(row) - min(row) <= tol and len(row) == t.cols):
            return False, f"row {i} is neither singleton-support nor constant across all columns"
    mismatch = _multiset_mismatch(t, tol)
    if mismatch is not None:
        return False, mismatch
    return True, "rows are singletons or constant and columns share one multiset"


def validate_family(family):
    """``validate_family`` as a dict of images seen: the first image that a
    later (member, column) repeats.  Pins the verdict exactly."""
    seen = {}
    for k, member in enumerate(family.members, start=1):
        for j, target in enumerate(member.mapping, start=1):
            if target in seen:
                return FamilyVerdict(False, FamilyCollision(*seen[target], k, j))
            seen[target] = (k, j)
    return FamilyVerdict(True)


def construct_S(cert, family, a, truncate):
    """``construct_S`` as entry loops over the dense decomposition block
    d1 - d2 of each member and the diagonal 1 - a off the images, with the
    dense intertwining gap of the first member (the one a failing check
    reports).  Pins the operator and the gap bitwise."""
    m = cert.base.n
    images = family.union_image()
    n = truncate if truncate is not None else max(images)
    decomp = decompose_increasable(cert.base, cert)
    block = decomp.d1.data - decomp.d2.data
    entries = {}
    for member in family.members:
        for r in range(1, m + 1):
            for c in range(1, m + 1):
                if block[r - 1, c - 1] > 0:
                    entries[(member.mapping[r - 1], member.mapping[c - 1])] = float(block[r - 1, c - 1])
    if 1.0 - a > 0:
        for i in range(1, n + 1):
            if i not in images:
                entries[(i, i)] = 1.0 - a
    s = TruncatedOperator(rows=n, cols=n, entries=entries)
    theta = np.asarray(family.members[0].mapping) - 1
    diff = np.zeros((n, m))
    diff[theta] = cert.base.data
    diff -= s.to_dense()[:, theta]
    return s, float(np.max(np.abs(diff)))
