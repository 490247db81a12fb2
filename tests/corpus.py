"""The seeded inputs and hypothesis strategies that the tests share.

Relation pairs cover dyadic values (exact partial sums), the fault 2a and
2b pairs of ``perfbench.inputs``, one-ulp moves, scales 2^-60 ... 2^60,
the edges of the decision's scan blocks (n = 16383, 16384, 16385, 32768,
32769 and three seeded sizes below 5 * 16384), unequal dimensions and the
pairs that stall the T-transform chain.
Matrix and preserver inputs sit at the edges of classification, placement
and the entry rules.  Every seeded generator draws from its own fixed seed,
so a test sees the same inputs in every run.
"""
import numpy as np
from hypothesis import strategies as st
from perfbench import inputs

import submaj.relations
from submaj.config import DEFAULT_CLASS_TOL
from submaj.demos import quadratic_family, triangular_family
from submaj.preservers import (
    Injection,
    InjectionFamily,
    PreserverSpec,
    TruncatedOperator,
    preservation_rows_needed,
    random_injection_family,
)
from submaj.matrices import vonneumann_complete
from submaj.sampling import random_doubly_stochastic, random_doubly_substochastic
from submaj.vectors import NonNegVector


# The two pairs that stall the chain, as its sorted (x, y).  In the second
# the only excess is below 10 * tol; the shortfall is not.
STALLING = (([2.0, 1.0, 0.0], [1.5, 1.5, 0.0]), ([2.0, 0.5], [1.5, 0.5 + 5e-10]))


def perfbench_pair(n, make=inputs.weak_pair):
    """A perfbench pair (f, g) as arrays, from the fixed seed [1, 1]."""
    return make(np.random.default_rng([1, 1]), n)


# ----------------------------------------------------------------------
# Seeded relation pairs
# ----------------------------------------------------------------------


def decision_pairs():
    """(f, g) for the decision: 600 seeded pairs with quarter-grid ties or
    exact zeros, f mixed from g, a permuted copy of g or an independent
    draw, unequal dimensions, scales 2^-20, 1 and 2^20 and some zeros
    written as -0.0; then the fault 2a pairs and the fault 2b pairs at
    scales 1 and 2^20."""
    rng = np.random.default_rng(47)
    for case in range(600):
        m = int(rng.integers(1, 30))
        if case % 2:
            g = rng.integers(0, 9, size=m) / 4
        else:
            g = rng.uniform(0, 1, m) * (rng.uniform(size=m) > 0.3)
        kind = case // 2 % 4
        if kind == 0:
            f = random_doubly_stochastic(rng, m).data @ g
        elif kind == 1:
            f = random_doubly_substochastic(rng, m).data @ g
        elif kind == 2:
            f = g[rng.permutation(m)]
        else:
            f = rng.integers(0, 9, size=m) / 4 if case % 2 else rng.uniform(0, 1, m) * (rng.uniform(size=m) > 0.3)
        if case % 5 == 0:
            f = np.concatenate([f, np.zeros(3)])[: int(rng.integers(1, m + 4))]
        scale = 2.0 ** int(rng.choice([-20, 0, 20]))
        f, g = f * scale, g * scale
        if case % 3 == 0:
            f = np.where((f == 0) & (rng.uniform(size=f.size) < 0.5), -0.0, f)
            g = np.where((g == 0) & (rng.uniform(size=g.size) < 0.5), -0.0, g)
        yield NonNegVector(f), NonNegVector(g)
    for f, g in inputs.fault_2a_pairs(3):
        yield NonNegVector(f), NonNegVector(g)
    for f, g in inputs.fault_2b_pairs(50, 5, 0):
        for scale in (1.0, inputs.SCALE):
            yield NonNegVector(f * scale), NonNegVector(g * scale)


def block_edge_pairs():
    """Pairs whose verdicts turn at or next to the block edges of the
    decision's scan: (label, f, g, planted first failing position or None).

    g is n, n - 1, ..., 1 times a power of two, so every partial sum is exact.
    A planted pair moves 1/4 (scaled) from sorted position p + 1 to p, so its
    sums exceed g's at p alone; p runs over the first and the last position
    of every block.  Totals pairs move f's total to one ulp either side of,
    and onto, fl(G_n + tol) and fl(G_n - tol).  Unequal dimensions straddle
    an edge.
    """
    block = submaj.relations._BLOCK
    rng = np.random.default_rng(19)
    sizes = [block - 1, block, block + 1, 2 * block, 2 * block + 1, *rng.integers(1, 5 * block, size=3).tolist()]
    scales = [2.0**e for e in (-60, -20, 0, 20, 60)]
    for case, n in enumerate(sizes):
        g = np.arange(n, 0, -1, dtype=float)
        planted_scale = scales[1 + case % 4]  # a quarter clears tol at 2^-20 and above
        for p in sorted({q for start in range(0, n, block) for q in (start + 1, min(start + block, n))}):
            f = g.copy()
            f[p - 1] += 0.25
            if p < n:
                f[p] -= 0.25
            yield f"planted at {p}, n={n}", f[rng.permutation(n)] * planted_scale, g * planted_scale, p
        scale = scales[case % 5]
        gs = g * scale
        yield f"permuted, n={n}", gs[rng.permutation(n)], gs, None
        head = np.cumsum(gs)[-2] if n > 1 else 0.0
        total = np.cumsum(gs)[-1]
        for edge in (total + DEFAULT_CLASS_TOL, total - DEFAULT_CLASS_TOL):
            for target in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                f = gs.copy()
                f[-1] = max(0.0, target - head)
                yield f"total near {target!r}, n={n}", f[rng.permutation(n)], gs, None
        for m in (max(1, n - 2), n + 2):
            f = np.arange(m, 0, -1, dtype=float) * scale
            yield f"dims {m} and {n}", f[rng.permutation(m)], gs, None


def position_one_pairs():
    """Pairs whose verdicts turn at sorted position 1: (label, f, g, tol).

    At tol 1e-9, 0 and 1/8 and scales 2^-30, 1 and 2^30: f's maximum set
    one ulp below, onto and one ulp above fl(max g + tol) over a halved
    permuted copy of g; f a permuted copy of g (a tie at the maximum); f
    well above g; f and g of unequal dimensions; and all-zero f, g or both.
    """
    rng = np.random.default_rng(24)
    for tol in (DEFAULT_CLASS_TOL, 0.0, 0.125):
        for scale in (2.0**-30, 1.0, 2.0**30):
            for case in range(4):
                n = int(rng.integers(1, 12))
                g = rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.3)
                g[rng.integers(n)] = rng.uniform(0.5, 1)
                g *= scale
                edge = g.max() + tol
                for target in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    f = g[rng.permutation(n)] / 2
                    f[rng.integers(n)] = target
                    yield f"max at {target!r}, scale {scale}, tol {tol}", f, g, tol
                yield f"tie at the maximum, n={n}", g[rng.permutation(n)], g, tol
                yield f"f above g, n={n}", 2 * g[rng.permutation(n)] + tol, g, tol
                m = int(rng.integers(1, 2 * n + 2))
                f = rng.uniform(0, 1, m) * scale
                yield f"dims {m} and {n}", f, g, tol
                yield f"dims {n} and {m}", g, f, tol
                yield f"zero f, n={n}", np.zeros(m), g, tol
                yield f"zero g, n={n}", f, np.zeros(n), tol
            yield "both zero", np.zeros(3), np.zeros(5), tol


def weak_witness_pairs():
    """(label, f, g) as arrays: perfbench weak pairs as drawn, off the grid
    (f times uniform factors) and scaled by 2^40 and 2^-40, at n = 50, 300
    and 1000; the two stalling pairs; and the off-grid pair at n = 250 whose
    raised h leaves f's sorted order, labelled "off-grid fallback n=250"."""
    rng = np.random.default_rng(211)
    out = []
    for n in (50, 300, 1000):
        f, g = inputs.weak_pair(rng, n)
        variants = {"drawn": (f, g), "off-grid": (f * rng.uniform(0.5, 1.0, n), g)}
        for e in (40, -40):
            variants[f"scaled 2^{e}"] = (f * 2.0**e, g * 2.0**e)
        out += [(f"{name} n={n}", a, b) for name, (a, b) in variants.items()]
    out += [(f"stalling {x}", np.array(x), np.array(y)) for x, y in STALLING]
    out.append(("off-grid fallback n=250", *fallback_pair()))
    return out


def fallback_pair():
    """An off-grid perfbench weak pair at n = 250 whose raised h leaves f's
    sorted order: rounding puts one value of h a few ulps above the one
    before it along f's order."""
    rng = np.random.default_rng(61)
    f, g = inputs.weak_pair(rng, 250)
    return f * rng.uniform(0.5, 1.0, 250), g


def class_pairs():
    """Holding weak pairs, among them pairs whose scales all equal 1 (f = g,
    an exact majorization) or lie within 1e-3 of 1 (f = g but one entry
    lowered by a relative 1e-6)."""
    rng = np.random.default_rng(215)
    pairs = [inputs.weak_pair(rng, n) for n in (1, 7, 300)] + [inputs.major_pair(rng, n) for n in (7, 300)]
    g = inputs.grid_vector(rng, 300)
    pairs.append((g, g))
    lowered = g.copy()
    lowered[int(np.argmax(g))] *= 1 - 1e-6
    pairs.append((lowered, g))
    pairs.append((np.zeros(5), inputs.grid_vector(rng, 5)))
    return [(NonNegVector(f), NonNegVector(g)) for f, g in pairs]


# ----------------------------------------------------------------------
# Hypothesis strategies for relation pairs
# ----------------------------------------------------------------------


@st.composite
def dyadic_pairs(draw):
    """(f, g, permuted f, permuted g) with entries k / 64; f is drawn freely,
    averaged from g over disjoint pairs, or scaled from g by k / 16."""
    ints = st.lists(st.integers(0, 1024), min_size=1, max_size=12)
    g = np.array(draw(ints), dtype=float) / 64
    kind = draw(st.sampled_from(("free", "averaged", "scaled")))
    if kind == "free":
        f = np.array(draw(ints), dtype=float) / 64
    else:
        f = g[draw(st.permutations(range(g.size)))]
        for i in range(0, f.size - 1, 2):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
        if kind == "scaled":
            f = f * np.array(draw(st.lists(st.integers(8, 16), min_size=f.size, max_size=f.size))) / 16
    pf = f[draw(st.permutations(range(f.size)))]
    pg = g[draw(st.permutations(range(g.size)))]
    return tuple(NonNegVector(v) for v in (f, g, pf, pg))


def _base(draw, n, ties):
    """g of n entries, dyadic (k / 64) or uniform, then with exact zeros;
    with ``ties``, entries of a uniform g are copied onto others."""
    if draw(st.booleans()):
        g = np.array(draw(st.lists(st.integers(0, 1024), min_size=n, max_size=n)), dtype=float) / 64
    else:
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, n)
        if ties:
            for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
                g[i] = g[j]
    g[draw(st.lists(st.integers(0, n - 1), max_size=n // 2 + 1))] = 0.0
    return g


@st.composite
def unequal_dimension_pairs(draw):
    """(f, g, tol, block): inputs of unequal dimensions, either one the
    shorter.  g is dyadic (k / 64) or uniform, with exact zeros; f is drawn
    freely, or is a permutation of g averaged over disjoint pairs and scaled
    by k / 16, cut or extended with zeros; both are scaled by 2**e, e in
    -30..30.  tol is 0, 1e-9 or 1/8, and the scan's block 1, 3, 4 or its
    own size, so the shorter input ends inside blocks and at their edges."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24).filter(lambda k: k != n))
    g = _base(draw, n, ties=False)
    if draw(st.booleans()):
        f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0, 1, m)
    else:
        f = g[draw(st.permutations(range(n)))]
        for i in range(0, n - 1, 2):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
        f = f * np.array(draw(st.lists(st.integers(8, 16), min_size=n, max_size=n))) / 16
        f = np.concatenate([f, np.zeros(max(0, m - n))])[:m]
    if draw(st.booleans()):
        f, g = g, f
    scale = 2.0 ** draw(st.integers(-30, 30))
    tol = draw(st.sampled_from((0.0, DEFAULT_CLASS_TOL, 0.125)))
    block = draw(st.sampled_from((1, 3, 4, submaj.relations._BLOCK)))
    return NonNegVector(f * scale), NonNegVector(g * scale), tol, block


@st.composite
def holding_weak_pairs(draw):
    """(f, g) for which f is weakly majorized by g.  g is dyadic (k / 64) or
    uniform, with ties and exact zeros; f is a permutation of g averaged over
    disjoint pairs and scaled by k / 16 (so also exact zeros); single entries
    of both move by one ulp; both are scaled by 2**e, e in -60..60."""
    n = draw(st.integers(1, 24))
    g = _base(draw, n, ties=True)
    f = g[draw(st.permutations(range(n)))]
    for i in range(0, n - 1, 2):
        if draw(st.booleans()):
            f[i] = f[i + 1] = (f[i] + f[i + 1]) / 2
    f = f * np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 16
    for v in (f, g):
        for i, towards in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((0.0, np.inf))), max_size=3)):
            v[i] = np.nextafter(v[i], towards)
    scale = 2.0 ** draw(st.integers(-60, 60))
    return NonNegVector(f * scale), NonNegVector(g * scale)


@st.composite
def witness_pairs(draw):
    """``holding_weak_pairs`` with f zero-padded or truncated to another
    dimension (which keeps it weakly below g), or replaced by zeros."""
    f, g = draw(holding_weak_pairs())
    values = np.concatenate([f.values, np.zeros(3)])[: draw(st.integers(1, f.dim + 3))]
    if draw(st.integers(0, 9)) == 0:
        values = np.zeros_like(values)
    return NonNegVector(values), g


@st.composite
def chain_pairs(draw):
    """Sorted records (x, y) for the chain: f and g of ``holding_weak_pairs``
    with f itself (unequal totals, so the chain may stall), f raised to h
    through ``_raised``, or f swapped with g (not majorized)."""
    f, g = draw(holding_weak_pairs())
    sf, sg = (submaj.relations._Sorted(v.values) for v in (f, g))
    kind = draw(st.sampled_from(("raised", "as is", "swapped")))
    if kind == "raised":
        sf = submaj.relations._Sorted(submaj.relations._raised(sf, sg))
    elif kind == "swapped":
        sf, sg = sg, sf
    return sf, sg


def _ulp_walk(x, towards, count):
    out = []
    for _ in range(count):
        x = float(np.nextafter(x, towards))
        out.append(x)
    return out


# t at the edges of the exact-ones lemma's two cases: 0, the least
# subnormal, every power of two, 1/2 and 1 with their neighbouring ulps.
EDGE_T = (
    0.0, 5e-324, 1.0, *(2.0**-k for k in range(1, 1075)),
    *_ulp_walk(0.5, 0.0, 4), *_ulp_walk(0.5, 1.0, 4), *_ulp_walk(1.0, 0.0, 4),
)


@st.composite
def unit_t_chains(draw):
    """(n, steps): up to 40 steps (i, j, t), 1 <= i < j <= n, t in [0, 1]."""
    n = draw(st.integers(2, 12))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(sorted)
    t = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_T))
    return n, [(i, j, x) for (i, j), x in draw(st.lists(st.tuples(pair, t), max_size=40))]


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------


def classify_inputs():
    """Arrays for classification: random, row and column stochastic, doubly
    (sub)stochastic at n = 1..40 and 500; NaN, infinities, negatives, -0.0
    and subnormals in a 3 x 3 matrix; rows and columns whose finite sums
    overflow; and arrays that are not square or empty."""
    rng = np.random.default_rng(18)
    for n in list(range(1, 41)) + [500]:
        raw = rng.uniform(0.0, 1.0, size=(n, n))
        raw[rng.uniform(size=(n, n)) < 0.2] = 0.0
        yield raw
        full = raw + 0.01
        yield full / full.sum(axis=1, keepdims=True)  # row stochastic, columns free
        yield full / full.sum(axis=0, keepdims=True)
        yield random_doubly_substochastic(rng, n).data
        yield random_doubly_stochastic(rng, n).data
    base = np.array([[0.5, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.5]])
    for value in (np.nan, np.inf, -np.inf, -1.0, -1e-300, -0.0, 5e-324):
        for pos in ((0, 0), (1, 2), (2, 1)):
            bad = base.copy()
            bad[pos] = value
            yield bad
    yield np.full((3, 3), -0.0)
    yield np.array([[np.nan, -1.0], [0.0, 1.0]])
    yield np.array([[-1.0, np.nan], [0.0, 1.0]])
    yield np.array([[1e308, 1e308], [0.0, 0.0]])  # a finite row overflows
    yield np.array([[1e308, 0.0], [1e308, 0.0]])  # a finite column overflows
    yield np.array([[1e308, 1e308], [1e308, 1e308]])
    yield np.array([[np.inf, 0.0], [1e308, 1e308]])
    yield np.array([[1e308, 1e308], [-1.0, 0.0]])
    for shape in ((0, 0), (0,), (1, 0), (0, 1), (2, 3), (3, 2), (4,), (), (2, 2, 2)):
        yield np.zeros(shape)


# ----------------------------------------------------------------------
# Preservers
# ----------------------------------------------------------------------


def operators(seed, count, tol=1e-9):
    """Seeded operators near every classifier boundary, in shuffled entry order.

    Cases cycle through: empty, one row, one column, disjoint injections,
    injections plus constant rows, one perturbed entry, stray positives; the
    values come from a pool holding ties, near-ties within +-tol, and values
    at and around tol itself.
    """
    rng = np.random.default_rng(seed)
    pool = np.array([0.5, 0.5 + tol / 2, 0.5 - tol / 2, 0.5 + 3 * tol, 0.25, 1.0,
                     tol, tol * (1 + 1e-6), tol * (1 - 1e-6), tol / 2, 2 * tol])
    for case in range(count):
        kind = case % 7
        rows = 1 if kind == 1 else int(rng.integers(1, 14))
        cols = 1 if kind == 2 else int(rng.integers(1, 7))
        entries = {}
        if kind != 0:
            members = int(rng.integers(1, 4))
            for _ in range(members):
                w = float(rng.choice(pool))
                targets = rng.permutation(rows)[:cols] + 1
                for j, i in enumerate(targets, start=1):
                    if rng.uniform() < 0.9:
                        entries[(int(i), j)] = w * (1 + tol * rng.uniform(-1, 1)) if kind == 3 else w
        if kind == 4:
            for i in rng.choice(rows, size=min(rows, 2), replace=False) + 1:
                c = float(rng.choice(pool))
                for j in range(1, cols + 1 - int(rng.uniform() < 0.2)):
                    entries[(int(i), j)] = c + (tol / 2 if rng.uniform() < 0.3 else 0.0)
        if kind == 5 and entries:
            key = list(entries)[int(rng.integers(len(entries)))]
            entries[key] *= float(rng.choice([1.5, 1 + tol / 2, 1 + 2 * tol]))
        if kind == 6:
            for _ in range(int(rng.integers(1, 4))):
                entries[(int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1)))] = float(rng.choice(pool))
        keys = list(entries)
        shuffled = {keys[k]: entries[keys[k]] for k in rng.permutation(len(keys))}
        yield TruncatedOperator(rows=rows, cols=cols, entries=shuffled)


def placement_cases(seed, count):
    """Seeded (spec, rows, cols, cert, a, truncate) over every placement edge.

    Families cycle through quadratic, triangular and random; some weights are
    zero; p = 1 specs may carry constant rows on spare indices; the window may
    stop below the top image, the columns below the domain; a is 0, 1 or
    uniform, and S's truncation is its top image or above it.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        members, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        kind = case % 3
        if kind == 0:
            family = quadratic_family(members, m)
        elif kind == 1:
            family = triangular_family(members, m)
        else:
            family = random_injection_family(rng, members, m, members * m + int(rng.integers(0, 12)))
        weights = rng.uniform(0.1, 2.0, members) * (rng.uniform(size=members) > 0.3)
        top = max(family.union_image())
        constant_row = None
        if case % 2 == 0:
            spare = [i for i in range(1, top + 3) if i not in family.union_image()]
            h = np.zeros(top + 2)
            h[rng.choice(spare, size=min(len(spare), int(rng.integers(1, 4))), replace=False) - 1] = rng.uniform(0.1, 1)
            constant_row = NonNegVector(h)
        spec = PreserverSpec(p=1.0 if case % 2 == 0 else 2.0, weights=tuple(weights), family=family,
                             constant_row=constant_row)
        cols = m if rng.uniform() < 0.5 else int(rng.integers(1, m + 1))
        rows = preservation_rows_needed(spec, cols) if rng.uniform() < 0.5 else int(rng.integers(1, top + 3))
        cert = vonneumann_complete(random_doubly_substochastic(rng, m))
        a = (0.0, 1.0, float(rng.uniform()))[int(rng.integers(0, 3))]
        truncate = None if rng.uniform() < 0.5 else top + int(rng.integers(0, 6))
        yield spec, rows, cols, cert, a, truncate


@st.composite
def families(draw):
    """Injective members over one domain, some with a collision planted between two of them."""
    members, dim = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    images = st.lists(st.integers(1, 3 * members * dim), min_size=dim, max_size=dim, unique=True)
    rows = [draw(images) for _ in range(members)]
    if members > 1 and draw(st.booleans()):
        k0, k = sorted(draw(st.lists(st.integers(0, members - 1), min_size=2, max_size=2, unique=True)))
        j0, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if rows[k0][j0] not in rows[k]:
            rows[k][j] = rows[k0][j0]
    return InjectionFamily(tuple(Injection(tuple(r)) for r in rows))
