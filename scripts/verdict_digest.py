"""SHA-256 over seeded verdicts of the three relation checks and the three
witness constructors, to compare two checkouts bit for bit.

    PYTHONPATH=src python scripts/verdict_digest.py [--seed N] [--pairs K]

Each of K seeded pairs is checked by check_majorize, check_weak_majorize and
check_submajorize, with and without a witness, at tol 1e-9, 0 and 1/8: 18
verdicts a pair.  The digest takes in each verdict's holds, failed_index and
message, each witness's class and row sums, and its ``data`` at n <= 12.
Every tenth pair also runs hlp_witness, weak_witness and intermediate_h at
the pair's own tol, taking in the chain, W's row sums or h, or the
precondition message raised.  The pairs cover
mixes and scaled mixes of g (majorized and weakly majorized), permutations,
independent draws, f well above g, f's maximum one ulp below, onto and one
ulp above fl(max g + tol), all-zero f or g, unequal dimensions in a third of
the cases, n from 1 to 600 and scales 2^-30, 1 and 2^30.

A second digest covers pairs at n = 16383, 16385 and 32769, which cross
the edges of the decision's scan blocks (16384 positions): mixes and scaled
mixes of g, f one entry short of g or two entries past it, and a failure
planted at the last position of the first block or the first of the
second (at n - 1 for n = 16383).  Each runs the 18 checks and the three constructors.  It prints its
counts and digest first; the last two lines printed are the counts and the
digest of the K seeded pairs.

A third digest, printed before both, covers the preserver layer over
seeded specs at the placement edges: quadratic, triangular and random
families, zero weights, p = 1 specs with constant rows on spare indices,
windows that stop below the top image and columns below the domain, a of
0, 1 or uniform, and S's truncation at or above its top image.  It takes in
the bytes of ``build_preserver``'s coordinate arrays, the verdict and
reason of both classifiers at tol 1e-9, 0 and 0.3 on the build and on a
copy with one entry scaled by 3/2 and one stray entry, the bytes of
``apply`` on a seeded vector, the cells of ``construct_S`` and the
``validate_family`` verdicts of the family and of a copy with one image
repeated.
"""
import argparse
import hashlib

import numpy as np

from submaj import NonNegVector
from submaj.demos import quadratic_family, triangular_family
from submaj.matrices import vonneumann_complete
from submaj.preservers import (
    Injection,
    InjectionFamily,
    PreserverSpec,
    TruncatedOperator,
    build_preserver,
    classify_preserver_l1,
    classify_preserver_lp,
    construct_S,
    preservation_rows_needed,
    random_injection_family,
    validate_family,
)
from submaj.relations import (
    check_majorize,
    check_submajorize,
    check_weak_majorize,
    hlp_witness,
    intermediate_h,
    weak_witness,
)
from submaj.sampling import random_doubly_substochastic

CHECKS = (check_majorize, check_weak_majorize, check_submajorize)
TOLS = (1e-9, 0.0, 0.125)


def _mixed(rng, g, m):
    """A convex mix of one to three permutations of g, cut or zero-padded to m."""
    w = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
    mix = sum(wi * g[rng.permutation(g.size)] for wi in w)
    return np.resize(mix, m) if m <= g.size else np.concatenate([mix, np.zeros(m - g.size)])


def _pair(rng, case):
    n = int(rng.integers(1, 13)) if case % 4 else int(rng.integers(13, 600))
    g = rng.integers(0, 5, n) / 4.0 if case % 7 == 0 else rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.25)
    m = n if case % 3 else int(rng.integers(1, 2 * n + 2))
    kind, tol = case % 9, TOLS[case // 9 % 3]
    if kind == 0:
        f = _mixed(rng, g, m)
    elif kind == 1:
        f = _mixed(rng, g, m) * rng.uniform(0.5, 1.0, m)
    elif kind == 2:
        f = np.resize(g[rng.permutation(n)], m)
    elif kind == 3:
        f = rng.uniform(0, 1, m)
    elif kind == 4:
        f = np.resize(g, m) * 1.5 + 0.01
    elif kind in (5, 6):
        f = np.resize(g[rng.permutation(n)], m) / 2
        edge = g.max() + tol
        f[rng.integers(m)] = (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))[int(rng.integers(3))]
    elif kind == 7:
        f = np.zeros(m)
    else:
        f, g = rng.uniform(0, 1, m), np.zeros(n)
    scale = 2.0 ** int(rng.choice([-30, 0, 30]))
    return NonNegVector(np.maximum(f, 0.0) * scale), NonNegVector(g * scale), tol


def _block_pairs(rng):
    """Pairs across the scan's block edges: (f, g, tol) for n = 16383, 16385 and 32769."""
    for n in (16383, 16385, 32769):
        for kind in range(6):
            g = rng.uniform(0, 1, n) * (rng.uniform(size=n) > 0.25)
            if kind == 0:
                f = _mixed(rng, g, n)
            elif kind == 1:
                f = _mixed(rng, g, n) * rng.uniform(0.5, 1.0, n)
            elif kind == 2:
                f = _mixed(rng, g, n - 1)
            elif kind == 3:
                f = _mixed(rng, g, n + 2)
            else:  # g = n, ..., 1 and f moves 1/4 from sorted position p + 1 to p
                g = np.arange(n, 0, -1, dtype=float)
                f, p = g.copy(), min(16384 + kind - 4, n - 1)
                f[p - 1] += 0.25
                f[p] -= 0.25
                f = f[rng.permutation(n)]
            scale = 2.0 ** int(rng.choice([-30, 0, 30]))
            yield NonNegVector(f * scale), NonNegVector(g * scale), TOLS[kind % 3]


def _digest(pairs, every):
    """The counts and SHA-256 of the verdicts of ``pairs``; every ``every``-th
    pair also runs the three witness constructors."""
    digest = hashlib.sha256()
    counts = dict.fromkeys(("verdicts", "position_1", "later", "holds", "unequal_dims", "witness_data", "constructors"), 0)

    def feed(*parts):
        for part in parts:
            digest.update(repr(part).encode() + b"|")

    for case, (f, g, pair_tol) in enumerate(pairs):
        counts["unequal_dims"] += f.dim != g.dim
        for tol in TOLS:
            for check in CHECKS:
                for with_witness in (True, False):
                    v = check(f, g, tol=tol, with_witness=with_witness)
                    counts["verdicts"] += 1
                    counts["holds"] += v.holds
                    counts["position_1"] += v.failed_index == 1
                    counts["later"] += (v.failed_index or 1) > 1
                    feed(check.__name__, with_witness, tol, v.holds, v.failed_index, v.message)
                    if v.witness is not None:
                        feed(v.witness.matrix_class.name, v.witness.row_sums.tobytes())
                        if v.witness.n <= 12:
                            counts["witness_data"] += 1
                            feed(v.witness.data.tobytes())
        if case % every == 0:
            for build in (hlp_witness, weak_witness, intermediate_h):
                counts["constructors"] += 1
                try:
                    out = build(f, g, tol=pair_tol)
                except ValueError as err:
                    feed(build.__name__, str(err))
                else:
                    if build is hlp_witness:
                        feed(build.__name__, out.steps, out.pre_perm, out.post_perm)
                    else:
                        feed(build.__name__, (out.values if build is intermediate_h else out.row_sums).tobytes())
    return counts, digest.hexdigest()


def _specs(rng, count):
    """Seeded (spec, rows, cols, cert, a, truncate) across the placement edges."""
    for case in range(count):
        members, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        if case % 3 == 0:
            family = quadratic_family(members, m)
        elif case % 3 == 1:
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


def _preserver_digest(rng, count):
    """The counts and SHA-256 of the preserver layer on ``count`` seeded specs."""
    digest = hashlib.sha256()
    counts = dict.fromkeys(("specs", "cells", "accepted", "rejected", "constant_rows", "collisions"), 0)

    def feed(*parts):
        for part in parts:
            digest.update(repr(part).encode() + b"|")

    def cells(t):
        return t.rows, t.cols, t._i.tobytes(), t._j.tobytes(), t._v.tobytes()

    for spec, rows, cols, cert, a, truncate in _specs(rng, count):
        counts["specs"] += 1
        counts["constant_rows"] += spec.constant_row is not None
        t = build_preserver(spec, rows, cols)
        counts["cells"] += t._v.size
        feed(cells(t))
        changed = dict(t.entries)
        if changed:
            key = list(changed)[int(rng.integers(len(changed)))]
            changed[key] *= 1.5
        changed[(int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1)))] = float(rng.uniform(0.1, 1))
        for op in (t, TruncatedOperator(rows=rows, cols=cols, entries=changed)):
            for tol in (1e-9, 0.0, 0.3):
                for classify in (classify_preserver_lp, classify_preserver_l1):
                    verdict = classify(op, tol)
                    counts["accepted" if verdict.accepted else "rejected"] += 1
                    feed(classify.__name__, tol, verdict.accepted, verdict.reason)
        f = rng.uniform(0, 2, cols) * (rng.uniform(size=cols) > 0.3)
        feed(t.apply(NonNegVector(f)).values.tobytes())
        feed(cells(construct_S(cert, spec.family, a, truncate=truncate)))
        members = spec.family.members
        repeated = [Injection((members[0].mapping[0], *range(10**6, 10**6 + len(members[0].mapping) - 1)))]
        for family in (spec.family, InjectionFamily(tuple(members) + tuple(repeated))):
            verdict = validate_family(family)
            counts["collisions"] += not verdict.valid
            feed(verdict.valid, verdict.collision)
    return counts, digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--pairs", type=int, default=4200)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    for counts, digest in (
        _preserver_digest(np.random.default_rng([args.seed, 3]), 600),
        _digest(_block_pairs(np.random.default_rng([args.seed, 16384])), 1),
        _digest((_pair(rng, case) for case in range(args.pairs)), 10),
    ):
        print(counts)
        print(digest)


if __name__ == "__main__":
    main()
