"""Time each stage of a weak witness against n, with its memory peak.

    python3 scripts/witness_sweep.py [--sizes 1000 10000 100000 1000000] [--repeats 3]

Run from the root of a checkout; it imports that checkout's ``src/submaj``
and the pair generator of ``perfbench/inputs.py``, and needs only the
standard library and numpy.  For each n it draws the perfbench weak pair
``weak_pair(default_rng([1, 1]), n)`` and times, best of at least
``--repeats`` calls and of as many as fit in 0.25 s:

* ``sort``: the two values-only sorts (``_Sorted``, which sorts as it is
  made);
* ``decide``: the whole decision as a witness-building call runs it
  (``_decide`` on the pair as given, both sorts and the blocked scan, then
  ``_padded``, the two records padded to one length);
* ``raised``: the intermediate h (``_raised``, with the partial sums of the
  two sorted copies);
* ``orders``: the two stable orders (of f and of g);
* ``h_record``: h's sorted record, derived from f's (``_raised_record``);
* ``chain``: the T-transform chain for h against g (``_hlp_chain``);
* ``chain_matrix``: W and D1 from the chain (``_ChainMatrix``);
* ``apply``: W applied to g, which runs the chain;
* ``check_submajorize``: the public call, end to end;

and, in a separate run, the tracemalloc peak of ``check_submajorize``.
Stages that read a cached order run on fresh sorted records, so each
repeat pays for its own; ``raised`` and ``h_record`` are given the
decision's records with f's order already made, as the weak witness has
them.  The last line of standard output is one JSON object: per n the times
in ms, the steps, the peak in MB and in units of 8n bytes, and per decade
the ratio of each time and of the peak.
"""
import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import TOL, weak_pair  # noqa: E402
from submaj import NonNegVector, check_submajorize  # noqa: E402
from submaj.matrices import apply  # noqa: E402
from submaj.relations import _ChainMatrix, _decide, _hlp_chain, _padded, _raised, _raised_record, _Sorted  # noqa: E402


def _best(run, repeats, prepare=lambda: ()):
    """The least wall time in ms of ``run(*prepare())`` over at least
    ``repeats`` calls, and more until they took 0.25 s (at most 1000);
    ``prepare`` is not timed, and a full collection runs before each call,
    as perfbench runs one before each operation."""
    best, spent, calls = float("inf"), 0.0, 0
    while calls < repeats or (spent < 0.25 and calls < 1000):
        args = prepare()
        gc.collect()
        t = time.perf_counter()
        run(*args)
        elapsed = time.perf_counter() - t
        best, spent, calls = min(best, elapsed), spent + elapsed, calls + 1
    return 1e3 * best


def _decided(fv, gv):
    """The two sorted records of a witness-building decision, with f's order read."""
    sf, sg = _padded(*_decide(fv, gv, TOL, False)[:2])
    sf.order
    return sf, sg


def measure(n: int, repeats: int) -> dict:
    f, g = weak_pair(np.random.default_rng([1, 1]), n)
    fv, gv = NonNegVector(f), NonNegVector(g)
    sf, sg = _decided(fv, gv)
    h = _raised(sf, sg)
    sh = _raised_record(h, sf)
    steps = _hlp_chain(sh, sg, TOL)
    scales = np.divide(f, h, out=np.ones(n), where=h > 0)
    w = _ChainMatrix(steps, sh.order, sg.order, TOL, scales)
    ms = {
        "sort": _best(lambda: (_Sorted(f), _Sorted(g)), repeats),
        "decide": _best(lambda: _padded(*_decide(fv, gv, TOL, False)[:2]), repeats),
        "raised": _best(_raised, repeats, lambda: _decided(fv, gv)),
        "orders": _best(lambda *s: [x.order for x in s], repeats, lambda: (_Sorted(f), _Sorted(g))),
        "h_record": _best(lambda sf: _raised_record(h, sf), repeats, lambda: _decided(fv, gv)[:1]),
        "chain": _best(lambda: _hlp_chain(sh, sg, TOL), repeats),
        "chain_matrix": _best(lambda: _ChainMatrix(steps, sh.order, sg.order, TOL, scales), repeats),
        "apply": _best(lambda: apply(w, gv), repeats),
        "check_submajorize": _best(lambda: check_submajorize(fv, gv), repeats),
    }
    gc.collect()
    tracemalloc.start()
    try:
        check_submajorize(fv, gv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "steps": len(steps),
        "ms": {k: round(v, 3) for k, v in ms.items()},
        "peak_mb": round(peak / 2**20, 2),
        "peak_per_8n_bytes": round(peak / (8 * n), 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10**3, 10**4, 10**5, 10**6])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    rows = []
    for n in args.sizes:
        rows.append(measure(n, args.repeats))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    ratios = []
    for a, b in zip(rows, rows[1:]):
        if b["n"] == 10 * a["n"]:
            per = {k: round(b["ms"][k] / a["ms"][k], 2) if a["ms"][k] else None for k in a["ms"]}
            ratios.append({"from": a["n"], "to": b["n"], "ms": per, "peak": round(b["peak_mb"] / a["peak_mb"], 2)})
    print(json.dumps({"sizes": rows, "per_decade": ratios}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
