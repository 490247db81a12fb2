"""Set-up probe: a fresh interpreter readies one workload and reports when.

    python3 perfbench/probe.py WORKLOAD SEED

Prints "<CLOCK_MONOTONIC when ready> <seconds spent generating inputs>".
The benchmark starts this several times and takes the median of
(ready - start - generation) as setup_s: interpreter start, import submaj
and wrapping the inputs in submaj's types.
"""
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import settings  # noqa: E402  (before numpy is imported)

settings.apply()


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    from perfbench import workloads

    t0 = time.perf_counter()
    raw = workloads.generate(name, seed)
    gen_s = time.perf_counter() - t0
    import submaj

    workdir = ROOT / "perfbench" / f".work-{os.getpid()}"
    try:
        workloads.wrap(name, raw, submaj, str(workdir))
        print(time.clock_gettime(time.CLOCK_MONOTONIC), gen_s, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
