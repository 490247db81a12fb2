"""Benchmark entry point.

    python3 perfbench/run.py --workload {witness,decide,preservers,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  See perfbench/README.md.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import settings  # noqa: E402  (before numpy is imported)

settings.apply()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("witness", "decide", "preservers", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "submaj" / "__init__.py").is_file():
        print(f"error: no submaj sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
