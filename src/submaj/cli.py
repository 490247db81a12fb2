"""Command-line front end.

Exit code contract: 0 = relation holds / operation succeeded, 1 = relation
fails / classification rejects / selftest failures, 2 = usage or input error
(a bad or malformed input file, or a ValueError from a library argument
check such as --cols above the domain), 3 = internal error: any other
exception, a fault in the program and never a verdict on the input.
All randomness flows from one master seed; the only environment variable
honored is MAJ_TOL (default class tolerance), keeping runs reproducible.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .acceptance import run_acceptance
from .config import DEFAULT_CLASS_TOL, DEFAULT_EXACT_TOL, Config
from .demos import display_spec, reciprocal_square_example, shift_forcing
from .matrices import MatrixClass, StochMatrix, vonneumann_complete
from .preservers import (
    PreserverSpec,
    TruncatedOperator,
    build_preserver,
    classify_preserver_l1,
    classify_preserver_lp,
    empirical_preservation_check,
)
from .relations import check_majorize, check_submajorize, check_weak_majorize, hlp_witness
from .vectors import NonNegVector

SHIFT_ANNOTATION = (
    "annotation: in the untruncated setting the forced witness is the right "
    "shift, which no doubly stochastic operator dominates entrywise; the "
    "shifted sequence is therefore weakly majorized but not submajorized. "
    "This is a limit statement, not a finite computation."
)


class InputError(Exception):
    """Bad file, malformed JSON, or arguments violating a precondition."""


def _load(path: str, parse):
    """``parse`` applied to the JSON document at ``path``.

    An unreadable file, malformed JSON, or a document that ``parse`` rejects
    with a ValueError, TypeError or KeyError is an :class:`InputError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return parse(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_vector(path: str) -> NonNegVector:
    return _load(path, NonNegVector.from_json_dict)


def _weights(obj) -> tuple[float, ...]:
    if isinstance(obj, list):
        return tuple(float(v) for v in obj)
    try:
        return tuple(float(v) for v in NonNegVector.from_json_dict(obj).values)
    except ValueError as exc:
        raise ValueError(f"expected a JSON array or a vector object: {exc}") from exc


def _load_weights(path: str) -> tuple[float, ...]:
    return _load(path, _weights)


def _emit(payload, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _format_matrix(data: np.ndarray) -> str:
    rows = []
    for row in np.atleast_2d(data):
        rows.append("  ".join(f"{v:10.6g}" for v in row))
    return "\n".join(rows)


# ----------------------------------------------------------------------
# Subcommand handlers (return the exit code)
# ----------------------------------------------------------------------

_CHECKS = {
    "majorize": check_majorize,
    "weak": check_weak_majorize,
    "sub": check_submajorize,
}


def _cmd_check(args, cfg: Config) -> int:
    f = _load_vector(args.f)
    g = _load_vector(args.g)
    verdict = _CHECKS[args.relation](f, g, cfg.tol_class, with_witness=bool(args.emit_witness))
    if args.emit_witness and verdict.holds and verdict.witness is not None:
        payload = {"witness": verdict.witness.to_json_dict()}
        if verdict.certificate is not None:
            payload["certificate"] = verdict.certificate.to_json_dict()
        _emit(payload, args.emit_witness)
    if cfg.output_mode == "json":
        print(
            json.dumps(
                {
                    "relation": args.relation,
                    "holds": verdict.holds,
                    "failed_index": verdict.failed_index,
                    "message": verdict.message,
                }
            )
        )
    else:
        print(verdict.message)
    return 0 if verdict.holds else 1


def _cmd_witness(args, cfg: Config) -> int:
    f = _load_vector(args.f)
    g = _load_vector(args.g)
    verdict = check_majorize(f, g, cfg.tol_class, with_witness=False)
    if not verdict.holds:
        print(f"relation fails: {verdict.message}", file=sys.stderr)
        return 1
    chain = hlp_witness(f, g, cfg.tol_class)
    _emit(chain.to_json_dict(), args.out)
    return 0


def _cmd_complete(args, cfg: Config) -> int:
    matrix = _load(args.matrix, lambda obj: StochMatrix.from_json_dict(obj, cfg.tol_class))
    if not matrix.matrix_class.at_least(MatrixClass.DOUBLY_SUBSTOCHASTIC):
        raise InputError(
            f"input matrix is {matrix.matrix_class.value}; completion requires doubly substochastic"
        )
    cert = vonneumann_complete(matrix, cfg.tol_class, cfg.tol_exact)
    _emit(cert.to_json_dict(), args.out)
    return 0


def _cmd_classify(args, cfg: Config) -> int:
    op = _load(args.operator, TruncatedOperator.from_json_dict)
    classify = classify_preserver_lp if args.space == "lp" else classify_preserver_l1
    verdict = classify(op, cfg.tol_class)
    if cfg.output_mode == "json":
        print(json.dumps({"space": args.space, "accepted": verdict.accepted, "reason": verdict.reason}))
    else:
        print(("accepted: " if verdict.accepted else "rejected: ") + verdict.reason)
    return 0 if verdict.accepted else 1


def _cmd_build_preserver(args, cfg: Config) -> int:
    spec = _load(args.spec, PreserverSpec.from_json_dict)
    op = build_preserver(spec, rows=args.rows, cols=args.cols)
    _emit(op.to_json_dict(), args.out)
    return 0


def _cmd_preserve_test(args, cfg: Config) -> int:
    spec = _load(args.spec, PreserverSpec.from_json_dict)
    report = empirical_preservation_check(
        spec, trials=args.trials, n=args.dim, seed=cfg.seed, tol=cfg.tol_class
    )
    payload = {
        "trials": report.trials,
        "passes": report.passes,
        "failures": report.failures,
    }
    if report.first_counterexample is not None:
        ce = report.first_counterexample
        payload["first_counterexample"] = {
            "trial": ce.trial,
            "f": ce.f.to_json_dict(),
            "g": ce.g.to_json_dict(),
        }
    if cfg.output_mode == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{report.passes}/{report.trials} trials preserved the order")
        if report.first_counterexample is not None:
            print(f"first counterexample at trial {report.first_counterexample.trial}")
    return 0 if report.all_passed else 1


def _cmd_demo_shift(args, cfg: Config) -> int:
    n = args.n
    g = NonNegVector(np.array([1.0 / (i * i) for i in range(1, n + 1)]))
    result = shift_forcing(g)
    if cfg.output_mode == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "forced": result.forced.to_json_dict(),
                    "fully_determined": result.fully_determined,
                    "conclusion": result.conclusion,
                    "annotation": SHIFT_ANNOTATION,
                },
                indent=2,
            )
        )
    else:
        print(f"forced witness for the shifted 1/i^2 sequence, n = {n}:")
        print(_format_matrix(result.forced.to_dense()))
        print(f"fully determined: {result.fully_determined}; conclusion: {result.conclusion}")
        print(SHIFT_ANNOTATION)
    return 0


def _cmd_demo_paper_matrix(args, cfg: Config) -> int:
    lam = _load_weights(args.lam) if args.lam else (0.5, 0.25, 0.125, 0.0625, 0.03125)
    mu = _load_weights(args.mu) if args.mu else lam
    spec = display_spec(args.which, tuple(lam), args.a, tuple(mu), args.rows, args.cols)
    op = build_preserver(spec, rows=args.rows, cols=args.cols)
    if cfg.output_mode == "json":
        print(json.dumps({"which": args.which, "operator": op.to_json_dict()}, indent=2))
    else:
        print(f"{args.which} display block ({args.rows}x{args.cols}):")
        print(_format_matrix(op.to_dense()))
    return 0


def _cmd_demo_recip_square(args, cfg: Config) -> int:
    report = reciprocal_square_example(args.n, cfg.tol_class)
    payload = {
        "n": report.n,
        "f": report.f.to_json_dict(),
        "g": report.g.to_json_dict(),
        "right_shift_witness_exact": report.right_shift_witness_exact,
        "weak_g_under_f_holds": report.weak_g_under_f_holds,
        "weak_f_under_g_holds": report.weak_f_under_g_holds,
        "left_shift_window_exact": report.left_shift_window_exact,
        "window_boundary_defect": report.window_boundary_defect,
        "partial_matched_support": list(report.partial_matched_support),
        "strict_perm_with_zero_pad": (
            list(report.strict_perm_with_zero_pad)
            if report.strict_perm_with_zero_pad is not None
            else None
        ),
        "infinite_range_excludes_zero": report.infinite_range_excludes_zero,
    }
    if cfg.output_mode == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"f(i) = 1/i^2 truncated at n = {report.n}; g = f shifted right")
        print(f"  g equals the shift of f exactly:      {report.right_shift_witness_exact}")
        print(f"  g weakly majorized by f:              {report.weak_g_under_f_holds}")
        print(f"  f weakly majorized by g (truncated):  {report.weak_f_under_g_holds}")
        print(f"  left shift matches f on the window:   {report.left_shift_window_exact}"
              f" (boundary defect {report.window_boundary_defect:.3g})")
        print(f"  window support matched into g:        {list(report.partial_matched_support)}")
        print(f"  strict permutation after zero-pad:    "
              f"{'found' if report.strict_perm_with_zero_pad else 'none'}")
        print("  annotation: 0 = g(1) is not a value of the untruncated sequence,"
              " so no full permutation links f and g beyond every truncation.")
    return 0


def _cmd_selftest(args, cfg: Config) -> int:
    results = run_acceptance(seed=cfg.seed, tol=cfg.tol_class, tol_exact=cfg.tol_exact)
    if cfg.output_mode == "json":
        print(json.dumps([asdict(r) for r in results], indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_global_options(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # The same flags parse before or after the subcommand; SUPPRESS keeps a
    # trailing occurrence from stomping an explicit leading one with defaults.
    s = argparse.SUPPRESS
    parser.add_argument(
        "--tol",
        type=float,
        default=s if trailing else float(os.environ.get("MAJ_TOL", DEFAULT_CLASS_TOL)),
        help="class/membership tolerance (env MAJ_TOL overrides the default)",
    )
    parser.add_argument("--exact-tol", type=float, default=s if trailing else DEFAULT_EXACT_TOL,
                        help="tolerance for algebraic identities")
    parser.add_argument("--seed", type=int, default=s if trailing else 0,
                        help="master random seed")
    parser.add_argument("--json", action="store_true", default=s if trailing else False,
                        help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submaj",
        description="Majorization orders with constructive matrix witnesses.",
    )
    _add_global_options(parser, trailing=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, trailing=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="decide a relation between two vectors")
    p.add_argument("--relation", choices=sorted(_CHECKS), required=True)
    p.add_argument("f", help="vector JSON file")
    p.add_argument("g", help="vector JSON file")
    p.add_argument("--emit-witness", metavar="OUT", help="write the witness JSON here")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("witness", parents=[common], help="emit the T-transform chain for a majorization")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("complete", parents=[common], help="greedy doubly stochastic completion")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(handler=_cmd_complete)

    p = sub.add_parser("classify", parents=[common], help="test an operator truncation against the row criteria")
    p.add_argument("--space", choices=("lp", "l1"), required=True)
    p.add_argument("operator", help="operator JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("build-preserver", parents=[common], help="build an operator truncation from a spec")
    p.add_argument("spec", help="preserver spec JSON file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(handler=_cmd_build_preserver)

    p = sub.add_parser("preserve-test", parents=[common], help="fuzz order preservation for a spec")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim", type=int, default=10)
    p.set_defaults(handler=_cmd_preserve_test)

    demo = sub.add_parser("demo", help="worked examples").add_subparsers(
        dest="demo", required=True
    )
    p = demo.add_parser("shift", parents=[common], help="forcing argument for the shifted decreasing sequence")
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(handler=_cmd_demo_shift)

    p = demo.add_parser("paper-matrix", parents=[common], help="reference display blocks of the built-in families")
    p.add_argument("--which", choices=("T1", "T", "example2"), required=True)
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--lambda", dest="lam", metavar="FILE", help="weights JSON (array or vector)")
    p.add_argument("--a", type=float, default=1.0, help="constant-row value for T")
    p.add_argument("--mu", metavar="FILE", help="constant-row weights JSON for example2")
    p.set_defaults(handler=_cmd_demo_paper_matrix)

    p = demo.add_parser("recip-square", parents=[common], help="the 1/i^2 sequence and its right shift")
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(handler=_cmd_demo_recip_square)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance battery")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code) if exc.code else 0
    try:
        cfg = Config(
            tol_class=args.tol,
            tol_exact=args.exact_tol,
            seed=args.seed,
            output_mode="json" if args.json else "text",
        )
        return args.handler(args, cfg)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault in the program
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
