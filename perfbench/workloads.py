"""The four workloads: their seeded inputs, the operations timed, and the checks.

Each workload is three steps.  ``generate`` draws the inputs with numpy
alone.  ``wrap`` puts them into submaj's types (and, for ``cli``, writes the
files the commands read); it is the part of set-up that the program pays for.
``operations`` computes the exact references, untimed, and returns the list
of operations that one round runs.  Sizes and the order of operations never
depend on the seed; the seed only picks values.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import checks, inputs

WORKLOADS = ("witness", "decide", "preservers", "cli")

# (n, pairs that hold) per witness size; each size adds one failing pair.
WITNESS_MIX = ((250, 2), (500, 5), (1000, 5), (2000, 5))
TINY_WITNESS_MIX = ((6, 1), (12, 1))
FAULT_2A_EXTRA = 3
DECIDE_SIZES = (10_000, 30_000, 100_000)
TINY_DECIDE_SIZES = (40, 90)
DECIDE_KINDS = (inputs.major_pair, inputs.weak_pair, inputs.failing_pair)
# (n, pairs, scale) of the fault 2b inputs, all decided by check_majorize.
FAULT_2B = ((50, 3, inputs.SCALE), (100_000, 3, 1.0))
TINY_FAULT_2B = ((50, 3, inputs.SCALE), (1_000, 2, 1.0))
PRESERVER_COLS = (200, 400, 700)
TINY_PRESERVER_COLS = (14, 20)
PRESERVER_KINDS = ("quadratic_p2", "quadratic_const", "triangular_const", "random", "perturbed")
MEMBERS = 4
CONST_ROWS = 3
SMALL_DIM = 6
FUZZ_TRIALS = 3
FUZZ_DIM = 12
CLI_N = 1000
TINY_CLI_N = 30
CLI_CHECKS = (
    ("majorize", "hold"),
    ("weak", "fail"),
    ("sub", "hold"),
    ("majorize", "fail"),
    ("weak", "hold"),
    ("sub", "fail"),
)
PRESERVE_TRIALS = 5
RELATIONS = {"majorize": "check_majorize", "weak": "check_weak_majorize", "sub": "check_submajorize"}


@dataclass
class Op:
    """One timed call; ``check`` lists what is wrong with its output.

    ``fault`` names the program fault that may make this operation fail; a
    failure of an operation without one makes the run incorrect.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fault: Optional[str] = None
    warm: bool = False
    group: str = ""  # operations reported together in the traced breakdown


def generate(name: str, seed: int, tiny: bool = False):
    return _GENERATE[name](seed, tiny)


def wrap(name: str, raw, sm, workdir):
    return _WRAP[name](raw, sm, workdir)


def operations(name: str, raw, wrapped, sm, root, workdir, in_process: bool = False) -> list:
    return _OPERATIONS[name](raw, wrapped, sm, root, workdir, in_process)


# ----------------------------------------------------------------------
# witness: check_submajorize with witness and certificate
# ----------------------------------------------------------------------


def _gen_witness(seed, tiny):
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n, holds in TINY_WITNESS_MIX if tiny else WITNESS_MIX:
        cases += [("hold", n, *inputs.weak_pair(rng, n)) for _ in range(holds)]
        cases.append(("fail", n, *inputs.failing_pair(rng, n)))
    cases += [("2a", 3, f, g) for f, g in inputs.fault_2a_pairs(FAULT_2A_EXTRA)]
    return cases


def _wrap_witness(raw, sm, workdir):
    return [(sm.NonNegVector(f), sm.NonNegVector(g)) for _, _, f, g in raw]


def _check_witness_verdict(v, f, g, expected, label) -> list:
    problems = checks.check_verdict(v.holds, v.failed_index, expected, label)
    if problems or not v.holds:
        return problems
    if v.witness is None or v.certificate is None:
        return [f"{label}: accepted without a witness and a certificate"]
    w = v.witness.data
    return checks.check_witness(w, f, g, label) + checks.check_completion(
        v.certificate.completion.data, w, label
    )


def _ops_witness(raw, wrapped, sm, root, workdir, in_process):
    smallest = min(n for kind, n, _, _ in raw if kind != "2a")
    ops = []
    for (kind, n, f, g), (fv, gv) in zip(raw, wrapped):
        label = f"{kind} n={n}"
        expected = inputs.reference(f, g).weak
        ops.append(
            Op(
                label,
                run=lambda fv=fv, gv=gv: sm.check_submajorize(fv, gv),
                check=lambda v, f=f, g=g, e=expected, label=label: _check_witness_verdict(v, f, g, e, label),
                fault="2a" if kind == "2a" else None,
                warm=n == smallest or kind == "2a",
            )
        )
    return ops


# ----------------------------------------------------------------------
# decide: the three decisions without witnesses, at large n
# ----------------------------------------------------------------------


def _gen_decide(seed, tiny):
    rng = np.random.default_rng([seed, 2])
    bases = []
    for n in TINY_DECIDE_SIZES if tiny else DECIDE_SIZES:
        for make in DECIDE_KINDS:
            f, g = make(rng, n)
            pf, pg = rng.permutation(n), rng.permutation(n)
            variants = {
                "base": (f, g),
                "scaled": (f * inputs.SCALE, g * inputs.SCALE),
                "permuted": (f[pf], g[pg]),
            }
            bases.append((make.__name__, n, variants))
    faults = []
    for stream, (n, count, scale) in enumerate(TINY_FAULT_2B if tiny else FAULT_2B):
        faults += [(n, scale, f * scale, g * scale) for f, g in inputs.fault_2b_pairs(n, count, stream)]
    return bases, faults


def _wrap_decide(raw, sm, workdir):
    bases, faults = raw
    vec = sm.NonNegVector
    return (
        [{k: (vec(f), vec(g)) for k, (f, g) in variants.items()} for _, _, variants in bases],
        [(vec(f), vec(g)) for _, _, f, g in faults],
    )


def _decide_op(sm, relation, fv, gv, expected, label, group, fault=None, warm=False):
    def check(v):
        problems = checks.check_verdict(v.holds, v.failed_index, expected, label)
        if v.witness is not None:
            problems.append(f"{label}: a witness was built although none was asked for")
        return problems

    return Op(
        label,
        run=lambda: getattr(sm, RELATIONS[relation])(fv, gv, with_witness=False),
        check=check,
        fault=fault,
        warm=warm,
        group=group,
    )


def _ops_decide(raw, wrapped, sm, root, workdir, in_process):
    bases, faults = raw
    wrapped_bases, wrapped_faults = wrapped
    smallest = min(n for _, n, _ in bases)
    ops = []
    relations = list(RELATIONS)
    for k, ((kind, n, variants), vecs) in enumerate(zip(bases, wrapped_bases)):
        # Scaling by a power of two and permuting must not change the verdict,
        # so every variant is held to the base pair's exact reference.
        ref = inputs.reference(*variants["base"])
        for v, (variant, (fv, gv)) in enumerate(vecs.items()):
            # A Latin square: at each n, every relation meets every kind and every variant once.
            relation = relations[(k + v) % len(relations)]
            label = f"{kind} {variant} {relation} n={n}"
            ops.append(_decide_op(sm, relation, fv, gv, ref.index(relation), label, f"n={n}", warm=n == smallest))
    for (n, scale, f, g), (fv, gv) in zip(faults, wrapped_faults):
        label = f"2b majorize scale={scale:g} n={n}"
        expected = inputs.reference(f, g).majorize
        ops.append(_decide_op(sm, "majorize", fv, gv, expected, label, f"2b n={n}", "2b", warm=True))
    return ops


# ----------------------------------------------------------------------
# preservers: build, classify, apply, intertwine, force, fuzz
# ----------------------------------------------------------------------


def _gen_preservers(seed, tiny):
    rng = np.random.default_rng([seed, 3])
    cases = []
    for cols in TINY_PRESERVER_COLS if tiny else PRESERVER_COLS:
        for kind in PRESERVER_KINDS:
            raw_d = rng.uniform(0.0, 1.0, size=(SMALL_DIM, SMALL_DIM))
            cap = max(raw_d.sum(axis=0).max(), raw_d.sum(axis=1).max())
            c = {
                "kind": kind,
                "cols": cols,
                "weights": rng.uniform(0.1, 1.0, MEMBERS),
                "x": rng.uniform(0.0, 1.0, cols),
                "shift_g": np.cumsum(rng.uniform(0.5, 1.5, cols))[::-1].copy(),
                "d": raw_d / cap * rng.uniform(0.5, 1.0),
                "fuzz_seed": int(rng.integers(2**31)),
                "perturb": 1.0 + rng.uniform(0.25, 0.75),
            }
            if kind == "random":
                c["images"] = inputs.random_images(rng, MEMBERS, cols)
                c["small_images"] = inputs.random_images(rng, MEMBERS, SMALL_DIM)
            else:
                family = "triangular" if kind == "triangular_const" else "quadratic"
                c["images"] = inputs.family_images(family, MEMBERS, cols)
                c["small_images"] = inputs.family_images(family, MEMBERS, SMALL_DIM)
            if kind == "quadratic_const":
                c["const_rows"] = np.array([1])
                c["const_values"] = rng.uniform(0.1, 1.0, 1)
            elif kind == "triangular_const":
                c["const_rows"] = inputs.constant_row_indices(CONST_ROWS)
                c["const_values"] = rng.uniform(0.1, 1.0, CONST_ROWS)
            c["rows"] = int(max(c["images"].max(), *c.get("const_rows", [1])))
            cases.append(c)
    return cases


def _wrap_preservers(raw, sm, workdir):
    p = sm.preservers

    def family(images):
        return p.InjectionFamily(tuple(p.Injection(tuple(int(i) for i in row)) for row in images))

    out = []
    for c in raw:
        w = {"x": sm.NonNegVector(c["x"]), "shift_g": sm.NonNegVector(c["shift_g"]), "d": sm.classify_matrix(c["d"])}
        if c["kind"] == "random":
            w["family"] = family(c["images"])
            w["small"] = family(c["small_images"])
        out.append(w)
    return out


def _preserver_run(sm, c, w):
    p, demos = sm.preservers, sm.demos
    kind, cols, weights = c["kind"], c["cols"], tuple(c["weights"])
    constant_row = None
    if kind == "random":
        family, small = w["family"], w["small"]
    elif kind == "triangular_const":
        family = demos.triangular_family(MEMBERS, cols)
        small = demos.triangular_family(MEMBERS, SMALL_DIM)
        constant_row = demos.triangular_constant_row(c["const_values"], c["rows"])
    else:
        family = demos.quadratic_family(MEMBERS, cols)
        small = demos.quadratic_family(MEMBERS, SMALL_DIM)
        if kind == "quadratic_const":
            h = np.zeros(c["rows"])
            h[0] = c["const_values"][0]
            constant_row = sm.NonNegVector(h)
    exponent = 1.0 if constant_row is not None else 2.0  # a constant row needs p = 1
    spec = p.PreserverSpec(p=exponent, weights=weights, family=family, constant_row=constant_row)
    rows = p.preservation_rows_needed(spec, cols)
    op = p.build_preserver(spec, rows=rows, cols=cols)
    if kind == "perturbed":
        entries = dict(op.entries)
        entries[(int(c["images"][0, cols - 1]), cols)] *= c["perturb"]
        op = p.TruncatedOperator(rows=rows, cols=cols, entries=entries)
    return {
        "rows": rows,
        "l1": p.classify_preserver_l1(op),
        "lp": p.classify_preserver_lp(op),
        "y": op.apply(w["x"]),
        "S": p.construct_S(sm.vonneumann_complete(w["d"]), small),
        "shift": demos.shift_forcing(w["shift_g"]),
        "fuzz": p.empirical_preservation_check(spec, trials=FUZZ_TRIALS, n=FUZZ_DIM, seed=c["fuzz_seed"]),
    }


def _preserver_check(out, c, label) -> list:
    kind, cols = c["kind"], c["cols"]
    problems = []
    if out["rows"] != c["rows"]:
        problems.append(f"{label}: window height {out['rows']}, expected {c['rows']}")
    want_l1 = kind != "perturbed"
    want_lp = kind in ("quadratic_p2", "random")
    for space, want in (("l1", want_l1), ("lp", want_lp)):
        if out[space].accepted != want:
            problems.append(f"{label}: classify_preserver_{space} accepted={out[space].accepted}, expected {want}")
    expected = checks.scatter_add(
        c["images"], c["weights"], c["x"], c["rows"], c.get("const_rows"), c.get("const_values")
    )
    if kind == "perturbed":
        expected[c["images"][0, cols - 1] - 1] += (c["perturb"] - 1) * c["weights"][0] * c["x"][cols - 1]
    problems += checks.check_apply(out["y"].values, expected, label)
    s = out["S"]
    if s.rows != int(c["small_images"].max()):
        problems.append(f"{label}: S has {s.rows} rows, expected {int(c['small_images'].max())}")
    else:
        problems += checks.check_intertwining(s.entries, s.rows, c["small_images"], c["d"], label)
    sf = out["shift"]
    problems += checks.check_shift_forcing(sf.forced.entries, sf.fully_determined, sf.conclusion, cols, label)
    fuzz = out["fuzz"]
    if fuzz.trials != FUZZ_TRIALS or fuzz.passes != FUZZ_TRIALS:
        problems.append(f"{label}: {fuzz.passes}/{fuzz.trials} preservation trials passed")
    return problems


def _ops_preservers(raw, wrapped, sm, root, workdir, in_process):
    smallest = min(c["cols"] for c in raw)
    ops = []
    for c, w in zip(raw, wrapped):
        label = f"{c['kind']} cols={c['cols']}"
        ops.append(
            Op(
                label,
                run=lambda c=c, w=w: _preserver_run(sm, c, w),
                check=lambda out, c=c, label=label: _preserver_check(out, c, label),
                warm=c["cols"] == smallest,
            )
        )
    return ops


# ----------------------------------------------------------------------
# cli: one fresh interpreter per command
# ----------------------------------------------------------------------


def _gen_cli(seed, tiny):
    rng = np.random.default_rng([seed, 4])
    n = TINY_CLI_N if tiny else CLI_N
    return {
        "hold": inputs.major_pair(rng, n),
        "fail": inputs.failing_pair(rng, n),
        "weights": rng.uniform(0.1, 1.0, 3),
        "fuzz_seed": int(rng.integers(2**31)),
    }


def _wrap_cli(raw, sm, workdir):
    os.makedirs(workdir, exist_ok=True)
    files = {}
    for case in ("hold", "fail"):
        for name, values in zip("fg", raw[case]):
            path = os.path.join(workdir, f"{name}_{case}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sm.NonNegVector(values).to_json_dict(), fh)
            files[f"{name}_{case}"] = path
    spec = sm.preservers.PreserverSpec(
        p=2.0, weights=tuple(raw["weights"]), family=sm.demos.quadratic_family(len(raw["weights"]), 10)
    )
    files["spec"] = os.path.join(workdir, "spec.json")
    with open(files["spec"], "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh)
    return files


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(str(root), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_runner(sm, root, in_process):
    if in_process:
        import submaj.cli  # noqa: F401  (makes sm.cli available)

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = sm.cli.main(argv)
            return code, buf.getvalue()

        return run
    env = child_env(root)

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "submaj.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(root),
            timeout=120,
        )
        return proc.returncode, proc.stdout

    return run


def _ops_cli(raw, files, sm, root, workdir, in_process):
    run = _cli_runner(sm, root, in_process)
    refs = {case: inputs.reference(*raw[case]) for case in ("hold", "fail")}
    ops = []
    for relation, case in CLI_CHECKS:
        argv = ["check", "--relation", relation, "--json", files[f"f_{case}"], files[f"g_{case}"]]
        label = f"check {relation} {case}"
        expected = refs[case].index(relation)
        ops.append(
            Op(
                label,
                run=lambda argv=argv: run(argv),
                check=lambda out, e=expected, label=label: checks.check_cli_check(out[0], out[1], e, label),
                warm=not ops,
            )
        )
    argv = ["preserve-test", files["spec"], "--trials", str(PRESERVE_TRIALS), "--dim", "8",
            "--seed", str(raw["fuzz_seed"]), "--json"]
    ops.append(
        Op(
            "preserve-test",
            run=lambda: run(argv),
            check=lambda out: checks.check_cli_preserve(out[0], out[1], PRESERVE_TRIALS, "preserve-test"),
        )
    )
    return ops


_GENERATE = {"witness": _gen_witness, "decide": _gen_decide, "preservers": _gen_preservers, "cli": _gen_cli}
_WRAP = {"witness": _wrap_witness, "decide": _wrap_decide, "preservers": _wrap_preservers, "cli": _wrap_cli}
_OPERATIONS = {"witness": _ops_witness, "decide": _ops_decide, "preservers": _ops_preservers, "cli": _ops_cli}
