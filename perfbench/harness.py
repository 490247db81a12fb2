"""Runs a workload in whole rounds and turns the timings into metrics.

One caller runs one operation at a time (a closed loop).  Before each
operation the harness collects garbage, outside the timed region; outputs are
checked after the clock stops.  A run repeats whole rounds of the same
operation list until ``seconds`` have passed, so every run attempts the same
operations in the same proportions, whatever its seed or length.
"""
from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from . import tracing, workloads

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


class Rounds:
    """Timings and outcomes of the rounds of one run."""

    def __init__(self, ops) -> None:
        self.samples = [[] for _ in ops]
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first_round_rss_kb = {}


def run_rounds(ops, seconds: float, tracer=None, first_op_id: int = 0) -> Rounds:
    res = Rounds(ops)
    start = time.perf_counter()
    while res.rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op = first_op_id + res.attempted
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a program fault: count it and go on
                out, error = None, exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = -1
            res.samples[i].append(t1 - t0)
            res.attempted += 1
            problems = [f"{op.label}: raised {type(error).__name__}: {error}"] if error else op.check(out)
            out = None  # release the output before the next operation runs
            if problems:
                res.failed += 1
                if op.fault is None:
                    res.problems += problems
        res.rounds += 1
        if res.rounds == 1:
            res.first_round_rss_kb = {
                who: resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            }
    return res


def warm_up(ops) -> None:
    for op in ops:
        if op.warm:
            try:
                op.run()
            except Exception:  # faults show in the timed rounds
                pass


def setup_times(name: str, seed: int, root: Path, count: int) -> list:
    """Fresh interpreter to a ready workload, minus the benchmark's own input generation."""
    out = []
    probe = str(root / "perfbench" / "probe.py")
    for _ in range(count):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            capture_output=True,
            text=True,
            env=workloads.child_env(root),
            cwd=str(root),
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        ready, gen_s = (float(v) for v in proc.stdout.split()[-2:])
        out.append(ready - t0 - gen_s)
    return out


def _probe_cli(root: Path, count: int) -> dict:
    """The cli layer's fixed costs: a bare interpreter, import submaj, scipy.optimize."""
    env = workloads.child_env(root)

    def child(args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, cwd=str(root),
            timeout=PROBE_TIMEOUT_S, check=True,
        )

    bare, imports, scipy_opt = [], [], []
    timed_import = "import time; t = time.perf_counter(); import submaj; print(time.perf_counter() - t)"
    for _ in range(count):
        t0 = time.perf_counter()
        child(["-c", "pass"])
        bare.append(time.perf_counter() - t0)
        imports.append(float(child(["-c", timed_import]).stdout))
        cumulative = 0.0
        for line in child(["-X", "importtime", "-c", "import submaj"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                cumulative = float(parts[1]) / 1e6
        scipy_opt.append(cumulative)
    return {
        "cli.interpreter_s": (statistics.median(bare), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.import_scipy_optimize_s": (statistics.median(scipy_opt), "s"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False,
            probes: int = SETUP_PROBES, log=print) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    import submaj as sm

    workdir = root / "perfbench" / f".work-{os.getpid()}"
    try:
        raw = workloads.generate(name, seed, tiny)
        wrapped = workloads.wrap(name, raw, sm, str(workdir))
        ops = workloads.operations(name, raw, wrapped, sm, root, str(workdir), in_process=trace)
        if trace:
            res, metrics = _traced(name, seed, seconds, ops, sm, root, probes, log)
        else:
            warm_up(ops)
            res = run_rounds(ops, seconds)
            metrics = _end_to_end(name, res, log)
            metrics["setup_s"] = (statistics.median(setup_times(name, seed, root, probes)), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in res.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    return {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _end_to_end(name: str, res: Rounds, log) -> dict:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF  # ru_maxrss is in KiB
    flat = sorted(t for s in res.samples for t in s)
    completed = (res.attempted - res.failed) / res.rounds
    round_s = sum(statistics.median(s) for s in res.samples)
    p90 = statistics.quantiles(flat, n=10)[-1] if len(flat) > 1 else flat[0]
    log(f"# {name}: {len(flat)} operations in {res.rounds} rounds; "
        f"op_ms p50 {1e3 * statistics.median(flat):.3f} p90 {1e3 * p90:.3f}")
    return {
        "ops_per_s": (completed / round_s, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(flat), "ms"),
        # Taken after warm-up and the first round: later rounds add only glibc
        # heap fragmentation, which differs from run to run of the same input.
        "peak_rss_mb": (res.first_round_rss_kb[who] / 1024.0, "MB"),
    }


def _traced(name, seed, seconds, ops, sm, root, probes, log):
    tracer = tracing.Tracer()
    memory_ops = range(0)
    with tracer.installed(sm):
        warm_up(ops)
        res = run_rounds(ops, seconds, tracer)
        if any(s.name == "relations.weak_witness" for s in tracer.spans):
            # One more round under tracemalloc for the peak metrics only; its
            # timings are inflated and are not used.
            tracer.memory = True
            tracemalloc.start()
            try:
                run_rounds(ops, 0, tracer, first_op_id=res.attempted)
            finally:
                tracemalloc.stop()
                tracer.memory = False
            memory_ops = range(res.attempted, res.attempted + len(ops))
    timed_ops = range(res.attempted)
    metrics = tracing.layer_metrics(tracer.spans, timed_ops, memory_ops)
    metrics.update(_probe_cli(root, probes))

    flat = [t for s in res.samples for t in s]
    log(f"# {name} traced: op_ms p50 {1e3 * statistics.median(flat):.3f} over {len(flat)} operations")
    groups: dict = {}
    for op_id in timed_ops:
        op = ops[op_id % len(ops)]
        groups.setdefault(op.group or op.label, []).append(op_id)
    for label, ids in groups.items():
        per = tracing.layer_metrics(tracer.spans, ids)
        shown = ", ".join(f"{k} {v:.4g}" for k, (v, _) in per.items() if v)
        log(f"#   {label}: {shown}")

    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    tracer.write(results / f"spans-{name}-seed{seed}.jsonl")
    return res, metrics
