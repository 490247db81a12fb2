"""What each entry point loads, and the package namespace that loads it.

Every check runs in a fresh interpreter, where no other test has imported a
layer or read a name of the package yet.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import submaj

SRC = str(Path(submaj.__file__).resolve().parent.parent)

# The public names of the package, by defining module, as they were when
# the package imported every layer eagerly.
EXPORTED = {
    "config": ["Config", "DEFAULT_CLASS_TOL", "DEFAULT_EXACT_TOL"],
    "vectors": [
        "LevelBlock", "LevelSetDecomposition", "NonNegVector", "Rearrangement", "common_dim",
        "decreasing_rearrangement", "level_sets", "p_norm", "partial_sums", "scatter_level_sets", "vector",
    ],
    "matrices": [
        "AugmentationStep", "Decomposition", "IncreasabilityCertificate", "MatrixClass", "StochMatrix",
        "apply", "classify_matrix", "compose", "compose_certificates", "convex_combine",
        "convex_combine_certificates", "decompose_increasable", "identity_matrix", "shift_matrix",
        "vonneumann_complete", "zero_matrix",
    ],
    "relations": [
        "RelationVerdict", "TTransformChain", "TTransformStep", "check_majorize", "check_submajorize",
        "check_weak_majorize", "hlp_witness", "intermediate_h", "oracle_majorize_bruteforce",
        "partial_permutation", "permutation_between", "strict_permutation", "weak_witness",
    ],
    "preservers": [
        "FamilyVerdict", "Injection", "InjectionFamily", "PreservationReport", "PreserverSpec",
        "PreserverVerdict", "TruncatedOperator", "apply_Th", "apply_injection_operator", "build_preserver",
        "classify_preserver_l1", "classify_preserver_lp", "construct_S", "empirical_preservation_check",
        "injection_matrix", "validate_family",
    ],
    "demos": [
        "ForcingResult", "ReciprocalSquareReport", "constant_row_support_index", "quadratic_family",
        "reciprocal_square_example", "shift_forcing", "theta_quadratic", "theta_triangular",
        "triangular_constant_row", "triangular_family",
    ],
    "acceptance": ["CriterionResult", "run_acceptance"],
}

CHECK_MODULES = ["submaj", "submaj.cli", "submaj.config", "submaj.matrices", "submaj.relations", "submaj.vectors"]


def _fresh(script, *args):
    """Run ``script`` in a new interpreter; return the JSON of its last line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Runs each argv of the JSON list argv[1] through the CLI in one process and
# reports the exit codes and the modules loaded after each.
_RUN_CLI = """
import contextlib, io, json, sys
from submaj.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = sorted(m for m in sys.modules if m == "submaj" or m.startswith("submaj."))
    report.append([code, loaded, "scipy" in sys.modules])
print(json.dumps(report))
"""


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_import_submaj_loads_no_layer_and_no_numpy():
    loaded = _fresh(
        "import json, sys, submaj\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('submaj')), 'numpy' in sys.modules]))"
    )
    assert loaded == [["submaj"], False]


def test_check_loads_only_the_relation_layers(tmp_path):
    f = _write(tmp_path, "f.json", {"dim": 2, "values": [0.5, 0.5]})
    g = _write(tmp_path, "g.json", {"dim": 2, "values": [1.0, 0.0]})
    runs = [
        ["check", "--relation", relation, *pair]
        for relation in ("majorize", "weak", "sub")
        for pair in ((f, g), (g, f))
    ]
    report = _fresh(_RUN_CLI, json.dumps(runs))
    assert [code for code, _, _ in report] == [0, 1, 0, 1, 0, 1]
    assert report[-1][1:] == [CHECK_MODULES, False]


def test_preserve_test_adds_only_the_preserver_layer(tmp_path):
    spec = _write(tmp_path, "spec.json", {"p": 1.0, "weights": [1.0], "injections": [[1, 2]]})
    report = _fresh(_RUN_CLI, json.dumps([["preserve-test", spec, "--trials", "5", "--dim", "2"]]))
    assert report[0][0] == 0
    assert report[0][1] == sorted([*CHECK_MODULES, "submaj.preservers", "submaj.sampling"])


def test_only_selftest_loads_the_battery(tmp_path):
    f = _write(tmp_path, "f.json", {"dim": 2, "values": [1.0, 0.0]})
    matrix = _write(tmp_path, "m.json", {"n": 2, "data": [0.5, 0.0, 0.0, 0.5]})
    op = _write(tmp_path, "op.json", {"rows": 3, "cols": 2, "entries": [[1, 1, 1.0], [2, 2, 1.0]]})
    spec = _write(tmp_path, "spec.json", {"p": 1.0, "weights": [1.0], "injections": [[1, 2]]})
    runs = [
        ["check", "--relation", "sub", f, f],
        ["witness", f, f],
        ["complete", matrix, "--out", str(tmp_path / "cert.json")],
        ["classify", "--space", "l1", op],
        ["classify", "--space", "lp", op],
        ["build-preserver", spec, "--rows", "3", "--cols", "2"],
        ["preserve-test", spec, "--trials", "5", "--dim", "2"],
        ["demo", "shift", "--n", "4"],
        ["demo", "paper-matrix", "--which", "T1"],
        ["demo", "recip-square", "--n", "4"],
    ]
    report = _fresh(_RUN_CLI, json.dumps(runs))
    assert [code for code, _, _ in report] == [0] * len(runs)
    assert all("submaj.acceptance" not in loaded for _, loaded, _ in report)
    # selftest reaches the battery through submaj.acceptance; a stub put in
    # its place records the call, so the battery itself does not run here.
    called = _fresh(
        "import json, sys, types\n"
        "calls = []\n"
        "stub = types.ModuleType('submaj.acceptance')\n"
        "stub.run_acceptance = lambda **kwargs: calls.append(sorted(kwargs)) or []\n"
        "sys.modules['submaj.acceptance'] = stub\n"
        "from submaj.cli import main\n"
        "print(json.dumps([main(['selftest']), calls]))"
    )
    assert called == [0, [["seed", "tol", "tol_exact"]]]


def test_the_lazy_namespace_keeps_the_api():
    _fresh(
        "import importlib, json, sys, types\n"
        "import submaj\n"
        "exported = json.loads(sys.argv[1])\n"
        "names = {name for group in exported.values() for name in group}\n"
        "listed = set(dir(submaj))\n"
        "for module in ('preservers', 'demos', 'sampling', 'cli'):\n"
        "    assert isinstance(getattr(submaj, module), types.ModuleType), module\n"
        "for module, group in exported.items():\n"
        "    defining = importlib.import_module('submaj.' + module)\n"
        "    for name in group:\n"
        "        assert getattr(submaj, name) is getattr(defining, name), name\n"
        "assert set(submaj.__all__) == names, set(submaj.__all__) ^ names\n"
        "assert names | set(exported) | {'sampling', 'cli'} <= listed, sorted(names - listed)\n"
        "star = {}\n"
        "exec('from submaj import *', star)\n"
        "assert names <= set(star), sorted(names - set(star))\n"
        "try:\n"
        "    submaj.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'submaj' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('submaj.no_such_name resolved')\n"
        "print('null')",
        json.dumps(EXPORTED),
    )
