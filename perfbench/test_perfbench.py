"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload once traced (one untraced and one traced pass, about a
minute in all) and asserts the per-pass call counts each workload implies,
that the layer self times cover the traced wall time, and that the runner
refuses a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-pass counts; reproduce-256 is 9 + 4 table rows and 3 fd-check rows,
# each fd row meshing 3 times (±step plus the base mesh) for 2 solves
EXPECTED = {
    "reproduce-256": {
        "cli.calls": 3, "experiments.rows": 16, "mesher.calls": 22,
        "fem.assemble.calls": 22, "fem.solve_spectrum.calls": 19,
        "linalg.condense.calls": 19, "linalg.rhs_columns": 19 * 512,
        "shape_deriv.fd_oracle.calls": 3, "solve_samples": 19,
        "fem.dofs": 256 * 25, "fem.boundary_dofs": 512,
    },
    "refine-512": {
        "cli.calls": 0, "experiments.rows": 0, "mesher.calls": 3,
        "fem.assemble.calls": 3, "fem.solve_spectrum.calls": 3,
        "linalg.condense.calls": 3, "linalg.rhs_columns": 2 * (128 + 256 + 512),
        "mesher.calls_per_solve": 1.0, "shape_deriv.fd_oracle.calls": 0,
        "solve_samples": 3, "fem.dofs": 512 * 49, "fem.boundary_dofs": 1024,
    },
    "closed-form": {
        "cli.calls": 2, "experiments.rows": 2, "mesher.calls": 0,
        "fem.assemble.calls": 0, "fem.solve_spectrum.calls": 0,
        "linalg.condense.calls": 0, "linalg.eig.self_s": 0.0,
        "linalg.cholesky.busy_s": 0.0, "shape_deriv.fd_oracle.calls": 0,
        "shape_deriv.matrix.calls": 6 * workloads.BATCH, "solve_samples": 0,
    },
}
# share of the traced pass time that layer self times must cover; the
# closed-form pass spends a visible share in the benchmark's own checks
COVERAGE = {"reproduce-256": 0.95, "refine-512": 0.95, "closed-form": 0.6}


def run(workload, trace, cwd=ROOT, seconds=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module", params=sorted(EXPECTED))
def traced(request):
    proc = run(request.param, trace=1)
    assert proc.returncode == 0, proc.stderr
    return request.param, json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_result_is_correct_and_complete(traced):
    _, result = traced
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    for m in DECLARED["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_call_counts_per_pass(traced):
    workload, result = traced
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, expected in EXPECTED[workload].items():
        assert values[name] == pytest.approx(expected), name
    if workload == "reproduce-256":
        assert values["mesher.calls_per_solve"] == pytest.approx(22 / 19)


def test_self_times_cover_the_traced_wall(traced):
    workload, result = traced
    assert result["metrics"]["trace.coverage"]["value"] >= COVERAGE[workload]


def test_condensation_dominates_the_fem_workloads(traced):
    workload, result = traced
    if workload == "closed-form":
        return
    times = {k: v["value"] for k, v in result["metrics"].items()
             if k.endswith(("busy_s", "self_s")) and not k.startswith("linalg.condense")}
    assert result["metrics"]["linalg.condense.busy_s"]["value"] > max(times.values())


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run("closed-form", trace=0, seconds=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("fail_frac", "solve_p50_s"):
        assert name in proc.stdout


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("closed-form", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_reach_every_binding_site():
    from steklov_annulus import experiments, fem, linalg, shape_deriv

    originals = (fem.schur_condense, fem.solve_domain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for site, name in ((fem, "schur_condense"), (linalg, "schur_condense"),
                           (fem, "sym_generalized_eig"), (fem, "build_annular_mesh"),
                           (shape_deriv, "solve_domain"), (shape_deriv, "assemble"),
                           (shape_deriv, "build_annular_mesh"),
                           (experiments, "solve_domain")):
            assert hasattr(getattr(site, name), "__wrapped__"), f"{site.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert (fem.schur_condense, fem.solve_domain) == originals


def test_self_time_subtracts_children():
    outer = tracing.Span("analytic.find_eps0", 0.0, None, "r", 0)
    inner = tracing.Span("analytic.normalized_first", 1.0, outer, "r", 0)
    root = tracing.Span(tracing.ROOT, 0.0, None, "r", 0)
    outer.parent = root
    outer.end, inner.end, root.end = 4.0, 2.0, 5.0
    layers = tracing.layer_metrics([root, outer, inner], passes=1)
    assert layers["analytic.busy_s"] == pytest.approx(4.0)   # nested call not counted twice
    assert layers["analytic.calls"] == 1
    assert layers["trace.coverage"] == pytest.approx(4.0 / 5.0)
