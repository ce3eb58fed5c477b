"""The benchmark's use of the package, one pass per workload.

perfbench/ turns any exception inside a pass into failed rows, so a change
to a name, field or return type the benchmark reads shows up only as
benchmark failures.  These tests run one pass of each workload, plain and
under the full tracer (whose counters read assembled systems), and require
every row to pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROWS = {"reproduce-256": 16, "refine-512": 3, "closed-form": 284}
# counters a traced pass must read; perfbench takes them from
# AssembledSystem.stiffness.shape[0], .boundary_dofs and Mesh.triangles
COUNTERS = {
    "refine-512": {"fem.dofs": 512 * 49, "fem.boundary_dofs": 1024,
                   "mesher.triangles": 2 * (128 * 12 + 256 * 24 + 512 * 48),
                   "fem.assemble.calls": 3, "fem.solve_spectrum.calls": 3},
}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_pass_rows_all_ok(name, traced, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if traced else tracing.Tracer(only=set())
    tracer.install()
    try:
        with tracer.span(tracing.ROOT):
            rows = workload.run_pass(workload.inputs(1), 0, workloads.Context(tmp_path, tracer))
    finally:
        tracer.uninstall()
    assert len(rows) == ROWS[name]
    assert [r.name for r in rows if not r.ok] == []
    metrics = tracing.layer_metrics(tracer.spans, 1)
    if traced:
        assert {key: metrics[key] for key in COUNTERS.get(name, {})} == COUNTERS.get(name, {})
