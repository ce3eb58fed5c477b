import math

import pytest

from steklov_annulus import experiments
from steklov_annulus.experiments import (TRANSLATION_TABLES, run_translation_table,
                                         translation_centers)
from steklov_annulus.fem import solve_domain
from steklov_annulus.geometry import INNER, OUTER, TWO_PI, AnnularDomain, Circle
from steklov_annulus.mesher import radial_grading


@pytest.mark.parametrize("table", sorted(TRANSLATION_TABLES))
def test_translation_table_solves_five_rows(table, monkeypatch):
    """Only the centres with d ≤ 0 are solved: the centred row and one row
    of each mirror pair.  The other four rows are their mirror images.
    Each is solved as its copy turned onto the negative x-axis, at the same
    distance from the origin: (d, 0) itself, (−d√2, 0) for (−d, d)."""
    real_solve = experiments.solve_domain
    calls = []

    def counted_solve(*args, **kwargs):
        calls.append(args[0].inner.center)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_domain", counted_solve)
    rows = run_translation_table(table, 64, 8)
    assert len(rows) == 9
    assert calls == [(-math.hypot(*c), 0.0) for c in translation_centers(table)[1][:5]]


@pytest.mark.parametrize("table", sorted(TRANSLATION_TABLES))
def test_mirrored_rows_match_their_own_solve(table):
    """Every row's value equals a direct solve at that row's own centre, so
    each mirrored row sits opposite the row it copies, and each diagonal
    hole (−d, d), which the table solves at (−d√2, 0), matches its solve in
    place.  With 8 | N_θ the two meshes coincide up to round-off."""
    eps, centers = translation_centers(table)
    rows = run_translation_table(table, 64, 8)
    for center, row in zip(centers, rows):
        assert row.descriptor == f"center=({center[0]:g},{center[1]:g})"
        domain = AnnularDomain(outer=Circle(orientation=OUTER, radius=1.0),
                               inner=Circle(center=center, orientation=INNER, radius=eps))
        spec = solve_domain(domain, 64, 8, count=2, grading=radial_grading(eps))
        direct = float(spec.eigenvalues[1]) * TWO_PI * (1.0 + eps)
        assert row.computed == pytest.approx(direct, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("jobs, rows, pools",
                         [(64, 5, [5]), (2, 5, [2]), (5, 5, [5]), (64, 1, []), (64, 0, []),
                          (1, 5, [])])
def test_pool_has_no_more_workers_than_rows(jobs, rows, pools, monkeypatch):
    """`--jobs` above the row count starts one worker per row, not `jobs`
    workers, and one row or one job runs in-process; a recording stand-in
    for the pool starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, arglist):
            return map(worker, arglist)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    assert experiments._map_rows(abs, [-k for k in range(rows)], jobs) == list(range(rows))
    assert sizes == pools
