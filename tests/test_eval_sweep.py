"""Tests for the declarative sweep API (repro.eval.sweep)."""

import pytest

from repro.eval.harness import HarnessConfig
from repro.eval.sweep import Grid, Point, Sweep, SweepOutcomes, make_coords
from repro.exec import MemoCache, SweepRunner
from repro.exec.jobs import ExperimentJob, run_job
from repro.workloads import workload


def _job(kernel="vecadd", entries=16, **spec_overrides):
    return ExperimentJob("svm", workload(kernel, scale="tiny", **spec_overrides),
                         HarnessConfig(tlb_entries=entries))


# ---------------------------------------------------------------------------
# Coordinates and points
# ---------------------------------------------------------------------------
def test_make_coords_is_order_independent():
    assert make_coords({"b": 2, "a": 1}) == make_coords({"a": 1, "b": 2})
    with pytest.raises(ValueError):
        make_coords({})


def test_make_coords_accepts_pair_iterables():
    # repro.dse candidates carry coords as sorted pair tuples already;
    # re-canonicalising them must be a no-op.
    pairs = (("b", 2), ("a", 1))
    assert make_coords(pairs) == make_coords({"a": 1, "b": 2})
    assert make_coords(make_coords(pairs)) == make_coords(pairs)
    with pytest.raises(ValueError):
        make_coords(())


def test_point_coord_lookup():
    point = Point(coords=make_coords({"kernel": "vecadd", "n": 4}), job=None)
    assert point.coord("n") == 4
    with pytest.raises(KeyError):
        point.coord("missing")


def test_sweep_rejects_duplicate_coordinates():
    sweep = Sweep()
    sweep.add(_job(), kernel="vecadd", tlb_entries=16)
    with pytest.raises(ValueError, match="duplicate"):
        sweep.add(_job(), tlb_entries=16, kernel="vecadd")
    assert len(sweep) == 1


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------
def test_grid_expands_cartesian_product_in_declaration_order():
    grid = Grid(kernel=("vecadd", "saxpy"), tlb_entries=(8, 16))
    assert grid.size() == 4
    sweep = grid.sweep(lambda kernel, tlb_entries: _job(kernel, tlb_entries))
    coords = [dict(p.coords) for p in sweep.points]
    assert coords == [
        {"kernel": "vecadd", "tlb_entries": 8},
        {"kernel": "vecadd", "tlb_entries": 16},
        {"kernel": "saxpy", "tlb_entries": 8},
        {"kernel": "saxpy", "tlb_entries": 16},
    ]


def test_grid_factory_can_skip_points():
    grid = Grid(n=(1, 2, 3))
    sweep = grid.sweep(lambda n: None if n == 2 else _job())
    # Coordinates differ only in n, but n=2 was skipped.
    assert [p.coord("n") for p in sweep.points] == [1, 3]


def test_grid_validates_axes():
    with pytest.raises(ValueError):
        Grid()
    with pytest.raises(ValueError):
        Grid(kernel=())


# ---------------------------------------------------------------------------
# Coordinate-keyed outcomes
# ---------------------------------------------------------------------------
def test_outcomes_keyed_by_coords_match_positional_results():
    """The sweep regroups exactly as the old iter()/next() dance did."""
    kernels = ("vecadd", "random_access")
    tlb_sizes = (4, 16)
    specs = {k: workload(k, scale="tiny") for k in kernels}

    # Old style: flatten positionally, evaluate, regroup by arithmetic.
    jobs = [ExperimentJob("svm", specs[k], HarnessConfig(tlb_entries=e))
            for k in kernels for e in tlb_sizes]
    positional = SweepRunner(jobs=1).map(run_job, jobs)

    # New style: same grid, declared, keyed by coordinates.
    grid = Grid(kernel=kernels, tlb_entries=tlb_sizes)
    outcomes = grid.sweep(
        lambda kernel, tlb_entries: ExperimentJob(
            "svm", specs[kernel], HarnessConfig(tlb_entries=tlb_entries))).run()

    for i, kernel in enumerate(kernels):
        for j, entries in enumerate(tlb_sizes):
            expected = positional[i * len(tlb_sizes) + j]
            assert outcomes.get(kernel=kernel, tlb_entries=entries) == expected


def test_outcomes_lookup_and_errors():
    sweep = Sweep()
    sweep.add(_job(entries=8), entries=8)
    outcomes = sweep.run()
    assert outcomes.get(entries=8).total_cycles > 0
    with pytest.raises(KeyError, match="axes"):
        outcomes.get(entries=99)
    assert len(outcomes) == 1
    assert make_coords({"entries": 8}) in outcomes


def test_outcomes_axes_series_and_select():
    grid = Grid(kernel=("vecadd", "saxpy"), n=(256, 512))
    outcomes = grid.sweep(lambda kernel, n: _job(kernel, n=n)).run()

    assert outcomes.axes() == {"kernel": ["vecadd", "saxpy"], "n": [256, 512]}
    assert outcomes.axis("n") == [256, 512]
    with pytest.raises(KeyError):
        outcomes.axis("missing")

    cycles = outcomes.series("n", "total_cycles", kernel="vecadd")
    assert len(cycles) == 2 and all(c > 0 for c in cycles)
    # callable extraction
    doubled = outcomes.series("n", lambda o: 2 * o.total_cycles,
                              kernel="vecadd")
    assert doubled == [2 * c for c in cycles]
    # raw outcomes
    raw = outcomes.series("n", kernel="vecadd")
    assert [o.total_cycles for o in raw] == cycles

    sub = outcomes.select(kernel="saxpy")
    assert len(sub) == 2 and sub.axes()["n"] == [256, 512]
    assert sub.get(kernel="saxpy", n=256) == outcomes.get(kernel="saxpy", n=256)


def test_sweep_run_with_runner_matches_serial():
    grid = Grid(kernel=("vecadd",), tlb_entries=(4, 8))
    build = lambda kernel, tlb_entries: _job(kernel, tlb_entries)   # noqa: E731
    serial = grid.sweep(build).run()
    runner = SweepRunner(jobs=2, cache=MemoCache())
    parallel = grid.sweep(build).run(runner)
    assert serial.outcomes() == parallel.outcomes()
    assert runner.stats.points_submitted == 2


def test_outcomes_items_iterate_in_sweep_order():
    grid = Grid(n=(256, 128))
    outcomes = grid.sweep(lambda n: _job(n=n)).run()
    assert [coords["n"] for coords, _ in outcomes.items()] == [256, 128]
    assert [dict(c)["n"] for c in outcomes] == [256, 128]


def test_sweep_outcomes_requires_aligned_results():
    with pytest.raises(ValueError):
        SweepOutcomes([Point(make_coords({"a": 1}), None)], [])


# ---------------------------------------------------------------------------
# Canonical records and table rendering
# ---------------------------------------------------------------------------
def test_outcomes_to_records_emit_coords_plus_canonical_fields():
    from repro.models import RECORD_FIELDS

    grid = Grid(kernel=("vecadd",), tlb_entries=(4, 8))
    outcomes = grid.sweep(lambda kernel, tlb_entries:
                          _job(kernel, tlb_entries)).run()
    records = outcomes.to_records()
    assert len(records) == 2
    for record, (coords, outcome) in zip(records, outcomes.items()):
        assert record["kernel"] == coords["kernel"]
        assert record["tlb_entries"] == coords["tlb_entries"]
        assert record["total_cycles"] == outcome.total_cycles
        assert set(RECORD_FIELDS) <= set(record)


def test_outcomes_to_records_wrap_non_record_outcomes():
    outcomes = SweepOutcomes([Point(make_coords({"n": 1}), None)], [42])
    assert outcomes.to_records() == [{"n": 1, "value": 42}]


def test_outcomes_to_table_formats():
    import csv
    import io
    import json

    grid = Grid(tlb_entries=(4, 8))
    outcomes = grid.sweep(lambda tlb_entries: _job(entries=tlb_entries)).run()

    table = outcomes.to_table(title="TLB sweep")
    assert "TLB sweep" in table and "total_cycles" in table

    rows = list(csv.DictReader(io.StringIO(outcomes.to_table(fmt="csv"))))
    assert [row["tlb_entries"] for row in rows] == ["4", "8"]

    data = json.loads(outcomes.to_table(fmt="json",
                                        columns=["tlb_entries", "tier"]))
    assert data == [{"tlb_entries": 4, "tier": data[0]["tier"]},
                    {"tlb_entries": 8, "tier": data[1]["tier"]}]
