"""Unit tests for workload specs, suites and characterisation."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.platform import Platform
from repro.sim.process import Access, Burst, run_functional
from repro.workloads import (
    WorkloadSpec,
    available_workload_kernels,
    characterise,
    pattern_classes,
    specs,
    standard_suite,
    workload,
)


def test_standard_suite_covers_every_kernel():
    suite = standard_suite("tiny")
    assert sorted(s.kernel for s in suite) == available_workload_kernels()


def test_suite_scales_differ_in_size():
    tiny = {s.kernel: s.params for s in standard_suite("tiny")}
    default = {s.kernel: s.params for s in standard_suite("default")}
    assert default["vecadd"]["n"] > tiny["vecadd"]["n"]
    with pytest.raises(ValueError):
        standard_suite("huge")


def test_workload_override_params():
    spec = workload("vecadd", scale="tiny", n=1000)
    assert spec.params["n"] == 1000


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(name="x", kernel="fft")
    with pytest.raises(ValueError):
        WorkloadSpec(name="x", kernel="vecadd", residency=2.0)


@pytest.mark.parametrize("scale", ("tiny", "default", "large"))
def test_work_items_matches_bound_items(scale):
    # The spec-level item count must agree with what binding computes, for
    # every kernel at every scale — no param-name guessing.
    for spec in standard_suite(scale):
        bound = spec.bind(Platform().space)
        assert spec.work_items == bound.items, spec.kernel


def test_work_items_respects_overrides_and_defaults():
    assert workload("vecadd", scale="tiny", n=1000).work_items == 1000
    assert workload("matmul", scale="tiny", n=8).work_items == 64
    assert workload("linked_list", scale="tiny", nodes=64,
                    visit=16).work_items == 16
    # visit capped at the node count, exactly as the binder truncates.
    assert workload("linked_list", scale="tiny", nodes=64,
                    visit=1000).work_items == 64
    # Defaults (no params at all) mirror the binder defaults.
    assert WorkloadSpec(name="w", kernel="vecadd").work_items == 65536
    assert WorkloadSpec(name="w", kernel="spmv").work_items == 2048 * 8


def test_pattern_classes_cover_all_kernels():
    classified = [k for kernels in pattern_classes().values() for k in kernels]
    assert sorted(classified) == available_workload_kernels()


def test_binding_allocates_buffers_in_space():
    platform = Platform()
    before = platform.space.footprint_bytes()
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    assert platform.space.footprint_bytes() - before == bound.footprint_bytes
    assert len(bound.areas) == 3


def test_bound_workload_kernels_are_reusable():
    platform = Platform()
    bound = workload("saxpy", scale="tiny").bind(platform.space)
    first = run_functional(bound.make_kernel())
    second = run_functional(bound.make_kernel())
    assert len(first) == len(second) > 0


def test_bound_workload_accesses_stay_inside_areas():
    platform = Platform()
    for kernel in ("vecadd", "matmul", "linked_list", "histogram", "spmv",
                   "filter2d", "merge_sort", "random_access", "saxpy"):
        bound = workload(kernel, scale="tiny").bind(platform.space)
        ops = run_functional(bound.make_kernel())
        for op in ops:
            if not isinstance(op, (Access, Burst)):
                continue
            size = op.total_bytes if isinstance(op, Burst) else op.size
            area = platform.space.area_of(op.addr)
            assert area is not None, f"{kernel}: {op.addr:#x} outside any mapping"
            assert area.contains(op.addr, size)


def test_linked_list_marshal_items_set():
    platform = Platform()
    ll = workload("linked_list", scale="tiny").bind(platform.space)
    stream = workload("vecadd", scale="tiny").bind(platform.space)
    assert ll.marshal_items > 0
    assert stream.marshal_items == 0


def test_residency_controls_resident_pages():
    platform = Platform()
    bound = workload("vecadd", scale="tiny", residency=0.5).bind(platform.space)
    resident = sum(platform.space.resident_pages(a) for a in bound.areas)
    total = sum(a.size for a in bound.areas) // platform.page_size
    assert 0 < resident < total


def test_random_data_is_drawn_on_the_first_kernel_only(monkeypatch):
    """Binding builds no RNG; the first ``make_kernel()`` builds one and
    later calls reuse its data, so a replay whose program is cached (and so
    never makes a kernel) draws nothing."""
    made = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(specs, "random", SimpleNamespace(Random=CountingRandom))
    for kernel in ("linked_list", "histogram", "spmv", "random_access"):
        made.clear()
        bound = workload(kernel, scale="tiny").bind(Platform().space)
        assert made == [], kernel
        first = run_functional(bound.make_kernel())
        second = run_functional(bound.make_kernel())
        assert len(made) == 1, kernel
        assert first == second, kernel


def test_seed_makes_binding_deterministic():
    def chain(seed):
        platform = Platform()
        bound = workload("linked_list", scale="tiny", seed=seed).bind(platform.space)
        return [op.addr for op in run_functional(bound.make_kernel())
                if isinstance(op, Access)]

    assert chain(3) == chain(3)
    assert chain(3) != chain(4)


# ---------------------------------------------------------------- characterise
def test_characterise_reports_consistent_traffic():
    platform = Platform()
    bound = workload("vecadd", scale="tiny").bind(platform.space)
    result = characterise(bound, pattern="streaming")
    n = bound.items
    assert result.bytes_moved == 3 * n * 4
    assert result.unique_pages == bound.footprint_bytes // 4096
    assert result.memory_operations > 0
    assert result.compute_cycles > 0
    row = result.as_row()
    assert row["workload"] == "vecadd"
    assert row["pattern"] == "streaming"


def test_characterise_blocked_kernel_shows_page_reuse():
    platform = Platform()
    matmul = characterise(workload("matmul", scale="tiny").bind(platform.space))
    stream = characterise(workload("vecadd", scale="tiny").bind(platform.space))
    assert matmul.page_reuse_factor > stream.page_reuse_factor


def test_characterise_pointer_kernel_has_large_working_set():
    platform = Platform()
    pointer = characterise(workload("linked_list", scale="tiny").bind(platform.space))
    stream = characterise(workload("vecadd", scale="tiny").bind(platform.space))
    # Pointer chasing touches its pages in random order: the 90% working set
    # is close to the full footprint, unlike streaming.
    assert pointer.tlb_working_set_pages > 0.8 * pointer.unique_pages
    assert stream.tlb_working_set_pages <= stream.unique_pages


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([256, 1024, 4096]),
       residency=st.sampled_from([0.5, 1.0]))
def test_property_binding_footprint_matches_areas(n, residency):
    platform = Platform()
    bound = workload("vecadd", scale="tiny", n=n,
                     residency=residency).bind(platform.space)
    mapped = sum(a.size for a in bound.areas)
    # Mappings are page-aligned, so they may exceed the nominal footprint by
    # at most one page per buffer.
    assert bound.footprint_bytes <= mapped
    assert mapped < bound.footprint_bytes + 4096 * len(bound.areas)
    assert bound.copy_in_bytes + bound.copy_out_bytes <= mapped
