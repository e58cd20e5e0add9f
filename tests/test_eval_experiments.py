"""Tests for the experiment functions (structure and expected shapes).

These are integration tests: each experiment runs end-to-end on tiny
workloads and the tests assert the qualitative shapes the paper reports
(hit rate saturation, pinning recovering demand-paging cost, crossovers),
not absolute numbers.
"""


from repro.eval import experiments as exp
from repro.eval.harness import HarnessConfig


def test_table1_rows_and_monotonic_resources():
    rows = exp.table1_resources(scale="tiny", thread_counts=(1, 2, 4),
                                tlb_entries=(16, 32))
    assert rows
    by_system = {}
    for row in rows:
        assert row["luts"] > 0 and row["ffs"] > 0
        system = (row["kernel"], row["tlb_entries"])
        by_system.setdefault(system, {})[row["threads"]] = row["luts"]
    for system, luts in by_system.items():
        assert luts[2] > luts[1], f"{system} resources must grow with threads"
    # Up to two hardware threads fit the device for every kernel.
    assert all(row["fits"] for row in rows if row["threads"] <= 2)


def test_table2_characterises_every_workload():
    rows = exp.table2_workloads(scale="tiny")
    assert len(rows) == 9
    names = {row["workload"] for row in rows}
    assert "vecadd" in names and "linked_list" in names
    for row in rows:
        assert row["mem_ops"] > 0
        assert row["unique_pages"] > 0


def test_table3_and_fig4_shapes():
    rows = exp.table3_speedups(scale="tiny",
                               kernels=("vecadd", "matmul", "linked_list"),
                               config=HarnessConfig(auto_size_tlb=True))
    assert len(rows) == 3
    by_kernel = {row["workload"]: row for row in rows}
    # Compute-heavy kernels beat software; SVM never loses to copy-DMA by much
    # and wins on the pointer workload (marshalling cost).
    assert by_kernel["matmul"]["speedup_sw"] > 1.5
    assert by_kernel["vecadd"]["speedup_sw"] > 1.0
    assert by_kernel["linked_list"]["speedup_dma"] > 1.0
    for row in rows:
        assert row["vm_overhead"] >= 1.0
    # The headline shape holds at the paper's default scale too.
    default = {row["workload"]: row for row in exp.table3_speedups(
        scale="default", kernels=("matmul", "linked_list"),
        config=HarnessConfig(auto_size_tlb=True))}
    assert default["matmul"]["speedup_sw"] > 1.5
    assert default["linked_list"]["speedup_dma"] > 1.0

    series = exp.fig4_speedup_bars(scale="tiny", kernels=("vecadd", "matmul"))
    assert len(series["workloads"]) == 2
    assert len(series["speedup_vs_software"]) == 2
    assert any(s > 1.0 for s in series["speedup_vs_software"])


def test_fig5_hit_rate_increases_with_tlb_size():
    sweep = exp.fig5_tlb_sweep(kernels=("random_access",),
                               tlb_sizes=(4, 16, 64), scale="tiny")
    data = sweep["random_access"]
    assert data["hit_rate"] == sorted(data["hit_rate"])
    assert data["fabric_cycles"][0] >= data["fabric_cycles"][-1]
    # Streaming kernels reach high hit rates with tiny TLBs.
    stream = exp.fig5_tlb_sweep(kernels=("vecadd",), tlb_sizes=(4, 8),
                                scale="tiny")["vecadd"]
    assert stream["hit_rate"][0] > 0.7


def test_fig5_replacement_ablation_structure():
    result = exp.fig5_replacement_ablation(tlb_sizes=(8, 32), scale="tiny")
    assert set(result) == {"tlb_entries", "lru", "fifo", "random"}
    for policy in ("lru", "fifo", "random"):
        assert len(result[policy]) == 2


def test_fig6_overhead_shrinks_with_page_size():
    result = exp.fig6_vm_overhead(kernels=("vecadd", "matmul", "linked_list"),
                                  page_sizes=(4096, 65536), scale="tiny")
    for kernel, series in result.items():
        overheads = series["vm_overhead"]
        assert overheads[0] >= overheads[-1] >= 1.0, kernel
    assert result["vecadd"]["hit_rate"][-1] >= result["vecadd"]["hit_rate"][0]


def test_fig7_throughput_grows_with_threads_then_saturates():
    result = exp.fig7_scaling(kernels=("vecadd",), thread_counts=(1, 4),
                              scale="tiny")
    data = result["vecadd"]
    assert data["items_per_kcycle"][1] > data["items_per_kcycle"][0] * 0.9
    assert data["total_cycles"][1] < 4 * data["total_cycles"][0]
    # At 8 threads the compute-bound kernel keeps scaling, while the shared
    # bus may erode memory-bound throughput but must not collapse it.
    result = exp.fig7_scaling(kernels=("vecadd", "matmul", "histogram"),
                              thread_counts=(1, 8), scale="tiny")
    matmul = result["matmul"]["items_per_kcycle"]
    assert matmul[-1] > 1.5 * matmul[0]
    for kernel, series in result.items():
        throughput = series["items_per_kcycle"]
        assert throughput[-1] >= throughput[0] * 0.5, kernel


def test_fig7_walker_ablation_shared_is_never_faster():
    result = exp.fig7_walker_ablation(thread_counts=(1, 4), scale="tiny")
    assert result["shared_walker"][-1] >= result["private_walker"][-1] * 0.95


def test_fig8_runtime_decreases_with_residency():
    result = exp.fig8_fault_sweep(kernels=("vecadd", "linked_list"),
                                  residencies=(0.0, 1.0), scale="tiny")
    for kernel, data in result.items():
        assert data["total_cycles"][0] > data["total_cycles"][-1], kernel
        assert data["faults"][0] > data["faults"][-1] == 0, kernel


def test_fig8_pinning_recovers_demand_paging_penalty():
    result = exp.fig8_pinning_ablation(kernel="vecadd", residency=0.25)
    assert result["demand_paging_faults"] > 0
    assert result["pinned_faults"] == 0
    assert result["pinned_cycles"] < result["demand_paging_cycles"]


def test_fig9_svm_advantage_grows_with_size():
    result = exp.fig9_crossover(sizes=(1024, 65536))
    ratio_small = result["copydma_total_cycles"][0] / result["svm_total_cycles"][0]
    ratio_large = result["copydma_total_cycles"][-1] / result["svm_total_cycles"][-1]
    assert ratio_large > ratio_small


def test_fig9_sparse_access_favours_svm():
    result = exp.fig9_sparse_crossover(table_bytes=(262144, 4194304),
                                       accesses=2048)
    # The copy baseline must move the whole table; SVM only touches what it uses.
    assert result["copydma_total_cycles"][-1] > result["svm_total_cycles"][-1]


def test_fig10_pareto_is_subset_and_sorted():
    result = exp.fig10_dse(kernel="vecadd", scale="tiny")
    points = result["points"]
    pareto = result["pareto"]
    assert 0 < len(pareto) <= len(points)
    runtimes = [p["runtime_cycles"] for p in pareto]
    assert runtimes == sorted(runtimes)


def test_experiment_registry_complete():
    assert set(exp.EXPERIMENTS) == {"table1", "table2", "table3", "fig4",
                                    "fig5", "fig5_replacement", "fig6",
                                    "fig7", "fig7_walker", "fig8",
                                    "fig8_pinning", "fig9", "fig9_sparse",
                                    "fig10", "fig11", "fig12", "fig13",
                                    "fig13_policy_dse", "fig14"}


def test_experiment_metadata_describes_knobs():
    table3 = exp.EXPERIMENTS["table3"]
    assert table3.scales and table3.sweepable
    assert table3.defaults["scale"] == "default"
    table2 = exp.EXPERIMENTS["table2"]
    assert table2.scales and not table2.sweepable
    fig9_sparse = exp.EXPERIMENTS["fig9_sparse"]
    assert not fig9_sparse.scales and fig9_sparse.sweepable
    for registered in exp.EXPERIMENTS.values():
        assert registered.title and registered.description


def test_experiment_run_passes_only_declared_knobs():
    rows = exp.EXPERIMENTS["table2"].run(scale="tiny", runner=object())
    assert rows                                  # runner silently not passed
    result = exp.EXPERIMENTS["fig8_pinning"].run(scale="tiny")
    assert result["pinned_faults"] == 0
    import pytest
    with pytest.raises(TypeError):
        exp.EXPERIMENTS["fig5"].run(not_a_knob=1)


# ---------------------------------------------------------------------------
# Parallel / memoized dispatch (repro.exec)
# ---------------------------------------------------------------------------
def test_parallel_sweep_results_equal_serial():
    from repro.eval.experiments import fig5_tlb_sweep, fig8_fault_sweep
    from repro.exec import MemoCache, SweepRunner

    runner = SweepRunner(jobs=2, cache=MemoCache())
    kwargs = dict(kernels=("vecadd",), tlb_sizes=(4, 8), scale="tiny")
    assert fig5_tlb_sweep(runner=runner, **kwargs) == fig5_tlb_sweep(**kwargs)
    fault_kwargs = dict(kernels=("vecadd",), residencies=(0.5, 1.0),
                        scale="tiny")
    assert (fig8_fault_sweep(runner=runner, **fault_kwargs)
            == fig8_fault_sweep(**fault_kwargs))
    # Jobs are picklable, so the pool path (not the fallback) actually ran.
    assert runner.stats.parallel_batches >= 1


def test_fig10_dse_parallel_matches_serial():
    import time

    from repro.core.dse import SweepAxes
    from repro.eval.experiments import fig10_dse
    from repro.exec import MemoCache, SweepRunner

    axes = SweepAxes(tlb_entries=(8, 16, 32, 64), max_burst_bytes=(128, 256),
                     max_outstanding=(2, 4), shared_walker=(False,))
    started = time.perf_counter()
    serial = fig10_dse(kernel="matmul", scale="tiny", axes=axes)
    serial_s = time.perf_counter() - started
    runner = SweepRunner(jobs=2, cache=MemoCache())
    parallel = fig10_dse(kernel="matmul", scale="tiny", axes=axes,
                         runner=runner)
    # Same runner again: every point is already in the memo cache.
    started = time.perf_counter()
    memoized = fig10_dse(kernel="matmul", scale="tiny", axes=axes,
                         runner=runner)
    memoized_s = time.perf_counter() - started
    assert parallel == serial == memoized
    assert len(serial["points"]) == axes.size() == 16
    assert runner.stats.cache_hits >= axes.size()
    # Memoization makes the repeated sweep essentially free.
    assert memoized_s * 2 <= serial_s


def test_repeated_points_hit_the_cache_across_figures():
    from repro.eval.experiments import fig5_tlb_sweep
    from repro.exec import MemoCache, SweepRunner

    runner = SweepRunner(jobs=1, cache=MemoCache())
    kwargs = dict(kernels=("vecadd",), tlb_sizes=(4, 8), scale="tiny")
    fig5_tlb_sweep(runner=runner, **kwargs)
    executed_first = runner.stats.points_executed
    fig5_tlb_sweep(runner=runner, **kwargs)       # identical grid: all cached
    assert runner.stats.points_executed == executed_first
    assert runner.stats.cache_hits == len(kwargs["tlb_sizes"])


def test_fig13_separates_static_and_adaptive_policies():
    rows = exp.fig13_adaptive_scheduling(
        scale="tiny", process_counts=(2,),
        policies=("round-robin", "adaptive-fault"),
        models=("svm-shared-tlb",))
    by_policy = {row["policy"]: row for row in rows}
    static = by_policy["round-robin"]
    adaptive = by_policy["adaptive-fault"]
    assert static["adaptive"] is False
    assert static["epochs[svm-shared-tlb]"] == 0
    assert adaptive["adaptive"] is True
    assert adaptive["epochs[svm-shared-tlb]"] > 1
    assert adaptive["svm-shared-tlb"] > 0


def test_fig13_rejects_translation_free_models():
    import pytest
    with pytest.raises(ValueError):
        exp.fig13_adaptive_scheduling(models=("software",))


def test_fig13_policy_dse_differentiates_policies_at_fixed_hardware():
    from repro.core.dse import SweepAxes
    result = exp.fig13_policy_dse(
        scale="tiny",
        axes=SweepAxes(tlb_entries=(16,), max_burst_bytes=(256,),
                       max_outstanding=(4,), shared_walker=(False,),
                       policy=("round-robin", "adaptive-fault")))
    points = result["points"]
    assert [p["params"]["policy"] for p in points] == ["round-robin",
                                                       "adaptive-fault"]
    # Same hardware, different scheduling: the runtimes must differ — the
    # policy axis is a real axis, not a relabeling of identical runs.
    runtimes = {p["params"]["policy"]: p["runtime_cycles"] for p in points}
    assert runtimes["round-robin"] != runtimes["adaptive-fault"]
    assert result["pareto"]
