"""The benchmark's metric tables: one source for run.py, the README and
BENCHMARK.json (the self-test checks that the JSON file agrees).

End-to-end metrics come only from untraced runs; per-layer metrics only from
traced runs.  Every per-layer row says which end-to-end metric, on which
workload, it should move, and how repeated units combine into one value:

* ``exact``  -- a count of simulated or dispatched work.  It must repeat
  exactly in every unit of a run, traced or not; it is never averaged.
* ``median`` -- a host-time figure; the run reports the median over units.
* ``pooled`` -- a per-call latency percentile over all traced units' calls.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

WORKLOADS: Tuple[str, ...] = ("fig5_default", "fig14_dse", "fleet_http")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    combine: str        # "exact" | "median" | "pooled"
    moves: str


#: Times are in reference-host seconds (see ``run.REF_LOOP_S``); the raw
#: seconds are in every run's summary.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.2,
             "median wall time of the timed section (ref-host s)"),
    EndToEnd("points_per_s", "1/s", "higher", 0.2,
             "median of points resolved / wall_s"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of interpreter start -> first timed call (ref-host s)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "median peak resident set of one unit's process"),
)

_FIG5 = "wall_s on fig5_default"
_FLEET = "points_per_s on fleet_http only; zero calls elsewhere"

LAYERS: Tuple[Layer, ...] = (
    # fastpath: the replay engine and stream recording
    Layer("fastpath.replay_s", "s", "lower", "median",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.replay_events", "count", "lower", "exact",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.replay_ns_per_event", "ns/event", "lower", "median",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.record_s", "s", "lower", "median",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.records", "count", "lower", "exact",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.reuses", "count", "higher", "exact",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    Layer("fastpath.record_ns_per_op", "ns/op", "lower", "median",
          f"{_FIG5}; part of fleet_http; no calls on fig14_dse"),
    # sim: the event engine
    Layer("sim.run_s", "s", "lower", "median",
          "wall_s on fig14_dse; about 0 on fig5_default"),
    Layer("sim.ops", "count", "lower", "exact",
          "wall_s on fig14_dse; 0 on fig5_default"),
    Layer("sim.ns_per_op", "ns/op", "lower", "median",
          "wall_s on fig14_dse; 0 on fig5_default"),
    # core / workloads: per-point system build
    Layer("core.synthesize_s", "s", "lower", "median",
          f"{_FIG5} (about 5%) and fleet_http: per-point build cost"),
    Layer("workloads.bind_s", "s", "lower", "median",
          f"{_FIG5} (about 5%) and fleet_http: per-point build cost"),
    # eval: one harness call per simulated point
    Layer("eval.point_ms_p50", "ms", "lower", "pooled",
          "wall_s on every workload that simulates"),
    Layer("eval.point_ms_tail", "ms", "lower", "pooled",
          "wall_s on every workload that simulates"),
    Layer("eval.point_ms_tail_pct", "%", "higher", "pooled",
          "none: the percentile eval.point_ms_tail was taken at"),
    Layer("eval.points_replay", "count", "higher", "exact",
          "explains a fig14_dse wall_s change when replay takes over"),
    Layer("eval.points_event", "count", "lower", "exact",
          "explains a fig14_dse wall_s change when replay takes over"),
    Layer("eval.tier_fallbacks", "count", "lower", "exact",
          "explains a fig14_dse wall_s change when replay takes over"),
    Layer("eval.sim_cycles", "cycles", "lower", "exact",
          "must never move: simulated result"),
    # os / vm: scheduling and translation work (simulated counts)
    Layer("os.observe_us", "us", "lower", "median",
          "wall_s on fig14_dse"),
    Layer("os.epochs", "count", "lower", "exact",
          "must repeat exactly: simulated work on fig14_dse"),
    Layer("os.faults", "count", "lower", "exact",
          "must repeat exactly: simulated work on fig14_dse"),
    Layer("os.context_switches", "count", "lower", "exact",
          "must repeat exactly: simulated work on fig14_dse"),
    Layer("vm.tlb_misses", "count", "lower", "exact",
          "must repeat exactly: simulated work on every workload"),
    Layer("vm.walks", "count", "lower", "exact",
          "must repeat exactly: simulated work on every workload"),
    # dse: the explorer around the evaluations
    Layer("dse.space_s", "s", "lower", "median",
          "wall_s on fig14_dse (from_axes about 3%); no calls elsewhere"),
    Layer("dse.explore_self_s", "s", "lower", "median",
          "wall_s on fig14_dse; no calls elsewhere"),
    Layer("dse.evaluations", "count", "lower", "exact",
          "wall_s on fig14_dse; no calls elsewhere"),
    Layer("dse.front_points", "count", "higher", "exact",
          "must repeat exactly on fig14_dse"),
    # exec: runner dispatch, memo keys and the memo cache
    Layer("exec.map_self_s", "s", "lower", "median",
          "points_per_s on fleet_http; about 0 elsewhere"),
    Layer("exec.stable_key_us", "us", "lower", "median",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("exec.stable_key_calls", "count", "lower", "exact",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("exec.memo_probe_us", "us", "lower", "median",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("exec.memo_put_us", "us", "lower", "median",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("exec.memo_hit_ratio", "ratio", "higher", "exact",
          "points_per_s on fleet_http; no calls elsewhere"),
    # dist: the HTTP broker round trips, client and server side
    Layer("dist.jobs_executed", "count", "lower", "exact", _FLEET),
    Layer("dist.jobs_adopted", "count", "higher", "exact", _FLEET),
    Layer("dist.requests_per_job", "req/job", "lower", "exact", _FLEET),
    Layer("dist.claim_ms_p50", "ms", "lower", "pooled", _FLEET),
    Layer("dist.claim_ms_tail", "ms", "lower", "pooled", _FLEET),
    Layer("dist.claim_ms_tail_pct", "%", "higher", "pooled",
          "none: the percentile dist.claim_ms_tail was taken at"),
    Layer("dist.complete_ms_p50", "ms", "lower", "pooled", _FLEET),
    Layer("dist.complete_ms_tail", "ms", "lower", "pooled", _FLEET),
    Layer("dist.complete_ms_tail_pct", "%", "higher", "pooled",
          "none: the percentile dist.complete_ms_tail was taken at"),
    Layer("dist.poll_ms_p50", "ms", "lower", "pooled", _FLEET),
    Layer("dist.fetch_ms_p50", "ms", "lower", "pooled", _FLEET),
    Layer("dist.create_sweep_ms", "ms", "lower", "median", _FLEET),
    Layer("dist.server_ms_per_job", "ms", "lower", "median", _FLEET),
    Layer("dist.http_ms_per_job", "ms", "lower", "median", _FLEET),
    Layer("dist.retries", "count", "lower", "exact", _FLEET),
    Layer("dist.failed_jobs", "count", "lower", "exact", _FLEET),
    # store: the results ledger
    Layer("store.append_us", "us", "lower", "median",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("store.rows_appended", "count", "lower", "exact",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("store.rows_deduped", "count", "higher", "exact",
          "points_per_s on fleet_http; no calls elsewhere"),
    Layer("store.warm_lookup_us", "us", "lower", "median",
          "points_per_s on fleet_http; no calls elsewhere"),
    # setup: what happens before the first timed call
    Layer("setup.import_s", "s", "lower", "median",
          "setup_s on every workload"),
    Layer("setup.inputs_s", "s", "lower", "median",
          "setup_s on every workload"),
    # host: noise diagnostics, never gated
    Layer("host.cpu_s", "s", "lower", "median",
          "none: explains wall_s outliers"),
    Layer("host.wait_s", "s", "lower", "median",
          "none: tracks wall_s on fleet_http"),
    Layer("host.steal_s", "s", "lower", "median",
          "none: explains wall_s outliers"),
    Layer("host.ref_loop_s", "s", "lower", "median",
          "none: a fixed loop, so it moves only with the host"),
    # trace: quality of the per-layer numbers themselves
    Layer("trace.overhead_frac", "ratio", "lower", "median",
          "none: traced wall_s / untraced wall_s - 1"),
    Layer("trace.attributed_frac", "ratio", "higher", "median",
          "none: share of wall_s inside named layer spans"),
    Layer("trace.unattributed_s", "s", "lower", "median",
          "none: wall_s outside every named layer span"),
)


def benchmark_json() -> dict:
    """The BENCHMARK.json content these tables imply (workload whys aside)."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYERS],
    }
