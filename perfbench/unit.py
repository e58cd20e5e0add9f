"""One unit of a benchmark run: a fresh interpreter that sets up a
workload, runs its timed section once and writes what it measured to JSON.

run.py spawns it; by hand:

    PYTHONPATH=src python3 perfbench/unit.py '{"workload": "fig5_default",
        "seed": 7, "size": "full", "mode": "plain", "workdir": "/tmp/w",
        "out": "/tmp/w/unit.json", "t_spawn": 0}'

``mode`` is ``plain`` (end-to-end figures), ``traced`` (spans around every
layer's public calls) or ``reference`` (recompute exact outputs by an
independent path, untimed).  ``t_spawn`` is the parent's
``time.monotonic()`` just before it started this interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

#: Iterations of the fixed reference loop (about 20 ms on a 2020s core),
#: and how many timings of it make one host-speed sample.
REF_LOOP_N = 200_000
REF_LOOP_REPEATS = 5


def ref_loop() -> float:
    """Median time of a fixed pure-Python loop: it moves only with the
    host's speed, never with the program."""
    times = []
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_N):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[REF_LOOP_REPEATS // 2]


def steal_seconds() -> float:
    """Cumulative steal time of all CPUs (``/proc/stat``), 0 if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def fastpath_counters() -> tuple:
    """``record_stats`` of the program cache, without importing it."""
    module = sys.modules.get("repro.fastpath.record")
    if module is None:
        return 0, 0
    return module.record_stats["records"], module.record_stats["reuses"]


def main(spec: dict) -> dict:
    from workloads import WORKLOADS
    cls = WORKLOADS[spec["workload"]]
    seed, size, workdir = spec["seed"], spec["size"], spec["workdir"]
    if spec["mode"] == "reference":
        return {"outputs": cls.reference(seed, size, workdir,
                                         spec.get("unit") or {})}

    traced = spec["mode"] == "traced"
    for module in cls.modules:
        importlib.import_module(module)
    if traced or os.environ.get("PERFBENCH_DELAY"):
        import spans
        spans.import_targets()
    imported = time.monotonic()
    workload = cls(seed, size, workdir)
    ready = time.monotonic()

    if os.environ.get("PERFBENCH_DELAY"):
        import selftest
        selftest.install_delay(os.environ["PERFBENCH_DELAY"])
    recorder = None
    if traced:
        recorder = spans.Recorder()
        recorder.install()
    records, reuses = fastpath_counters()

    loop_before = ref_loop()
    steal0, cpu0, start = steal_seconds(), time.process_time(), time.monotonic()
    raw = workload.run()
    end, cpu1, steal1 = time.monotonic(), time.process_time(), steal_seconds()
    loop_after = ref_loop()

    wall = end - start
    result = workload.outputs(raw)
    workload.close()
    records_after, reuses_after = fastpath_counters()
    result["counts"]["fastpath.records"] = records_after - records
    result["counts"]["fastpath.reuses"] = reuses_after - reuses
    result.update({
        "wall_s": wall,
        "setup_s": ready - spec["t_spawn"],
        "import_s": imported - spec["t_spawn"],
        "inputs_s": ready - imported,
        "cpu_s": cpu1 - cpu0,
        "steal_s": steal1 - steal0,
        "ref_loop_s": (loop_before + loop_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    })
    if recorder is not None:
        result["layers"], result["samples"], result["calls"] = (
            spans.layer_figures(recorder.spans, wall, result["counts"]))
        result["spans"] = recorder.spans
    return result


if __name__ == "__main__":
    unit_spec = json.loads(sys.argv[1])
    with open(unit_spec["out"], "w") as fh:
        json.dump(main(unit_spec), fh)
