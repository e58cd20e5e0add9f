"""Self-test of the benchmark itself (a few minutes):

    python3 perfbench/selftest.py

1. BENCHMARK.json agrees with metrics.py.
2. Smoke: every workload at ``--size small``, untraced and traced, reports
   correct exact outputs and emits every metric of its table with its unit.
3. Hash-seed independence: one workload gives identical exact outputs under
   two different ``PYTHONHASHSEED`` values.
4. Layer -> workload mapping, by injected delay: a fixed sleep per call to
   ``replay_fabric``, then ``Simulator.run``, then ``HTTPBroker.claim``
   (installed by :func:`install_delay` below, inside the unit, beneath the
   trace wrappers) must raise ``fastpath.replay_s``, ``sim.run_s`` and
   ``dist.claim_ms_p50`` by about calls x sleep on every workload that makes
   those calls, and leave them at zero on the workloads the layer table
   says make none.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import metrics
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (span, metric, sleep per call in s, metric is per call, workloads with no
#: such calls).
DELAYS = (
    ("fastpath.replay", "fastpath.replay_s", 0.02, False, {"fig14_dse"}),
    ("sim.run", "sim.run_s", 0.1, False, set()),
    ("dist.claim", "dist.claim_ms_p50", 0.01, True,
     {"fig5_default", "fig14_dse"}),
)


def install_delay(spec: str) -> None:
    """Sleep before every call of the span named in ``span:seconds``."""
    name, _, seconds = spec.rpartition(":")
    delay = float(seconds)

    def make(fn):
        @functools.wraps(fn)
        def slowed(*args: Any, **kwargs: Any) -> Any:
            time.sleep(delay)
            return fn(*args, **kwargs)
        return slowed

    targets = [probe for probe in spans.PROBES if probe.span == name]
    if not targets:
        raise ValueError(f"no probe named {name!r}")
    for probe in targets:
        spans.patch(probe, make)


def bench(workload: str, trace: int, hashseed: int = 0,
          delay: str = "") -> Tuple[dict, dict, List[dict]]:
    """One small benchmark run: (result line, summary, unit records)."""
    env = dict(os.environ)
    env.pop("PERFBENCH_DELAY", None)
    if delay:
        env["PERFBENCH_DELAY"] = delay
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--size", "small",
         "--trace", str(trace), "--hashseed", str(hashseed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run_dir = os.path.join(ROOT, ".perfbench", f"{workload}-trace{trace}")
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    units = []
    for path in sorted(glob.glob(os.path.join(run_dir, "units", "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        if "counts" in record:
            units.append(record)
    return result, summary, units


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        data = json.load(fh)
    expected = metrics.benchmark_json()
    assert data["end_to_end"] == expected["end_to_end"], "end_to_end drifted"
    assert data["per_layer"] == expected["per_layer"], "per_layer drifted"
    assert [w["name"] for w in data["workloads"]] == list(metrics.WORKLOADS)
    assert data["command"] == ["python3", "perfbench/run.py"]


def check_smoke(result: dict, table, label: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m.name: m.unit for m in table}, f"{label}: metric set"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def exact_outputs(units: List[dict]) -> set:
    return {json.dumps([u["outputs"], u["counts"]], sort_keys=True)
            for u in units}


def check_delay(base: Dict[str, Tuple[dict, dict, List[dict]]]) -> None:
    for span, metric, sleep, per_call, none in DELAYS:
        for workload in metrics.WORKLOADS:
            before = base[workload][0]["metrics"][metric]["value"]
            result, summary, _ = bench(workload, 1, delay=f"{span}:{sleep}")
            after = result["metrics"][metric]["value"]
            calls = summary["calls"].get(span, 0)
            label = f"{span} +{sleep}s/call on {workload}"
            if workload in none:
                assert calls == 0 and before == after == 0, (
                    f"{label}: expected no calls, got {calls} "
                    f"({before} -> {after})")
                print(f"  {label}: no calls, {metric} stays 0")
                continue
            assert calls > 0, f"{label}: no calls recorded"
            expected = sleep * 1e3 if per_call else sleep * calls
            rise = after - before
            print(f"  {label}: {calls:g} calls, {metric} +{rise:.4g} "
                  f"(expected +{expected:.4g})")
            assert 0.6 * expected <= rise <= 1.5 * expected, (
                f"{label}: {metric} rose by {rise}, expected ~{expected}")


def main() -> int:
    check_benchmark_json()
    print("BENCHMARK.json matches metrics.py")
    base = {}
    for workload in metrics.WORKLOADS:
        plain = bench(workload, 0)
        check_smoke(plain[0], metrics.END_TO_END, f"{workload} untraced")
        base[workload] = bench(workload, 1)
        check_smoke(base[workload][0], metrics.LAYERS, f"{workload} traced")
        print(f"smoke {workload}: every metric emitted with its unit")
    other = bench("fleet_http", 0, hashseed=1)[2]
    zero = bench("fleet_http", 0, hashseed=0)[2]
    assert len(exact_outputs(zero)) == 1, "units disagree"
    assert exact_outputs(other) == exact_outputs(zero), "hash seed leaks"
    print("fleet_http: identical exact outputs under PYTHONHASHSEED 0 and 1")
    check_delay(base)
    print("injected delays land on the mapped layer and workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
