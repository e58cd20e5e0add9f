"""Benchmark of the SVM hardware-thread simulator, end to end and per layer.

    python3 perfbench/run.py --workload fig5_default --seed 7 --seconds 40 --trace 0

Runs one workload (``fig5_default``, ``fig14_dse``, ``fleet_http``, or
``all`` for a table of each) for about ``--seconds`` seconds and prints one
JSON object as the last line of standard output::

    {"correct": true, "attempted": 168, "failed": 0, "metrics": {...}}

The run is a sequence of *units*: each unit is a fresh interpreter (see
unit.py) that sets up the workload and runs its timed section once.  Units
repeat until the time is up; every reported time is the median over units,
so one unit caught in a slow stretch of the host does not move it, and
end-to-end times are in reference-host seconds (see ``REF_LOOP_S``).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced units alternate and the metrics are the per-layer ones
(metrics.py lists both, with what each should move).

Every unit's exact outputs are checked: they must agree across units,
with a reference recomputed by an independent path after the timed units
(reference mode of unit.py), and with the values pinned for the seed.  A
point that raised, went missing or differs counts in ``failed``.
Diagnostics (host noise, failed fraction, per-unit figures) go to standard
error and to ``.perfbench/<workload>-trace<0|1>/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
UNIT = os.path.join(HERE, "unit.py")
#: Units per mode at the least, however short ``--seconds`` is.
MIN_UNITS = {"plain": 3, "traced": 2}
#: The reference loop's time on the reference host.  End-to-end times are
#: reported in reference-host seconds: each unit's seconds scaled by
#: REF_LOOP_S / the loop time measured around that unit.  The host's speed
#: drifts by +-15% over tens of seconds, far more than a 40 s run can
#: average out; the program's own code never runs inside the loop.
REF_LOOP_S = 0.02
#: A unit during which the hypervisor stole more than this share of its
#: wall time measured the host, not the program: medians skip it while at
#: least MIN_UNITS undisturbed units remain.
STEAL_LIMIT = 0.1
#: A unit or reference that takes longer than this has hung (two of them
#: plus the timed units still end well inside three minutes).
UNIT_TIMEOUT = 50.0


class SetupError(RuntimeError):
    """The program cannot be run here at all (no source tree, import error)."""


def unit_env(run_dir: str, hashseed: int) -> Dict[str, str]:
    """The environment of every unit: its own hash seed, the source tree on
    the path, and temp/home inside the run directory, so nothing is shared
    between runs or written outside the checkout."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(PYTHONHASHSEED=str(hashseed), PYTHONPATH=SRC,
               TMPDIR=run_dir, HOME=run_dir)
    return env


def run_unit(args: argparse.Namespace, run_dir: str, index: int, mode: str,
             unit: Optional[dict] = None) -> Dict[str, Any]:
    """Spawn one unit; its record, or ``{"error": ...}`` if it failed."""
    workdir = os.path.join(run_dir, f"work{index:02d}")
    out = os.path.join(run_dir, "units", f"{index:02d}-{mode}.json")
    os.makedirs(workdir)
    spec = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "mode": mode, "workdir": workdir, "out": out, "unit": unit}
    env = unit_env(run_dir, args.hashseed)
    try:
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.run([sys.executable, UNIT, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=UNIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {UNIT_TIMEOUT}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(out):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "error": f"exit {proc.returncode}: {tail[0]}"}
    with open(out) as fh:
        record = json.load(fh)
    record["mode"] = mode
    return record


def run_units(args: argparse.Namespace, run_dir: str) -> List[dict]:
    """Alternate the run's modes until the next unit would overrun."""
    modes = ("plain", "traced") if args.trace else ("plain",)
    units: List[dict] = []
    start = time.monotonic()
    while True:
        mode = modes[len(units) % len(modes)]
        units.append(run_unit(args, run_dir, len(units), mode))
        if len(units) == 1 and "error" in units[0]:
            raise SetupError(units[0]["error"])
        elapsed = time.monotonic() - start
        enough = all(sum(u["mode"] == m for u in units) >= MIN_UNITS[m]
                     for m in modes)
        if enough and elapsed * (len(units) + 1) / len(units) > args.seconds:
            return units


# ---------------------------------------------------------------------------
# Exact-output checks
# ---------------------------------------------------------------------------
def consensus(values: List[Any]) -> Any:
    return Counter(json.dumps(v, sort_keys=True) for v in values
                   ).most_common(1)[0][0]


def check(args: argparse.Namespace, units: List[dict],
          reference: Dict[str, Any]) -> List[str]:
    """Mark every unit's failed points (``unit["failed"]``); returns the
    run-level problems found (empty when everything matched)."""
    workload = WORKLOADS[args.workload]
    nominal = workload.nominal_points(args.size)
    good = [u for u in units if "error" not in u]
    problems = [f"unit {i} ({u['mode']}): {u['error']}"
                for i, u in enumerate(units) if "error" in u]
    if "error" in reference:
        problems.append(f"reference: {reference['error']}")

    keys = sorted({k for u in good for k in u["outputs"]}
                  | set(reference.get("outputs", {})))
    expected = {}
    for key in keys:
        seen = [u["outputs"][key] for u in good if key in u["outputs"]]
        expected[key] = reference.get("outputs", {}).get(
            key, json.loads(consensus(seen)) if seen else None)

    exact = [unit_exact(u) for u in good]
    names = sorted({name for e in exact for name in e})
    agreed = {name: json.loads(consensus([e[name] for e in exact
                                          if name in e]))
              for name in names}
    pinned = workload.pins.get(args.seed, {}) if args.size == "full" else {}
    for name, value in pinned.items():
        if agreed.get(name) != value:
            problems.append(f"pinned {name}={value} at seed {args.seed}, "
                            f"got {agreed.get(name)}")

    for unit in units:
        if "error" in unit:
            unit["failed"], unit["points"] = nominal, nominal
            continue
        bad = [k for k in keys if unit["outputs"].get(k) != expected[k]]
        drift = [n for n, v in unit_exact(unit).items() if v != agreed[n]]
        if bad:
            problems.append(f"{len(bad)} output(s) differ, e.g. {bad[0]}")
        if drift:
            problems.append(f"exact counts differ between units: {drift}")
        if drift or "error" in reference or (pinned and any(
                agreed.get(n) != v for n, v in pinned.items())):
            unit["failed"] = unit["points"]
        elif workload.per_point:
            unit["failed"] = min(len(bad), unit["points"])
        else:
            unit["failed"] = unit["points"] if bad else 0
    return problems


def unit_exact(unit: dict) -> Dict[str, Any]:
    """The unit's exact counts: from results, and from spans when traced."""
    exact = dict(unit["counts"])
    for layer in metrics.LAYERS:
        if layer.combine == "exact" and layer.name in unit.get("layers", {}):
            exact[layer.name] = unit["layers"][layer.name]
    return exact


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(samples: List[float]):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0, 0.0
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def undisturbed(units: List[dict], mode: str) -> List[dict]:
    """The ``mode`` units without a burst of steal time, if enough are left."""
    units = [u for u in units if u["mode"] == mode]
    calm = [u for u in units if u["steal_s"] <= STEAL_LIMIT * u["wall_s"]]
    return calm if len(calm) >= MIN_UNITS[mode] else units


def host_scale(unit: dict) -> float:
    """Seconds on this host -> seconds on the reference host, from the
    unit's own reference-loop timing."""
    return REF_LOOP_S / unit["ref_loop_s"]


def end_to_end(plain: List[dict]) -> Dict[str, float]:
    walls = [u["wall_s"] * host_scale(u) for u in plain]
    return {"wall_s": median(walls),
            "points_per_s": median([u["points"] / wall
                                    for u, wall in zip(plain, walls)]),
            "setup_s": median([u["setup_s"] * host_scale(u) for u in plain]),
            "peak_rss_mb": median([u["peak_rss_mb"] for u in plain])}


def host(plain: List[dict]) -> Dict[str, float]:
    return {"host.cpu_s": median([u["cpu_s"] for u in plain]),
            "host.wait_s": median([u["wall_s"] - u["cpu_s"] for u in plain]),
            "host.steal_s": median([u["steal_s"] for u in plain]),
            "host.ref_loop_s": median([u["ref_loop_s"] for u in plain]),
            "setup.import_s": median([u["import_s"] for u in plain]),
            "setup.inputs_s": median([u["inputs_s"] for u in plain])}


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    values = host(plain)
    values["trace.overhead_frac"] = (
        median([u["wall_s"] * host_scale(u) for u in traced])
        / median([u["wall_s"] * host_scale(u) for u in plain]) - 1.0)
    pooled: Dict[str, List[float]] = {}
    for unit in traced:
        for name, samples in unit["samples"].items():
            pooled.setdefault(name, []).extend(samples)
    for name, samples in pooled.items():
        value, pct = tail(samples)
        values[f"{name}_p50"] = median(samples)
        values[f"{name}_tail"], values[f"{name}_tail_pct"] = value, pct
    for layer in metrics.LAYERS:
        if layer.name in values:
            continue
        if layer.combine == "exact":
            found = [unit_exact(u)[layer.name] for u in traced
                     if layer.name in unit_exact(u)]
            values[layer.name] = json.loads(consensus(found)) if found else 0
        else:
            values[layer.name] = median([u["layers"][layer.name]
                                         for u in traced])
    return values


def calls(traced: List[dict]) -> Dict[str, float]:
    names = sorted({name for u in traced for name in u["calls"]})
    return {name: median([u["calls"].get(name, 0) for u in traced])
            for name in names}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "units"))
    # Byte-compile first so no unit pays for it inside its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   env=unit_env(run_dir, args.hashseed), cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=30, check=False)
    units = run_units(args, run_dir)
    good = [u for u in units if "error" not in u]
    plain = undisturbed(good, "plain")
    traced = undisturbed(good, "traced")
    reference = run_unit(args, run_dir, len(units), "reference",
                         unit={"extra": good[0]["extra"]} if good else None)
    problems = check(args, units, reference)
    if not plain or (args.trace and not traced):
        raise SetupError("no unit of a needed mode completed: "
                         + "; ".join(problems))

    attempted = sum(u["points"] for u in units)
    failed = sum(u["failed"] for u in units)
    if args.trace:
        values = per_layer(plain, traced)
        table = [(m.name, m.unit) for m in metrics.LAYERS]
    else:
        values = end_to_end(plain)
        table = [(m.name, m.unit) for m in metrics.END_TO_END]
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in table}}
    summary = {"workload": args.workload, "seed": args.seed,
               "hashseed": args.hashseed, "size": args.size,
               "trace": args.trace, "result": result, "problems": problems,
               "failed_frac": failed / attempted if attempted else 0.0,
               "host": host(plain), "calls": calls(traced),
               "raw": {"wall_s": median([u["wall_s"] for u in plain]),
                       "setup_s": median([u["setup_s"] for u in plain])},
               "units": [{k: u.get(k) for k in
                          ("mode", "error", "wall_s", "setup_s", "cpu_s",
                           "steal_s", "ref_loop_s", "peak_rss_mb", "points",
                           "failed")} for u in units]}
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    report(summary)
    return result


def report(summary: Dict[str, Any]) -> None:
    """Human-readable run summary on standard error."""
    err = sys.stderr
    result = summary["result"]
    units = summary["units"]
    print(f"perfbench {summary['workload']}: seed={summary['seed']} "
          f"PYTHONHASHSEED={summary['hashseed']} size={summary['size']} "
          f"trace={summary['trace']} units={len(units)}", file=err)
    moves = {m.name: m.moves for m in metrics.LAYERS}
    moves.update((m.name, m.definition) for m in metrics.END_TO_END)
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<9}"
              f" {moves.get(name, '')}", file=err)
    print(f"  {'failed_frac':<30} {summary['failed_frac']:>14.6g} ratio     "
          f" ({result['failed']} of {result['attempted']} points)", file=err)
    print("  host (median of untraced units): " + " ".join(
        f"{k}={v:.4g}" for k, v in summary["host"].items())
        + " raw (unscaled): " + " ".join(
        f"{k}={v:.4g}" for k, v in summary["raw"].items()), file=err)
    print("  unit wall_s: " + " ".join(
        f"{u['mode'][0]}{u['wall_s']:.3f}" if u.get("wall_s") else "error"
        for u in units), file=err)
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}", file=err)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed: fig5/fleet workload specs, "
                             "fig14 explorer (default 7)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep starting units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: tiny inputs, for the self-test")
    parser.add_argument("--hashseed", type=int, default=0,
                        help="PYTHONHASHSEED of every unit (default 0)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = run_workload(args)
        except SetupError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
