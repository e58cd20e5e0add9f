"""Command-line interface: run any experiment of the evaluation by name.

Usage::

    python -m repro list                      # experiments, kernels, models
    python -m repro models                    # registered execution models
    python -m repro run table3 --scale tiny   # regenerate one table/figure
    python -m repro run fig5 --json           # machine-readable output
    python -m repro compare matmul --scale tiny --models svm,copydma
    python -m repro run fig5 --results-db results.db   # persist outcomes
    python -m repro query --db results.db --experiment fig5_tlb_sweep
    python -m repro broker serve --db sweeps.db --port 8754   # HTTP broker
    python -m repro worker --broker sweeps.db             # shared-fs fleet
    python -m repro worker --broker http://host:8754      # networked fleet
    python -m repro sweep submit --broker http://host:8754 spec.json
    python -m repro sweep results --broker sweeps.db <id> --follow

``--broker`` takes a broker URL: a bare path or ``sqlite:///path/to.db``
opens the SQLite backend directly (all processes share the file), while
``http://host:port`` talks to a ``repro broker serve`` server — no shared
filesystem required.

The ``run`` subcommand is built entirely on the experiment metadata in
:data:`repro.eval.experiments.EXPERIMENTS` (which knobs each experiment
declares); the ``compare``/``models`` subcommands on the execution-model
registry (:mod:`repro.models`); the ``query`` subcommand on the append-only
results store (:mod:`repro.store`).  Registering a new experiment or model
makes it reachable here without touching this module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .dse import BudgetExhaustedError, explorer_names
from .eval.experiments import EXPERIMENTS
from .eval.harness import HarnessConfig, compare
from .eval.report import (format_nested_series, format_output, format_series,
                          format_table)
from .exec import SweepRunner, default_cache
from .exec.db import DatabaseOpenError
from .models import TIERS, get_model, registered_models
from .store import open_results_store
from .workloads import available_workload_kernels, workload

#: Default on-disk cache location; ``--cache-dir`` / ``REPRO_CACHE_DIR``
#: override, ``--no-cache`` disables caching entirely.
DEFAULT_CACHE_DIR = ".repro-cache"


# ---------------------------------------------------------------------------
# Output rendering
# ---------------------------------------------------------------------------
def _print_output(rows: List[dict], columns: Optional[List[str]] = None,
                  fmt: str = "table", title: str = "") -> None:
    """Print rows through the shared :func:`format_output` renderer.

    CSV already ends with a newline (no extra one); table and JSON get the
    terminating newline ``print`` adds.
    """
    text = format_output(rows, columns=columns, fmt=fmt, title=title)
    print(text, end="" if fmt == "csv" else "\n")


def _render(result: object) -> str:
    """Best-effort text rendering of an experiment result structure."""
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return format_table(result)
    if isinstance(result, dict):
        values = list(result.values())
        if values and isinstance(values[0], dict) and all(
                isinstance(v, dict) for v in values):
            try:
                return format_nested_series(result)   # {group: {name: [..]}}
            except Exception:                          # fall through to JSON
                pass
        if values and isinstance(values[0], list):
            try:
                return format_series(result)
            except Exception:
                pass
    return json.dumps(result, indent=2, default=str)


def _to_rows(result: object) -> List[dict]:
    """Flatten any experiment result structure into a list of row dicts."""
    if isinstance(result, list) and all(isinstance(r, dict) for r in result):
        return list(result)
    if isinstance(result, dict):
        values = list(result.values())
        # {group: {name: [values...]}} — nested per-kernel series.
        if values and all(isinstance(v, dict) for v in values):
            rows = []
            for group, series in result.items():
                for row in _series_rows(series):
                    rows.append({"group": group, **row})
            return rows
        # {name: [row dicts...]} — e.g. fig10's points/pareto sets.
        if values and all(isinstance(v, list) and v
                          and all(isinstance(i, dict) for i in v)
                          for v in values):
            return [{"series": name, **row}
                    for name, rows_ in result.items() for row in rows_]
        # {name: [values...]} — flat series.
        if values and all(isinstance(v, (list, tuple)) for v in values):
            return _series_rows(result)
        # Flat scalar mapping — one row.
        return [dict(result)]
    raise ValueError(f"cannot tabulate result of type {type(result).__name__}")


def _series_rows(series: dict) -> List[dict]:
    length = max((len(v) for v in series.values()), default=0)
    return [{key: (values[i] if i < len(values) else "")
             for key, values in series.items()}
            for i in range(length)]


def _emit(result: object, args: argparse.Namespace) -> None:
    # ``--json`` is a raw passthrough of the experiment's own structure
    # (pinned output contract); row-shaped formats go through the shared
    # ``format_output`` renderer after ``_to_rows`` flattening.
    if getattr(args, "json", False):
        print(json.dumps(result, indent=2, default=str))
        return
    if getattr(args, "csv", False):
        _print_output(_to_rows(result), fmt="csv")
        return
    print(_render(result))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for virtual-memory-enabled "
                    "hardware threads (DATE 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, kernels and models")
    sub.add_parser("models", help="list registered execution models")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return value

    def add_exec_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                         help="evaluate independent experiment points on N "
                              "worker processes (default: 1, serial)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="disable memoization of repeated experiment "
                              "points (cache is on by default)")
        cmd.add_argument("--cache-dir", metavar="DIR",
                         default=os.environ.get("REPRO_CACHE_DIR",
                                                DEFAULT_CACHE_DIR),
                         help="persist the memo cache here so hits survive "
                              "across invocations (default: %(default)s, "
                              "or $REPRO_CACHE_DIR)")
        cmd.add_argument("--refresh-cache", action="store_true",
                         help="drop all cached results first, then re-run "
                              "and repopulate (use after changing simulator "
                              "code within one version)")
        cmd.add_argument("--cache-max-mb", type=positive_float, default=None,
                         metavar="MB",
                         help="cap the on-disk cache; least-recently-used "
                              "entries are evicted past the cap (default: "
                              "$REPRO_CACHE_MAX_MB, or uncapped)")
        cmd.add_argument("--stats", action="store_true",
                         help="print the runner summary (timings, cache and "
                              "tier accounting) as JSON on stderr instead "
                              "of the text form")
        add_results_db_flag(cmd)

    def add_results_db_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--results-db", metavar="PATH",
                         default=os.environ.get("REPRO_RESULTS_DB") or None,
                         help="append every computed outcome to this "
                              "append-only SQLite results store (queryable "
                              "with `repro query`; default: "
                              "$REPRO_RESULTS_DB, or disabled)")

    def add_output_flags(cmd: argparse.ArgumentParser) -> None:
        fmt = cmd.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="emit the raw result structure as JSON")
        fmt.add_argument("--csv", action="store_true",
                         help="emit the result as CSV rows")

    run = sub.add_parser("run", help="run one experiment (table/figure)")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", default="tiny",
                     choices=("tiny", "default", "large"),
                     help="workload size class (where applicable)")
    run.add_argument("--models", default=None, metavar="A,B,...",
                     help="restrict a model-sweeping experiment (table3, "
                          "fig11, ...) to these registered execution models")
    run.add_argument("--tier", default=None, choices=TIERS,
                     help="execution tier for experiments that support it: "
                          "replay records each op stream once and replays it "
                          "through the fastpath engine (identical results, "
                          "less wall-clock); auto falls back to the event "
                          "simulator when a point is ineligible")
    run.add_argument("--explorer", default=None, metavar="NAME",
                     help="design-space exploration backend for adaptive-DSE "
                          "experiments (fig14): exhaustive evaluates the "
                          "whole grid, successive-halving searches it under "
                          "--budget; any backend registered via "
                          "repro.dse.register_explorer is accepted")
    run.add_argument("--budget", type=positive_int, default=None, metavar="N",
                     help="hard evaluation budget for adaptive-DSE "
                          "experiments: at most N evaluator runs, warm-start "
                          "adoptions from the results store are free")
    add_exec_flags(run)
    add_output_flags(run)

    bench = sub.add_parser(
        "bench",
        help="run the benchmark suite; optionally gate against a baseline")
    bench.add_argument("--output", metavar="PATH", default=None,
                       help="write the report here "
                            "(default: BENCH_<sha>.json)")
    bench.add_argument("--baseline", metavar="PATH", default=None,
                       help="gate against this baseline: exit 1 if any "
                            "cycle metric differs from it, an entry or "
                            "metric is missing on either side, or a wall "
                            "time exceeds its budget by more than 20%%")
    bench.add_argument("--write-baseline", metavar="PATH", nargs="?",
                       const="benchmarks/baseline.json", default=None,
                       help="also write the report as the new baseline "
                            "(default path: %(const)s)")
    bench.add_argument("--only", metavar="A,B,...", default=None,
                       help="run only these suite entries (comma-separated; "
                            "the scheduled default-scale CI job runs the "
                            "contention entries this way)")
    bench.add_argument("--scale", default="tiny",
                       choices=("tiny", "default", "large"),
                       help="workload size class for every entry (the "
                            "committed baseline is tiny-scale: gate flags "
                            "only make sense at tiny)")
    bench.add_argument("--summary", metavar="PATH", default=None,
                       help="append a markdown drift table (this run vs "
                            "--summary-baseline) to PATH — pass "
                            "$GITHUB_STEP_SUMMARY in CI")
    bench.add_argument("--summary-baseline", metavar="PATH",
                       default="benchmarks/baseline.json",
                       help="baseline the --summary table compares against "
                            "(default: %(default)s; never fails the run)")
    bench.add_argument("--json", action="store_true",
                       help="print the report as JSON on stdout")
    add_results_db_flag(bench)

    cmp_cmd = sub.add_parser("compare",
                             help="compare execution models on one kernel")
    cmp_cmd.add_argument("kernel", choices=available_workload_kernels())
    cmp_cmd.add_argument("--scale", default="tiny",
                         choices=("tiny", "default", "large"))
    cmp_cmd.add_argument("--tlb-entries", type=int, default=None,
                         help="fixed TLB size (default: auto-sized)")
    cmp_cmd.add_argument("--models", default=None, metavar="A,B,...",
                         help="comma-separated execution models to run "
                              "(default: all canonical models)")
    add_exec_flags(cmp_cmd)
    add_output_flags(cmp_cmd)

    def add_broker_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--broker", metavar="URL", required=True,
                         help="broker URL: a path or sqlite:///path/to.db "
                              "opens the SQLite backend (file shared by "
                              "submitters and workers, created on first "
                              "use); http://host:port connects to a "
                              "`repro broker serve` server")

    def add_worker_cache_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--no-cache", action="store_true",
                         help="do not consult/populate the shared memo store")
        cmd.add_argument("--cache-dir", metavar="DIR",
                         default=os.environ.get("REPRO_CACHE_DIR",
                                                DEFAULT_CACHE_DIR),
                         help="fleet-wide memo store directory shared with "
                              "other workers and submitters "
                              "(default: %(default)s, or $REPRO_CACHE_DIR)")

    worker_cmd = sub.add_parser(
        "worker",
        help="run a sweep worker: claim, lease, execute and report jobs "
             "from a broker until the queue stays idle")
    add_broker_flag(worker_cmd)
    add_worker_cache_flags(worker_cmd)
    worker_cmd.add_argument("--id", default=None, metavar="NAME",
                            help="worker id recorded on claims/results "
                                 "(default: <hostname>-<pid>)")
    worker_cmd.add_argument("--lease-seconds", type=positive_float,
                            default=None, metavar="S",
                            help="claim lease duration; a worker that dies "
                                 "frees its job after this long "
                                 "(default: the broker's 30s)")
    worker_cmd.add_argument("--idle-grace", type=float, default=0.0,
                            metavar="S",
                            help="keep polling this long after the queue "
                                 "empties before exiting (default: exit on "
                                 "the first empty poll)")
    worker_cmd.add_argument("--poll-interval", type=positive_float,
                            default=0.05, metavar="S",
                            help="sleep between empty polls "
                                 "(default: %(default)s)")
    worker_cmd.add_argument("--max-jobs", type=positive_int, default=None,
                            metavar="N",
                            help="exit after executing N jobs")

    broker_cmd = sub.add_parser(
        "broker", help="run broker services (the HTTP front for a fleet)")
    broker_sub = broker_cmd.add_subparsers(dest="broker_command",
                                           required=True)
    serve = broker_sub.add_parser(
        "serve",
        help="serve a SQLite broker over HTTP so workers and submitters "
             "need no shared filesystem (connect with "
             "--broker http://host:port)")
    serve.add_argument("--db", metavar="PATH", required=True,
                       help="SQLite broker file backing the server "
                            "(created on first use)")
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                       help="bind address (default: %(default)s; use "
                            "0.0.0.0 to accept remote workers)")
    serve.add_argument("--port", type=int, default=8754, metavar="N",
                       help="listen port (default: %(default)s; 0 picks a "
                            "free port and prints it)")
    serve.add_argument("--lease-seconds", type=positive_float, default=None,
                       metavar="S",
                       help="fleet-wide claim lease duration; connecting "
                            "workers inherit it (default: the broker's 30s)")
    serve.add_argument("--max-request-mb", type=positive_float, default=64.0,
                       metavar="MB",
                       help="reject request bodies larger than this with "
                            "HTTP 413 (default: %(default)s)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every request to stderr")
    # The server owns the fleet-wide memo/results consult: clients cannot
    # ship store handles over the wire, so these flags live here.
    add_worker_cache_flags(serve)
    add_results_db_flag(serve)

    sweep_cmd = sub.add_parser(
        "sweep", help="submit sweeps to a broker and poll their results")
    sweep_sub = sweep_cmd.add_subparsers(dest="sweep_command", required=True)

    submit = sweep_sub.add_parser(
        "submit", help="enqueue a JSON sweep spec; prints the sweep id")
    add_broker_flag(submit)
    add_worker_cache_flags(submit)
    submit.add_argument("spec", nargs="?", default="-", metavar="SPEC.json",
                        help="sweep spec file ('-' or omitted: read stdin)")
    submit.add_argument("--id-only", action="store_true",
                        help="print only the sweep id (for scripting)")
    # At enqueue time a SQLite broker consults the persistent results store
    # too: any point a past run recorded under this package version is
    # adopted as done without queueing it.  An HTTP broker consults the
    # store its server was started with (`repro broker serve --results-db`).
    add_results_db_flag(submit)

    status = sweep_sub.add_parser("status", help="one sweep's state counts")
    add_broker_flag(status)
    status.add_argument("sweep_id")
    status.add_argument("--json", action="store_true",
                        help="emit the raw status record as JSON")

    results = sweep_sub.add_parser(
        "results",
        help="stream a sweep's finished points as JSON lines")
    add_broker_flag(results)
    results.add_argument("sweep_id")
    results.add_argument("--follow", action="store_true",
                         help="poll until every job finishes, printing each "
                              "point as it completes")
    results.add_argument("--timeout", type=positive_float, default=None,
                         metavar="S",
                         help="bound --follow; exit 1 if the sweep is still "
                              "running after S seconds")
    results.add_argument("--poll-interval", type=positive_float, default=0.2,
                         metavar="S",
                         help="sleep between polls while following "
                              "(default: %(default)s)")
    results.add_argument("--format", default="jsonl",
                         choices=("jsonl", "table", "csv", "json"),
                         help="jsonl streams one JSON object per finished "
                              "point as it arrives (default); table/csv/"
                              "json collect the points into one-row-per-"
                              "point output via the shared renderer")

    list_cmd = sweep_sub.add_parser("list", help="status of every sweep")
    add_broker_flag(list_cmd)
    list_cmd.add_argument("--json", action="store_true",
                          help="emit the raw status records as JSON")

    query = sub.add_parser(
        "query",
        help="query an append-only results store written via --results-db")
    query.add_argument("--db", metavar="PATH",
                       default=os.environ.get("REPRO_RESULTS_DB") or None,
                       help="the results store file to read "
                            "(default: $REPRO_RESULTS_DB)")
    query.add_argument("--experiment", default=None,
                       help="restrict to rows recorded under this "
                            "experiment/sweep label ('bench' for the "
                            "benchmark suite)")
    query.add_argument("--model", default=None,
                       help="restrict to one execution model")
    query.add_argument("--kernel", default=None,
                       help="restrict to one workload kernel")
    query.add_argument("--sha", default=None,
                       help="restrict to rows recorded at this git sha")
    query.add_argument("--tier", default=None,
                       help="restrict to one execution tier (event/replay)")
    query.add_argument("--coord", action="append", default=[],
                       metavar="AXIS=VALUE",
                       help="restrict to rows whose sweep coordinates "
                            "contain AXIS=VALUE (repeatable)")
    query.add_argument("--since", default=None, metavar="WHEN",
                       help="only rows recorded at or after this ISO "
                            "date/datetime (UTC)")
    query.add_argument("--until", default=None, metavar="WHEN",
                       help="only rows recorded at or before this ISO "
                            "date/datetime (UTC)")
    query.add_argument("--limit", type=positive_int, default=None,
                       metavar="N", help="emit at most N rows")
    query.add_argument("--columns", default=None, metavar="A,B,...",
                       help="restrict and order the output columns")
    query.add_argument("--trend", default=None, metavar="METRIC",
                       help="aggregate METRIC per git sha (runs + min/mean/"
                            "max) instead of listing individual rows — the "
                            "cross-commit trend view")
    query.add_argument("--format", default="table",
                       choices=("table", "csv", "json"),
                       help="output format (default: %(default)s)")
    return parser


def _parse_models(text: str):
    """Comma-separated model names -> tuple, or None (and a message) if any
    name is not in the registry."""
    models = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = set(models) - set(registered_models())
    if unknown:
        print(f"unknown models: {', '.join(sorted(unknown))} "
              f"(registered: {', '.join(registered_models())})",
              file=sys.stderr)
        return None
    return models


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    max_bytes = None
    if args.cache_max_mb is not None:
        max_bytes = int(args.cache_max_mb * 1024 * 1024)
    cache = None if args.no_cache else default_cache(args.cache_dir,
                                                     max_bytes=max_bytes)
    if cache is not None and args.refresh_cache:
        cache.clear()
    results = (open_results_store(args.results_db)
               if getattr(args, "results_db", None) else None)
    return SweepRunner(jobs=args.jobs, cache=cache, results=results)


def _report_runner(runner: SweepRunner, args: argparse.Namespace) -> None:
    """The post-run runner summary on stderr: JSON with ``--stats``."""
    if getattr(args, "stats", False):
        print(json.dumps(runner.summary_dict(), indent=2, sort_keys=True),
              file=sys.stderr)
    elif runner.timings:
        print(runner.summary(), file=sys.stderr)


def _sweep_memo(args: argparse.Namespace):
    """The shared fleet memo store a worker/submitter should attach to."""
    if args.no_cache:
        return None
    return default_cache(args.cache_dir)


def _sweep_results(args: argparse.Namespace):
    """The persistent results store a submitter should consult, if any."""
    if getattr(args, "results_db", None):
        return open_results_store(args.results_db)
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except DatabaseOpenError as exc:
        # A broker or results-store path that is a directory or not a
        # database (the memo cache falls back to memory instead): every
        # command reports it here.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        print("experiments:")
        for name in sorted(EXPERIMENTS):
            exp = EXPERIMENTS[name]
            print(f"  {name:<18s} {exp.title}")
        print("kernels:    ", ", ".join(available_workload_kernels()))
        print("models:     ", ", ".join(registered_models()))
        return 0

    if args.command == "models":
        for name in registered_models():
            model = get_model(name)
            doc = (type(model).__doc__ or model.__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print(f"{name:<12s} {summary}")
        return 0

    if args.command == "run":
        exp = EXPERIMENTS[args.experiment]
        overrides = {}
        if args.models:
            models = _parse_models(args.models)
            if models is None:
                return 2
            if "models" not in exp.knobs:
                print(f"experiment {exp.name!r} does not sweep models "
                      f"(knobs: {', '.join(exp.knobs)})", file=sys.stderr)
                return 2
            overrides["models"] = models
        if args.tier:
            if "tier" not in exp.knobs:
                print(f"experiment {exp.name!r} does not select execution "
                      f"tiers (knobs: {', '.join(exp.knobs)})",
                      file=sys.stderr)
                return 2
            overrides["tier"] = args.tier
        if args.explorer:
            if "explorer" not in exp.knobs:
                print(f"experiment {exp.name!r} does not take an exploration "
                      f"backend (knobs: {', '.join(exp.knobs)})",
                      file=sys.stderr)
                return 2
            if args.explorer not in explorer_names():
                print(f"unknown explorer {args.explorer!r} "
                      f"(registered: {', '.join(explorer_names())})",
                      file=sys.stderr)
                return 2
            overrides["explorer"] = args.explorer
        if args.budget is not None:
            if "budget" not in exp.knobs:
                print(f"experiment {exp.name!r} does not take an evaluation "
                      f"budget (knobs: {', '.join(exp.knobs)})",
                      file=sys.stderr)
                return 2
            overrides["budget"] = args.budget
        # Built unconditionally so cache flags (--refresh-cache in
        # particular) take effect even for non-sweepable experiments.
        runner = _make_runner(args)
        try:
            result = exp.run(scale=args.scale,
                             runner=runner if exp.sweepable else None,
                             **overrides)
        except BudgetExhaustedError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2
        _emit(result, args)
        _report_runner(runner, args)
        return 0

    if args.command == "bench":
        from .eval import bench as bench_mod
        baseline_flags = [flag for flag, value in
                          (("--baseline", args.baseline),
                           ("--write-baseline", args.write_baseline))
                          if value]
        only = None
        if args.only:
            only = [name.strip() for name in args.only.split(",")
                    if name.strip()]
            unknown = set(only) - set(bench_mod.BENCH_SUITE)
            if unknown:
                print(f"unknown benchmark entries: "
                      f"{', '.join(sorted(unknown))} "
                      f"(suite: {', '.join(bench_mod.BENCH_SUITE)})",
                      file=sys.stderr)
                return 2
            # The gate and the baseline writer are whole-suite semantics: a
            # subset run would report every skipped entry as missing, or
            # overwrite the baseline with a partial one.
            if baseline_flags:
                print(f"--only runs a subset of the suite and cannot be "
                      f"combined with {', '.join(baseline_flags)} "
                      "(whole-suite semantics)", file=sys.stderr)
                return 2
        if args.scale != "tiny" and baseline_flags:
            # The committed baseline is tiny-scale: gating against it at
            # another scale reports nonsense drift, and writing it would
            # poison every subsequent CI gate.
            print(f"--scale {args.scale} cannot be combined with "
                  f"{', '.join(baseline_flags)}: the committed baseline "
                  "is tiny-scale", file=sys.stderr)
            return 2
        # Opened before the suite runs, so a bad path fails at once.
        store = (open_results_store(args.results_db) if args.results_db
                 else None)
        count = len(only) if only is not None else len(bench_mod.BENCH_SUITE)
        print(f"benchmark suite ({count} entries, serial, "
              f"scale={args.scale}):", file=sys.stderr)
        report = bench_mod.run_suite(
            progress=lambda line: print(line, file=sys.stderr),
            scale=args.scale, only=only)
        output = args.output or f"BENCH_{report.sha}.json"
        bench_mod.write_report(report, output)
        print(f"wrote {output}", file=sys.stderr)
        if store is not None:
            appended = store.record_bench(report, scale=args.scale)
            print(f"recorded {appended} bench row(s) in {args.results_db} "
                  "(query with: repro query --experiment bench "
                  f"--db {args.results_db})", file=sys.stderr)
        if args.write_baseline:
            bench_mod.write_baseline(report, args.write_baseline)
            print(f"wrote baseline {args.write_baseline} "
                  "(exact cycles, padded wall budgets)", file=sys.stderr)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        if args.summary:
            baseline_data = None
            if os.path.exists(args.summary_baseline):
                baseline_data = bench_mod.load_report(args.summary_baseline)
                if only is not None:
                    # Subset run: only compare the entries that actually ran,
                    # so skipped benchmarks don't read as drift.
                    baseline_data = dict(baseline_data)
                    baseline_data["records"] = {
                        name: record
                        for name, record in baseline_data["records"].items()
                        if name in report.records}
            with open(args.summary, "a") as fh:
                fh.write(bench_mod.summarize_drift(report.as_dict(),
                                                   baseline_data))
            print(f"appended drift summary to {args.summary}",
                  file=sys.stderr)
        if args.baseline:
            problems = bench_mod.compare(report.as_dict(),
                                         bench_mod.load_report(args.baseline))
            if problems:
                print(f"benchmark gate FAILED (vs {args.baseline}); after an "
                      "intentional change, refresh the baseline with "
                      "`repro bench --write-baseline`:", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
                return 1
            print(f"benchmark gate passed (vs {args.baseline}: cycle "
                  "metrics exact, wall times within budget "
                  f"+{bench_mod.WALL_TOLERANCE:.0%})", file=sys.stderr)
        return 0

    if args.command == "compare":
        if args.tlb_entries is None:
            config = HarnessConfig(auto_size_tlb=True)
        else:
            config = HarnessConfig(tlb_entries=args.tlb_entries)
        models = None
        if args.models:
            models = _parse_models(args.models)
            if models is None:
                return 2
        runner = _make_runner(args)
        result = compare(workload(args.kernel, scale=args.scale), config,
                         runner=runner, models=models)
        row = result.as_row()
        if args.json:
            _emit([row], args)        # raw passthrough, pinned contract
        else:
            _print_output([row], fmt="csv" if args.csv else "table",
                          title=f"Comparison: {args.kernel} ({args.scale})")
        _report_runner(runner, args)
        return 0

    if args.command == "worker":
        from .dist import BrokerUnavailable, Worker, connect_broker
        try:
            broker = connect_broker(args.broker, **(
                {} if args.lease_seconds is None
                else {"lease_seconds": args.lease_seconds}))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            worker = Worker(broker, memo=_sweep_memo(args),
                            worker_id=args.id,
                            lease_seconds=args.lease_seconds)
            executed = worker.run_until_idle(idle_grace=args.idle_grace,
                                             poll_interval=args.poll_interval,
                                             max_jobs=args.max_jobs)
        except BrokerUnavailable as exc:
            print(str(exc), file=sys.stderr)
            return 1
        finally:
            broker.close()
        print(f"worker {worker.worker_id}: executed {executed} job(s), "
              f"{worker.failures} failure(s)", file=sys.stderr)
        return 0

    if args.command == "broker":
        return _broker_command(args)

    if args.command == "sweep":
        from .dist import BrokerUnavailable, connect_broker, sqlite_path
        try:
            path = sqlite_path(args.broker)
            if (args.sweep_command != "submit" and path is not None
                    and not os.path.exists(path)):
                # Reading commands must not create a broker database.
                missing = f"no broker database at {path}"
                print(missing if args.sweep_command == "list" else
                      f"unknown sweep {args.sweep_id!r}: {missing}",
                      file=sys.stderr)
                return 2
            broker = connect_broker(args.broker)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            return _sweep_command(broker, args)
        except BrokerUnavailable as exc:
            print(str(exc), file=sys.stderr)
            return 1
        finally:
            broker.close()

    if args.command == "query":
        return _query_command(args)

    return 1


def _broker_command(args: argparse.Namespace) -> int:
    from .dist import BrokerServer, SQLiteBroker

    broker = SQLiteBroker(args.db, **(
        {} if args.lease_seconds is None
        else {"lease_seconds": args.lease_seconds}))
    try:
        server = BrokerServer(
            broker, host=args.host, port=args.port,
            memo=_sweep_memo(args), results=_sweep_results(args),
            max_request_bytes=int(args.max_request_mb * 1024 * 1024),
            quiet=not args.verbose)
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        broker.close()
        return 1
    print(f"serving broker {args.db} at {server.url} (stop with Ctrl-C)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        broker.close()
    return 0


def _sweep_command(broker, args: argparse.Namespace) -> int:
    from .dist import HTTPBroker, service

    if args.sweep_command == "submit":
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec) as fh:
                text = fh.read()
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            print(f"spec is not valid JSON: {exc}", file=sys.stderr)
            return 2
        # An HTTP broker consults the stores its server was started with;
        # local ones would be opened (and created) for nothing.
        local = not isinstance(broker, HTTPBroker)
        if not local and args.results_db:
            print(f"repro sweep submit: results store {args.results_db} not "
                  "consulted: an HTTP fleet's store belongs on "
                  "`repro broker serve --results-db`", file=sys.stderr)
        try:
            ticket = service.submit_sweep(
                broker, spec, memo=_sweep_memo(args) if local else None,
                results=_sweep_results(args) if local else None)
        except service.SpecError as exc:
            print(f"invalid sweep spec: {exc}", file=sys.stderr)
            return 2
        if args.id_only:
            print(ticket.sweep_id)
        else:
            print(f"sweep {ticket.sweep_id}: {ticket.total} job(s) enqueued, "
                  f"{ticket.already_done} already resolved from the memo/"
                  "results stores")
            print(f"  follow with: repro sweep results --broker "
                  f"{args.broker} {ticket.sweep_id} --follow")
        return 0

    if args.sweep_command == "status":
        try:
            status = broker.status(args.sweep_id)
        except KeyError:
            print(f"unknown sweep {args.sweep_id!r}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(f"sweep {status['sweep_id']} ({status['label']}): "
                  f"{status['done']}/{status['total']} done, "
                  f"{status['leased']} running, {status['pending']} pending, "
                  f"{status['failed']} failed, "
                  f"{status['cancelled']} cancelled"
                  + (" [sweep cancelled]" if status["sweep_cancelled"]
                     else ""))
        return 0

    if args.sweep_command == "results":
        failures = 0
        collected: List[dict] = []
        try:
            for record in service.iter_results(
                    broker, args.sweep_id, follow=args.follow,
                    poll_interval=args.poll_interval, timeout=args.timeout):
                if record["state"] != "done":
                    failures += 1
                if args.format == "jsonl":
                    print(json.dumps(record, sort_keys=True, default=str),
                          flush=True)
                else:
                    collected.append(_point_row(record))
        except KeyError:
            print(f"unknown sweep {args.sweep_id!r}", file=sys.stderr)
            return 2
        except TimeoutError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        if args.format != "jsonl":
            collected.sort(key=lambda row: row.get("position", 0))
            _print_output(collected, fmt=args.format,
                          title=f"Sweep {args.sweep_id}")
        if failures:
            print(f"{failures} job(s) did not complete", file=sys.stderr)
            return 1
        return 0

    if args.sweep_command == "list":
        sweeps = broker.sweeps()
        if args.json:
            print(json.dumps(sweeps, indent=2, sort_keys=True))
        else:
            for status in sweeps:
                print(f"{status['sweep_id']}  {status['label']:<20s} "
                      f"{status['done']}/{status['total']} done"
                      + (" [cancelled]" if status["sweep_cancelled"]
                         else ""))
        return 0

    return 1


def _when_to_epoch(text: Optional[str]) -> Optional[float]:
    """ISO date/datetime -> epoch seconds; naive values are taken as UTC."""
    from datetime import datetime, timezone
    if text is None:
        return None
    when = datetime.fromisoformat(text)       # ValueError on bad input
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when.timestamp()


def _query_command(args: argparse.Namespace) -> int:
    from .store import ResultsStore, SchemaMismatchError

    if not args.db:
        print("no results store: pass --db PATH or set $REPRO_RESULTS_DB",
              file=sys.stderr)
        return 2
    if not os.path.exists(args.db):
        print(f"results store {args.db} does not exist (runs with "
              "--results-db create it)", file=sys.stderr)
        return 2
    coords = {}
    for item in args.coord:
        axis, sep, value = item.partition("=")
        if not sep or not axis:
            print(f"--coord expects AXIS=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        coords[axis] = value
    try:
        since = _when_to_epoch(args.since)
        until = _when_to_epoch(args.until)
    except ValueError as exc:
        print(f"invalid --since/--until value: {exc}", file=sys.stderr)
        return 2

    filters = {name: value for name, value in
               (("experiment", args.experiment), ("model", args.model),
                ("kernel", args.kernel), ("sha", args.sha),
                ("tier", args.tier)) if value is not None}
    if coords:
        filters["coords"] = coords
    if since is not None:
        filters["since"] = since
    if until is not None:
        filters["until"] = until
    try:
        store = ResultsStore(args.db)
    except SchemaMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        if args.trend:
            rows = store.trend(args.trend, **filters)
            if args.limit is not None:
                rows = rows[:args.limit]
        else:
            rows = store.query(limit=args.limit, **filters)
    finally:
        store.close()
    columns = None
    if args.columns:
        columns = [name.strip() for name in args.columns.split(",")
                   if name.strip()]
    _print_output(rows, columns=columns, fmt=args.format,
                  title=f"Results: {args.db}")
    print(f"{len(rows)} row(s)", file=sys.stderr)
    return 0


def _point_row(record: dict) -> dict:
    """One finished sweep point -> a flat row for table/csv/json output."""
    row = {"position": record.get("position"), "state": record.get("state")}
    coords = record.get("coords") or {}
    if isinstance(coords, dict):
        row.update(coords)
    outcome = record.get("outcome")
    if isinstance(outcome, dict):
        # Scalars only: breakdown dicts and other structures don't fit a
        # flat row (the jsonl stream keeps the full structure).
        row.update({key: value for key, value in outcome.items()
                    if not isinstance(value, (dict, list))})
    elif outcome is not None:
        row["outcome"] = outcome
    if record.get("error"):
        row["error"] = record["error"]
    return row


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
