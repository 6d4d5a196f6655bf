"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``list``
    Show every reproducible experiment.
``run <experiment> [--duration S] [--out DIR]``
    Run one experiment (or ``all``) and print its figure as text;
    ``--out`` additionally writes the raw series/records as CSV+JSON.
``run-all [--workers N] [--seeds K] [--quick] [--out FILE]``
    Execute the whole experiment registry through the parallel engine
    (:mod:`repro.experiments.runner`); merged records are byte-identical
    for any worker count given the same seeds.
``diagnose <experiment> [--duration S] [--out DIR]``
    Run one experiment and print the automated causal post-mortem:
    the §III/§IV diagnosis plus per-request CTQO attribution (the
    paper's Fig 4 walk for every VLRT/dropped request).  ``--out``
    instruments the run with the event bus and writes a Perfetto
    trace, a JSONL event log and the raw CSVs.
``watch <heartbeat.jsonl> [--tail N] [--label TEXT]``
    Render the live-telemetry heartbeat JSONL that ``run``/``run-all``
    ``--live --live-out`` writes (windowed per-tier p99, open episodes,
    drops/evictions, pipeline overhead).
``conditions [--rate R] [--duration S] [--depth N]``
    Evaluate the paper's §III overflow arithmetic for given parameters.
``bench [--smoke] [--only NAMES] [--label TEXT] [--out FILE] [--compare]``
    Run the substrate micro-benchmarks (:mod:`repro.bench`) and append
    the results to the ``BENCH_substrate.json`` trajectory; ``--smoke``
    is the CI-sized variant (scale 0.25, no JSON write by default) and
    ``--compare`` gates against the last trajectory entry instead of
    appending (exit 1 beyond ``--threshold`` percent ops/s loss).
``profile <target> [--quick] [--top N] [--sort KEY] [--out FILE]``
    Run one experiment or benchmark workload under :mod:`cProfile` and
    print the pstats hot-function table; ``--out`` writes a
    snakeviz-loadable raw profile (see docs/PERF.md).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_module
from . import profile as profile_module
from .core.conditions import (
    minimum_millibottleneck_duration,
    predicted_overflow,
)
from .experiments import (
    cache_storage,
    fig01_histograms,
    fig03_vm_consolidation,
    fig05_log_flush,
    fig07_nx1,
    fig08_nx2_mysql,
    fig09_nx2_xtomcat,
    fig10_nx3_xtomcat,
    fig11_nx3_xmysql,
    fig12_throughput,
    fanout,
    headline_utilization,
    policy_matrix,
    scaleout,
)
from .metrics.export import (
    chrome_trace_to_json,
    events_to_jsonl,
    request_log_to_csv,
    run_summary_to_json,
    timeseries_to_csv,
)

__all__ = ["main", "EXPERIMENTS"]

#: timeline experiments share the run()->TimelineResult interface
_TIMELINES = {
    "fig03": fig03_vm_consolidation,
    "fig05": fig05_log_flush,
    "fig07": fig07_nx1,
    "fig08": fig08_nx2_mysql,
    "fig09": fig09_nx2_xtomcat,
    "fig10": fig10_nx3_xtomcat,
    "fig11": fig11_nx3_xmysql,
}

#: experiment name -> one-line description (for ``list``)
EXPERIMENTS = {
    "fig01": "response-time histograms at WL 4000/7000/8000 (multi-modal tail)",
    "fig03": "upstream CTQO from VM consolidation (drops at Apache)",
    "fig05": "upstream CTQO from log flushing (I/O millibottleneck)",
    "fig07": "NX=1 Nginx-Tomcat-MySQL (drops move to Tomcat)",
    "fig08": "NX=2, millibottleneck in MySQL (drops at MySQL, 228)",
    "fig09": "NX=2, millibottleneck in XTomcat (batch floods MySQL)",
    "fig10": "NX=3, CPU millibottleneck (no CTQO)",
    "fig11": "NX=3, I/O millibottleneck (no CTQO)",
    "fig12": "throughput vs concurrency: 2000 threads vs async",
    "headline": "the abstract's 43% vs 83% utilization claim",
    "policy_matrix": "admission x concurrency x remediation hybrids at WL 7000",
    "scaleout": "load balancing + hedging across 3 replicas/tier at WL 7000",
    "fanout": "1xN fan-out/fan-in DAG: tail at scale + lateral CTQO",
    "cache_storage": "cache/storage tiers: miss storms + write-back "
                     "bufferbloat",
}

#: diagnosable experiments that run named variant cells: module plus
#: the default cell ``repro diagnose`` picks when --variant is omitted
_VARIANT_EXPERIMENTS = {
    "cache_storage": (cache_storage, "storm"),
    "fanout": (fanout, "sync"),
    "policy_matrix": (policy_matrix, "shed_web"),
    "scaleout": (scaleout, "rpc_round_robin"),
}

#: ``repro diagnose`` workload/duration overrides for experiments whose
#: tuned operating point differs from the WL-7000/40s house default
_DIAGNOSE_DEFAULTS = {
    "cache_storage": {"clients": 4200, "duration": 16.0},
}


def _run_timeline(name, args):
    from .experiments.timeline import run_timeline

    module = _TIMELINES[name]
    result = run_timeline(module.SPEC, duration=args.duration,
                          streaming=args.streaming)
    print(result.report())
    if getattr(args, "diagnose", False):
        from .core.diagnosis import diagnose

        print()
        print(diagnose(result.run).render())
    if args.out:
        _export_timeline(name, result, args.out)
    return 0 if not result.check_claims() else 1


def _live_trace_tracks(run):
    """(windows, episodes) for the Perfetto export when the run carried
    live telemetry, else (None, None)."""
    telemetry = getattr(run, "telemetry", None)
    if telemetry is None:
        return None, None
    return telemetry.windows, telemetry.detector.millibottlenecks()


def _export_timeline(name, result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    run = result.run
    monitor = run.monitor
    timeseries_to_csv(os.path.join(out_dir, f"{name}_cpu.csv"), monitor.cpu)
    timeseries_to_csv(os.path.join(out_dir, f"{name}_queues.csv"),
                      monitor.queues)
    request_log_to_csv(os.path.join(out_dir, f"{name}_requests.csv"),
                       run.log)
    run_summary_to_json(os.path.join(out_dir, f"{name}_summary.json"), run)
    windows, episodes = _live_trace_tracks(run)
    chrome_trace_to_json(os.path.join(out_dir, f"{name}_trace.json"),
                         monitor=monitor, log=run.log,
                         windows=windows, episodes=episodes)
    print(f"\n[raw data written to {out_dir}/]")


def _run_fig01(args):
    duration = args.duration or 90.0
    panels = fig01_histograms.run(duration=duration,
                                  streaming=args.streaming)
    print(fig01_histograms.report(panels))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for clients, panel in panels.items():
            request_log_to_csv(
                os.path.join(args.out, f"fig01_wl{clients}_requests.csv"),
                panel["result"].log,
            )
        print(f"\n[raw data written to {args.out}/]")
    return 0


def _run_fig12(args):
    sweep = fig12_throughput.run(duration=args.duration or 25.0,
                                 streaming=args.streaming)
    print(fig12_throughput.report(sweep))
    return 0


def _run_policy_matrix(args):
    cells = policy_matrix.run(duration=args.duration or 40.0,
                              streaming=args.streaming)
    print(policy_matrix.report(cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, cell in cells.items():
            request_log_to_csv(
                os.path.join(args.out, f"policy_{name}_requests.csv"),
                cell["result"].log,
            )
            run_summary_to_json(
                os.path.join(args.out, f"policy_{name}_summary.json"),
                cell["result"],
            )
        print(f"\n[raw data written to {args.out}/]")
    return 0 if not policy_matrix.check_claims(cells) else 1


def _run_scaleout(args):
    cells = scaleout.run(duration=args.duration or 40.0,
                         streaming=args.streaming)
    print(scaleout.report(cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, cell in cells.items():
            request_log_to_csv(
                os.path.join(args.out, f"scaleout_{name}_requests.csv"),
                cell["result"].log,
            )
            run_summary_to_json(
                os.path.join(args.out, f"scaleout_{name}_summary.json"),
                cell["result"],
            )
        print(f"\n[raw data written to {args.out}/]")
    return 0 if not scaleout.check_claims(cells) else 1


def _run_fanout(args):
    cells = fanout.run(duration=args.duration or 12.0,
                       streaming=args.streaming)
    print(fanout.report(cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        flat = {f"scaling_n{n}": cell
                for n, cell in cells["scaling"].items()}
        flat.update({f"stall_{name}": cell
                     for name, cell in cells["stall"].items()})
        for name, cell in flat.items():
            request_log_to_csv(
                os.path.join(args.out, f"fanout_{name}_requests.csv"),
                cell["result"].log,
            )
            run_summary_to_json(
                os.path.join(args.out, f"fanout_{name}_summary.json"),
                cell["result"],
            )
        print(f"\n[raw data written to {args.out}/]")
    return 0 if not fanout.check_claims(cells) else 1


def _run_cache_storage(args):
    cells = cache_storage.run(duration=args.duration or 16.0,
                              streaming=args.streaming)
    print(cache_storage.report(cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, cell in cells.items():
            request_log_to_csv(
                os.path.join(args.out, f"cache_{name}_requests.csv"),
                cell["result"].log,
            )
            run_summary_to_json(
                os.path.join(args.out, f"cache_{name}_summary.json"),
                cell["result"],
            )
        print(f"\n[raw data written to {args.out}/]")
    return 0 if not cache_storage.check_claims(cells) else 1


def _run_headline(args):
    points = headline_utilization.run(duration=args.duration or 60.0,
                                      streaming=args.streaming)
    print(headline_utilization.report(points))
    return 0


def _cmd_list(_args):
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _live_settings(args):
    """``configure()`` keywords from the shared --live* flags, or None."""
    if args.live is None:
        return None
    settings = {"interval": args.live}
    if args.sample_rate is not None:
        settings["sample_rate"] = args.sample_rate
        settings["trace_budget"] = args.trace_budget
    return settings


def _reject_unsupported(args, names, hint=""):
    """Print a one-line error and return True when a selected
    experiment cannot honour ``--streaming`` or ``--live``."""
    from .experiments.runner import LIVE_UNSUPPORTED, STREAMING_UNSUPPORTED

    checks = (
        (args.streaming, STREAMING_UNSUPPORTED, "--streaming",
         "need(s) the exact per-request log"),
        (args.live is not None, LIVE_UNSUPPORTED, "--live",
         "build(s) systems outside Scenario and emit(s) no heartbeats"),
    )
    for given, unsupported, flag, reason in checks:
        names_hit = sorted(set(names) & unsupported)
        if given and names_hit:
            print(f"error: {', '.join(names_hit)} {reason} and cannot run "
                  f"with {flag}{hint}", file=sys.stderr)
            return True
    return False


def _cmd_run(args):
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if _reject_unsupported(args, names):
        return 2
    if args.streaming and args.out:
        print("error: --out exports per-request records, which "
              "--streaming does not retain; drop one of the two",
              file=sys.stderr)
        return 2
    live_settings = _live_settings(args)
    sink = None
    if live_settings is not None:
        from .metrics import live as live_mode

        sink = (open(args.live_out, "w", buffering=1)
                if args.live_out else sys.stderr)
        live_mode.configure(sink=sink, **live_settings)
    status = 0
    try:
        for name in names:
            if name in _TIMELINES:
                status |= _run_timeline(name, args)
            elif name == "fig01":
                status |= _run_fig01(args)
            elif name == "fig12":
                status |= _run_fig12(args)
            elif name == "headline":
                status |= _run_headline(args)
            elif name == "policy_matrix":
                status |= _run_policy_matrix(args)
            elif name == "scaleout":
                status |= _run_scaleout(args)
            elif name == "fanout":
                status |= _run_fanout(args)
            elif name == "cache_storage":
                status |= _run_cache_storage(args)
            else:
                print(f"unknown experiment {name!r}; try 'list'",
                      file=sys.stderr)
                return 2
            print()
    finally:
        if live_settings is not None:
            live_mode.reset()
            if sink is not sys.stderr:
                sink.close()
    return status


def _cmd_run_all(args):
    from .experiments import record as record_module
    from .experiments import runner
    from .experiments.report import run_report_table

    if args.list:
        width = max(len(name) for name in runner.REGISTRY)
        for name, spec in runner.REGISTRY.items():
            variants = len(spec.variants or ({},))
            suffix = f"  [{variants} variants]" if variants > 1 else ""
            print(f"{name:<{width}}  {spec.description}{suffix}")
        return 0

    if args.jobs is None:
        names = None
    else:
        names = [n.strip() for n in args.jobs.split(",") if n.strip()]
        if not names:
            print("--jobs given but names no experiments", file=sys.stderr)
            return 2
    selected = names if names is not None else list(runner.REGISTRY)
    if _reject_unsupported(args, selected,
                           hint=" (use --jobs to exclude it)"):
        return 2
    try:
        jobs = runner.expand_jobs(names=names, seeds=args.seeds,
                                  base_seed=args.seed, quick=args.quick)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.streaming:
        for job in jobs:
            job.params["streaming"] = True
    live_settings = _live_settings(args)
    if live_settings is not None:
        if args.live_out:
            live_settings["out"] = args.live_out
            # start fresh: workers append (they may share the file)
            open(args.live_out, "w").close()
        for job in jobs:
            job.params["live"] = dict(live_settings)
    if not jobs:
        print("nothing to run (is --seeds 0?)", file=sys.stderr)
        return 2

    total = len(jobs)
    done = {"count": 0}

    def progress(event, job, detail=""):
        jid = runner.job_id(job)
        if event == "done":
            done["count"] += 1
            print(f"[{done['count']}/{total}] ok      {jid}")
        elif event == "retry":
            print(f"[{done['count']}/{total}] retry   {jid}: {detail}")
        elif event == "fail":
            done["count"] += 1
            print(f"[{done['count']}/{total}] FAILED  {jid}: {detail}")

    print(f"running {total} jobs on {args.workers} worker(s)"
          f"{' (quick scale)' if args.quick else ''}")
    report = runner.run_jobs(jobs, workers=args.workers,
                             timeout=args.timeout, retries=args.retries,
                             progress=progress)
    print()
    print(run_report_table(report))
    if args.out:
        record_module.write_records(args.out, report.records)
        print(f"\n[merged records written to {args.out}]")
    return 0 if report.ok else 1


def _cmd_diagnose(args):
    """Run one experiment and print the full causal post-mortem."""
    from .core.diagnosis import diagnose
    from .experiments.timeline import run_timeline

    bus = recorder = None
    if args.out:
        # instrument only when exporting: the diagnosis itself is built
        # from the monitor and the request log, but the trace/JSONL
        # exports want the raw bus events too
        from .sim.instrument import EventBus, EventRecorder

        bus = EventBus()
        recorder = EventRecorder(bus, capacity=args.events)

    name = args.experiment
    if name in _VARIANT_EXPERIMENTS:
        module, default_variant = _VARIANT_EXPERIMENTS[name]
        variant = args.variant or default_variant
        if variant not in module.VARIANTS:
            print(f"unknown {name} variant {variant!r}; valid variants: "
                  + ", ".join(sorted(module.VARIANTS)), file=sys.stderr)
            return 2
        defaults = _DIAGNOSE_DEFAULTS.get(name, {})
        duration = args.duration or defaults.get("duration", 40.0)
        workload = args.workload or defaults.get("clients", 7000)
        cell = module.run_one(
            variant, clients=workload, duration=duration, bus=bus
        )
        run = cell["result"]
        heading = (f"{name}/{variant} @ WL {workload}, "
                   f"{duration:.0f}s")
    elif name == "fig01":
        duration = args.duration or 45.0
        workload = args.workload or 7000
        panel = fig01_histograms.run_one(
            workload, duration=duration, warmup=5.0, bus=bus
        )
        run = panel["result"]
        heading = f"fig01 @ WL {workload}, {duration:.0f}s"
    else:
        module = _TIMELINES[name]
        result = run_timeline(module.SPEC, duration=args.duration, bus=bus)
        run = result.run
        heading = (f"{name}: {module.SPEC.title} "
                   f"({result.spec.duration:.0f}s)")

    print(f"=== repro diagnose: {heading} ===\n")
    print(diagnose(run).render())
    print()
    print(run.attribution().render(examples=args.examples))

    if args.out:
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        windows, episodes = _live_trace_tracks(run)
        chrome_trace_to_json(
            os.path.join(out_dir, f"{name}_trace.json"),
            monitor=run.monitor, log=run.log, recorder=recorder,
            windows=windows, episodes=episodes,
        )
        events_to_jsonl(os.path.join(out_dir, f"{name}_events.jsonl"),
                        recorder)
        request_log_to_csv(os.path.join(out_dir, f"{name}_requests.csv"),
                           run.log)
        run_summary_to_json(os.path.join(out_dir, f"{name}_summary.json"),
                            run)
        dropped = recorder.recorded - len(recorder.events)
        note = f" ({dropped} oldest events beyond capacity)" if dropped else ""
        print(f"\n[trace + {len(recorder.events)} bus events{note} "
              f"written to {out_dir}/]")
        if recorder.truncated:
            print(f"WARNING: the event recorder evicted {dropped} of "
                  f"{recorder.recorded} events (capacity {recorder.capacity});"
                  f" the exported event log and trace are missing the "
                  f"run's beginning — rerun with --events "
                  f"{recorder.recorded} or more for a complete log",
                  file=sys.stderr)
    return 0


def _cmd_watch(args):
    """Render a live-telemetry heartbeat JSONL file."""
    import json

    from .metrics.live import render_heartbeats

    try:
        with open(args.file) as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    beats = []
    for index, line in enumerate(lines):
        try:
            beats.append(json.loads(line))
        except ValueError as exc:
            if index == len(lines) - 1:
                # a live writer may still be mid-heartbeat on the final
                # line; render the complete prefix instead of crashing
                # so watching a file under active --live-out just works
                break
            print(f"{args.file} is not heartbeat JSONL: {exc}",
                  file=sys.stderr)
            return 2
    if args.label:
        beats = [b for b in beats if args.label in b.get("label", "")]
        if not beats:
            print(f"no heartbeats labeled {args.label!r} in {args.file}",
                  file=sys.stderr)
            return 1
    print(render_heartbeats(beats, tail=args.tail))
    return 0


def _cmd_conditions(args):
    overflow = predicted_overflow(args.rate, args.duration, args.depth,
                                  drain_rate=args.drain)
    threshold = minimum_millibottleneck_duration(args.rate, args.depth,
                                                 drain_rate=args.drain)
    print(f"arrival rate       : {args.rate:.0f} req/s")
    print(f"millibottleneck    : {args.duration * 1000:.0f} ms")
    print(f"MaxSysQDepth       : {args.depth}")
    print(f"drain during stall : {args.drain:.0f} req/s")
    print(f"predicted overflow : {overflow:.0f} dropped packets")
    if threshold == float("inf"):
        print("minimum stall      : never overflows (drain keeps up)")
    else:
        print(f"minimum stall      : {threshold * 1000:.0f} ms before any drop")
    return 0


def _add_live_arguments(parser):
    """The shared --live* flag group of ``run`` and ``run-all``."""
    parser.add_argument("--live", nargs="?", const=1.0, type=float,
                        default=None, metavar="INTERVAL",
                        help="emit live telemetry heartbeats every "
                             "INTERVAL simulated seconds (default 1.0; "
                             "JSONL to stderr unless --live-out)")
    parser.add_argument("--live-out", default=None, metavar="FILE",
                        help="write heartbeat JSONL to FILE (render "
                             "with 'repro watch FILE')")
    parser.add_argument("--sample-rate", type=float, default=None,
                        metavar="RATE",
                        help="with --live: budgeted trace sampling — "
                             "head-sample RATE of normal requests' "
                             "traces (anomalous traces always kept)")
    parser.add_argument("--trace-budget", type=int, default=20_000,
                        metavar="N",
                        help="with --sample-rate: max traces retained "
                             "at once, oldest-normal evicted first "
                             "(default 20000)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Study of Long-Tail Latency in "
                    "n-Tier Systems: RPC vs. Asynchronous Invocations' "
                    "(ICDCS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        handler=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run an experiment (or 'all')")
    run_parser.add_argument("experiment",
                            choices=sorted(EXPERIMENTS) + ["all"])
    run_parser.add_argument("--duration", type=float, default=None,
                            help="simulated seconds (default: the figure's)")
    run_parser.add_argument("--out", default=None,
                            help="directory for raw CSV/JSON export")
    run_parser.add_argument("--diagnose", action="store_true",
                            help="append the automated CTQO post-mortem")
    run_parser.add_argument("--streaming", action="store_true",
                            help="use the O(1)-memory streaming request "
                                 "log (sketch percentiles, exact tail "
                                 "records only — see docs/SCALE.md)")
    _add_live_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    run_all_parser = sub.add_parser(
        "run-all",
        help="run the whole experiment registry through the parallel engine",
    )
    run_all_parser.add_argument("--workers", type=int,
                                default=os.cpu_count() or 1,
                                help="worker processes (1 = serial in-process)")
    run_all_parser.add_argument("--seeds", type=int, default=1,
                                help="seeds per experiment (derived streams)")
    run_all_parser.add_argument("--seed", type=int, default=42,
                                help="base seed for derivation")
    run_all_parser.add_argument("--quick", action="store_true",
                                help="scaled-down durations (CI-sized runs)")
    run_all_parser.add_argument("--jobs", default=None,
                                help="comma-separated registry subset")
    run_all_parser.add_argument("--timeout", type=float, default=None,
                                help="per-job wall-clock timeout in seconds")
    run_all_parser.add_argument("--retries", type=int, default=1,
                                help="extra attempts for crashed/failed jobs")
    run_all_parser.add_argument("--out", default=None,
                                help="write merged records JSON to this file")
    run_all_parser.add_argument("--streaming", action="store_true",
                                help="run every job with the O(1)-memory "
                                     "streaming request log (rejected for "
                                     "exact-record experiments: fig02)")
    run_all_parser.add_argument("--list", action="store_true",
                                help="list the registry and exit")
    _add_live_arguments(run_all_parser)
    run_all_parser.set_defaults(handler=_cmd_run_all)

    watch_parser = sub.add_parser(
        "watch",
        help="render a live-telemetry heartbeat JSONL file",
    )
    watch_parser.add_argument("file", help="heartbeat JSONL written by "
                                           "run/run-all --live-out")
    watch_parser.add_argument("--tail", type=int, default=None,
                              help="show only the last N heartbeats")
    watch_parser.add_argument("--label", default=None,
                              help="filter to heartbeats whose label "
                                   "contains TEXT (run-all job ids)")
    watch_parser.set_defaults(handler=_cmd_watch)

    diag_parser = sub.add_parser(
        "diagnose",
        help="run an experiment and print the CTQO causal post-mortem",
    )
    diag_parser.add_argument(
        "experiment",
        choices=["fig01"] + sorted(_VARIANT_EXPERIMENTS) + sorted(_TIMELINES),
    )
    diag_parser.add_argument("--duration", type=float, default=None,
                             help="simulated seconds (default: the figure's)")
    diag_parser.add_argument("--workload", type=int, default=None,
                             help="client count for fig01 and variant "
                                  "experiments (default 7000; "
                                  "cache_storage 4200)")
    diag_parser.add_argument("--variant", default=None,
                             help="grid cell to diagnose (policy_matrix: "
                                  "default shed_web; scaleout: default "
                                  "rpc_round_robin; fanout: default sync)")
    diag_parser.add_argument("--examples", type=int, default=3,
                             help="example causal chains to print")
    diag_parser.add_argument("--out", default=None,
                             help="directory for Chrome trace JSON, JSONL "
                                  "event log and CSV export (instruments "
                                  "the run with the event bus)")
    diag_parser.add_argument("--events", type=int, default=200_000,
                             help="event-recorder capacity for --out")
    diag_parser.set_defaults(handler=_cmd_diagnose)

    cond_parser = sub.add_parser(
        "conditions", help="evaluate the §III overflow arithmetic"
    )
    cond_parser.add_argument("--rate", type=float, default=1000.0)
    cond_parser.add_argument("--duration", type=float, default=0.4)
    cond_parser.add_argument("--depth", type=int, default=278)
    cond_parser.add_argument("--drain", type=float, default=0.0)
    cond_parser.set_defaults(handler=_cmd_conditions)

    bench_parser = sub.add_parser(
        "bench",
        help="run the substrate benchmarks and record the trajectory",
    )
    bench_module.add_arguments(bench_parser)
    bench_parser.set_defaults(handler=bench_module.run_cli)

    profile_parser = sub.add_parser(
        "profile",
        help="profile an experiment or benchmark workload with cProfile",
    )
    profile_module.add_arguments(profile_parser)
    profile_parser.set_defaults(handler=profile_module.run_cli)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
