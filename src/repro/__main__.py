"""Command-line entry: regenerate any reproduced table or figure.

Usage::

    python -m repro list                 # available experiments
    python -m repro table2               # print one experiment
    python -m repro all                  # print everything
    python -m repro report [PATH]        # (re)write EXPERIMENTS.md
    python -m repro service [options]    # stream one camera through the service
    python -m repro multitenant [opts]   # sharded multi-tenant service demo
    python -m repro trace [options]      # traced service run -> Perfetto JSON
    python -m repro health [options]     # SLO health report for a short run
    python -m repro perfgate [options]   # BENCH_*.json vs committed baselines

service options (all optional)::

    --frames N        frames to stream (default 128)
    --workers N       recovery workers (default 4)
    --drop-rate R     injected uplink drop probability (default 0.0)
    --corrupt-rate R  injected corruption probability (default 0.0)
    --mode M          symmetric | hhe (default symmetric)
    --json            emit the metrics snapshot as JSON instead of a summary

multitenant options (all optional)::

    --tenants N            distinct tenant key schedules (default 4)
    --sessions-per-tenant N  concurrent sessions each (default 16)
    --frames N             frames per session (default 4)
    --shards N             worker shards (default 2)
    --workers N            workers per shard (default 1)
    --drop-rate R          injected uplink drop probability (default 0.0)
    --hot-tenant           make tenant 0 offer 4x the sessions of the rest
    --budget-rows N        global prepared/materials cache budget (default 4096)
    --mode M               symmetric | hhe (default symmetric)
    --json                 emit the full result as JSON

trace options (all optional)::

    --out PATH        Perfetto/Chrome trace JSON destination (default trace.json)
    --metrics-out P   also write the registry in Prometheus text format
    --frames N        frames to stream (default 64)
    --workers N       recovery workers (default 4)
    --drop-rate R     injected uplink drop probability (default 0.0)
    --mode M          symmetric | hhe (default symmetric)
    --tolerance T     cycle-attribution divergence flag threshold (default 0.25)

Load the trace at https://ui.perfetto.dev (Open trace file). Spans nest
producer -> encrypt -> keystream with variant/omega attributes and
modeled-cycle annotations in each slice's args; flight-recorder time
series (uplink queue depth, noise headroom) render as counter tracks.

health options (all optional)::

    --tenants N            distinct tenants in the probe run (default 2)
    --sessions-per-tenant N  sessions each (default 2)
    --frames N             frames per session (default 4)
    --drop-rate R          injected uplink drop probability (default 0.0)
    --mode M               symmetric | hhe (default symmetric)
    --json                 emit the HealthReport as JSON
    --out PATH             also write the JSON report to PATH

The health command streams a short multi-tenant run through a fresh
registry/tracer/flight-recorder, folds the per-tenant SLO windows (p99
latency, frame loss, minimum modeled noise headroom in hhe mode) and the
incident ring into a HealthReport, and exits 0 iff healthy.

perfgate options: --current DIR, --baseline DIR, --tolerance T (see
``repro.eval.perfgate``).
"""

from __future__ import annotations

import sys


#: Tenant id of the single camera the service and trace commands stream.
CAMERA = "camera"


def _camera_config(frames: int, workers: int, mode: str):
    """One camera streaming ``frames`` tiles: a one-tenant, one-shard service."""
    from repro.apps.video import Resolution
    from repro.pasta.params import PASTA_MICRO, PASTA_TOY
    from repro.service import TILE8, MultiTenantConfig, TenantSpec

    hhe = mode == "hhe"
    camera = TenantSpec(
        CAMERA,
        sessions=1,
        frames_per_session=frames,
        resolution=Resolution("TILE4", 4, 4) if hhe else TILE8,
    )
    return MultiTenantConfig(
        tenants=(camera,),
        params=PASTA_MICRO if hhe else PASTA_TOY,
        n_shards=1,
        workers_per_shard=workers,
        batch_frames=4 if hhe else 32,
        worker_batch=4 if hhe else 32,
        queue_capacity=128,
        mode=mode,
    )


def service_main(argv) -> int:
    """Run the streaming transciphering service once and report metrics."""
    import json

    from repro.errors import ParameterError
    from repro.obs import MetricsRegistry
    from repro.service import FaultPlan, MultiTenantService

    opts = {"frames": 128, "workers": 4, "drop-rate": 0.0, "corrupt-rate": 0.0,
            "mode": "symmetric", "json": False}
    it = iter(argv)
    for arg in it:
        name = arg.lstrip("-")
        if name == "json":
            opts["json"] = True
        elif name in ("frames", "workers"):
            opts[name] = int(next(it))
        elif name in ("drop-rate", "corrupt-rate"):
            opts[name] = float(next(it))
        elif name == "mode":
            opts["mode"] = next(it)
        else:
            print(f"unknown service option {arg!r}", file=sys.stderr)
            return 2

    try:
        config = _camera_config(opts["frames"], opts["workers"], opts["mode"])
        plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"],
                         corrupt_rate=opts["corrupt-rate"])
    except ParameterError as exc:
        print(f"invalid service option: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    result = MultiTenantService(config, plan, registry=registry).run()

    if opts["json"]:
        print(json.dumps({"fps": result.frames_per_s, "frames": result.frames_recovered,
                          "metrics": result.metrics}, indent=2))
        return 0
    camera = config.tenants[0]
    retried = sum(1 for n in result.attempts.values() if n > 1)
    print(f"streaming service ({config.mode}, {config.params.name}, "
          f"{camera.resolution.name}, {config.workers_per_shard} workers)")
    print(f"  frames recovered  {result.frames_recovered}/{config.total_frames}")
    print(f"  sustained rate    {result.frames_per_s:.1f} frames/s "
          f"over {result.duration_seconds:.2f}s")
    print(f"  frames retried    {retried}")
    for name in ("service.uplink.dropped", "service.crc.rejected", "service.retries",
                 "service.frames.duplicate", "service.degradation.steps"):
        print(f"  {name:<26} {registry.counter(name, tenant=CAMERA).value}")
    stages = (
        registry.histogram("service.encrypt.seconds"),
        registry.histogram("service.recover.seconds"),
        registry.histogram("service.tenant.frame_latency.seconds", tenant=CAMERA),
    )
    for hist in stages:
        if hist.count:
            print(f"  {hist.name:<36} p50 {hist.percentile(50) * 1e3:7.2f} ms   "
                  f"p99 {hist.percentile(99) * 1e3:7.2f} ms")
    return 0


def multitenant_main(argv) -> int:
    """Run the sharded multi-tenant service once and report per-tenant stats."""
    import json

    from repro.obs import MetricsRegistry
    from repro.pasta.params import PASTA_MICRO, PASTA_TOY
    from repro.service import FaultPlan, MultiTenantConfig, MultiTenantService, TenantSpec

    opts = {"tenants": 4, "sessions-per-tenant": 16, "frames": 4, "shards": 2,
            "workers": 1, "drop-rate": 0.0, "hot-tenant": False,
            "budget-rows": 4096, "mode": "symmetric", "json": False}
    it = iter(argv)
    for arg in it:
        name = arg.lstrip("-")
        if name in ("json", "hot-tenant"):
            opts[name] = True
        elif name in ("tenants", "sessions-per-tenant", "frames", "shards",
                      "workers", "budget-rows"):
            opts[name] = int(next(it))
        elif name == "drop-rate":
            opts[name] = float(next(it))
        elif name == "mode":
            opts["mode"] = next(it)
        else:
            print(f"unknown multitenant option {arg!r}", file=sys.stderr)
            return 2

    hhe = opts["mode"] == "hhe"
    specs = tuple(
        TenantSpec(
            f"tenant-{i:02d}",
            sessions=opts["sessions-per-tenant"] * (4 if opts["hot-tenant"] and i == 0 else 1),
            frames_per_session=opts["frames"],
        )
        for i in range(opts["tenants"])
    )
    config = MultiTenantConfig(
        tenants=specs,
        params=PASTA_MICRO if hhe else PASTA_TOY,
        n_shards=opts["shards"],
        workers_per_shard=opts["workers"],
        mode=opts["mode"],
        engine_cache_blocks=opts["budget-rows"],
        prepared_cache_rows=opts["budget-rows"],
    )
    plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"])
    registry = MetricsRegistry()
    result = MultiTenantService(config, plan, registry=registry).run()

    if opts["json"]:
        print(json.dumps({
            "sessions_per_s": result.sessions_per_s,
            "frames_per_s": result.frames_per_s,
            "frames_recovered": result.frames_recovered,
            "frames_lost": result.frames_lost,
            "shed_frames": result.shed_frames,
            "admission_deferred": result.admission_deferred,
            "tenant_latency": result.tenant_latency,
            "cache_budgets": result.cache_budgets,
        }, indent=2))
        return 0
    print(f"multi-tenant service ({config.mode}, {config.params.name}, "
          f"{len(specs)} tenants, {config.total_sessions} sessions, "
          f"{config.n_shards} shards)")
    print(f"  sessions completed {result.sessions_completed}/{config.total_sessions} "
          f"({result.sessions_per_s:.1f}/s)")
    print(f"  frames recovered   {result.frames_recovered}/{config.total_frames} "
          f"({result.frames_per_s:.1f}/s), {result.frames_lost} lost")
    print(f"  shed frames        {result.shed_frames}")
    print(f"  sessions deferred  {result.admission_deferred}")
    for tenant, summary in sorted(result.tenant_latency.items()):
        print(f"  {tenant:<12} p50 {summary['p50'] * 1e3:7.2f} ms   "
              f"p99 {summary['p99'] * 1e3:7.2f} ms   ({int(summary['count'])} frames)")
    for name, snap in result.cache_budgets.items():
        print(f"  budget {name:<16} {snap['total']:.0f}/{snap['capacity']:.0f} used, "
              f"owners {snap['owners']}")
    return 0


def trace_main(argv) -> int:
    """Run one traced service pass; export Perfetto JSON + cycle report."""
    from repro.errors import ParameterError
    from repro.obs import (
        FlightRecorder,
        MetricsRegistry,
        Tracer,
        prometheus_text,
        set_flight_recorder,
        set_registry,
        set_tracer,
        write_chrome_trace,
    )
    from repro.obs.cycles import attribute
    from repro.service import FaultPlan, MultiTenantService

    opts = {"out": "trace.json", "metrics-out": None, "frames": 64, "workers": 4,
            "drop-rate": 0.0, "mode": "symmetric", "tolerance": 0.25}
    it = iter(argv)
    for arg in it:
        name = arg.lstrip("-")
        if name in ("frames", "workers"):
            opts[name] = int(next(it))
        elif name in ("drop-rate", "tolerance"):
            opts[name] = float(next(it))
        elif name in ("out", "metrics-out", "mode"):
            opts[name] = next(it)
        else:
            print(f"unknown trace option {arg!r}", file=sys.stderr)
            return 2

    try:
        config = _camera_config(opts["frames"], opts["workers"], opts["mode"])
        plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"])
    except ParameterError as exc:
        print(f"invalid trace option: {exc}", file=sys.stderr)
        return 2

    # Fresh registry + tracer + flight recorder for exactly this run; the
    # engines' spans resolve the globals at call time, so swap them in and
    # restore after.
    tracer = Tracer()
    recorder = FlightRecorder()
    previous_tracer = set_tracer(tracer)
    previous_registry = set_registry(MetricsRegistry())
    previous_recorder = set_flight_recorder(recorder)
    try:
        result = MultiTenantService(config, plan).run()
    finally:
        registry = set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_flight_recorder(previous_recorder)

    n_spans = write_chrome_trace(
        opts["out"], tracer, process_name="repro-service", counters=recorder
    )
    if opts["metrics-out"]:
        with open(opts["metrics-out"], "w") as fh:
            fh.write(prometheus_text(registry, recorder=recorder))

    report = attribute(tracer.finished_spans(), tolerance=opts["tolerance"])
    print(f"traced service run ({config.mode}, {config.params.name}, "
          f"{config.workers_per_shard} workers): "
          f"{result.frames_recovered}/{config.total_frames} frames, "
          f"{result.frames_per_s:.1f} frames/s")
    print(f"  {n_spans} spans -> {opts['out']}  (open at https://ui.perfetto.dev)")
    if opts["metrics-out"]:
        print(f"  metrics -> {opts['metrics-out']} (Prometheus text)")
    print()
    print("cycle attribution (measured share vs accelerator-model share):")
    print(report.render())
    flagged = report.flagged()
    if flagged:
        print(f"\n  {len(flagged)} stage(s) diverge past {opts['tolerance']:.0%}: "
              + ", ".join(r.stage for r in flagged))
    return 0


def health_main(argv) -> int:
    """Run a short probe workload and print/write the SLO health report."""
    import json

    from repro.obs import (
        FlightRecorder,
        MetricsRegistry,
        Tracer,
        evaluate_health,
        set_flight_recorder,
        set_registry,
        set_tracer,
    )
    from repro.pasta.params import PASTA_MICRO, PASTA_TOY
    from repro.service import FaultPlan, MultiTenantConfig, MultiTenantService, TenantSpec

    opts = {"tenants": 2, "sessions-per-tenant": 2, "frames": 4, "drop-rate": 0.0,
            "mode": "symmetric", "json": False, "out": None}
    it = iter(argv)
    for arg in it:
        name = arg.lstrip("-")
        if name == "json":
            opts["json"] = True
        elif name in ("tenants", "sessions-per-tenant", "frames"):
            opts[name] = int(next(it))
        elif name == "drop-rate":
            opts[name] = float(next(it))
        elif name in ("mode", "out"):
            opts[name] = next(it)
        else:
            print(f"unknown health option {arg!r}", file=sys.stderr)
            return 2

    hhe = opts["mode"] == "hhe"
    specs = tuple(
        TenantSpec(
            f"tenant-{i:02d}",
            sessions=opts["sessions-per-tenant"],
            frames_per_session=opts["frames"],
        )
        for i in range(opts["tenants"])
    )
    config = MultiTenantConfig(
        tenants=specs,
        params=PASTA_MICRO if hhe else PASTA_TOY,
        n_shards=2,
        mode=opts["mode"],
    )
    plan = FaultPlan(seed=1, drop_rate=opts["drop-rate"])

    # The probe owns its observability state end to end: fresh registry,
    # tracer, and flight recorder, restored whatever the run does.
    registry = MetricsRegistry()
    tracer = Tracer()
    recorder = FlightRecorder()
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(tracer)
    previous_recorder = set_flight_recorder(recorder)
    try:
        MultiTenantService(config, plan, registry=registry, tracer=tracer).run()
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)
        set_flight_recorder(previous_recorder)

    report = evaluate_health(registry=registry, recorder=recorder)
    payload = report.to_dict()
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if opts["json"]:
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
    return 0 if report.healthy else 1


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    from repro.eval import EXPERIMENTS

    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0

    command = argv[0]
    if command == "service":
        return service_main(argv[1:])
    if command == "multitenant":
        return multitenant_main(argv[1:])
    if command == "trace":
        return trace_main(argv[1:])
    if command == "health":
        return health_main(argv[1:])
    if command == "perfgate":
        from repro.eval.perfgate import main as perfgate_main

        return perfgate_main(argv[1:])
    if command == "report":
        from repro.eval.report import main as report_main

        return report_main(argv[1:])
    if command == "all":
        for name in sorted(EXPERIMENTS):
            print(EXPERIMENTS[name]().render())
            print()
        return 0
    if command in EXPERIMENTS:
        print(EXPERIMENTS[command]().render())
        return 0
    print(f"unknown experiment {command!r}; try: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
