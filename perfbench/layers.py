"""Per-layer metrics of a traced run, computed from its spans (the
program's own and the benchmark's), plus the self-time table that
shows where a traced pass or job spent its time."""

from __future__ import annotations

from perfbench.common import PAIRS, label, median

#: Benchmark glue around the layer calls: a pass, an operation, a job.
GLUE = ("pass", "op", "job")

#: Per-layer metric and span name of each flow-build step: the
#: program's own ``run_flow`` spans, and the benchmark's span around
#: the cold ``compiled_class()`` calls
#: (:func:`perfbench.campaigns.build_flow`).
FLOW_SPANS = (
    ("flow.augment_ms", "flow.augment"),
    ("flow.codegen_ms", "flow.tlm"),
    ("flow.inject_ms", "flow.inject"),
    ("abstraction.compile_ms", "abstraction.compile"),
)

#: Worker-side spans of shard execution: TLM (``repro.obs``) and RTL
#: (:class:`perfbench.campaigns.TimingPlacement`).
SHARD_SPANS = ("shard.execute", "rtl_validation.shard")


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _dur(span) -> float:
    return span["end"] - span["start"]


def report_flow_layers(ctx, roots) -> None:
    """The flow-build metrics: per root span, the time of each step
    summed over the builds under it; the median over ``roots`` is
    reported.  ``lint.ir_ms`` is the self time of the program's
    ``flow.run`` span: ``run_flow`` outside its augment / tlm / inject
    steps is the IR lint gate (``lint=True``) plus assembling the
    result."""
    spans = ctx.spans
    for metric, name in FLOW_SPANS:
        ctx.result.metric(metric, median([
            _ms(sum(_dur(s) for s in spans.subtree(root)
                    if s["name"] == name))
            for root in roots
        ]), "ms", len(roots))
    ctx.result.metric("lint.ir_ms", median([
        _ms(spans.self_times([root]).get("flow.run", [0.0])[0])
        for root in roots
    ]), "ms", len(roots))


def report_layers(ctx, passes) -> None:
    spans, result = ctx.spans, ctx.result
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    by_id = {s["id"]: s for s in spans.spans}
    views = []
    for p in traced:
        root = by_id[p["root"]]
        tree = spans.subtree(p["root"])
        # Worker-side spans sit off the caller's path; a pass owns those
        # that ended inside its window.
        workers = [
            s for s in spans.spans
            if s.get("worker") and root["start"] <= s["end"] <= root["end"]
        ]
        views.append((p, tree, workers))
    n = len(views)

    def per_pass(name: str, **match) -> float:
        """Median over traced passes of the summed span time, in ms."""
        return median([
            _ms(sum(_dur(s) for s in tree + workers
                    if s["name"] == name
                    and all(s.get(k) == v for k, v in match.items())))
            for _p, tree, workers in views
        ])

    def matching(name: str, **match) -> list:
        return [
            s for _p, tree, workers in views for s in tree + workers
            if s["name"] == name
            and all(s.get(k) == v for k, v in match.items())
        ]

    report_flow_layers(ctx, [p["root"] for p in traced])
    for metric, name in (("campaign.golden_ms", "campaign.golden"),
                         ("campaign.prepare_ms", "campaign.prepare")):
        result.metric(metric, per_pass(name), "ms", n)

    for layer, name in (("campaign", "shard.execute"),
                        ("rtl_validation", "rtl_validation.shard")):
        for sensor in ("razor", "counter"):
            shards = matching(name, sensor=sensor)
            mutants = sum(s["mutants"] for s in shards)
            if mutants:
                result.metric(
                    f"{layer}.mutant_ms.{sensor}",
                    _ms(sum(_dur(s) for s in shards)) / mutants,
                    "ms", mutants,
                )
    for ip, sensor in PAIRS:
        tag = label(ip, sensor)
        result.metric(f"campaign.exec_ms.{tag}",
                      per_pass("shard.execute", campaign=tag), "ms", n)

    for name in ("get", "put"):
        calls = matching(f"cache.{name}")
        if calls:
            result.metric(f"cache.{name}_ms",
                          _ms(sum(_dur(s) for s in calls)) / len(calls),
                          "ms", len(calls))
    counts = ctx.result.counts or {}
    if "cache.hits" in counts:
        probed = counts["cache.hits"] + counts["cache.misses"]
        result.metric("cache.hit_ratio",
                      counts["cache.hits"] / probed if probed else 0.0,
                      "ratio", probed)

    dispatches = matching("scheduler.dispatch")
    if dispatches:
        result.metric(
            "scheduler.worker_busy_frac",
            median([
                sum(_dur(s) for s in workers if s["name"] in SHARD_SPANS)
                / (2 * p["wall"])
                for p, _tree, workers in views
            ]),
            "ratio", n,
        )
        result.metric(
            "scheduler.shard_overhead_ms",
            _ms(sum(s["overhead"] for s in dispatches)) / len(dispatches),
            "ms", len(dispatches),
        )

    publish_levels(ctx)
    overhead = 100.0 * (median([p["wall"] for p in traced])
                        / median([p["wall"] for p in plain]) - 1.0)
    result.metric("obs.traced_overhead_pct", overhead, "%", len(passes))
    print_self_times(
        ctx, [p["root"] for p in traced],
        untraced_walls=[p["wall"] for p in plain],
        traced_walls=[p["wall"] for p in traced],
        overhead_pct=overhead,
    )


def publish_levels(ctx) -> None:
    """TLM vs RTL speed on each campaign's stimuli (bases printed)."""
    result = ctx.result
    tlm_s = rtl_s = cycles = 0.0
    lines = ["TLM vs RTL (time_tlm on the hdtlib model, time_rtl on the "
             "augmented RTL, same stimuli)"]
    for tag, samples in sorted(ctx.levels.items()):
        t = sum(s[0] for s in samples)
        r = sum(s[1] for s in samples)
        c = sum(s[2] for s in samples)
        tlm_s, rtl_s, cycles = tlm_s + t, rtl_s + r, cycles + c
        lines.append(f"  {tag:<16} TLM {c / t:>10.1f} cycles/s  RTL "
                     f"{c / r:>9.1f} cycles/s  ratio {r / t:6.2f}")
    if not cycles:
        return
    result.metric("abstraction.tlm_cycles_per_s", cycles / tlm_s, "1/s",
                  int(cycles))
    result.metric("rtl.kernel_cycles_per_s", cycles / rtl_s, "1/s",
                  int(cycles))
    result.metric("tlm_over_rtl", rtl_s / tlm_s, "ratio", len(ctx.levels))
    lines.append(f"  {'all':<16} TLM {cycles / tlm_s:>10.1f} cycles/s  RTL "
                 f"{cycles / rtl_s:>9.1f} cycles/s  ratio "
                 f"{rtl_s / tlm_s:6.2f}")
    result.notes.extend(lines)


def print_self_times(ctx, roots, *, untraced_walls, traced_walls,
                     overhead_pct: float, unit: str = "pass") -> None:
    """The self-time table of the traced span trees under ``roots`` (the
    caller's blocking path), per traced ``unit`` on average, and how
    much of the untraced wall time the layer spans account for."""
    table = ctx.spans.self_times(roots)
    n = max(1, len(roots))
    traced = sum(traced_walls) / len(traced_walls)
    untraced = sum(untraced_walls) / len(untraced_walls)
    lines = [f"self time per traced {unit} on the caller's blocking path "
             f"(mean wall: traced {_ms(traced):.1f} ms, untraced "
             f"{_ms(untraced):.1f} ms)"]
    layers = 0.0
    for name, (seconds, calls) in sorted(table.items(),
                                         key=lambda kv: -kv[1][0]):
        if name not in GLUE:
            layers += seconds / n
        lines.append(f"  {name:<26} {_ms(seconds) / n:>10.2f} ms "
                     f"{calls / n:>8.1f} calls  "
                     f"{100 * seconds / n / traced:5.1f}%")
    lines.append(
        f"  layer spans: {_ms(layers):.1f} ms per traced {unit} "
        f"({100 * layers / traced:.1f}% of its wall), "
        f"{100 * (layers / untraced - 1):+.1f}% against the untraced "
        f"wall; obs.traced_overhead_pct (medians) {overhead_pct:+.1f}%"
    )
    ctx.result.notes.extend(lines)
