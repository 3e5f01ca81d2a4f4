"""The two batch workloads: ``tlm-cold`` and ``crosslevel``.

Both run whole *passes* over the six IP x sensor campaigns for
``--seconds`` (at least :data:`MIN_PASSES`); every pass does the same
work and its exact work counts must repeat.  End-to-end figures are
taken over every pass of the run.

``tlm-cold`` (closed loop, one caller, ``workers=1``): each campaign
is ``run_flow(..., run_mutation=False)`` then ``run_campaign`` against
a fresh empty on-disk ``ResultCache``.  Each pass starts from cold
compiled models, as a fresh ``repro flow`` process would.

``crosslevel`` (closed loop, one caller, a fresh
``CampaignScheduler(workers=2)`` per pass, no cache): each campaign is
the TLM campaign followed by ``validate_at_rtl`` of every mutant at
full testbench length, both on the pass's shared pool, and the TLM and
RTL verdicts must agree per mutant.

A traced run alternates untraced and traced passes (at least one
each).  A traced pass makes the same calls with the program's own
tracer (``repro.obs``) enabled, and the per-layer times come from the
spans it exports: flow steps, campaign prepare and golden simulation,
scheduler streaming, cache get/put and shard execution.  The benchmark
times only what the program does not export: the cold
``compiled_class()`` of both generated models, the ``validate_at_rtl``
call, and -- through a placement proxy handed in as ``scheduler=`` --
each pool shard's dispatch and each RTL shard's busy time in its
worker.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.mutation import RtlValidationShard
from repro.mutation.placement import ShardPlacement
from repro.obs import TRACER

from perfbench.common import (
    PAIRS,
    agreement_errors,
    campaign_entry,
    clear_compiled_models,
    cpu_children_s,
    cpu_self_s,
    label,
    maxrss_children_mb,
    maxrss_self_mb,
    median,
    program_tracing,
    quantile,
    rtl_entry,
    stimuli_for,
)

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9

#: Passes per run, at least; more start while the next one, at the
#: mean pass time so far, still ends within ``--seconds``.  On a 2-core
#: x86 box at the commit that introduced the benchmark, a tlm-cold pass
#: takes 3.5-4.6 s and a crosslevel pass 13-18 s.
MIN_PASSES = 2


class TimedOutcomes(list):
    """An RTL shard's outcome list plus the seconds its ``run()`` took
    where it ran (``busy_s``)."""

    busy_s = 0.0


class TimedRtlShard:
    """Wraps one RTL-validation shard so its result carries its busy
    time.  The program exports no span for RTL shards, so this is how
    their time inside the pool workers is measured."""

    remote_ok = False

    def __init__(self, inner: RtlValidationShard) -> None:
        self.inner = inner

    @property
    def inline_only(self) -> bool:
        return self.inner.inline_only

    def run(self) -> TimedOutcomes:
        started = time.perf_counter()
        outcomes = TimedOutcomes(self.inner.run())
        outcomes.busy_s = time.perf_counter() - started
        return outcomes


class TimingPlacement(ShardPlacement):
    """A thin proxy of the pass's pool, handed to ``run_campaign`` and
    ``validate_at_rtl`` as ``scheduler=`` in traced passes.  The
    program keeps its own windowed submission; per shard this records
    ``scheduler.dispatch`` (submit to result, with ``overhead`` = that
    minus the shard's busy time) and, for RTL shards, an
    ``rtl_validation.shard`` span of the busy time.  TLM shard busy
    time is the ``shard.execute`` span in the shard's own obs
    payload."""

    def __init__(self, inner: ShardPlacement, spans) -> None:
        self.inner = inner
        self.spans = spans
        self.workers = inner.workers

    def submit(self, shard):
        rtl = isinstance(shard, RtlValidationShard)
        attrs = TRACER.current_attrs()
        mutants = len(shard.indices)
        submitted = time.perf_counter()
        future = self.inner.submit(TimedRtlShard(shard) if rtl else shard)

        def record(done) -> None:
            finished = time.perf_counter()
            if done.cancelled() or done.exception() is not None:
                return
            result = done.result()
            if rtl:
                busy = result.busy_s
                self.spans.add("rtl_validation.shard", finished - busy,
                               finished, worker=True, mutants=mutants,
                               **attrs)
            else:
                busy = sum(
                    s["dur_s"] for s in (result.obs or {}).get("spans", ())
                    if s["name"] == "shard.execute"
                )
            self.spans.add("scheduler.dispatch", submitted, finished,
                           worker=True,
                           overhead=(finished - submitted) - busy)

        future.add_done_callback(record)
        return future

    def shutdown(self, wait: bool = True) -> None:
        self.inner.shutdown(wait)


def setup(ctx) -> None:
    """Seeded stimuli for every campaign plus one flow build per
    campaign, so lazy imports and one-time set-up finish before the
    window.  Repeated; ``setup_s`` is the median."""
    from repro.flow import run_flow
    from repro.ips import case_study

    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ctx.stimuli = {
            ip: stimuli_for(case_study(ip), ctx.seed)
            for ip in dict(PAIRS)
        }
        for ip, sensor in PAIRS:
            run_flow(case_study(ip), sensor, run_mutation=False)
        times.append(time.perf_counter() - started)
    ctx.result.metric("setup_s", median(times), "s", len(times))


def build_flow(spans, spec, sensor: str, traced: bool):
    """``run_flow(..., run_mutation=False)``.  Traced, it also compiles
    both generated models cold as a span of its own: the compiled
    classes are memoised per process, so the campaign that follows
    reuses them instead of compiling inside its first shard."""
    from repro.flow import run_flow

    flow = run_flow(spec, sensor, run_mutation=False)
    if traced:
        with spans.span("abstraction.compile"):
            flow.tlm_optimized.compiled_class()
            flow.injected.compiled_class()
    return flow


# -- one campaign ---------------------------------------------------------

def _tlm_cold_op(ctx, k, ip, sensor, counts, problems, traced) -> int:
    from repro.ips import case_study
    from repro.mutation import ResultCache, run_campaign

    tag = label(ip, sensor)
    stimuli = ctx.stimuli[ip]
    flow = build_flow(ctx.spans, case_study(ip), sensor, traced)
    cache = ResultCache(os.path.join(ctx.cache_root, f"{k}-{tag}"))
    report = run_campaign(
        flow.tlm_optimized, flow.injected, stimuli,
        ip_name=ip, sensor_type=sensor, workers=1, cache=cache,
    )
    if report.cache_hits != 0 or report.cache_misses != report.total:
        problems.append(f"fresh cache replayed {report.cache_hits} verdicts")
    obs = (report.obs or {}).get("counters", {})
    counts["campaign.mutants_executed"] += obs.get("mutants", 0)
    counts["campaign.shards"] += obs.get("shards", 0)
    counts["campaign.golden_simulated"] += report.golden_cache_hit is not True
    counts["campaign.golden_replayed"] += report.golden_cache_hit is True
    counts["cache.misses"] += report.cache_misses or 0
    counts["cache.hits"] += report.cache_hits or 0
    ctx.caches.append(cache)
    ctx.result.check_entry(tag, campaign_entry(report, stimuli), problems)
    if traced:
        ctx.probe_flows.append((tag, flow, stimuli))
    return report.total


def _crosslevel_op(ctx, sched, ip, sensor, counts, problems, traced) -> int:
    from repro.ips import case_study, rebuild_recipe
    from repro.mutation import run_campaign, validate_at_rtl

    spec = case_study(ip)
    tag = label(ip, sensor)
    stimuli = ctx.stimuli[ip]
    flow = build_flow(ctx.spans, spec, sensor, traced)
    report = run_campaign(
        flow.tlm_optimized, flow.injected, stimuli,
        ip_name=ip, sensor_type=sensor, scheduler=sched,
    )
    with ctx.spans.span("validate_at_rtl"):
        rtl = validate_at_rtl(
            flow.augmented, flow.injected.mutants, stimuli=stimuli,
            cycles=len(stimuli), ip_name=ip, rebuild=rebuild_recipe(spec),
            scheduler=sched,
        )
    obs = (report.obs or {}).get("counters", {})
    counts["campaign.mutants_executed"] += obs.get("mutants", 0)
    counts["campaign.shards"] += obs.get("shards", 0)
    counts["campaign.golden_simulated"] += 1
    counts["rtl_validation.mutants_executed"] += rtl.total
    problems.extend(agreement_errors(report, rtl, sensor)[:3])
    ctx.result.check_entry(
        tag, {"tlm": campaign_entry(report, stimuli), "rtl": rtl_entry(rtl)},
        problems,
    )
    if traced:
        ctx.probe_flows.append((tag, flow, stimuli))
    return report.total + rtl.total


def level_probes(ctx) -> None:
    """``time_tlm`` on the hdtlib model and ``time_rtl`` on the
    augmented RTL over the same stimuli, per campaign of a traced
    pass: the paper's Table 3/4 speed ratio.  Runs after the pass,
    outside its timing."""
    from repro.flow import time_rtl, time_tlm

    for tag, flow, stimuli in ctx.probe_flows:
        with ctx.spans.span("probe.levels", probe=tag):
            tlm = time_tlm(flow.tlm_optimized, stimuli)
            rtl = time_rtl(flow.augmented, stimuli)
        ctx.levels.setdefault(tag, []).append(
            (tlm.seconds, rtl.seconds, tlm.cycles)
        )
    ctx.probe_flows = []


# -- passes ---------------------------------------------------------------

def _one_pass(ctx, k: int, traced: bool) -> dict:
    from repro.mutation import CampaignScheduler

    clear_compiled_models()
    counts = dict.fromkeys(COUNTS[ctx.workload], 0)
    latencies = []
    verdicts = 0
    pool = (CampaignScheduler(workers=2)
            if ctx.workload == "crosslevel" else None)
    sched = (TimingPlacement(pool, ctx.spans)
             if pool is not None and traced else pool)
    # tlm-cold runs every shard inline, on the caller's path.
    with program_tracing(ctx.spans, enabled=traced,
                         inline=ctx.workload == "tlm-cold"):
        cpu0 = cpu_self_s() + cpu_children_s()
        started = time.perf_counter()
        try:
            with ctx.spans.span("pass", p=k, traced=traced) as root:
                for ip, sensor in PAIRS:
                    op_started = time.perf_counter()
                    name = label(ip, sensor)
                    with ctx.result.operation(f"pass {k} {name}") \
                            as problems, ctx.spans.span("op", op=name), \
                            TRACER.context(campaign=name, sensor=sensor):
                        if ctx.workload == "crosslevel":
                            verdicts += _crosslevel_op(
                                ctx, sched, ip, sensor, counts, problems,
                                traced,
                            )
                        else:
                            verdicts += _tlm_cold_op(
                                ctx, k, ip, sensor, counts, problems,
                                traced,
                            )
                    latencies.append(time.perf_counter() - op_started)
                if pool is not None:
                    # Reaping the pool is part of the pass: its workers'
                    # CPU is only accounted once they are joined.
                    with ctx.spans.span("scheduler.shutdown"):
                        pool.shutdown()
                        pool = None
        finally:
            if pool is not None:
                pool.shutdown()
        wall = time.perf_counter() - started
        cpu = cpu_self_s() + cpu_children_s() - cpu0
    if "cache.puts" in counts:
        # Entries on disk, counted after the timing.
        counts["cache.puts"] = sum(len(cache) for cache in ctx.caches)
    ctx.caches = []
    shutil.rmtree(ctx.cache_root, ignore_errors=True)
    ctx.result.record_counts(counts)
    if traced:
        level_probes(ctx)
    return {"wall": wall, "cpu": cpu, "verdicts": verdicts,
            "latencies": latencies, "traced": traced, "root": root}


#: Exact work counts per pass, by workload.
COUNTS = {
    "tlm-cold": (
        "campaign.mutants_executed", "campaign.shards",
        "campaign.golden_simulated", "campaign.golden_replayed",
        "cache.puts", "cache.hits", "cache.misses",
    ),
    "crosslevel": (
        "campaign.mutants_executed", "campaign.shards",
        "campaign.golden_simulated", "rtl_validation.mutants_executed",
    ),
}


def run(ctx) -> None:
    ctx.levels = {}
    ctx.probe_flows = []
    ctx.caches = []
    setup(ctx)
    # Traced runs alternate untraced and traced passes, so the tracing
    # overhead is measured inside one run.
    passes = []
    started = time.perf_counter()
    while True:
        k = len(passes)
        passes.append(_one_pass(ctx, k, ctx.traced and k % 2 == 1))
        elapsed = time.perf_counter() - started
        if (k + 1 >= MIN_PASSES
                and elapsed * (k + 2) / (k + 1) > ctx.seconds):
            break
    if ctx.traced:
        _per_layer(ctx, passes)
        for name, value in (ctx.result.counts or {}).items():
            ctx.result.metric(name, value, "count", 1)
    else:
        _end_to_end(ctx, passes)


def _end_to_end(ctx, passes) -> None:
    result = ctx.result
    n = len(passes)
    verdicts = sum(p["verdicts"] for p in passes)
    result.metric("verdicts_per_s",
                  verdicts / sum(p["wall"] for p in passes), "1/s", n)
    result.metric("cpu_ms_per_verdict",
                  1e3 * sum(p["cpu"] for p in passes) / max(1, verdicts),
                  "ms", n)
    # A job is one campaign.  Its latencies cluster by campaign, so each
    # campaign's latency is its mean over the passes and the
    # percentiles are taken over the six campaigns.
    jobs = [sum(p["latencies"][i] for p in passes) / n
            for i in range(len(PAIRS))]
    for q, name in ((0.5, "job_latency_p50_ms"), (0.99, "job_latency_p99_ms")):
        result.metric(name, 1e3 * quantile(jobs, q), "ms", n * len(jobs))
    # The program runs in this process and, in crosslevel, in the pool
    # workers reaped at the end of each pass; the sum shows memory
    # growth in either.
    result.metric("peak_rss_mb", maxrss_self_mb() + maxrss_children_mb(),
                  "MB", 1)
    result.notes.append(
        f"passes: {n}, pass wall s: "
        + ", ".join(f"{p['wall']:.3f}" for p in passes)
        + f"; verdicts per pass: {passes[0]['verdicts']}"
    )


def _per_layer(ctx, passes) -> None:
    from perfbench.layers import report_layers

    report_layers(ctx, passes)
