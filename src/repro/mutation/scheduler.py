"""Streaming cross-IP campaign scheduler (one pool, many campaigns).

:mod:`repro.mutation.campaign` turned one campaign into picklable
shards; this module turns *many* campaigns -- all IPs x both sensor
types x any variant -- into one service-shaped workload fed to a
single persistent worker pool:

* :class:`CampaignScheduler` owns one
  :class:`concurrent.futures.ProcessPoolExecutor` for its whole
  lifetime.  Campaigns share it instead of paying a pool spin-up and
  tear-down per :func:`~repro.mutation.campaign.run_campaign` call;
  ``workers=1`` degrades to inline execution (no processes, fully
  deterministic ordering).
* :func:`iter_campaign` is the streaming face of one campaign: a
  generator yielding :class:`~repro.mutation.analysis.MutantOutcome`
  objects as their shards complete, with per-shard
  :class:`CampaignProgress` callbacks and :class:`AbortPolicy`
  early-abort (stop on the first surviving mutant, or once the score
  threshold is reached -- new shards stop being submitted, in-flight
  shards drain).  Collecting every yield and sorting by mutant index
  reproduces the blocking report byte-for-byte.
* :func:`stream_shard_batches` is the one shard loop: every
  campaign -- TLM (:func:`~repro.mutation.campaign.run_campaign`,
  :func:`iter_campaign`, the campaign service) and RTL validation
  (:func:`~repro.mutation.rtl_validation.validate_at_rtl`) -- drains
  its shards through it, so replay, write-back, progress, abort and
  the obs side-channel are handled in one place.
* :func:`run_benchmark_suite` runs a whole cross-IP suite as a plain
  loop of ``run_campaign`` (then ``validate_at_rtl`` when asked) per
  campaign on one leased pool: the pool is spun up once for the whole
  regression.

Every entry point threads ``cache=`` (a
:class:`~repro.mutation.cache.ResultCache`) through
:func:`~repro.mutation.campaign.prepare_campaign`: known verdicts are
replayed instantly as a virtual first shard, only cache misses are
submitted, and fresh verdicts are written back as their shards
complete -- so a warm re-run of an unchanged suite executes (nearly)
nothing.

Score accounting in the merged reports follows
:class:`repro.mutation.analysis.MutationReport`: timed-out runs are
excluded from every aggregate percentage (``effective_total``).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import TRACER, absorb_shard_counters, trace_span

from .campaign import (
    PreparedCampaign,
    ShardResult,
    prepare_campaign,
    run_campaign,
)
from .placement import LocalPoolPlacement, ShardPlacement

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from .analysis import MutationReport

__all__ = [
    "AbortPolicy",
    "CampaignProgress",
    "CampaignScheduler",
    "SuiteResult",
    "iter_campaign",
    "merge_shard_obs",
    "run_benchmark_suite",
    "stream_shard_batches",
]


@dataclass(frozen=True)
class AbortPolicy:
    """Early-abort policy for streaming campaigns.

    ``stop_on_survivor``
        stop submitting new shards as soon as a judged mutant survives
        (the paper's closure loop cares about the *first* hole in the
        sensor net, not the full count);
    ``score_threshold``
        stop once the killed percentage over the judged outcomes so
        far reaches the threshold (metric-driven closure: the campaign
        has proven enough).  The running score over a few mutants is
        noisy -- ``min_judged`` requires a minimum judged sample
        before the threshold may trigger (default 1: any judged
        outcome counts).

    Aborting never discards observations: shards already in flight
    drain and their outcomes are still yielded; only *new* submissions
    stop.
    """

    stop_on_survivor: bool = False
    score_threshold: "float | None" = None
    min_judged: int = 1

    def triggered(self, *, killed: int, survivors: int, judged: int) -> bool:
        if self.stop_on_survivor and survivors > 0:
            return True
        if (
            self.score_threshold is not None
            and judged >= max(1, self.min_judged)
            and 100.0 * killed / judged >= self.score_threshold
        ):
            return True
        return False


@dataclass(frozen=True)
class CampaignProgress:
    """Snapshot handed to ``progress`` callbacks after every shard."""

    ip_name: str
    sensor_type: str
    done: int            # outcomes observed so far
    total: int           # mutants in the campaign
    killed: int          # judged kills (timed-out runs are neither)
    survivors: int       # judged, not killed
    timed_out: int       # truncated runs (excluded from the score);
                         # killed + survivors + timed_out == done
    shards_done: int
    shards_total: int
    aborted: bool = False

    @property
    def pct(self) -> float:
        return 100.0 * self.done / self.total if self.total else 100.0


class _CampaignTracker:
    """Mutable per-campaign counters behind the progress snapshots and
    the abort policy."""

    def __init__(self, prepared: PreparedCampaign,
                 abort: "AbortPolicy | None" = None) -> None:
        self.prepared = prepared
        self.abort = abort
        self.done = 0
        self.killed = 0
        self.survivors = 0
        self.timed_out = 0
        self.shards_done = 0
        self.aborted = False

    def record(self, outcome) -> None:
        self.done += 1
        # Mirror MutationReport's score accounting: a timed-out run is
        # neither a kill nor a survivor, even if it diverged before the
        # truncation -- so killed + survivors + timed_out == done and
        # the running abort score agrees with the final report.  An
        # RTL-validation outcome never times out, and its verdict is
        # the sensor error rising.
        if getattr(outcome, "timed_out", False):
            self.timed_out += 1
        elif getattr(outcome, "killed", outcome.error_risen):
            self.killed += 1
        else:
            self.survivors += 1
        if self.abort is not None and not self.aborted:
            self.aborted = self.abort.triggered(
                killed=self.killed,
                survivors=self.survivors,
                judged=self.done - self.timed_out,
            )

    def absorb(self, outcomes, progress=None) -> None:
        """Account one completed shard: record every outcome, bump the
        shard counter, fire the progress callback."""
        for outcome in outcomes:
            self.record(outcome)
        self.shards_done += 1
        if progress is not None:
            progress(self.snapshot())

    def snapshot(self) -> CampaignProgress:
        p = self.prepared
        return CampaignProgress(
            ip_name=p.ip_name,
            sensor_type=p.sensor_type,
            done=self.done,
            total=p.total,
            killed=self.killed,
            survivors=self.survivors,
            timed_out=self.timed_out,
            shards_done=self.shards_done,
            shards_total=p.total_shards,
            aborted=self.aborted,
        )


#: One persistent local worker pool serving shards from many campaigns
#: -- the historical name of
#: :class:`~repro.mutation.placement.LocalPoolPlacement`.  Every
#: streaming entry point here accepts any
#: :class:`~repro.mutation.placement.ShardPlacement` (this pool, a
#: remote worker, a whole fleet) and produces byte-identical reports on
#: all of them: outcomes merge by mutant index, never by completion
#: order.
CampaignScheduler = LocalPoolPlacement


def _ephemeral_width(workers: int, prepared: PreparedCampaign) -> int:
    """Pool width for a one-campaign ephemeral scheduler: never more
    workers than shards (a one-shard campaign executes inline), never
    fewer than one (``workers <= 1`` keeps the historical inline
    semantics instead of raising)."""
    return min(max(1, workers), max(1, len(prepared.shards)))


@contextmanager
def _leased_scheduler(scheduler: "ShardPlacement | None", width: int):
    """Yield ``scheduler`` untouched when one was passed (the caller
    owns its lifetime), or an ephemeral :class:`CampaignScheduler` of
    ``width`` workers that is shut down on exit.  The single
    scheduler-lifecycle policy shared by every campaign entry point."""
    if scheduler is not None:
        yield scheduler
        return
    ephemeral = CampaignScheduler(max(1, width))
    try:
        yield ephemeral
    finally:
        ephemeral.shutdown()


def _stream_shard_results(scheduler: "ShardPlacement", shards, *,
                          stop=None):
    """Windowed shard submission: yield each completed shard's outcome
    list in completion order, keeping at most one submitted shard per
    pool slot so a ``stop()`` predicate (e.g. an abort policy)
    genuinely stops work instead of merely ignoring results of shards
    already queued behind the pool.  The low-level drain loop of
    :func:`stream_shard_batches`.

    The in-flight window is **never abandoned**: if the consumer stops
    iterating early -- a raising ``progress`` callback, an aborted
    stream, a disconnected service client closing its generator -- the
    ``finally`` block cancels what it can and drains the rest, so a
    shared pool is left with no orphan futures and the next campaign
    starts clean.
    """
    remaining = iter(shards)
    pending: "set[Future]" = set()
    exhausted = False
    try:
        while True:
            while not exhausted and len(pending) < scheduler.workers and \
                    not (stop is not None and stop()):
                shard = next(remaining, None)
                if shard is None:
                    exhausted = True
                    break
                pending.add(scheduler.submit(shard))
            if not pending:
                break
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()
    finally:
        if pending:
            for future in pending:
                future.cancel()
            wait(pending)


def stream_shard_batches(
    scheduler: "ShardPlacement",
    prepared,
    *,
    progress=None,
    abort: "AbortPolicy | None" = None,
    cache=None,
):
    """Run an already-prepared campaign on ``scheduler``, yielding one
    ``(outcomes, CampaignProgress)`` pair per completed shard.  The one
    shard loop: :func:`~repro.mutation.campaign.run_campaign`,
    :func:`iter_campaign`,
    :func:`~repro.mutation.rtl_validation.validate_at_rtl` and the
    campaign service (whose ``/jobs/<id>/events`` wire format is
    exactly this: per-shard outcome batches interleaved with progress
    snapshots) all drain it; the caller owns the scheduler's lifetime.

    ``prepared`` is a
    :class:`~repro.mutation.campaign.PreparedCampaign` or a
    :class:`~repro.mutation.rtl_validation.PreparedRtlValidation`.
    Replayed outcomes (``prepared.replayed_outcomes``: cache hits plus,
    for TLM campaigns, statically-pruned verdicts) are yielded first as
    one virtual shard -- they count toward progress and can trigger
    the abort policy before any submission happens.  Freshly executed
    outcomes are expanded with any deferred duplicate clones
    (``prepared.expand_outcomes``) and written back to ``cache`` as
    their shards complete (pass the same cache the campaign was
    prepared with) -- so the clones earn their own content-addressed
    entries for free.

    Abandoning the generator early (``close()``, or an exception out
    of a ``progress`` callback) stops submission and drains in-flight
    shards before returning, so a shared scheduler is never left with
    orphan work -- see :func:`_stream_shard_results`.
    """
    from .cache import encode_outcome, encode_rtl_outcome

    encode = (encode_outcome if isinstance(prepared, PreparedCampaign)
              else encode_rtl_outcome)
    keys = prepared.cache_keys if cache is not None else None
    with trace_span("scheduler.stream", ip=prepared.ip_name,
                    sensor=prepared.sensor_type,
                    shards=prepared.total_shards):
        tracker = _CampaignTracker(prepared, abort)
        replayed = prepared.replayed_outcomes
        if replayed:
            tracker.absorb(replayed, progress)
            yield list(replayed), tracker.snapshot()
        results = _stream_shard_results(
            scheduler, prepared.shards, stop=lambda: tracker.aborted
        )
        try:
            for outcomes in results:
                # The obs side-channel is absorbed before the outcome
                # list is re-shaped (expansion builds a plain list):
                # shard counters feed the metrics registry, relative-
                # offset spans are re-anchored onto the tracer, and the
                # payload rides on to the caller for per-campaign
                # aggregation (merge_shard_obs).
                obs = getattr(outcomes, "obs", None)
                absorb_shard_counters(obs)
                TRACER.absorb_shard(obs, ip=prepared.ip_name)
                outcomes = prepared.expand_outcomes(outcomes)
                if keys is not None:
                    # The ``ip`` tag feeds the per-IP cache statistics
                    # (ResultCache.stats) and is ignored on decode.
                    for outcome in outcomes:
                        payload = encode(outcome)
                        payload["ip"] = prepared.ip_name
                        cache.put(keys[outcome.index], payload)
                tracker.absorb(outcomes, progress)
                yield ShardResult(outcomes, obs=obs), tracker.snapshot()
        finally:
            # Deterministic cleanup even when our *own* frame is torn
            # down mid-yield (consumer close) or a callback raised
            # above: close the drain loop now instead of waiting for
            # GC.
            results.close()


def merge_shard_obs(batches) -> "dict | None":
    """Per-campaign obs aggregate of the shard batches
    :func:`stream_shard_batches` yielded: every shard's counters summed
    (``{"counters": {...}}``), or ``None`` when no shard carried a
    capture.  Becomes ``MutationReport.obs``."""
    counters: "dict[str, int]" = {}
    for batch in batches:
        payload = getattr(batch, "obs", None) or {}
        for name, value in (payload.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"counters": dict(sorted(counters.items()))} if counters \
        else None


def iter_campaign(
    golden,
    injected,
    stimuli,
    *,
    ip_name: str = "ip",
    sensor_type: str = "razor",
    recovery: bool = True,
    tap_order: "list[str] | None" = None,
    workers: int = 1,
    shard_size: "int | None" = None,
    batch_size: "int | None" = None,
    scheduler: "ShardPlacement | None" = None,
    progress=None,
    abort: "AbortPolicy | None" = None,
    cache=None,
    prune_plan=None,
):
    """Stream one campaign: yield ``MutantOutcome``s as shards complete.

    Arguments mirror :func:`repro.mutation.campaign.run_campaign`.
    With a ``scheduler`` the campaign runs on that shared pool (and
    ``workers`` is ignored in favour of ``scheduler.workers``);
    otherwise an ephemeral scheduler is created and shut down when the
    generator finishes (or is closed early).

    Every outcome is yielded exactly once.  Yield order is shard-
    completion order -- deterministic for one worker, pool-dependent
    otherwise -- but the outcomes themselves are computed identically
    regardless of sharding, so sorting the collected yields by
    ``index`` reproduces :func:`run_campaign`'s deterministic report.

    ``progress`` is called with a :class:`CampaignProgress` after each
    shard.  ``abort`` (an :class:`AbortPolicy`) stops *submission* of
    new shards once triggered; shards already in flight drain and are
    still yielded.  ``cache`` (a
    :class:`~repro.mutation.cache.ResultCache`) replays known verdicts
    as the very first batch -- so with a warm cache the stream yields
    everything instantly and submits nothing -- and writes fresh
    verdicts back as shards complete.  Statically pruned verdicts
    (``prune_plan``, as in
    :func:`~repro.mutation.campaign.run_campaign`) join that first
    batch.
    """
    prepared = prepare_campaign(
        golden,
        injected,
        stimuli,
        ip_name=ip_name,
        sensor_type=sensor_type,
        recovery=recovery,
        tap_order=tap_order,
        workers=workers if scheduler is None else scheduler.workers,
        shard_size=shard_size,
        batch_size=batch_size,
        cache=cache,
        prune_plan=prune_plan,
    )
    with _leased_scheduler(
        scheduler, _ephemeral_width(workers, prepared)
    ) as sched:
        batches = stream_shard_batches(
            sched, prepared, progress=progress, abort=abort, cache=cache
        )
        try:
            for outcomes, _snapshot in batches:
                yield from outcomes
        finally:
            batches.close()


@dataclass
class SuiteResult:
    """Outcome of one :func:`run_benchmark_suite` run."""

    #: ``(ip_name, sensor_type) -> MutationReport``, every report
    #: field-identical to a standalone ``run_campaign`` (modulo the
    #: wall-clock ``seconds``).
    reports: "dict[tuple[str, str], MutationReport]"
    seconds: float           # whole suite, including flow builds
    campaign_seconds: float  # campaigns and RTL validations only
    workers: int
    #: ``(ip_name, sensor_type) -> RtlValidationReport`` when the
    #: suite ran with ``rtl_validation=True`` (empty otherwise); the
    #: RTL shards ran on the same pool as the TLM shards.
    rtl_reports: "dict" = field(default_factory=dict)

    @property
    def total_mutants(self) -> int:
        """TLM campaign mutants (RTL validations counted separately
        via :attr:`total_rtl_mutants`)."""
        return sum(r.total for r in self.reports.values())

    @property
    def total_rtl_mutants(self) -> int:
        return sum(r.total for r in self.rtl_reports.values())

    @property
    def cache_hits(self) -> "int | None":
        """Replayed verdicts across every report (TLM + RTL), or
        ``None`` when the suite ran without a cache."""
        hits = [
            r.cache_hits
            for r in (*self.reports.values(), *self.rtl_reports.values())
            if r.cache_hits is not None
        ]
        return sum(hits) if hits else None

    @property
    def cache_misses(self) -> "int | None":
        misses = [
            r.cache_misses
            for r in (*self.reports.values(), *self.rtl_reports.values())
            if r.cache_misses is not None
        ]
        return sum(misses) if misses else None

    @property
    def mutants_per_second(self) -> float:
        """Pool throughput over the campaign window: mutants actually
        *executed* per second.  TLM executions are the shards' own
        ``mutants`` counters (cache replays and statically pruned
        verdicts never reach a shard); RTL executions are the cache
        misses (every mutant, cache-less).  A fully-warm re-run
        reports 0.0 rather than a replay rate mislabelled as
        execution."""
        if self.campaign_seconds <= 0:
            return 0.0
        executed = sum(
            ((r.obs or {}).get("counters") or {}).get("mutants", 0)
            for r in self.reports.values()
        ) + sum(
            r.total if r.cache_misses is None else r.cache_misses
            for r in self.rtl_reports.values()
        )
        return executed / self.campaign_seconds

    @property
    def all_killed(self) -> bool:
        return all(r.killed_pct == 100.0 for r in self.reports.values())

    @property
    def timed_out_count(self) -> int:
        return sum(r.timed_out_count for r in self.reports.values())

    @property
    def rtl_validation_ok(self) -> bool:
        """True when no RTL validation ran, or every Razor RTL report
        raised its error on every mutant (the paper's cross-level
        agreement criterion).  Counter risen percentages sit below
        100% by LUT-threshold design, so they are not gated."""
        return all(
            r.risen_pct == 100.0
            for (_, sensor), r in self.rtl_reports.items()
            if sensor == "razor"
        )


def run_benchmark_suite(
    specs,
    sensor_types=("razor", "counter"),
    *,
    workers: int = 4,
    shard_size: "int | None" = None,
    batch_size: "int | None" = None,
    mutation_cycles: "int | None" = None,
    scheduler: "ShardPlacement | None" = None,
    progress=None,
    flows: "dict | None" = None,
    cache=None,
    rtl_validation: bool = False,
    rtl_validation_cycles: "int | None" = None,
    rtl_exec_mode: str = "compiled",
) -> SuiteResult:
    """Run the cross-IP campaign suite on one shared worker pool.

    Args:
        specs: iterable of :class:`repro.ips.IpSpec` or registry
            names; every distinct ``spec x sensor_type`` pair becomes
            one campaign (duplicates are run once).
        sensor_types: the sensor variants to cover (default both).
        workers: pool width when no ``scheduler`` is passed.
        shard_size: overrides the one-shard-per-worker batching.
        batch_size: execute every TLM shard as batched multi-mutant
            sweeps of this many mutants
            (:mod:`repro.mutation.batched`); reports stay
            field-identical to the serial default.
        mutation_cycles: overrides each IP's testbench length.
        scheduler: a :class:`CampaignScheduler` owning the shared pool
            (its ``workers`` takes precedence).
        progress: per-shard :class:`CampaignProgress` callback, tagged
            with the shard's campaign.
        flows: optional ``(ip_name, sensor_type) ->``
            :class:`~repro.flow.pipeline.FlowResult` map of pre-built
            flows (the benchmark harness uses this to time scheduling
            strategies without re-running flow setup); missing entries
            are built via :func:`repro.flow.run_flow`.
        cache: a :class:`~repro.mutation.cache.ResultCache` shared by
            every campaign (and RTL validation) in the suite: known
            verdicts replay instantly, fresh ones are written back, so
            a second identical suite run executes (nearly) nothing.
        rtl_validation: also re-run every campaign's mutants at RTL
            (:func:`~repro.mutation.rtl_validation.validate_at_rtl`)
            on the *same* pool; reports land in
            :attr:`SuiteResult.rtl_reports`.
        rtl_validation_cycles: RTL testbench length (default: the
            suite's ``mutation_cycles`` override, else the IP's
            ``mutation_cycles``).  Note a short override truncates the
            RTL testbench too: slowly-toggling endpoints (e.g. the
            filter's decimated outputs) may then legitimately miss
            100% risen -- same caveat as the TLM kill gate on short
            testbenches; pass ``rtl_validation_cycles`` explicitly to
            decouple.
        rtl_exec_mode: kernel execution mode for the RTL shards.

    Each campaign is exactly the standalone pattern: its flow
    (characterise + insert + abstract + inject), then
    :func:`~repro.mutation.campaign.run_campaign` with the module-aware
    static prune plan, then -- with ``rtl_validation`` --
    ``validate_at_rtl``, all on the one shared
    :class:`CampaignScheduler`.  The pool is spun up exactly once for
    the whole suite.

    Returns:
        A :class:`SuiteResult`.  The per-campaign reports are
        deterministic: field-identical to a standalone
        :func:`~repro.mutation.campaign.run_campaign` of the same
        campaign (``seconds`` aside), for any worker count and any
        cache state.
    """
    from repro.flow import run_flow
    from repro.ips import IpSpec, case_study, rebuild_recipe
    from repro.lint.mutants import plan_pruning

    from .rtl_validation import validate_at_rtl

    started = time.perf_counter()
    resolved: "list[IpSpec]" = [
        case_study(s) if isinstance(s, str) else s for s in specs
    ]
    sensor_types = tuple(sensor_types)
    for sensor in sensor_types:
        # Fail fast in the parent: an unknown sensor type would
        # otherwise surface as a tap-order crash inside a worker.
        if sensor not in ("razor", "counter"):
            raise ValueError(f"unknown sensor type {sensor!r}")

    reports: "dict[tuple[str, str], MutationReport]" = {}
    rtl_reports: "dict" = {}
    campaign_seconds = 0.0
    # A passed scheduler defines the pool width; shard to fill it.
    with _leased_scheduler(scheduler, workers) as sched:
        for spec in resolved:
            for sensor in sensor_types:
                key = (spec.name, sensor)
                if key in reports:
                    continue
                flow = (flows or {}).get(key)
                if flow is None:
                    # Forward the kernel mode so the parent-side
                    # design (RTL fingerprints, inline shards, memo
                    # seeding) is built exactly as pool workers will
                    # rebuild it.
                    flow = run_flow(
                        spec, sensor, run_mutation=False,
                        rtl_exec_mode=rtl_exec_mode,
                    )
                cycles = mutation_cycles or spec.mutation_cycles
                campaign_started = time.perf_counter()
                reports[key] = run_campaign(
                    # The GeneratedTlm (not a bare factory) keeps the
                    # golden fingerprintable for golden-trace caching.
                    flow.tlm_optimized,
                    flow.injected,
                    spec.stimulus(cycles),
                    ip_name=spec.name,
                    sensor_type=sensor,
                    shard_size=shard_size,
                    batch_size=batch_size,
                    scheduler=sched,
                    progress=progress,
                    cache=cache,
                    # The augmented IR module enables the frozen-target
                    # fold analysis on top of the scheduler-level
                    # criteria, exactly as run_flow plans it.
                    prune_plan=plan_pruning(
                        flow.injected, sensor, module=flow.augmented.module
                    ),
                )
                if rtl_validation:
                    # Honour the suite-wide cycle override: a quick
                    # `--cycles 4` suite must not pay full-length RTL
                    # simulation per mutant behind the user's back.
                    rtl_stimuli = spec.stimulus(
                        rtl_validation_cycles or cycles
                    )
                    rtl_reports[key] = validate_at_rtl(
                        flow.augmented,
                        flow.injected.mutants,
                        stimuli=rtl_stimuli,
                        cycles=len(rtl_stimuli),
                        ip_name=spec.name,
                        exec_mode=rtl_exec_mode,
                        rebuild=rebuild_recipe(spec),
                        shard_size=shard_size,
                        scheduler=sched,
                        cache=cache,
                    )
                campaign_seconds += time.perf_counter() - campaign_started
    return SuiteResult(
        reports=reports,
        seconds=time.perf_counter() - started,
        campaign_seconds=campaign_seconds,
        workers=sched.workers,
        rtl_reports=rtl_reports,
    )
