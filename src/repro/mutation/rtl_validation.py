"""RTL validation of the TLM mutation results (paper Section 8.5).

The paper validates the TLM campaign by reproducing each mutant at
RTL with explicitly delayed assignments (VHDL ``after`` clauses) and
checking that the sensors raise the same errors.  Delays are chosen so
that RTL and TLM fall *within the same high-frequency clock period*,
which makes the two levels indistinguishable to the sensors:

* **minimum delay** -> arrival just after the consuming edge
  (``T + T_HF/2`` after the launch);
* **maximum delay** -> arrival just inside the Razor window's end
  (``1.5 T - T_HF/2`` after the launch);
* **delta delay k** -> an absolute arrival of ``k`` HF periods after
  the launch (Counter versions).

These run on the event-driven kernel with the sensor banks active, so
they exercise the true shadow-latch / HF-counter mechanics rather than
the TLM emulation.

Execution model
---------------
Validation is lowered to :class:`RtlValidationShard` work units and
drained by the same shard loop as the TLM campaign
(:func:`repro.mutation.scheduler.stream_shard_batches`), so a campaign
and its RTL validation can share one
:class:`~repro.mutation.scheduler.CampaignScheduler` pool
(:func:`repro.mutation.scheduler.run_benchmark_suite` with
``rtl_validation=True``).

An :class:`~repro.sensors.insertion.AugmentedIP` holds native sensor
processes (local closures) and therefore does not pickle, so a shard
ships one of two payloads:

* a **rebuild recipe** -- the registry name of the IP plus the sensor
  type; each worker process reconstructs the augmented design once
  via :func:`repro.flow.pipeline.build_augmented` (memoised per
  process, deterministic by construction) and serves every subsequent
  shard of that campaign from the memo;
* the **live object** -- when the caller validates an ad-hoc augmented
  design (no registry entry) or passes an opaque ``drive`` callable,
  the shard is flagged ``inline_only`` and executes in the parent
  process even on a multi-worker pool.

Results are cached in the same
:class:`~repro.mutation.cache.ResultCache` as the TLM campaign
verdicts, keyed by :func:`repro.mutation.cache.rtl_entry_key`
(structural RTL fingerprint, stimuli hash, cycle count, recovery
value, mutant spec); caching needs the declarative ``stimuli`` form --
an opaque ``drive`` callable cannot be fingerprinted and bypasses the
cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.abstraction.codegen import MutantSpec
from repro.sensors.insertion import AugmentedIP

from .campaign import _shard_sequence

__all__ = [
    "RtlMutantOutcome",
    "RtlValidationReport",
    "RtlValidationShard",
    "PreparedRtlValidation",
    "prepare_rtl_validation",
    "validate_at_rtl",
]


@dataclass(frozen=True)
class RtlMutantOutcome:
    spec: MutantSpec
    error_risen: bool
    meas_val: "int | None"
    #: Position in the campaign's mutant table (for the deterministic
    #: merge of shard results and the result-cache write-back).
    index: int = -1


@dataclass
class RtlValidationReport:
    ip_name: str
    sensor_type: str
    outcomes: "list[RtlMutantOutcome]" = field(default_factory=list)
    #: Wall-clock time -- runtime metadata, excluded from equality.
    seconds: float = field(default=0.0, compare=False)
    #: Result-cache accounting (``None`` when validated cache-less);
    #: excluded from equality so cached and uncached reports compare
    #: identical on every verdict field.
    cache_hits: "int | None" = field(default=None, compare=False)
    cache_misses: "int | None" = field(default=None, compare=False)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def risen_pct(self) -> float:
        if not self.outcomes:
            return 0.0
        return 100.0 * sum(o.error_risen for o in self.outcomes) / len(
            self.outcomes
        )


def _rtl_delay_for(spec: MutantSpec, augmented: AugmentedIP) -> int:
    """Absolute transport delay reproducing one TLM mutant at RTL."""
    period = augmented.main_period_ps
    hf = augmented.hf_period_ps() if augmented.sensor_type == "counter" \
        else period // 10
    if augmented.sensor_type == "razor":
        if spec.kind == "min":
            return period + hf // 2
        if spec.kind == "max":
            return period + period // 2 - hf // 2
        raise ValueError(f"unexpected razor mutant kind {spec.kind!r}")
    # Counter: all mutant classes are realised as an arrival inside HF
    # period k, matching the TLM dual-clock scheduler placement.  The
    # 2 ps pull-in keeps input-launched relaunches (which commit 1 ps
    # after the edge under the edge-launch convention) inside the same
    # HF period as register-launched ones -- the paper's "same HF
    # period at RTL and TLM" alignment.
    return max(1, spec.hf_tick * hf - 2)


def _stimulus_driver(augmented: AugmentedIP, stimuli,
                     recovery_value: int = 0):
    """The canonical testbench driver: poke the cycle's input vector
    (plus the Razor recovery enable) and advance one clock.  Built
    identically in the parent and in worker processes, so declarative
    ``stimuli`` validation is location-independent."""
    input_ports = {p.name: p for p in augmented.module.inputs()}
    extra = {}
    if augmented.sensor_type == "razor" and \
            augmented.bank.recovery is not None:
        extra[augmented.bank.recovery] = recovery_value

    def drive(sim, i):
        vec = stimuli[i % len(stimuli)]
        pokes = {input_ports[k]: v for k, v in vec.items()}
        pokes.update(extra)
        sim.cycle(pokes)

    return drive


def _run_rtl_mutant(augmented: AugmentedIP, index: int, spec: MutantSpec,
                    drive, cycles: int, exec_mode: str) -> RtlMutantOutcome:
    """Reproduce one mutant at RTL: fresh simulator, one delayed
    endpoint, ``cycles`` driven testbench cycles, sensor taps read
    every cycle."""
    sim = augmented.make_simulation(
        input_launch_at_edge=True, exec_mode=exec_mode
    )
    endpoint = augmented.endpoint_for(spec.register)
    sim.set_transport_delay(endpoint, _rtl_delay_for(spec, augmented))
    risen = False
    measured = None
    if augmented.sensor_type == "razor":
        tap = next(
            t for t in augmented.bank.taps
            if t.register.name == spec.register
        )
        for i in range(cycles):
            drive(sim, i)
            if sim.peek_int(tap.error):
                risen = True
    else:
        tap = augmented.bank.tap_for(spec.register)
        for i in range(cycles):
            drive(sim, i)
            meas = sim.peek_int(tap.meas_val)
            if meas:
                measured = meas
                if meas > tap.lut_threshold:
                    risen = True
    return RtlMutantOutcome(
        spec=spec, error_risen=risen, meas_val=measured, index=index
    )


#: Per-process memo of rebuilt augmented designs, keyed by
#: ``((ip_name, sensor_type), exec_mode)``: every shard of the same
#: validation campaign served by one worker reuses one rebuild.
_REBUILT_AUGMENTED: "dict[tuple, AugmentedIP]" = {}


def _rebuilt_augmented(recipe: "tuple[str, str]",
                       exec_mode: str) -> AugmentedIP:
    key = (recipe, exec_mode)
    augmented = _REBUILT_AUGMENTED.get(key)
    if augmented is None:
        # Function-level import: repro.flow imports repro.mutation, so
        # the reverse edge must stay out of module import time.
        from repro.flow.pipeline import build_augmented
        from repro.ips import case_study

        ip_name, sensor_type = recipe
        augmented = build_augmented(
            case_study(ip_name), sensor_type, exec_mode=exec_mode
        ).augmented
        _REBUILT_AUGMENTED[key] = augmented
    return augmented


@dataclass(frozen=True)
class RtlValidationShard:
    """One schedulable batch of RTL-validation mutants.

    Picklable when it carries a ``rebuild`` recipe (registry IP name +
    sensor type); otherwise it holds the live ``augmented`` object /
    ``drive`` callable and is flagged ``inline_only`` so the scheduler
    executes it in the parent process.
    """

    indices: "tuple[int, ...]"
    specs: "tuple[MutantSpec, ...]"           # aligned with ``indices``
    cycles: int
    exec_mode: str
    recovery_value: int
    stimuli: "tuple[dict, ...] | None"        # None -> ``drive`` carried
    rebuild: "tuple[str, str] | None"         # (ip registry name, sensor)
    augmented: "AugmentedIP | None" = None
    drive: "object | None" = None

    #: RTL shards never travel to remote worker daemons: the rebuild
    #: recipe references the local IP registry and the live-object
    #: variants do not serialise at all.  A fleet routes them to its
    #: local placement instead.
    remote_ok = False

    @property
    def inline_only(self) -> bool:
        # An opaque drive callable never leaves the parent, even when a
        # rebuild recipe would make the rest of the payload picklable.
        return self.rebuild is None or self.drive is not None

    def run(self) -> "list[RtlMutantOutcome]":
        augmented = self.augmented
        if augmented is None:
            augmented = _rebuilt_augmented(self.rebuild, self.exec_mode)
        drive = self.drive
        if drive is None:
            drive = _stimulus_driver(
                augmented, list(self.stimuli), self.recovery_value
            )
        return [
            _run_rtl_mutant(
                augmented, index, spec, drive, self.cycles, self.exec_mode
            )
            for index, spec in zip(self.indices, self.specs)
        ]


@dataclass(frozen=True)
class PreparedRtlValidation:
    """An RTL validation lowered to its schedulable form (the RTL
    analogue of :class:`~repro.mutation.campaign.PreparedCampaign`):
    shards cover the cache misses, replayed verdicts sit in
    ``cached_outcomes``, and ``cache_keys`` maps every mutant index to
    its entry key for write-back."""

    ip_name: str
    sensor_type: str
    total: int
    shards: "tuple[RtlValidationShard, ...]"
    cached_outcomes: "tuple" = ()
    cache_keys: "tuple[str, ...] | None" = None
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None

    @property
    def replayed_outcomes(self) -> "tuple":
        """Every verdict known before any shard executes (cache
        replays only: RTL validation never prunes -- every mutant
        re-executes at RTL by definition of the cross-level check)."""
        return self.cached_outcomes

    @property
    def total_shards(self) -> int:
        return len(self.shards) + (1 if self.cached_outcomes else 0)

    def expand_outcomes(self, outcomes):
        """No deferred duplicates to attach: returns ``outcomes``."""
        return outcomes

    def build_report(self, outcomes,
                     seconds: float = 0.0) -> RtlValidationReport:
        """Deterministic merged report: outcomes in mutant-table order
        regardless of shard completion order or cache state."""
        return RtlValidationReport(
            ip_name=self.ip_name,
            sensor_type=self.sensor_type,
            outcomes=sorted(outcomes, key=lambda o: o.index),
            seconds=seconds,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
        )


def prepare_rtl_validation(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    *,
    stimuli=None,
    drive=None,
    cycles: int = 24,
    ip_name: str = "ip",
    exec_mode: str = "compiled",
    recovery_value: int = 0,
    rebuild: "str | None" = None,
    workers: int = 1,
    shard_size: "int | None" = None,
    cache=None,
) -> PreparedRtlValidation:
    """Lower an RTL validation to schedulable shards.

    Exactly one of ``stimuli`` (declarative per-cycle input vectors --
    shardable across processes and cacheable) or ``drive`` (an opaque
    ``drive(sim, cycle_index)`` callable -- inline-only, cache
    bypassed) must be given.  ``rebuild`` names a registered case
    study whose augmentation the workers reconstruct instead of
    pickling ``augmented``; without it, shards carry the live object
    and execute in the parent.

    Contract: when ``rebuild`` is set, ``augmented`` must be *exactly*
    the registry build of that IP (derive the name via
    :func:`repro.ips.rebuild_recipe`, which identity-checks the spec,
    as :func:`repro.flow.run_flow` and the suite do).  Passing a
    modified design with ``rebuild`` set makes pool workers simulate
    the registry design while inline shards simulate yours -- a report
    mixing two designs, cached under the wrong fingerprint.
    """
    if (stimuli is None) == (drive is None):
        raise ValueError("pass exactly one of stimuli= or drive=")
    specs = tuple(mutants)

    cached_outcomes: "list[RtlMutantOutcome]" = []
    cache_keys = None
    hits = misses = None
    miss_indices = list(range(len(specs)))
    if cache is not None and stimuli is not None:
        from .cache import (
            decode_rtl_outcome,
            rtl_entry_key,
            rtl_fingerprint,
            stimuli_hash,
        )

        rtl_fp = rtl_fingerprint(augmented)
        stim_hash = stimuli_hash(stimuli)
        cache_keys = tuple(
            rtl_entry_key(rtl_fp, stim_hash, cycles, recovery_value, spec)
            for spec in specs
        )
        cached_outcomes, miss_indices = cache.probe(
            cache_keys, decode_rtl_outcome
        )
        hits = len(cached_outcomes)
        misses = len(miss_indices)

    recipe = (rebuild, augmented.sensor_type) if rebuild else None
    if recipe is not None:
        # Seed the per-process rebuild memo with the design we already
        # hold: inline execution (workers=1, or backfill in the
        # parent) reuses it instead of paying a second flow front-end;
        # worker processes still rebuild into their own memo.  Assign
        # (not setdefault) so inline shards always simulate exactly
        # the object being validated -- ``rebuild=`` asserts it equals
        # the registry build, which is what pool workers reconstruct.
        _REBUILT_AUGMENTED[(recipe, exec_mode)] = augmented
    shards = tuple(
        RtlValidationShard(
            indices=indices,
            specs=tuple(specs[i] for i in indices),
            cycles=cycles,
            exec_mode=exec_mode,
            recovery_value=recovery_value,
            stimuli=tuple(stimuli) if stimuli is not None else None,
            rebuild=recipe,
            augmented=None if recipe else augmented,
            drive=drive,
        )
        for indices in _shard_sequence(miss_indices, workers, shard_size)
    )
    return PreparedRtlValidation(
        ip_name=ip_name,
        sensor_type=augmented.sensor_type,
        total=len(specs),
        shards=shards,
        cached_outcomes=tuple(cached_outcomes),
        cache_keys=cache_keys,
        cache_hits=hits,
        cache_misses=misses,
    )


def validate_at_rtl(
    augmented: AugmentedIP,
    mutants: "list[MutantSpec]",
    drive=None,
    *,
    stimuli=None,
    cycles: int = 24,
    ip_name: str = "ip",
    exec_mode: str = "compiled",
    recovery_value: int = 0,
    rebuild: "str | None" = None,
    workers: int = 1,
    shard_size: "int | None" = None,
    scheduler=None,
    cache=None,
) -> RtlValidationReport:
    """Re-run each mutant at RTL via delayed assignments.

    Args:
        augmented: the sensor-augmented design under validation.
        mutants: the TLM campaign's :class:`MutantSpec` table.
        drive: legacy ``drive(sim, cycle_index)`` testbench callable
            (one full cycle: poke inputs, advance the clock).  Opaque,
            so it forces inline execution and bypasses the cache;
            prefer ``stimuli``.
        stimuli: declarative per-cycle ``name -> int`` input vectors
            (the same form the TLM campaign consumes); the canonical
            driver re-presents ``stimuli[i % len(stimuli)]`` each
            cycle, with the Razor recovery enable poked to
            ``recovery_value``.
        cycles: testbench cycles per mutant.
        exec_mode: kernel execution mode (compiled closures by
            default; per-process compilation is memoised, so each
            worker compiles each process exactly once).
        rebuild: registry name of the IP, enabling worker processes to
            reconstruct the augmentation instead of pickling it --
            required for the shards to leave the parent process.
            ``augmented`` must then be exactly the registry build; use
            :func:`repro.ips.rebuild_recipe` to derive the name safely
            (see :func:`prepare_rtl_validation` for the contract).
        workers / shard_size / scheduler: shard sizing and pool
            placement, exactly as in
            :func:`~repro.mutation.campaign.run_campaign`; pass the
            campaign's :class:`CampaignScheduler` to run the RTL
            shards on the same pool.
        cache: a :class:`~repro.mutation.cache.ResultCache`; known
            verdicts replay instantly (``stimuli`` form only).

    Returns:
        An :class:`RtlValidationReport` with outcomes in mutant-table
        order -- deterministic for any worker count, shard size and
        cache state.
    """
    from .scheduler import (
        _ephemeral_width,
        _leased_scheduler,
        stream_shard_batches,
    )

    started = time.perf_counter()
    prepared = prepare_rtl_validation(
        augmented,
        mutants,
        stimuli=stimuli,
        drive=drive,
        cycles=cycles,
        ip_name=ip_name,
        exec_mode=exec_mode,
        recovery_value=recovery_value,
        rebuild=rebuild,
        workers=workers if scheduler is None else scheduler.workers,
        shard_size=shard_size,
        cache=cache,
    )
    with _leased_scheduler(
        scheduler, _ephemeral_width(workers, prepared)
    ) as sched:
        outcomes = [
            outcome
            for batch, _snapshot in stream_shard_batches(
                sched, prepared, cache=cache
            )
            for outcome in batch
        ]
    return prepared.build_report(
        outcomes, seconds=time.perf_counter() - started
    )
