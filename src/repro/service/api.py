"""Wire format of the campaign service (shared by server and client).

Everything that crosses the HTTP boundary is defined here once, so
the server's encoder and the client's decoder cannot drift apart:

* **reports** -- :func:`encode_report` /:func:`decode_report` carry a
  :class:`~repro.mutation.MutationReport` as JSON.  The round trip is
  lossless on every scored field, so a report streamed through the
  service compares **field-for-field equal** (dataclass ``==``) to the
  report a direct :func:`~repro.mutation.run_campaign` of the same
  campaign returns -- the service's core determinism contract, tested
  in ``tests/test_service.py``;
* **events** -- the NDJSON stream of ``GET /jobs/<id>/events``: one
  JSON object per line, each tagged with a ``type``:

  ========== ========================================================
  ``status``   lifecycle edge (``queued`` -> ``running``)
  ``shard``    one completed shard's ``outcomes`` (encoded mutant
               verdicts, cache-replay batch included)
  ``progress`` a :class:`~repro.mutation.CampaignProgress` snapshot
  ``end``      terminal: final ``status``, the full ``report`` (for
               ``done``/``aborted``) or ``error`` (for ``failed``)
  ========== ========================================================

  The server injects the ``job`` id into every event it publishes.

* **shards** -- :func:`encode_shard` / :func:`decode_shard` carry one
  :class:`~repro.mutation.CampaignShard` to a ``repro serve --role
  worker`` daemon (``POST /shards``).  Every shard field is plain
  data: the injected :class:`~repro.abstraction.GeneratedTlm` travels
  as its generated source + mutant table (the worker's
  ``compiled_class`` cache keys on the source text, so repeated shards
  of one campaign compile once per worker), the golden trace reuses
  the result cache's lossless
  :func:`~repro.mutation.cache.encode_golden_trace` codec, and the
  decoded shard derives byte-identical cache entry keys
  (:func:`~repro.mutation.cache.shard_entry_keys`) to the
  coordinator's -- which is what lets a fleet share one
  content-addressed cache.

Outcome payloads reuse the result cache's
:func:`~repro.mutation.cache.encode_outcome` /
:func:`~repro.mutation.cache.decode_outcome` -- one serialisation of a
mutant verdict for disk and wire.
"""

from __future__ import annotations

from repro.mutation.cache import (
    decode_golden_trace,
    decode_outcome,
    encode_golden_trace,
    encode_outcome,
)

__all__ = [
    "NDJSON_CONTENT_TYPE",
    "decode_generated_tlm",
    "decode_report",
    "decode_shard",
    "encode_generated_tlm",
    "encode_report",
    "encode_shard",
    "end_event",
    "progress_event",
    "shard_event",
    "status_event",
]

#: Content type of the ``/jobs/<id>/events`` stream.
NDJSON_CONTENT_TYPE = "application/x-ndjson"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def encode_report(report) -> dict:
    """JSON payload for a :class:`~repro.mutation.MutationReport`
    (verdict fields plus the runtime metadata excluded from report
    equality: ``seconds`` and the cache counters)."""
    return {
        "ip_name": report.ip_name,
        "sensor_type": report.sensor_type,
        "variant": report.variant,
        "cycles_per_run": report.cycles_per_run,
        "seconds": report.seconds,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "golden_cache_hit": report.golden_cache_hit,
        "obs": report.obs,
        "outcomes": [encode_outcome(o) for o in report.outcomes],
    }


def decode_report(payload: dict):
    """Rebuild a :class:`~repro.mutation.MutationReport` from a wire
    payload.  Outcomes keep their stored indices (the server already
    merged them in mutant-index order via
    :meth:`~repro.mutation.PreparedCampaign.build_report`)."""
    from repro.mutation import MutationReport

    report = MutationReport(
        ip_name=payload["ip_name"],
        sensor_type=payload["sensor_type"],
        variant=payload["variant"],
        outcomes=[
            decode_outcome(o, o["index"]) for o in payload["outcomes"]
        ],
        cycles_per_run=payload["cycles_per_run"],
        cache_hits=payload.get("cache_hits"),
        cache_misses=payload.get("cache_misses"),
        golden_cache_hit=payload.get("golden_cache_hit"),
    )
    report.seconds = payload.get("seconds", 0.0)
    report.obs = payload.get("obs")
    return report


# ---------------------------------------------------------------------------
# Shards (coordinator -> worker daemon)
# ---------------------------------------------------------------------------

def encode_generated_tlm(gen) -> dict:
    """JSON payload for a :class:`~repro.abstraction.GeneratedTlm`:
    the generated source itself plus the metadata the campaign engine
    reads off it (class name, variant, scheduler kind, mutant table).
    The round trip is exact, so the decoded model fingerprints
    (:func:`~repro.mutation.cache.model_fingerprint`) identically to
    the original."""
    return {
        "source": gen.source,
        "class_name": gen.class_name,
        "variant": gen.variant,
        "scheduler_kind": gen.scheduler_kind,
        "loc": gen.loc,
        "mutants": [
            {
                "kind": spec.kind,
                "target": spec.target,
                "hf_tick": spec.hf_tick,
                "register": spec.register,
            }
            for spec in gen.mutants
        ],
    }


def decode_generated_tlm(payload: dict):
    """Rebuild a :class:`~repro.abstraction.GeneratedTlm` from a wire
    payload."""
    from repro.abstraction import GeneratedTlm
    from repro.abstraction.codegen import MutantSpec

    return GeneratedTlm(
        source=payload["source"],
        class_name=payload["class_name"],
        variant=payload["variant"],
        scheduler_kind=payload["scheduler_kind"],
        mutants=[
            MutantSpec(
                kind=spec["kind"],
                target=spec["target"],
                hf_tick=spec["hf_tick"],
                register=spec["register"],
            )
            for spec in payload["mutants"]
        ],
        loc=payload["loc"],
    )


def encode_shard(shard) -> dict:
    """JSON payload for one :class:`~repro.mutation.CampaignShard`
    (the ``POST /shards`` request body).  Only TLM shards travel --
    callers gate on ``shard.remote_ok``."""
    return {
        "kind": "tlm",
        "indices": list(shard.indices),
        "injected": encode_generated_tlm(shard.injected),
        "stimuli": [dict(vec) for vec in shard.stimuli],
        "golden": encode_golden_trace(shard.golden),
        "sensor_type": shard.sensor_type,
        "recovery": shard.recovery,
        "tap_order": list(shard.tap_order),
        "trace": shard.trace,
    }


def decode_shard(payload: dict):
    """Rebuild a :class:`~repro.mutation.CampaignShard` from a wire
    payload (worker side of ``POST /shards``)."""
    from repro.mutation import CampaignShard

    if payload.get("kind") != "tlm":
        raise ValueError(
            f"unsupported shard kind {payload.get('kind')!r}"
        )
    return CampaignShard(
        indices=tuple(payload["indices"]),
        injected=decode_generated_tlm(payload["injected"]),
        stimuli=tuple(dict(vec) for vec in payload["stimuli"]),
        golden=decode_golden_trace(payload["golden"]),
        sensor_type=payload["sensor_type"],
        recovery=payload["recovery"],
        tap_order=tuple(payload["tap_order"]),
        # Older coordinators omit the tracing field: default to the
        # untraced path they expect.
        trace=payload.get("trace", False),
    )


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def status_event(status: str) -> dict:
    """Lifecycle-edge event (``queued`` -> ``running``)."""
    return {"type": "status", "status": status}


def shard_event(outcomes) -> dict:
    """One completed shard's verdicts (the cache-replay batch streams
    as the first, virtual shard)."""
    return {
        "type": "shard",
        "outcomes": [encode_outcome(o) for o in outcomes],
    }


def progress_event(snapshot) -> dict:
    """A :class:`~repro.mutation.CampaignProgress` snapshot."""
    return {
        "type": "progress",
        "ip": snapshot.ip_name,
        "sensor": snapshot.sensor_type,
        "done": snapshot.done,
        "total": snapshot.total,
        "killed": snapshot.killed,
        "survivors": snapshot.survivors,
        "timed_out": snapshot.timed_out,
        "shards_done": snapshot.shards_done,
        "shards_total": snapshot.shards_total,
        "aborted": snapshot.aborted,
    }


def end_event(status: str, report: "dict | None" = None,
              error: "str | None" = None) -> dict:
    """Terminal event closing every ``/events`` stream.  ``report`` is
    the :func:`encode_report` payload for ``done`` (and for
    ``aborted``, where it covers the outcomes observed before the
    cancellation took effect); ``error`` the failure text for
    ``failed``."""
    return {"type": "end", "status": status, "report": report,
            "error": error}
