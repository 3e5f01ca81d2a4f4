"""Job model of the campaign service: specs, records, persistence.

A **job** is one mutation campaign as a first-class, queueable work
order (cf. the configuration-coverage methodology in PAPERS.md:
verification work is described declaratively, then scheduled): the
:class:`JobSpec` names the IP and sensor type plus every judgement
parameter the campaign engine accepts, the :class:`JobRecord` tracks
its lifecycle, and the :class:`JobStore` persists records as one JSON
file per job -- typically next to the
:class:`~repro.mutation.ResultCache` directory -- so a restarted
server still serves every finished report.

Lifecycle::

    queued --> running --> done      (campaign completed)
                       \\-> aborted   (DELETE /jobs/<id>, shard-granular)
                       \\-> failed    (exception, or restart budget
                                      exhausted)

A job caught *running* by a server restart is **re-queued** (its
``restarts`` counter incremented) and resumed warm through the shared
result cache, up to :attr:`repro.service.CampaignService.max_restarts`
times -- only then does it fail, loudly, naming the crash loop.

Records are mutated only on the service's event-loop thread (see
:mod:`repro.service.server`); the store itself is lock-guarded so the
blocking ``save`` calls are safe wherever they land.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import uuid
from dataclasses import dataclass, field

__all__ = ["JOB_STATUSES", "JobRecord", "JobSpec", "JobStore", "new_job_id"]

#: Every state a job can be in; the last three are terminal.
JOB_STATUSES = ("queued", "running", "done", "aborted", "failed")

_TERMINAL = ("done", "aborted", "failed")

_SENSOR_TYPES = ("razor", "counter")


def new_job_id() -> str:
    """A fresh opaque job id (uuid4-derived, URL-safe)."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class JobSpec:
    """One campaign work order: everything
    :func:`repro.mutation.run_campaign` needs, minus the artefacts the
    server derives itself (flow build, stimuli, scheduler, cache).

    ``cycles`` ``None`` means the IP's registered testbench length;
    ``stop_on_survivor`` / ``score_threshold`` / ``min_judged`` map
    onto an :class:`~repro.mutation.AbortPolicy` evaluated while the
    job streams.
    """

    ip: str
    sensor: str
    cycles: "int | None" = None
    shard_size: "int | None" = None
    recovery: bool = True
    stop_on_survivor: bool = False
    score_threshold: "float | None" = None
    min_judged: int = 1

    def __post_init__(self) -> None:
        if self.sensor not in _SENSOR_TYPES:
            raise ValueError(
                f"unknown sensor type {self.sensor!r} "
                f"(choose from {', '.join(_SENSOR_TYPES)})"
            )
        if self.cycles is not None and self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")

    def abort_policy(self):
        """The :class:`~repro.mutation.AbortPolicy` this spec asks
        for, or ``None`` when the campaign should always run to
        completion."""
        from repro.mutation import AbortPolicy

        if not self.stop_on_survivor and self.score_threshold is None:
            return None
        return AbortPolicy(
            stop_on_survivor=self.stop_on_survivor,
            score_threshold=self.score_threshold,
            min_judged=self.min_judged,
        )

    def to_payload(self) -> dict:
        return {
            "ip": self.ip,
            "sensor": self.sensor,
            "cycles": self.cycles,
            "shard_size": self.shard_size,
            "recovery": self.recovery,
            "stop_on_survivor": self.stop_on_survivor,
            "score_threshold": self.score_threshold,
            "min_judged": self.min_judged,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Build a spec from a wire/stored payload, rejecting unknown
        fields (a typo'd parameter must 400, not silently fall back to
        a default)."""
        known = {
            "ip", "sensor", "cycles", "shard_size", "recovery",
            "stop_on_survivor", "score_threshold", "min_judged",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}"
            )
        if "ip" not in payload or "sensor" not in payload:
            raise ValueError("job spec needs at least 'ip' and 'sensor'")
        return cls(**payload)


@dataclass
class JobRecord:
    """One job's full lifecycle state.

    ``report`` holds the *encoded* report payload (see
    :func:`repro.service.api.encode_report`) rather than a live
    :class:`~repro.mutation.MutationReport`: the record is exactly
    what ``GET /jobs/<id>`` returns and what the store persists, so
    server, disk and wire can never disagree.

    ``events`` is the in-memory NDJSON event history replayed to late
    ``GET /jobs/<id>/events`` subscribers.  It is *not* persisted, and
    once a job is terminal it collapses to the terminal event alone
    (live subscribers saw the full stream; the record carries the
    report) -- which is also exactly the post-restart shape,
    regenerated from the stored report.
    """

    id: str
    spec: JobSpec
    status: str = "queued"
    created: float = 0.0
    started: "float | None" = None
    finished: "float | None" = None
    error: "str | None" = None
    report: "dict | None" = None
    #: Times a server restart caught this job ``running`` and
    #: re-queued it (bounded by the service's ``max_restarts``).
    restarts: int = 0
    #: Client-generated dedup token: a retried ``POST /jobs`` carrying
    #: the same key returns this record instead of a duplicate job.
    idempotency_key: "str | None" = None
    events: "list[dict]" = field(default_factory=list, repr=False,
                                 compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_payload(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.to_payload(),
            "status": self.status,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "report": self.report,
            "restarts": self.restarts,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobRecord":
        """Rebuild a stored record.  Older releases stored the removed
        batched executor's sweep width in the spec; it is dropped here
        so a restart keeps the job (a new ``POST /jobs`` carrying it
        still gets a 400)."""
        spec = dict(payload["spec"])
        spec.pop("batch_size", None)
        return cls(
            id=payload["id"],
            spec=JobSpec.from_payload(spec),
            status=payload["status"],
            created=payload.get("created", 0.0),
            started=payload.get("started"),
            finished=payload.get("finished"),
            error=payload.get("error"),
            report=payload.get("report"),
            restarts=payload.get("restarts", 0),
            idempotency_key=payload.get("idempotency_key"),
        )


class JobStore:
    """One-JSON-file-per-job persistence (or pure memory).

    Args:
        root: directory for the job files (created lazily; one
            ``<root>/jobs/<id>.json`` per record, atomic writes like
            the result cache's object store).  ``None`` keeps records
            in memory only -- the server then recovers nothing across
            restarts, which is fine for tests and throwaway runs.
    """

    def __init__(self, root: "str | os.PathLike | None" = None) -> None:
        self.root = os.fspath(root) if root is not None else None
        self._lock = threading.Lock()

    def _dir(self) -> str:
        assert self.root is not None
        return os.path.join(self.root, "jobs")

    def _path(self, job_id: str) -> str:
        return os.path.join(self._dir(), job_id + ".json")

    def save(self, record: JobRecord) -> None:
        """Persist one record (atomic replace; no-op in memory mode --
        the service keeps the live records itself)."""
        if self.root is None:
            return
        payload = record.to_payload()
        with self._lock:
            os.makedirs(self._dir(), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self._dir(), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp, self._path(record.id))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def load_all(self) -> "list[JobRecord]":
        """Every persisted record, oldest submission first (empty in
        memory mode).  Corrupt files are skipped -- a torn write must
        not take the whole service down."""
        if self.root is None or not os.path.isdir(self._dir()):
            return []
        records = []
        for name in os.listdir(self._dir()):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._dir(), name)) as handle:
                    records.append(JobRecord.from_payload(json.load(handle)))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        records.sort(key=lambda r: (r.created, r.id))
        return records
