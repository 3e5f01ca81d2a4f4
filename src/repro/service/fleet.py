"""Coordinator/worker fleet: shard placement over the service wire.

Three pieces turn the single-host campaign service into a fleet while
keeping the campaign engine untouched (it streams against the
:class:`~repro.mutation.ShardPlacement` interface and never learns
where a shard ran):

:class:`WorkerCore`
    the worker-daemon side of ``POST /shards``: decode a wire shard,
    short-circuit mutants whose verdicts the worker's cache already
    holds (when the daemon was booted with a cache -- typically a
    :class:`~repro.service.remote_cache.RemoteResultCache` shared by
    the whole fleet), execute the rest on the daemon's local
    :class:`~repro.mutation.CampaignScheduler`, write fresh verdicts
    back, and return the encoded outcomes.

:class:`RemoteWorkerPlacement`
    the coordinator-side proxy for one worker daemon: ``submit``
    serialises the shard (:func:`~repro.service.api.encode_shard`),
    POSTs it from a small thread pool sized to the worker's capacity,
    and decodes the outcome list.  Transport failures (connection
    reset, refused, timeouts) and 5xx answers (the worker's machinery
    broke, not the shard) surface as
    :class:`~repro.mutation.PlacementLostError` and mark the placement
    dead; 4xx answers (the shard itself was rejected remotely)
    propagate as ordinary exceptions, because re-dispatching a
    poisoned shard elsewhere would only fail again.

:class:`FleetPlacement`
    the coordinator policy: partition a campaign's shard stream across
    every live placement, **least-loaded first** -- which *is* the
    work-stealing policy for ragged campaigns: a worker that finishes
    its shards early has the lowest load and therefore takes ("steals")
    the next shard that a slower worker would otherwise have queued.
    On :class:`~repro.mutation.PlacementLostError` the shard is
    re-dispatched to a surviving placement (each placement is tried at
    most once per shard); when every placement is gone the shard's
    future fails with the same error, so the job fails loudly instead
    of hanging.  With ``cache=``, the fleet consults the shared
    content-addressed cache immediately before each *remote* dispatch
    and strips already-known mutants from the shard -- duplicate
    shards across the fleet never execute twice, and a fully-known
    shard never leaves the coordinator at all.

Determinism: none of this machinery can influence report contents --
outcomes merge by mutant index
(:meth:`~repro.mutation.PreparedCampaign.build_report`), so local
pool, remote fleet, any worker count and any steal order produce
byte-identical reports.  ``tests/test_placement.py`` asserts exactly
that, including mid-campaign worker kill and re-dispatch.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.faults import fault_point
from repro.mutation import (
    PlacementLostError,
    ShardPlacement,
    SupervisedFuture,
)
from repro.mutation.cache import decode_outcome, encode_outcome
from repro.mutation.campaign import ShardResult, _run_shard
from repro.obs import REGISTRY, TRACER

from . import api

__all__ = [
    "FleetPlacement",
    "RemoteWorkerPlacement",
    "WorkerCore",
]


def _probe_shard(cache, shard):
    """Split one shard against a cache: ``(replayed outcomes,
    remainder shard or None, {index -> key})``.  The keys come from
    :func:`~repro.mutation.cache.shard_entry_keys`, i.e. they equal
    the prepare-time keys, so fleet-level and prepare-time dedup speak
    the same addresses."""
    from repro.mutation.cache import shard_entry_keys

    keys = shard_entry_keys(shard)
    replayed = []
    missing = []
    for index in shard.indices:
        payload = cache.get(keys[index])
        if payload is None:
            missing.append(index)
        else:
            replayed.append(decode_outcome(payload, index))
    remainder = (
        dataclasses.replace(shard, indices=tuple(missing))
        if missing else None
    )
    return replayed, remainder, keys


class WorkerCore:
    """Executes wire shards on a worker daemon's local scheduler.

    One instance lives on every :class:`~repro.service.CampaignService`
    (any daemon can serve ``POST /shards``); ``cache`` is the daemon's
    result cache -- mutants it already knows replay without executing,
    fresh verdicts are written back, so workers sharing one
    :class:`~repro.service.remote_cache.RemoteResultCache` warm each
    other across the fleet.
    """

    def __init__(self, scheduler, *, cache=None,
                 identity: "str | None" = None) -> None:
        import uuid

        self.scheduler = scheduler
        self.cache = cache
        self.identity = identity or f"worker-{uuid.uuid4().hex[:8]}"
        self._lock = threading.Lock()
        self.shards_received = 0
        self.shards_failed = 0
        self.in_flight = 0
        self.cache_replays = 0
        #: Released when the owning service closes, so an injected
        #: ``worker.hang`` stall never outlives its daemon (or wedges
        #: an in-process test harness).
        self.hang_release = threading.Event()

    def run_shard_payload(self, payload: dict) -> dict:
        """``POST /shards``: decode, (maybe) replay from cache, run,
        write back, encode.  Runs on an executor thread."""
        shard = api.decode_shard(payload)
        plan = fault_point("worker.hang")
        if plan is not None:
            # Hung-but-alive: the daemon keeps answering /healthz while
            # this shard sits here, which is exactly the failure the
            # coordinator's stall detector exists for.  Bounded so the
            # worker eventually executes the shard (determinism: the
            # outcome is identical either way, just late).
            self.hang_release.wait(plan.hang_seconds)
        with self._lock:
            self.shards_received += 1
            self.in_flight += 1
        try:
            replayed: "list" = []
            keys = None
            if self.cache is not None:
                replayed, shard, keys = _probe_shard(self.cache, shard)
                with self._lock:
                    self.cache_replays += len(replayed)
            fresh = []
            obs = None
            if shard is not None:
                fresh = self.scheduler.submit(shard).result()
                # The shard's obs payload (relative-offset spans and
                # execution counters) rides home on the wire response,
                # stamped with this daemon's identity so the
                # coordinator's trace grows one track per worker.
                obs = getattr(fresh, "obs", None)
                if obs:
                    obs = dict(obs)
                    obs["worker"] = self.identity
                if self.cache is not None and keys is not None:
                    for outcome in fresh:
                        self.cache.put(
                            keys[outcome.index], encode_outcome(outcome)
                        )
            outcomes = sorted(replayed + fresh, key=lambda o: o.index)
            return {
                "worker": self.identity,
                "outcomes": [encode_outcome(o) for o in outcomes],
                "obs": obs,
            }
        except BaseException:
            with self._lock:
                self.shards_failed += 1
            raise
        finally:
            with self._lock:
                self.in_flight -= 1

    def describe(self) -> dict:
        with self._lock:
            return {
                "identity": self.identity,
                "workers": self.scheduler.workers,
                "shards_received": self.shards_received,
                "shards_failed": self.shards_failed,
                "in_flight": self.in_flight,
                "cache_replays": self.cache_replays,
            }


class RemoteWorkerPlacement(ShardPlacement):
    """Shards serialised over HTTP to one ``repro serve --role
    worker`` daemon.

    ``workers`` (the submission window this placement contributes to a
    fleet) defaults to the worker's own advertised pool width, probed
    from its ``/healthz`` at construction -- so a coordinator needs
    only an address, never out-of-band capacity config.  Each window
    slot is a thread in a private pool holding one blocking POST; the
    daemon executes the shard and answers with the outcome list.

    Transport errors and HTTP 5xx answers (the daemon's machinery
    broke, not the shard) raise
    :class:`~repro.mutation.PlacementLostError` and flip :attr:`alive`
    off (the fleet stops dispatching here and re-dispatches the lost
    shard); a later :meth:`ping` can revive the placement if the
    daemon comes back.
    """

    kind = "remote"

    def __init__(self, host: str, port: int, *,
                 workers: "int | None" = None,
                 timeout: float = 600.0,
                 probe_timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.probe_timeout = probe_timeout
        self.identity = f"{host}:{port}"
        self._alive = True
        self._lock = threading.Lock()
        self._in_flight = 0
        self._shards_done = 0
        self._failures = 0
        #: Last successful ``/healthz`` payload (refreshed by every
        #: :meth:`ping`, i.e. each heartbeat) -- the raw material for
        #: :meth:`FleetPlacement.worker_metrics`.
        self.last_health: dict = {}
        if workers is None:
            health = self._healthz()
            workers = int(health.get("pool", {}).get("workers") or 1)
            worker_info = health.get("worker") or {}
            if worker_info.get("identity"):
                self.identity = (
                    f"{worker_info['identity']}@{host}:{port}"
                )
        self.workers = max(1, workers)
        self._http = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix=f"repro-remote-{host}:{port}",
        )
        self._closed = False

    @property
    def alive(self) -> bool:
        return self._alive and not self._closed

    # -- wire plumbing ----------------------------------------------------

    def _healthz(self) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.probe_timeout
        )
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
            if response.status >= 400:
                raise PlacementLostError(
                    f"worker {self.identity} unhealthy: "
                    f"HTTP {response.status}"
                )
            self.last_health = data
            return data
        except (OSError, http.client.HTTPException) as exc:
            raise PlacementLostError(
                f"worker {self.identity} unreachable: {exc}"
            ) from exc
        finally:
            conn.close()

    def ping(self) -> bool:
        """Probe the daemon's ``/healthz``; revives a placement marked
        dead if the daemon answers again."""
        try:
            self._healthz()
        except PlacementLostError:
            self._alive = False
            return False
        self._alive = True
        return True

    def mark_dead(self) -> None:
        """Stop dispatching here until a :meth:`ping` succeeds again
        (the fleet's heartbeat supervisor evicts members this way)."""
        self._alive = False

    def _post_shard(self, shard) -> "list":
        plan = fault_point("net.drop.post_shards")
        if plan is not None:
            # The wire "eats" the POST before it touches the socket:
            # indistinguishable from a connection reset, so it takes
            # the real placement-loss + re-dispatch path.
            self._alive = False
            with self._lock:
                self._failures += 1
            raise PlacementLostError(
                f"worker {self.identity} lost: "
                f"{plan.error('net.drop.post_shards')}"
            )
        payload = api.encode_shard(shard)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(
                "POST", "/shards",
                body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException,
                ValueError) as exc:
            # Reset / refused / truncated mid-response: the daemon (or
            # its network) is gone, not the shard -- placement loss.
            self._alive = False
            with self._lock:
                self._failures += 1
            raise PlacementLostError(
                f"worker {self.identity} lost: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()
        if response.status >= 500:
            # 5xx is the worker's *machinery* failing (broken process
            # pool, OOM-killed child, unhandled daemon error) -- the
            # shard itself is fine and would succeed on a survivor, so
            # treat it like transport loss and let the fleet
            # re-dispatch.
            self._alive = False
            with self._lock:
                self._failures += 1
            raise PlacementLostError(
                f"worker {self.identity} failed shard-side: "
                f"HTTP {response.status}: "
                f"{data.get('error', 'unknown error')}"
            )
        if response.status >= 400:
            # 4xx means the daemon coherently rejected the *shard*
            # (malformed / undecodable) -- it would fail anywhere, so
            # propagate instead of poisoning a survivor.
            with self._lock:
                self._failures += 1
            raise RuntimeError(
                f"worker {self.identity} rejected shard: "
                f"HTTP {response.status}: "
                f"{data.get('error', 'unknown error')}"
            )
        return ShardResult(
            [decode_outcome(o, o["index"]) for o in data["outcomes"]],
            obs=data.get("obs"),
        )

    # -- ShardPlacement ---------------------------------------------------

    def submit(self, shard) -> Future:
        if self._closed:
            raise RuntimeError("placement has been shut down")
        with self._lock:
            self._in_flight += 1
        future = self._http.submit(self._post_shard, shard)

        def _done(f: Future) -> None:
            with self._lock:
                self._in_flight -= 1
                if f.exception() is None:
                    self._shards_done += 1

        future.add_done_callback(_done)
        return future

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._http.shutdown(wait=wait)

    def describe(self) -> dict:
        with self._lock:
            in_flight = self._in_flight
            done = self._shards_done
            failures = self._failures
        return {
            "kind": self.kind,
            "identity": self.identity,
            "address": f"{self.host}:{self.port}",
            "workers": self.workers,
            "alive": self.alive,
            "in_flight": in_flight,
            "queued": max(0, in_flight - self.workers),
            "shards_done": done,
            "failures": failures,
        }


class FleetPlacement(ShardPlacement):
    """Coordinator policy: one placement composed of many.

    Members are remote worker placements (added at boot via ``repro
    serve --worker`` / at runtime via ``POST /workers``); ``local`` is
    an optional local placement that both runs shards the wire cannot
    carry (``remote_ok = False``, e.g. RTL-validation shards) and
    participates in dispatch alongside the remotes.  A fleet with no
    members behaves exactly like its local placement -- which is how
    a standalone ``repro serve`` keeps its historical single-host
    semantics bit-for-bit.

    ``workers`` is the *live* fleet capacity (never below 1, so the
    streaming window keeps draining and a fully-dead fleet fails each
    shard loudly instead of stalling the campaign silently).

    **Heartbeat supervision**: a fleet with members runs a background
    supervisor that pings every member each ``heartbeat_interval``
    seconds.  A member that misses ``heartbeat_misses`` consecutive
    pings -- or (with ``stall_timeout`` set) sits on one dispatched
    shard longer than that -- is **evicted**: marked dead and every
    shard in flight on it immediately re-dispatched to a survivor,
    instead of waiting out the full per-shard HTTP timeout (600 s by
    default).  Eviction is not expulsion: the supervisor keeps pinging
    dead members, and one successful ping revives the placement, so a
    restarted worker rejoins the fleet without re-registering.  The
    straggling original dispatch, if it ever answers, is discarded --
    outcomes merge by mutant index, so a duplicate execution cannot
    change the report.
    """

    kind = "fleet"

    def __init__(self, members=(), *, local=None, cache=None,
                 heartbeat_interval: "float | None" = 5.0,
                 heartbeat_misses: int = 2,
                 stall_timeout: "float | None" = None) -> None:
        self.local = local
        self.cache = cache
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = max(1, heartbeat_misses)
        self.stall_timeout = stall_timeout
        self._members: "list[RemoteWorkerPlacement]" = list(members)
        self._lock = threading.Lock()
        self._closed = False
        self._rotation = 0
        self.redispatches = 0
        self.cache_strip_hits = 0
        self.evictions = 0
        #: Live remote dispatches: ``id(token) -> token`` where a token
        #: binds one in-flight shard to the member executing it, so the
        #: supervisor can re-dispatch a dead member's work early.
        self._in_flight_tokens: "dict[int, dict]" = {}
        self._miss_counts: "dict[int, int]" = {}
        self._hb_stop = threading.Event()
        self._hb_thread: "threading.Thread | None" = None
        if self._members:
            self._ensure_heartbeat()

    # -- membership -------------------------------------------------------

    def add(self, member: RemoteWorkerPlacement) -> None:
        """Register (or replace, by address) one worker placement.
        Takes effect immediately: the streaming window re-reads
        ``workers`` every iteration, so a mid-campaign registration
        widens the in-flight window live."""
        with self._lock:
            for i, existing in enumerate(self._members):
                if (existing.host, existing.port) == (
                    member.host, member.port
                ):
                    old = self._members[i]
                    self._members[i] = member
                    break
            else:
                old = None
                self._members.append(member)
        if old is not None:
            old.shutdown(wait=False)
        self._ensure_heartbeat()

    @property
    def members(self) -> "list[RemoteWorkerPlacement]":
        with self._lock:
            return list(self._members)

    def _candidates(self) -> "list[ShardPlacement]":
        placements: "list[ShardPlacement]" = []
        if self.local is not None and self.local.alive:
            placements.append(self.local)
        placements.extend(m for m in self.members if m.alive)
        return placements

    @property
    def workers(self) -> int:
        return max(
            1, sum(p.workers for p in self._candidates())
        )

    @property
    def alive(self) -> bool:
        return not self._closed and bool(self._candidates())

    # -- dispatch ---------------------------------------------------------

    @staticmethod
    def _load(placement) -> float:
        described = placement.describe()
        return described.get("in_flight", 0) / max(1, placement.workers)

    def _choose(self, exclude) -> ShardPlacement:
        candidates = [
            p for p in self._candidates() if id(p) not in exclude
        ]
        if not candidates:
            raise PlacementLostError(
                "no live placement left for shard (all fleet members "
                "unreachable or already tried)"
            )
        # Least relative load first: an idle worker "steals" the next
        # shard from the queue a busy one would otherwise grow.  Ties
        # rotate -- an inline local pool runs its shard synchronously
        # inside submit() and therefore always reports zero load, so
        # always-take-the-first would starve every remote member.
        # Loads are snapshotted once: in_flight counters move under us
        # from done-callbacks, and re-reading them for the tie filter
        # could leave it empty.
        loads = [(self._load(p), p) for p in candidates]
        best = min(load for load, _ in loads)
        tied = [p for load, p in loads if load == best]
        with self._lock:
            self._rotation += 1
            return tied[self._rotation % len(tied)]

    @staticmethod
    def _resolve(future: Future, outcomes=None, error=None) -> None:
        # The outer future may have been cancelled by the stream's
        # drain loop while the shard was still in flight remotely.
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(outcomes)
        except Exception:
            pass

    def _dispatch(self, shard, outer: Future, tried: set,
                  recovered=()) -> None:
        # ``recovered`` carries the outcomes already replayed from the
        # cache by *previous* attempts at this shard: a re-dispatch
        # runs on the cache-narrowed remainder, so these can never be
        # produced again and must survive every retry.
        member = self._choose(tried)
        tried.add(id(member))
        replayed: "list" = list(recovered)
        if member is not self.local and self.cache is not None:
            # Last-moment dedup against the shared cache: anything
            # another worker (or a previous campaign) already proved
            # never crosses the wire again.
            stripped, shard, _keys = _probe_shard(self.cache, shard)
            if stripped:
                with self._lock:
                    self.cache_strip_hits += len(stripped)
                REGISTRY.inc(
                    "repro_fleet_cache_strip_hits_total",
                    value=len(stripped),
                )
                replayed += stripped
            if shard is None:
                self._resolve(outer, replayed)
                return

        # One token per live attempt.  Exactly one of the straggler
        # done-callback and the supervisor's eviction claims it; the
        # loser becomes a no-op, so an evicted shard is never resolved
        # twice with conflicting results.
        token = {
            "shard": shard, "outer": outer, "tried": tried,
            "replayed": replayed, "member": member,
            "started": time.monotonic(), "claimed": False,
        }
        if member is not self.local:
            with self._lock:
                self._in_flight_tokens[id(token)] = token

        def _claim() -> bool:
            with self._lock:
                if token["claimed"]:
                    return False
                token["claimed"] = True
                self._in_flight_tokens.pop(id(token), None)
                return True

        def _done(inner: Future) -> None:
            if not _claim():
                return  # evicted and already re-dispatched
            error = inner.exception()
            if error is None:
                result = inner.result()
                self._resolve(outer, ShardResult(
                    replayed + result, obs=getattr(result, "obs", None),
                ))
            elif isinstance(error, PlacementLostError):
                with self._lock:
                    self.redispatches += 1
                REGISTRY.inc("repro_fleet_redispatches_total")
                TRACER.instant(
                    "fleet.redispatch",
                    member=getattr(member, "identity", "?"),
                    error=str(error)[:120],
                )
                try:
                    self._dispatch(shard, outer, tried, replayed)
                except PlacementLostError as exhausted:
                    self._resolve(outer, error=exhausted)
            else:
                self._resolve(outer, error=error)

        REGISTRY.inc("repro_fleet_dispatches_total")
        TRACER.instant(
            "fleet.dispatch",
            member=getattr(member, "identity", "?"),
            mutants=len(getattr(shard, "indices", ()) or ()),
        )
        try:
            inner = member.submit(shard)
        except (PlacementLostError, RuntimeError):
            # Lost between _choose and submit (e.g. shut down): try
            # the next candidate synchronously.
            if _claim():
                self._dispatch(shard, outer, tried, replayed)
            return
        inner.add_done_callback(_done)

    # -- heartbeat supervision --------------------------------------------

    def _ensure_heartbeat(self) -> None:
        """Start the supervisor thread once the fleet has members."""
        if self.heartbeat_interval is None:
            return
        with self._lock:
            if self._hb_thread is not None or self._closed:
                return
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-fleet-heartbeat",
                daemon=True,
            )
            self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_interval):
            if self._closed:
                return
            for member in self.members:
                self._check_member(member)

    def _check_member(self, member) -> None:
        key = id(member)
        ping = getattr(member, "ping", None)
        if ping is None:
            # A member with no health probe (scripted/test placements)
            # is supervised for stalls only.
            ok = member.alive
        else:
            try:
                ok = ping()
            except Exception:
                ok = False
        if ok:
            self._miss_counts.pop(key, None)
        else:
            misses = self._miss_counts.get(key, 0) + 1
            self._miss_counts[key] = misses
            if misses >= self.heartbeat_misses:
                self._evict(member, f"missed {misses} heartbeats")
                return
        if self.stall_timeout is not None:
            now = time.monotonic()
            with self._lock:
                stalled = any(
                    t["member"] is member
                    and not t["claimed"]
                    and now - t["started"] > self.stall_timeout
                    for t in self._in_flight_tokens.values()
                )
            if stalled:
                self._evict(
                    member,
                    f"shard in flight > {self.stall_timeout:g}s",
                )

    def _evict(self, member, reason: str) -> None:
        """Mark *member* dead and re-dispatch everything in flight on
        it, without waiting for its HTTP futures to time out.  The
        member stays in the fleet: the heartbeat keeps pinging it, and
        a successful ping revives it (a recovered worker rejoins)."""
        was_alive = member.alive
        mark_dead = getattr(member, "mark_dead", None)
        if mark_dead is not None:
            mark_dead()
        victims = []
        with self._lock:
            for key, token in list(self._in_flight_tokens.items()):
                if token["member"] is member and not token["claimed"]:
                    token["claimed"] = True
                    del self._in_flight_tokens[key]
                    victims.append(token)
            if was_alive or victims:
                self.evictions += 1
            self.redispatches += len(victims)
        if was_alive or victims:
            REGISTRY.inc("repro_fleet_evictions_total")
            TRACER.instant(
                "fleet.evict",
                member=getattr(member, "identity", "?"),
                reason=reason,
                redispatched=len(victims),
            )
        if victims:
            REGISTRY.inc(
                "repro_fleet_redispatches_total", value=len(victims)
            )
        for token in victims:
            try:
                self._dispatch(
                    token["shard"], token["outer"],
                    token["tried"], token["replayed"],
                )
            except PlacementLostError as exhausted:
                self._resolve(token["outer"], error=exhausted)

    def submit(self, shard) -> Future:
        if self._closed:
            raise RuntimeError("fleet has been shut down")
        if not getattr(shard, "remote_ok", False) or \
                getattr(shard, "inline_only", False):
            if self.local is None:
                raise PlacementLostError(
                    "shard cannot travel to remote workers and the "
                    "fleet has no local placement"
                )
            return self.local.submit(shard)
        outer: Future = SupervisedFuture()
        self._dispatch(shard, outer, set())
        return outer

    def shutdown(self, wait: bool = True) -> None:
        """Shut down the *remote* proxies.  The local placement is
        owned by whoever constructed it (the campaign service shuts
        its scheduler down itself)."""
        self._closed = True
        self._hb_stop.set()
        thread = self._hb_thread
        if thread is not None and wait:
            thread.join(timeout=5.0)
        for member in self.members:
            member.shutdown(wait=wait)

    def describe(self) -> "list[dict]":
        """Per-placement detail for ``/healthz`` (local first)."""
        placements = []
        if self.local is not None:
            placements.append(self.local.describe())
        placements.extend(m.describe() for m in self.members)
        return placements

    def stats(self) -> dict:
        workers = self.workers
        with self._lock:
            return {
                "members": len(self._members),
                "workers": workers,
                "redispatches": self.redispatches,
                "cache_strip_hits": self.cache_strip_hits,
                "evictions": self.evictions,
            }

    def worker_metrics(self) -> "list[dict]":
        """Compact per-worker throughput snapshot for ``/healthz`` and
        ``repro top`` / ``repro status --server``: shard rate and cache
        efficiency derived from each member's last health probe (the
        heartbeat supervisor refreshes them every interval).  The local
        placement has no probe; its row carries counters only."""
        rows = []
        if self.local is not None:
            described = self.local.describe()
            rows.append({
                "kind": described.get("kind", "local"),
                "identity": described.get("identity", "local"),
                "alive": bool(described.get("alive", True)),
                "in_flight": described.get("in_flight", 0),
                "shards_done": described.get("shards_done", 0),
                "shards_per_s": None,
                "cache_hit_ratio": None,
            })
        for member in self.members:
            described = member.describe()
            health = getattr(member, "last_health", None) or {}
            uptime = health.get("uptime_s") or 0.0
            worker = health.get("worker") or {}
            received = worker.get("shards_received", 0)
            cache_stats = health.get("cache") or {}
            hits = cache_stats.get("hits", 0)
            misses = cache_stats.get("misses", 0)
            probed = hits + misses
            rows.append({
                "kind": described.get("kind", "remote"),
                "identity": described.get("identity", "?"),
                "alive": bool(described.get("alive", False)),
                "in_flight": described.get("in_flight", 0),
                "shards_done": described.get("shards_done", 0),
                "shards_per_s": (
                    round(received / uptime, 4) if uptime else None
                ),
                "cache_hit_ratio": (
                    round(hits / probed, 4) if probed else None
                ),
            })
        return rows


def run_shard_inline(shard) -> "list":
    """Tiny helper for tests: execute a shard in-process exactly as a
    placement would."""
    return _run_shard(shard)
