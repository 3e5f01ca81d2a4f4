"""Campaign service tests: wire format, concurrency, cancellation,
restart recovery.

The service's acceptance contract (PR 5):

* a report streamed through ``repro serve`` decodes **field-for-field
  equal** to a direct :func:`~repro.mutation.run_campaign` of the same
  campaign -- for every IP x sensor type, under N simultaneous
  streaming clients on one shared scheduler pool;
* ``DELETE /jobs/<id>`` cancels shard-granularly mid-stream: the
  stream ends with an ``aborted`` terminal event carrying the partial
  report, and the pool keeps serving subsequent jobs;
* a restarted server (same ``--state-dir``) still serves every
  finished job's report; jobs interrupted *running* are re-queued and
  resumed warm through the shared result cache (PR 7), failing loudly
  only once the restart budget is exhausted -- never silently
  vanishing.
"""

import json
import threading

import pytest

from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import run_campaign
from repro.service import (
    CampaignService,
    JobRecord,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceServer,
    decode_report,
    encode_report,
)
from repro.service import server as server_module
from repro.service.client import ServiceError

from service_helpers import (
    hold_jobs_until_cancelled,
    hold_jobs_until_watched,
)

#: Shortened testbench shared with tests/test_scheduler.py: equality
#: of the streamed and direct reports is what matters here, not the
#: kill percentages at this length.
REDUCED_CYCLES = 24

ALL_CAMPAIGNS = [
    (ip, sensor)
    for ip in sorted(CASE_STUDIES)
    for sensor in ("razor", "counter")
]


@pytest.fixture(scope="module")
def flows():
    """Memoised ``run_flow(..., run_mutation=False)`` per (ip, sensor),
    shared by the service (seeded flow cache) and the direct
    baselines."""
    built = {}

    def get(ip, sensor):
        key = (ip, sensor)
        if key not in built:
            built[key] = run_flow(case_study(ip), sensor,
                                  run_mutation=False)
        return built[key]

    return get


@pytest.fixture(scope="module")
def baselines(flows):
    """Direct ``run_campaign`` reports for every IP x sensor at the
    reduced testbench length -- the equality reference."""
    reports = {}
    for ip, sensor in ALL_CAMPAIGNS:
        flow = flows(ip, sensor)
        stim = case_study(ip).stimulus(REDUCED_CYCLES)
        reports[(ip, sensor)] = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, workers=1,
        )
    return reports


def _server(flows, *, seed_all=False, **kwargs):
    """A ServiceServer over a fresh CampaignService with the module's
    flow cache pre-seeded (so tests pay flow construction once)."""
    seeded = {
        key: flows(*key) for key in (ALL_CAMPAIGNS if seed_all else [])
    }
    kwargs.setdefault("workers", 1)
    service = CampaignService(flows=seeded, **kwargs)
    return ServiceServer(service)


def _pause_first_job_until_cancelled(monkeypatch, timeout=60.0):
    """Hold the first job to stream, right after its first outcome
    batch, until its ``DELETE`` lands.  A cancel sent on that job's
    first shard event then always arrives mid-stream instead of racing
    the job's end; later jobs stream unpaused."""
    stream = server_module.stream_shard_batches
    paused = threading.Event()

    def paused_stream(placement, prepared, *, abort, **kwargs):
        first = not paused.is_set()
        paused.set()
        for position, item in enumerate(
            stream(placement, prepared, abort=abort, **kwargs)
        ):
            yield item
            if first and position == 0:
                abort._cancel.wait(timeout)

    monkeypatch.setattr(server_module, "stream_shard_batches",
                        paused_stream)


def _client(server, **kw):
    host, port = server.address
    kw.setdefault("timeout", 60.0)
    kw.setdefault("stream_timeout", 120.0)
    return ServiceClient(host, port, **kw)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

class TestJobSpec:
    def test_payload_roundtrip(self):
        spec = JobSpec(ip="dsp", sensor="counter", cycles=32,
                       shard_size=2, recovery=False,
                       stop_on_survivor=True, score_threshold=90.0,
                       min_judged=3)
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_rejects_unknown_sensor(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            JobSpec(ip="dsp", sensor="razr")

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_payload({"ip": "dsp", "sensor": "razor",
                                  "cycels": 9})

    def test_requires_ip_and_sensor(self):
        with pytest.raises(ValueError, match="at least"):
            JobSpec.from_payload({"ip": "dsp"})

    def test_abort_policy_mapping(self):
        assert JobSpec(ip="dsp", sensor="razor").abort_policy() is None
        policy = JobSpec(ip="dsp", sensor="razor",
                         stop_on_survivor=True).abort_policy()
        assert policy.triggered(killed=0, survivors=1, judged=1)


class TestReportWireFormat:
    def test_roundtrip_is_field_for_field_equal(self, baselines):
        for report in baselines.values():
            decoded = decode_report(
                json.loads(json.dumps(encode_report(report)))
            )
            assert decoded == report          # dataclass eq: scored fields
            assert decoded.outcomes == report.outcomes
            assert decoded.cycles_per_run == report.cycles_per_run
            assert decoded.seconds == report.seconds
            assert decoded.killed_pct == report.killed_pct
            assert decoded.corrected_pct == report.corrected_pct
            assert decoded.risen_pct == report.risen_pct


class TestJobStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path / "state")
        record = JobRecord(
            id="abc123", spec=JobSpec(ip="dsp", sensor="razor"),
            status="done", created=5.0, started=6.0, finished=7.0,
            report={"ip_name": "dsp"},
        )
        store.save(record)
        loaded = JobStore(tmp_path / "state").load_all()
        assert [r.to_payload() for r in loaded] == [record.to_payload()]

    def test_corrupt_file_is_skipped(self, tmp_path):
        store = JobStore(tmp_path / "state")
        store.save(JobRecord(id="ok1", created=1.0,
                             spec=JobSpec(ip="dsp", sensor="razor")))
        (tmp_path / "state" / "jobs" / "bad.json").write_text("{torn")
        assert [r.id for r in store.load_all()] == ["ok1"]

    def test_record_with_retired_spec_field_still_loads(self, tmp_path):
        """A record saved while the batched executor's sweep width was
        still a spec field keeps its job, and its report, across a
        restart."""
        store = JobStore(tmp_path / "state")
        record = JobRecord(
            id="old1", spec=JobSpec(ip="dsp", sensor="razor"),
            status="done", created=1.0, report={"ip_name": "dsp"},
        )
        store.save(record)
        path = tmp_path / "state" / "jobs" / "old1.json"
        stored = json.loads(path.read_text())
        stored["spec"]["batch_size"] = 3
        path.write_text(json.dumps(stored))
        loaded = store.load_all()
        assert [r.to_payload() for r in loaded] == [record.to_payload()]

    def test_memory_store_persists_nothing(self):
        store = JobStore(None)
        store.save(JobRecord(id="x", spec=JobSpec(ip="dsp",
                                                  sensor="razor")))
        assert store.load_all() == []


# ----------------------------------------------------------------------
# Round trips and concurrency over HTTP
# ----------------------------------------------------------------------

class TestServiceRoundTrip:
    def test_streamed_report_equals_direct_run(self, flows, baselines):
        with _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "plasma", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            end = client.watch(record["id"])
            assert end["status"] == "done"
            assert decode_report(end["report"]) == \
                baselines[("plasma", "razor")]
            # GET /jobs/<id> serves the identical report.
            assert client.report(record["id"]) == \
                baselines[("plasma", "razor")]

    def test_event_stream_shape(self, flows, baselines):
        # The job starts only once the subscriber has attached, so the
        # stream deterministically carries the complete live history.
        with _server(flows) as server:
            hold_jobs_until_watched(server.service)
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            events = []
            collector = threading.Thread(
                target=lambda: events.extend(client.events(record["id"]))
            )
            collector.start()
            collector.join(timeout=120)
            assert not collector.is_alive()
            kinds = [e["type"] for e in events]
            assert kinds[0] == "status" and kinds[-1] == "end"
            assert all(e["job"] == record["id"] for e in events)
            shard_outcomes = sum(
                len(e["outcomes"]) for e in events if e["type"] == "shard"
            )
            total = baselines[("dsp", "razor")].total
            assert shard_outcomes == total
            dones = [e["done"] for e in events if e["type"] == "progress"]
            assert dones == sorted(dones) and dones[-1] == total

    def test_concurrent_clients_all_ips_both_sensors(self, flows,
                                                     baselines):
        """The acceptance bar: >= 4 simultaneous streaming clients
        (here 6: every IP x sensor type), each receiving a report
        field-for-field equal to the direct run."""
        with _server(flows, seed_all=True, max_jobs=6) as server:
            hold_jobs_until_watched(server.service)
            barrier = threading.Barrier(len(ALL_CAMPAIGNS))
            results = {}
            errors = []

            def one_client(ip, sensor):
                try:
                    client = _client(server)
                    barrier.wait(timeout=30)
                    record = client.submit({
                        "ip": ip, "sensor": sensor,
                        "cycles": REDUCED_CYCLES,
                    })
                    events = []
                    end = client.watch(record["id"], events.append)
                    results[(ip, sensor)] = (end, events)
                except BaseException as exc:   # surfaced below
                    errors.append((ip, sensor, exc))

            threads = [
                threading.Thread(target=one_client, args=key)
                for key in ALL_CAMPAIGNS
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors
            assert set(results) == set(ALL_CAMPAIGNS)
            for key, (end, events) in results.items():
                assert end["status"] == "done"
                assert decode_report(end["report"]) == baselines[key]
            # Every job waited for its watcher, so every stream
            # carries live progress.
            assert all(
                any(e["type"] == "progress" for e in events)
                for _, events in results.values()
            )
            health = _client(server).health()
            assert health["jobs"]["done"] == len(ALL_CAMPAIGNS)

    def test_late_subscriber_gets_the_terminal_event(self, flows,
                                                     baselines):
        with _server(flows) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "counter",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
            # The job is terminal: its retained history has collapsed
            # to the terminal event (the record carries the report),
            # so a fresh stream yields exactly that one line.
            replay = list(client.events(record["id"]))
            assert [e["type"] for e in replay] == ["end"]
            assert decode_report(replay[-1]["report"]) == \
                baselines[("dsp", "counter")]

    def test_multiworker_pool_serves_jobs(self, flows, baselines):
        # workers=2 exercises the real process pool under the service:
        # the scheduler uses a fork+exec start method (forkserver /
        # spawn) because job threads trigger the lazy pool creation.
        with _server(flows, workers=2) as server:
            assert server.service.scheduler.mp_context is not None
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            end = client.watch(record["id"])
            assert end["status"] == "done"
            assert decode_report(end["report"]) == \
                baselines[("dsp", "razor")]

    def test_unknown_ip_is_400(self, flows):
        with _server(flows) as server:
            with pytest.raises(ServiceError) as err:
                _client(server).submit({"ip": "nope", "sensor": "razor"})
            assert err.value.status == 400

    def test_unknown_spec_field_is_400(self, flows):
        with _server(flows) as server:
            with pytest.raises(ServiceError) as err:
                _client(server).submit({"ip": "dsp", "sensor": "razor",
                                        "cycels": 3})
            assert err.value.status == 400

    def test_retired_spec_field_is_400(self, flows):
        with _server(flows) as server:
            with pytest.raises(ServiceError) as err:
                _client(server).submit({"ip": "dsp", "sensor": "razor",
                                        "batch_size": 3})
            assert err.value.status == 400

    def test_unknown_job_is_404(self, flows):
        with _server(flows) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as err:
                client.job("doesnotexist")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                list(client.events("doesnotexist"))
            assert err.value.status == 404

    def test_healthz_reports_pool_queue_and_cache(self, flows, tmp_path):
        from repro.mutation import ResultCache

        cache = ResultCache(tmp_path / "cache")
        with _server(flows, cache=cache) as server:
            client = _client(server)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
            health = client.health()
            assert health["status"] == "ok"
            assert health["pool"]["workers"] == 1
            assert health["jobs"]["total"] == 1
            assert health["jobs"]["done"] == 1
            # /healthz reuses ResultCache.stats(): the job's verdicts
            # and golden trace are accounted under its IP.
            assert health["cache"]["entries"] == len(cache)
            assert "dsp" in health["cache"]["per_ip"]


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------

class TestCancellation:
    def test_mid_stream_delete_aborts_shard_granularly(self, flows,
                                                       monkeypatch):
        # Full-length filter campaign, one mutant per shard: plenty of
        # shard boundaries for the cancellation to land on.
        cycles = case_study("filter").mutation_cycles
        _pause_first_job_until_cancelled(monkeypatch)
        with _server(flows) as server:
            hold_jobs_until_watched(server.service)
            client = _client(server)
            record = client.submit({"ip": "filter", "sensor": "razor",
                                    "cycles": cycles, "shard_size": 1})
            cancelled = threading.Event()

            def on_event(event):
                if event["type"] == "shard" and not cancelled.is_set():
                    cancelled.set()
                    _client(server).cancel(record["id"])

            end = client.watch(record["id"], on_event)
            assert cancelled.is_set()
            assert end["status"] == "aborted"
            partial = decode_report(end["report"])
            total = len(flows("filter", "razor").injected.mutants)
            assert 0 < partial.total < total
            assert client.job(record["id"])["status"] == "aborted"

            # The shared pool is not wedged: the next job completes.
            follow = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.watch(follow["id"])["status"] == "done"

    def test_report_less_abort_summary_does_not_crash(self):
        # A job cancelled before its first shard ends "aborted" with
        # report=None; the CLI summary must degrade gracefully, not
        # TypeError inside decode_report.
        from repro.cli import _print_end_event

        code = _print_end_event(
            {"job": "x1", "status": "aborted", "report": None}
        )
        assert code == 1

    def test_cancel_before_start_aborts_without_running(self, flows):
        # max_jobs=1 and a job in front keeps the victim queued; the
        # blocker is held until its own cancel lands, so the victim is
        # cancelled before its thread picks it up however fast the
        # blocker's campaign would run.
        cycles = case_study("filter").mutation_cycles
        with _server(flows, max_jobs=1) as server:
            hold_jobs_until_cancelled(server.service)
            client = _client(server)
            blocker = client.submit({"ip": "filter", "sensor": "razor",
                                     "cycles": cycles, "shard_size": 1})
            victim = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            client.cancel(victim["id"])
            client.cancel(blocker["id"])
            end = client.watch(victim["id"])
            assert end["status"] == "aborted"
            assert client.watch(blocker["id"])["status"] == "aborted"


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------

class TestRestartRecovery:
    def test_finished_job_survives_restart(self, flows, baselines,
                                           tmp_path):
        state = tmp_path / "state"
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            record = client.submit({"ip": "plasma", "sensor": "counter",
                                    "cycles": REDUCED_CYCLES})
            client.watch(record["id"])
        # Same state dir, fresh process-equivalent server.
        with _server(flows, state_dir=state) as server:
            client = _client(server)
            recovered = client.job(record["id"])
            assert recovered["status"] == "done"
            assert decode_report(recovered["report"]) == \
                baselines[("plasma", "counter")]
            # The event stream of a recovered job replays its
            # terminal event.
            events = list(client.events(record["id"]))
            assert [e["type"] for e in events] == ["end"]
            assert decode_report(events[-1]["report"]) == \
                baselines[("plasma", "counter")]

    def test_job_caught_running_requeues_and_resumes_warm(
            self, flows, baselines, tmp_path):
        """The layer-3 recovery regression (fails pre-PR 7, when a
        crashed-running job was marked failed): a job the previous
        server died on mid-run is re-queued, resumed through the
        content-addressed cache, and finishes with the exact
        fault-free report."""
        from repro.ips import case_study as _case_study
        from repro.mutation import ResultCache

        state = tmp_path / "state"
        cache_dir = tmp_path / "cache"
        # The crashed server got through the whole campaign's shards
        # before dying (worst case for wasted work, best case for
        # observing the warm resume): the verdicts live in the cache.
        flow = flows("dsp", "razor")
        stim = _case_study("dsp").stimulus(REDUCED_CYCLES)
        run_campaign(
            flow.tlm_optimized, flow.injected, stim, ip_name="dsp",
            sensor_type="razor", workers=1,
            cache=ResultCache(cache_dir),
        )
        store = JobStore(state)
        store.save(JobRecord(
            id="deadbeef0000", created=1.0, status="running",
            spec=JobSpec(ip="dsp", sensor="razor",
                         cycles=REDUCED_CYCLES),
        ))
        service = CampaignService(
            flows={("dsp", "razor"): flow}, state_dir=state,
            cache=ResultCache(cache_dir),
        )
        with ServiceServer(service) as server:
            client = _client(server)
            record = client.job("deadbeef0000")
            assert record["status"] in ("queued", "running", "done")
            assert record["restarts"] == 1
            end = client.watch("deadbeef0000")
            assert end["status"] == "done"
            report = decode_report(end["report"])
            assert report == baselines[("dsp", "razor")]
            # Warm resume, not a cold re-run: every verdict replayed.
            assert report.cache_hits == report.total
            assert report.cache_misses == 0

    def test_restart_budget_exhausted_fails_loudly(self, tmp_path):
        state = tmp_path / "state"
        store = JobStore(state)
        store.save(JobRecord(
            id="deadbeef0001", created=1.0, status="running",
            restarts=CampaignService.max_restarts,
            spec=JobSpec(ip="dsp", sensor="razor"),
        ))
        service = CampaignService(state_dir=state)
        try:
            record = service.get("deadbeef0001")
            assert record.status == "failed"
            assert "restart budget" in record.error
            # ... and the failure is persisted, not just in memory.
            reloaded = JobStore(state).load_all()[0]
            assert reloaded.status == "failed"
        finally:
            service.close()


# ----------------------------------------------------------------------
# Idempotent submission
# ----------------------------------------------------------------------

class _LossyResponseClient(ServiceClient):
    """Drops the *response* of the first POST /jobs after the server
    processed it -- the failure mode that makes naive POST retries
    enqueue duplicates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dropped = 0
        self.sleeps = []

    def _sleep(self, seconds):
        self.sleeps.append(seconds)

    def _request(self, method, path, payload=None):
        data = super()._request(method, path, payload)
        if method == "POST" and path == "/jobs" and not self.dropped:
            self.dropped += 1
            raise ConnectionResetError("response lost after processing")
        return data


class TestSubmitIdempotency:
    def test_retried_submit_dedups_on_idempotency_key(self, flows):
        with _server(flows) as server:
            client = _LossyResponseClient(*server.address, timeout=60.0)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.dropped == 1  # the retry actually happened
            assert client.sleeps  # ... through the backoff path
            jobs = client.jobs()
            assert len(jobs) == 1  # deduped, not enqueued twice
            assert jobs[0]["id"] == record["id"]
            assert client.watch(record["id"])["status"] == "done"

    def test_distinct_keys_enqueue_distinct_jobs(self, flows):
        with _server(flows) as server:
            client = _client(server)
            spec = {"ip": "dsp", "sensor": "razor",
                    "cycles": REDUCED_CYCLES}
            first = client.submit(dict(spec))
            second = client.submit(dict(spec))
            assert first["id"] != second["id"]
            assert len(client.jobs()) == 2
            for record in (first, second):
                assert client.watch(record["id"])["status"] == "done"
