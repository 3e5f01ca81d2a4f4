"""Fleet service tests: the coordinator/worker daemons end-to-end,
the shared remote cache, the fleet health detail, and the client's
retry/reconnect policy.

Complements ``tests/test_placement.py`` (which proves the placement
layer and the determinism property): here the same machinery runs
through the *service* -- jobs submitted to a coordinator partition
across registered worker daemons, ``/healthz`` exposes per-placement
detail alongside the pre-fleet fields, ``/cache/<key>`` serves one
content-addressed store to the whole fleet, and ``ServiceClient``
survives connection resets on idempotent calls.
"""

import http.client
import json
import threading

import pytest

from repro.flow import run_flow
from repro.ips import case_study
from repro.mutation import ResultCache, run_campaign
from repro.service import (
    CampaignService,
    RemoteResultCache,
    ServiceClient,
    ServiceError,
    ServiceServer,
    decode_report,
)

from service_helpers import hold_jobs_until_watched

REDUCED_CYCLES = 24


@pytest.fixture(scope="module")
def flows():
    built = {}

    def get(ip, sensor):
        key = (ip, sensor)
        if key not in built:
            built[key] = run_flow(case_study(ip), sensor,
                                  run_mutation=False)
        return built[key]

    return get


@pytest.fixture(scope="module")
def dsp_razor_baseline(flows):
    flow = flows("dsp", "razor")
    stim = case_study("dsp").stimulus(REDUCED_CYCLES)
    return run_campaign(
        flow.tlm_optimized, flow.injected, stim,
        ip_name="dsp", sensor_type="razor", workers=1,
    )


def _server(flows=None, *, role="standalone", **kwargs):
    seeded = kwargs.pop("seed", None) or []
    kwargs.setdefault("workers", 1)
    service = CampaignService(
        flows={key: flows(*key) for key in seeded} if flows else None,
        role=role,
        **kwargs,
    )
    return ServiceServer(service)


def _client(server, **kw):
    host, port = server.address
    kw.setdefault("timeout", 60.0)
    kw.setdefault("stream_timeout", 120.0)
    return ServiceClient(host, port, **kw)


def _raw(server, method, path, payload=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None \
            else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator + worker daemons end-to-end
# ----------------------------------------------------------------------

class TestCoordinatorFleet:
    def test_job_partitions_across_registered_workers(
            self, flows, dsp_razor_baseline):
        with _server(flows, role="coordinator",
                     seed=[("dsp", "razor")]) as coordinator, \
                _server(role="worker") as worker_a, \
                _server(role="worker") as worker_b:
            client = _client(coordinator)
            for worker in (worker_a, worker_b):
                detail = client.register_worker(*worker.address)
                assert detail["kind"] == "remote"
                assert detail["alive"] is True
            assert len(client.workers()) == 2
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 1})
            end = client.watch(record["id"])
            assert end["status"] == "done"
            assert decode_report(end["report"]) == dsp_razor_baseline
            received = [
                w.service.worker.describe()["shards_received"]
                for w in (worker_a, worker_b)
            ]
            # The fleet really partitioned the stream: with one mutant
            # per shard and least-loaded dispatch, both daemons worked.
            assert all(count > 0 for count in received), received

    def test_healthz_keeps_old_fields_and_adds_placements(self, flows):
        with _server(flows, role="coordinator") as coordinator, \
                _server(role="worker", workers=1) as worker:
            client = _client(coordinator)
            client.register_worker(*worker.address)
            health = client.health()
            # Pre-fleet fields, untouched (older clients keep working).
            assert health["status"] == "ok"
            assert health["pool"]["workers"] == 1
            assert health["pool"]["max_jobs"] == 4
            assert health["jobs"]["total"] == 0
            assert "flows_cached" in health
            assert "state_dir" in health
            assert "cache" in health
            # The fleet tier on top.
            assert health["role"] == "coordinator"
            kinds = [p["kind"] for p in health["placements"]]
            assert kinds == ["local", "remote"]
            local, remote = health["placements"]
            assert local["identity"].startswith("local/")
            for placement in health["placements"]:
                for field in ("identity", "workers", "alive",
                              "in_flight", "queued", "shards_done"):
                    assert field in placement, (placement, field)
            assert health["fleet"]["members"] == 1
            assert health["fleet"]["workers"] == 2
            assert health["worker"]["identity"]

    def test_registering_unreachable_worker_is_502(self, flows):
        with _server(flows) as coordinator:
            client = _client(coordinator)
            with pytest.raises(ServiceError) as err:
                client.register_worker("127.0.0.1", 9)  # discard port
            assert err.value.status == 502

    def test_malformed_worker_registration_is_400(self, flows):
        with _server(flows) as coordinator:
            status, data = _raw(coordinator, "POST", "/workers",
                                {"host": "127.0.0.1"})
            assert status == 400
            assert "port" in data["error"]

    def test_bogus_shard_payload_is_400(self):
        with _server(role="worker") as worker:
            status, data = _raw(worker, "POST", "/shards",
                                {"kind": "bogus"})
            assert status == 400
            assert "bogus" in data["error"]


# ----------------------------------------------------------------------
# The shared remote cache
# ----------------------------------------------------------------------

class TestRemoteResultCache:
    def test_roundtrip_through_the_cache_routes(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        with _server(cache=store) as server:
            remote = RemoteResultCache(*server.address)
            assert remote.get("0" * 64) is None
            assert remote.misses == 1
            remote.put("0" * 64, {"verdict": "killed", "ip": "dsp"})
            assert remote.get("0" * 64) == {"verdict": "killed",
                                            "ip": "dsp"}
            assert remote.hits == 1
            # The write really landed in the server-side store.
            assert store.get("0" * 64) == {"verdict": "killed",
                                           "ip": "dsp"}
            stats = remote.stats()
            assert stats["backend"] == "remote"
            assert stats["entries"] == 1
            assert stats["client_hits"] == 1
            assert stats["client_misses"] == 1
            assert len(remote) == 1

    def test_transport_failure_degrades_to_miss(self):
        with _server() as server:
            host, port = server.address
        # Daemon gone: gets are misses, puts are dropped, both count.
        remote = RemoteResultCache(host, port, timeout=2.0)
        assert remote.get("f" * 64) is None
        remote.put("f" * 64, {"verdict": "killed"})
        assert remote.errors >= 2
        stats = remote.stats()
        assert stats["backend"] == "remote"
        assert stats["entries"] is None

    def test_prune_is_refused(self):
        remote = RemoteResultCache("127.0.0.1", 9)
        with pytest.raises(RuntimeError, match="prune"):
            remote.prune(max_bytes=1)

    def test_cache_routes_404_without_a_cache(self, flows):
        with _server(flows) as server:
            status, data = _raw(server, "GET", "/cache/" + "a" * 64)
            assert status == 404
            assert "no cache" in data["error"]
            status, _data = _raw(server, "GET", "/cache/stats")
            assert status == 404

    def test_bad_cache_key_is_400(self, tmp_path):
        with _server(cache=ResultCache(tmp_path / "c")) as server:
            status, _data = _raw(server, "GET", "/cache/a/../b")
            assert status == 400


# ----------------------------------------------------------------------
# Client retry / reconnect policy
# ----------------------------------------------------------------------

class _FlakyClient(ServiceClient):
    """A client whose first N requests die with a connection reset;
    sleeps are recorded instead of slept."""

    def __init__(self, *args, fail_first=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_first = fail_first
        self.attempts = 0
        self.slept = []

    def _sleep(self, seconds):
        self.slept.append(seconds)

    def _request(self, method, path, payload=None):
        self.attempts += 1
        if self.attempts <= self.fail_first:
            raise ConnectionResetError("scripted reset")
        return super()._request(method, path, payload)


class TestClientRetries:
    def test_idempotent_get_retries_with_capped_backoff(self, flows):
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, fail_first=3,
                                  retries=4, backoff=0.05,
                                  backoff_cap=0.08)
            health = client.health()
            assert health["status"] == "ok"
            assert client.attempts == 4
            # Exponential, then capped: 0.05, 0.08, 0.08.
            assert client.slept == [0.05, 0.08, 0.08]

    def test_get_gives_up_after_the_retry_budget(self):
        client = _FlakyClient("127.0.0.1", 9, fail_first=99, retries=2)
        with pytest.raises(ConnectionResetError):
            client.health()
        assert client.attempts == 3
        assert len(client.slept) == 2

    def test_submit_retries_behind_idempotency_key(self, flows):
        # PR 7: submit joined the retry policy -- safe because the
        # payload carries a client-generated idempotency key the
        # server dedups on (dedup itself is pinned in
        # tests/test_service.py::TestSubmitIdempotency).
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, fail_first=1, retries=4,
                                  timeout=60.0)
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES})
            assert client.attempts == 2
            assert len(client.slept) == 1
            assert client.watch(record["id"])["status"] == "done"

    def test_service_error_is_never_retried(self, flows):
        with _server(flows) as server:
            host, port = server.address
            client = _FlakyClient(host, port, retries=4)
            with pytest.raises(ServiceError):
                client.job("doesnotexist")
            assert client.attempts == 1

    def test_event_stream_reconnects_without_duplicates(self, flows,
                                                        dsp_razor_baseline):
        """The stream drops after every event; the client reconnects,
        the server replays history, and the dedup yields each event
        exactly once, terminal included."""
        with _server(flows, seed=[("dsp", "razor")]) as server:
            client = _client(server, retries=8)
            client.slept = []
            client._sleep = client.slept.append
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 4})
            # Run the job to completion first so the reference stream
            # is stable (a terminal job replays deterministically).
            reference = [
                e for e in _client(server).events(record["id"])
            ]
            assert reference[-1]["type"] == "end"

            real_stream_once = client._stream_once

            def dropping_stream(job_id, skip, state=None):
                # Yield exactly one event per connection, then die.
                for event in real_stream_once(job_id, skip, state):
                    yield event
                    if event.get("type") != "end":
                        raise ConnectionResetError("scripted drop")

            client._stream_once = dropping_stream
            events = list(client.events(record["id"]))
            assert events[-1]["type"] == "end"
            assert decode_report(events[-1]["report"]) == \
                dsp_razor_baseline

    def test_live_stream_survives_mid_job_drops(self, flows,
                                                dsp_razor_baseline):
        """Reconnect against a *running* job: each connection dies
        after two events; the reassembled stream still carries every
        shard outcome exactly once.  The job starts only once the
        first connection has subscribed."""
        with _server(flows, seed=[("dsp", "razor")]) as server:
            hold_jobs_until_watched(server.service)
            client = _client(server, retries=10)
            client._sleep = lambda seconds: None
            record = client.submit({"ip": "dsp", "sensor": "razor",
                                    "cycles": REDUCED_CYCLES,
                                    "shard_size": 2})

            real_stream_once = client._stream_once

            def dropping_stream(job_id, skip, state=None):
                for position, event in enumerate(
                    real_stream_once(job_id, skip, state)
                ):
                    yield event
                    if event.get("type") != "end" and position >= 1:
                        raise ConnectionResetError("scripted drop")

            client._stream_once = dropping_stream
            events = []
            collector = threading.Thread(
                target=lambda: events.extend(
                    client.events(record["id"])
                )
            )
            collector.start()
            collector.join(timeout=120)
            assert not collector.is_alive()
            assert events[-1]["type"] == "end"
            shard_outcomes = sum(
                len(e["outcomes"]) for e in events
                if e["type"] == "shard"
            )
            assert shard_outcomes == dsp_razor_baseline.total
            assert decode_report(events[-1]["report"]) == \
                dsp_razor_baseline

    def test_stream_gives_up_after_consecutive_dead_connections(self):
        client = ServiceClient("127.0.0.1", 9, retries=2)
        client._sleep = lambda seconds: None
        with pytest.raises(ServiceError, match="without 'end'"):
            list(client.events("whatever"))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestStatusServerCli:
    def test_status_server_renders_fleet_detail(self, flows, capsys):
        from repro.cli import main

        with _server(flows, role="coordinator") as coordinator, \
                _server(role="worker") as worker:
            _client(coordinator).register_worker(*worker.address)
            host, port = coordinator.address
            code = main(["status", "--server",
                         "--host", host, "--port", str(port)])
            out = capsys.readouterr().out
            assert code == 0
            assert "coordinator" in out
            assert "Shard placements" in out
            assert "local/" in out
            assert "remote" in out

    def test_parse_hostport(self):
        from repro.cli import _parse_hostport

        assert _parse_hostport("127.0.0.1:8731") == ("127.0.0.1", 8731)
        with pytest.raises(ValueError):
            _parse_hostport("8731")
        with pytest.raises(ValueError):
            _parse_hostport("host:port")
