"""The ``warm-service`` workload.

A ``repro serve`` process (2 pool workers) with an on-disk result
cache warmed during set-up; two client threads each submit a job and
watch it to its end event, then submit the next (closed loop).  The
jobs are a seeded sequence over the six IP x sensor pairs and three
testbench lengths, with a fixed count per run (``JOBS_PER_SECOND`` x
``--seconds``): the server keeps every job record in memory, so its
RSS and latency drift with the number of jobs served, and a fixed
count keeps that drift the same on both sides of a comparison.  A
fresh server is started per set-up.  For the window, the clients and
the server's threads are pinned to one CPU.

Every verdict replays from the cache, so no model runs: the time goes
to the service layer, HTTP/NDJSON, campaign preparation and cache
reads.  Each streamed report must be field-identical to a cold direct
``run_campaign`` of the same job.

A traced run traces every other job: ``ServiceClient.submit`` /
``watch`` and ``GET /jobs/<id>`` as spans.  After the window it runs a
direct warm ``run_campaign`` per distinct job against the server's
cache and builds the six flows, both with the program's own tracer
(``repro.obs``) enabled.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import subprocess
import sys
import threading
import time

from perfbench.common import (
    PAIRS,
    ROOT,
    campaign_entry,
    clear_compiled_models,
    cpu_self_s,
    derived_seed,
    label,
    median,
    proc_cpu_s,
    proc_hwm_mb,
    program_tracing,
    quantile,
)

CLIENTS = 2
SERVER_WORKERS = 2
#: ``None`` is the IP's registered testbench length.
LENGTHS = (None, 64, 32)
JOBS_PER_SECOND = 80
SETUP_REPEATS = 3
#: Direct warm ``run_campaign`` repeats per distinct job (traced runs).
DIRECT_REPEATS = 3


def distinct_jobs() -> list:
    return [(ip, sensor, cycles) for ip, sensor in PAIRS
            for cycles in LENGTHS]


def job_name(job) -> str:
    ip, sensor, cycles = job
    return f"{label(ip, sensor)}@{cycles or 'full'}"


def job_mix(seed: int, count: int) -> list:
    rng = random.Random(derived_seed(seed, "warm-service"))
    jobs = distinct_jobs()
    return [rng.choice(jobs) for _ in range(count)]


class Server:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, ctx, name: str) -> None:
        from repro.service import ServiceClient

        base = os.path.join(ctx.workdir, name)
        os.makedirs(base)
        self.cache_dir = os.path.join(base, "cache")
        ready = os.path.join(base, "ready")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self._log = open(os.path.join(base, "server.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(SERVER_WORKERS),
             "--cache-dir", self.cache_dir, "--ready-file", ready],
            stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}; see {base}")
            if os.path.exists(ready):
                with open(ready) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    break
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not become ready")
            time.sleep(0.005)
        host, port = text.split()
        self.client = ServiceClient(host, int(port), timeout=60)
        self.pid = self.proc.pid

    def stop(self) -> None:
        """Graceful shutdown (SIGINT), then reap whatever is left of
        the server's process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # The server's pool and forkserver share its process group; wait
        # until none of them is left.
        deadline = time.monotonic() + 10
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.01)
        except ProcessLookupError:
            pass
        self._log.close()


def _pin(pid: int, cpu: int) -> None:
    """Pin every thread of process ``pid`` to ``cpu``; threads and
    processes it starts later inherit the mask."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def _payload(job) -> dict:
    ip, sensor, cycles = job
    return {"ip": ip, "sensor": sensor, "cycles": cycles}


@dataclasses.dataclass
class JobRun:
    """One job as a client saw it; checked after the window."""

    index: int
    job: tuple
    started: float
    finished: float
    traced: bool
    end: "dict | None" = None
    problems: "list[str]" = dataclasses.field(default_factory=list)
    report: object = None

    @property
    def latency(self) -> float:
        return self.finished - self.started


def _drive(server, jobs, spans=None, trace_every: int = 0) -> "list[JobRun]":
    """Run ``jobs`` through ``CLIENTS`` closed-loop client threads and
    return one :class:`JobRun` per job, in job order.  With ``spans``,
    every ``trace_every``-th job of each client is traced.  The clients
    only collect end events; :func:`_check` judges them afterwards, so
    checking adds no work inside the timing."""
    results: "list[JobRun]" = []
    lock = threading.Lock()
    client = server.client

    def worker(offset: int) -> None:
        mine = []
        for n, i in enumerate(range(offset, len(jobs), CLIENTS)):
            run = JobRun(i, jobs[i], time.perf_counter(), 0.0,
                         spans is not None and n % trace_every == 0)
            try:
                if run.traced:
                    with spans.span("job", job=i):
                        with spans.span("service.submit"):
                            record = client.submit(_payload(run.job))
                        with spans.span("service.stream"):
                            run.end = client.watch(record["id"])
                    run.finished = time.perf_counter()
                    with spans.span("service.record", job=i):
                        final = client.job(record["id"])
                    # Server-side phases from the job record's own
                    # timestamps, placed on this timeline from submit.
                    queued = final["started"] - final["created"]
                    ran = final["finished"] - final["started"]
                    spans.add("service.queue_wait", run.started,
                              run.started + queued, worker=True, job=i)
                    spans.add("service.run", run.started + queued,
                              run.started + queued + ran, worker=True,
                              job=i)
                else:
                    record = client.submit(_payload(run.job))
                    run.end = client.watch(record["id"])
                    run.finished = time.perf_counter()
            except Exception as exc:  # a failed job, never a silent stop
                run.finished = run.finished or time.perf_counter()
                run.problems.append(f"{type(exc).__name__}: {exc}")
            mine.append(run)
        with lock:
            results.extend(mine)

    threads = [threading.Thread(target=worker, args=(c,))
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results, key=lambda r: r.index)


def _check(ctx, runs: "list[JobRun]", refs, phase: str) -> None:
    """Each streamed report must be field-identical to the cold direct
    ``run_campaign`` of the same job; record every job as an
    operation."""
    from repro.service import decode_report

    for run in runs:
        if run.end is not None and not run.problems:
            if run.end.get("status") != "done":
                run.problems.append(f"job ended {run.end.get('status')}: "
                                    f"{run.end.get('error')}")
            else:
                run.report = decode_report(run.end["report"])
                if run.report != refs[run.job]:
                    run.problems.append("streamed report differs from the "
                                        "direct run_campaign")
        ctx.result.record_op(
            f"{phase} job {run.index} {job_name(run.job)}", run.problems
        )


def _references(ctx) -> "tuple[dict, dict, dict]":
    """Flows, cold direct ``run_campaign`` reports and their checked
    entries for every distinct job, with the stimuli the server derives
    from the registry."""
    from repro.flow import run_flow
    from repro.ips import case_study
    from repro.mutation import CampaignScheduler, run_campaign

    flows = {(ip, sensor): run_flow(case_study(ip), sensor,
                                    run_mutation=False)
             for ip, sensor in PAIRS}
    refs, entries = {}, {}
    sched = CampaignScheduler(workers=2)
    try:
        for job in distinct_jobs():
            ip, sensor, cycles = job
            spec = case_study(ip)
            flow = flows[(ip, sensor)]
            stimuli = spec.stimulus(cycles or spec.mutation_cycles)
            refs[job] = run_campaign(
                flow.tlm_optimized, flow.injected, stimuli,
                ip_name=ip, sensor_type=sensor, scheduler=sched,
            )
            entries[job] = campaign_entry(refs[job], stimuli)
    finally:
        sched.shutdown()
    return flows, refs, entries


def run(ctx) -> None:
    result = ctx.result
    flows, refs, entries = _references(ctx)
    for job, entry in entries.items():
        with result.operation(f"reference {job_name(job)}") as problems:
            result.check_entry(job_name(job), entry, problems)

    setups = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(ctx, f"server-{repeat}")
            warm = _drive(server, distinct_jobs())
            setups.append(time.perf_counter() - started)
            _check(ctx, warm, refs, f"setup {repeat}")
        result.metric("setup_s", median(setups), "s", len(setups))

        # Spread over two CPUs, the closed loop's cross-CPU wake-ups and
        # the host's CPU steal moved a window's figures by up to 1.7x
        # between runs of one build; on one CPU they stay within ~20%.
        cpu = min(os.sched_getaffinity(0))
        _pin(os.getpid(), cpu)
        _pin(server.pid, cpu)
        jobs = job_mix(ctx.seed, int(JOBS_PER_SECOND * ctx.seconds))
        cpu0 = cpu_self_s() + proc_cpu_s(server.pid)
        started = time.perf_counter()
        window = _drive(server, jobs,
                        spans=ctx.spans if ctx.traced else None,
                        trace_every=2)
        wall = time.perf_counter() - started
        cpu = cpu_self_s() + proc_cpu_s(server.pid) - cpu0
        peak_rss = proc_hwm_mb(server.pid)
    finally:
        if server is not None:
            server.stop()
    _check(ctx, window, refs, "window")

    reports = [r.report for r in window if r.report is not None]
    verdicts = sum(r.total for r in reports)
    ctx.result.record_counts({
        "service.jobs": len(window),
        "cache.hits": sum(r.cache_hits or 0 for r in reports),
        "cache.misses": sum(r.cache_misses or 0 for r in reports),
        "campaign.golden_replayed": sum(
            r.golden_cache_hit is True for r in reports
        ),
    })
    plain = [r.latency for r in window if not r.traced]
    if ctx.traced:
        _per_layer(ctx, window, plain, flows, server.cache_dir, jobs)
        return
    result.metric("verdicts_per_s", verdicts / wall, "1/s", len(window))
    result.metric("cpu_ms_per_verdict", 1e3 * cpu / max(1, verdicts), "ms",
                  len(window))
    result.metric("job_latency_p50_ms", 1e3 * quantile(plain, 0.5), "ms",
                  len(plain))
    result.metric("job_latency_p99_ms", 1e3 * quantile(plain, 0.99), "ms",
                  len(plain))
    result.metric("peak_rss_mb", peak_rss, "MB", 1)
    result.notes.append(
        f"window: {len(window)} jobs, {verdicts} replayed verdicts in "
        f"{wall:.3f} s; set-up s: "
        + ", ".join(f"{s:.3f}" for s in setups)
    )


def _direct_warm(ctx, flows, cache_dir) -> dict:
    """Direct warm ``run_campaign`` of every distinct job against the
    server's (warm) cache: untraced wall time (median of
    ``DIRECT_REPEATS``), then one run with the program's tracer on,
    whose ``campaign.prepare`` and ``cache.get`` spans give the
    per-call figures."""
    from repro.ips import case_study
    from repro.mutation import ResultCache, run_campaign

    spans = ctx.spans
    direct = {}
    for job in distinct_jobs():
        ip, sensor, cycles = job
        spec = case_study(ip)
        flow = flows[(ip, sensor)]
        stimuli = spec.stimulus(cycles or spec.mutation_cycles)
        kwargs = dict(ip_name=ip, sensor_type=sensor, workers=1)
        times = []
        for _ in range(DIRECT_REPEATS):
            started = time.perf_counter()
            run_campaign(flow.tlm_optimized, flow.injected, stimuli,
                         cache=ResultCache(cache_dir), **kwargs)
            times.append(time.perf_counter() - started)
        direct[job] = median(times)
        with program_tracing(spans, inline=True), \
                spans.span("direct.run_campaign"):
            report = run_campaign(flow.tlm_optimized, flow.injected,
                                  stimuli, cache=ResultCache(cache_dir),
                                  **kwargs)
        if report.cache_misses:
            ctx.result.notes.append(f"direct warm {job_name(job)}: "
                                    f"{report.cache_misses} cache misses")
    return direct


def _flow_builds(ctx) -> None:
    """The flow build the server pays once per IP x sensor pair (in
    set-up), traced after the window, and the TLM/RTL speed probe on
    those flows."""
    from perfbench.campaigns import build_flow, level_probes
    from perfbench.layers import publish_levels, report_flow_layers
    from repro.ips import case_study

    clear_compiled_models()
    ctx.levels, ctx.probe_flows = {}, []
    with program_tracing(ctx.spans, inline=True), \
            ctx.spans.span("flow.builds") as root:
        for ip, sensor in PAIRS:
            spec = case_study(ip)
            ctx.probe_flows.append((
                label(ip, sensor),
                build_flow(ctx.spans, spec, sensor, traced=True),
                spec.stimulus(spec.mutation_cycles),
            ))
    level_probes(ctx)
    report_flow_layers(ctx, [root])
    publish_levels(ctx)


def _per_layer(ctx, window, plain, flows, cache_dir, jobs) -> None:
    from perfbench.layers import print_self_times

    result, spans = ctx.result, ctx.spans
    traced = [r.latency for r in window if r.traced]
    for name in ("submit", "stream", "queue_wait", "run"):
        result.metric(f"service.{name}_ms",
                      1e3 * median(spans.durations(f"service.{name}")),
                      "ms", len(traced))
    result.metric("service.jobs", len(window), "count", 1)
    _flow_builds(ctx)

    direct = _direct_warm(ctx, flows, cache_dir)
    base = median([direct[job] for job in jobs])
    latency = median(plain)
    result.metric("service.overhead_frac", 1.0 - base / latency, "ratio",
                  len(plain))
    result.notes.append(
        f"service.overhead_frac bases: direct warm run_campaign p50 "
        f"{1e3 * base:.3f} ms over the job mix, untraced job latency p50 "
        f"{1e3 * latency:.3f} ms"
    )
    for metric, name in (("campaign.prepare_ms", "campaign.prepare"),
                         ("campaign.golden_ms", "campaign.golden")):
        durations = spans.durations(name)
        if durations:
            result.metric(metric, 1e3 * sum(durations) / len(durations),
                          "ms", len(durations))
    gets = spans.durations("cache.get")
    if gets:
        result.metric("cache.get_ms", 1e3 * sum(gets) / len(gets), "ms",
                      len(gets))
    counts = result.counts or {}
    probed = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    for name in ("cache.hits", "campaign.golden_replayed"):
        result.metric(name, counts.get(name, 0), "count", 1)
    result.metric("cache.hit_ratio",
                  counts.get("cache.hits", 0) / probed if probed else 0.0,
                  "ratio", probed)

    overhead = 100.0 * (median(traced) / latency - 1.0)
    result.metric("obs.traced_overhead_pct", overhead, "%", len(window))
    roots = [s["id"] for s in spans.spans if s["name"] == "job"]
    print_self_times(ctx, roots, untraced_walls=plain,
                     traced_walls=traced, overhead_pct=overhead, unit="job")
