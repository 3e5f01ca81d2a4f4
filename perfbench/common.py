"""Machinery shared by the benchmark workloads.

* inputs from ``--seed`` (:func:`stimuli_for`, :func:`derived_seed`);
* benchmark-side spans (:class:`SpanRecorder`) and the program's own
  obs spans (:func:`program_tracing`);
* resource accounting of this process, its reaped children and a
  server process read through ``/proc``;
* output checks: verdict digests, Table-5 percentages and the
  committed expected outputs (``expected.json``);
* :class:`Result`, which prints the human-readable tables and the
  final one-line JSON result.

Everything that touches the program under test goes through its public
functions; nothing here changes how the program runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import resource
import sys
import threading
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Every campaign a workload covers: all three case studies x both
#: sensor types, in the registry's table order.
PAIRS = tuple(
    (ip, sensor)
    for ip in ("plasma", "dsp", "filter")
    for sensor in ("razor", "counter")
)

#: ``--seed 0`` feeds the testbench generators their registry defaults,
#: so its verdicts are exactly those of ``repro flow``.  It and the
#: held-out seed 1 have committed expected outputs.
DEFAULT_SEED = 0


def label(ip: str, sensor: str) -> str:
    return f"{ip}-{sensor}"


# -- inputs ---------------------------------------------------------------

def derived_seed(seed: int, name: str) -> int:
    """A per-input generator seed derived from the run seed."""
    return zlib.crc32(f"{name}:{seed}".encode()) & 0x7FFFFFFF or 1


def stimuli_for(spec, seed: int, cycles: "int | None" = None):
    """The testbench of ``spec`` at its registered length (or
    ``cycles``), generated from the run seed.  The design and its
    Counter calibration stay registry-default; only the stimuli the
    campaign and the RTL validation consume change with the seed."""
    n = cycles or spec.mutation_cycles
    if seed == DEFAULT_SEED:
        return spec.stimulus(n)
    return spec.stimulus(n, seed=derived_seed(seed, spec.name))


def clear_compiled_models() -> None:
    """Drop the process-wide compiled generated-model classes, so the
    next campaign compiles its model cold -- as every ``repro flow`` or
    ``repro mutate`` invocation (a fresh process) does.  Fails loudly if
    the memo moved: a pass that silently reused compiled classes would
    read as a gain."""
    from repro.abstraction import codegen

    memo = getattr(codegen, "_COMPILED_CLASSES", None)
    if not isinstance(memo, dict):
        raise RuntimeError(
            "repro.abstraction.codegen._COMPILED_CLASSES is gone; "
            "update perfbench so every pass still compiles cold"
        )
    memo.clear()


# -- statistics -----------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


# -- resources ------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_self_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cpu_children_s() -> float:
    """CPU of every child this process has reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def maxrss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def maxrss_children_mb() -> float:
    """Peak RSS of the largest child this process has reaped so far
    (a pool worker), in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process, its reaped children
    included (``/proc/<pid>/stat`` fields 14-17)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return sum(int(f) for f in fields[11:15]) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- spans ----------------------------------------------------------------

#: Clock slack when nesting program spans under benchmark spans.
NEST_SLACK_S = 2e-5


class SpanRecorder:
    """Benchmark-side spans: name, start, end, parent, attributes.

    Kept in memory and written out when the run ends
    (:meth:`write`).  Spans opened on one thread nest by a
    thread-local stack; spans measured elsewhere (a worker process, the
    program's own tracer) are attached with :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the block as one span; yields the span id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(sid, name, start, end, parent, attrs)

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None, **attrs) -> int:
        sid = next(self._ids)
        self._append(sid, name, start, end, parent, attrs)
        return sid

    def _append(self, sid, name, start, end, parent, attrs) -> None:
        with self._lock:
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, **attrs,
            })

    def nest(self, ids) -> None:
        """Give each span of ``ids`` that runs on the caller's path the
        innermost caller-path span containing it as parent (program
        spans arrive without one)."""
        ids = set(ids)
        with self._lock:
            todo = [s for s in self.spans if s["id"] in ids
                    and not s.get("worker")]
            if not todo:
                return
            lo = min(s["start"] for s in todo) - NEST_SLACK_S
            hi = max(s["end"] for s in todo) + NEST_SLACK_S
            path = sorted(
                (s for s in self.spans
                 if not s.get("worker") and s["end"] >= lo
                 and s["start"] <= hi),
                key=lambda s: (s["start"], s["start"] - s["end"]),
            )
        stack: "list[dict]" = []
        for s in path:
            while stack and stack[-1]["end"] + NEST_SLACK_S < s["end"]:
                stack.pop()
            if s["id"] in ids and stack:
                s["parent"] = stack[-1]["id"]
            stack.append(s)

    def durations(self, name: str, **match) -> "list[float]":
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name
            and all(s.get(k) == v for k, v in match.items())
        ]

    def _children(self) -> "dict[int, list]":
        children: "dict[int, list]" = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        return children

    def _trees(self, root_ids) -> "list[dict]":
        children = self._children()
        roots = set(root_ids)
        out = [s for s in self.spans if s["id"] in roots]
        todo = list(out)
        while todo:
            kids = children.get(todo.pop()["id"], ())
            out.extend(kids)
            todo.extend(kids)
        return out

    def subtree(self, root_id: int) -> "list[dict]":
        """The span ``root_id`` and every span nested under it."""
        return self._trees([root_id])

    def self_times(self, root_ids) -> "dict[str, list]":
        """Per span name over the trees under ``root_ids``: ``[self
        seconds, span count]`` -- a span's duration minus the part its
        children cover."""
        children = self._children()
        out: "dict[str, list]" = {}
        for s in self._trees(root_ids):
            covered = sum(c["end"] - c["start"]
                          for c in children.get(s["id"], ()))
            entry = out.setdefault(s["name"], [0.0, 0])
            entry[0] += (s["end"] - s["start"]) - covered
            entry[1] += 1
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                row = dict(s, start=s["start"] - base,
                           end=s["end"] - base)
                handle.write(json.dumps(row, sort_keys=True) + "\n")


_SPAN_FIELDS = ("id", "name", "start", "end", "parent", "worker",
                "program")


@contextlib.contextmanager
def program_tracing(spans: SpanRecorder, *, enabled: bool = True,
                    inline: bool = False):
    """Enable the program's own tracer (:data:`repro.obs.TRACER`) for
    the block, then move every complete span it recorded into
    ``spans``.

    Each program span is placed on the benchmark's clock and hung
    under the innermost span that contains it, so program spans and
    benchmark spans form one tree.  Spans the program absorbed from
    shard workers (its per-worker tracks) ran off the caller's path
    and are marked ``worker``; with ``inline`` (every shard ran inline
    in this process) they nest on the caller's path like the rest."""
    if not enabled:
        yield
        return
    from repro.obs import TRACER

    TRACER.enable()
    # The tracer stamps its epoch inside enable(); this clock read
    # trails it by about a microsecond, well inside NEST_SLACK_S.
    epoch = time.perf_counter()
    try:
        yield
    finally:
        TRACER.disable()
        events = TRACER.chrome_trace()["traceEvents"]
        TRACER.clear()
        me = os.getpid()
        imported = []
        for e in events:
            if e["ph"] != "X":
                continue
            start = epoch + e["ts"] / 1e6
            on_path = inline or e["pid"] == me
            attrs = {k: v for k, v in (e.get("args") or {}).items()
                     if k not in _SPAN_FIELDS}
            imported.append(spans.add(
                e["name"], start, start + e["dur"] / 1e6,
                program=True, worker=not on_path, **attrs,
            ))
        spans.nest(imported)


# -- output checks --------------------------------------------------------

def _rows(outcomes) -> list:
    return [dataclasses.asdict(o) for o in outcomes]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def campaign_entry(report, stimuli) -> dict:
    """What the benchmark checks of one TLM campaign: a digest of its
    generated inputs and of every per-mutant verdict, plus the paper's
    Table-5 percentages."""
    corrected = report.corrected_pct
    return {
        "inputs": digest(stimuli),
        "cycles": report.cycles_per_run,
        "mutants": report.total,
        "verdicts": digest(_rows(report.outcomes)),
        "table5": {
            "killed": round(report.killed_pct, 6),
            "detected": round(report.detected_pct, 6),
            "risen": round(report.risen_pct, 6),
            "corrected": None if corrected is None else round(corrected, 6),
        },
    }


def rtl_entry(report) -> dict:
    return {
        "mutants": report.total,
        "verdicts": digest(_rows(report.outcomes)),
        "risen": round(report.risen_pct, 6),
    }


def agreement_errors(tlm, rtl, sensor: str) -> "list[str]":
    """Per-mutant TLM/RTL disagreements: ``error_risen`` always,
    ``meas_val`` for Counter."""
    if len(tlm.outcomes) != len(rtl.outcomes):
        return [f"{len(tlm.outcomes)} TLM vs {len(rtl.outcomes)} RTL "
                "verdicts"]
    errors = []
    for t, r in zip(tlm.outcomes, rtl.outcomes):
        if t.error_risen != r.error_risen:
            errors.append(f"mutant {t.index}: error_risen TLM "
                          f"{t.error_risen} RTL {r.error_risen}")
        if sensor == "counter" and t.meas_val != r.meas_val:
            errors.append(f"mutant {t.index}: meas_val TLM "
                          f"{t.meas_val} RTL {r.meas_val}")
    return errors


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_expected(workload: str, seed: int, entries: dict) -> None:
    data = load_expected()
    data.setdefault(workload, {})[str(seed)] = entries
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- the result -----------------------------------------------------------

class Result:
    """Metrics, exact work counts and operation checks of one run.

    An *operation* (a campaign, a campaign plus its RTL validation, or
    a service job) is attempted inside :meth:`operation`; an exception,
    a failed check or a mismatch against the committed or first-pass
    outputs marks it failed and the run goes on.
    """

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: "dict[str, tuple]" = {}
        self.counts: "dict[str, int] | None" = None
        self.count_mismatches: "list[str]" = []
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.notes: "list[str]" = []
        self.entries: "dict[str, dict]" = {}
        expected = load_expected().get(workload, {})
        self.expected = expected.get(str(seed))

    @contextlib.contextmanager
    def operation(self, name: str):
        """Count one attempted operation; yields a list that collects
        check failures.  An exception or any collected failure fails
        the operation."""
        problems: "list[str]" = []
        try:
            yield problems
        except Exception:
            problems.append(traceback.format_exc(limit=4).strip())
        self.record_op(name, problems)

    def record_op(self, name: str, problems: "list[str]") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems[:3]))

    def check_entry(self, name: str, entry: dict,
                    problems: "list[str]") -> None:
        """Compare one operation's output entry with the first pass of
        this run and with the committed expected outputs."""
        first = self.entries.setdefault(name, entry)
        if first != entry:
            problems.append("outputs differ from the first pass")
        if self.expected is not None:
            want = self.expected.get(name)
            if want is None:
                problems.append("no committed expected output")
            elif want != entry:
                problems.append(f"outputs differ from expected.json "
                                f"(got {entry}, want {want})")

    def record_counts(self, counts: "dict[str, int]") -> None:
        """Exact work counts of one pass; every pass must repeat them."""
        if self.counts is None:
            self.counts = dict(counts)
        elif counts != self.counts:
            self.count_mismatches.append(
                f"pass counts {counts} != first pass {self.counts}"
            )

    def metric(self, name: str, value: float, unit: str,
               samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def emit(self, declared: "list[dict]", known: "set[str]",
             stamp: str) -> bool:
        """Print ``declared`` (the metrics of this run's mode), then the
        one-line JSON result; returns ``correct``.  ``known`` is every
        metric name of BENCHMARK.json."""
        for name in self.metrics:
            if name not in known:
                raise RuntimeError(f"metric {name!r} is not declared "
                                   "in BENCHMARK.json")
        out = {}
        print(f"perfbench {self.workload}  seed={self.seed}  "
              f"trace={int(self.traced)}  ({stamp})")
        print("metrics" + (" (per layer)" if self.traced
                           else " (end to end)"))
        for m in declared:
            name, unit = m["name"], m["unit"]
            if name in self.metrics:
                value, got_unit, samples = self.metrics[name]
                if got_unit != unit:
                    raise RuntimeError(f"{name}: unit {got_unit!r}, "
                                       f"declared {unit!r}")
                note = f"n={samples}"
            elif self.traced:
                # A layer this workload never calls did no work here.
                value, note = 0.0, "not exercised by this workload"
            else:
                raise RuntimeError(f"end-to-end metric {name!r} missing")
            out[name] = {"value": value, "unit": unit}
            print(f"  {name:<34} {value:>14.6g} {unit:<7} {note}")
        if self.counts is not None:
            print("exact work counts (per pass, or per run for warm-service; "
                  "must repeat exactly)")
            for name, value in sorted(self.counts.items()):
                print(f"  {name:<34} {value:>14d}")
        for line in self.notes:
            print(line)
        for problem in self.count_mismatches:
            self.failures.append(f"work counts: {problem}")
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"checks: {self.attempted} operations, {self.failed} failed, "
              f"error_rate {error_rate:.4f} ratio; expected outputs: "
              + ("committed for this seed" if self.expected is not None
                 else "none committed for this seed (self-consistency "
                      "and cross-checks only)"))
        for failure in self.failures:
            print(f"  FAILED {failure}")
        correct = (self.attempted > 0 and self.failed == 0
                   and not self.count_mismatches)
        sys.stdout.flush()
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": out,
        }), flush=True)
        return correct
