"""Observability benchmark: tracing must be free and change nothing.

Two gates over the span tracer / metrics instrumentation
(:mod:`repro.obs`) threaded through the campaign engine:

* **field-identity gate** -- for every case-study IP x sensor type x
  workers {1, 2}, the campaign run with tracing **on** must produce a
  report field-identical (outcome lists included) to the same
  campaign run with tracing **off**.  Obs data is runtime metadata;
  any verdict drift fails the run loudly (exit 1);
* **overhead gate** -- enabling the tracer may not slow the
  single-worker campaign by more than ``MAX_OVERHEAD_PCT``
  (5%).  Both sides take the best of ``--repeat`` runs; the gate
  reads the *minimum* overhead across the IP x sensor grid, so one
  noisy cell cannot fail CI while a real regression -- which slows
  every cell -- still does.

Usage::

    python benchmarks/bench_obs.py [--quick] [--repeat N]
        [--ips plasma,dsp,filter] [--out BENCH_obs.json]

``--quick`` restricts to one timing repetition and a 24-cycle
testbench (the CI smoke configuration); the default takes the best of
``--repeat`` runs at each IP's full testbench length.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.flow import run_flow                              # noqa: E402
from repro.ips import CASE_STUDIES, case_study               # noqa: E402
from repro.mutation.campaign import run_campaign             # noqa: E402
from repro.obs import TRACER                                 # noqa: E402
from repro.reporting import format_table                     # noqa: E402

SENSORS = ("razor", "counter")

#: Acceptance sweep (ISSUE PR 10): every cell must be field-identical
#: traced vs untraced.
WORKER_COUNTS = (1, 2)

#: Overhead gate: tracing may not cost more than this much wall time
#: on the single-worker campaign.
MAX_OVERHEAD_PCT = 5.0

#: --quick testbench length (full identity sweep, tiny campaigns).
QUICK_CYCLES = 24


def _best(fn, repeat):
    best = None
    result = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _traced(fn):
    TRACER.enable()
    try:
        return fn()
    finally:
        TRACER.disable()
        TRACER.clear()


def bench_ip(name, sensor, repeat, cycles):
    spec = case_study(name)
    flow = run_flow(spec, sensor, run_mutation=False)
    stimuli = spec.stimulus(cycles or spec.mutation_cycles)
    total = len(flow.injected.mutants)

    def run(**kw):
        return run_campaign(
            flow.golden_factory(), flow.injected, stimuli,
            ip_name=name, sensor_type=sensor, **kw
        )

    # Field-identity sweep: per worker count, traced vs untraced.
    mismatches = []
    for workers in WORKER_COUNTS:
        off = run(workers=workers)
        on = _traced(lambda w=workers: run(workers=w))
        if not (on == off and on.outcomes == off.outcomes):
            mismatches.append(f"workers={workers}")

    # Overhead: single-worker campaign, best-of-repeat.
    off_s, _ = _best(run, repeat)
    on_s, _ = _best(lambda: _traced(run), repeat)
    overhead_pct = (on_s - off_s) / off_s * 100.0 if off_s else 0.0

    return {
        "ip": spec.title,
        "sensor": sensor,
        "mutants": total,
        "cycles": len(stimuli),
        "untraced_s": off_s,
        "traced_s": on_s,
        "overhead_pct": overhead_pct,
        "identity_cells": len(WORKER_COUNTS),
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one timing repetition, "
                             f"{QUICK_CYCLES}-cycle testbench")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best-of)")
    parser.add_argument("--ips", default=None,
                        help="comma-separated IP subset (default: all)")
    parser.add_argument("--out", default=None,
                        help="write measurements to this JSON file "
                             "(e.g. BENCH_obs.json)")
    args = parser.parse_args(argv)

    ips = args.ips.split(",") if args.ips else sorted(CASE_STUDIES)
    repeat = 1 if args.quick else args.repeat
    cycles = QUICK_CYCLES if args.quick else None

    results = []
    rows = []
    for name in ips:
        for sensor in SENSORS:
            r = bench_ip(name, sensor, repeat, cycles)
            results.append(r)
            rows.append([
                r["ip"], r["sensor"], r["mutants"],
                f"{r['untraced_s']:.4f}",
                f"{r['traced_s']:.4f}",
                f"{r['overhead_pct']:+.2f}%",
                f"{r['identity_cells'] - len(r['mismatches'])}"
                f"/{r['identity_cells']}",
            ])
    print(format_table(
        ["Digital IP", "sensor", "mutants", "untraced (s)",
         "traced (s)", "overhead", "identical cells"],
        rows,
        title="Span tracing overhead and field-identity sweep "
              "(per worker count, traced vs untraced)",
    ))

    mismatches = [
        f"{r['ip']}/{r['sensor']}: {cell}"
        for r in results for cell in r["mismatches"]
    ]
    overheads = [r["overhead_pct"] for r in results]
    min_overhead = min(overheads) if overheads else 0.0
    overhead_ok = min_overhead <= MAX_OVERHEAD_PCT
    if mismatches:
        print("DETERMINISM VIOLATION: traced reports diverged from "
              "untraced runs:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
    if not overhead_ok:
        print(f"OVERHEAD VIOLATION: tracing costs at least "
              f"{min_overhead:.2f}% everywhere "
              f"(budget {MAX_OVERHEAD_PCT}%)", file=sys.stderr)

    if args.out:
        payload = {
            "benchmark": "obs",
            "repeat": repeat,
            "results": results,
            "deterministic": not mismatches,
            "min_overhead_pct": min_overhead,
            "max_overhead_pct": MAX_OVERHEAD_PCT,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")

    return 0 if not mismatches and overhead_ok else 1


if __name__ == "__main__":
    sys.exit(main())
