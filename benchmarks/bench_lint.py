"""Static-analysis benchmark: lint overhead and pruning payoff.

Measures, per case-study IP:

* **lint wall time** -- one :func:`repro.lint.lint_module` pass over
  the original and the augmented design (the cost `run_flow` pays
  before every campaign);
* **prune fraction** -- the share of the ``MUTANTS`` table the static
  analyzer (:func:`repro.lint.plan_pruning`) removes from the
  executable set (equivalents + duplicates);
* **campaign speedup** -- wall time of the mutation campaign with
  pruning off (an empty ``PrunePlan``: every mutant executes) vs on
  (plan preparation included in the pruned time: the payoff must
  survive its own overhead).

Every pruned campaign is checked **field-identical** to its unpruned
twin (outcome lists included) -- the determinism gate; any drift
fails the run loudly (exit 1), so the benchmark doubles as a CI
check.  ``--out FILE`` writes the measurements as JSON
(``BENCH_lint.json`` in CI).

Usage::

    python benchmarks/bench_lint.py [--quick] [--repeat N]
        [--ips plasma,dsp,filter] [--out BENCH_lint.json]

``--quick`` restricts to one timing repetition (the CI smoke
configuration); the default takes the best of ``--repeat`` runs.
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
from repro.lint import PrunePlan, lint_module, plan_pruning  # noqa: E402
from repro.mutation.campaign import run_campaign             # noqa: E402
from repro.reporting import format_table                     # noqa: E402

SENSORS = ("razor", "counter")


def _best(fn, repeat):
    best = None
    result = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_ip(name, sensor, repeat):
    spec = case_study(name)
    flow = run_flow(spec, sensor, run_mutation=False)
    module = flow.augmented.module
    stimuli = spec.stimulus(spec.mutation_cycles)
    total = len(flow.injected.mutants)

    original, _clk = spec.factory()
    lint_original_s, _ = _best(lambda: lint_module(original), repeat)
    lint_augmented_s, _ = _best(lambda: lint_module(module), repeat)

    plan_s, plan = _best(
        lambda: plan_pruning(flow.injected, sensor, module=module), repeat
    )

    def run(**kw):
        return run_campaign(
            flow.golden_factory(), flow.injected, stimuli,
            ip_name=name, sensor_type=sensor, **kw
        )

    off_s, off = _best(lambda: run(prune_plan=PrunePlan(total=total)),
                       repeat)

    def run_pruned():
        # The plan is part of the pruned path's cost: re-derive it.
        p = plan_pruning(flow.injected, sensor, module=module)
        return run(prune_plan=p)

    on_s, on = _best(run_pruned, repeat)

    identical = (on == off and on.outcomes == off.outcomes)
    return {
        "ip": spec.title,
        "sensor": sensor,
        "mutants": total,
        "cycles": len(stimuli),
        "lint_original_s": lint_original_s,
        "lint_augmented_s": lint_augmented_s,
        "plan_s": plan_s,
        "pruned_equivalent": on.pruned_equivalent,
        "pruned_duplicate": on.pruned_duplicate,
        "pruned_fraction": plan.prunable / total if total else 0.0,
        "campaign_off_s": off_s,
        "campaign_on_s": on_s,
        "speedup": off_s / on_s if on_s else 0.0,
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one timing repetition")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best-of)")
    parser.add_argument("--ips", default=None,
                        help="comma-separated IP subset (default: all)")
    parser.add_argument("--out", default=None,
                        help="write measurements to this JSON file "
                             "(e.g. BENCH_lint.json)")
    args = parser.parse_args(argv)

    ips = args.ips.split(",") if args.ips else sorted(CASE_STUDIES)
    repeat = 1 if args.quick else args.repeat

    results = []
    rows = []
    for name in ips:
        for sensor in SENSORS:
            r = bench_ip(name, sensor, repeat)
            results.append(r)
            rows.append([
                r["ip"], r["sensor"], r["mutants"],
                f"{1000 * r['lint_augmented_s']:.2f}",
                f"{1000 * r['plan_s']:.2f}",
                f"{100 * r['pruned_fraction']:.1f}%",
                f"{1000 * r['campaign_off_s']:.1f}",
                f"{1000 * r['campaign_on_s']:.1f}",
                f"{r['speedup']:.2f}x",
                "yes" if r["identical"] else "NO",
            ])
    print(format_table(
        ["Digital IP", "sensor", "mutants", "lint (ms)", "plan (ms)",
         "pruned", "campaign off (ms)", "campaign on (ms)", "speedup",
         "identical"],
        rows,
        title="Static analysis: lint cost and pruning payoff "
              "(pruned campaigns must stay field-identical)",
    ))

    deterministic = all(r["identical"] for r in results)
    counter_third = all(
        r["pruned_equivalent"] == r["mutants"] // 3
        for r in results if r["sensor"] == "counter"
    )
    if not deterministic:
        print("DETERMINISM VIOLATION: pruned report diverged from the "
              "unpruned run", file=sys.stderr)
    if not counter_third:
        print("PRUNE-SHAPE VIOLATION: counter campaigns must prune "
              "exactly one third (hf-first-tick)", file=sys.stderr)

    if args.out:
        payload = {
            "benchmark": "lint",
            "repeat": repeat,
            "results": results,
            "deterministic": deterministic,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")

    return 0 if deterministic and counter_third else 1


if __name__ == "__main__":
    sys.exit(main())
