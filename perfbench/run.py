"""Run one workload of the repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {tlm-cold,crosslevel,warm-service}
        --seed N --seconds S --trace {0,1} [--record-expected]

Prints human-readable tables, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` from an untraced
run; ``--trace 1`` reports the per-layer metrics from a traced run and
writes its spans to ``.perfbench_out/<workload>-seed<N>-spans.jsonl``.

The program is imported from ``src/`` of the same checkout.  Scratch
files go to ``.perfbench_work/`` there and are removed at exit.
``--record-expected`` stores this run's outputs as the committed
expected outputs for its seed (``perfbench/expected.json``).

Workloads (details in ``perfbench/WORKLOADS.md``):

* ``tlm-cold`` -- the six campaigns on the generated TLM, cold, each
  writing a fresh on-disk result cache (``perfbench/campaigns.py``);
* ``crosslevel`` -- the six campaigns plus RTL validation of every
  mutant on one 2-worker pool per pass (``perfbench/campaigns.py``);
* ``warm-service`` -- two closed-loop clients against ``repro serve``
  with a warm cache (``perfbench/service.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tlm-cold", "crosslevel", "warm-service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)

    from perfbench.common import Result, SpanRecorder, save_expected

    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp)
    # Keep every scratch file -- multiprocessing's included -- inside
    # the checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    result = Result(args.workload, args.seed, bool(args.trace))
    if args.record_expected:
        result.expected = None
    ctx = argparse.Namespace(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), result=result, spans=SpanRecorder(),
        workdir=workdir, cache_root=os.path.join(workdir, "caches"),
    )
    try:
        if args.workload == "warm-service":
            from perfbench import service as workload
        else:
            from perfbench import campaigns as workload
        workload.run(ctx)
        stamp = (f"nproc {os.cpu_count()}, python "
                 f"{platform.python_version()}")
        metrics = declared["per_layer" if args.trace else "end_to_end"]
        known = {m["name"] for key in ("end_to_end", "per_layer")
                 for m in declared[key]}
        correct = result.emit(metrics, known, stamp)
        if args.trace:
            ctx.spans.write(os.path.join(
                ROOT, ".perfbench_out",
                f"{args.workload}-seed{args.seed}-spans.jsonl",
            ))
        if args.record_expected:
            if not correct:
                print("perfbench: not recording a failed run",
                      file=sys.stderr)
                return 1
            save_expected(args.workload, args.seed, result.entries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
