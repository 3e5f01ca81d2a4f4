"""Paired A/B comparison of two commits on the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE CHANGE [--pairs N]
        [--history perfbench/history.jsonl]

Each commit is exported with ``git archive`` into
``.perfbench_ab/{base,change}-<commit>``, and the working tree's benchmark
(``perfbench/`` and ``BENCHMARK.json``) is copied over both exports,
so the two sides run identical benchmark code and settings.  Every
workload of BENCHMARK.json runs at its ``run_seconds``, in at least
ten pairs (``--pairs``, default 10).  Pair ``i`` runs both commits on
seed ``i``, alternating which goes first.

For every end-to-end metric x workload it prints each side's median
and quartiles, the share of pairs CHANGE won (ties count for neither)
and a verdict, by the rule of BENCHMARK.json's bounds:

* ``improved`` -- CHANGE won at least 90% of the pairs and the medians
  differ by more than BASE's interquartile range;
* ``regressed`` -- CHANGE's median is worse than BASE's by more than
  the metric's bound;
* ``unresolved`` -- neither, but a side's interquartile range is wider
  than the bound and not every CHANGE run beats every BASE run;
* ``within bound`` -- otherwise.

Failed operations are summed per side: a gain does not count when
CHANGE fails more operations than BASE.  Every row is stamped with
nproc, the Python version and both commits, and appended as one JSON
line to the history file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fewer pairs cannot support a verdict.
MIN_PAIRS = 10


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export(commit: str, side: str) -> "tuple[str, str]":
    """Extract ``commit`` with the working tree's benchmark laid over
    it; returns ``(sha, directory)``."""
    sha = _git("rev-parse", "--verify", f"{commit}^{{commit}}").decode()
    sha = sha.strip()
    target = os.path.join(ROOT, ".perfbench_ab", f"{side}-{sha[:12]}")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", sha))) as tar:
        tar.extractall(target)
    shutil.rmtree(os.path.join(target, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(target, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "history.jsonl"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    return sha, target


def run_once(directory: str, workload: str, seed: int,
             seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"benchmark failed in {directory} "
                           f"({workload}, seed {seed}): exit "
                           f"{out.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> "tuple[float, float, float]":
    from statistics import quantiles

    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, base: list, change: list) -> "tuple[str, float]":
    """The verdict for one metric x workload and CHANGE's share of
    pairs won."""
    higher = metric["better"] == "higher"

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    wins = sum(better(c, b) for b, c in zip(base, change))
    share = wins / len(base)
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    worse = (bmed - cmed) if higher else (cmed - bmed)
    if share >= 0.9 and better(cmed, bmed) and abs(cmed - bmed) > b3 - b1:
        return "improved", share
    if worse > metric["bound"] * abs(bmed):
        return "regressed", share
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    everything_better = all(better(c, b) for c in change for b in base)
    if spread > metric["bound"] and not everything_better:
        return "unresolved", share
    return "within bound", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--history",
                        default=os.path.join(ROOT, "perfbench",
                                             "history.jsonl"))
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sides = [export(args.base, "base"), export(args.change, "change")]
    runs = {(w, side): [] for w in workloads for side in (0, 1)}
    try:
        for pair in range(args.pairs):
            for workload in workloads:
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for side in order:
                    runs[(workload, side)].append(
                        run_once(sides[side][1], workload, pair, seconds)
                    )
                print(f"pair {pair + 1}/{args.pairs} {workload} done",
                      file=sys.stderr, flush=True)
    finally:
        for _sha, directory in sides:
            shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(sides[0][1]))
        except OSError:
            pass

    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "base": sides[0][0],
        "change": sides[1][0],
        "pairs": args.pairs,
        "seconds": seconds,
        "unix_time": round(time.time()),
    }
    print(f"A/B: base {sides[0][0][:12]} vs change {sides[1][0][:12]}, "
          f"{args.pairs} pairs x {seconds} s, nproc {stamp['nproc']}, "
          f"python {stamp['python']}")
    header = (f"{'workload':<13} {'metric':<20} {'base q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'won':>5}  verdict")
    print(header)
    rows = []
    for workload in workloads:
        base_runs, change_runs = runs[(workload, 0)], runs[(workload, 1)]
        failed = [sum(r["failed"] for r in side_runs)
                  for side_runs in (base_runs, change_runs)]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in base_runs]
            change = [r["metrics"][name]["value"] for r in change_runs]
            result, share = verdict(metric, base, change)
            if result == "improved" and failed[1] > failed[0]:
                result = "improved, but more operations failed"
            bq, cq = quartiles(base), quartiles(change)
            print(f"{workload:<13} {name:<20} "
                  f"{bq[0]:>9.4g}/{bq[1]:>8.4g}/{bq[2]:>8.4g} "
                  f"{cq[0]:>9.4g}/{cq[1]:>8.4g}/{cq[2]:>8.4g} "
                  f"{share:>5.0%}  {result}")
            rows.append({
                **stamp, "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"],
                "base_quartiles": bq, "change_quartiles": cq,
                "won": share, "verdict": result,
                "failed": {"base": failed[0], "change": failed[1]},
            })
        print(f"{workload:<13} failed operations: base {failed[0]}, "
              f"change {failed[1]}")
    with open(args.history, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {len(rows)} rows to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
