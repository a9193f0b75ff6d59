#!/usr/bin/env python3
"""Scheduler A/B: the calendar queue against the -DSIMKIT_HEAP_QUEUE
binary heap, on the same sources and the same benchmark runs.

    python3 e2ebench/ab.py

For every workload and seeds 1 to 10 it makes one 30-second timed run
(run.py's timed loop) with each scheduler, alternating which goes first:
ten pairs per workload, the least that backs a claim of a gain.  It
prints a markdown table of wall_s and simkit.ns_per_event medians with
quartiles, and how many pairs each scheduler won, as README.md records
them.  Both schedulers pop events in the same
(time, sequence) order, so every exact output must agree between them;
a pair whose outputs differ is reported and makes the command exit 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import run  # noqa: E402

SCHEDULERS = ("calendar", "heap")
SEEDS = tuple(range(1, 11))
SECONDS = 30


def fmt(values: list[float], scale: float, digits: int) -> str:
    q1, q2, q3 = (v * scale for v in benchlib.quartiles(values))
    return f"{q2:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def main() -> int:
    try:
        binaries = {s: run.build(s, profiled=False) for s in SCHEDULERS}
        ok = True
        rows = []
        for w in run.WORKLOADS:
            wall = {s: [] for s in SCHEDULERS}
            ns = {s: [] for s in SCHEDULERS}
            wins = {s: 0 for s in SCHEDULERS}
            for i, seed in enumerate(SEEDS):
                order = SCHEDULERS if i % 2 == 0 else SCHEDULERS[::-1]
                res = {s: run.timed_run(binaries[s], w, seed, SECONDS)
                       for s in order}
                a, b = (res[s] for s in SCHEDULERS)
                if a["exact"] != b["exact"] or a["failed"] or b["failed"]:
                    print(f"ab: {w} seed {seed}: outputs differ or failed",
                          file=sys.stderr)
                    ok = False
                events = sum(v for k, v in a["exact"].items()
                             if k.endswith("events"))
                for s in SCHEDULERS:
                    wall[s].append(res[s]["wall_s"])
                    ns[s].append(benchlib.ratio(res[s]["wall_s"] * 1e9, events))
                if a["wall_s"] != b["wall_s"]:
                    wins[min(SCHEDULERS, key=lambda s: res[s]["wall_s"])] += 1
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{s} {res[s]['wall_s']:.3f} s" for s in order),
                    file=sys.stderr)
            for s in SCHEDULERS:
                rows.append(f"| {w} | {s} | {fmt(wall[s], 1, 3)} | "
                            f"{fmt(ns[s], 1, 0)} | {wins[s]}/{len(SEEDS)} |")
    except run.BenchError as e:
        print(f"ab: {e}", file=sys.stderr)
        return 1

    print("| workload | scheduler | wall_s median [q1, q3] | "
          "ns_per_event median [q1, q3] | pairs won |")
    print("|---|---|---|---|---|")
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
