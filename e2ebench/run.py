#!/usr/bin/env python3
"""End-to-end benchmark of the iosim simulator.

    python3 e2ebench/run.py --workload stream_cache --seed 42 --seconds 15 --trace 0

Builds the simulator libraries from ../src and the driver in e2ebench/
under .bench_build/ (a Release tree, and a -pg tree for traced runs),
then times one workload: a closed loop of one-threaded driver processes,
each running the workload once with no metrics registry installed, for
--seconds host seconds, with set-up-only processes between them.  With
--trace 1 it then runs the workload once more in the -pg build under a
metrics registry and folds the gprof flat profile into per-module
self-time shares.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Simulations that throw, fail their
invariants, crash or time out, or whose exact outputs differ between
repetitions or between the timed and traced runs count as failed; then
the command exits 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("stream_cache", "stream_crash", "xl_collective")
# Set-up-only driver processes after each timed simulation; setup_s is
# the median over them and over the set-ups of the timed simulations.
SETUP_PER_SIM = 10
# wall_s and setup_s are host times scaled to a host on which the
# driver's --probe sort takes this long (about its median on a 4-core Xeon
# VM), so that a slow phase of a shared host, which slows the probe and
# the simulations alike, moves them less.
PROBE_REF_S = 0.1
# One simulation takes well under 20 s, traced or not; a driver that
# hangs is stopped early enough for the run to end within 180 s.
DRIVER_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 850

SCHEDULER_FLAGS = {"calendar": "", "heap": "-DSIMKIT_HEAP_QUEUE"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------


def build(scheduler: str, profiled: bool) -> Path:
    """Configure (once) and build one driver tree; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    name = scheduler + ("-pg" if profiled else "")
    tree = BUILD / name
    flags = " ".join(
        f for f in (SCHEDULER_FLAGS[scheduler], "-pg" if profiled else "") if f
    )
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / f"{name}.log"
    with open(log, "a") as out:
        if not (tree / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
                   "-DCMAKE_BUILD_TYPE=Release", f"-DCMAKE_CXX_FLAGS={flags}"]
            if profiled:
                cmd.append("-DCMAKE_EXE_LINKER_FLAGS=-pg")
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            _checked(cmd, out, log)
        jobs = str(min(4, os.cpu_count() or 1))
        _checked(["cmake", "--build", str(tree), "--target", "e2e_driver",
                  "-j", jobs], out, log)
    return tree / "e2e_driver"


def _checked(cmd: list[str], out, log: Path) -> None:
    try:
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e
    if rc != 0:
        out.flush()
        tail = log.read_text(errors="replace").splitlines()[-30:]
        raise BenchError(f"build step failed ({' '.join(cmd)}):\n" +
                         "\n".join(tail))


# --- driver runs -------------------------------------------------------


def run_driver(binary: Path, args: list[str], cwd: Path,
               kinds: tuple[str, ...]) -> tuple[dict, str | None]:
    """Runs the driver once.  Returns its records by kind, one of each of
    `kinds`, or why it failed: a crash, a timeout or missing records."""
    try:
        p = subprocess.run([str(binary), *args], cwd=cwd, capture_output=True,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, f"driver timed out after {DRIVER_TIMEOUT_S} s"
    except OSError as e:
        raise BenchError(f"cannot run the driver: {e}") from e
    if p.returncode != 0:
        return {}, f"driver exited {p.returncode}: {p.stderr.strip()}"
    records = {}
    for line in p.stdout.splitlines():
        try:
            r = json.loads(line)
            records.setdefault(r["kind"], []).append(r)
        except (ValueError, TypeError, KeyError):
            return {}, f"driver printed a bad record: {line[:200]}"
    if any(len(records.get(k, [])) != 1 for k in kinds):
        return {}, f"driver did not print one each of {', '.join(kinds)}"
    return {k: records[k][0] for k in kinds}, None


# A run whose every simulation failed still reports, with zeros.
def _median(values: list[float]) -> float:
    return benchlib.median(values) if values else 0.0


def _trimmed_mean(values: list[float]) -> float:
    return benchlib.trimmed_mean(values) if values else 0.0


def timed_run(binary: Path, workload: str, seed: int, seconds: int) -> dict:
    """Closed loop of driver processes, one workload run each, until
    `seconds` host seconds have passed.  After each simulation one host
    speed probe and SETUP_PER_SIM set-up-only processes run, so their
    samples spread over the whole run like the simulations.  A driver
    that fails ends the loop."""
    sims, setups, probes, peaks, errors = [], [], [], [], []
    broken = 0
    args = [workload, "--seed", str(seed)]

    def between_sims() -> None:
        nonlocal broken
        rec, err = run_driver(binary, ["--probe"], ROOT, ("probe",))
        if err:
            broken += 1
            errors.append(err)
            return
        probes.append(rec["probe"]["probe_s"])
        for _ in range(SETUP_PER_SIM):
            rec, err = run_driver(binary, [*args, "--setup-only"], ROOT,
                                  ("setup",))
            bad = [err] if err else rec["setup"]["errors"]
            if bad:
                broken += 1
                errors.extend(bad)
                return
            setups.append(rec["setup"])

    start = time.monotonic()
    while not broken:
        rec, err = run_driver(binary, args, ROOT, ("sim", "end"))
        if err:
            broken += 1
            errors.append(err)
            break
        sims.append(rec["sim"])
        peaks.append(rec["end"]["peak_rss_mb"])
        between_sims()
        if time.monotonic() - start >= seconds:
            break
    reference = sims[0]["exact"] if sims else {}
    failed = broken
    for i, s in enumerate(sims):
        bad = list(s["errors"])
        if s["exact"] != reference:
            bad.append(f"simulation {i} differs from simulation 0")
        failed += 1 if bad else 0
        errors += bad
    # A simulation that threw has no run span; it is counted failed.
    raw_wall_s = _trimmed_mean([s["spans"].get("run_s", 0.0) for s in sims])
    raw_setup_s = _median([r["setup_s"] for r in setups + sims])
    probe_s = _median(probes)
    scale = benchlib.ratio(PROBE_REF_S, probe_s)
    return {
        "attempted": len(sims) + broken,
        "failed": failed,
        "errors": errors,
        "exact": reference,
        "wall_s": raw_wall_s * scale,
        "setup_s": raw_setup_s * scale,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "probe_s": probe_s,
        "peak_rss_mb": _median(peaks),
    }


def traced_run(binary: Path, workload: str, seed: int) -> dict:
    """One simulation in the -pg build under a metrics registry.  A driver
    that fails gives an empty simulation carrying its error."""
    cwd = BUILD / "trace" / workload
    cwd.mkdir(parents=True, exist_ok=True)
    gmon = cwd / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    rec, err = run_driver(binary, [workload, "--seed", str(seed), "--traced"],
                          cwd, ("sim", "registry"))
    if err:
        return {
            "sim": {"exact": {}, "spans": {}, "errors": [err]},
            "registry": {},
            "self_s": benchlib.fold_profile(""),
        }
    if not gmon.is_file():
        raise BenchError("traced run left no profile")
    try:
        prof = subprocess.run(["gprof", "-b", "-p", str(binary), str(gmon)],
                              cwd=cwd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"gprof failed: {e}") from e
    if prof.returncode != 0:
        raise BenchError(f"gprof exited {prof.returncode}: {prof.stderr}")
    return {
        "sim": rec["sim"],
        "registry": rec["registry"]["values"],
        "self_s": benchlib.fold_profile(prof.stdout),
    }


# --- per-layer metrics -------------------------------------------------

# name -> unit, in report order.  BENCHMARK.json lists the same metrics
# (tests/test_benchlib.py checks that).
PER_LAYER = {
    "simkit.events": "count",
    "simkit.ns_per_event": "ns",
    "simkit.clamped_schedules": "count",
    "mprt.alltoall.msgs": "count",
    "mprt.alltoall.bytes": "B",
    "pario.twophase.io_calls": "count",
    "pario.twophase.io_bytes": "B",
    "pario.twophase.exchange_s.p50": "sim_s",
    "pario.retry.retries": "count",
    "pario.retry.failovers": "count",
    "pario.health.hedges": "count",
    "pario.health.hedge_win_ratio": "ratio",
    "pfs.requests": "count",
    "pfs.disk.reads": "count",
    "pfs.disk.writes": "count",
    "pfs.disk.seeks": "count",
    "pfs.disk.queue_wait_s.p50": "sim_s",
    "pfs.disk.queue_wait_s.p99": "sim_s",
    "pfs.cache.hit_ratio": "ratio",
    "pfs.cache.evictions": "count",
    "pfs.server.readahead.issued": "count",
    "iosrv.readahead.useful_ratio": "ratio",
    "pfs.server.writeback.drained": "count",
    "pfs.server.writeback.stalls": "count",
    "pfs.server.journal.appends": "count",
    "pfs.server.journal.replayed": "count",
    "pfs.server.cache.invalidations": "count",
    "pfs.server.writeback.lost_blocks": "count",
    "sched.jobs_completed": "count",
    "sched.job.queue_wait_s.p50": "sim_s",
    "sched.makespan_s": "sim_s",
    "sched.restarts": "count",
    "sched.checkpoints": "count",
    "xl.flat.exec_s": "sim_s",
    "xl.hier.exec_s": "sim_s",
    "fault.node_crashes": "count",
    "fault.rejected_requests": "count",
    "audit.violations": "count",
    **{f"{m}.self_share": "ratio" for m in benchlib.MODULES},
    f"{benchlib.OTHER}.self_share": "ratio",
    "span.setup.hw_s": "s",
    "span.setup.pfs_s": "s",
    "span.setup.fault_s": "s",
    "span.setup.sched_generate_s": "s",
    "span.setup.mprt_s": "s",
    "span.run_s": "s",
    "host.raw_wall_s": "s",
    "host.raw_setup_s": "s",
    "host.probe_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "failed_frac": "ratio",
}

# Registry instruments reported under their own name.
_REGISTRY_METRICS = (
    "mprt.alltoall.msgs", "mprt.alltoall.bytes",
    "pario.twophase.io_calls", "pario.twophase.io_bytes",
    "pario.twophase.exchange_s.p50",
    "pario.retry.retries", "pario.retry.failovers", "pario.health.hedges",
    "pfs.requests", "pfs.disk.reads", "pfs.disk.writes", "pfs.disk.seeks",
    "pfs.disk.queue_wait_s.p50", "pfs.disk.queue_wait_s.p99",
    "pfs.cache.evictions", "pfs.server.readahead.issued",
    "pfs.server.writeback.drained", "pfs.server.writeback.stalls",
    "pfs.server.journal.appends", "pfs.server.journal.replayed",
    "pfs.server.cache.invalidations", "pfs.server.writeback.lost_blocks",
    "sched.jobs_completed", "sched.job.queue_wait_s.p50", "sched.makespan_s",
    "sched.restarts", "sched.checkpoints",
    "fault.node_crashes", "fault.rejected_requests",
)


def per_layer(timed: dict, traced: dict, failed_frac: float) -> dict:
    reg = traced["registry"]
    exact = timed["exact"]

    def r(name: str) -> float:
        return reg.get(name, 0.0)

    def total(suffix: str) -> float:
        return sum(v for k, v in exact.items() if k.endswith(suffix))

    events = total("events")
    spans = traced["sim"]["spans"]
    run_s = spans.get("run_s", 0.0)
    self_s = traced["self_s"]
    sampled = sum(self_s.values())
    v = {name: r(name) for name in _REGISTRY_METRICS}
    v.update({
        "simkit.events": events,
        "simkit.ns_per_event": benchlib.ratio(timed["wall_s"] * 1e9, events),
        "simkit.clamped_schedules": total("clamped_schedules"),
        "pario.health.hedge_win_ratio": benchlib.ratio(
            r("pario.health.hedge_wins"), r("pario.health.hedges")),
        "pfs.cache.hit_ratio": benchlib.ratio(
            r("pfs.cache.hits"), r("pfs.cache.hits") + r("pfs.cache.misses")),
        "iosrv.readahead.useful_ratio": benchlib.ratio(
            r("pfs.server.readahead.hits"), r("pfs.server.readahead.issued")),
        "xl.flat.exec_s": exact.get("flat.exec_s", 0.0),
        "xl.hier.exec_s": exact.get("hier.exec_s", 0.0),
        "audit.violations": exact.get("audit_violations", 0.0),
        "span.run_s": run_s,
        "host.raw_wall_s": timed["raw_wall_s"],
        "host.raw_setup_s": timed["raw_setup_s"],
        "host.probe_s": timed["probe_s"],
        "trace.overhead": benchlib.ratio(run_s, timed["raw_wall_s"]),
        "trace.coverage": benchlib.ratio(
            sampled - self_s[benchlib.OTHER], run_s),
        "failed_frac": failed_frac,
    })
    for module, seconds in self_s.items():
        v[f"{module}.self_share"] = benchlib.ratio(seconds, sampled)
    for name in ("hw", "pfs", "fault", "sched_generate", "mprt"):
        v[f"span.setup.{name}_s"] = spans.get(f"setup.{name}_s", 0.0)
    return v


# --- main --------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        # Both trees are built up front so a traced run never waits on a
        # build.
        timed_bin = build("calendar", profiled=False)
        traced_bin = build("calendar", profiled=True)
        timed = timed_run(timed_bin, args.workload, args.seed, args.seconds)
        attempted, failed = timed["attempted"], timed["failed"]
        errors = list(timed["errors"])
        if args.trace:
            traced = traced_run(traced_bin, args.workload, args.seed)
            attempted += 1
            bad = list(traced["sim"]["errors"])
            if traced["sim"]["exact"] != timed["exact"]:
                bad.append("traced and timed exact outputs differ")
            failed += 1 if bad else 0
            errors += bad
            values = per_layer(timed, traced,
                               benchlib.ratio(failed, attempted))
            units = PER_LAYER
        else:
            values = {k: timed[k] for k in END_TO_END}
            units = END_TO_END
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1

    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not (benchlib.valid_metric_name(name) and benchlib.valid_unit(unit)
                and math.isfinite(value)):
            print(f"e2ebench: bad metric {name}={value} {unit}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    for e in errors:
        print(f"e2ebench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
