"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload retwis-fig8 [--seed N]
        [--seconds S] [--trace 0|1]

A run repeats whole *reps* of the workload — set-up, timed drive,
correctness checks — for as many as fit in ``--seconds`` of wall time
(at least one), and reports medians over the reps. Host time is the
process's CPU time, so time the host spends on other processes does not
count. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced reps and prints the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every rep is checked (serializability or KV read-back, bypass
predictions) and every rep of a run must produce the same digest of its
simulated outputs, traced or not. A failed check marks the run
incorrect and counts all its ops as failed. See ``README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Timed set-ups per rep; the last one is driven. ``setup_s`` is the
#: median over all set-ups of the run.
SETUPS_PER_REP = 5

#: Calibration-loop seconds on the reference host, a 2-vCPU Xeon VM at
#: 2.1 GHz with Python 3.11.7, where the loop took 19 to 23 ms.
#: ``setup_s`` is set-up time divided by the calibration run that follows
#: it and scaled by this constant, so it reads in seconds of that host
#: and does not follow the host's drift. Part of the benchmark
#: definition: changing it rescales every ``setup_s`` value.
CALIB_REF_S = 0.02


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads' reasons and the metrics' units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@dataclass
class Measurement:
    """Host timings and outcome of one rep."""

    rep: Any
    setups: List[float]
    host_s: float
    wall_s: float
    calib: List[float]
    tracer: Any

    @property
    def host_s_per_op(self) -> float:
        return self.host_s / self.rep.ops


class DriveTimer:
    """Times a drive apart from the calibration loop run inside it.

    The workload calls :meth:`pause` between the slices of its drive;
    each pause runs one calibration chunk off the clock. Calibration is
    thus sampled throughout the drive, not only around it.
    """

    def __init__(self, calibrator) -> None:
        self.calibrator = calibrator
        self.host_s = 0.0
        self.wall_s = 0.0
        self.calib: List[float] = []

    def start(self) -> None:
        self._cpu, self._wall = time.process_time(), time.perf_counter()

    def stop(self) -> None:
        self.host_s += time.process_time() - self._cpu
        self.wall_s += time.perf_counter() - self._wall

    def pause(self) -> None:
        self.stop()
        self.calib.append(self.calibrator.measure())
        self.start()


def measure_rep(workload, seed: int, calibrator, tracer=None) -> Measurement:
    """Set up ``workload`` (several times), then drive and check it once.

    Calibration runs between the set-ups and the timed drive, and after
    each of the drive's slices. With a ``tracer`` its wrappers are installed for set-up and
    drive, and its counters cover the drive only.
    """
    setups = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(SETUPS_PER_REP):
            state = None  # free the previous build before collecting
            gc.collect()
            start = time.process_time()
            state = workload.build(seed)
            setups.append(time.process_time() - start)
        timer = DriveTimer(calibrator)
        timer.calib.append(calibrator.measure())
        if tracer is not None:
            tracer.reset()
        timer.start()
        workload.drive(state, timer.pause)
        timer.stop()
    rep = workload.finish(state)
    if rep.ops < 1:
        rep.problems.append("no op completed")
    return Measurement(rep, setups, timer.host_s, timer.wall_s, timer.calib,
                       tracer)


def bypass_problems(workload, layer: Dict[str, float]) -> List[str]:
    """Misses of the workload's predicted zero and non-zero counters. A
    miss means the workload no longer exercises the layer it was chosen
    for. Counters the rep did not measure are skipped."""
    problems = [f"bypass prediction: {name} = {layer[name]}, expected 0"
                for name in workload.zero_counters
                if name in layer and layer[name] != 0]
    problems += [f"bypass prediction: {name} = {layer[name]}, expected > 0"
                 for name in workload.positive_counters
                 if name in layer and layer[name] <= 0]
    return problems


def layer_counters(m: Measurement) -> Dict[str, float]:
    """Per-layer counter metrics of one rep (traced ones need a tracer)."""
    c = m.rep.counters
    ops = m.rep.ops
    decided = c.get("committed", 0) + c.get("aborted", 0)
    validations = (c.get("local_validations", 0)
                   + c.get("remote_validations", 0))
    host_pages = c["ftl_host_pages"]
    sim_s = c["sim_elapsed_s"]
    layer = {
        "sim.events_per_op": c["events"] / ops,
        "net.msgs_per_op": c.get("msgs", 0) / ops,
        "net.bytes_per_op": c.get("bytes", 0) / ops,
        "milana.abort_rate": c.get("aborted", 0) / decided if decided else 0.0,
        "milana.local_validation_share": (
            c.get("local_validations", 0) / validations
            if validations else 0.0),
        "milana.sim_latency_p50_us": c.get("latency_p50_s", 0.0) * 1e6,
        "milana.sim_latency_p99_us": c.get("latency_p99_s", 0.0) * 1e6,
        "ftl.gets_per_op": c["ftl_gets"] / ops,
        "ftl.puts_per_op": c["ftl_puts"] / ops,
        "ftl.gc_runs": c["ftl_gc_runs"],
        "ftl.remapped_per_op": c["ftl_remapped"] / ops,
        "ftl.write_amp": (c["flash_programs"] / host_pages
                          if host_pages else 0.0),
        "flash.reads_per_op": c["flash_reads"] / ops,
        "flash.programs_per_op": c["flash_programs"] / ops,
        "flash.erases_per_op": c["flash_erases"] / ops,
        "flash.busy_frac": (c["flash_busy_s"]
                            / (c["flash_channel_count"] * sim_s)
                            if c["flash_channel_count"] else 0.0),
        "durability.appends_per_op": c.get("wal_appends", 0) / ops,
        "durability.fsyncs_per_op": c.get("wal_fsyncs", 0) / ops,
        "workloads.retries_per_op": c.get("retries", 0) / ops,
    }
    if m.tracer is not None:
        counts = m.tracer.counts
        layer.update({
            "sim.spawns_per_op": counts.get("spawns", 0) / ops,
            "net.rpc_calls_per_op": counts.get("rpc_calls", 0) / ops,
            "wire.size_calls_per_op": counts.get("size_calls", 0) / ops,
            "wire.payload_calls_per_op": counts.get("payload_calls", 0) / ops,
        })
    return layer


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for ``seconds``; return the result object."""
    from calib import Calibrator
    from tracer import LAYERS, Tracer

    calibrator = Calibrator()
    began = time.perf_counter()
    untraced: List[Measurement] = []
    traced: List[Measurement] = []
    problems: List[str] = []
    # Start another rep (or traced pair) only if one as long as the
    # longest so far still ends within ``seconds``; always do one.
    longest = 0.0
    while True:
        started = time.perf_counter()
        untraced.append(measure_rep(workload, seed, calibrator))
        if trace:
            traced.append(measure_rep(workload, seed, calibrator, Tracer()))
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now - began + longest > seconds:
            break
    reps = untraced + traced
    for index, m in enumerate(reps):
        kind = "traced" if m.tracer is not None else "untraced"
        print(f"rep {index} {kind}: ops {m.rep.ops} host {m.host_s:.4f}s "
              f"wall {m.wall_s:.4f}s setup "
              f"{' '.join(f'{s:.4f}' for s in m.setups)}s calib "
              f"before {m.calib[0]:.5f}s after {m.calib[-1]:.5f}s "
              f"mean {statistics.fmean(m.calib):.5f}s "
              f"digest {m.rep.digest[:16]}")
        problems += [f"rep {index}: {p}" for p in m.rep.problems]
        problems += [f"rep {index}: {p}" for p in
                     bypass_problems(workload, layer_counters(m))]
    if len({m.rep.digest for m in reps}) != 1:
        problems.append("simulated-output digest differs between reps")
    counters = [layer_counters(m) for m in reps]
    reference: Dict[str, float] = {}
    differ = sorted({name for layer in counters for name, value in layer.items()
                     if reference.setdefault(name, value) != value})
    problems += [f"per-layer counter {name} differs between reps"
                 for name in differ]
    for problem in problems:
        print(f"CHECK FAILED {problem}")

    attempted = sum(m.rep.attempted for m in reps)
    correct = not problems
    failed = sum(m.rep.failed for m in reps) if correct else attempted
    if trace:
        metrics = dict(reference)
        host_total = sum(t.wall_s for t in traced)
        self_time: Dict[str, float] = {}
        for t in traced:
            for name, self_s in t.tracer.self_times(t.wall_s).items():
                self_time[name] = self_time.get(name, 0.0) + self_s
        for name in sorted(set(self_time) - set(LAYERS)):
            print(f"share outside the named layers: {name} "
                  f"{self_time[name] / host_total:.4f}")
        for name in LAYERS:
            metrics[f"{name}.self_share"] = (
                self_time.get(name, 0.0) / host_total)
        metrics["verify.audit_s"] = statistics.median(
            m.rep.audit_s for m in reps)
        metrics["trace.overhead"] = (
            statistics.median(t.host_s for t in traced)
            / statistics.median(u.host_s for u in untraced))
        metrics["failed_frac"] = failed / attempted
        metrics["host_ms_per_op"] = statistics.median(
            m.host_s_per_op * 1e3 for m in untraced)
        metrics["harness.setup_host_s"] = statistics.median(
            s for m in untraced for s in m.setups)
    else:
        metrics = {
            "host_per_op_calib": statistics.median(
                m.host_s_per_op / statistics.fmean(m.calib)
                for m in untraced),
            "setup_s": CALIB_REF_S * statistics.median(
                s / m.calib[0] for m in untraced for s in m.setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed of the "
                             "figure the workload comes from)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workload.default_seed if args.seed is None else args.seed
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    print(f"workload {workload.name} seed {seed} seconds {args.seconds} "
          f"trace {args.trace}: {why[workload.name]}")
    result = run(workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
