"""The benchmark's three workloads, built on the public ``repro`` API.

Every workload is a closed loop: each simulated client (or KV worker)
waits for its reply before it issues the next request. All of them run
in one host process on one thread. One *rep* is ``build`` (set-up: the
cluster or device plus its bulk-loaded keys, before the first simulated
event), ``drive`` (the timed part) and ``finish`` (correctness checks,
counters and a digest of the simulated outputs). Reps of one seed are
identical simulations, so their counters and digest must match exactly.

An *op* is a committed transaction on ``retwis-fig8`` and ``ycsb-a-wal``
and a completed GET or PUT on ``kv-mftl-gc``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.durability import DurabilityConfig
from repro.flash.device import FlashDevice
from repro.ftl import MFTLBackend
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.experiments import _table1_geometry
from repro.histogram import LatencyHistogram
from repro.milana.client import MilanaClient
from repro.sim.core import Simulator
from repro.sim.rng import SeededRng
from repro.verify import check_serializability
from repro.versioning import Version
from repro.workloads import (RETWIS_MIX_75_READONLY, RetwisInstance,
                             YcsbInstance, ZipfGenerator)

__all__ = ["Rep", "SLICES", "WORKLOADS"]

#: A drive runs its simulated time in this many equal slices and calls
#: ``pause`` after each, so the caller can run the calibration loop
#: throughout the drive. ``Simulator.run(until=...)`` only decides where
#: the event loop stops, so slicing leaves the schedule unchanged.
SLICES = 10


@dataclass
class Rep:
    """Outcome of one rep, everything but host time."""

    ops: int
    attempted: int
    failed: int
    #: Deterministic totals from the layers' own stats, over the drive.
    counters: Dict[str, float]
    digest: str
    #: Failed correctness checks; empty when the rep is correct.
    problems: List[str] = field(default_factory=list)
    #: Host CPU seconds spent in ``check_serializability``.
    audit_s: float = 0.0


def _digest(material: Any) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _recording_client(sim, network, directory, clock, client_id,
                      local_validation):
    return MilanaClient(sim, network, directory, clock, client_id=client_id,
                        local_validation=local_validation,
                        record_history=True)


def _storage_counters(backends, devices) -> Dict[str, float]:
    """FTL and flash totals summed over every server's backend/device."""
    stats = [backend.stats for backend in backends]
    dev = [device.stats for device in devices]
    return {
        "ftl_gets": sum(s.gets for s in stats),
        "ftl_puts": sum(s.puts for s in stats),
        "ftl_gc_runs": sum(s.gc_runs for s in stats),
        "ftl_remapped": sum(s.records_remapped for s in stats),
        "ftl_host_pages": sum(
            s.host_records_written / getattr(b, "records_per_page", 1)
            for s, b in zip(stats, backends)),
        "flash_reads": sum(d.page_reads for d in dev),
        "flash_programs": sum(d.page_writes for d in dev),
        "flash_erases": sum(d.block_erases for d in dev),
        "flash_busy_s": sum(d.busy_time for d in dev),
    }


def _run_sliced(sim, duration: float, pause) -> None:
    start = sim.now
    for k in range(1, SLICES + 1):
        sim.run(until=start + duration * k / SLICES)
        pause()


def _delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: after[key] - before.get(key, 0) for key in after}


class _ClusterWorkload:
    """Shared skeleton of the two transactional workloads."""

    name = ""
    default_seed = 0
    #: Simulated seconds one rep drives the clients for.
    sim_seconds = 0.0
    #: Per-layer counters predicted to be 0 / above 0 on this workload.
    zero_counters: tuple = ()
    positive_counters: tuple = ()

    def config(self, seed: int) -> ClusterConfig:
        raise NotImplementedError

    def instances(self, cluster: Cluster) -> list:
        raise NotImplementedError

    def logical_ops(self, instances) -> int:
        raise NotImplementedError

    def retries(self, instances) -> int:
        raise NotImplementedError

    def build(self, seed: int):
        cluster = Cluster(self.config(seed))
        instances = self.instances(cluster)
        return {"cluster": cluster, "instances": instances,
                "before": self._counters(cluster)}

    def drive(self, state, pause) -> None:
        sim = state["cluster"].sim
        procs = [inst.run(self.sim_seconds) for inst in state["instances"]]
        _run_sliced(sim, self.sim_seconds, pause)
        for proc in procs:
            sim.run_until_event(proc)

    def _counters(self, cluster: Cluster) -> Dict[str, float]:
        stats = cluster.network.stats
        wals = [s.wal for s in cluster.servers.values() if s.wal is not None]
        counters = {
            "events": cluster.sim.events_processed,
            "msgs": stats.messages_sent,
            "msgs_delivered": stats.messages_delivered,
            "msgs_dropped": stats.messages_dropped,
            "bytes": stats.total_bytes,
            "wal_appends": sum(w.appends for w in wals),
            "wal_fsyncs": sum(w.fsyncs for w in wals),
        }
        counters.update(_storage_counters(
            [s.backend for s in cluster.servers.values()],
            list(cluster.devices.values())))
        return counters

    def finish(self, state) -> Rep:
        cluster = state["cluster"]
        instances = state["instances"]
        clients = cluster.clients
        counters = _delta(self._counters(cluster), state["before"])
        committed = sum(c.stats.committed for c in clients)
        aborted = sum(c.stats.aborted for c in clients)
        local = sum(c.stats.local_validations for c in clients)
        remote = sum(c.stats.remote_validations for c in clients)
        latency = LatencyHistogram()
        for client in clients:
            latency.merge(client.stats.latency_histogram)
        counters.update({
            "committed": committed,
            "aborted": aborted,
            "local_validations": local,
            "remote_validations": remote,
            "latency_p50_s": latency.percentile(50),
            "latency_p99_s": latency.percentile(99),
            "retries": self.retries(instances),
            "sim_elapsed_s": cluster.sim.now,
            "flash_channel_count": sum(d.geometry.num_channels
                                       for d in cluster.devices.values()),
        })
        attempted = self.logical_ops(instances)
        history = [entry for c in clients for entry in c.history]
        start = time.process_time()
        serializable, witness = check_serializability(history)
        audit_s = time.process_time() - start
        problems = []
        if not serializable:
            problems.append(f"history not serializable: witness {witness}")
        if len(history) != committed:
            problems.append(f"{len(history)} recorded histories for "
                            f"{committed} commits")
        digest = _digest({
            "now": cluster.sim.now,
            "counters": counters,
            "clients": [[c.client_id, c.stats.started, c.stats.committed,
                         c.stats.aborted, sorted(c.stats.abort_reasons.items()),
                         c.stats.latency_total, c.last_decided_timestamp]
                        for c in clients],
            "history": [[e.txn_id, sorted(e.reads.items()),
                         sorted(e.writes.items()), e.ts] for e in history],
        })
        return Rep(ops=committed, attempted=attempted,
                   failed=attempted - committed, counters=counters,
                   digest=digest, problems=problems, audit_s=audit_s)


class RetwisFig8(_ClusterWorkload):
    name = "retwis-fig8"
    default_seed = 17
    sim_seconds = 0.1

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            num_shards=3, replicas_per_shard=3, num_clients=16,
            backend="mftl", clock_preset="ptp-sw", seed=seed,
            populate_keys=3000, local_validation=True,
            client_factory=_recording_client)

    def instances(self, cluster: Cluster) -> list:
        instances = [
            RetwisInstance(cluster.sim, client, cluster.populated_keys,
                           cluster.rng.substream(f"retwis-{client.client_id}"),
                           alpha=0.6, max_retries=10,
                           mix=RETWIS_MIX_75_READONLY)
            for client in cluster.clients
        ]
        for client in cluster.clients:
            client.start_watermark_daemon(0.05)
        return instances

    def logical_ops(self, instances) -> int:
        return sum(sum(i.stats.by_type.values()) for i in instances)

    def retries(self, instances) -> int:
        return sum(i.stats.retries for i in instances)


class YcsbAWal(_ClusterWorkload):
    name = "ycsb-a-wal"
    zero_counters = ("flash.reads_per_op", "flash.programs_per_op",
                     "flash.erases_per_op")
    positive_counters = ("durability.appends_per_op",)
    default_seed = 42
    sim_seconds = 0.1
    #: Each client retries an aborted op until it commits. Every attempt
    #: draws a new key; in 750k ops over 170 seeds the share of ops
    #: aborted k times in a row fell about tenfold per k and no op was
    #: aborted more than 6 times, so no op reaches this bound.
    #: ``YcsbInstance``'s default of 5 gave up 2 of those ops (seeds 1012
    #: and 1020), each a failed op in every rep of its run.
    max_retries = 50

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=8,
            backend="dram", clock_preset="ptp-sw", seed=seed,
            populate_keys=1000, durability=DurabilityConfig(),
            client_factory=_recording_client)

    def instances(self, cluster: Cluster) -> list:
        return [
            YcsbInstance(cluster.sim, client, cluster.populated_keys,
                         cluster.rng.substream(f"ycsb{client.client_id}"),
                         workload="A", alpha=0.99,
                         max_retries=self.max_retries)
            for client in cluster.clients
        ]

    def logical_ops(self, instances) -> int:
        return sum(i.stats.operations for i in instances)

    def retries(self, instances) -> int:
        # Every aborted attempt is retried except the last of an op the
        # instance gave up on.
        return sum(i.stats.aborted - (i.stats.operations - i.stats.committed)
                   for i in instances)


class KvMftlGc:
    """Table-1 single-SSD closed loop, driven straight at the backend.

    The loop has ``run_kv_microbench``'s shape (128 workers, 50 % GET,
    a watermark daemon keeping a 5 ms version window) but is written
    here so that set-up (device build and bulk load) is timed apart from
    the drive, and so failed requests are counted instead of aborting.
    """

    name = "kv-mftl-gc"
    zero_counters = ("net.msgs_per_op", "net.rpc_calls_per_op",
                     "wire.size_calls_per_op")
    positive_counters = ("ftl.gc_runs",)
    default_seed = 7
    sim_seconds = 0.3
    num_keys = 4000
    num_workers = 128
    get_percent = 50.0
    version_window = 0.005

    def build(self, seed: int):
        sim = Simulator()
        device = FlashDevice(sim, _table1_geometry(self.num_keys))
        backend = MFTLBackend(sim, device)
        keys = [f"mb:{i}" for i in range(self.num_keys)]
        backend.bulk_load((key, f"init-{key}", Version(-1e6, 0))
                          for key in keys)
        rng = SeededRng(seed).substream("mftl").substream("g50")
        state = {
            "sim": sim, "device": device, "backend": backend, "keys": keys,
            "zipf": ZipfGenerator(rng.substream("keys"), keys, 0.0),
            "op_rng": rng.substream("ops"),
            "gets": 0, "puts": 0, "failed": 0, "errors": [],
        }
        state["before"] = self._counters(state)
        return state

    def _counters(self, state) -> Dict[str, float]:
        counters = {"events": state["sim"].events_processed}
        counters.update(_storage_counters([state["backend"]],
                                          [state["device"]]))
        return counters

    def drive(self, state, pause) -> None:
        sim, backend = state["sim"], state["backend"]
        zipf, op_rng = state["zipf"], state["op_rng"]
        deadline = sim.now + self.sim_seconds
        window, get_percent = self.version_window, self.get_percent

        def watermark_daemon():
            while sim.now < deadline:
                backend.set_watermark(sim.now - window)
                yield sim.timeout(window / 4)

        def worker(worker_id: int):
            while sim.now < deadline:
                key = zipf.draw()
                is_get = op_rng.random() * 100.0 < get_percent
                start = sim.now
                try:
                    if is_get:
                        yield backend.get(key)
                    else:
                        yield backend.put(key, f"v@{start:.6f}",
                                          Version(start, worker_id))
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    state["failed"] += 1
                    state["errors"].append(f"{key}: {exc!r}")
                    continue
                state["gets" if is_get else "puts"] += 1

        sim.process(watermark_daemon())
        workers = [sim.process(worker(i + 1))
                   for i in range(self.num_workers)]
        _run_sliced(sim, self.sim_seconds, pause)
        for proc in workers:
            sim.run_until_event(proc)

    def _read_back(self, state) -> List[str]:
        """Read every key; each must return its newest retained version."""
        sim, backend = state["sim"], state["backend"]
        problems: List[str] = []

        def reader():
            for key in state["keys"]:
                newest = backend.versions_of(key)[0]
                expected = (f"init-{key}" if newest.timestamp == -1e6
                            else f"v@{newest.timestamp:.6f}")
                result = yield backend.get(key)
                if result != (newest, expected):
                    problems.append(f"{key}: read {result!r}, expected "
                                    f"{(newest, expected)!r}")

        sim.run_until_event(sim.process(reader()))
        return problems

    def finish(self, state) -> Rep:
        sim = state["sim"]
        counters = _delta(self._counters(state), state["before"])
        ops = state["gets"] + state["puts"]
        counters.update({
            "gets": state["gets"],
            "puts": state["puts"],
            "sim_elapsed_s": sim.now,
            "flash_channel_count": state["device"].geometry.num_channels,
        })
        problems = [f"request failed: {e}" for e in state["errors"][:5]]
        problems += self._read_back(state)[:5]
        digest = _digest({"now": sim.now, "counters": counters})
        return Rep(ops=ops, attempted=ops + state["failed"],
                   failed=state["failed"], counters=counters, digest=digest,
                   problems=problems)


WORKLOADS = {w.name: w for w in (RetwisFig8(), YcsbAWal(), KvMftlGc())}
