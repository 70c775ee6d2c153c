"""Ablation points for the design choices DESIGN.md calls out.

These go beyond the paper's published evaluation, quantifying knobs the
text discusses qualitatively:

* **packing delay** (§5.1: "waits up to 1 ms (tunable)") — the
  latency/throughput trade of batching 512 B records into 4 KB pages;
* **replication factor** (§3.2) — the cost of waiting for f of 2f backup
  acknowledgements as the shard grows;
* **watermark dissemination interval** (§4.4) — how quickly version
  garbage becomes collectable vs. broadcast overhead;
* **GC version-retention window** (§3.1: "e.g., keep all versions that
  are less than 5 seconds old") — retained-version footprint vs. snapshot
  availability;
* **client caching** (§4.3) — aggressive caching vs local validation.

As in :mod:`repro.harness.experiments`, each ``ablation_*_cell`` runs one
grid point and returns its cell payload; the grids live in
:mod:`repro.sweep.cells`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..flash.device import FlashDevice
from ..ftl.mftl import MFTLBackend
from ..milana.client import MilanaClient
from ..milana.extensions import CachingMilanaClient
from ..sim.core import Simulator
from ..sim.rng import SeededRng
from ..workloads.microbench import run_kv_microbench
from ..workloads.zipf import ZipfGenerator
from .cluster import Cluster, ClusterConfig
from .experiments import _payload, _table1_geometry
from .runner import run_retwis_on_cluster

__all__ = [
    "ablation_packing_cell",
    "ablation_replication_cell",
    "ablation_watermark_cell",
    "ablation_gc_window_cell",
    "ablation_caching_cell",
]


def ablation_packing_cell(delay: float, num_keys: int, get_percent: float,
                          duration: float, warmup: float,
                          num_workers: int, seed: int) -> Dict[str, Any]:
    """One MFTL packing deadline.

    Zero delay writes a page per record (8x write amplification at 512 B
    records); long delays add put latency when traffic is thin. The 1 ms
    default is the paper's choice.
    """
    sim = Simulator()
    # Size for the zero-delay worst case: one record per page (8x the
    # packed footprint), or the sweep's first point wedges the device.
    device = FlashDevice(sim, _table1_geometry(num_keys * 8))
    backend = MFTLBackend(sim, device, packing_delay=delay)
    result = run_kv_microbench(
        sim, backend, SeededRng(seed).substream(f"d{delay}"),
        num_keys=num_keys, get_percent=get_percent,
        duration=duration, warmup=warmup, num_workers=num_workers,
        version_window=0.005)
    records_per_flush = (
        backend.packer.records_written / backend.packer.pages_written
        if backend.packer.pages_written else 0.0)
    return _payload(
        "Ablation: MFTL packing delay",
        ["delay ms", "kreq/s", "put us", "records/page", "page writes"],
        [[delay * 1e3,
          result.throughput / 1e3,
          result.mean_put_latency * 1e6,
          records_per_flush,
          device.stats.page_writes]],
        "Expected: zero delay maximizes write amplification "
        "(few records per page); large delays raise put latency "
        "under thin traffic. The paper's 1 ms sits on the flat "
        "part of the curve at realistic load.")


def ablation_replication_cell(replicas: int, num_clients: int,
                              num_keys: int, alpha: float,
                              duration: float, warmup: float,
                              seed: int) -> Dict[str, Any]:
    """One shard replication factor (2f+1 replicas).

    SEMEL commits once f of 2f backups acknowledge, so write latency grows
    only with the slowest of the fastest-f backups — the cost of fault
    tolerance should be one round trip, roughly independent of f.
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=replicas,
        num_clients=num_clients, backend="dram",
        clock_preset="ptp-sw", seed=seed, populate_keys=num_keys)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup)
    return _payload(
        "Ablation: replication factor",
        ["replicas", "f", "txn/s", "latency ms", "abort rate"],
        [[replicas,
          (replicas - 1) // 2,
          result.throughput,
          result.mean_latency * 1e3,
          result.abort_rate]],
        "Expected: going from no replication to 3 replicas costs "
        "one backup round trip on the prepare path; 3 -> 5 "
        "replicas costs little more (still one quorum wait).")


def ablation_watermark_cell(interval: float, num_clients: int,
                            num_keys: int, alpha: float, duration: float,
                            warmup: float, seed: int) -> Dict[str, Any]:
    """One client watermark broadcast interval (§4.4).

    Slower dissemination holds the GC watermark back, so storage retains
    more dead versions (memory/flash footprint), but performance is
    unaffected — retention is off the critical path by design.
    """
    config = ClusterConfig(
        num_shards=1, replicas_per_shard=1,
        num_clients=num_clients, backend="dram",
        clock_preset="ptp-sw", seed=seed, populate_keys=num_keys)
    result = run_retwis_on_cluster(
        config, alpha=alpha, duration=duration, warmup=warmup,
        watermark_interval=interval)
    server = result.cluster.servers["srv-0-0"]
    versions = [len(server.backend.versions_of(key))
                for key in result.cluster.populated_keys[:200]]
    return _payload(
        "Ablation: watermark dissemination interval",
        ["interval ms", "txn/s", "mean versions/key", "max versions/key"],
        [[interval * 1e3,
          result.throughput,
          sum(versions) / len(versions),
          max(versions)]],
        "Expected: retained versions grow with the dissemination "
        "interval while throughput stays flat — watermark GC is "
        "off the critical path.")


def ablation_caching_cell(alpha: float, num_clients: int, num_keys: int,
                          txns_per_client: int, seed: int
                          ) -> Dict[str, Any]:
    """§4.3's trade at one contention level: aggressive caching vs
    local validation.

    Read-write-hinted transactions read from the client cache (zero
    round trips per hit) but must validate remotely; the question is
    whether the saved reads beat the extra validation round plus
    stale-cache aborts — and how the answer flips with contention.
    """
    rows = []
    for mode in ("local-validation", "caching"):
        def factory(sim, network, directory, clock, client_id, lv,
                    _mode=mode):
            if _mode == "caching":
                return CachingMilanaClient(
                    sim, network, directory, clock, client_id=client_id)
            return MilanaClient(sim, network, directory, clock,
                                client_id=client_id, local_validation=True)

        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3,
            num_clients=num_clients, backend="dram",
            clock_preset="ptp-sw", seed=seed,
            populate_keys=num_keys, client_factory=factory))
        sim = cluster.sim

        def client_loop(client, index):
            rng = cluster.rng.substream(f"cache{index}")
            zipf = ZipfGenerator(rng.substream("zipf"),
                                 cluster.populated_keys, alpha)
            for i in range(txns_per_client):
                txn = (client.begin(read_write_hint=True)
                       if mode == "caching" else client.begin())
                keys = zipf.draw_distinct(4)
                for key in keys:
                    yield client.txn_get(txn, key)
                if rng.random() < 0.3:
                    client.put(txn, keys[0], f"w{i}")
                yield client.commit(txn)

        procs = [sim.process(client_loop(client, index))
                 for index, client in enumerate(cluster.clients)]
        start = sim.now
        for proc in procs:
            sim.run_until_event(proc)
        elapsed = sim.now - start
        committed = sum(c.stats.committed for c in cluster.clients)
        aborted = sum(c.stats.aborted for c in cluster.clients)
        hit_rate = 0.0
        if mode == "caching":
            hits = sum(c.cache_hits for c in cluster.clients)
            misses = sum(c.cache_misses for c in cluster.clients)
            hit_rate = hits / (hits + misses) if hits + misses else 0
        decided = committed + aborted
        rows.append([
            alpha, mode,
            committed / elapsed if elapsed else 0.0,
            aborted / decided if decided else 0.0,
            hit_rate,
        ])
    return _payload(
        "Ablation: aggressive client caching vs local validation "
        "(section 4.3 future work)",
        ["alpha", "mode", "txn/s", "abort rate", "cache hit rate"],
        rows,
        "Expected: caching wins when hit rates are high and "
        "contention low (saved read round trips); under high "
        "contention stale-cache aborts and mandatory remote "
        "validation erode the gain — the trade the paper "
        "anticipates.")


def ablation_gc_window_cell(window: float, num_keys: int,
                            get_percent: float, duration: float,
                            warmup: float, num_workers: int,
                            seed: int) -> Dict[str, Any]:
    """One version-retention window (§3.1's tunable threshold).

    Longer windows serve older snapshots (long-running analytics reads)
    at the cost of more live data on flash — hence more GC remapping.
    """
    sim = Simulator()
    backend = MFTLBackend(sim, FlashDevice(sim, _table1_geometry(num_keys)))
    result = run_kv_microbench(
        sim, backend, SeededRng(seed).substream(f"w{window}"),
        num_keys=num_keys, get_percent=get_percent,
        duration=duration, warmup=warmup, num_workers=num_workers,
        version_window=window)
    return _payload(
        "Ablation: GC version-retention window",
        ["window ms", "kreq/s", "records remapped", "records discarded"],
        [[window * 1e3,
          result.throughput / 1e3,
          backend.stats.records_remapped,
          backend.stats.records_discarded]],
        "Expected: larger windows retain more versions, forcing "
        "GC to remap more live records per reclaimed block.")
