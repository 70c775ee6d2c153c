#!/usr/bin/env python
"""Chaos engineering: rolling failures under an active master.

Runs the Retwis workload while a ChaosMonkey crashes and revives random
backups (never breaking a quorum) and, midway, fail-stops a shard
primary outright. The heartbeat-driven master detects the silence,
promotes a backup, runs the Algorithm 2 recovery merge, and the workload
rides through — this is §3's "global master" plus §4.5's recovery story,
end to end.

Run:  python examples/chaos_with_master.py
"""

from repro.harness.chaos import ChaosMonkey
from repro.harness.cluster import Cluster, ClusterConfig
from repro.sim import SeededRng
from repro.workloads import RetwisInstance


def main():
    cluster = Cluster(ClusterConfig(
        num_shards=2,
        replicas_per_shard=3,
        num_clients=6,
        backend="dram",
        clock_preset="ptp-sw",
        populate_keys=500,
        seed=77,
        with_master=True,          # heartbeats + automatic failover
    ))
    sim = cluster.sim

    monkey = ChaosMonkey(cluster, SeededRng(78),
                         interval=30e-3, downtime=15e-3)
    monkey.start()

    instances = [
        RetwisInstance(sim, client, cluster.populated_keys,
                       cluster.rng.substream(f"chaos{i}"), alpha=0.6)
        for i, client in enumerate(cluster.clients)
    ]
    procs = [instance.run(duration=0.6) for instance in instances]

    # Midway: kill a primary for real (the monkey only takes backups).
    def assassin():
        yield sim.timeout(0.25)
        primary = cluster.directory.shard("shard0").primary
        print(f"t={sim.now * 1e3:5.0f} ms  killing PRIMARY {primary}")
        cluster.pause_server(primary)

    sim.process(assassin())
    for proc in procs:
        sim.run_until_event(proc)
    sim.run(until=sim.now + 0.2)   # let the failover settle

    committed = sum(i.stats.committed for i in instances)
    aborted = sum(i.stats.aborted for i in instances)
    print(f"backup blips injected : {len(monkey.kills)}")
    print(f"primary failovers     : {len(cluster.master.failovers)}")
    for at, shard, dead, successor in cluster.master.failovers:
        print(f"  t={at * 1e3:5.0f} ms  {shard}: {dead} -> {successor} "
              f"(epoch {cluster.master.epochs[shard]})")
    print(f"transactions committed: {committed}  aborted: {aborted}")
    assert cluster.master.failovers, "the master should have failed over"
    assert committed > 500

    # The promoted primary serves reads of pre-failover data.
    client = cluster.clients[0]

    def audit():
        txn = client.begin()
        value = yield client.txn_get(txn, "key:0")
        yield client.commit(txn)
        return value

    value = sim.run_until_event(sim.process(audit()))
    print(f"post-failover read of key:0 -> {value!r}")


if __name__ == "__main__":
    main()
