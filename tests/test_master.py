"""Tests for the global master: heartbeats, failure detection, automatic
failover."""

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED
from repro.semel import Master
from repro.wire import MasterLookup


def make_cluster(**overrides):
    defaults = dict(num_shards=1, replicas_per_shard=3, num_clients=1,
                    backend="dram", clock_preset="perfect", seed=97,
                    populate_keys=20, with_master=True)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


class TestFailureDetection:
    def test_heartbeats_keep_servers_alive(self):
        cluster = make_cluster()
        cluster.sim.run(until=0.2)
        for server in cluster.servers:
            assert cluster.master.is_alive(server)
        assert cluster.master.failovers == []

    def test_silent_server_declared_dead(self):
        cluster = make_cluster()
        cluster.sim.run(until=0.1)
        cluster.pause_server("srv-0-2")  # a backup
        cluster.sim.run(until=0.3)
        assert not cluster.master.is_alive("srv-0-2")
        # Backups dying does not trigger failover.
        assert cluster.master.failovers == []
        assert cluster.directory.shard("shard0").primary == "srv-0-0"

    def test_recovered_server_marked_alive_again(self):
        cluster = make_cluster()
        cluster.sim.run(until=0.1)
        cluster.pause_server("srv-0-2")
        cluster.sim.run(until=0.3)
        assert not cluster.master.is_alive("srv-0-2")
        cluster.unpause_server("srv-0-2")
        cluster.sim.run(until=0.4)
        assert cluster.master.is_alive("srv-0-2")

    def test_validates_timeout_configuration(self):
        cluster = make_cluster(with_master=False)
        with pytest.raises(ValueError):
            Master(cluster.sim, cluster.network, cluster.directory,
                   cluster.servers, heartbeat_interval=0.05,
                   failure_timeout=0.04)


class TestAutoFailover:
    def _commit(self, cluster, client, key, value):
        def work():
            txn = client.begin()
            yield client.txn_get(txn, key)
            client.put(txn, key, value)
            return (yield client.commit(txn))

        return cluster.sim.run_until_event(cluster.sim.process(work()))

    def test_primary_death_triggers_promotion_and_recovery(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.sim.run(until=0.05)
        assert self._commit(cluster, client, "key:0", "gen1") == COMMITTED
        cluster.sim.run(until=cluster.sim.now + 0.02)

        cluster.pause_server("srv-0-0")
        cluster.sim.run(until=cluster.sim.now + 0.3)

        assert len(cluster.master.failovers) == 1
        _, shard, dead, successor = cluster.master.failovers[0]
        assert shard == "shard0"
        assert dead == "srv-0-0"
        assert successor in ("srv-0-1", "srv-0-2")
        assert cluster.directory.shard("shard0").primary == successor
        assert cluster.master.epochs["shard0"] == 1

        # Data survives and the shard serves again.
        def check():
            txn = client.begin()
            value = yield client.txn_get(txn, "key:0")
            yield client.commit(txn)
            return value

        assert cluster.sim.run_until_event(
            cluster.sim.process(check())) == "gen1"
        assert self._commit(cluster, client, "key:0", "gen2") == COMMITTED

    def test_no_failover_without_majority(self):
        cluster = make_cluster()
        cluster.sim.run(until=0.05)
        cluster.pause_server("srv-0-0")
        cluster.pause_server("srv-0-1")
        cluster.pause_server("srv-0-2")
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert cluster.master.failovers == []

    def test_cascading_failover(self):
        """Kill the new primary too: the master promotes the last one."""
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.sim.run(until=0.05)
        assert self._commit(cluster, client, "key:1", "v1") == COMMITTED
        cluster.sim.run(until=cluster.sim.now + 0.02)

        cluster.pause_server("srv-0-0")
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert len(cluster.master.failovers) == 1
        first_successor = cluster.master.failovers[0][3]

        # With only 2 of 3 replicas, killing the new primary leaves no
        # majority: no further failover may complete.
        cluster.pause_server(first_successor)
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert len(cluster.master.failovers) == 1

        # Bring the first dead server back: now a majority exists again
        # and the detector completes the second failover.
        cluster.unpause_server("srv-0-0")
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert len(cluster.master.failovers) == 2

    def test_multi_shard_independent_failover(self):
        cluster = make_cluster(num_shards=2, populate_keys=40)
        cluster.sim.run(until=0.05)
        primary0 = cluster.directory.shard("shard0").primary
        cluster.pause_server(primary0)
        cluster.sim.run(until=cluster.sim.now + 0.3)
        assert len(cluster.master.failovers) == 1
        assert cluster.master.epochs["shard0"] == 1
        assert cluster.master.epochs["shard1"] == 0


class TestLookupService:
    def test_lookup_single_key(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.sim.run(until=0.05)
        reply = cluster.sim.run_until_event(
            client.node.call("master", "master.lookup",
                             MasterLookup(key="key:0")))
        assert reply.shard == "shard0"
        assert reply.primary == "srv-0-0"
        assert reply.epoch == 0

    def test_lookup_full_map(self):
        cluster = make_cluster(num_shards=2, populate_keys=10)
        client = cluster.clients[0]
        cluster.sim.run(until=0.05)
        reply = cluster.sim.run_until_event(
            client.node.call("master", "master.lookup", MasterLookup()))
        assert set(reply.shards) == {"shard0", "shard1"}
        assert all(len(info["replicas"]) == 3
                   for info in reply.shards.values())

    def test_lookup_reflects_promotion(self):
        cluster = make_cluster()
        client = cluster.clients[0]
        cluster.sim.run(until=0.05)
        cluster.pause_server("srv-0-0")
        cluster.sim.run(until=cluster.sim.now + 0.3)
        reply = cluster.sim.run_until_event(
            client.node.call("master", "master.lookup",
                             MasterLookup(key="key:0")))
        assert reply.primary != "srv-0-0"
        assert reply.epoch == 1
