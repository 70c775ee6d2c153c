"""Tests for the tracing subsystem."""

import pytest

from repro.harness.cluster import Cluster, ClusterConfig
from repro.milana import COMMITTED
from repro.sim import Simulator, Tracer


class TestTracer:
    def test_record_and_render(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.run(until=1.5e-3)
        tracer.record("gc", "collect", victim=7)
        assert len(tracer) == 1
        text = tracer.render()
        assert "[gc] collect" in text
        assert "victim=7" in text
        assert "1.5000ms" in text

    def test_category_filter(self):
        sim = Simulator()
        tracer = Tracer(sim, categories={"rpc"})
        tracer.record("rpc", "kept")
        tracer.record("gc", "dropped")
        assert [r.message for r in tracer.records()] == ["kept"]
        assert not tracer.wants("gc")

    def test_no_filter_traces_everything(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.record("a", "x")
        tracer.record("b", "y")
        assert len(tracer) == 2

    def test_ring_buffer_bounds(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=5)
        for i in range(12):
            tracer.record("t", f"m{i}")
        assert len(tracer) == 5
        assert tracer.dropped == 7
        assert [r.message for r in tracer.records()] == \
            [f"m{i}" for i in range(7, 12)]

    def test_records_query(self):
        sim = Simulator()
        tracer = Tracer(sim)
        for i in range(6):
            tracer.record("even" if i % 2 == 0 else "odd", f"m{i}")
        assert len(tracer.records(category="even")) == 3
        assert [r.message for r in tracer.records(last=2)] == ["m4", "m5"]

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim, capacity=2)
        tracer.record("t", "a")
        tracer.record("t", "b")
        tracer.record("t", "c")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), capacity=0)


class TestProtocolTracing:
    def test_transaction_leaves_rpc_trace(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=1,
            backend="dram", populate_keys=5, seed=127))
        tracer = Tracer(cluster.sim, categories={"rpc"})
        cluster.network.tracer = tracer
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            client.put(txn, "key:0", "traced")
            return (yield client.commit(txn))

        assert cluster.sim.run_until_event(
            cluster.sim.process(work())) == COMMITTED
        # The decide notification is asynchronous; let it land.
        cluster.sim.run(until=cluster.sim.now + 0.01)
        methods = [record.fields.get("method")
                   for record in tracer.records(category="rpc")]
        assert "milana.get" in methods
        assert "milana.prepare" in methods
        assert "milana.decide" in methods

    def test_net_category_sees_drops(self):
        cluster = Cluster(ClusterConfig(
            num_shards=1, replicas_per_shard=3, num_clients=1,
            backend="dram", populate_keys=5, seed=131))
        tracer = Tracer(cluster.sim, categories={"net"})
        cluster.network.tracer = tracer
        cluster.pause_server("srv-0-1")
        client = cluster.clients[0]

        def work():
            txn = client.begin()
            yield client.txn_get(txn, "key:0")
            client.put(txn, "key:0", "x")
            return (yield client.commit(txn))

        cluster.sim.run_until_event(cluster.sim.process(work()))
        cluster.sim.run(until=cluster.sim.now + 0.02)
        drops = [record for record in tracer.records(category="net")
                 if record.message == "drop"]
        assert drops, "messages to the crashed backup must trace as drops"
