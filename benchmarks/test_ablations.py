"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's published evaluation — these quantify knobs the
text discusses qualitatively (packing delay, replication factor,
watermark dissemination, GC retention window).
"""

from repro.sweep import default_jobs, sweep_experiment


def test_packing_delay_ablation(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "ablation-packing", jobs=default_jobs(), scale="full",
            delays=(0.0, 0.5e-3, 1e-3), num_keys=2000,
            duration=0.05, warmup=0.015, num_workers=48),
        rounds=1, iterations=1)
    save_result("ablation_packing_delay", result)
    by_delay = {row[0]: row for row in result.rows}
    # rows: [delay_ms, kreq/s, put_us, records_per_page, page_writes]
    # Zero delay packs ~1 record per page; with a deadline, pages fill.
    assert by_delay[0.0][3] < by_delay[1.0][3]
    # Write amplification: zero delay issues far more page writes.
    assert by_delay[0.0][4] > by_delay[1.0][4]


def test_replication_factor_ablation(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "ablation-replication", jobs=default_jobs(), scale="full",
            replica_counts=(1, 3), num_clients=6, num_keys=800,
            duration=0.15, warmup=0.04),
        rounds=1, iterations=1)
    save_result("ablation_replication_factor", result)
    by_replicas = {row[0]: row for row in result.rows}
    # rows: [replicas, f, txn/s, latency_ms, abort_rate]
    # Replication costs latency (the backup round trip on prepares).
    assert by_replicas[3][3] > by_replicas[1][3]
    # But the shard keeps committing at a healthy rate.
    assert by_replicas[3][2] > 0.4 * by_replicas[1][2]


def test_watermark_interval_ablation(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "ablation-watermark", jobs=default_jobs(), scale="full",
            intervals=(0.01, 0.2), num_clients=6, num_keys=400,
            duration=0.25, warmup=0.05),
        rounds=1, iterations=1)
    save_result("ablation_watermark_interval", result)
    by_interval = {row[0]: row for row in result.rows}
    # rows: [interval_ms, txn/s, mean_versions, max_versions]
    # Slower dissemination retains more versions...
    assert by_interval[200.0][2] >= by_interval[10.0][2]
    # ...while throughput stays in the same ballpark (off critical path).
    assert by_interval[200.0][1] > 0.8 * by_interval[10.0][1]


def test_gc_window_ablation(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "ablation-gc-window", jobs=default_jobs(), scale="full",
            windows=(0.002, 0.02), num_keys=2000,
            duration=0.06, warmup=0.02, num_workers=48),
        rounds=1, iterations=1)
    save_result("ablation_gc_window", result)
    by_window = {row[0]: row for row in result.rows}
    # rows: [window_ms, kreq/s, remapped, discarded]
    # A longer retention window forces GC to move more live records.
    assert by_window[20.0][2] >= by_window[2.0][2]


def test_client_caching_ablation(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "ablation-caching", jobs=default_jobs(), scale="full",
            num_clients=4, txns_per_client=80),
        rounds=1, iterations=1)
    save_result("ablation_client_caching", result)
    by_cell = {(row[0], row[1]): row for row in result.rows}
    # rows: [alpha, mode, txn/s, abort_rate, hit_rate]
    # Caching pays mandatory remote validation; under contention its
    # abort rate exceeds local validation's.
    assert by_cell[(0.8, "caching")][3] > \
        by_cell[(0.8, "local-validation")][3]
    # The cache does get hits (it is functioning).
    assert by_cell[(0.8, "caching")][4] > 0.05
