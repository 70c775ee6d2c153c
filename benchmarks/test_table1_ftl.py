"""Benchmark regenerating Table 1: single-SSD MFTL vs VFTL performance.

Paper claims validated here (§5.1):

* MFTL delivers higher throughput at read-heavy mixes — at 100 % GET the
  paper measures 456 k vs 351 k req/s (both engines CPU-bound, MFTL's
  single map lookup and single layer crossing winning);
* MFTL's GET latency is lower across mixes with puts present (the paper
  reports up to 7x; the gap here is smaller because our emulated device
  saturates before its queues grow that deep — see EXPERIMENTS.md);
* the paper's 25 % GET row (VFTL slightly ahead via lower packing delay)
  does not reproduce under our device model and is documented as a
  deviation.
"""

from repro.sweep import default_jobs, sweep_experiment


def test_table1_single_ssd_ftl_performance(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "table1", jobs=default_jobs(), scale="full",
            num_keys=4000, duration=0.06, warmup=0.02, num_workers=96),
        rounds=1, iterations=1)
    save_result("table1_ftl", result)

    cells = {row[0]: row for row in result.rows}
    # row: [get%, vftl_kreq, mftl_kreq, vftl_get, mftl_get, vftl_put,
    #       mftl_put]

    # 100% GET: CPU-bound regime calibrated to the paper's absolute
    # numbers (456k vs 351k req/s) within 10%.
    get100 = cells[100]
    assert get100[2] > get100[1], "MFTL must win at 100% GET"
    assert abs(get100[1] - 351.0) / 351.0 < 0.10
    assert abs(get100[2] - 456.0) / 456.0 < 0.10

    # MFTL throughput >= VFTL at every mix with >= 50% GETs.
    for get_percent in (75, 50):
        row = cells[get_percent]
        assert row[2] >= row[1] * 0.98, (
            f"MFTL should not lose at {get_percent}% GET: "
            f"{row[2]} vs {row[1]}")

    # MFTL GET latency strictly lower whenever puts are present.
    for get_percent in (75, 50, 25):
        row = cells[get_percent]
        assert row[4] < row[3], (
            f"MFTL GET latency should beat VFTL at {get_percent}% GET")
