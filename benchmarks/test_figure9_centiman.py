"""Benchmark regenerating Figure 9: MILANA vs Centiman local validation.

Paper claims (§5.3):

* under low contention the two systems deliver similar throughput;
* under high contention Centiman's watermark check fails on hot (recently
  written) keys, forcing remote validation: its locally-validated
  fraction collapses (89 % -> 25 % in the paper) and MILANA ends up ~20 %
  ahead on throughput, while MILANA locally validates *all* read-only
  transactions.
"""

from repro.sweep import default_jobs, sweep_experiment


def test_figure9_centiman_comparison(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: sweep_experiment(
            "figure9", jobs=default_jobs(), scale="full",
            alphas=(0.4, 0.8),
            num_clients=18,
            num_keys=2000,
            duration=0.25,
            warmup=0.05,
            dissemination_every=100),
        rounds=1, iterations=1)
    save_result("figure9_centiman", result)

    by_cell = {(row[0], row[1]): row for row in result.rows}
    # rows: [system, alpha, txn/s, lv_fraction, abort_rate]

    # MILANA locally validates every read-only transaction.
    for alpha in (0.4, 0.8):
        assert by_cell[("milana", alpha)][3] == 1.0

    # Centiman's locally-validated fraction collapses with contention.
    cent_low = by_cell[("centiman", 0.4)][3]
    cent_high = by_cell[("centiman", 0.8)][3]
    assert cent_low > cent_high, (
        f"Centiman LV fraction should fall with contention: "
        f"{cent_low} -> {cent_high}")
    assert cent_high < 0.6

    # Similar throughput at low contention; MILANA ahead at high.
    milana_low = by_cell[("milana", 0.4)][2]
    cent_low_tput = by_cell[("centiman", 0.4)][2]
    assert abs(milana_low - cent_low_tput) / milana_low < 0.20

    milana_high = by_cell[("milana", 0.8)][2]
    cent_high_tput = by_cell[("centiman", 0.8)][2]
    assert milana_high > cent_high_tput
