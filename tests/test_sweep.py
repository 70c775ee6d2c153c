"""Tier-1 tests for the deterministic parallel sweep runner.

The contract under test: for any ``-j`` value and any cache state, a
sweep's merged report is **byte-identical** to the serial run — workers
race only for completion order, which the canonical-order merge
discards. The cheap hidden ``selftest`` sweep keeps the parallel
determinism tests fast; every real sweep, run once on a tiny grid, pins
the SHA-256 of its merged rendering.
"""

import hashlib
import json

import pytest

from repro.sweep import (
    CellCache,
    SweepWorkerError,
    code_fingerprint,
    default_jobs,
    run_cell,
    run_sweep,
    sweep_cells,
    sweep_experiment,
    sweep_names,
)

# ---------------------------------------------------------------------------
# Cell enumeration
# ---------------------------------------------------------------------------


class TestCellEnumeration:
    def test_canonical_order_and_indices(self):
        cells = sweep_cells("figure8", scale="quick")
        assert [cell.index for cell in cells] == list(range(len(cells)))
        # Canonical order is the serial driver's loop nesting:
        # backend-major, then local-validation, then client count.
        assert cells[0].label.startswith("dram/LV")
        assert all(cell.sweep == "figure8" for cell in cells)

    def test_full_grid_is_superset_scale(self):
        quick = sweep_cells("figure7", scale="quick")
        full = sweep_cells("figure7", scale="full")
        assert len(full) > len(quick)

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep_cells("figure99")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            sweep_cells("figure8", scale="medium")

    def test_unknown_override_rejected(self):
        # Typos must not silently shrink a sweep.
        with pytest.raises(ValueError, match="unknown sweep override"):
            sweep_cells("figure8", client_count=(8,))

    def test_sweep_names_hides_selftest(self):
        names = sweep_names()
        assert "selftest" not in names
        assert "figure8" in names
        assert "selftest" in sweep_names(include_hidden=True)

    def test_cells_are_picklable_and_hashable(self):
        import pickle

        cells = sweep_cells("selftest")
        assert len({hash(cell) for cell in cells}) == len(cells)
        clone = pickle.loads(pickle.dumps(cells[0]))
        assert clone == cells[0]


# ---------------------------------------------------------------------------
# Parallel determinism: byte-identical reports across -j values
# ---------------------------------------------------------------------------


class TestParallelDeterminism:
    def test_report_identical_across_j1_j2_j4(self):
        reports = {}
        for jobs in (1, 2, 4):
            result = run_sweep("selftest", jobs=jobs)
            assert result.jobs == jobs
            reports[jobs] = result.report_json()
        assert reports[1] == reports[2]
        assert reports[1] == reports[4]

    def test_render_identical_serial_vs_parallel(self):
        serial = run_sweep("selftest", jobs=1).render()
        parallel = run_sweep("selftest", jobs=2).render()
        assert serial == parallel

    def test_results_arrive_in_canonical_order(self):
        result = run_sweep("selftest", jobs=2)
        assert [r.index for r in result.results] == [0, 1, 2, 3]

    def test_default_jobs_is_at_least_one(self):
        assert default_jobs() >= 1


#: Tiny grid per sweep -> SHA-256 of the merged ``render()``. The digests
#: were recorded from the serial per-figure drivers (table 1 and figure 9)
#: and the sweep runner (the rest) that the point functions replaced, so
#: a mismatch means a figure's numbers or layout moved.
GOLDEN_RENDERS = {
    "table1": (dict(get_percents=(100, 25), num_keys=400, duration=0.01,
                    warmup=0.005, num_workers=16, seed=7),
               "955342f2240355e409a6351dbfc3226886f1ae2baac7a7415483816217a4021b"),
    "figure1": (dict(write_latencies=(0.2e-6, 100e-6), skews=(0.0, 1e-3),
                     rounds=10),
                "1dac145325d8cd3d0c5dad4b6291e0d72dfb5665a1d62c4caf96c599707443f7"),
    "figure6": (dict(client_counts=(2,), alphas=(0.95,), num_keys=100,
                     duration=0.03, warmup=0.01),
                "3a3aa14955954378d3d9535d5f5373157af8c1396a2b758f1611ee1f648d45b2"),
    "figure7": (dict(alphas=(0.8,), clock_presets=("ntp",),
                     backends=("dram", "mftl"), num_clients=4,
                     num_keys=200, duration=0.03, warmup=0.01),
                "129c062df757f45759c0cbda792bf43658f7d55ab36636159e88a66aae4e7f8e"),
    "figure8": (dict(client_counts=(4,), backends=("dram",), num_keys=300,
                     duration=0.03, warmup=0.01),
                "16e109673d2c370cb97ad3d60777e1805760a1bb4a1e2ada9946ff85594db339"),
    "figure9": (dict(alphas=(0.4, 0.8), num_clients=4, num_keys=300,
                     duration=0.03, warmup=0.01, dissemination_every=15,
                     seed=19),
                "5966cdcf2a5ab5450f92b1d68239e5f72e3a6b6bb18da3f0d4a97bc9e9516b63"),
    "ablation-packing": (dict(delays=(0.0, 1e-3), num_keys=400,
                              duration=0.01, warmup=0.005, num_workers=8),
                         "d9c35a9261318675ed46fe711466edd074b1650b8e9c2d6dc7e39a3be7ce783f"),
    "ablation-replication": (dict(replica_counts=(1, 3), num_clients=2,
                                  num_keys=200, duration=0.03,
                                  warmup=0.01),
                             "966c4dc0ba1e230a32b5f72fe0cd2b45a24d0102e043cbfdc397a174e0452c8e"),
    "ablation-watermark": (dict(intervals=(0.01, 0.05), num_clients=2,
                                num_keys=200, duration=0.03, warmup=0.01),
                           "11ff0467111710f1e0cbbd3bd55e0b11251c708dedc8012900e8ebccff56d618"),
    "ablation-gc-window": (dict(windows=(0.002, 0.01), num_keys=400,
                                duration=0.01, warmup=0.005,
                                num_workers=8),
                           "f70ff14d44e9d0683078ae2ade90bbe8239f9c9a9f138824dc0dc13f64baa830"),
    "ablation-caching": (dict(alphas=(0.8,), num_clients=2, num_keys=200,
                              txns_per_client=10),
                         "39718fcdac9b311c6a976d97ef2c4956643edf56c140e37f2a5718316299e8c4"),
    "nemesis": (dict(scenarios=("partition",), duration=0.08,
                     fault_start=0.02, fault_duration=0.03),
                "b9df8942f748c0862631632eccc93ed6c36d1c4442bf0fa765355772a4d1d879"),
    "sansim": (dict(workloads=("ctp-race",), trials=2),
               "a18e50f6a312a877ac100caaef73738944d9d3eb672daad8605994f690d38966"),
}


class TestSweepGoldens:
    def test_every_sweep_has_a_golden(self):
        assert sorted(GOLDEN_RENDERS) == sorted(sweep_names())

    @pytest.mark.parametrize("name", sorted(GOLDEN_RENDERS))
    def test_merged_render_matches_golden(self, name):
        overrides, digest = GOLDEN_RENDERS[name]
        merged = sweep_experiment(name, jobs=1, scale="quick", **overrides)
        rendered = merged.render()
        assert hashlib.sha256(rendered.encode()).hexdigest() == digest, \
            rendered


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


class TestCellCache:
    def test_cold_then_warm_accounting(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cold = run_sweep("selftest", cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(cold.results)
        warm = run_sweep("selftest", cache=cache)
        assert warm.cache_hits == len(warm.results)
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0

    def test_cached_report_is_byte_identical(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cold = run_sweep("selftest", cache=cache)
        warm = run_sweep("selftest", cache=cache)
        assert cold.report_json() == warm.report_json()

    def test_config_change_misses(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        run_sweep("selftest", cache=cache)
        changed = run_sweep("selftest", cache=cache,
                            overrides={"seed": 2})
        assert changed.cache_hits == 0

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        run_sweep("selftest", cache=CellCache(root))
        stale = CellCache(root, code_fp="f" * 64)
        rerun = run_sweep("selftest", cache=stale)
        assert rerun.cache_hits == 0
        assert rerun.cache_misses == len(rerun.results)

    def test_refresh_recomputes_and_overwrites(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        run_sweep("selftest", cache=cache)
        refreshed = run_sweep("selftest", cache=cache, refresh=True)
        assert refreshed.cache_hits == 0
        # The overwritten entries still serve the next run.
        warm = run_sweep("selftest", cache=cache)
        assert warm.cache_hits == len(warm.results)

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cell = sweep_cells("selftest")[0]
        cache.put(cell, run_cell(cell))
        path = cache._path_for(cache.key_for(cell))
        path.write_text("{ torn json")
        assert cache.get(cell) is None
        assert cache.misses == 1

    def test_tampered_payload_fails_fingerprint_check(self, tmp_path):
        cache = CellCache(str(tmp_path / "cache"))
        cell = sweep_cells("selftest")[0]
        cache.put(cell, run_cell(cell))
        path = cache._path_for(cache.key_for(cell))
        entry = json.loads(path.read_text())
        entry["payload"]["rows"][0][1] = 999
        path.write_text(json.dumps(entry))
        assert cache.get(cell) is None

    def test_code_fingerprint_is_stable_hex(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64
        int(first, 16)


# ---------------------------------------------------------------------------
# Failure surfacing
# ---------------------------------------------------------------------------


class TestWorkerFailures:
    def test_serial_failure_names_the_cell(self):
        with pytest.raises(SweepWorkerError, match=r"selftest#2"):
            run_sweep("selftest", jobs=1,
                      overrides={"fail_at": 2})

    def test_parallel_failure_names_the_cell(self):
        with pytest.raises(SweepWorkerError, match=r"selftest#2"):
            run_sweep("selftest", jobs=2,
                      overrides={"fail_at": 2})

    def test_failure_message_carries_original_error(self):
        with pytest.raises(SweepWorkerError,
                           match="ValueError.*fail_at"):
            run_sweep("selftest", overrides={"fail_at": 0})
