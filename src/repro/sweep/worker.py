"""Run one sweep cell; return a typed, picklable result.

Every cell runner is a point function taking the cell's parameters as
keywords and returning the same payload shape — a dict with
``name``/``headers``/``rows``/``series``/``notes``, i.e. an
:class:`~repro.harness.experiments.ExperimentResult` flattened to plain
lists — so merging is uniform across figures, ablations, nemesis
scenarios and sansim trials, and the merged report serializes
identically whether a cell was computed in-process, in a spawn worker,
or loaded from the on-disk cache.

Determinism: the payload is normalized by :func:`_jsonify` (tuples to
lists, nothing else touched — floats keep their exact values, and
``repr``/JSON of a float is the shortest round-trip form, identical in
every CPython process on a platform). The fingerprint is a SHA-256 over
the canonical JSON serialization, so equal payloads always hash equal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict

from ..bench.runner import host_clock
from .cells import SweepCell

__all__ = ["CellResult", "run_cell", "canonical_json", "payload_fingerprint"]


@dataclass(frozen=True)
class CellResult:
    """The outcome of one cell: payload + provenance.

    ``payload`` is deterministic (identical for identical cell params
    and code); ``host_seconds`` and ``cache_hit`` are provenance only
    and are excluded from merged reports and fingerprints.
    """

    sweep: str
    index: int
    label: str
    payload: Dict[str, Any]
    fingerprint: str
    host_seconds: float
    cache_hit: bool = False

    def as_cached(self) -> "CellResult":
        return replace(self, cache_hit=True, host_seconds=0.0)


def canonical_json(value: Any) -> str:
    """The one serialization fingerprints and cache keys are built on."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalize to exactly what ``json.load`` would return.

    Tuples become lists and dict keys become strings; scalars pass
    through untouched. Cached results round-trip through JSON, so fresh
    results must already be in that normal form for byte-equality.
    """
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(
        f"cell payloads must be JSON-safe; got {type(value).__name__}: "
        f"{value!r}")


# ---------------------------------------------------------------------------
# Cell runners not owned by the harness point modules. Imports are
# deferred so a spawn worker only pays for the subsystems its cells touch.
# ---------------------------------------------------------------------------

def _nemesis_cell(scenario: str, workload: str, duration: float,
                  fault_start: float, fault_duration: float,
                  alpha: float) -> Dict[str, Any]:
    from ..harness.nemesis import nemesis_config, run_nemesis

    config = nemesis_config(
        with_master=(scenario == "isolate-master"))
    result = run_nemesis(
        scenario, config=config, workload=workload,
        duration=duration, fault_start=fault_start,
        fault_duration=fault_duration, alpha=alpha)
    metrics = result.metrics
    return {
        "name": "Nemesis scenario sweep",
        "headers": ["scenario", "committed", "aborted", "abort rate",
                    "txn/s", "audit passed", "records synced"],
        "rows": [[scenario, metrics.committed, metrics.aborted,
                  metrics.abort_rate, metrics.throughput,
                  result.passed, result.records_synced]],
        "series": {},
        "notes": "Every scenario must pass its post-heal audit.",
    }


def _sansim_cell(workload: str, trial: int, policy: str,
                 seed: int) -> Dict[str, Any]:
    from ..sansim.explorer import TrialSpec, run_trial

    spec = TrialSpec(workload=workload, trial=trial, policy=policy,
                     seed=seed)
    result = run_trial(spec)
    fingerprints = sorted({w.fingerprint for w in result.witnesses})
    return {
        "name": "Sansim trial sweep",
        "headers": ["workload", "trial", "policy", "witnesses",
                    "distinct fingerprints"],
        "rows": [[spec.workload, spec.trial, spec.policy,
                  len(result.witnesses), len(fingerprints)]],
        "series": {},
        "notes": "Feedback-free policies only (fifo/random); targeted "
                 "trials need cross-trial state and stay serial.",
    }


def _selftest_cell(value: int, fail: bool, seed: int) -> Dict[str, Any]:
    if fail:
        raise ValueError("selftest cell failure injected via fail_at")
    return {
        "name": "Sweep selftest",
        "headers": ["value", "square", "scaled"],
        "rows": [[value, value * value, value * 0.1 + seed]],
        "series": {"square": [[value], [value * value]]},
        "notes": "",
    }


def _runner_for(name: str) -> Callable[..., Dict[str, Any]]:
    """The point function for runner ``name``.

    Rebuilt per call rather than held as module state (PAR001). The
    point modules are imported only for their own runners, so spawn
    workers running only selftest cells never load the harness.
    """
    local: Dict[str, Callable[..., Dict[str, Any]]] = {
        "nemesis_cell": _nemesis_cell,
        "sansim_cell": _sansim_cell,
        "selftest_cell": _selftest_cell,
    }
    if name in local:
        return local[name]
    from ..harness import ablations, experiments

    points: Dict[str, Callable[..., Dict[str, Any]]] = {
        "table1_cell": experiments.table1_cell,
        "figure1_cell": experiments.figure1_cell,
        "figure6_cell": experiments.figure6_cell,
        "figure7_cell": experiments.figure7_cell,
        "figure8_cell": experiments.figure8_cell,
        "figure9_cell": experiments.figure9_cell,
        "ablation_packing_cell": ablations.ablation_packing_cell,
        "ablation_replication_cell": ablations.ablation_replication_cell,
        "ablation_watermark_cell": ablations.ablation_watermark_cell,
        "ablation_gc_window_cell": ablations.ablation_gc_window_cell,
        "ablation_caching_cell": ablations.ablation_caching_cell,
    }
    if name not in points:
        raise ValueError(f"unknown cell runner {name!r}")
    return points[name]


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell in the current process and package the result."""
    runner = _runner_for(cell.runner)
    start = host_clock()
    payload = _jsonify(runner(**cell.params_dict()))
    seconds = host_clock() - start
    return CellResult(
        sweep=cell.sweep, index=cell.index, label=cell.label,
        payload=payload, fingerprint=payload_fingerprint(payload),
        host_seconds=seconds, cache_hit=False)
