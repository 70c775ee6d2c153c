"""Cell enumeration: decompose a sweep into independent grid points.

A *cell* is one independently runnable grid point of an experiment
sweep: a point function from :mod:`repro.harness.experiments` or
:mod:`repro.harness.ablations` (or a nemesis/sansim/selftest runner in
:mod:`repro.sweep.worker`) called with the cell's parameters. Each point
builds a fresh ``Simulator`` and derives its RNG from a fixed seed (or a
per-point substream that draws nothing from the parent), so a point run
alone is bit-identical to the same point run anywhere else.

This module is the one place where every sweep's grid values — full and
quick scale — and loop nesting are written. Cells are enumerated in
**canonical order** (outermost axis first), and merging results in cell
order gives a figure's rows in that order. Grid parameters may be
overridden per sweep invocation (``sweep_experiment("figure8",
client_counts=(8,))``); unknown keys raise.

Parallelism hygiene (simlint rule PAR001): this module keeps **no**
module-level mutable state — sweep definitions are plain functions and
the registry is rebuilt per call — because every module imported by a
sweep worker is re-imported in a fresh spawn-context interpreter and
module state would silently diverge between parent and workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = ["SweepCell", "sweep_cells", "sweep_names"]


@dataclass(frozen=True)
class SweepCell:
    """One independently runnable grid point of a sweep.

    ``params`` is a tuple of ``(name, value)`` pairs (scalars only) so
    the cell is hashable, picklable and JSON-stable — the cache key is
    derived from it. ``index`` is the cell's position in canonical
    order; results merge sorted by ``index``.
    """

    sweep: str
    index: int
    label: str
    runner: str
    params: Tuple[Tuple[str, Any], ...]

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


def _cell(sweep: str, index: int, label: str, runner: str,
          params: Dict[str, Any]) -> SweepCell:
    return SweepCell(sweep=sweep, index=index, label=label, runner=runner,
                     params=tuple(sorted(params.items())))


def _merged(defaults: Dict[str, Any],
            overrides: Dict[str, Any]) -> Dict[str, Any]:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown sweep override(s) {sorted(unknown)}; expected a "
            f"subset of {sorted(defaults)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


# ---------------------------------------------------------------------------
# Sweep definitions: the only place grid values and loop nesting live.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Grid:
    """One sweep as a product grid.

    ``axes`` lists ``(grid key, cell parameter)`` pairs, outermost loop
    first; each cell takes one value per axis and shares every other
    grid value. An axis whose first element is a tuple of values rather
    than a grid key is fixed: it cannot be overridden. ``full`` holds
    every grid value at full scale and ``quick`` only those the CI scale
    changes.
    """

    runner: str
    axes: Tuple[Tuple[Any, str], ...]
    label: Callable[[Dict[str, Any]], str]
    full: Dict[str, Any]
    quick: Dict[str, Any]

    def cells(self, sweep: str, scale: str,
              overrides: Dict[str, Any]) -> List[SweepCell]:
        defaults = dict(self.full)
        if scale == "quick":
            defaults.update(self.quick)
        grid = _merged(defaults, overrides)
        axis_values = [grid.pop(key) if isinstance(key, str) else key
                       for key, _ in self.axes]
        cells = []
        for values in itertools.product(*axis_values):
            params = dict(grid)
            params.update(zip((param for _, param in self.axes), values))
            cells.append(_cell(sweep, len(cells), self.label(params),
                               self.runner, params))
        return cells


def _one_axis(param: str) -> Callable[[Dict[str, Any]], str]:
    return lambda p: f"{param}={p[param]:g}"


def _grids() -> Dict[str, _Grid]:
    # Import deferred: cells.py is imported by spawn workers.
    from ..harness.nemesis import SCENARIOS

    return {
        "table1": _Grid(
            "table1_cell", (("get_percents", "get_percent"),),
            lambda p: f"get={p['get_percent']:g}",
            {"get_percents": (100, 75, 50, 25), "num_keys": 4000,
             "duration": 0.12, "warmup": 0.04, "num_workers": 128,
             "seed": 7},
            {"num_keys": 2000, "duration": 0.05, "warmup": 0.02,
             "num_workers": 64}),
        "figure1": _Grid(
            "figure1_cell",
            (("write_latencies", "write_latency"), ("skews", "skew")),
            lambda p: (f"tw={p['write_latency'] * 1e6:g}us/"
                       f"eps={p['skew'] * 1e6:g}us"),
            {"write_latencies": (0.2e-6, 100e-6),
             "skews": (0.0, 1e-6, 10e-6, 100e-6, 1e-3),
             "rounds": 150, "seed": 3},
            {"rounds": 60}),
        # Each figure-6 cell runs both FTL backends, so its rows merge
        # alpha-major: (sftl, mftl) per (alpha, clients).
        "figure6": _Grid(
            "figure6_cell",
            (("alphas", "alpha"), ("client_counts", "num_clients")),
            lambda p: f"a={p['alpha']:g}/c={p['num_clients']}",
            {"client_counts": (2, 4, 8, 12, 16),
             "alphas": (0.5, 0.75, 0.95), "num_keys": 400,
             "duration": 0.4, "warmup": 0.1, "seed": 11},
            {"client_counts": (2, 8), "alphas": (0.5, 0.95),
             "num_keys": 200, "duration": 0.15, "warmup": 0.04}),
        "figure7": _Grid(
            "figure7_cell",
            (("clock_presets", "clock_preset"), ("backends", "backend"),
             ("alphas", "alpha")),
            lambda p: f"{p['clock_preset']}/{p['backend']}/a={p['alpha']:g}",
            {"alphas": (0.4, 0.5, 0.6, 0.7, 0.8),
             "clock_presets": ("ptp-sw", "ntp"),
             "backends": ("dram", "vftl", "mftl"),
             "num_clients": 20, "num_keys": 1000,
             "duration": 0.4, "warmup": 0.1, "seed": 13},
            {"alphas": (0.5, 0.8), "backends": ("dram", "mftl"),
             "num_clients": 10, "duration": 0.2, "warmup": 0.05}),
        "figure8": _Grid(
            "figure8_cell",
            (("backends", "backend"), ("local_validation", "local_validation"),
             ("client_counts", "num_clients")),
            lambda p: (f"{p['backend']}/"
                       f"{'LV' if p['local_validation'] else 'noLV'}/"
                       f"c={p['num_clients']}"),
            {"client_counts": (4, 8, 16, 28, 40),
             "backends": ("dram", "vftl", "mftl"),
             "local_validation": (True, False),
             "alpha": 0.6, "num_keys": 3000,
             "duration": 0.4, "warmup": 0.1, "seed": 17},
            {"client_counts": (8, 24), "backends": ("dram", "mftl"),
             "duration": 0.15, "warmup": 0.04}),
        "figure9": _Grid(
            "figure9_cell",
            ((("milana", "centiman"), "system"), ("alphas", "alpha")),
            lambda p: f"{p['system']}/a={p['alpha']:g}",
            {"alphas": (0.4, 0.5, 0.6, 0.7, 0.8),
             "num_clients": 20, "num_keys": 10000, "duration": 0.3,
             "warmup": 0.05, "dissemination_every": 15, "seed": 19},
            {"alphas": (0.4, 0.8), "num_clients": 12, "num_keys": 4000,
             "duration": 0.2}),
        "ablation-packing": _Grid(
            "ablation_packing_cell", (("delays", "delay"),),
            _one_axis("delay"),
            {"delays": (0.0, 0.25e-3, 0.5e-3, 1e-3, 2e-3),
             "num_keys": 2000, "get_percent": 50.0, "duration": 0.06,
             "warmup": 0.02, "num_workers": 64, "seed": 41},
            {"delays": (0.0, 1e-3), "duration": 0.04, "warmup": 0.01,
             "num_workers": 32}),
        "ablation-replication": _Grid(
            "ablation_replication_cell", (("replica_counts", "replicas"),),
            _one_axis("replicas"),
            {"replica_counts": (1, 3, 5), "num_clients": 8,
             "num_keys": 1000, "alpha": 0.6, "duration": 0.25,
             "warmup": 0.05, "seed": 43},
            {"replica_counts": (1, 3), "num_clients": 4,
             "duration": 0.12, "warmup": 0.03}),
        "ablation-watermark": _Grid(
            "ablation_watermark_cell", (("intervals", "interval"),),
            _one_axis("interval"),
            {"intervals": (0.01, 0.05, 0.2), "num_clients": 8,
             "num_keys": 800, "alpha": 0.7, "duration": 0.3,
             "warmup": 0.05, "seed": 47},
            {"intervals": (0.01, 0.2), "num_clients": 4,
             "duration": 0.15, "warmup": 0.04}),
        "ablation-gc-window": _Grid(
            "ablation_gc_window_cell", (("windows", "window"),),
            _one_axis("window"),
            {"windows": (0.002, 0.01, 0.05), "num_keys": 2000,
             "get_percent": 50.0, "duration": 0.08, "warmup": 0.02,
             "num_workers": 64, "seed": 53},
            {"windows": (0.002, 0.02), "duration": 0.04, "warmup": 0.01,
             "num_workers": 32}),
        "ablation-caching": _Grid(
            "ablation_caching_cell", (("alphas", "alpha"),),
            _one_axis("alpha"),
            {"alphas": (0.4, 0.8), "num_clients": 8, "num_keys": 1000,
             "txns_per_client": 150, "seed": 59},
            {"num_clients": 4, "txns_per_client": 60}),
        "nemesis": _Grid(
            "nemesis_cell", (("scenarios", "scenario"),),
            lambda p: p["scenario"],
            {"scenarios": tuple(sorted(SCENARIOS)), "workload": "retwis",
             "duration": 0.3, "fault_start": 0.05,
             "fault_duration": 0.15, "alpha": 0.8},
            {"scenarios": ("partition", "crash-restart", "clock-storm"),
             "duration": 0.2, "fault_duration": 0.1}),
    }


def _sansim_cells(sweep: str, scale: str,
                  overrides: Dict[str, Any]) -> List[SweepCell]:
    # Targeted-policy trials feed hot locations discovered by earlier
    # trials back into the scheduler, which is inherently sequential;
    # the sweep therefore runs only the feedback-free fifo/random
    # policies, which are independent per (workload, trial).
    defaults: Dict[str, Any] = {
        "workloads": ("retwis", "ycsb", "ctp-race"),
        "trials": 8 if scale == "full" else 3,
        "seed": 0,
    }
    grid = _merged(defaults, overrides)
    cells = []
    for workload in grid["workloads"]:
        for trial in range(grid["trials"]):
            policy = "fifo" if trial == 0 else "random"
            cells.append(_cell(
                "sansim", len(cells), f"{workload}:{trial}:{policy}",
                "sansim_cell",
                {"workload": workload, "trial": trial, "policy": policy,
                 "seed": grid["seed"]}))
    return cells


def _selftest_cells(sweep: str, scale: str,
                    overrides: Dict[str, Any]) -> List[SweepCell]:
    # Hidden sweep used by the test suite: cheap deterministic cells
    # with an optional injected failure at one index.
    defaults: Dict[str, Any] = {
        "values": tuple(range(6 if scale == "full" else 4)),
        "fail_at": -1,
        "seed": 1,
    }
    grid = _merged(defaults, overrides)
    cells = []
    for value in grid["values"]:
        index = len(cells)
        cells.append(_cell(
            "selftest", index, f"v={value}", "selftest_cell",
            {"value": value, "fail": index == grid["fail_at"],
             "seed": grid["seed"]}))
    return cells


def _definitions() -> Dict[str, Callable[..., List[SweepCell]]]:
    definitions: Dict[str, Callable[..., List[SweepCell]]] = {
        name: grid.cells for name, grid in _grids().items()}
    definitions["sansim"] = _sansim_cells
    definitions["selftest"] = _selftest_cells
    return definitions


def sweep_names(include_hidden: bool = False) -> Tuple[str, ...]:
    """Names accepted by :func:`sweep_cells`, in display order."""
    names = [name for name in _definitions()
             if include_hidden or name != "selftest"]
    return tuple(names)


def sweep_cells(name: str, scale: str = "quick",
                **overrides: Any) -> Sequence[SweepCell]:
    """Enumerate the cells of sweep ``name`` in canonical order.

    ``scale`` selects the full (paper-scale) grids or the quick CI
    grids; keyword overrides replace individual grid/shared parameters
    (unknown keys raise, so typos cannot silently shrink a sweep).
    """
    definitions = _definitions()
    if name not in definitions:
        raise ValueError(
            f"unknown sweep {name!r}; choose from "
            f"{sorted(definitions)}")
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}; use 'quick' or 'full'")
    return definitions[name](name, scale, dict(overrides))
