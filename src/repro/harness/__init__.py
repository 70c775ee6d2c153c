"""Experiment harness: cluster construction, metric windows, Retwis
runner, per-grid-point experiment and ablation functions, and plain-text
reporting."""

from .audit import AuditReport, collect_history, run_audit, sync_replicas
from .chaos import (
    ChaosMonkey,
    FailurePlan,
    NemesisPlan,
    clock_storm,
    isolate_master,
    largest_connected_majority,
    loss_storm,
    majority_minority_split,
    partition_primary_from_backups,
)
from .cluster import BACKEND_KINDS, Cluster, ClusterConfig
from .experiments import ExperimentResult
from .metrics import StatsSnapshot, WindowMetrics, snapshot, window_metrics
from .nemesis import (
    SCENARIOS,
    NemesisRunResult,
    nemesis_config,
    run_nemesis,
)
from .report import format_table, format_value, series_block
from .runner import RetwisRunResult, run_retwis_on_cluster

__all__ = [
    "Cluster",
    "ClusterConfig",
    "BACKEND_KINDS",
    "ExperimentResult",
    "StatsSnapshot",
    "WindowMetrics",
    "snapshot",
    "window_metrics",
    "format_table",
    "format_value",
    "series_block",
    "RetwisRunResult",
    "run_retwis_on_cluster",
    "AuditReport",
    "collect_history",
    "run_audit",
    "sync_replicas",
    "FailurePlan",
    "NemesisPlan",
    "ChaosMonkey",
    "largest_connected_majority",
    "partition_primary_from_backups",
    "isolate_master",
    "majority_minority_split",
    "clock_storm",
    "loss_storm",
    "SCENARIOS",
    "NemesisRunResult",
    "nemesis_config",
    "run_nemesis",
]
