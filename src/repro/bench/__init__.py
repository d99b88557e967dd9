"""Benchmark harness: timing, reporting and the E0–E15 experiment suite
behind ``repro experiments``.

The benchmark of record for end-to-end and per-layer performance is
``perfbench/`` at the repository root (``python3 perfbench/run.py``).
"""

from repro.bench.experiments import ALL_EXPERIMENTS, figure1_instance, run_all
from repro.bench.harness import doubling_ratios, loglog_slope, time_callable
from repro.bench.reporting import ExperimentResult, format_table

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "doubling_ratios",
    "figure1_instance",
    "format_table",
    "loglog_slope",
    "run_all",
    "time_callable",
]
