"""Benchmark orchestration, efficiency accounting, and reporting."""

from .macs import MAC_CONVENTION, count_macs
from .report import (
    REPORT_FIELDS,
    TIMING_FIELDS,
    RunReport,
    parse_report,
    write_report,
    write_reports_csv,
    write_sweep,
)
from .runner import (
    ABLATION_MODES,
    prepare_windows,
    run_ablation,
    run_benchmark,
    run_lpf_sweep,
)

__all__ = [
    "MAC_CONVENTION",
    "count_macs",
    "REPORT_FIELDS",
    "TIMING_FIELDS",
    "RunReport",
    "parse_report",
    "write_report",
    "write_reports_csv",
    "write_sweep",
    "ABLATION_MODES",
    "prepare_windows",
    "run_ablation",
    "run_benchmark",
    "run_lpf_sweep",
]
