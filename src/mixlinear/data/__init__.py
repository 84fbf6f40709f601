"""Dataset ingestion, splitting, standardization, and windowing."""

from .series import RawSeries, load_csv, save_csv
from .split import NormalizationStats, SplitSpec, split_rows, standardize
from .synth import synth_generate
from .windows import WindowSet

__all__ = [
    "RawSeries",
    "load_csv",
    "save_csv",
    "NormalizationStats",
    "SplitSpec",
    "split_rows",
    "standardize",
    "synth_generate",
    "WindowSet",
]
