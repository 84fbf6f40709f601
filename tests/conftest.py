"""Shared fixtures and helpers."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent


def etth1_path() -> Path | None:
    """Locate ETTh1.csv; acceptance reproduction tests skip without it."""
    env = os.environ.get("MIXLINEAR_ETTH1")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(REPO_ROOT / "data" / "ETTh1.csv")
    candidates.append(Path(__file__).parent / "data" / "ETTh1.csv")
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def require_etth1() -> Path:
    path = etth1_path()
    if path is None:
        pytest.skip(
            "ETTh1.csv not available; place it at data/ETTh1.csv or set "
            "MIXLINEAR_ETTH1 to enable the published-benchmark criteria"
        )
    return path

