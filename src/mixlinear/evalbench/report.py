"""Machine-readable run reports: a key/value document plus a flat CSV.

The ``RunReport`` declaration is the schema: its compared fields, in
declaration order, are the keys of a ``.report`` document and the columns
of its CSV, and :func:`parse_report` reads each value back with its
field's annotated type.
"""

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..errors import DataError
from ..model.params import MixLinearParams
from ..training.loop import TrainHistory

SCHEMA_VERSION = 1

# the fields that vary between otherwise identical runs
TIMING_FIELDS = ("train_seconds_per_epoch", "total_seconds")


@dataclass(kw_only=True)
class RunReport:
    """Everything one benchmark run produced, ready to serialize."""

    schema_version: int = SCHEMA_VERSION
    dataset: str
    mode: str
    lookback: int
    horizon: int
    period: int
    lpf_cutoff: int
    latent_width: int
    seed: int
    split: str
    batch_size: int
    learning_rate: float
    max_epochs: int
    patience: int
    epochs_run: int
    best_epoch: int
    test_mse: float
    test_mae: float
    param_count: int
    mac_count: int
    mac_convention: str
    pipeline_hash: str
    train_seconds_per_epoch: float
    total_seconds: float
    # runtime attachments, not serialized
    history: TrainHistory | None = field(default=None, repr=False, compare=False)
    params: MixLinearParams | None = field(default=None, repr=False, compare=False)

    def row(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}

    def basename(self) -> str:
        return f"{self.dataset}_{self.mode}_h{self.horizon}_s{self.seed}"


_SCHEMA = {f.name: f.type for f in fields(RunReport) if f.compare}
REPORT_FIELDS = tuple(_SCHEMA)


def write_key_values(values: dict, path) -> None:
    """Write one ``key = value`` line per entry, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in values.items())


def _write_document(values: dict, reports, path) -> None:
    """The key/value document at ``path`` and the reports' CSV beside it."""
    path = Path(path)
    try:
        write_key_values(values, path)
        write_reports_csv(reports, path.with_suffix(".csv"))
    except OSError as exc:
        raise DataError(f"cannot write report {path}: {exc}") from exc


def write_report(report: RunReport, path) -> None:
    """Write the key/value document at ``path`` and a one-row CSV beside it."""
    _write_document(report.row(), [report], path)


def write_sweep(reports: list[RunReport], path) -> None:
    """Summary document plus one CSV row per report, keyed by its cutoff."""
    summary = {
        "schema_version": SCHEMA_VERSION,
        "swept_parameter": "lpf_cutoff",
        "swept_values": ",".join(str(report.lpf_cutoff) for report in reports),
        **{f"test_mse_lpf_cutoff_{report.lpf_cutoff}": report.test_mse for report in reports},
    }
    _write_document(summary, reports, path)


def write_reports_csv(reports, path) -> None:
    """Flat CSV with one row per report, stable column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        for report in reports:
            writer.writerow(report.row().values())


def parse_report(path) -> RunReport:
    """Read back a key/value report document written by :func:`write_report`."""
    path = Path(path)
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if " = " not in line:
                    raise DataError(f"{path}:{line_no}: expected 'key = value'")
                key, value = line.split(" = ", 1)
                raw[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    missing = [name for name in REPORT_FIELDS if name not in raw]
    if missing:
        raise DataError(f"{path}: missing report fields {missing}")
    values = {}
    for name, kind in _SCHEMA.items():
        try:
            values[name] = kind(raw[name])
        except ValueError:
            raise DataError(
                f"{path}: field {name} = {raw[name]!r} is not a valid {kind.__name__}"
            ) from None
    return RunReport(**values)
