"""Loading, validation, and preprocessing of annotated chirp records.

A record carries three scalar features (temporal duration in seconds,
frequency onset in hertz, spectral duration in hertz), a clinical outcome
code, and a difficulty level. Rows failing validation are dropped and
reported, never imputed. Features are standardized column-wise
((value - mean) / population sd) and may then be scaled by per-feature
weights to emphasize a feature's contribution to distances.

`ChirpRecord` is the one schema of the record tables (the input, the
synthetic data and features.csv): its fields are their columns, and its
field types their cells' types. The feature table is a plain N x 3 float64
array whose rows follow the records and whose columns follow
``FEATURE_NAMES``. The weights are checked where the config is loaded.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import read_text
from .errors import DataError


class ChirpRecord(NamedTuple):
    """One annotated chirp event, and one row of a record table."""

    id: str
    temporal_duration: float
    frequency_onset: float
    spectral_duration: float
    outcome: str
    difficulty: int


CANONICAL_COLUMNS = ChirpRecord._fields
FEATURE_NAMES = CANONICAL_COLUMNS[1:4]
OUTCOME_CODES = ("S", "NR", "F")
DIFFICULTY_LEVELS = (1, 2, 3, 4)
LABEL_LEVELS = {"outcome": OUTCOME_CODES, "difficulty": DIFFICULTY_LEVELS}  # label field -> its levels


@dataclass
class RejectionReport:
    """Outcome of row validation: counts plus one (row, reason) per reject;
    rows are numbered from 1 over the data rows (the header is not counted)."""

    n_input: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)

    @property
    def n_accepted(self) -> int:
        return self.n_input - self.n_rejected

    def to_text(self) -> str:
        lines = [f"row {row}: {reason}" for row, reason in self.rejected]
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_feature(raw: str | None, column: str) -> tuple[float | None, str | None]:
    if raw is None or raw.strip() == "":
        return None, f"missing value ({column})"
    try:
        value = float(raw)
    except ValueError:
        return None, f"invalid number ({column})"
    if not math.isfinite(value):
        return None, f"non-finite value ({column})"
    if value <= 0:
        return None, f"non-positive value ({column})"
    return value, None


def _parse_row(row: dict[str, str], columns: dict[str, str]) -> tuple[ChirpRecord | None, str | None]:
    rec_id = (row.get(columns["id"]) or "").strip()
    if not rec_id:
        return None, "missing value (id)"

    feats: list[float] = []
    for name in FEATURE_NAMES:
        value, reason = _parse_feature(row.get(columns[name]), name)
        if reason is not None:
            return None, reason
        feats.append(value)

    outcome = (row.get(columns["outcome"]) or "").strip()
    if not outcome:
        return None, "missing value (outcome)"
    if outcome not in OUTCOME_CODES:
        return None, f"unknown outcome code ({outcome!r})"

    raw_difficulty = (row.get(columns["difficulty"]) or "").strip()
    if not raw_difficulty:
        return None, "missing value (difficulty)"
    try:
        diff_value = float(raw_difficulty)
    except ValueError:
        return None, f"invalid number (difficulty)"
    if not math.isfinite(diff_value) or not diff_value.is_integer():
        return None, f"difficulty out of range ({raw_difficulty})"
    difficulty = int(diff_value)
    if difficulty not in DIFFICULTY_LEVELS:
        return None, f"difficulty out of range ({difficulty})"

    return ChirpRecord(rec_id, *feats, outcome, difficulty), None


def mapped_columns(schema: dict[str, str] | None) -> dict[str, str]:
    """Canonical column -> header name; `schema`'s keys must be canonical columns."""
    unknown = sorted(set(schema or ()) - set(CANONICAL_COLUMNS))
    if unknown:
        raise DataError(f"schema maps unknown canonical columns: {unknown}")
    return {**{name: name for name in CANONICAL_COLUMNS}, **(schema or {})}


def load_records(
    path: str,
    schema: dict[str, str] | None = None,
    delimiter: str = ",",
) -> tuple[list[ChirpRecord], RejectionReport]:
    """Read a delimited text file into validated records.

    ``schema`` maps canonical column names to the file's actual header
    names; omitted entries default to the canonical names. Rows with any
    missing, non-numeric, non-finite, or non-positive feature, an unknown
    outcome code, or a difficulty outside 1..4 are rejected with a reason,
    and so is a row whose id an accepted row already has. Accepted rows
    keep their input order. One leading UTF-8 byte order mark is skipped.
    """
    columns = mapped_columns(schema)
    text = read_text(path).removeprefix("\ufeff")
    reader = csv.DictReader(io.StringIO(text, newline=""), delimiter=delimiter)
    header = reader.fieldnames
    if header is None:
        raise DataError(f"{path} has no header row")
    missing = [col for col in columns.values() if col not in header]
    if missing:
        raise DataError(f"{path} header is missing mapped columns: {missing}")
    for col in dict.fromkeys(columns.values()):
        at = [i for i, name in enumerate(header, start=1) if name == col]
        if len(at) > 1:  # csv.DictReader would keep the last
            raise DataError(f"{path} header repeats mapped column {col!r} "
                            f"(columns {', '.join(map(str, at))})")

    records: list[ChirpRecord] = []
    report = RejectionReport()
    first_row: dict[str, int] = {}  # accepted id -> its row
    for row_number, row in enumerate(reader, start=1):
        report.n_input += 1
        record, reason = _parse_row(row, columns)
        if record is not None and record.id in first_row:
            record, reason = None, f"duplicate id (first at row {first_row[record.id]})"
        if record is None:
            report.rejected.append((row_number, reason))
        else:
            first_row[record.id] = row_number
            records.append(record)

    if not records:
        raise DataError(f"{path} contains zero valid rows")
    return records, report


def records_to_matrix(records: list[ChirpRecord]) -> np.ndarray:
    """The records' ``FEATURE_NAMES`` fields as a raw (unscaled) N x 3 array, in record order."""
    if not records:
        raise DataError("no records to build a feature matrix from")
    return np.array([r[1:4] for r in records], dtype=np.float64)


def standardize(values: np.ndarray) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Center and scale each column to mean 0 and population sd 1.

    Returns the scaled array and the (mean, sd) pair per column, so the
    transform is auditable and reversible.
    """
    if values.shape[0] < 2:
        raise DataError("standardization needs at least 2 rows")
    means = values.mean(axis=0)
    sds = values.std(axis=0)  # population (1/N) convention
    for name, sd in zip(FEATURE_NAMES, sds):
        if sd == 0:
            raise DataError(f"constant column ({name}): zero spread")
    scaling = [(float(m), float(s)) for m, s in zip(means, sds)]
    return (values - means) / sds, scaling


def apply_weights(values: np.ndarray, weights: tuple[float, float, float]) -> np.ndarray:
    """Multiply each standardized column by its weight.

    A weight of 2 quadruples the feature's contribution to squared
    Euclidean distance, which is what downstream embeddings consume.
    """
    return values * np.array(weights, dtype=np.float64)


def class_distribution(records: list[ChirpRecord]) -> dict[str, dict]:
    """Proportion of records per outcome code and per difficulty level.

    Only observed categories appear, in canonical order; each grouping
    sums to 1.
    """
    if not records:
        raise DataError("class_distribution needs at least one record")
    n = len(records)
    dist: dict[str, dict] = {}
    for name, levels in LABEL_LEVELS.items():
        counts = Counter(getattr(r, name) for r in records)
        dist[name] = {level: counts[level] / n for level in levels if counts[level]}
    return dist


def subsample_records(records: list[ChirpRecord], n: int, seed: int) -> list[ChirpRecord]:
    """Seeded uniform subsample without replacement, preserving input order."""
    if n <= 0:
        raise DataError(f"subsample size must be positive, got {n}")
    if n >= len(records):
        return list(records)
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(len(records), size=n, replace=False))
    return [records[i] for i in keep]
