"""Seeded synthetic chirp data for testing the pipeline end to end.

Clusters are isotropic Gaussians in the 3-feature space around a
positive base point, pushed apart along seeded random unit directions.
The "cluster" label model makes all three scenario labelings line up
with cluster membership (so they are learnable); the "random" model
destroys any feature-label relation (so accuracy should sit near
chance).
"""

from __future__ import annotations

import numpy as np

from .artifacts import write_csv
from .errors import DataError
from .ingest import CANONICAL_COLUMNS, OUTCOME_CODES, ChirpRecord

LABEL_MODELS = ("cluster", "random")

_BASE = np.array([50.0, 50.0, 50.0])


def generate_records(
    n_per_cluster: int,
    n_clusters: int = 3,
    separation: float = 10.0,
    seed: int = 0,
    label_model: str = "cluster",
) -> list[ChirpRecord]:
    if n_per_cluster < 1 or n_clusters < 1:
        raise DataError("cluster counts must be positive")
    if not 0 <= separation < np.inf:
        raise DataError(f"separation must be finite and nonnegative, got {separation}")
    if seed < 0:
        raise DataError(f"seed must be nonnegative, got {seed}")
    if label_model not in LABEL_MODELS:
        raise DataError(f"unknown label model {label_model!r}")

    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_clusters, 3))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0] = 1.0
    centers = _BASE + separation * directions / norms[:, None]

    records: list[ChirpRecord] = []
    idx = 0
    for k in range(n_clusters):
        values = rng.normal(loc=centers[k], scale=1.0, size=(n_per_cluster, 3))
        values = np.maximum(np.abs(values), 1e-9)  # features must stay positive
        for row in values:
            if label_model == "cluster":
                outcome = OUTCOME_CODES[k % 3]
                difficulty = (k % 4) + 1
            else:
                outcome = OUTCOME_CODES[rng.integers(0, 3)]
                difficulty = int(rng.integers(1, 5))
            records.append(
                ChirpRecord(
                    id=f"r{idx:04d}",
                    temporal_duration=float(row[0]),
                    frequency_onset=float(row[1]),
                    spectral_duration=float(row[2]),
                    outcome=outcome,
                    difficulty=difficulty,
                )
            )
            idx += 1
    return records


def write_records_csv(records: list[ChirpRecord], path: str) -> None:
    """Emit the canonical input schema; floats survive round-trip exactly."""
    if not records:
        raise DataError("no records to write")
    rows = (
        [r.id, repr(float(r.temporal_duration)), repr(float(r.frequency_onset)),
         repr(float(r.spectral_duration)), r.outcome, r.difficulty]
        for r in records
    )
    write_csv(path, CANONICAL_COLUMNS, rows)
