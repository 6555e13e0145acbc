"""Seeded synthetic chirp data for testing the pipeline end to end.

Clusters are isotropic Gaussians in the 3-feature space around a
positive base point, pushed apart along seeded random unit directions.
The "cluster" label model makes all three scenario labelings line up
with cluster membership (so they are learnable); the "random" model
destroys any feature-label relation (so accuracy should sit near
chance). The records are `ChirpRecord`s, and `write_records_csv` writes
them as the input table that `chirpmap ingest` reads.
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
    for k in range(n_clusters):
        values = rng.normal(loc=centers[k], scale=1.0, size=(n_per_cluster, 3))
        values = np.maximum(np.abs(values), 1e-9)  # features must stay positive
        for row in values:
            outcome, difficulty = ((OUTCOME_CODES[k % 3], k % 4 + 1) if label_model == "cluster" else
                                   (OUTCOME_CODES[rng.integers(0, 3)], int(rng.integers(1, 5))))
            records.append(ChirpRecord(f"r{len(records):04d}", *row.tolist(), outcome, difficulty))
    return records


def write_records_csv(records: list[ChirpRecord], path: str) -> None:
    """Emit the canonical input schema; the csv module writes a float as its
    repr, so floats survive the round trip exactly."""
    if not records:
        raise DataError("no records to write")
    write_csv(path, CANONICAL_COLUMNS, records)
