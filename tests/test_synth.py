import pytest

from chirpmap.errors import DataError
from chirpmap.evaluation import SCENARIOS, encode_scenario
from chirpmap.ingest import FEATURE_NAMES, load_records
from chirpmap.synth import generate_records, write_records_csv


def test_counts_and_determinism():
    a = generate_records(n_per_cluster=20, seed=5)
    b = generate_records(n_per_cluster=20, seed=5)
    c = generate_records(n_per_cluster=20, seed=6)
    assert len(a) == 60
    assert a == b
    assert a != c


def test_features_are_strictly_positive():
    records = generate_records(n_per_cluster=50, n_clusters=4, seed=1)
    for r in records:
        assert all(getattr(r, name) > 0 for name in FEATURE_NAMES)
        assert r.outcome in ("S", "NR", "F")
        assert 1 <= r.difficulty <= 4


def test_cluster_labels_populate_every_scenario():
    records = generate_records(n_per_cluster=30, seed=0)
    for key in ("s1", "s2", "s3"):
        labels, balance = encode_scenario(records, SCENARIOS[key])
        assert 0 < labels.sum() < len(records), key
        assert 0.0 < balance["positive_fraction"] < 1.0


def test_random_label_model_breaks_cluster_alignment():
    records = generate_records(n_per_cluster=40, seed=2, label_model="random")
    outcomes = {r.outcome for r in records}
    assert len(outcomes) == 3
    # within one cluster the outcomes should vary
    first_cluster = records[:40]
    assert len({r.outcome for r in first_cluster}) > 1


def test_round_trip_through_ingestion(tmp_path):
    records = generate_records(n_per_cluster=15, seed=3)
    path = tmp_path / "synth.csv"
    write_records_csv(records, str(path))
    loaded, report = load_records(str(path))
    assert report.n_rejected == 0
    assert loaded == records


def test_validation():
    with pytest.raises(DataError):
        generate_records(n_per_cluster=0)
    with pytest.raises(DataError):
        generate_records(n_per_cluster=5, label_model="alternating")
    for unusable in ({"seed": -1}, {"separation": -1.0}, {"separation": float("nan")},
                     {"separation": float("inf")}):
        with pytest.raises(DataError, match="must be"):
            generate_records(n_per_cluster=5, **unusable)
