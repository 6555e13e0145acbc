from types import SimpleNamespace

import numpy as np
import pytest

from chirpmap import evaluation
from chirpmap.artifacts import read_json, write_json
from chirpmap.errors import DataError
from chirpmap.evaluation import (
    SCENARIO_ORDER,
    SCENARIOS,
    compute_metrics,
    confusion,
    cross_validate,
    encode_scenario,
    holdout_split,
    run_all_scenarios,
    stratified_kfold,
)


def record(outcome, difficulty):
    return SimpleNamespace(outcome=outcome, difficulty=difficulty)


SAMPLE = [
    record("S", 1), record("S", 3), record("NR", 2),
    record("F", 4), record("NR", 3), record("S", 2),
]


def test_scenario_rules():
    s1, _ = encode_scenario(SAMPLE, SCENARIOS["s1"])
    assert s1.tolist() == [1, 1, 0, 0, 0, 1]  # surgical success vs rest
    s2, _ = encode_scenario(SAMPLE, SCENARIOS["s2"])
    assert s2.tolist() == [0, 1, 0, 1, 1, 0]  # difficult (3 or 4) vs easy
    s3, _ = encode_scenario(SAMPLE, SCENARIOS["s3"])
    assert s3.tolist() == [1, 0, 0, 0, 0, 1]  # success at low difficulty


def test_scenario_order_and_balance():
    assert SCENARIO_ORDER == ("s1", "s2", "s3")
    _, balance = encode_scenario(SAMPLE, SCENARIOS["s1"])
    assert balance == {"positive": 3, "negative": 3, "positive_fraction": 0.5}


def test_stratified_folds_partition_and_balance():
    rng = np.random.default_rng(0)
    labels = (rng.random(97) < 0.4).astype(int)
    k = 5
    folds = stratified_kfold(labels, k, seed=3)
    assert len(folds) == k
    combined = np.sort(np.concatenate(folds))
    assert np.array_equal(combined, np.arange(97))  # disjoint and complete
    for c in (0, 1):
        total = int(np.sum(labels == c))
        per_fold = [int(np.sum(labels[f] == c)) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1
        assert sum(per_fold) == total


def test_stratified_folds_are_seeded():
    labels = np.array([0, 1] * 20)
    a = stratified_kfold(labels, 4, seed=7)
    b = stratified_kfold(labels, 4, seed=7)
    c = stratified_kfold(labels, 4, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_stratified_folds_need_k_members_per_class():
    labels = np.array([0] * 10 + [1] * 3)
    with pytest.raises(DataError, match="class 1 has 3 members"):
        stratified_kfold(labels, 4, seed=0)


def test_holdout_largest_remainder_composition():
    labels = np.array([0] * 70 + [1] * 31)
    train, test = holdout_split(labels, 0.3, seed=5)
    assert test.size == 30  # round(0.3 * 101)
    assert train.size == 71
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(101))
    # quotas 20.79 / 9.21 -> floors 20/9, the leftover goes to the
    # larger remainder (class 0)
    assert int(np.sum(labels[test] == 0)) == 21
    assert int(np.sum(labels[test] == 1)) == 9


def test_holdout_is_seeded_and_validated():
    labels = np.array([0] * 10 + [1] * 10)
    a = holdout_split(labels, 0.3, seed=1)
    b = holdout_split(labels, 0.3, seed=1)
    assert np.array_equal(a[1], b[1])
    with pytest.raises(DataError):
        holdout_split(labels, 1.5, seed=0)
    with pytest.raises(DataError):
        holdout_split(np.array([0, 0, 0, 1]), 0.25, seed=0)  # class 1 too small


def test_confusion_matrix_counting():
    y_true = np.array([1, 1, 0, 0, 1, 0, 1])
    y_pred = np.array([1, 0, 0, 1, 1, 0, 0])
    assert confusion(y_true, y_pred) == {"tp": 2, "fp": 1, "tn": 2, "fn": 2}


def test_metric_formulas():
    metrics = compute_metrics({"tp": 8, "fp": 2, "tn": 5, "fn": 5})
    assert metrics["accuracy"] == pytest.approx(13 / 20)
    assert metrics["precision"] == pytest.approx(0.8)
    assert metrics["recall"] == pytest.approx(8 / 13)
    p, r = 0.8, 8 / 13
    assert metrics["f1"] == pytest.approx(2 * p * r / (p + r))


def test_metric_zero_division_conventions():
    no_positive_predictions = compute_metrics({"tp": 0, "fp": 0, "tn": 5, "fn": 3})
    assert no_positive_predictions["precision"] == 0.0
    no_positive_truth = compute_metrics({"tp": 0, "fp": 2, "tn": 5, "fn": 0})
    assert no_positive_truth["recall"] == 0.0
    both_zero = compute_metrics({"tp": 0, "fp": 0, "tn": 4, "fn": 0})
    assert both_zero["f1"] == 0.0


def test_cross_validate_accounting(two_blobs):
    coords, labels = two_blobs
    result = cross_validate(coords, labels, "knn", stratified_kfold(labels, 5, 3), seed=3)
    accs = result["fold_accuracies"]
    assert len(accs) == 5
    assert result["cv_accuracy_mean"] == pytest.approx(np.mean(accs))
    assert result["cv_accuracy_sd"] == pytest.approx(np.std(accs))  # population sd
    repeat = cross_validate(coords, labels, "knn", stratified_kfold(labels, 5, 3), seed=3)
    assert repeat["fold_accuracies"] == accs


def test_run_all_scenarios_report_shape(two_blobs):
    coords, labels = two_blobs
    # derive records whose scenarios track the blob structure
    records = [
        record("S" if l == 1 else "F", 3 if l == 1 else 1) for l in labels
    ]
    report, models = run_all_scenarios(
        coords, records, master_seed=11, k_folds=3,
        scenario_keys=("s1", "s2"), classifier_kinds=("knn", "logistic_regression"),
    )
    assert set(report["scenarios"]) == {"s1", "s2"}
    assert set(models) == {
        ("s1", "knn"), ("s1", "logistic_regression"),
        ("s2", "knn"), ("s2", "logistic_regression"),
    }
    entry = report["scenarios"]["s1"]["classifiers"]["knn"]
    assert set(entry) >= {"cv_accuracy_mean", "cv_accuracy_sd", "holdout"}
    assert set(entry["holdout"]) >= {"accuracy", "precision", "recall", "f1", "confusion"}
    assert report["accuracy_sd_definition"].startswith("population")
    # the hold-out models come from the training split, so they must
    # score well on their own test indices here
    test_idx = np.array(report["scenarios"]["s1"]["holdout_test_indices"])
    preds = models[("s1", "knn")].predict(coords[test_idx])
    labels_s1, _ = encode_scenario(records, SCENARIOS["s1"])
    assert (preds == labels_s1[test_idx]).mean() >= 0.9


def test_run_all_scenarios_draws_folds_once_per_scenario(two_blobs, monkeypatch):
    coords, labels = two_blobs
    records = [record("S" if l == 1 else "F", 3 if l == 1 else 1) for l in labels]
    calls = []

    def counted(labels, k, seed):
        calls.append(seed)
        return stratified_kfold(labels, k, seed)

    monkeypatch.setattr(evaluation, "stratified_kfold", counted)
    kinds = ("knn", "logistic_regression")
    report, _ = run_all_scenarios(
        coords, records, master_seed=5, k_folds=4, scenario_keys=("s1", "s2"), classifier_kinds=kinds
    )
    assert len(calls) == 2
    monkeypatch.undo()
    # the shared folds give each classifier what cross_validate alone gives it
    for key in ("s1", "s2"):
        entry = report["scenarios"][key]
        scenario_labels, _ = encode_scenario(records, SCENARIOS[key])
        for kind in kinds:
            folds = stratified_kfold(scenario_labels, 4, entry["cv_seed"])
            alone = cross_validate(coords, scenario_labels, kind, folds, seed=entry["cv_seed"])
            assert [f.tolist() for f in folds] == entry["fold_assignments"]
            for field in ("fold_accuracies", "fold_confusions", "cv_accuracy_mean", "cv_accuracy_sd"):
                assert entry["classifiers"][kind][field] == alone[field]


def test_run_all_scenarios_cross_validates_through_cross_validate(two_blobs, monkeypatch):
    coords, labels = two_blobs
    records = [record("S" if l == 1 else "F", 3 if l == 1 else 1) for l in labels]
    calls = []

    def counted(coords, labels, kind, folds, seed, config=None):
        calls.append(kind)
        return cross_validate(coords, labels, kind, folds, seed, config)

    monkeypatch.setattr(evaluation, "cross_validate", counted)
    kinds = ("knn", "logistic_regression")
    run_all_scenarios(coords, records, master_seed=5, k_folds=4, scenario_keys=("s1", "s2"),
                      classifier_kinds=kinds)
    assert calls == list(kinds) * 2


def test_report_round_trip(tmp_path, two_blobs):
    coords, labels = two_blobs
    records = [record("S" if l else "NR", 1 + int(l)) for l in labels]
    report, _ = run_all_scenarios(
        coords, records, master_seed=0, k_folds=3,
        scenario_keys=("s1",), classifier_kinds=("knn",),
    )
    path = tmp_path / "report.json"
    write_json(str(path), report)
    assert read_json(str(path)) == report  # all-native types, exact
    with pytest.raises(DataError):
        read_json(str(tmp_path / "none.json"))
