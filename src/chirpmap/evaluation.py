"""Scenario encoding, stratified splitting, and classifier evaluation.

Three binary labelings of the records are evaluated: success vs rest,
difficult vs easy, and optimal (success at low difficulty) vs rest.
Accuracy is averaged over stratified k-fold cross-validation; precision,
recall, and F1 come from a stratified hold-out split. The reported
accuracy spread is the population standard deviation over fold
accuracies, and that definition is recorded in the report metadata.

A scenario's folds and CV seed are reported once for all its classifiers;
a confusion count is the plain {"tp", "fp", "tn", "fn"} dict of `confusion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .artifacts import json_value
from .errors import DataError
from .models import CLASSIFIER_KINDS, fit_classifier
from .seeding import derive_seed


@dataclass(frozen=True)
class Scenario:
    positive_name: str
    description: str
    rule: Callable[[str, int], bool]


SCENARIOS: dict[str, Scenario] = {
    "s1": Scenario(
        positive_name="success",
        description="surgical success vs no-resection or failure",
        rule=lambda outcome, difficulty: outcome == "S",
    ),
    "s2": Scenario(
        positive_name="high_difficulty",
        description="difficult cases (levels 3-4) vs easy cases (levels 1-2)",
        rule=lambda outcome, difficulty: difficulty in (3, 4),
    ),
    "s3": Scenario(
        positive_name="optimal",
        description="success at low difficulty (levels 1-2) vs everything else",
        rule=lambda outcome, difficulty: outcome == "S" and difficulty in (1, 2),
    ),
}

SCENARIO_ORDER = ("s1", "s2", "s3")


def encode_scenario(records, scenario: Scenario) -> tuple[np.ndarray, dict]:
    """Binary labels per the scenario rule, plus the class balance."""
    if not records:
        raise DataError("encode_scenario needs at least one record")
    labels = np.array(
        [1 if scenario.rule(r.outcome, r.difficulty) else 0 for r in records],
        dtype=np.int64,
    )
    n_pos = int(labels.sum())
    balance = {
        "positive": n_pos,
        "negative": int(labels.size - n_pos),
        "positive_fraction": n_pos / labels.size,
    }
    return labels, balance


def stratified_kfold(labels, k: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified partition into k folds.

    Each class is shuffled independently and dealt round-robin, so every
    fold's class count is within one of exact proportionality.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise DataError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    classes, sizes = np.unique(labels, return_counts=True)
    for cls, size in zip(classes.tolist(), sizes.tolist()):
        if size < k:
            raise DataError(f"class {cls} has {size} members, fewer than k={k}")
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        for f in range(k):
            folds[f].extend(idx[f::k].tolist())
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def holdout_split(labels, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified split with test size round(fraction * N).

    Per-class test counts follow largest-remainder apportionment of the
    total, keeping every class within one of its exact proportional
    share.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if not 0.0 < fraction < 1.0:
        raise DataError("holdout fraction must be in (0, 1)")
    classes, sizes = np.unique(labels, return_counts=True)
    counts = dict(zip(classes.tolist(), sizes.tolist()))
    if any(v < 2 for v in counts.values()):
        raise DataError("holdout_split needs at least 2 members per class")
    n_test = int(round(fraction * n))
    n_test = max(1, min(n - 1, n_test))

    quotas = {c: counts[c] * n_test / n for c in counts}
    take = {c: int(np.floor(quotas[c])) for c in quotas}
    remaining = n_test - sum(take.values())
    by_remainder = sorted(quotas, key=lambda c: (-(quotas[c] - take[c]), c))
    for c in by_remainder[:remaining]:
        take[c] += 1

    rng = np.random.default_rng(seed)
    test_parts: list[np.ndarray] = []
    train_parts: list[np.ndarray] = []
    for c in sorted(counts):
        idx = np.nonzero(labels == c)[0]
        rng.shuffle(idx)
        test_parts.append(idx[: take[c]])
        train_parts.append(idx[take[c] :])
    test = np.array(sorted(np.concatenate(test_parts).tolist()), dtype=np.int64)
    train = np.array(sorted(np.concatenate(train_parts).tolist()), dtype=np.int64)
    return train, test


def confusion(y_true, y_pred) -> dict:
    """Counts of true and false positives and negatives, as {"tp", "fp",
    "tn", "fn"}."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise DataError("prediction/label shape mismatch")
    return {
        "tp": int(np.sum((t == 1) & (p == 1))),
        "fp": int(np.sum((t == 0) & (p == 1))),
        "tn": int(np.sum((t == 0) & (p == 0))),
        "fn": int(np.sum((t == 1) & (p == 0))),
    }


def compute_metrics(cm: dict) -> dict:
    """Accuracy, precision, recall, F1 of a `confusion` count, with
    explicit zero-division rules: precision is 0 when nothing was
    predicted positive, recall is 0 when nothing is positive, F1 is 0
    when precision and recall are both 0.
    """
    tp, fp, tn, fn = cm["tp"], cm["fp"], cm["tn"], cm["fn"]
    total = tp + fp + tn + fn
    if total < 1:
        raise DataError("empty confusion matrix")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def cross_validate(coords, labels, kind: str, folds, seed: int, config=None) -> dict:
    """CV of one classifier kind over folds that `stratified_kfold` drew
    from (labels, k, seed). Folds depend only on those, so classifiers
    evaluated under the same seed see identical folds. Per-fold training
    seeds are derived from the fold seed.
    """
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    all_idx = np.arange(labels.size)
    accuracies: list[float] = []
    confusions: list[dict] = []
    for f, test_idx in enumerate(folds):
        train_mask = np.ones(labels.size, dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_idx[train_mask]
        fit_seed = derive_seed(seed, f"fold{f}:{kind}")
        model = fit_classifier(kind, coords[train_idx], labels[train_idx], seed=fit_seed, config=config)
        cm = confusion(labels[test_idx], model.predict(coords[test_idx]))
        accuracies.append(compute_metrics(cm)["accuracy"])
        confusions.append(cm)
    acc = np.array(accuracies)
    return {
        "cv_accuracy_mean": float(acc.mean()),
        "cv_accuracy_sd": float(acc.std()),  # population sd over folds
        "fold_accuracies": accuracies,
        "fold_confusions": confusions,
    }


def run_all_scenarios(
    coords,
    records,
    master_seed: int = 0,
    scenario_keys=SCENARIO_ORDER,
    classifier_kinds=CLASSIFIER_KINDS,
    k_folds: int = 5,
    holdout_fraction: float = 0.3,
    classifier_configs: dict | None = None,
) -> tuple[dict, dict]:
    """Full scenario x classifier evaluation grid.

    Returns (report, models) where models maps (scenario_key, kind) to
    the classifier trained on that scenario's hold-out training split;
    those are the models the decision-boundary figures draw.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != len(records):
        raise DataError("embedding rows misaligned with records")
    classifier_configs = classifier_configs or {}

    report: dict = {
        "master_seed": master_seed,
        "k_folds": k_folds,
        "holdout_fraction": holdout_fraction,
        "accuracy_sd_definition": "population standard deviation over fold accuracies",
        "scenarios": {},
    }
    models: dict[tuple[str, str], object] = {}

    for key in scenario_keys:
        if key not in SCENARIOS:
            raise DataError(f"unknown scenario {key!r}")
        scenario = SCENARIOS[key]
        labels, balance = encode_scenario(records, scenario)
        cv_seed = derive_seed(master_seed, f"cv:{key}")
        holdout_seed = derive_seed(master_seed, f"holdout:{key}")
        train_idx, test_idx = holdout_split(labels, holdout_fraction, holdout_seed)
        # folds depend only on (labels, k, seed): identical for every classifier
        folds = stratified_kfold(labels, k_folds, cv_seed)

        entry: dict = {
            "description": scenario.description,
            "positive_name": scenario.positive_name,
            "class_balance": balance,
            "holdout_seed": holdout_seed,
            "holdout_test_indices": test_idx.tolist(),
            "classifiers": {},
        }
        for kind in classifier_kinds:
            config = classifier_configs.get(kind)
            cv = cross_validate(coords, labels, kind, folds, cv_seed, config)
            fit_seed = derive_seed(master_seed, f"holdout-fit:{key}:{kind}")
            model = fit_classifier(
                kind, coords[train_idx], labels[train_idx], seed=fit_seed, config=config
            )
            cm = confusion(labels[test_idx], model.predict(coords[test_idx]))
            entry["classifiers"][kind] = {**cv, "holdout": {**compute_metrics(cm), "confusion": cm}}
            models[(key, kind)] = model
        entry["fold_assignments"] = [f.tolist() for f in folds]
        entry["cv_seed"] = cv_seed
        report["scenarios"][key] = entry

    return report, models


# what render draws from the report: a hold-out confusion count, a metric bar
_COUNT = (int, lambda v: v >= 0, "a nonnegative integer")
_METRIC = (float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def report_metrics(report: dict, path: str, scenarios, classifiers) -> dict:
    """(scenario, kind) -> (hold-out confusion, metric bars) for every pair
    render draws, or a DataError naming the first key the report lacks or
    whose value cannot be drawn: a confusion count must be a nonnegative
    JSON integer (a bool is not one), a metric a number in [0, 1]."""
    metrics = {}
    for scenario in scenarios:
        for kind in classifiers:
            entry = ("scenarios", scenario, "classifiers", kind)
            bars = {"accuracy": json_value(report, (*entry, "cv_accuracy_mean"), path, *_METRIC)}
            for name in ("precision", "recall", "f1"):
                bars[name] = json_value(report, (*entry, "holdout", name), path, *_METRIC)
            confusion = {c: json_value(report, (*entry, "holdout", "confusion", c), path, *_COUNT)
                         for c in ("tp", "fn", "fp", "tn")}
            metrics[scenario, kind] = (confusion, bars)
    return metrics
