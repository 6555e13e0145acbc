"""Classifiers and regressors trained on 2-D embedding coordinates."""

from __future__ import annotations

from dataclasses import replace

from ..errors import DataError
from .forest import ForestConfig, RandomForestModel, fit_random_forest, fit_tree
from .knn import KnnConfig, KnnModel, fit_knn
from .logistic import LogisticConfig, LogisticModel, fit_logistic
from .svm import SvmConfig, SvmModel, fit_svm, kkt_violation
from .tree import NodeTable
from .io import load_model, model_from_dict, model_to_dict, save_model

# each classifier kind's config dataclass, in the order the pipeline runs them
CONFIG_TYPES = {
    "random_forest": ForestConfig,
    "svm": SvmConfig,
    "logistic_regression": LogisticConfig,
    "knn": KnnConfig,
}
CLASSIFIER_KINDS = tuple(CONFIG_TYPES)

# short names accepted on the command line
SHORT_KIND_NAMES = {
    "rf": "random_forest",
    "svm": "svm",
    "logreg": "logistic_regression",
    "knn": "knn",
}


def fit_classifier(kind: str, coords, labels, seed: int = 0, config=None):
    """Train one classifier kind on (coords, labels).

    The seed only affects the random forest (bootstrap and feature
    draws); the other three are deterministic in the data. An explicit
    config overrides the defaults but the forest seed is still replaced
    so cross-validation folds stay independently seeded.
    """
    if kind not in CLASSIFIER_KINDS:
        raise DataError(f"unknown classifier kind {kind!r}")
    if config is None:
        config = CONFIG_TYPES[kind]()
    if kind == "random_forest":
        return fit_random_forest(coords, labels, replace(config, seed=seed))
    if kind == "svm":
        return fit_svm(coords, labels, config)
    if kind == "logistic_regression":
        return fit_logistic(coords, labels, config)
    return fit_knn(coords, labels, config)


__all__ = [
    "CLASSIFIER_KINDS",
    "CONFIG_TYPES",
    "SHORT_KIND_NAMES",
    "NodeTable",
    "ForestConfig",
    "RandomForestModel",
    "SvmConfig",
    "SvmModel",
    "LogisticConfig",
    "LogisticModel",
    "KnnConfig",
    "KnnModel",
    "fit_tree",
    "fit_random_forest",
    "fit_svm",
    "fit_logistic",
    "fit_knn",
    "fit_classifier",
    "kkt_violation",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]
