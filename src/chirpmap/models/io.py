"""JSON round-trip for fitted models.

Documents carry {kind, config, parameters} and reconstruct models whose
predictions are bit-identical to the originals (floats survive via
shortest round-trip repr, which json uses natively). A random forest
stores each tree as node arrays, minus those the table derives (see
`NodeTable.build`). Loading raises DataError for a missing key, node
arrays of unequal length, a child index out of range, nodes that do not
form one tree, a non-finite threshold, leaf value or model parameter, a
node's feature, child index or count, a forest's feature or class
count, or a k-NN label, that is not a JSON integer (a bool or a float
is not one), a negative count, or a tree in the nested-node format of
earlier versions, which is no longer read. A k-NN model itself rejects
missing rows, misaligned or negative labels and a k that is not an
integer or exceeds its training size. Fitting never writes a non-finite
parameter, and the grid paths of `render.boundary_grid` are exact only
for finite ones.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..artifacts import read_json, write_json
from ..errors import DataError
from .forest import ForestConfig, RandomForestModel
from .knn import KnnConfig, KnnModel
from .logistic import LogisticConfig, LogisticModel
from .svm import SvmConfig, SvmModel
from .tree import DecisionTree, NodeTable, TreeConfig

# kind -> (model class, config class, {parameter: dtype of an array, float for a
# float scalar, None for any other scalar})
_FLAT_KINDS = {
    "svm": (SvmModel, SvmConfig, {
        "x": np.float64, "y_signed": np.float64, "alpha": np.float64, "b": float,
        "gamma_value": float, "converged": None, "dual_objective": float, "n_updates": None,
    }),
    "logistic_regression": (LogisticModel, LogisticConfig, {
        "w": np.float64, "b": float, "converged": None, "n_iters": None,
        "final_gradient_norm": float,
    }),
    "knn": (KnnModel, KnnConfig, {"x": np.float64, "y": np.int64}),
}
# the node arrays stored per tree, by forest task
_TREE_KEYS = {
    "classification": ("feature", "threshold", "right", "counts"),
    "regression": ("feature", "threshold", "right", "n_samples", "value"),
}
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "n_samples", "value")
# the stored node arrays whose entries are integers
_INTEGER_KEYS = ("feature", "right", "counts", "n_samples")


def model_to_dict(model) -> dict:
    kind = getattr(model, "kind", None)
    if kind == "random_forest":
        keys = _TREE_KEYS[model.config.task]
        parameters = {
            "n_features": model.n_features,
            "n_classes": model.n_classes,
            "trees": [{k: getattr(t.root, k).tolist() for k in keys} for t in model.trees],
        }
    elif kind in _FLAT_KINDS:
        parameters = {
            k: getattr(model, k).tolist() if isinstance(getattr(model, k), np.ndarray)
            else getattr(model, k)
            for k in _FLAT_KINDS[kind][2]
        }
    else:
        raise DataError(f"cannot serialize model of kind {kind!r}")
    return {"kind": kind, "config": asdict(model.config), "parameters": parameters}


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    kind = doc.get("kind")
    cfg = doc.get("config", {})
    params = doc.get("parameters", {})
    try:
        if kind == "random_forest":
            return _forest_from_dict(cfg, params)
        if kind in _FLAT_KINDS:
            model_cls, config_cls, fields = _FLAT_KINDS[kind]
            values = {k: _parameter(params[k], k, dtype) for k, dtype in fields.items()}
            return model_cls(config=config_cls(**cfg), **values)
    except KeyError as exc:
        raise DataError(f"{kind} model document lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"malformed {kind} model document: {exc}") from exc
    raise DataError(f"cannot load model of kind {kind!r}")


def _parameter(value, key: str, dtype):
    """A stored parameter as its model holds it; a float one must be finite,
    and an integer array one a list of JSON integers."""
    if dtype is None:
        return value
    if dtype is np.int64 and not (isinstance(value, list) and _integers(value)):
        raise DataError(f"parameter {key!r} is not a list of integers")
    value = float(value) if dtype is float else np.array(value, dtype=dtype)
    if dtype is not np.int64 and not np.all(np.isfinite(value)):
        raise DataError(f"parameter {key!r} is not finite")
    return value


def _forest_from_dict(cfg: dict, params: dict) -> RandomForestModel:
    config = ForestConfig(**cfg)
    tree_config = TreeConfig(task=config.task, max_depth=config.max_depth)
    n_features, n_classes = params["n_features"], params["n_classes"]
    if not (_integers([n_features, n_classes]) and n_features >= 1 and n_classes >= 0):
        raise DataError("forest feature count must be a positive integer, "
                        "and its class count a nonnegative one")
    keys = _TREE_KEYS[config.task]
    trees = []
    for doc in params["trees"]:
        if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in keys):
            raise DataError(f"tree is not a node table of arrays {', '.join(keys)} "
                            "(nested-node model files are no longer read; refit the model)")
        if not all(_integers(doc[k]) for k in keys if k in _INTEGER_KEYS):
            raise DataError("tree split feature, child index or count is not an integer")
        table = NodeTable.build(**{k: doc[k] for k in keys})
        n = len(doc["feature"])
        if n < 1 or any(getattr(table, k).shape != (n,) for k in _NODE_ARRAYS) or (
            table.counts is not None and table.counts.shape != (n, n_classes)
        ):
            raise DataError("tree node arrays must be nonempty and of equal length")
        internal = table.feature >= 0
        if (np.any((table.feature < -1) | (table.feature >= n_features) | (table.n_samples < 1))
                or (table.counts is not None and np.any(table.counts < 0))
                or np.any(table.right[~internal] != -1)
                or np.any(internal & ((table.right <= np.arange(n) + 1) | (table.right >= n)))):
            raise DataError("tree split feature, child index or count out of range")
        parents = np.bincount(np.concatenate([table.left[internal], table.right[internal]]),
                              minlength=n)
        if parents[0] != 0 or np.any(parents[1:] != 1):
            raise DataError("tree nodes do not form one tree: every node but the root "
                            "must be the child of exactly one node")
        if not (np.all(np.isfinite(table.threshold)) and np.all(np.isfinite(table.value))):
            raise DataError("tree threshold or leaf value is not finite")
        trees.append(DecisionTree(root=table, config=tree_config, n_features=n_features,
                                  n_classes=n_classes))
    if not trees:
        raise DataError("random forest document holds no trees")
    return RandomForestModel(trees=trees, config=config, n_features=n_features, n_classes=n_classes)


def _integers(values) -> bool:
    """Whether every entry of a list, or of its nested lists, is an int
    and not a bool: json reads 1.5 and 1.0 as floats, which a node array
    of integers would silently truncate."""
    return all(_integers(v) if isinstance(v, list) else type(v) is int for v in values)


def save_model(model, path: str, extra: dict | None = None) -> None:
    doc = model_to_dict(model)
    if extra:
        doc.update(extra)
    write_json(path, doc)


def load_model(path: str, missing: str | None = None):
    doc = read_json(path, missing)
    try:
        return model_from_dict(doc)
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from exc


__all__ = ["model_to_dict", "model_from_dict", "save_model", "load_model"]
