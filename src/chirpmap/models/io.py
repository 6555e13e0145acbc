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
is not one) or lies beyond int64, a negative count, or a tree in the
nested-node format of earlier versions, which is no longer read. A
forest's trees are checked together, in one pass over all their nodes
end to end, with each node's child indices taken within its own tree,
and then sliced into the trees.
A k-NN model itself rejects missing rows, misaligned or negative labels
and a k that is not an integer or exceeds its training size. An SVM
model rejects an `x` that is not 2-D with a row, labels or multipliers
that are not one per row, a label other than -1 and +1, a negative
multiplier (beyond SMO's rounding slack) and a negative gamma; a
logistic model rejects weights that are not 1-D. Both raise DataError
for points whose width differs from their training points'. Fitting
never writes a non-finite parameter, and the grid paths of
`render.boundary_grid` are exact only for finite ones.
"""

from __future__ import annotations

import itertools
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
    except (TypeError, ValueError, OverflowError) as exc:
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
    docs = list(params["trees"])
    for doc in docs:
        if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in keys):
            raise DataError(f"tree is not a node table of arrays {', '.join(keys)} "
                            "(nested-node model files are no longer read; refit the model)")
    if not docs:
        raise DataError("random forest document holds no trees")
    # all trees' nodes end to end in one table, checked in one pass, each
    # node's index and child indices taken within its own tree
    columns = {k: list(itertools.chain.from_iterable(doc[k] for doc in docs)) for k in keys}
    if not all(_integers(columns[k]) for k in keys if k in _INTEGER_KEYS):
        raise DataError("tree split feature, child index or count is not an integer")
    sizes = [len(doc["feature"]) for doc in docs]
    table = NodeTable.build(**columns)
    total = table.feature.size
    if (min(sizes) < 1 or any(len(doc[k]) != n for doc, n in zip(docs, sizes) for k in keys)
            or any(getattr(table, k).shape != (total,) for k in _NODE_ARRAYS)
            or (table.counts is not None and table.counts.shape != (total, n_classes))):
        raise DataError("tree node arrays must be nonempty and of equal length")
    offsets = np.cumsum(sizes) - sizes
    first = np.repeat(offsets, sizes)  # each node's root
    local = np.arange(total) - first
    internal = table.feature >= 0
    if (np.any((table.feature < -1) | (table.feature >= n_features) | (table.n_samples < 1))
            or (table.counts is not None and np.any(table.counts < 0))
            or np.any(table.right[~internal] != -1)
            or np.any(internal & ((table.right <= local + 1)
                                  | (table.right >= np.repeat(sizes, sizes))))):
        raise DataError("tree split feature, child index or count out of range")
    parents = np.bincount(np.concatenate([table.left[internal], (first + table.right)[internal]]),
                          minlength=total)
    if np.any(parents != (local > 0)):  # one parent each, none for a root
        raise DataError("tree nodes do not form one tree: every node but the root "
                        "must be the child of exactly one node")
    if not (np.all(np.isfinite(table.threshold)) and np.all(np.isfinite(table.value))):
        raise DataError("tree threshold or leaf value is not finite")
    table.left = np.where(internal, local + 1, -1)
    trees = [
        DecisionTree(root=NodeTable(**{key: a if a is None else a[lo:lo + n]
                                       for key, a in vars(table).items()}),
                     config=tree_config, n_features=n_features, n_classes=n_classes)
        for lo, n in zip(offsets.tolist(), sizes)
    ]
    return RandomForestModel(trees=trees, config=config, n_features=n_features, n_classes=n_classes)


def _integers(values) -> bool:
    """Whether every entry of a list, or of its nested lists, is an int
    and not a bool: json reads 1.5 and 1.0 as floats, which a node array
    of integers would silently truncate."""
    types = set(map(type, values))
    if list in types:
        rows = values if types == {list} else [v for v in values if type(v) is list]
        return types <= {int, list} and _integers(list(itertools.chain.from_iterable(rows)))
    return types <= {int}


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
