"""JSON round-trip for fitted models.

Documents carry {kind, config, parameters} and reconstruct models whose
predictions are bit-identical to the originals (floats survive via
shortest round-trip repr, which json uses natively). A random forest
keeps one node table of all its trees; its file stores each tree
(`RandomForestModel.trees`) as node arrays, minus those the table
derives: the left child and, given class counts, value and n_samples
(see `NodeTable`). A file holds one value per node, so saving a regression forest grown on
a multi-column target is a DataError.

Loading reads every JSON value through `artifacts.json_value` and
`artifacts.build`: a value that is absent or of the wrong type or range
is a DataError naming the key. An array of integers must also fit in
int64. A forest's n_classes is the class count its fit gives: at least
2 for a classification forest, 0 for a regression one. Beside that,
loading checks structure only. A forest's node arrays
must be of equal length and form one tree each, with child indices and
split features in range and no negative count; a tree in the nested-node
format of earlier versions is no longer read. A forest's trees are
checked together, in one pass over all their nodes end to end, with each
node's child indices taken within its own tree; the model keeps that one
table, its child indices shifted to index it whole. A k-NN model and
an SVM model check their training set as a fit does
(`inputs.training_set`); a k-NN model also rejects a k that exceeds its
training size, and an SVM model multipliers that are not one per row, a
label other than -1 and +1, a negative multiplier (beyond SMO's rounding
slack) and a negative gamma. Every model's `predict` raises DataError
for points whose width differs from its training points'
(`inputs.query_points`). `artifacts.write_json` refuses a
non-finite parameter, so saving fails rather than write one, and the
grid paths of `render.boundary_grid` are exact only for finite ones.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from typing import get_origin

import numpy as np

from ..artifacts import build, fits, json_value, read_json, write_json
from ..errors import DataError
from .forest import ForestConfig, RandomForestModel
from .knn import KnnConfig, KnnModel
from .logistic import LogisticConfig, LogisticModel
from .svm import SvmConfig, SvmModel
from .tree import NodeTable

# kind -> (model class, config class, {parameter: its JSON type}); a model
# holds a list parameter as an array, of int64 for list[int], else of float64
_FLAT_KINDS = {
    "svm": (SvmModel, SvmConfig, {
        "x": list[list[float]], "y_signed": list[float], "alpha": list[float], "b": float,
        "gamma_value": float, "converged": bool, "dual_objective": float, "n_updates": int,
    }),
    "logistic_regression": (LogisticModel, LogisticConfig, {
        "w": list[float], "b": float, "converged": bool, "n_iters": int,
        "final_gradient_norm": float,
    }),
    "knn": (KnnModel, KnnConfig, {"x": list[list[float]], "y": list[int]}),
}
# the node arrays stored per tree, by forest task, and their JSON types
_TREE_KEYS = {
    "classification": {"feature": list[int], "threshold": list[float], "right": list[int],
                       "counts": list[list[int]]},
    "regression": {"feature": list[int], "threshold": list[float], "right": list[int],
                   "n_samples": list[int], "value": list[float]},
}


def model_to_dict(model) -> dict:
    kind = getattr(model, "kind", None)
    if kind == "random_forest":
        if model.root.value.ndim > 1:
            raise DataError("cannot serialize a multi-output random forest: model files "
                            "hold one value per node")
        keys = _TREE_KEYS[model.config.task]
        parameters = {
            "n_features": model.n_features,
            "n_classes": model.n_classes,
            "trees": [{k: getattr(t.root, k).tolist() for k in keys} for t in model.trees],
        }
    elif kind in _FLAT_KINDS:
        parameters = {k: np.asarray(getattr(model, k)).tolist() for k in _FLAT_KINDS[kind][2]}
    else:
        raise DataError(f"cannot serialize model of kind {kind!r}")
    return {"kind": kind, "config": asdict(model.config), "parameters": parameters}


def model_from_dict(doc: dict):
    kind = json_value(doc, ("kind",), "model document", str,
                      lambda k: k == "random_forest" or k in _FLAT_KINDS, "a model kind")
    where = f"{kind} model"
    try:
        if kind == "random_forest":
            return _forest_from_dict(doc, where)
        model_cls, config_cls, hints = _FLAT_KINDS[kind]
        config = build(config_cls, doc, ("config",), where)
        values = {k: json_value(doc, ("parameters", k), where, hint) for k, hint in hints.items()}
        for k, hint in hints.items():
            if get_origin(hint) is list:
                values[k] = np.array(values[k], dtype=np.int64 if hint == list[int] else np.float64)
        return model_cls(config=config, **values)
    except (ValueError, OverflowError) as exc:  # ragged rows; an integer beyond int64
        raise DataError(f"malformed {where} document: {exc}") from exc


def _forest_from_dict(doc: dict, where: str) -> RandomForestModel:
    config = build(ForestConfig, doc, ("config",), where)
    n_features = json_value(doc, ("parameters", "n_features"), where, int, lambda n: n >= 1,
                            "a positive integer")
    # the class count a fit gives (`inputs.training_set`)
    classify = config.task == "classification"
    n_classes = json_value(doc, ("parameters", "n_classes"), where, int,
                           lambda n: n >= 2 if classify else n == 0,
                           "an integer >= 2" if classify else "0 for a regression forest")
    docs = json_value(doc, ("parameters", "trees"), where, list, bool, "a nonempty list")
    hints = _TREE_KEYS[config.task]
    # all trees' nodes end to end in one table, checked in one pass, each
    # node's index and child indices taken within its own tree
    columns = {}
    for k, hint in hints.items():
        column = [tree.get(k) if isinstance(tree, dict) else None for tree in docs]
        flat = list(itertools.chain.from_iterable(column)) if fits(column, list[list]) else None
        if flat is None or not fits(flat, hint):  # name the first tree at fault
            for i, tree in enumerate(docs):
                if isinstance(tree, dict) and "left" in tree:
                    raise DataError(f"{where} has parameters.trees.{i} in the nested-node format "
                                    "of earlier versions (nested-node model files are no longer "
                                    "read; refit the model)")
                json_value(tree, (k,), f"{where} parameters.trees.{i}", hint)
        columns[k] = flat
    sizes = [len(tree["feature"]) for tree in docs]
    table = NodeTable.build(**columns)
    total = table.feature.size
    if (min(sizes) < 1 or any(len(tree[k]) != n for tree, n in zip(docs, sizes) for k in hints)
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
    split = np.flatnonzero(internal)
    table.right[split] += first[split]  # into the whole table
    parents = np.bincount(np.concatenate([split + 1, table.right[split]]), minlength=total)
    if np.any(parents != (local > 0)):  # one parent each, none for a root
        raise DataError("tree nodes do not form one tree: every node but the root "
                        "must be the child of exactly one node")
    return RandomForestModel(root=table, roots=offsets, config=config, n_features=n_features,
                             n_classes=n_classes)


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
