"""Feature-sensitivity maps over the embedding.

Two random-forest regressors learn each embedding coordinate from the
original three features; exact Shapley values over all 2^d feature
subsets attribute every prediction back to the features, and the x/y
attributions are combined into one magnitude per feature per record.

The subset value v(S) is the tree-conditional expectation, the
path-dependent value function of TreeSHAP (Lundberg, Erion & Lee 2018,
arXiv:1802.03888): walking a tree's node table, a split on a feature in
S follows the instance's branch, a split on a feature outside S descends
both branches weighted by the training proportions stored at the nodes.
v(S) is linear over trees, so a forest's values are averaged first and
combined into Shapley values once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, read_json, write_csv, write_json
from .errors import DataError, NumericError
from .ingest import FEATURE_NAMES, FeatureMatrix
from .models import DecisionTree, ForestConfig, RandomForestModel, fit_random_forest
from .seeding import derive_seed
from .tsne import Embedding

COMBINATION_RULES = ("euclidean", "sum_abs")
_SENSITIVITY_COLUMNS = ("id", "feature", "phi_x", "phi_y", "combined")


@dataclass(frozen=True)
class SensitivityConfig:
    n_trees: int = 100
    max_depth: int | None = None
    seed: int = 0
    combination: str = "euclidean"

    def __post_init__(self):
        if self.combination not in COMBINATION_RULES:
            raise DataError(f"unknown combination rule {self.combination!r}")


@dataclass
class CoordinateRegressors:
    model_x: RandomForestModel
    model_y: RandomForestModel
    r2_x: float
    r2_y: float
    constant_x: bool  # target had zero spread; R^2 reported as 1.0 by convention
    constant_y: bool


def _r_squared(target: np.ndarray, predicted: np.ndarray) -> tuple[float, bool]:
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0, True
    ss_res = float(np.sum((target - predicted) ** 2))
    return 1.0 - ss_res / ss_tot, False


def fit_coordinate_regressors(
    features,
    embedding,
    config: SensitivityConfig = SensitivityConfig(),
) -> CoordinateRegressors:
    x = features.values if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    coords = embedding.coords if isinstance(embedding, Embedding) else np.asarray(embedding, dtype=np.float64)
    if x.shape[0] != coords.shape[0]:
        raise DataError("features misaligned with embedding rows")
    if x.shape[0] < 10:
        raise DataError("need at least 10 rows to fit coordinate regressors")

    models = []
    stats = []
    for axis, name in enumerate(("x", "y")):
        fc = ForestConfig(
            n_trees=config.n_trees,
            max_depth=config.max_depth,
            seed=derive_seed(config.seed, f"coord-{name}"),
            task="regression",
        )
        model = fit_random_forest(x, coords[:, axis], fc)
        r2, constant = _r_squared(coords[:, axis], model.predict(x))
        models.append(model)
        stats.append((r2, constant))
    return CoordinateRegressors(
        model_x=models[0],
        model_y=models[1],
        r2_x=stats[0][0],
        r2_y=stats[1][0],
        constant_x=stats[0][1],
        constant_y=stats[1][1],
    )


def tree_subset_values(tree: DecisionTree, instances) -> np.ndarray:
    """v(S) for every instance and every feature subset of one tree.

    Returns an (N, 2^d) array; column s holds v(S) for the subset whose
    members are the set bits of s. The walk is depth-first, left before
    right, so each leaf's weight is its path product taken root to leaf
    and leaves add into the result in preorder.
    """
    x = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    if not np.isfinite(x).all():
        raise DataError("instances must be finite")
    if x.shape[1] != tree.n_features:
        raise DataError(f"expected {tree.n_features} features, got {x.shape[1]}")
    table = tree.root
    feature = table.feature.tolist()
    threshold = table.threshold.tolist()
    right = table.right.tolist()
    n_samples = table.n_samples.tolist()
    value = table.value.tolist()
    xt = np.ascontiguousarray(x.T)
    subsets = np.arange(1 << tree.n_features)
    in_subset = [((subsets >> f) & 1).astype(bool) for f in range(tree.n_features)]
    out = np.zeros((x.shape[0], subsets.size), dtype=np.float64)
    stack = [(0, np.ones_like(out))]
    while stack:
        node, weights = stack.pop()
        f = feature[node]
        if f < 0:
            out += weights * value[node]
            continue
        # a feature in S follows the instance's branch; one outside S
        # splits the weight by the children's training shares
        left_child, right_child = node + 1, right[node]
        share_left = n_samples[left_child] / n_samples[node]
        share_right = n_samples[right_child] / n_samples[node]
        goes_left = (xt[f] <= threshold[node])[:, None]
        w_right = weights * np.where(in_subset[f], ~goes_left, share_right)
        w_left = weights * np.where(in_subset[f], goes_left, share_left)
        if w_right.any():
            stack.append((right_child, w_right))
        if w_left.any():
            stack.append((left_child, w_left))
    return out


def shapley_from_subset_values(values: np.ndarray, d: int) -> np.ndarray:
    """Combine subset values into Shapley values.

    phi_j = sum over subsets S not containing j of
    |S|! (d-|S|-1)! / d! * (v(S + j) - v(S)). Numerators are integer
    factorials and each per-feature sum is exact (math.fsum), so the
    result is bit-for-bit comparable with an orderings enumeration.
    """
    values = np.atleast_2d(values)
    n = values.shape[0]
    d_fact = math.factorial(d)
    phi = np.zeros((n, d), dtype=np.float64)
    for j in range(d):
        terms = []
        for s in range(1 << d):
            if (s >> j) & 1:
                continue
            k = bin(s).count("1")
            terms.append((s, s | (1 << j), math.factorial(k) * math.factorial(d - k - 1)))
        for i in range(n):
            phi[i, j] = (
                math.fsum(w * (values[i, hi] - values[i, lo]) for lo, hi, w in terms)
                / d_fact
            )
    return phi


@dataclass
class ShapleyAttribution:
    phi: np.ndarray  # N x d
    base: float  # v(empty set), averaged over trees
    predictions: np.ndarray  # N


def shapley_values(model, instances) -> ShapleyAttribution:
    """Exact Shapley attributions for a tree or a regression forest.

    v(S) is linear over trees, so a forest's subset values are the
    per-tree values averaged and one Shapley combination serves the whole
    ensemble; efficiency (sum phi + base = prediction) is asserted to
    1e-9 for every instance.
    """
    x = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    if isinstance(model, DecisionTree):
        trees = [model]
    elif isinstance(model, RandomForestModel):
        if model.config.task != "regression":
            raise DataError("shapley attributions require regression trees (votes are not additive)")
        trees = model.trees
    else:
        raise DataError(f"cannot attribute model of type {type(model).__name__}")

    d = trees[0].n_features
    total = np.zeros((x.shape[0], 1 << d), dtype=np.float64)
    for tree in trees:
        total += tree_subset_values(tree, x)
    values = total / len(trees)
    phi = shapley_from_subset_values(values, d)
    base = float(values[0, 0])  # v(empty) is instance-independent
    predictions = values[:, -1]

    gap = np.abs(phi.sum(axis=1) + base - predictions)
    worst = int(np.argmax(gap))
    if gap[worst] > 1e-9:
        raise NumericError(
            f"attribution efficiency violated at instance {worst}: gap {gap[worst]:.3e}"
        )
    return ShapleyAttribution(phi=phi, base=base, predictions=predictions)


@dataclass
class SensitivityMap:
    ids: list[str]
    feature_names: tuple[str, ...]
    phi_x: np.ndarray  # N x d
    phi_y: np.ndarray  # N x d
    combined: np.ndarray  # N x d, nonnegative
    base_x: float
    base_y: float
    combination: str
    r2_x: float | None = None
    r2_y: float | None = None


def build_sensitivity_map(
    regressors: CoordinateRegressors,
    features,
    combination: str = "euclidean",
) -> SensitivityMap:
    if combination not in COMBINATION_RULES:
        raise DataError(f"unknown combination rule {combination!r}")
    if isinstance(features, FeatureMatrix):
        x = features.values
        ids = list(features.ids)
        names = tuple(features.feature_names)
    else:
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        ids = [str(i) for i in range(x.shape[0])]
        names = tuple(FEATURE_NAMES[: x.shape[1]])

    att_x = shapley_values(regressors.model_x, x)
    att_y = shapley_values(regressors.model_y, x)
    if combination == "euclidean":
        combined = np.sqrt(att_x.phi**2 + att_y.phi**2)
    else:
        combined = np.abs(att_x.phi) + np.abs(att_y.phi)
    return SensitivityMap(
        ids=ids,
        feature_names=names,
        phi_x=att_x.phi,
        phi_y=att_y.phi,
        combined=combined,
        base_x=att_x.base,
        base_y=att_y.base,
        combination=combination,
        r2_x=regressors.r2_x,
        r2_y=regressors.r2_y,
    )


def sensitivity_summary(smap: SensitivityMap) -> dict:
    """Per-feature distribution statistics of the combined magnitudes."""
    if smap.combined.size == 0:
        raise DataError("empty sensitivity map")
    summary: dict = {}
    for j, name in enumerate(smap.feature_names):
        col = smap.combined[:, j]
        q25, q50, q75 = np.quantile(col, (0.25, 0.5, 0.75))
        summary[name] = {
            "mean": float(col.mean()),
            "max": float(col.max()),
            "q25": float(q25),
            "median": float(q50),
            "q75": float(q75),
        }
    return summary


def save_sensitivity_map(smap: SensitivityMap, csv_path: str, meta_path: str, extra_metadata: dict | None = None) -> None:
    """Write one row per (record, feature) plus a JSON sidecar."""
    rows = (
        [rec_id, name, repr(float(smap.phi_x[i, j])), repr(float(smap.phi_y[i, j])),
         repr(float(smap.combined[i, j]))]
        for i, rec_id in enumerate(smap.ids)
        for j, name in enumerate(smap.feature_names)
    )
    write_csv(csv_path, _SENSITIVITY_COLUMNS, rows)
    meta = {
        "base_x": smap.base_x,
        "base_y": smap.base_y,
        "combination": smap.combination,
        "r2_x": smap.r2_x,
        "r2_y": smap.r2_y,
        "feature_names": list(smap.feature_names),
        "n_records": len(smap.ids),
    }
    if extra_metadata:
        meta.update(extra_metadata)
    write_json(meta_path, meta)


def load_sensitivity_map(csv_path: str, meta_path: str, missing: str | None = None) -> SensitivityMap:
    meta = read_json(meta_path, missing)
    names = meta.get("feature_names")
    if not isinstance(names, list):
        raise DataError(f"{meta_path} has no feature_names list")
    missing_keys = {"base_x", "base_y"} - meta.keys()
    if missing_keys:
        raise DataError(f"{meta_path} is missing {', '.join(sorted(missing_keys))}")
    names = tuple(names)
    ids: list[str] = []
    rows: dict[str, dict[str, list[float]]] = {}
    table = read_csv(csv_path, _SENSITIVITY_COLUMNS, (str, str, float, float, float), missing)
    for rec_id, feature, *values in table:
        if rec_id not in rows:
            rows[rec_id] = {}
            ids.append(rec_id)
        rows[rec_id][feature] = values
    n, d = len(ids), len(names)
    phi_x = np.zeros((n, d))
    phi_y = np.zeros((n, d))
    combined = np.zeros((n, d))
    for i, rec_id in enumerate(ids):
        for j, name in enumerate(names):
            if name not in rows[rec_id]:
                raise DataError(f"record {rec_id} missing feature {name}")
            phi_x[i, j], phi_y[i, j], combined[i, j] = rows[rec_id][name]
    return SensitivityMap(
        ids=ids,
        feature_names=names,
        phi_x=phi_x,
        phi_y=phi_y,
        combined=combined,
        base_x=meta["base_x"],
        base_y=meta["base_y"],
        combination=meta.get("combination", "euclidean"),
        r2_x=meta.get("r2_x"),
        r2_y=meta.get("r2_y"),
    )
