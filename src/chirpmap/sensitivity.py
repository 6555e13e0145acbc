"""Feature-sensitivity maps over the embedding.

Two random-forest regressors learn each embedding coordinate from the
original three features; exact Shapley values over all 2^d feature
subsets attribute every prediction back to the features, and the x/y
attributions are combined into one magnitude per feature per record.

The subset value v(S) is the tree-conditional expectation, the
path-dependent value function of TreeSHAP (Lundberg, Erion & Lee 2018,
arXiv:1802.03888): a split on a feature in S follows the instance's
branch, a split on a feature outside S descends both branches weighted
by the training shares of the children. A leaf's weight is therefore an
indicator times a constant: whether the instance lies in the leaf's box
on S's features, times the product P(l, S) of the shares at the path's
splits outside S. v(S) is the sum of P(l, S) * value over the leaves
whose box holds the instance, averaged over the trees, and it is painted
for a whole forest at once from the leaf boxes (`tree_subset_values`).
The painted values are exact up to rounding; the subset of every feature
the forest splits on is the routed prediction, bit-equal to `predict`.
The averaged values are combined into Shapley values once.

The full-subset column is the prediction (TreeSHAP's local accuracy), so
a map routes each forest once and scores its R^2 from the attribution.

The features arrive as ingest's plain N x 3 array. A map's rows follow
the array's and its columns ``FEATURE_NAMES``. This module only
computes: the caller keeps the record ids, and the pipeline's explain
stage writes them beside the values in ``sensitivity.csv``, with the
bases, R^2 and combination rule in its sidecar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .ingest import FEATURE_NAMES
from .models import DecisionTree, ForestConfig, RandomForestModel, fit_random_forest
from .models.forest import paint_boxes, stack_trees
from .models.tree import leaf_boxes, leaf_path_shares
from .seeding import derive_seed

COMBINATION_RULES = ("euclidean", "sum_abs")


@dataclass(frozen=True)
class SensitivityConfig:
    n_trees: int = 100
    max_depth: int | None = None
    seed: int = 0
    combination: str = "euclidean"

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be positive")
        if self.max_depth is not None and self.max_depth < 0:
            raise DataError("max_depth must be nonnegative")
        if self.combination not in COMBINATION_RULES:
            raise DataError(f"unknown combination rule {self.combination!r}")


def _r_squared(target: np.ndarray, predicted: np.ndarray) -> float:
    """R^2, or 1.0 by convention for a target with zero spread."""
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    ss_res = float(np.sum((target - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


def fit_coordinate_regressors(x: np.ndarray, coords,
                              config: SensitivityConfig) -> tuple[RandomForestModel, RandomForestModel]:
    """The forests (x, y) that learn each embedding coordinate from the
    feature rows `x`. Both grow from one seed, so they share their
    bootstraps and candidate draws: swapping the embedding's columns
    swaps the forests, and negating a column negates its forest's leaf
    values, bit for bit."""
    coords = np.asarray(coords, dtype=np.float64)
    if x.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"expected {len(FEATURE_NAMES)} feature columns, got {x.shape[1]}")
    if x.shape[0] != coords.shape[0]:
        raise DataError("features misaligned with embedding rows")
    if x.shape[0] < 10:
        raise DataError("need at least 10 rows to fit coordinate regressors")

    fc = ForestConfig(
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        seed=derive_seed(config.seed, "coord"),
        task="regression",
    )
    return fit_random_forest(x, coords[:, 0], fc), fit_random_forest(x, coords[:, 1], fc)


def tree_subset_values(model, instances) -> np.ndarray:
    """v(S) for every instance and every feature subset, averaged over the
    trees of `model`, a DecisionTree or a regression RandomForestModel.

    Returns an (N, 2^d) array; column s holds v(S) for the subset whose
    members are the set bits of s. Each leaf's P(l, S) * value is painted
    over its box on S's features (`paint_boxes`) and read at the
    instances, by the features of S that some tree splits on:

    - none: one sum over the leaves, the same for every instance;
    - one or two: a 1-D or 2-D painting on the instances' sorted unique
      values of those features;
    - all of them: the routed prediction, `model.predict(instances)`.

    Subsets that differ only in features no tree splits on share one
    computation, so such a feature's Shapley value is exactly 0. The
    values equal those of a root-to-leaf walk up to rounding, since the
    sums run in another order; the routed column is bit-equal to
    `predict`. A model that splits on more than 3 features is a DataError.
    """
    if isinstance(model, DecisionTree):
        trees = [model]
    elif isinstance(model, RandomForestModel):
        if model.config.task != "regression":
            raise DataError("shapley attributions require regression trees (votes are not additive)")
        trees = model.trees
    else:
        raise DataError(f"cannot attribute model of type {type(model).__name__}")
    x = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    if not np.isfinite(x).all():
        raise DataError("instances must be finite")
    d = model.n_features
    if x.shape[1] != d:
        raise DataError(f"expected {d} features, got {x.shape[1]}")
    table = stack_trees(trees)
    split_on = np.flatnonzero(np.bincount(table.feature[table.feature >= 0])).tolist()
    if len(split_on) > 3:
        raise DataError(f"cannot paint subset values of a model split on {len(split_on)} features")
    used = sum(1 << f for f in split_on)
    lo, hi, value = leaf_boxes(table, d)
    weight = leaf_path_shares(table, d) * value[:, None]

    def paint(key: int) -> np.ndarray:
        if key == used:
            return np.asarray(model.predict(x), dtype=np.float64)
        features = [f for f in split_on if key >> f & 1]
        if not features:
            return np.full(x.shape[0], weight[:, key].sum() / len(trees))
        axes, cells = zip(*(np.unique(x[:, f], return_inverse=True) for f in features))
        painted = paint_boxes(axes, lo[:, features], hi[:, features], weight[:, key])[0]
        return painted[cells] / len(trees)

    out = np.empty((x.shape[0], 1 << d))
    columns: dict[int, np.ndarray] = {}
    for s in range(1 << d):
        key = s & used
        if key not in columns:
            columns[key] = paint(key)
        out[:, s] = columns[key]
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
    per-tree values averaged (`tree_subset_values`, one call per model)
    and one Shapley combination serves the whole ensemble; efficiency
    (sum phi + base = prediction) is asserted to 1e-9 for every instance.
    The predictions are the full-subset values, bit-equal to `predict`.
    """
    values = tree_subset_values(model, instances)
    phi = shapley_from_subset_values(values, model.n_features)
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
    """Attributions of N records (rows) to the features (columns, in
    ``FEATURE_NAMES`` order)."""

    phi_x: np.ndarray  # N x d
    phi_y: np.ndarray  # N x d
    combined: np.ndarray  # N x d, nonnegative
    base_x: float
    base_y: float
    r2_x: float
    r2_y: float


def build_sensitivity_map(regressors: tuple[RandomForestModel, RandomForestModel], x: np.ndarray,
                          coords, combination: str) -> SensitivityMap:
    """Both regressors' attributions at the feature rows `x`, combined by
    `combination`, one of ``COMBINATION_RULES`` (``SensitivityConfig``
    checks it), and each forest's R^2 against its column of `coords`."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (x.shape[0], 2):
        raise DataError("features misaligned with embedding rows")

    model_x, model_y = regressors
    att_x = shapley_values(model_x, x)
    att_y = shapley_values(model_y, x)
    if combination == "euclidean":
        combined = np.sqrt(att_x.phi**2 + att_y.phi**2)
    else:
        combined = np.abs(att_x.phi) + np.abs(att_y.phi)
    return SensitivityMap(
        phi_x=att_x.phi,
        phi_y=att_y.phi,
        combined=combined,
        base_x=att_x.base,
        base_y=att_y.base,
        r2_x=_r_squared(coords[:, 0], att_x.predictions),
        r2_y=_r_squared(coords[:, 1], att_y.predictions),
    )


def _quartiles(col: np.ndarray) -> list:
    """np.quantile(col, (0.25, 0.5, 0.75)) bit for bit, by its "linear"
    rule, without the numpy.ma import that np.quantile triggers."""
    s = np.sort(col)
    last = s.size - 1
    if np.isnan(s[last]):  # NaN sorts last; np.quantile returns it for every q
        return [s[last]] * 3
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = last * q
        i = math.floor(pos)
        a, b = s[i], s[min(i + 1, last)]
        t = pos - i if i < last else 1.0  # i == last only for one value: numpy's t is 1
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def sensitivity_summary(smap: SensitivityMap) -> dict:
    """Per-feature distribution statistics of the combined magnitudes."""
    if smap.combined.size == 0:
        raise DataError("empty sensitivity map")
    summary: dict = {}
    for j, name in enumerate(FEATURE_NAMES):
        col = smap.combined[:, j]
        q25, q50, q75 = _quartiles(col)
        summary[name] = {
            "mean": float(col.mean()),
            "max": float(col.max()),
            "q25": float(q25),
            "median": float(q50),
            "q75": float(q75),
        }
    return summary
