"""Feature-sensitivity maps over the embedding.

One random-forest regressor learns both embedding coordinates from the
original three features: a multi-output forest grown on the (N, 2)
coordinate target, each node holding its mean (x, y) and each cut scored
by the fall in squared error summed over the two axes (multivariate
CART, Segal 1992). Exact Shapley values over all 2^d feature subsets
attribute every prediction of each axis back to the features, and the
x/y attributions are combined into one magnitude per feature per record.

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
It is linear in the leaf values (Lundberg et al. 2020), so the boxes,
path shares and sorted axes serve every output, and each output is
painted from its own leaf weights. The painted values are exact up to rounding; the subset
of every feature the forest splits on is the routed prediction,
bit-equal to `predict`. The averaged values are combined into Shapley
values once per output.

The full-subset column is the prediction (TreeSHAP's local accuracy), so
a map routes the forest once, for both axes, and scores each axis's R^2
from the attribution.

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
from .models import ForestConfig, RandomForestModel, fit_random_forest
from .models.forest import box_ranges, paint_boxes
from .models.inputs import query_points
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
        ForestConfig(n_trees=self.n_trees, max_depth=self.max_depth)  # checks both
        if self.combination not in COMBINATION_RULES:
            raise DataError(f"unknown combination rule {self.combination!r}")


def _r_squared(target: np.ndarray, predicted: np.ndarray) -> float:
    """R^2, or 1.0 by convention for a target with zero spread."""
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    ss_res = float(np.sum((target - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


def fit_coordinate_regressors(x: np.ndarray, coords, config: SensitivityConfig) -> RandomForestModel:
    """The one regression forest that learns both embedding coordinates
    from the feature rows `x`, fitted on the (N, 2) target `coords`; its
    `predict` answers (N, 2). The cut score adds the two axes' squares,
    which commutes, and negation is exact: swapping the embedding's
    columns swaps the forest's outputs, and negating a column negates
    that output's leaf values, bit for bit."""
    coords = np.asarray(coords, dtype=np.float64)
    if x.shape[1] != len(FEATURE_NAMES):
        raise DataError(f"expected {len(FEATURE_NAMES)} feature columns, got {x.shape[1]}")
    if coords.shape != (x.shape[0], 2):
        raise DataError("features misaligned with embedding rows")
    if x.shape[0] < 10:
        raise DataError("need at least 10 rows to fit coordinate regressors")

    fc = ForestConfig(
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        seed=derive_seed(config.seed, "coord"),
        task="regression",
    )
    return fit_random_forest(x, coords, fc)


def tree_subset_values(model, instances) -> np.ndarray:
    """v(S) for every instance and every feature subset, averaged over the
    trees of `model`, a regression RandomForestModel (a tree is a forest
    of one, `fit_tree`).

    Returns an (N, 2^d) array, or (N, 2^d, q) for a model grown on a
    q-column target; column s holds v(S) for the subset whose members are
    the set bits of s. The leaves are those of the forest's one node
    table. Each leaf's P(l, S) * value is painted over its box on S's
    features (`paint_boxes`, output by output, on index ranges found
    once) and read at the instances, by the features of S that some tree
    splits on:

    - none: one sum over the leaves, the same for every instance;
    - one or two: a 1-D or 2-D painting on the instances' sorted unique
      values of those features;
    - all of them: the routed prediction, `model.predict(instances)`.

    Subsets that differ only in features no tree splits on share one
    computation, so such a feature's Shapley value is exactly 0. The
    values equal those of a root-to-leaf walk up to rounding, since the
    sums run in another order; the routed column is bit-equal to
    `predict`. Each output sums its own terms in the order of a
    single-output model, so it has the bits of the model whose leaves
    hold that output alone. A model that splits on more than 3 features
    is a DataError.
    """
    if not isinstance(model, RandomForestModel):
        raise DataError(f"cannot attribute model of type {type(model).__name__}")
    if model.config.task != "regression":
        raise DataError("shapley attributions require regression trees (votes are not additive)")
    d = model.n_features
    x = query_points(instances, d)
    if not np.isfinite(x).all():
        raise DataError("instances must be finite")
    table, n_trees = model.root, model.roots.size
    split_on = np.flatnonzero(np.bincount(table.feature[table.feature >= 0])).tolist()
    if len(split_on) > 3:
        raise DataError(f"cannot paint subset values of a model split on {len(split_on)} features")
    used = sum(1 << f for f in split_on)
    lo, hi, value = leaf_boxes(table, d)
    multi_output = value.ndim > 1
    value = value.reshape(value.shape[0], -1)
    q = value.shape[1]
    # weight[o, i, s]: leaf i's P(l, S) * its value of output o
    weight = value.T[:, :, None] * leaf_path_shares(table, d)
    # per split feature: the instances' sorted unique values, each
    # instance's place among them and every leaf's index range on them
    axes = {}
    for f in split_on:
        axis, cells = np.unique(x[:, f], return_inverse=True)
        axes[f] = (axis.size, cells, box_ranges(axis, lo[:, f], hi[:, f]))

    def paint(key: int) -> np.ndarray:
        """v(S) of the key's subset, (N, q)."""
        if key == used:
            return np.asarray(model.predict(x), dtype=np.float64).reshape(x.shape[0], q)
        features = [f for f in split_on if key >> f & 1]
        if not features:
            return np.full((x.shape[0], q), [w[:, key].sum() / n_trees for w in weight])
        sizes, cells, ranges = zip(*(axes[f] for f in features))
        painted = [paint_boxes(ranges, sizes, w[:, key])[0][cells] for w in weight]
        return np.stack(painted, axis=1) / n_trees

    out = np.empty((x.shape[0], 1 << d, q))
    columns: dict[int, np.ndarray] = {}
    for s in range(1 << d):
        key = s & used
        if key not in columns:
            columns[key] = paint(key)
        out[:, s] = columns[key]
    return out if multi_output else out[:, :, 0]


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
    """A model's attributions, with a trailing output axis for a model
    grown on a q-column target."""

    phi: np.ndarray  # N x d (x q)
    base: float | np.ndarray  # v(empty set), averaged over trees; (q,) for q outputs
    predictions: np.ndarray  # N (x q)


def shapley_values(model, instances) -> ShapleyAttribution:
    """Exact Shapley attributions for a tree or a regression forest.

    v(S) is linear over trees, so a forest's subset values are the
    per-tree values averaged (`tree_subset_values`, one call per model)
    and one Shapley combination per output serves the whole ensemble.
    Efficiency (sum phi + base = prediction) is asserted for every
    instance and output to within 1e-9 * max(1, max_S |v(S)|): 1e-9
    where every |v(S)| <= 1, and relative to the values beyond, where
    the combination's rounding grows with them. The predictions are the
    full-subset values, bit-equal to `predict`.
    """
    values = tree_subset_values(model, instances)
    per_output = values.reshape(*values.shape[:2], -1)  # (N, 2^d, q)
    phi = np.stack([shapley_from_subset_values(per_output[:, :, o], model.n_features)
                    for o in range(per_output.shape[2])], axis=-1)
    gap = np.abs(phi.sum(axis=1) + per_output[0, 0] - per_output[:, -1])  # (N, q)
    bound = 1e-9 * np.maximum(1.0, np.abs(per_output).max(axis=1))
    if np.any(gap > bound):
        worst, output = np.unravel_index(np.argmax(gap / bound), gap.shape)
        where = f"instance {worst}" + (f", output {output}" if values.ndim > 2 else "")
        raise NumericError(f"attribution efficiency violated at {where}: gap "
                           f"{gap[worst, output]:.3e} exceeds {bound[worst, output]:.3e}")
    if values.ndim > 2:
        return ShapleyAttribution(phi=phi, base=values[0, 0], predictions=values[:, -1])
    return ShapleyAttribution(phi=phi[:, :, 0], base=float(values[0, 0]), predictions=values[:, -1])


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


def build_sensitivity_map(regressor: RandomForestModel, x: np.ndarray, coords,
                          combination: str) -> SensitivityMap:
    """The coordinate forest's attributions of both axes at the feature
    rows `x`, combined by `combination`, one of ``COMBINATION_RULES``
    (``SensitivityConfig`` checks it), and each axis's R^2 against its
    column of `coords`."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (x.shape[0], 2):
        raise DataError("features misaligned with embedding rows")

    att = shapley_values(regressor, x)
    if att.phi.shape[2:] != (2,):
        raise DataError("the coordinate regressor must predict both embedding coordinates")
    phi_x, phi_y = att.phi[:, :, 0], att.phi[:, :, 1]
    if combination == "euclidean":
        combined = np.sqrt(phi_x**2 + phi_y**2)
    else:
        combined = np.abs(phi_x) + np.abs(phi_y)
    return SensitivityMap(
        phi_x=phi_x,
        phi_y=phi_y,
        combined=combined,
        base_x=float(att.base[0]),
        base_y=float(att.base[1]),
        r2_x=_r_squared(coords[:, 0], att.predictions[:, 0]),
        r2_y=_r_squared(coords[:, 1], att.predictions[:, 1]),
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
