"""The level-wise grower against the recursive object-graph grower.

`_reference_grow` and `_reference_best_split` are a former recursive
implementation (per-node stable argsort, one feature at a time), kept
here only as the oracle: every node of every tree must match it exactly.
The reference grows on rows with integer weights. Regression forests are
checked against it on each bootstrap's distinct rows, weighted by their
multiplicity, as the grower grows them; classification forests on every
repeated row of the bootstrap, each weighing 1, so it also checks that
classification trees grown on distinct rows with weights are the same
trees. The reference scores classification cuts in exact rationals, so
it breaks ties in exact arithmetic by the grower's rule, not by rounding.
With feature subsampling the reference is fed the candidates of the
grower's schedule, drawn independently here one node at a time from a
breadth-first queue (`_queue_schedule`). A regression target of q
columns is scored by the sum of each output's score, the squares added
in output order, and a node's value is its mean of every output.
"""

from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from chirpmap.models import forest as forest_module
from chirpmap.models.forest import ForestConfig, fit_random_forest, fit_tree
from chirpmap.models.tree import (_EXACT_ROWS, _best_class_splits, _best_splits,
                                  _class_cut_candidates)


def _node_mean(x, y, w, idx):
    """Sum of w y over the node's rows / sum of w, per output: the
    products added one at a time in the rows' stable order by the last
    feature, the order in which the grower sums them."""
    order = idx[np.argsort(x[idx, -1], kind="stable")]
    return np.cumsum((w[order] * y[order].T).T, axis=0)[-1] / w[idx].sum()


def _reference_best_split(x, y, w, idx, features, task, n_classes):
    n = w[idx].sum()
    best = None
    if task == "regression":
        mean = _node_mean(x, y, w, idx)
    for f in features:
        order = idx[np.argsort(x[idx, f], kind="stable")]
        sv = x[order, f]
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        ws = w[order]
        n_left = np.cumsum(ws)[cut]
        n_right = n - n_left
        ys = y[order]
        if task == "classification":
            # the weighted child Gini in exact rationals, so that splits
            # tied in exact arithmetic tie here as in the grower
            total = np.bincount(ys, ws, minlength=n_classes).astype(np.int64).tolist()
            below = [np.cumsum(ws * (ys == c))[cut].tolist() for c in range(n_classes)]
            weighted = []
            for i, (nl, nr) in enumerate(zip(n_left.tolist(), n_right.tolist())):
                gini_l = 1 - sum(Fraction(b[i], nl) ** 2 for b in below)
                gini_r = 1 - sum(Fraction(t - b[i], nr) ** 2 for t, b in zip(total, below))
                weighted.append((nl * gini_l + nr * gini_r) / int(n))
        else:
            # minus the centered gain, summed over the outputs in order
            num = 0.0
            for y_o, mean_o in zip(ys.reshape(ys.shape[0], -1).T, np.reshape(mean, -1)):
                s = np.cumsum(ws * (y_o - mean_o))[cut]
                num = num + s * s
            weighted = (-num / (n_left * n_right)).tolist()
        j = weighted.index(min(weighted))  # the first minimum
        if best is None or weighted[j] < best[0]:
            threshold = (sv[cut[j]] + sv[cut[j] + 1]) / 2.0
            best = (weighted[j], int(f), threshold)
    if best is None:
        return None
    return best[1], best[2]


def _reference_leaf(x, y, w, idx, task, n_classes):
    n = int(w[idx].sum())
    if task == "classification":
        counts = np.bincount(y[idx], w[idx], minlength=n_classes).astype(np.int64)
        return {"n": n, "value": float(np.argmax(counts)), "counts": counts.tolist()}
    return {"n": n, "value": _node_mean(x, y, w, idx).tolist(), "counts": None}


def _reference_grow(x, y, w, idx, depth, config, n_classes, features_of, path=""):
    """`features_of(path)` gives the candidates of the node at `path`, a
    string of L and R steps from the root; row i weighs w[i]."""
    y_node = y[idx]
    node = _reference_leaf(x, y, w, idx, config.task, n_classes)
    if (bool(np.all(y_node == y_node[0])) or idx.size < 2
            or (config.max_depth is not None and depth >= config.max_depth)):
        return node
    split = _reference_best_split(x, y, w, idx, features_of(path), config.task, n_classes)
    node["scored"] = True
    if split is None:
        return node
    feature, threshold = split
    mask = x[idx, feature] <= threshold
    node["feature"] = feature
    node["threshold"] = threshold
    node["left"] = _reference_grow(x, y, w, idx[mask], depth + 1, config, n_classes,
                                   features_of, path + "L")
    node["right"] = _reference_grow(x, y, w, idx[~mask], depth + 1, config, n_classes,
                                    features_of, path + "R")
    return node


def _queue_schedule(tree, rng, d, m):
    """Candidates of every scored node of `tree`: m of the d features with
    the smallest uniform keys, d keys per node, nodes taken from a FIFO queue."""
    schedule = {}
    queue = deque([(tree, "")])
    while queue:
        node, path = queue.popleft()
        if node.get("scored"):
            schedule[path] = tuple(np.sort(np.argsort(rng.random(d), kind="stable")[:m]).tolist())
        if "feature" in node:
            queue.extend([(node["left"], path + "L"), (node["right"], path + "R")])
    return schedule


def _reference_tree(x, y, config, n_classes, m, make_rng, w=None):
    """The reference tree on rows weighted by w (by default 1 each), with
    the level-order schedule when m < d.

    The schedule of a level depends only on the levels above it, so
    growing on the last schedule and redrawing converges, level by level.
    `make_rng()` returns the generator in the state the tree's draws start.
    """
    d = x.shape[1]
    w = np.ones(x.shape[0], dtype=np.int64) if w is None else w
    idx = np.arange(x.shape[0])
    if m >= d:
        return _reference_grow(x, y, w, idx, 0, config, n_classes, lambda path: np.arange(d))
    schedule = {}
    for _ in range(200):
        tree = _reference_grow(x, y, w, idx, 0, config, n_classes,
                               lambda path: np.array(schedule.get(path, range(m))))
        drawn = _queue_schedule(tree, make_rng(), d, m)
        if drawn == schedule:
            return tree
        schedule = drawn
    raise AssertionError("schedule did not converge")


def _preorder(node):
    yield node
    if "feature" in node:
        yield from _preorder(node["left"])
        yield from _preorder(node["right"])


def _assert_same_tree(table, reference):
    nodes = list(_preorder(reference))
    index = {id(node): i for i, node in enumerate(nodes)}
    assert table.feature.size == len(nodes)
    for i, node in enumerate(nodes):
        assert table.feature[i] == node.get("feature", -1)
        if "feature" in node:  # the left child is node i + 1 in both preorders
            assert table.threshold[i] == node["threshold"]
            assert table.right[i] == index[id(node["right"])]
        else:
            assert table.right[i] == -1
        assert table.n_samples[i] == node["n"]
        assert table.value[i].tolist() == node["value"]
        if node["counts"] is None:
            assert table.counts is None
        else:
            assert table.counts[i].tolist() == node["counts"]


def _data(task, seed, n=90, d=3):
    rng = np.random.default_rng(seed)
    # rounding makes ties between rows, as standardized integer fields do
    x = np.round(rng.normal(size=(n, d)), 1)
    if task == "classification":
        y = (x[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64) + (x[:, 1] > 1.0)
    else:
        y = np.sin(2.0 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=n)
    return x, y


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("m_features", [None, 2])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_grower_matches_recursive_reference(task, max_depth, m_features, bootstrap):
    seed = 7 * (max_depth or 1) + (m_features or 0) + 3 * bootstrap
    x, y = _data(task, seed)
    if bootstrap:
        boot = np.random.default_rng(seed).integers(0, x.shape[0], size=x.shape[0])
        x, y = x[boot], y[boot]
    config = ForestConfig(n_trees=1, task=task, max_depth=max_depth)
    m = x.shape[1] if m_features is None else m_features
    tree = fit_tree(x, y, config, rng=np.random.default_rng(seed), m_features=m_features)
    reference = _reference_tree(x, y, config, tree.n_classes, m,
                                lambda: np.random.default_rng(seed))
    assert tree.n_classes == (3 if task == "classification" else 0)
    _assert_same_tree(tree.root, reference)


def _repeated_rows(task, seed, n=80, d=3):
    """Rows drawn from 20 distinct ones, on a 0.5 grid, so that bootstraps
    repeat rows many times over and values tie across rows; a few labels
    are redrawn, so equal rows can disagree."""
    x, y = _data(task, seed, n=20, d=d)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, 20, size=n)
    x, y = np.round(2.0 * x[pick]) / 2.0, y[pick]
    flip = rng.random(n) < 0.15
    y[flip] = rng.permutation(y)[flip]
    return x, y


def _noisy_labels(task, seed, n=80, d=3):
    """Whole-number rows, many of them tied, in 3 classes by a threshold
    on the first feature with about 5% of labels redrawn: along a feature
    the class changes at few of the cuts."""
    rng = np.random.default_rng(seed)
    x = np.round(2.0 * rng.normal(size=(n, d)))
    y = np.digitize(x[:, 0], [-1.0, 1.0])
    flip = rng.random(n) < 0.05
    y[flip] = rng.integers(0, 3, size=flip.sum())
    return x, y


@pytest.mark.parametrize("task, d, cohort", [
    pytest.param("regression", 3, _data, id="regression-3"),
    pytest.param("classification", 2, _data, id="classification-2"),
    pytest.param("classification", 3, _data, id="classification-3"),
    pytest.param("regression", 3, _repeated_rows, id="regression-3-repeated"),
    pytest.param("classification", 3, _repeated_rows, id="classification-3-repeated"),
    pytest.param("classification", 3, _noisy_labels, id="classification-3-noisy"),
])
@pytest.mark.parametrize("block_rows", [1, 10**6])
def test_forest_matches_recursive_reference(task, d, cohort, block_rows, monkeypatch):
    """Every tree of a forest against the reference grown on its bootstrap:
    on the distinct rows weighted by multiplicity for regression, on every
    drawn row for classification. With d = 3 each node draws 2 candidates."""
    monkeypatch.setattr(forest_module, "_BLOCK_ROWS", block_rows)
    x, y = cohort(task, 11, n=80, d=d)
    config = ForestConfig(n_trees=6, seed=4, task=task)
    forest = fit_random_forest(x, y, config)
    n_classes = forest.n_classes
    m = int(np.ceil(np.sqrt(d)))
    tree_config = ForestConfig(n_trees=1, task=task)
    n = x.shape[0]
    boot_seed, key_seed = np.random.SeedSequence(4).spawn(2)
    boots = np.random.default_rng(boot_seed).integers(0, n, size=(6, n))
    for t, (tree, boot) in enumerate(zip(forest.trees, boots)):
        def tree_rng(t=t):  # at tree t's keys: n - 1 rows of d doubles per tree
            bits = np.random.PCG64(key_seed)
            bits.advance(t * (n - 1) * d)
            return np.random.Generator(bits)

        if task == "regression":
            rows, w = np.unique(boot, return_counts=True)
            reference = _reference_tree(x[rows], y[rows], tree_config, n_classes, m, tree_rng, w)
        else:
            reference = _reference_tree(x[boot], y[boot], tree_config, n_classes, m, tree_rng)
        _assert_same_tree(tree.root, reference)


def _two_outputs(cohort, seed, n=90, d=3):
    """A regression cohort with a second output on another scale, as the
    two embedding coordinates are learnt together."""
    x, y = cohort("regression", seed, n=n, d=d)
    second = 40.0 * np.round(np.cos(3.0 * x[:, 2]) - x[:, 0], 1)
    return x, np.column_stack([y, second])


@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("m_features", [None, 2])
@pytest.mark.parametrize("bootstrap", [False, True])
def test_two_output_grower_matches_recursive_reference(max_depth, m_features, bootstrap):
    seed = 7 * (max_depth or 1) + (m_features or 0) + 3 * bootstrap
    x, y = _two_outputs(_data, seed)
    if bootstrap:
        boot = np.random.default_rng(seed).integers(0, x.shape[0], size=x.shape[0])
        x, y = x[boot], y[boot]
    config = ForestConfig(n_trees=1, task="regression", max_depth=max_depth)
    m = x.shape[1] if m_features is None else m_features
    tree = fit_tree(x, y, config, rng=np.random.default_rng(seed), m_features=m_features)
    assert tree.root.value.shape == (tree.root.feature.size, 2)
    reference = _reference_tree(x, y, config, 0, m, lambda: np.random.default_rng(seed))
    _assert_same_tree(tree.root, reference)


@pytest.mark.parametrize("cohort", [_data, _repeated_rows], ids=["distinct", "repeated"])
@pytest.mark.parametrize("block_rows", [1, 10**6])
def test_two_output_forest_matches_recursive_reference(cohort, block_rows, monkeypatch):
    """Every tree of a forest on an (n, 2) target against the reference
    grown on its bootstrap's distinct rows, weighted by multiplicity."""
    monkeypatch.setattr(forest_module, "_BLOCK_ROWS", block_rows)
    x, y = _two_outputs(cohort, 11, n=80)
    forest = fit_random_forest(x, y, ForestConfig(n_trees=6, seed=4, task="regression"))
    n, d = x.shape
    boot_seed, key_seed = np.random.SeedSequence(4).spawn(2)
    boots = np.random.default_rng(boot_seed).integers(0, n, size=(6, n))
    for t, (tree, boot) in enumerate(zip(forest.trees, boots)):
        def tree_rng(t=t):
            bits = np.random.PCG64(key_seed)
            bits.advance(t * (n - 1) * d)
            return np.random.Generator(bits)

        rows, w = np.unique(boot, return_counts=True)
        reference = _reference_tree(x[rows], y[rows], ForestConfig(n_trees=1, task="regression"), 0, 2,
                                    tree_rng, w)
        _assert_same_tree(tree.root, reference)
    assert forest.predict(x).shape == (n, 2)


def test_a_constant_output_leaves_the_other_to_decide():
    """A node is scored while any output varies: with one output constant
    the tree is the other output's tree, with the constant in every node."""
    x, y = _data("regression", 5)
    both = np.column_stack([np.full(y.size, 2.5), y])
    config = ForestConfig(n_trees=1, task="regression")
    two, one = fit_tree(x, both, config).root, fit_tree(x, y, config).root
    for key in ("feature", "threshold", "right", "n_samples"):
        assert np.array_equal(getattr(two, key), getattr(one, key))
    assert np.array_equal(two.value[:, 1], one.value) and np.all(two.value[:, 0] == 2.5)


@pytest.mark.parametrize("cohort", [_data, _repeated_rows], ids=["distinct", "repeated"])
def test_one_column_target_grows_the_one_output_trees(cohort):
    """A forest on an (n, 1) target is the forest on its (n,) column, bit
    for bit, with each node's value in a column of its own."""
    x, y = cohort("regression", 3, n=80)
    config = ForestConfig(n_trees=8, seed=2, task="regression")
    flat, column = fit_random_forest(x, y, config), fit_random_forest(x, y[:, None], config)
    for a, b in zip(flat.trees, column.trees):
        for key in ("feature", "threshold", "right", "n_samples"):
            assert getattr(a.root, key).tobytes() == getattr(b.root, key).tobytes()
        assert b.root.value.shape == (a.root.value.size, 1)
        assert a.root.value.tobytes() == b.root.value.tobytes()
    assert flat.predict(x).tobytes() == column.predict(x).tobytes()


def _former_best_split(xt, y, w, orders, features, task, n_classes, totals):
    """The former per-node scorer: every candidate in one (m, n - 1) pass.
    `totals` holds the node's class totals, or its mean target for
    regression."""
    rows = orders.take(features, axis=0)
    sv = xt[features[:, None], rows]
    ys = y[rows]
    ws = w[rows]
    is_cut = sv[:, :-1] < sv[:, 1:]
    n_left = ws.cumsum(axis=1)[:, :-1]
    n_right = ws[0].sum() - n_left
    if task == "classification":
        below = ((ys[:, :, None] == np.arange(n_classes)) * ws[:, :, None]).cumsum(axis=1)[:, :-1]
        pl = below / n_left[:, :, None]
        pr = (totals - below) / n_right[:, :, None]
        left_sq = pl * pl
        right_sq = pr * pr
        left_impurity = left_sq[:, :, 0]
        right_impurity = right_sq[:, :, 0]
        for c in range(1, n_classes):
            left_impurity = left_impurity + left_sq[:, :, c]
            right_impurity = right_impurity + right_sq[:, :, c]
        weighted = (n_left * (1.0 - left_impurity) + n_right * (1.0 - right_impurity)) \
            / ws[0].sum()
    else:
        s = (ws * (ys - totals)).cumsum(axis=1)[:, :-1]
        weighted = -(s * s) / (n_left * n_right)
    weighted = np.where(is_cut, weighted, np.inf)
    best = None
    for r, j in enumerate(weighted.argmin(axis=1).tolist()):
        if is_cut[r, j] and (best is None or weighted[r, j] < weighted[best]):
            best = (r, j)
    if best is None:
        return -1, 0.0
    r, j = best
    return int(features[r]), float((sv[r, j] + sv[r, j + 1]) / 2.0)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_batched_scorer_matches_former_per_node_scorer(task):
    """Many nodes of mixed sizes scored in one call, each as if alone:
    near-ties between candidates make any change of bits visible."""
    rng = np.random.default_rng(5)
    d, n_classes = 3, 3
    sizes = np.concatenate([np.arange(2, 40), rng.integers(2, 700, size=30), [129, 128, 257]])
    n = int(sizes.sum())
    xt = np.round(rng.normal(size=(d, n)), 1)
    if task == "classification":
        y = rng.integers(0, n_classes, size=n)
        w = np.ones(n, dtype=np.int64)
    else:
        y = np.round(rng.normal(size=n), 1) * 10.0 ** rng.integers(-3, 4, size=n)
        w = rng.integers(1, 5, size=n)
    starts = np.cumsum(sizes) - sizes
    orders = np.empty((d, n), dtype=np.intp)
    cand = np.sort(np.argsort(rng.random((sizes.size, d)), axis=1)[:, :2], axis=1)
    totals = np.zeros((sizes.size, n_classes), dtype=np.int64)
    means = np.zeros(sizes.size)
    expected = []
    for i, (lo, size) in enumerate(zip(starts, sizes)):
        rows = np.arange(lo, lo + size)
        node_orders = rows[np.argsort(xt[:, rows], axis=1, kind="stable")]
        orders[:, lo:lo + size] = node_orders
        if task == "classification":
            totals[i] = np.bincount(y[rows], minlength=n_classes)
        else:
            means[i] = (w[rows] * y[rows]).sum() / w[rows].sum()
        expected.append(_former_best_split(xt, y, w, node_orders, cand[i], task, n_classes,
                                           totals[i] if task == "classification" else means[i]))
    if task == "classification":
        feature, threshold = _best_class_splits(xt, y, w, orders, np.arange(n), sizes, cand, totals)
    else:
        feature, threshold = _best_splits(xt, y, w, orders, np.arange(n), sizes, cand, means)
    assert list(zip(feature.tolist(), threshold.tolist())) == expected
    if task == "classification":
        # the same rows weighted score as those rows repeated, bit for bit
        weights = rng.integers(1, 5, size=n)
        repeated = np.repeat(np.arange(n), weights)
        expected = []
        for i, (lo, size) in enumerate(zip(starts, sizes)):
            rows = np.flatnonzero((repeated >= lo) & (repeated < lo + size))
            node_orders = rows[np.argsort(xt[:, repeated[rows]], axis=1, kind="stable")]
            totals[i] = np.bincount(y[repeated[rows]], minlength=n_classes)
            expected.append(_former_best_split(xt[:, repeated], y[repeated],
                                               np.ones(repeated.size, dtype=np.int64),
                                               node_orders, cand[i], task, n_classes, totals[i]))
        feature, threshold = _best_class_splits(xt, y, weights, orders, np.arange(n), sizes, cand,
                                                totals)
        assert list(zip(feature.tolist(), threshold.tolist())) == expected


def _sorted_nodes(xt, sizes):
    """Per-feature orders of nodes that hold consecutive rows, `sizes`
    long: each node's rows stably sorted by every feature."""
    orders = np.empty(xt.shape, dtype=np.intp)
    for lo, size in zip(np.cumsum(sizes) - sizes, sizes):
        rows = np.arange(lo, lo + size)
        orders[:, lo:lo + size] = rows[np.argsort(xt[:, rows], axis=1, kind="stable")]
    return orders


@pytest.mark.parametrize("n_classes", [2, 3, 4])
@pytest.mark.parametrize("labels", ["threshold", "random"])
def test_class_scorer_matches_former_per_node_scorer(n_classes, labels):
    """Scored at its candidate cuts only, each node gets the first best
    cut over all its valid cuts: whole-number values tie often; labels by
    a threshold with about 5% redrawn change class at few cuts, random
    labels at many; rows weigh 1 to 5, each node scores 2 of 3 features,
    and the last node holds more than `_EXACT_ROWS` drawn rows."""
    rng = np.random.default_rng(10 * n_classes + (labels == "random"))
    d = 3
    sizes = np.concatenate([np.arange(2, 30), rng.integers(2, 400, size=40), [900]])
    n = int(sizes.sum())
    xt = np.round(3.0 * rng.normal(size=(d, n)))
    if labels == "random":
        y = rng.integers(0, n_classes, size=n)
    else:
        y = np.digitize(xt[0], np.linspace(-2.0, 2.0, n_classes - 1))
        flip = rng.random(n) < 0.05
        y[flip] = rng.integers(0, n_classes, size=flip.sum())
    w = rng.integers(1, 6, size=n)
    orders = _sorted_nodes(xt, sizes)
    cand = np.sort(np.argsort(rng.random((sizes.size, d)), axis=1)[:, :2], axis=1)
    node = np.repeat(np.arange(sizes.size), sizes)
    totals = np.bincount(node * n_classes + y, w, minlength=sizes.size * n_classes)
    totals = totals.astype(np.int64).reshape(sizes.size, n_classes)
    assert totals[-1].sum() > _EXACT_ROWS
    expected = [_former_best_split(xt, y, w, orders[:, lo:lo + size], cand[i], "classification",
                                   n_classes, totals[i])
                for i, (lo, size) in enumerate(zip(np.cumsum(sizes) - sizes, sizes))]
    feature, threshold = _best_class_splits(xt, y, w, orders, np.arange(n), sizes, cand, totals)
    assert list(zip(feature.tolist(), threshold.tolist())) == expected


def test_exact_rows_bound_and_larger_nodes_score_every_valid_cut():
    """The candidate rule keeps the first best cut only while rounding
    merges no two scores, which needs _EXACT_ROWS^5 <= 2^56 (see
    `_EXACT_ROWS`). A node of _EXACT_ROWS drawn rows is scored at its
    candidates; one of a row more, at every valid cut."""
    assert _EXACT_ROWS ** 5 <= 2 ** 56
    rng = np.random.default_rng(12)
    size = 500
    sv = np.sort(np.round(rng.normal(size=(2, 2, size)), 2), axis=-1).reshape(2, -1)
    labels = (sv > 0.5).astype(np.int64)  # one class change per node and feature
    starts, ends = np.array([0, size]), np.array([size, 2 * size])
    keep = _class_cut_candidates(sv, labels, starts, ends,
                                 np.array([_EXACT_ROWS, _EXACT_ROWS + 1]))
    valid = np.zeros_like(keep)
    valid[:, :-1] = sv[:, :-1] < sv[:, 1:]
    valid[:, ends - 1] = False
    assert not (keep & ~valid).any()
    assert np.array_equal(keep[:, size:], valid[:, size:])
    assert keep[:, :size].sum() < valid[:, :size].sum()
