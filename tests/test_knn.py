import tracemalloc

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models.knn import KnnConfig, _nearest, fit_knn


def reference_predict(train_x, train_y, queries, k):
    """Direct restatement of the prediction rule, one query at a time."""
    out = []
    for q in queries:
        d = np.linalg.norm(train_x - q, axis=1)
        order = sorted(range(len(d)), key=lambda i: (d[i], i))
        neigh = order[:k]
        votes = {}
        for i in neigh:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        best = max(votes.values())
        tied = [c for c, v in votes.items() if v == best]
        out.append(tied[0] if len(tied) == 1 else train_y[neigh[0]])
    return np.array(out)


def test_k1_recovers_training_labels(two_blobs):
    x, y = two_blobs
    model = fit_knn(x, y, KnnConfig(k=1))
    assert np.array_equal(model.predict(x), y)


def test_k_equals_n_is_global_majority():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    y = np.array([1, 1, 1, 0, 0])
    model = fit_knn(x, y, KnnConfig(k=5))
    assert model.predict(np.array([[100.0, 100.0], [-50.0, 0.0]])).tolist() == [1, 1]


def test_matches_reference_rule_exactly():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 2))
    y = rng.integers(0, 2, size=100)
    queries = rng.normal(size=(50, 2))
    model = fit_knn(x, y, KnnConfig(k=5))
    assert np.array_equal(model.predict(queries), reference_predict(x, y, queries, 5))


def test_distance_tie_prefers_lower_index():
    x = np.array([[0.0, 1.0], [0.0, -1.0]])
    y = np.array([0, 1])
    model = fit_knn(x, y, KnnConfig(k=1))
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 0
    # swapping rows flips the winner: the tie-break is positional
    swapped = fit_knn(x[::-1], y[::-1], KnnConfig(k=1))
    assert swapped.predict(np.array([[0.0, 0.0]]))[0] == 1


def test_neighbour_selection_equals_stable_argsort_under_ties():
    # small integers make nearly every row tie at and around the k-th value
    rng = np.random.default_rng(3)
    d2 = rng.integers(0, 6, size=(300, 40)).astype(float)
    for k in (1, 2, 5, 17, 40):
        assert np.array_equal(_nearest(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k])


def test_lattice_ties_match_reference_rule():
    # training points on an integer lattice, some repeated; queries on the
    # lattice and halfway between its points, so distances tie everywhere
    grid = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], dtype=float)
    rng = np.random.default_rng(6)
    x = np.vstack([grid, grid[rng.permutation(len(grid))[:20]]])
    y = rng.integers(0, 2, size=len(x))
    queries = np.array([(i / 2, j / 2) for i in range(-8, 9) for j in range(-8, 9)])
    for k in (1, 2, 3, 4, 5, 8):
        model = fit_knn(x, y, KnnConfig(k=k))
        assert np.array_equal(model.predict(queries), reference_predict(x, y, queries, k))


def test_vote_tie_prefers_nearest_neighbor_class():
    x = np.array([[0.0, 1.0], [0.0, -2.0]])
    y = np.array([1, 0])
    model = fit_knn(x, y, KnnConfig(k=2))
    # one vote each; the closer point carries class 1
    assert model.predict(np.array([[0.0, 0.0]]))[0] == 1


def test_k_cannot_exceed_training_size():
    with pytest.raises(DataError):
        fit_knn(np.zeros((3, 2)), np.array([0, 1, 0]), KnnConfig(k=4))
    with pytest.raises(DataError):
        KnnConfig(k=0)


@pytest.mark.parametrize("width", [1, 3])
def test_points_of_another_width_are_data_error(width):
    model = fit_knn(np.zeros((3, 2)), np.array([0, 1, 0]), KnnConfig(k=1))
    with pytest.raises(DataError, match=f"expected 2 features, got {width}"):
        model.predict(np.zeros((4, width)))


def test_blob_holdout_accuracy(two_blobs):
    x, y = two_blobs
    train = np.arange(0, 200, 2)
    test = np.arange(1, 200, 2)
    model = fit_knn(x[train], y[train], KnnConfig(k=5))
    assert (model.predict(x[test]) == y[test]).mean() >= 0.95


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_label_sets_no_working_memory():
    """Votes count over the labels present, so a label of 1e5 costs what
    a label of 3 costs: each peak was over 200 MiB when votes counted
    over every class up to the largest label."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 2))
    y = np.array([0, 1, 2, 10**5, 0, 1, 2, 0, 1, 10**5])
    model = fit_knn(x, y, KnnConfig(k=3))
    small = fit_knn(x, np.where(y == 10**5, 3, y), KnnConfig(k=3))
    centres = np.linspace(-2.0, 2.0, 20)
    grid, peak = _peak_bytes(lambda: model.predict_grid(centres, centres))
    assert peak <= 2**20
    assert np.array_equal(grid, np.where(small.predict_grid(centres, centres) == 3, 10**5, grid))
    assert set(np.unique(grid)) <= {0, 1, 2, 10**5}
    points = rng.normal(size=(256, 2))
    pred, peak = _peak_bytes(lambda: model.predict(points))
    assert peak <= 2**20
    assert np.array_equal(pred, reference_predict(x, y, points, 3))
