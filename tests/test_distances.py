"""Properties of the one pairwise squared-distance helper."""

import numpy as np
import pytest

from chirpmap.distances import squared_distances


def reference(a, b):
    """sum_k (a_ik - b_jk)^2, one entry at a time, in feature order."""
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            diffs = [float(a[i, k] - b[j, k]) for k in range(a.shape[1])]
            total = diffs[0] * diffs[0]
            for diff in diffs[1:]:
                total += diff * diff
            out[i, j] = total
    return out


def points(n, d, seed):
    rng = np.random.default_rng(seed)
    # mixed scales, so that cancellation in another form would show
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(1, d)) + 50.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_any_row_split_gives_the_same_bytes(d):
    a, b = points(97, d, seed=d), points(61, d, seed=10 + d)
    whole = squared_distances(a, b)
    for cuts in ([1], [13, 50], [5, 6, 7, 90]):
        parts = [squared_distances(part, b) for part in np.split(a, cuts)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    out, scratch = np.empty((97, 61)), np.empty((97, 61))
    assert squared_distances(a, b, out=out, scratch=scratch).tobytes() == whole.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_same_points_give_a_symmetric_result_with_zero_diagonal(d):
    a = points(120, d, seed=20 + d)
    d2 = squared_distances(a, a)
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)
    assert np.all(d2 >= 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equals_a_per_feature_reference_sum(d):
    a, b = points(23, d, seed=30 + d), points(17, d, seed=40 + d)
    assert squared_distances(a, b).tobytes() == reference(a, b).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_leading_axes_give_the_bytes_of_one_call_per_matrix(d):
    a = points(4 * 7, d, seed=50 + d).reshape(4, 7, d)
    b = points(4 * 5, d, seed=60 + d).reshape(4, 5, d)
    batch = squared_distances(a, b)
    assert batch.shape == (4, 7, 5)
    for i in range(4):
        assert batch[i].tobytes() == squared_distances(a[i], b[i]).tobytes()
    shared = squared_distances(a[0], b)  # a broadcast against every b[i]
    for i in range(4):
        assert shared[i].tobytes() == squared_distances(a[0], b[i]).tobytes()


def former(a, b):
    """The broadcast form the helper used before: (a_k - b_k)^2 summed in
    feature order, each difference formed by one broadcast subtraction."""
    a_cols = np.moveaxis(a, -1, 0)[..., :, None]
    b_cols = np.moveaxis(b, -1, 0)[..., None, :]
    out = np.subtract(a_cols[0], b_cols[0])
    out *= out
    for k in range(1, a.shape[-1]):
        diff = np.subtract(a_cols[k], b_cols[k])
        out += diff * diff
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_copy_then_subtract_keeps_the_broadcast_subtraction_bits(d):
    a, b = points(150, d, seed=70 + d), points(130, d, seed=80 + d)
    assert squared_distances(a, b).tobytes() == former(a, b).tobytes()
    assert squared_distances(a, a).tobytes() == former(a, a).tobytes()
    batch_a = points(3 * 40, d, seed=90 + d).reshape(3, 40, d)
    batch_b = points(3 * 30, d, seed=100 + d).reshape(3, 30, d)
    assert squared_distances(batch_a, batch_b).tobytes() == former(batch_a, batch_b).tobytes()
    assert squared_distances(batch_a[0], batch_b).tobytes() == former(batch_a[0], batch_b).tobytes()
