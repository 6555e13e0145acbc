"""Properties of the one pairwise squared-distance helper."""

import os
import subprocess
import sys

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


def odd_inputs():
    """(name, a, b) pairs whose entries a rounding slip or a BLAS path
    change would show in."""
    rng = np.random.default_rng(110)
    tiny = np.finfo(np.float64).tiny
    base = points(40, 3, seed=111)
    grid = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
    big = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1.0, -1.0], [1.7e308, 0.0]])
    return [
        ("subnormal", rng.normal(size=(30, 2)) * tiny * 1e-3, rng.normal(size=(20, 2)) * tiny),
        ("overflow", big, big[::-1]),
        ("ties", grid, grid[[0, 0, 3, 2, 4, 1]]),
        ("strided", base[::3], points(50, 3, seed=112)[1::2]),
        ("reversed", base[::-1, ::-1], base[::2, ::-1]),
        ("fortran", np.asfortranarray(base), np.asfortranarray(points(25, 3, seed=113))),
        ("one row", base[:1], base),
        ("one column", base, base[5:6]),
        ("one feature", base[:, :1], base[:7, 1:2]),
        ("batched", points(3 * 9, 2, seed=114).reshape(3, 9, 2),
         points(3 * 11, 2, seed=115).reshape(3, 11, 2)),
        ("broadcast", points(9, 2, seed=116), points(2 * 3 * 4, 2, seed=117).reshape(2, 3, 4, 2)),
    ]


@pytest.mark.parametrize("name, a, b", odd_inputs(), ids=[case[0] for case in odd_inputs()])
def test_odd_inputs_keep_the_broadcast_subtraction_bits(name, a, b):
    with np.errstate(over="ignore"):
        expected = former(a, b)
        assert squared_distances(a, b).tobytes() == expected.tobytes()
    if name == "overflow":
        assert np.isinf(expected).any()


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_prefilled_buffers_do_not_leak_into_the_result(fill):
    a, b = points(57, 3, seed=120), points(44, 3, seed=121)
    whole = squared_distances(a, b)
    out, scratch = np.full((57, 44), fill), np.full((57, 44), fill)
    assert squared_distances(a, b, out=out, scratch=scratch).tobytes() == whole.tobytes()
    # strided and transposed buffers take numpy's own matmul loop
    wide, wide_scratch = np.full((57, 88), fill), np.full((44, 57), fill)
    squared_distances(a, b, out=wide[:, ::2], scratch=wide_scratch.T)
    assert wide[:, ::2].tobytes() == whole.tobytes()
    assert np.array_equal(wide[:, 1::2], np.full((57, 44), fill), equal_nan=True)


def test_nan_input_gives_nan_at_the_same_entries():
    a, b = points(30, 3, seed=130), points(20, 3, seed=131)
    a[4, 1] = np.nan
    b[[2, 7], [0, 2]] = np.nan
    result = squared_distances(a, b)
    expected = former(a, b)
    assert np.array_equal(np.isnan(result), np.isnan(expected))
    assert np.isnan(expected).any()
    finite = ~np.isnan(expected)
    assert result[finite].tobytes() == expected[finite].tobytes()


_THREAD_DISTANCES = """
import hashlib
import numpy as np
from chirpmap.distances import squared_distances
rng = np.random.default_rng(140)
a, b = rng.normal(size=(700, 3)) * 30.0, rng.normal(size=(650, 3)) * 30.0
for x, y in ((a, b), (a, a), (a.reshape(2, 350, 3), b[:300]), (a[::2], b[1::3])):
    print(hashlib.sha256(squared_distances(x, y).tobytes()).hexdigest())
"""


def test_bytes_do_not_depend_on_the_blas_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        child = subprocess.run([sys.executable, "-c", _THREAD_DISTANCES], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 4
