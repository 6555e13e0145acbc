"""run_tsne's tiled loop against a loop written from the public pieces,
and the tiled gradient pass against the unblocked kl_gradient."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from chirpmap.tsne import (
    _P_FLOOR,
    _TILE,
    TsneConfig,
    _joint_tiles,
    _tile_spans,
    conditional_affinities,
    kl_divergence,
    kl_gradient,
    low_dim_similarities,
    pca_init,
    run_tsne,
    symmetrize,
)
from tests.test_tile_pass_oracle import gradient_pass, tile_major


def reference_run(x, config, joint=symmetrize):
    """Coordinates after every update, each KL, and the final q. Each
    update takes the tiled gradient of a pass built for that update
    alone, which the test below checks against kl_gradient; ``joint``
    turns the conditionals into p."""
    p = joint(conditional_affinities(x, config.perplexity).p)
    y, _ = pca_init(x, config.seed)
    y_prev = y.copy()
    p_tiles = tile_major(p)
    kls = []
    for t in range(config.n_iterations):
        exaggeration = config.exaggeration_factor if t < config.exaggeration_until_iter else 1.0
        grad = gradient_pass(p_tiles, y, exaggeration)[0]
        momentum = (
            config.momentum_early if t < config.momentum_switch_iter else config.momentum_late
        )
        y_next = y - config.learning_rate * grad + momentum * (y - y_prev)
        y_prev, y = y, y_next
        q, _ = low_dim_similarities(y)
        kls.append(kl_divergence(p, q))
    return y, np.array(kls), p, q


def tile_kl(p, y):
    """The KL as run_tsne forms it: sum p ln p and sum p from p's tiles,
    each off-diagonal tile counted for itself and its transpose, and the
    rest from one log pass at y."""
    p_tiles = tile_major(p)
    p_log_p = p_total = 0.0
    for (i0, _, j0, _), p_ij in zip(_tile_spans(len(p)), p_tiles, strict=True):
        copies = 1.0 if i0 == j0 else 2.0
        positive = p_ij[p_ij > 0]
        p_log_p += copies * float(np.sum(positive * np.log(positive)))
        p_total += copies * float(p_ij.sum())
    _, z, p_log_d = gradient_pass(p_tiles, y, 1.0, with_log=True)
    return p_log_p + p_log_d + p_total * math.log(z)


def clustered(seed=21, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x[: n // 3] += 3.0
    return x


def check_against_reference(n_iterations, checkpoints, n=60):
    x = clustered(n=n)
    config = TsneConfig(perplexity=12.0, n_iterations=n_iterations, seed=4,
                        momentum_switch_iter=50, exaggeration_until_iter=50)
    embedding = run_tsne(x, config)
    coords, kls, p, q_final = reference_run(x, config)
    assert np.array_equal(embedding.coords, coords)
    assert [t for t, _ in embedding.kl_trace] == checkpoints
    for t, kl in embedding.kl_trace:
        assert abs(kl - kls[t - 1]) / kls[t - 1] <= 1e-12
    assert embedding.final_kl == tile_kl(p, coords)
    reference_kl = kl_divergence(p, q_final)
    assert abs(embedding.final_kl - reference_kl) <= 1e-12 * reference_kl
    assert embedding.kl_trace[-1] == (n_iterations, embedding.final_kl)


def test_run_tsne_matches_reference_loop():
    check_against_reference(150, [50, 100, 150])


def test_last_checkpoint_is_the_last_update():
    check_against_reference(130, [50, 100, 130])


def test_kl_over_several_tiles_counts_each_off_diagonal_tile_twice():
    check_against_reference(60, [50, 60], n=2 * _TILE + 7)


def far_blobs(n=300, separation=20.0):
    """Three unit blobs whose joint affinities underflow between them."""
    x = np.random.default_rng(13).normal(size=(n, 3))
    x[: n // 3, 0] += separation
    x[n // 3 : 2 * n // 3, 1] += separation
    return x


def test_symmetrize_zeroes_affinities_below_the_floor():
    x = far_blobs()
    conditionals = conditional_affinities(x, 30.0).p
    unfloored = (conditionals + conditionals.T) / (2 * len(x))
    assert np.any((unfloored > 0) & (unfloored < np.finfo(np.float64).tiny))  # subnormals
    p = symmetrize(conditionals)
    assert not np.any((p > 0) & (p < _P_FLOOR))
    assert np.array_equal(p, p.T)
    assert abs(p.sum() - 1.0) <= 1e-12
    kept = unfloored >= _P_FLOOR
    assert np.array_equal(p[kept], unfloored[kept]) and not p[~kept].any()


@pytest.mark.parametrize("n", [3, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 7, "far_blobs"])
def test_joint_tiles_have_the_bits_of_the_symmetrized_tiles(n):
    if n == "far_blobs":
        x = far_blobs()
        c = conditional_affinities(x, 30.0).p
        unfloored = (c + c.T) / (2 * len(x))
        assert np.any((unfloored > 0) & (unfloored < _P_FLOOR))  # the floor bites
    else:
        c = conditional_affinities(clustered(seed=n, n=n), min(30.0, n / 2)).p
    p = symmetrize(c)
    built, expected = _joint_tiles(c), tile_major(p)
    assert len(built) == len(expected)
    for tile, reference in zip(built, expected):
        assert tile.shape == reference.shape and tile.flags.c_contiguous
        assert tile.tobytes() == reference.tobytes()
    total = sum((1.0 if i0 == j0 else 2.0) * float(tile.sum())
                for (i0, _, j0, _), tile in zip(_tile_spans(len(c)), built))
    assert abs(total - p.sum()) <= 1e-15 * p.sum()


def test_floor_leaves_run_tsne_coordinates_alone():
    x = far_blobs()
    config = TsneConfig(perplexity=30.0, n_iterations=100, seed=6,
                        momentum_switch_iter=50, exaggeration_until_iter=50)
    coords = reference_run(x, config, joint=lambda c: (c + c.T) / (2 * len(c)))[0]
    assert np.array_equal(run_tsne(x, config).coords, coords)


def test_kl_divergence_keeps_the_former_expression_bits():
    # at this size a reversed or compensated sum of the same terms gives
    # other bits, so the test pins the summation as well as the terms
    rng = np.random.default_rng(7)
    p = rng.random((300, 300)) ** 3
    p[rng.random(p.shape) < 0.3] = 0.0  # zeros off the diagonal too
    np.fill_diagonal(p, 0.0)
    p /= p.sum()
    q = rng.random((300, 300)) + 1e-3
    np.fill_diagonal(q, 0.0)
    q /= q.sum()
    p_before, q_before = p.copy(), q.copy()
    mask = p > 0
    former = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    assert kl_divergence(p, q) == former
    assert np.array_equal(p, p_before) and np.array_equal(q, q_before)


@pytest.mark.parametrize("n", [120, 300])
def test_run_tsne_peak_memory_is_the_loop_buffers(n):
    # the calibration holds d^2 and the conditionals; p is then built
    # straight into its tile-major upper triangle, and the loop and the
    # final KL hold only that and two tiles, each at most n x n
    x = clustered(seed=8, n=n)
    config = TsneConfig(perplexity=20.0, n_iterations=60, seed=2,
                        momentum_switch_iter=30, exaggeration_until_iter=30)
    tracemalloc.start()
    try:
        run_tsne(x, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = n * n * 8
    assert peak <= 2.1 * buffer + 256 * 1024


@pytest.mark.parametrize("n", [3, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 7])
@pytest.mark.parametrize("exaggeration", [1.0, 12.0])
def test_tiled_gradient_and_kl_match_the_unblocked_references(n, exaggeration):
    x = clustered(seed=n, n=n)
    p = symmetrize(conditional_affinities(x, min(30.0, n / 2)).p)
    positive = p[p > 0]
    p_log_p = float(np.sum(positive * np.log(positive)))
    y0 = np.random.default_rng(n).normal(size=(n, 2))
    for scale in (1e-4, 1.0, 20.0):
        y = y0 * scale
        grad, z, p_log_d = gradient_pass(tile_major(p), y, exaggeration, with_log=True)
        reference = kl_gradient(exaggeration * p, y)
        assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max()
        kl = p_log_p + p_log_d + float(p.sum()) * math.log(z)
        reference_kl = kl_divergence(p, low_dim_similarities(y)[0])
        assert abs(kl - reference_kl) <= 1e-12 * abs(reference_kl)
        # a checkpoint's log pass leaves the gradient's bits alone
        plain = gradient_pass(tile_major(p), y, exaggeration)
        assert plain[0].tobytes() == grad.tobytes() and plain[1] == z and plain[2] is None


_THREAD_RUN = """
import numpy as np
from chirpmap.tsne import TsneConfig, run_tsne
rng = np.random.default_rng(5)
x = rng.normal(size=(300, 3))
x[:100] += 3.0
embedding = run_tsne(x, TsneConfig(perplexity=20.0, n_iterations=200, seed=3,
                                   momentum_switch_iter=100, exaggeration_until_iter=100))
print(embedding.coords.tobytes().hex())
print(repr(embedding.kl_trace))
"""


def test_run_tsne_bytes_do_not_depend_on_the_blas_thread_count():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        child = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
