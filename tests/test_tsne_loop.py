"""run_tsne's buffered loop against a loop written from the public pieces."""

import tracemalloc

import numpy as np

from chirpmap.tsne import (
    TsneConfig,
    conditional_affinities,
    kl_divergence,
    low_dim_similarities,
    pca_init,
    run_tsne,
    symmetrize,
)


def reference_run(x, config):
    """Coordinates after every update, each KL, and the final q."""
    p = symmetrize(conditional_affinities(x, config.perplexity).p)
    y, _ = pca_init(x, config.seed)
    y_prev = y.copy()
    kls = []
    for t in range(config.n_iterations):
        q, w = low_dim_similarities(y)
        p_eff = p * config.exaggeration_factor if t < config.exaggeration_until_iter else p
        m = (p_eff - q) * w
        grad = 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
        momentum = (
            config.momentum_early if t < config.momentum_switch_iter else config.momentum_late
        )
        y_next = y - config.learning_rate * grad + momentum * (y - y_prev)
        y_prev, y = y, y_next
        q, _ = low_dim_similarities(y)
        kls.append(kl_divergence(p, q))
    return y, np.array(kls), p, q


def clustered(seed=21, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x[: n // 3] += 3.0
    return x


def check_against_reference(n_iterations, checkpoints):
    x = clustered()
    config = TsneConfig(perplexity=12.0, n_iterations=n_iterations, seed=4,
                        momentum_switch_iter=50, exaggeration_until_iter=50)
    embedding = run_tsne(x, config)
    coords, kls, p, q_final = reference_run(x, config)
    assert np.array_equal(embedding.coords, coords)
    assert [t for t, _ in embedding.kl_trace] == checkpoints
    for t, kl in embedding.kl_trace:
        assert abs(kl - kls[t - 1]) / kls[t - 1] <= 1e-12
    assert embedding.final_kl == kl_divergence(p, q_final)
    assert embedding.kl_trace[-1] == (n_iterations, embedding.final_kl)


def test_run_tsne_matches_reference_loop():
    check_against_reference(150, [50, 100, 150])


def test_last_checkpoint_is_the_last_update():
    check_against_reference(130, [50, 100, 130])


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


def test_run_tsne_peak_memory_is_the_loop_buffers():
    # p plus the loop's w, q and m; the final KL adds at most a mask of
    # N^2 bytes on top of p, q and their two compressed copies
    n = 300
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
    assert peak <= 4 * buffer + n * n + 256 * 1024
