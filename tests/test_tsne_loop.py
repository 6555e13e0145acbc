"""run_tsne's buffered loop against a loop written from the public pieces."""

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


def test_run_tsne_matches_reference_loop():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(60, 3))
    x[:20] += 3.0
    config = TsneConfig(perplexity=12.0, n_iterations=150, seed=4,
                        momentum_switch_iter=50, exaggeration_until_iter=50)
    embedding = run_tsne(x, config)
    coords, kls, p, q_final = reference_run(x, config)
    assert np.array_equal(embedding.coords, coords)
    rel = np.abs(embedding.kl_trace - kls) / kls
    assert rel.max() <= 1e-12
    assert embedding.final_kl == kl_divergence(p, q_final)
    assert embedding.kl_trace[-1] == embedding.final_kl
