"""Perplexity calibration against the plain bisection it must reproduce bit for bit.

``conditional_affinities`` lets Newton find out which bisection midpoints
are already decided and skips them; the bisection alone picks each row's
answer. ``reference_affinities`` is that bisection with nothing skipped,
so ``p``, ``beta`` and ``fallback_rows`` must be identical, not close.
"""

import math

import numpy as np
import pytest

from chirpmap.distances import squared_distances
from chirpmap.errors import NumericError
from chirpmap.ingest import records_to_matrix, standardize
from chirpmap.synth import generate_records
from chirpmap.tsne import _jitter_duplicates, conditional_affinities

_LOG_BETA_MIN = math.log(1e-20)
_LOG_BETA_MAX = math.log(1e20)


def _reference_row_distribution(shifted, beta):
    e = np.exp(-beta * shifted)
    p = e / e.sum()
    mask = p > 0
    entropy_bits = -np.sum(p[mask] * np.log2(p[mask]))
    return p, float(2.0 ** entropy_bits)


def reference_affinities(x, perplexity, tol=1e-5, max_steps=50):
    """Bisection on log beta, every midpoint evaluated: (p, beta, fallback_rows)."""
    n = x.shape[0]
    d2 = squared_distances(x, x)
    p = np.zeros((n, n), dtype=np.float64)
    betas = np.empty(n)
    fallback_rows = []
    others = np.arange(n)
    for i in range(n):
        idx = others != i
        row_d2 = d2[i, idx]
        shifted = row_d2 - row_d2.min()
        lo, hi = _LOG_BETA_MIN, _LOG_BETA_MAX
        best = None  # (error, beta, p_row, realized)
        converged = False
        for _ in range(max_steps):
            log_beta = 0.5 * (lo + hi)
            beta = math.exp(log_beta)
            p_row, perp = _reference_row_distribution(shifted, beta)
            err = abs(perp - perplexity)
            if best is None or err < best[0]:
                best = (err, beta, p_row, perp)
            if err <= tol:
                converged = True
                break
            if perp > perplexity:
                lo = log_beta  # too uniform: sharpen
            else:
                hi = log_beta
        if not converged:
            fallback_rows.append(i)
        _, betas[i], best_p, _ = best
        p[i, idx] = best_p
    return p, betas, fallback_rows


def assert_same_bits(x, perplexity, **kwargs):
    got = conditional_affinities(x, perplexity, **kwargs)
    p, beta, fallback_rows = reference_affinities(x, perplexity, **kwargs)
    assert np.array_equal(got.p, p)
    assert np.array_equal(got.beta, beta)
    assert got.fallback_rows == fallback_rows
    return got


def bench_cohort(n):
    return standardize(records_to_matrix(generate_records(n // 3, 3, seed=12))).values


def cloud(n, seed=0, scale=1.0, d=3):
    return np.random.default_rng(seed).normal(0.0, scale, size=(n, d))


def lattice():
    # each interior point has six neighbours tied at its least distance, 1
    return np.indices((6, 5, 4)).reshape(3, -1).T.astype(np.float64)


@pytest.mark.parametrize("n", [120, 450])
def test_bench_cohorts_keep_their_bits(n):
    assert_same_bits(bench_cohort(n), 30.0)


@pytest.mark.parametrize("perplexity", [2.0, 5.0, 30.0, 100.0, 149.0])
def test_every_perplexity_keeps_its_bits(perplexity):
    assert_same_bits(cloud(150, seed=4), perplexity)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_every_scale_keeps_its_bits(scale):
    assert_same_bits(cloud(80, seed=5, scale=scale), 12.0)


@pytest.mark.parametrize("perplexity", [7.0, 30.0])
def test_ties_at_the_least_distance_keep_their_bits(perplexity):
    assert_same_bits(lattice(), perplexity)


def test_jittered_duplicates_keep_their_bits():
    base = cloud(60, seed=6)
    x, n_jittered = _jitter_duplicates(np.vstack([base, base[:20], base[:10]]),
                                       np.random.default_rng(7))
    assert n_jittered == 30
    for perplexity in (3.0, 10.0, 40.0):
        assert_same_bits(x, perplexity)


@pytest.mark.parametrize("max_steps", [3, 5, 8, 24])
def test_forced_fallback_rows_keep_their_bits(max_steps):
    # the step cap stops rows short of the target, so each is bisected
    # again with nothing skipped and keeps its best-seen midpoint; a cap
    # of 24 stops about two rows in three
    got = assert_same_bits(cloud(60, seed=8), 10.0, max_steps=max_steps)
    assert got.fallback_rows


def test_newton_leaves_a_quarter_of_the_row_evaluations():
    # the bisection alone needs about 26 per row here; were Newton's bounds
    # lost, every bit would stay and only this count would show it
    n = 450
    got = conditional_affinities(bench_cohort(n), 30.0)
    assert not got.fallback_rows
    assert got.row_evaluations <= 10 * n


@pytest.mark.parametrize("scale, perplexity", [
    (1e100, 30.0),  # only the nearest neighbour survives any beta: perplexity 1
    (1e-160, 30.0),  # d^2 ~ 1e-320 leaves every row uniform: perplexity 59
])
def test_a_target_no_beta_reaches_is_a_numeric_error(scale, perplexity):
    with pytest.raises(NumericError, match="perplexity unreachable at row 0"):
        conditional_affinities(cloud(60, seed=9) * scale, perplexity)


def test_ties_make_a_perplexity_below_their_count_unreachable():
    # a corner of the lattice has three neighbours at distance 1, so no
    # beta takes its perplexity below 3
    with pytest.raises(NumericError, match="perplexity unreachable at row 0"):
        conditional_affinities(lattice(), 2.0)
