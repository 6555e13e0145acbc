"""Exact t-SNE on small datasets.

High-dimensional affinities are Gaussian conditionals calibrated per row
so the realized perplexity (2^entropy, entropy in bits) matches a target;
the symmetrized affinities are matched against Student-t similarities in
2-D by minimizing KL divergence with momentum gradient descent and early
exaggeration. Everything is O(N^2) and deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .artifacts import read_csv, write_csv, write_json
from .distances import squared_distances
from .errors import DataError, NumericError
from .ingest import FeatureMatrix

_LOG_BETA_MIN = math.log(1e-20)
_LOG_BETA_MAX = math.log(1e20)
# run_tsne takes the KL after every this-many updates (and after the last)
_KL_CHECK_EVERY = 50
_EMBEDDING_COLUMNS = ("id", "tsne_x", "tsne_y")


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    n_iterations: int = 1000
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch_iter: int = 250
    exaggeration_factor: float = 12.0
    exaggeration_until_iter: int = 250
    seed: int = 0
    output_dims: int = 2

    def __post_init__(self):
        if self.output_dims != 2:
            raise DataError("only 2-D output is supported")
        if not self.perplexity > 0:
            raise DataError("perplexity must be positive")
        if self.n_iterations < 1:
            raise DataError("n_iterations must be positive")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        for name in ("momentum_early", "momentum_late"):
            m = getattr(self, name)
            if not 0.0 <= m < 1.0:
                raise DataError(f"{name} must be in [0, 1)")
        if self.exaggeration_factor < 1.0:
            raise DataError("exaggeration_factor must be >= 1")
        if self.exaggeration_until_iter > self.n_iterations:
            raise DataError("exaggeration_until_iter cannot exceed n_iterations")

    def validate(self, n_points: int) -> None:
        """The checks that depend on the number of points."""
        if n_points < 3:
            raise DataError("t-SNE needs at least 3 points")
        if self.perplexity >= n_points:
            raise DataError(f"perplexity {self.perplexity} must be below the {n_points} points")


@dataclass
class ConditionalAffinities:
    """Row-stochastic conditional affinities with their calibration state."""

    p: np.ndarray  # N x N, zero diagonal, rows sum to 1
    beta: np.ndarray  # per-row inverse bandwidth
    realized_perplexity: np.ndarray
    fallback_rows: list[int]  # rows where bisection hit the step cap


@dataclass
class Embedding:
    """2-D coordinates plus the optimization record that produced them."""

    coords: np.ndarray  # N x 2
    config: TsneConfig
    # (updates done, KL against unexaggerated affinities) at each checkpoint
    kl_trace: list[tuple[int, float]]
    final_kl: float
    ids: list[str] | None = None
    metadata: dict = field(default_factory=dict)


def _as_values(matrix) -> np.ndarray:
    if isinstance(matrix, FeatureMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=np.float64)


def _row_distribution(shifted: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Gaussian affinities exp(-beta * d^2) over one row, and their perplexity.

    ``shifted`` is the row's d^2 minus its minimum, which cancels in the
    normalization and keeps the nearest neighbour's term from underflowing.
    """
    e = np.exp(-beta * shifted)
    p = e / e.sum()
    mask = p > 0
    entropy_bits = -np.sum(p[mask] * np.log2(p[mask]))
    return p, float(2.0 ** entropy_bits)


def conditional_affinities(
    matrix,
    perplexity: float,
    tol: float = 1e-5,
    max_steps: int = 50,
) -> ConditionalAffinities:
    """Calibrate per-row Gaussian bandwidths to a target perplexity.

    The inverse bandwidth beta is found by bisection in log space over
    [1e-20, 1e20]; realized perplexity decreases monotonically in beta, so
    the search brackets the target. Rows that do not reach the target
    within ``max_steps`` keep the nearest-achieved beta and are reported
    in ``fallback_rows``.
    """
    x = _as_values(matrix)
    n = x.shape[0]
    if n < 3:
        raise DataError("need at least 3 points to calibrate affinities")
    if not 0 < perplexity < n:
        raise DataError(f"perplexity must be in (0, n); got {perplexity} for n={n}")

    d2 = squared_distances(x, x)
    p = np.zeros((n, n), dtype=np.float64)
    betas = np.empty(n)
    realized = np.empty(n)
    fallback_rows: list[int] = []
    others = np.arange(n)

    for i in range(n):
        idx = others != i
        row_d2 = d2[i, idx]
        if row_d2.max() == 0.0:
            raise NumericError(
                f"perplexity unreachable at row {i}: every distance from this point is zero"
            )
        shifted = row_d2 - row_d2.min()
        lo, hi = _LOG_BETA_MIN, _LOG_BETA_MAX
        best = None  # (error, beta, p_row, realized)
        converged = False
        for _ in range(max_steps):
            log_beta = 0.5 * (lo + hi)
            beta = math.exp(log_beta)
            p_row, perp = _row_distribution(shifted, beta)
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
        _, betas[i], best_p, realized[i] = best
        p[i, idx] = best_p

    return ConditionalAffinities(
        p=p, beta=betas, realized_perplexity=realized, fallback_rows=fallback_rows
    )


def symmetrize(conditionals: np.ndarray) -> np.ndarray:
    """Joint affinities p_ij = (p_j|i + p_i|j) / (2N); entries sum to 1."""
    p = np.asarray(conditionals, dtype=np.float64)
    n = p.shape[0]
    return (p + p.T) / (2.0 * n)


def low_dim_similarities(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t (1 dof) similarities over 2-D coordinates.

    Returns (q, w) where w_ij = 1 / (1 + ||y_i - y_j||^2) with zero
    diagonal and q is w normalized over all ordered pairs.
    """
    y = np.asarray(coords, dtype=np.float64)
    w = np.empty((y.shape[0], y.shape[0]))
    q = np.empty_like(w)
    _student_t(y, w, q)
    return q, w


def _student_t(y: np.ndarray, w: np.ndarray, q: np.ndarray) -> float:
    """Fill the N x N buffers w and q as ``low_dim_similarities`` returns
    them, and return sum(w)."""
    squared_distances(y, y, out=w, scratch=q)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    total = w.sum()
    np.divide(w, total, out=q)
    return float(total)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_ij p_ij * ln(p_ij / q_ij); terms with p_ij = 0 contribute 0.

    The terms are formed in place in the compressed copy of q, so the only
    temporaries are the mask and the two compressed arrays.
    """
    mask = p > 0
    p, q = p[mask], q[mask]
    np.divide(p, q, out=q)
    np.log(q, out=q)
    q *= p
    return float(np.sum(q))


def kl_gradient(p: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gradient 4 * sum_j (p_ij - q_ij) (y_i - y_j) / (1 + ||y_i - y_j||^2)."""
    y = np.asarray(coords, dtype=np.float64)
    q, w = low_dim_similarities(y)
    return _gradient((p - q) * w, y)


def _gradient(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """4 * sum_j m_ij (y_i - y_j), where m = (p_eff - q) * w."""
    return 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)


def pca_init(matrix, seed: int) -> tuple[np.ndarray, bool]:
    """Top-2 principal-component projection rescaled to per-column sd 1e-4.

    Component signs are fixed by forcing the first nonzero loading of each
    component positive. Rank-deficient input (fewer than 2 usable singular
    values) falls back to seeded Gaussian noise of scale 1e-4; the second
    return value reports whether the fallback was used.
    """
    x = _as_values(matrix)
    n = x.shape[0]
    if n < 3:
        raise DataError("pca_init needs at least 3 points")
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank_tol = max(centered.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > rank_tol))
    if rank < 2:
        rng = np.random.default_rng(seed)
        return rng.normal(scale=1e-4, size=(n, 2)), True
    components = vt[:2].copy()
    for c in range(2):
        nonzero = np.nonzero(components[c])[0]
        if nonzero.size and components[c, nonzero[0]] < 0:
            components[c] = -components[c]
    proj = centered @ components.T
    sds = proj.std(axis=0)
    coords = proj / sds * 1e-4
    return coords, False


def _jitter_duplicates(x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Add seeded noise (scale 1e-10) to repeat occurrences of duplicate rows."""
    _, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    jitter = np.zeros(x.shape[0], dtype=bool)
    seen: set[int] = set()
    for i, group in enumerate(inverse):
        if counts[group] > 1:
            if group in seen:
                jitter[i] = True
            seen.add(int(group))
    n_jittered = int(jitter.sum())
    if n_jittered == 0:
        return x, 0
    out = x.copy()
    out[jitter] += rng.normal(scale=1e-10, size=(n_jittered, x.shape[1]))
    return out, n_jittered


def run_tsne(matrix, config: TsneConfig) -> Embedding:
    """Optimize a 2-D embedding of the given feature matrix.

    The update is y <- y - lr * grad + momentum * (y - y_prev), with the
    affinities multiplied by the exaggeration factor during the early
    phase. The KL trace holds (updates done, KL) against the unexaggerated
    affinities after updates _KL_CHECK_EVERY, 2 * _KL_CHECK_EVERY, ...
    and after the last update, whose KL is reported as ``final_kl``.
    Identical (input, config) pairs produce bit-identical output.

    Each iteration computes the Student-t kernel w into N x N buffers
    allocated once per run. A checkpoint's KL comes from that same kernel
    as sum p ln p - sum p ln w + (sum p) ln(sum w), with sum p ln p
    computed once; it agrees with ``kl_divergence`` to rounding. The last
    entry is ``kl_divergence`` itself, on q recomputed in the loop's
    buffers.
    """
    x = _as_values(matrix)
    ids = matrix.ids if isinstance(matrix, FeatureMatrix) else None
    n = x.shape[0]
    config.validate(n)

    rng = np.random.default_rng(config.seed)
    x_run, n_jittered = _jitter_duplicates(x, rng)

    cond = conditional_affinities(x_run, config.perplexity)
    fallback_rows = list(cond.fallback_rows)
    p = symmetrize(cond.p)
    del cond  # its N x N conditionals are not needed past this point
    coords, pca_fallback = pca_init(x_run, config.seed)

    y = coords.copy()
    y_prev = y.copy()
    trace: list[tuple[int, float]] = []
    lr = config.learning_rate
    positive = p[p > 0]
    p_log_p = float(np.sum(positive * np.log(positive)))  # KL's constant term
    p_total = float(p.sum())
    del positive
    w = np.empty_like(p)
    q = np.empty_like(p)
    m = np.empty_like(p)

    for t in range(config.n_iterations):
        w_total = _student_t(y, w, q)
        if t > 0 and t % _KL_CHECK_EVERY == 0:
            # ln 1 = 0 on the diagonal, where p is 0; m below is unchanged
            # because its diagonal factor p_eff - q is 0 either way
            np.fill_diagonal(w, 1.0)
            np.log(w, out=m)
            trace.append((t, p_log_p - float(np.vdot(p, m)) + p_total * math.log(w_total)))
        if t < config.exaggeration_until_iter:
            np.multiply(p, config.exaggeration_factor, out=m)
            m -= q
        else:
            np.subtract(p, q, out=m)
        m *= w
        grad = _gradient(m, y)
        momentum = (
            config.momentum_early if t < config.momentum_switch_iter else config.momentum_late
        )
        y_next = y - lr * grad + momentum * (y - y_prev)
        if not np.isfinite(y_next).all():
            raise NumericError(f"non-finite coordinates at iteration {t}")
        y_prev, y = y, y_next

    del m
    _student_t(y, w, q)
    del w  # kl_divergence reads q alone, and allocates its compressed copies
    final_kl = kl_divergence(p, q)
    trace.append((config.n_iterations, final_kl))

    metadata = {
        "seed": config.seed,
        "duplicates_jittered": n_jittered,
        "pca_init_fallback": pca_fallback,
        "perplexity_fallback_rows": fallback_rows,
    }
    return Embedding(
        coords=y,
        config=config,
        kl_trace=trace,
        final_kl=final_kl,
        ids=ids,
        metadata=metadata,
    )


def save_embedding(
    embedding: Embedding,
    csv_path: str,
    meta_path: str,
    extra_metadata: dict | None = None,
) -> None:
    """Write coordinates as `id,tsne_x,tsne_y` plus a JSON metadata sidecar
    with the config, the final KL and the KL trace."""
    ids = embedding.ids or [str(i) for i in range(embedding.coords.shape[0])]
    rows = ([rec_id, repr(float(cx)), repr(float(cy))] for rec_id, (cx, cy) in zip(ids, embedding.coords))
    write_csv(csv_path, _EMBEDDING_COLUMNS, rows)
    meta = {
        "config": asdict(embedding.config),
        "final_kl": embedding.final_kl,
        "kl_trace": embedding.kl_trace,
        **embedding.metadata,
    }
    if extra_metadata:
        meta.update(extra_metadata)
    write_json(meta_path, meta)


def load_embedding_csv(csv_path: str, missing: str | None = None) -> tuple[list[str], np.ndarray]:
    """Read back an `id,tsne_x,tsne_y` file."""
    rows = read_csv(csv_path, _EMBEDDING_COLUMNS, (str, float, float), missing)
    return [r[0] for r in rows], np.array([r[1:] for r in rows], dtype=np.float64)
