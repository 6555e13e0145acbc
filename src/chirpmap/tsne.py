"""Exact t-SNE on small datasets.

High-dimensional affinities are Gaussian conditionals calibrated per row
so the realized perplexity (2^entropy, entropy in bits) matches a target.
Bisection on log beta decides each row's bandwidth; safeguarded Newton
runs first and only marks the midpoints whose branch is already known,
which the bisection then takes without evaluating them, so the bits are
the bisection's at about a quarter of its row evaluations. The
symmetrized affinities are matched against Student-t similarities in
2-D by minimizing KL divergence with momentum gradient descent and early
exaggeration. Everything is O(N^2) and deterministic under a fixed seed.
The input is a plain N x d float64 array of feature rows, and row k of
the coordinates embeds row k. This module only computes: the caller
keeps the rows' ids, and the pipeline's embed stage writes them beside
the coordinates in ``embedding.csv``, with the optimization record in
its sidecar.

The joint affinities p exist only as their upper-triangle tiles, each
contiguous in one tile-major buffer, built straight from the
conditionals (``_joint_tiles``). Each iteration is one pass over those
tiles (``_TilePass``), which forms the Student-t kernel tile by tile in
two tile buffers; y's distance operands, the sums and every tile's
views are built once per run, not once per pass, and a pass only copies
y into them. The KL checkpoints and the final KL come from the same
pass. The coordinates' bits depend on the tile size ``_TILE``, not on
the BLAS thread count, and not on which process ran a tile: each tile
writes its products and sums into its own slot, and the pass adds the
slots in tile order, the former pass's additions in its order. So in
``run_tsne``, when there are two tiles or more (N > ``_TILE``),
``os.fork`` exists and the process may run on two CPUs, one forked
helper process runs a fixed, cost-balanced share of the tiles
(``_TilePass.helper``) in the passes where a timed trial found it
faster. The trial is there because a pass waits on the helper, which
pays only with a CPU to spare: with two such runs at once on two CPUs,
a helper in every pass made an N = 900 benchmark op about 9% slower.
Processes, not threads: a tile is about 15 small numpy calls, and two
threads, which take turns on the GIL for each, made a pass slower
(4.24 against 4.03 ms at N = 900).

Joint affinities below ``_P_FLOOR`` are zeroed, which keeps subnormal
floats (slow on the CPU's denormal path) out of the loop; the
coordinates kept their bits on every cohort checked. ``symmetrize``,
``low_dim_similarities``, ``kl_divergence`` and ``kl_gradient`` are the
N x N references the tiled code is tested against.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .distances import _operand_distances, squared_distances
from .errors import DataError, NumericError

_LOG_BETA_MIN = math.log(1e-20)
_LOG_BETA_MAX = math.log(1e20)
# run_tsne takes the KL after every this-many updates (and after the last)
_KL_CHECK_EVERY = 50
# side of the square tiles of p that run_tsne's gradient pass works in;
# 150-256 measured best at N = 450 and 900, and the bits depend on it
_TILE = 225
# joint affinities below this are zeroed: 2^-970, the least p for which
# p * w stays a normal float for every Student-t w >= eps
_P_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# inside ``_TilePass.helper``, every this-many passes begin with a trial of
# this-many pairs of passes, timed with and without the helper; the passes
# up to the next trial use the helper only if its median pass was faster
_TRIAL_EVERY = 256
_TRIAL_PAIRS = 8


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{f.name} must be finite")
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
        if self.perplexity > n_points - 1:
            raise DataError(f"perplexity {self.perplexity} exceeds {n_points - 1}, the most "
                            f"a row of {n_points} points can reach")


@dataclass
class ConditionalAffinities:
    """Row-stochastic conditional affinities with their calibration state."""

    p: np.ndarray  # N x N, zero diagonal, rows sum to 1
    beta: np.ndarray  # per-row inverse bandwidth
    realized_perplexity: np.ndarray
    # rows where bisection hit the step cap even with no midpoint skipped
    fallback_rows: list[int]
    # exp passes over a row (Newton's and the bisection's); in no artifact
    row_evaluations: int = 0


@dataclass
class Embedding:
    """2-D coordinates plus the optimization record that produced them."""

    coords: np.ndarray  # N x 2
    # (updates done, KL against unexaggerated affinities) at each checkpoint
    kl_trace: list[tuple[int, float]]
    final_kl: float
    metadata: dict = field(default_factory=dict)


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


def _row_entropy(shifted: np.ndarray, log_beta: float) -> tuple[float, float]:
    """Entropy H (nats) of one row's affinities at beta = e^log_beta, and dH/d(log beta).

    With u = beta * d^2 and e = exp(-u), H = ln sum(e) + E_p[u], so no
    entry's log is taken, and the slope is -Var_p(u), which is never
    positive. An entry whose e underflows to 0 adds exactly 0 to each sum.
    """
    u = math.exp(log_beta) * shifted
    e = np.exp(-u)
    total = float(e.sum())
    mean = float(e @ u) / total
    dev = u - mean
    return math.log(total) + mean, -float((e * dev) @ dev) / total


def _settled_bounds(shifted: np.ndarray, perplexity: float, tol: float,
                    log_beta: float, max_steps: int) -> tuple[float, float, int]:
    """Bounds past which a bisection midpoint's branch is already known.

    Returns (below, above, evaluations): the row's perplexity exceeds the
    target by more than ``tol`` at every log beta <= below and falls short
    of it by more than ``tol`` at every log beta >= above, since
    perplexity is monotone in beta and each bound was seen with a further
    slack far above rounding. Safeguarded Newton on log beta, from
    ``log_beta`` and kept inside its bracket, first finds a point in the
    window |perplexity - target| <= tol; probes just outside each edge of
    the window, doubling their distance while they land inside it, then
    tighten the bounds. Whether or not Newton gets there, every point it
    evaluates can only tighten a bound, never decide an answer.
    """
    # far above where the two perplexity formulas part: under 1e-14
    # relative on the bench cohort and at distance scales 1e-6 and 1e6
    slack = 1e-9 * perplexity
    seen = []  # (log beta, perplexity) at every evaluation
    target = math.log(perplexity)
    lo, hi = _LOG_BETA_MIN, _LOG_BETA_MAX
    for _ in range(max_steps):
        entropy, slope = _row_entropy(shifted, log_beta)
        perp = math.exp(entropy)
        seen.append((log_beta, perp))
        if abs(perp - perplexity) <= tol:
            break
        if perp > perplexity:
            lo = log_beta
        else:
            hi = log_beta
        step = log_beta - (entropy - target) / slope if slope < 0 else math.nan
        log_beta = step if lo < step < hi else 0.5 * (lo + hi)
    if abs(perp - perplexity) <= tol and slope < 0:
        # the window's centre and half-width in log beta, to first order
        centre = log_beta - (entropy - target) / slope
        width = 1.01 * tol / (perplexity * -slope)
        for sign in (-1.0, 1.0):
            distance = width
            for _ in range(max_steps):
                at = centre + sign * distance
                if not _LOG_BETA_MIN < at < _LOG_BETA_MAX:
                    break
                perp = math.exp(_row_entropy(shifted, at)[0])
                seen.append((at, perp))
                if abs(perp - perplexity) > tol + slack:
                    break
                distance *= 2.0
    below = max((at for at, perp in seen if perp > perplexity + tol + slack), default=-math.inf)
    above = min((at for at, perp in seen if perp < perplexity - tol - slack), default=math.inf)
    return below, above, len(seen)


def _bisect_row(shifted: np.ndarray, perplexity: float, tol: float, max_steps: int,
                below: float = -math.inf, above: float = math.inf) -> tuple[bool, tuple, int]:
    """Bisection on log beta over [1e-20, 1e20]: (converged, best, evaluations).

    ``best`` is (error, beta, p_row, realized) at the least error seen. A
    midpoint <= ``below`` or >= ``above`` (see ``_settled_bounds``) takes
    its branch without an evaluation; every other midpoint is evaluated,
    so a row that converges gets the bits it would get with nothing
    skipped. ``best`` covers only the midpoints evaluated.
    """
    lo, hi = _LOG_BETA_MIN, _LOG_BETA_MAX
    best = None
    evaluations = 0
    for _ in range(max_steps):
        log_beta = 0.5 * (lo + hi)
        if log_beta <= below:
            lo = log_beta
            continue
        if log_beta >= above:
            hi = log_beta
            continue
        beta = math.exp(log_beta)
        p_row, perp = _row_distribution(shifted, beta)
        evaluations += 1
        err = abs(perp - perplexity)
        if best is None or err < best[0]:
            best = (err, beta, p_row, perp)
        if err <= tol:
            return True, best, evaluations
        if perp > perplexity:
            lo = log_beta  # too uniform: sharpen
        else:
            hi = log_beta
    return False, best, evaluations


def conditional_affinities(
    x: np.ndarray,
    perplexity: float,
    tol: float = 1e-5,
    max_steps: int = 50,
) -> ConditionalAffinities:
    """Calibrate per-row Gaussian bandwidths to a target perplexity.

    The inverse bandwidth beta is found by bisection in log space over
    [1e-20, 1e20]; realized perplexity decreases monotonically in beta, so
    the search brackets the target. The bisection alone decides each
    row's answer. Safeguarded Newton on log beta (Vladymyrov &
    Carreira-Perpinan, ICML 2013), started at the previous row's log beta,
    runs first and only finds out which midpoints are already decided,
    so the bisection skips them (``_settled_bounds``); about 7 row
    evaluations replace 26 at N = 900. A row that does not reach the
    target within ``max_steps`` is bisected again with nothing skipped,
    keeps the nearest-achieved beta and is reported in
    ``fallback_rows``, unless the target lies outside the perplexities of
    beta's two bracket ends, which raises ``NumericError``. A row has
    n - 1 neighbours, so its perplexity is at most n - 1, reached by the
    uniform row.
    """
    n = x.shape[0]
    if n < 3:
        raise DataError("need at least 3 points to calibrate affinities")
    if not 0 < perplexity <= n - 1:
        raise DataError(f"perplexity must be in (0, n - 1]; got {perplexity} for n={n}")

    d2 = squared_distances(x, x)
    p = np.zeros((n, n), dtype=np.float64)
    betas = np.empty(n)
    realized = np.empty(n)
    fallback_rows: list[int] = []
    others = np.arange(n)
    evaluations = 0
    start = 0.5 * (_LOG_BETA_MIN + _LOG_BETA_MAX)

    for i in range(n):
        idx = others != i
        row_d2 = d2[i, idx]
        if row_d2.max() == 0.0:
            raise NumericError(
                f"perplexity unreachable at row {i}: every distance from this point is zero"
            )
        shifted = row_d2 - row_d2.min()
        below, above, spent = _settled_bounds(shifted, perplexity, tol, start, max_steps)
        converged, best, used = _bisect_row(shifted, perplexity, tol, max_steps, below, above)
        evaluations += spent + used
        if not converged:
            # again with nothing skipped, so the best-seen fallback keeps its bits
            converged, best, used = _bisect_row(shifted, perplexity, tol, max_steps)
            evaluations += used
        if not converged:
            # beta * d^2 may overflow to inf here, whose exp is the right 0
            with np.errstate(over="ignore"):
                _, most = _row_distribution(shifted, math.exp(_LOG_BETA_MIN))
                _, least = _row_distribution(shifted, math.exp(_LOG_BETA_MAX))
            evaluations += 2
            if not least <= perplexity <= most:
                raise NumericError(
                    f"perplexity unreachable at row {i}: the target {perplexity:g} lies "
                    f"outside [{least:g}, {most:g}], the range beta in [1e-20, 1e20] reaches"
                )
            fallback_rows.append(i)
        _, betas[i], best_p, realized[i] = best
        p[i, idx] = best_p
        start = math.log(betas[i])

    return ConditionalAffinities(
        p=p, beta=betas, realized_perplexity=realized, fallback_rows=fallback_rows,
        row_evaluations=evaluations,
    )


def symmetrize(conditionals: np.ndarray) -> np.ndarray:
    """Joint affinities p_ij = (p_j|i + p_i|j) / (2N); entries sum to 1.

    The N x N reference for ``_joint_tiles``, whose tiles have its bits.
    Entries below ``_P_FLOOR`` (2^-970, about 1e-292) are set to 0. They
    come from exp underflow in the calibration, and the subnormal ones
    among them, used in every gradient pass, take the CPU's slow denormal
    path. The floor is tiny / eps, so p * w stays normal for every
    w = 1 / (1 + d^2) >= eps, i.e. d^2 < 4.5e15. Every row of p sums to
    at least 1 / (2N), so a dropped term is far below half an ulp of the
    gradient sums it enters and the coordinates keep their bits (checked
    on cohorts of 450 and 900 points). Only the KL's last digits can move:
    its sums run over the entries with p > 0, and their count changes.
    """
    p = np.asarray(conditionals, dtype=np.float64)
    n = p.shape[0]
    joint = (p + p.T) / (2.0 * n)
    joint[joint < _P_FLOOR] = 0.0
    return joint


def low_dim_similarities(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t (1 dof) similarities over 2-D coordinates.

    Returns (q, w) where w_ij = 1 / (1 + ||y_i - y_j||^2) with zero
    diagonal and q is w normalized over all ordered pairs. An N x N
    reference: ``run_tsne`` forms w tile by tile in ``_TilePass``.
    """
    y = np.asarray(coords, dtype=np.float64)
    w = np.empty((y.shape[0], y.shape[0]))
    q = np.empty_like(w)
    squared_distances(y, y, out=w, scratch=q)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    np.divide(w, w.sum(), out=q)
    return q, w


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum_ij p_ij * ln(p_ij / q_ij); terms with p_ij = 0 contribute 0.

    An N x N reference: ``run_tsne`` takes its KL values from the tile
    pass, which agrees with this to rounding. The terms are formed in
    place in the compressed copy of q, so the only temporaries are the
    mask and the two compressed arrays.
    """
    mask = p > 0
    p, q = p[mask], q[mask]
    np.divide(p, q, out=q)
    np.log(q, out=q)
    q *= p
    return float(np.sum(q))


def kl_gradient(p: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Gradient 4 * sum_j (p_ij - q_ij) (y_i - y_j) / (1 + ||y_i - y_j||^2).

    The unblocked reference for the tiled pass ``run_tsne`` iterates with.
    """
    y = np.asarray(coords, dtype=np.float64)
    q, w = low_dim_similarities(y)
    m = (p - q) * w
    return 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)


def _tile_spans(n: int) -> list[tuple[int, int, int, int]]:
    """The upper-triangle tiles (i0, i1, j0, j1) of an n x n matrix, in
    the order ``_TilePass`` visits them."""
    spans = [(start, min(start + _TILE, n)) for start in range(0, n, _TILE)]
    return [(i0, i1, j0, j1) for k, (i0, i1) in enumerate(spans) for j0, j1 in spans[k:]]


def _joint_tiles(c: np.ndarray) -> list[np.ndarray]:
    """The joint affinities' upper-triangle tiles in ``_tile_spans`` order,
    each a contiguous view into one flat buffer, built from the float64
    conditionals c without forming the N x N joint.

    Tile (I, J) is (c_IJ + c_JI^T) / (2N) with the entries below
    ``_P_FLOOR`` zeroed: ``symmetrize``'s operations entry by entry, so
    every tile has the bits of the same block of ``symmetrize(c)``.
    """
    n = c.shape[0]
    spans = _tile_spans(n)
    flat = np.empty(sum((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in spans))
    tiles, offset = [], 0
    for i0, i1, j0, j1 in spans:
        tile = flat[offset : offset + (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
        np.add(c[i0:i1, j0:j1], c[j0:j1, i0:i1].T, out=tile)
        tile /= 2.0 * n
        tile[tile < _P_FLOOR] = 0.0
        tiles.append(tile)
        offset += tile.size
    return tiles


def _helper_wanted(n_tiles: int) -> bool:
    """Whether ``_TilePass.helper`` forks a helper process: only with two
    tiles or more to share, ``os.fork`` and two CPUs this process may run on."""
    return (n_tiles >= 2 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _TilePass:
    """The KL gradient 4 sum_j (a p_ij - q_ij) w_ij (y_i - y_j), with
    a = the exaggeration, in one pass over the upper-triangle tiles of p,
    given in ``_tile_spans`` order as ``_joint_tiles`` builds them.

    With Z = sum w, the gradient is 4 (a A - B / Z), where
    A_i = sum_j p_ij w_ij (y_i - y_j) and B_i = sum_j w_ij^2 (y_i - y_j)
    (the exact attractive/repulsive split). w is symmetric, so tile (I, J)
    serves the rows of I through c @ [y_J, 1] and those of J through
    c.T @ [y_I, 1], for c = p_IJ w_IJ and then c = w_IJ^2. Each tile's
    d^2 comes from slices of y's distance operands (as ``_row_operands``
    and ``_column_operands`` lay them out).

    What does not depend on y is built once per run, here: the operand
    buffers, [y, 1], the sums, a buffer of two tiles of the largest span,
    every tile's views and its result slot. A pass copies y into them and
    runs each tile's arithmetic, which writes the tile's two products,
    sum w and (on a log pass) sum p ln(1 + d^2) into its slot. The slots
    are then added into the sums, Z and the log total in ``_tile_spans``
    order: the former pass's operations in its order, so no bit depends
    on which process ran a tile. Each tile works in a contiguous prefix
    of the tile buffer, as strided views measured slower.

    The operands and the slots live in one anonymous shared mapping, so
    that inside ``helper`` a forked process runs a fixed share of every
    pass's tiles. Outside it every tile runs in this process.

    A call returns (gradient, Z, sum p ln(1 + d^2)); the last is None
    unless ``with_log``, and then KL = sum p ln p + sum p ln(1 + d^2)
    + (sum p) ln Z, each term summed by numpy rather than BLAS so that
    its bits do not depend on the BLAS thread count.
    """

    def __init__(self, p_tiles: list[np.ndarray], n: int):
        spans = _tile_spans(n)
        tiles = np.empty(2 * min(n, _TILE) ** 2)
        # the operands, then each tile's sums w and p ln(1 + d^2), then
        # its products for the rows of I and, off the diagonal, of J
        shapes = [(2, n, 2), (2, 2, n), (n, 3), (len(spans), 2)]
        for i0, i1, j0, j1 in spans:
            shapes += [(2, i1 - i0, 3)] + ([] if i0 == j0 else [(2, j1 - j0, 3)])
        sizes = [math.prod(shape) for shape in shapes]
        shared = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
        views = iter(part.reshape(shape) for part, shape in
                     zip(np.split(shared, np.cumsum(sizes)[:-1]), shapes))
        self.rows, self.cols, self.y1, self.totals = (next(views) for _ in range(4))
        self.rows[...] = 1.0  # [y_k, 1] for each coordinate k
        self.cols[...] = 1.0  # [1; -y_k]
        self.y1[...] = 1.0  # [y, 1]
        self.sums = np.empty((2, n, 3))  # [c @ [y, 1] summed over tiles] for c = p w, w^2
        self.steps, self.slots = [], []
        for (i0, i1, j0, j1), p_ij, totals in zip(spans, p_tiles, self.totals, strict=True):
            pair = tiles[: 2 * p_ij.size].reshape(2, i1 - i0, j1 - j0)
            out_i = next(views)
            # w's diagonal on a diagonal tile, else the transposed tile's views
            other = (pair[1].reshape(-1)[:: j1 - j0 + 1] if i0 == j0 else
                     (pair.transpose(0, 2, 1), self.y1[i0:i1], next(views)))
            self.steps.append((p_ij, pair, self.rows[:, i0:i1], self.cols[..., j0:j1],
                               self.y1[j0:j1], i0 == j0, other, out_i, totals))
            self.slots.append((self.sums[:, i0:i1], out_i,
                               None if i0 == j0 else (self.sums[:, j0:j1], other[2])))
        # the caller's and the helper's fixed shares: tiles dealt largest
        # first to the less loaded, an off-diagonal tile counted double
        cost = [(i1 - i0) * (j1 - j0) * (1 if i0 == j0 else 2) for i0, i1, j0, j1 in spans]
        loads, shares = [0, 0], ([], [])
        for k in sorted(range(len(spans)), key=lambda k: -cost[k]):
            side = int(loads[1] < loads[0])
            loads[side] += cost[k]
            shares[side].append(k)
        self.shares = tuple([self.steps[k] for k in sorted(share)] for share in shares)
        self._helper = None  # (pid, command pipe, result pipe) inside ``helper``
        self._begin_trials()

    @contextmanager
    def helper(self):
        """Within, one process forked here, when ``_helper_wanted``, runs
        the tiles of ``shares[1]`` in the passes it speeds up; the caller
        runs the rest and adds every slot as always, so the bits are the
        same either way. Every ``_TRIAL_EVERY`` passes start with a trial:
        ``_TRIAL_PAIRS`` pairs of timed passes, one with the helper and
        one without; up to the next trial, passes use the helper only if
        its median pass was the faster. The affinity mask that
        ``_helper_wanted`` reads counts neither other busy processes nor a
        CPU quota; the trial's times count both.

        The helper waits on its command pipe for a pass and leaves through
        ``os._exit`` at its end of file or on any exception. On every way
        out of the block, an exception included, the helper is killed and
        reaped. If the helper has ended, the pass that finds it gone runs
        the helper's share here, and so does every later pass, to the same
        bits.

        The fork copies only the calling thread. OpenBLAS, whose worker
        pool may be alive then, shuts the pool down before a fork and
        starts it again on its next call; the ledger's two-BLAS-thread
        run forks this way.
        """
        self._begin_trials()
        try:
            if _helper_wanted(len(self.steps)):
                self._start_helper()
            yield self
        finally:
            self._stop_helper()

    def _start_helper(self) -> None:
        commands, results = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no helper, then: every tile runs here
            for fd in (*commands, *results):
                os.close(fd)
            return
        if pid == 0:
            status = 1
            try:
                # nothing here makes cycles, and a collection could run the
                # finalizers of the caller's garbage, open files among them
                gc.disable()
                os.close(commands[1])
                os.close(results[0])
                while command := os.read(commands[0], 1):
                    self._run(self.shares[1], command == b"\1")
                    os.write(results[1], b"\0")
                status = 0
            finally:
                os._exit(status)
        # kept before anything else can fail, so that ``_stop_helper`` ends it
        self._helper = (pid, commands[1], results[0])
        os.close(commands[0])
        os.close(results[1])

    def _stop_helper(self) -> None:
        if self._helper is None:
            return
        pid, commands, results = self._helper
        self._helper = None
        # killed rather than left to read its end of file, which a process
        # forked meanwhile could hold off by holding the command pipe open
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        finally:
            os.close(commands)
            os.close(results)

    def _run(self, steps, with_log: bool) -> None:
        """Each tile's arithmetic, into its slot."""
        for p_ij, pair, rows, cols, y1_j, diagonal, other, out_i, totals in steps:
            c, w = pair
            _operand_distances(rows, cols, out=w, scratch=c)
            w += 1.0
            if with_log:  # ln(1 + d^2) = -ln w, and 0 on the diagonal
                np.log(w, out=c)
                c *= p_ij
                totals[1] = c.sum()
            np.divide(1.0, w, out=w)
            if diagonal:
                other[...] = 0.0
            totals[0] = w.sum()
            np.multiply(p_ij, w, out=c)
            w *= w
            np.matmul(pair, y1_j, out=out_i)
            if not diagonal:
                pair_t, y1_i, out_j = other
                np.matmul(pair_t, y1_i, out=out_j)

    def _begin_trials(self) -> None:
        self._passes = 0  # the passes made inside ``helper``
        self._split = True  # whether the passes since the last trial use the helper
        self._trial = ([], [])  # the trial's pass times without and with the helper

    def _helped_run(self, with_log: bool) -> None:
        """Every tile's arithmetic, with the helper or without it as the
        last trial found faster (see ``_TRIAL_EVERY``)."""
        k = self._passes % _TRIAL_EVERY
        self._passes += 1
        trial = k < 2 * _TRIAL_PAIRS
        split = k % 2 == 0 if trial else self._split
        start = time.perf_counter()
        if split:
            self._split_run(with_log)
        else:
            self._run(self.steps, with_log)
        if trial:
            self._trial[split].append(time.perf_counter() - start)
            if k == 2 * _TRIAL_PAIRS - 1:
                # each side's upper median
                without, helped = (sorted(times)[len(times) // 2] for times in self._trial)
                self._split = helped < without
                self._trial = ([], [])

    def _split_run(self, with_log: bool) -> None:
        """``shares[0]`` here while the helper runs ``shares[1]``; if the
        helper has ended, it is stopped and its share runs here too."""
        _, commands, results = self._helper
        try:
            try:
                os.write(commands, b"\1" if with_log else b"\0")
                sent = True
            except BrokenPipeError:  # the helper had ended before the pass
                sent = False
            self._run(self.shares[0], with_log)
            done = sent and os.read(results, 1)
        except BaseException:
            self._stop_helper()
            raise
        if not done:  # the helper has ended: its share runs here, to the same bits
            self._stop_helper()
            self._run(self.shares[1], with_log)

    def __call__(self, y: np.ndarray, exaggeration: float,
                 with_log: bool = False) -> tuple[np.ndarray, float, float | None]:
        self.rows[:, :, 0] = y.T
        np.negative(y.T, out=self.cols[:, 1, :])
        self.y1[:, :2] = y
        if self._helper is None:
            self._run(self.steps, with_log)
        else:
            self._helped_run(with_log)
        sums = self.sums
        sums[...] = 0.0
        z = 0.0
        p_log_d = 0.0 if with_log else None
        for (w_sum, c_sum), (sums_i, out_i, transposed) in zip(self.totals.tolist(), self.slots):
            copies = 1.0 if transposed is None else 2.0  # the tile and its transpose
            if with_log:
                p_log_d += copies * c_sum
            z += copies * w_sum
            sums_i += out_i
            if transposed is not None:
                sums_j, out_j = transposed
                sums_j += out_j
        attract, repulse = sums[:, :, 2:] * y - sums[:, :, :2]
        grad = 4.0 * (exaggeration * attract - repulse / z)
        return grad, z, p_log_d


def pca_init(x: np.ndarray, seed: int) -> tuple[np.ndarray, bool]:
    """Top-2 principal-component projection rescaled to per-column sd 1e-4.

    Component signs are fixed by forcing the first nonzero loading of each
    component positive. Rank-deficient input (fewer than 2 usable singular
    values) falls back to seeded Gaussian noise of scale 1e-4; the second
    return value reports whether the fallback was used.
    """
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
    _, first = np.unique(x, axis=0, return_index=True)  # each group's first occurrence
    jitter = np.ones(x.shape[0], dtype=bool)
    jitter[first] = False
    n_jittered = int(jitter.sum())
    if n_jittered == 0:
        return x, 0
    out = x.copy()
    out[jitter] += rng.normal(scale=1e-10, size=(n_jittered, x.shape[1]))
    return out, n_jittered


def run_tsne(x: np.ndarray, config: TsneConfig) -> Embedding:
    """Optimize a 2-D embedding of the rows of the N x d feature array ``x``.

    The update is y <- y - lr * grad + momentum * (y - y_prev), with the
    affinities multiplied by the exaggeration factor during the early
    phase. The KL trace holds (updates done, KL) against the unexaggerated
    affinities after updates _KL_CHECK_EVERY, 2 * _KL_CHECK_EVERY, ...
    and after the last update, whose KL is reported as ``final_kl``.
    Identical (input, config) pairs produce bit-identical output. Row k of
    ``coords`` embeds row k of ``x``.

    p is never formed as an N x N matrix: its upper-triangle tiles are
    built from the conditionals into one tile-major buffer, and each
    iteration is one call of a ``_TilePass`` over them, built once per
    run with a buffer of two tiles of the largest span. The memory peak
    is the calibration's d^2 and conditionals. Exaggeration is a scalar factor
    on the attractive term. The bits depend on _TILE. Every KL, the
    final one included, comes from a pass over the same tiles as
    sum p ln p - sum p ln w + (sum p) ln(sum w), with sum p ln p and
    sum p taken once from the tiles; it agrees with ``kl_divergence`` to
    rounding. The final KL takes one more pass, at the final y.

    The loop and the final KL run inside ``_TilePass.helper``: with
    N > _TILE, ``os.fork`` and two CPUs, a forked helper process runs
    about half the tiles of the passes that a timed trial finds faster
    with it, with the same bits (see the module docstring). The helper
    is killed and reaped however the call ends, a ``NumericError`` or
    ``KeyboardInterrupt`` included, so no process outlives it; if the
    helper dies mid-run, the run goes on without it, to the same bits.
    The helper's resident pages are nearly all the caller's, shared
    copy-on-write, so its ``RUSAGE_CHILDREN`` ``ru_maxrss`` reads about
    the caller's size at the fork; its own (``Private_Dirty``) pages
    came to 2.2 MiB at N = 900.
    """
    n = x.shape[0]
    config.validate(n)

    rng = np.random.default_rng(config.seed)
    x_run, n_jittered = _jitter_duplicates(x, rng)

    cond = conditional_affinities(x_run, config.perplexity)
    fallback_rows = list(cond.fallback_rows)
    p_tiles = _joint_tiles(cond.p)
    del cond  # its N x N conditionals are not needed past this point
    # KL's constant term and sum p; an off-diagonal tile stands for itself
    # and its transpose
    p_log_p = p_total = 0.0
    for (i0, _, j0, _), p_ij in zip(_tile_spans(n), p_tiles, strict=True):
        copies = 1.0 if i0 == j0 else 2.0
        positive = p_ij[p_ij > 0]
        terms = np.log(positive)
        terms *= positive
        p_log_p += copies * float(np.sum(terms))
        p_total += copies * float(p_ij.sum())
        del positive, terms  # before the next tile's are allocated
    coords, pca_fallback = pca_init(x_run, config.seed)

    y = coords.copy()
    y_prev = y.copy()
    trace: list[tuple[int, float]] = []
    lr = config.learning_rate
    gradient_pass = _TilePass(p_tiles, n)

    with gradient_pass.helper():
        for t in range(config.n_iterations):
            checkpoint = t > 0 and t % _KL_CHECK_EVERY == 0
            exaggeration = (
                config.exaggeration_factor if t < config.exaggeration_until_iter else 1.0
            )
            grad, z, p_log_d = gradient_pass(y, exaggeration, with_log=checkpoint)
            if checkpoint:
                trace.append((t, p_log_p + p_log_d + p_total * math.log(z)))
            momentum = (
                config.momentum_early if t < config.momentum_switch_iter else config.momentum_late
            )
            y_next = y - lr * grad + momentum * (y - y_prev)
            if not np.isfinite(y_next).all():
                raise NumericError(f"non-finite coordinates at iteration {t}")
            y_prev, y = y, y_next

        _, z, p_log_d = gradient_pass(y, 1.0, with_log=True)
    final_kl = p_log_p + p_log_d + p_total * math.log(z)
    trace.append((config.n_iterations, final_kl))

    metadata = {
        "seed": config.seed,
        "duplicates_jittered": n_jittered,
        "pca_init_fallback": pca_fallback,
        "perplexity_fallback_rows": fallback_rows,
    }
    return Embedding(coords=y, kl_trace=trace, final_kl=final_kl, metadata=metadata)
