"""The tiled t-SNE gradient pass against the pass it replaced, bit for bit.

``former_gradient_pass`` is that pass as it was, on a square p, with the
copy-then-subtract distance helper it called; the current pass takes p
tile-major and forms each tile's distances from operands built once per
run. Every tile's arithmetic is meant to be unchanged, so the gradient,
Z and sum p ln(1 + d^2) must match exactly, over one tile and many,
whether a pass object is fresh or has run at other y before, and
whether a forked helper process ran part of its tiles or none.
"""

import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chirpmap import tsne
from chirpmap.errors import NumericError
from chirpmap.tsne import (
    _TILE,
    TsneConfig,
    _TilePass,
    _tile_spans,
    conditional_affinities,
    run_tsne,
    symmetrize,
)


def tile_major(p):
    """A square p's upper-triangle tiles in ``_tile_spans`` order, each a
    contiguous view into one flat copy: the layout ``_TilePass``
    reads, copied from an N x N reference."""
    spans = _tile_spans(p.shape[0])
    flat = np.empty(sum((i1 - i0) * (j1 - j0) for i0, i1, j0, j1 in spans))
    tiles, offset = [], 0
    for i0, i1, j0, j1 in spans:
        tile = flat[offset : offset + (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
        tile[...] = p[i0:i1, j0:j1]
        tiles.append(tile)
        offset += tile.size
    return tiles


def gradient_pass(p_tiles, y, exaggeration, with_log=False):
    """One pass at y by a ``_TilePass`` built for it alone."""
    return _TilePass(p_tiles, y.shape[0])(y, exaggeration, with_log)


def former_squared_distances(a, b, out=None, scratch=None):
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-2])
    out = np.empty(shape) if out is None else out
    # one contiguous row per feature
    a_cols = np.ascontiguousarray(np.moveaxis(a, -1, 0))[..., :, None]
    b_cols = np.ascontiguousarray(np.moveaxis(b, -1, 0))[..., None, :]
    np.copyto(out, b_cols[0])
    out -= a_cols[0]
    np.multiply(out, out, out=out)
    for k in range(1, a_cols.shape[0]):
        scratch = np.empty_like(out) if scratch is None else scratch
        np.copyto(scratch, b_cols[k])
        scratch -= a_cols[k]
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    return out


def former_gradient_pass(p, y, exaggeration, tiles, with_log=False):
    n = y.shape[0]
    y1 = np.empty((n, 3))
    y1[:, :2] = y
    y1[:, 2] = 1.0
    sums = np.zeros((2, n, 3))  # [c @ [y, 1] summed over tiles] for c = p w, w^2
    z = 0.0
    p_log_d = 0.0 if with_log else None
    spans = [(start, min(start + _TILE, n)) for start in range(0, n, _TILE)]
    for k, (i0, i1) in enumerate(spans):
        for j0, j1 in spans[k:]:
            pair = tiles[: 2 * (i1 - i0) * (j1 - j0)].reshape(2, i1 - i0, j1 - j0)
            c, w = pair
            p_ij = p[i0:i1, j0:j1]
            copies = 1.0 if i0 == j0 else 2.0  # the tile and its transpose
            former_squared_distances(y[i0:i1], y[j0:j1], out=w, scratch=c)
            w += 1.0
            if with_log:  # ln(1 + d^2) = -ln w, and 0 on the diagonal
                np.log(w, out=c)
                c *= p_ij
                p_log_d += copies * float(c.sum())
            np.divide(1.0, w, out=w)
            if i0 == j0:
                np.fill_diagonal(w, 0.0)
            z += copies * float(w.sum())
            np.multiply(p_ij, w, out=c)
            w *= w
            sums[:, i0:i1] += pair @ y1[j0:j1]
            if i0 != j0:
                sums[:, j0:j1] += pair.transpose(0, 2, 1) @ y1[i0:i1]
    attract, repulse = sums[:, :, 2:] * y - sums[:, :, :2]
    grad = 4.0 * (exaggeration * attract - repulse / z)
    return grad, z, p_log_d


@pytest.mark.parametrize("n", [3, 120, _TILE, _TILE + 1, 2 * _TILE + 7, 4 * _TILE])
def test_tiled_pass_keeps_the_former_pass_bits(n):
    rng = np.random.default_rng(200 + n)
    x = rng.normal(size=(n, 3))
    x[: n // 3] += 3.0
    p = symmetrize(conditional_affinities(x, min(30.0, n / 2)).p)
    p_tiles = tile_major(p)
    buffer = np.empty(2 * _TILE * _TILE)
    reused = _TilePass(p_tiles, n)
    y0 = rng.normal(size=(n, 2))
    for scale in (1e-4, 1.0, 1e4):
        y = y0 * scale
        for exaggeration in (1.0, 12.0):
            for with_log in (False, True):
                expected = former_gradient_pass(p, y, exaggeration, buffer, with_log)
                for grad, z, p_log_d in (gradient_pass(p_tiles, y, exaggeration, with_log),
                                         reused(y, exaggeration, with_log)):
                    assert np.array_equal(grad, expected[0])
                    assert z == expected[1] and p_log_d == expected[2]


@pytest.mark.parametrize("n", [3, 120, _TILE + 1, 2 * _TILE + 7])
def test_a_reused_pass_gives_the_bits_of_fresh_passes(n):
    # one pass object over many y, with and without the log, in an order
    # where state left over from the previous call (the sums, the operand
    # buffers, the tile buffer, the log total) would show
    rng = np.random.default_rng(300 + n)
    x = rng.normal(size=(n, 3))
    x[: n // 2] += 2.0
    p_tiles = tile_major(symmetrize(conditional_affinities(x, min(30.0, n / 2)).p))
    reused = _TilePass(p_tiles, n)
    for step, with_log in enumerate((True, False, False, True, True, False, True)):
        y = rng.normal(scale=10.0 ** (step % 3 - 1), size=(n, 2))
        exaggeration = 12.0 if step % 2 else 1.0
        y_before = y.copy()
        grad, z, p_log_d = reused(y, exaggeration, with_log)
        fresh = gradient_pass(p_tiles, y, exaggeration, with_log)
        assert grad.tobytes() == fresh[0].tobytes()
        assert z == fresh[1] and p_log_d == fresh[2]
        assert np.array_equal(y, y_before)


@pytest.fixture
def forks(monkeypatch):
    """The helper forked wherever there are two tiles, whatever the CPU
    count, and used in every pass, untimed; the pids of the forks made are
    collected in the list."""
    made, fork = [], os.fork

    def recorded_fork():
        pid = fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(tsne, "_helper_wanted", lambda n_tiles: n_tiles >= 2)
    monkeypatch.setattr(tsne, "_TRIAL_PAIRS", 0)
    monkeypatch.setattr(os, "fork", recorded_fork)
    return made


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pass_input(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x[: n // 3] += 3.0
    p = symmetrize(conditional_affinities(x, 30.0).p)
    return p, rng.normal(size=(n, 2))


def test_the_helper_needs_two_tiles_fork_and_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert tsne._helper_wanted(2) and not tsne._helper_wanted(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not tsne._helper_wanted(10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not tsne._helper_wanted(10)


@pytest.mark.parametrize("n", [_TILE + 1, 2 * _TILE + 7, 900])
def test_a_split_pass_keeps_the_former_pass_bits(n, forks):
    p, y0 = pass_input(n, 400 + n)
    buffer = np.empty(2 * _TILE * _TILE)
    split = _TilePass(tile_major(p), n)
    assert split.shares[0] and split.shares[1]
    with split.helper():
        assert len(forks) == 1 and split._helper is not None
        for scale in (1e-4, 1.0, 1e4):
            y = y0 * scale
            for exaggeration in (1.0, 12.0):
                for with_log in (False, True):
                    expected = former_gradient_pass(p, y, exaggeration, buffer, with_log)
                    grad, z, p_log_d = split(y, exaggeration, with_log)
                    assert grad.tobytes() == expected[0].tobytes()
                    assert z == expected[1] and p_log_d == expected[2]
    assert_no_child_process()


def test_run_tsne_gives_the_same_bytes_with_and_without_the_helper(monkeypatch, forks):
    n = 2 * _TILE + 7
    x = np.random.default_rng(9).normal(size=(n, 3))
    x[: n // 2] += 2.0
    config = TsneConfig(perplexity=20.0, n_iterations=120, seed=5,
                        momentum_switch_iter=60, exaggeration_until_iter=60)
    split = run_tsne(x, config)
    assert len(forks) == 1
    assert_no_child_process()
    monkeypatch.setattr(tsne, "_helper_wanted", lambda n_tiles: False)
    alone = run_tsne(x, config)
    assert len(forks) == 1
    assert split.coords.tobytes() == alone.coords.tobytes()
    assert split.kl_trace == alone.kl_trace and len(split.kl_trace) == 3


def test_no_helper_outlives_a_numeric_error(forks):
    x = np.random.default_rng(10).normal(size=(2 * _TILE + 7, 3))
    config = TsneConfig(perplexity=20.0, n_iterations=300, learning_rate=1e300, seed=1)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
        run_tsne(x, config)
    assert len(forks) == 1
    assert_no_child_process()


@contextmanager
def deadline(seconds):
    """Raises TimeoutError in the block once ``seconds`` have passed, so
    that a pass waiting on a helper that never answers fails the test."""
    def expired(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def failing_run(steps, with_log):
    raise ValueError("a tile failed")


@pytest.mark.parametrize("death", ["killed", "killed-and-reaped", "failed-in-a-pass"])
def test_a_dead_helpers_share_runs_in_the_pass(death, forks):
    # a killed helper ends the pass at its command (a closed pipe) or at
    # its answer (end of file), whichever the kill reaches first; one
    # that fails in a tile leaves through os._exit, mid-pass
    n = 2 * _TILE + 7
    p, y = pass_input(n, 11)
    split = _TilePass(tile_major(p), n)
    expected = {with_log: split(2.0 * y, 1.0, with_log) for with_log in (False, True)}
    split(y, 1.0)  # the slots now hold the tiles at y, not at 2 y
    if death == "failed-in-a-pass":
        split._run = failing_run  # the helper keeps the failing copy
    with deadline(10), split.helper():
        if death == "failed-in-a-pass":
            del split._run
        else:
            split(y, 1.0)
            os.kill(forks[0], signal.SIGKILL)
            if death == "killed-and-reaped":
                os.waitpid(forks[0], 0)
        # the pass that finds the helper gone, then passes without it
        for with_log in (True, False, True):
            grad, z, p_log_d = split(2.0 * y, 1.0, with_log)
            assert split._helper is None
            assert_no_child_process()
            assert grad.tobytes() == expected[with_log][0].tobytes()
            assert (z, p_log_d) == expected[with_log][1:]
    assert len(forks) == 1
    assert_no_child_process()


def slowed(run, seconds_per_tile):
    def slow_run(steps, with_log):
        time.sleep(seconds_per_tile * len(steps))
        run(steps, with_log)
    return slow_run


@pytest.mark.parametrize("slow_side", ["helper", "caller"])
def test_each_trial_keeps_the_helper_only_if_it_was_faster(slow_side, monkeypatch, forks):
    # a helper slower than the whole pass here loses every trial; with a
    # slow caller, the helper's share of the tiles saves time and wins
    monkeypatch.setattr(tsne, "_TRIAL_EVERY", 10)
    monkeypatch.setattr(tsne, "_TRIAL_PAIRS", 2)
    n = 2 * _TILE + 7
    p, y = pass_input(n, 14)
    split = _TilePass(tile_major(p), n)
    expected = split(y, 1.0)
    if slow_side == "helper":
        split._run = slowed(split._run, 0.01)  # the helper keeps the slow copy
    with deadline(10), split.helper():
        if slow_side == "helper":
            del split._run
        else:
            split._run = slowed(split._run, 0.005)
        for k in range(24):
            assert split(y, 1.0)[0].tobytes() == expected[0].tobytes()
            assert split._split == (k < 3 or slow_side == "caller")
        assert split._helper is not None and len(forks) == 1
    assert_no_child_process()


def test_an_interrupt_just_after_the_fork_leaves_no_helper(monkeypatch, forks):
    n = 2 * _TILE + 7
    p, _ = pass_input(n, 13)
    split = _TilePass(tile_major(p), n)
    caller, close, closed = os.getpid(), os.close, []

    def interrupted_close(fd):
        close(fd)
        if os.getpid() == caller and forks:  # the caller, after the fork
            closed.append(fd)
            if len(closed) == 2:  # the last of the child's pipe ends
                raise KeyboardInterrupt

    monkeypatch.setattr(os, "close", interrupted_close)
    with deadline(10), pytest.raises(KeyboardInterrupt), split.helper():
        pass
    assert len(forks) == 1 and len(closed) == 4
    assert_no_child_process()


def test_an_interrupted_pass_stops_the_helper_and_keeps_the_bits(forks):
    n = 2 * _TILE + 7
    p, y = pass_input(n, 12)
    split = _TilePass(tile_major(p), n)
    expected = split(y, 12.0, with_log=True)

    def interrupted(steps, with_log):
        raise KeyboardInterrupt

    with deadline(10), split.helper():
        split._run = interrupted  # the caller's share only: the helper has its own copy
        with pytest.raises(KeyboardInterrupt):
            split(y, 12.0)
        del split._run
        assert split._helper is None
        assert_no_child_process()
        grad, z, p_log_d = split(y, 12.0, with_log=True)
    assert grad.tobytes() == expected[0].tobytes() and (z, p_log_d) == expected[1:]
    with pytest.raises(KeyboardInterrupt), split.helper():
        split(y, 1.0)
        raise KeyboardInterrupt
    assert len(forks) == 2
    assert_no_child_process()
