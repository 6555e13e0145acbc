"""The tiled t-SNE gradient pass against the pass it replaced, bit for bit.

``former_gradient_pass`` is that pass as it was, on a square p, with the
copy-then-subtract distance helper it called; the current pass takes p
tile-major and forms each tile's distances from operands built once per
run. Every tile's arithmetic is meant to be unchanged, so the gradient,
Z and sum p ln(1 + d^2) must match exactly, over one tile and many,
whether a pass object is fresh or has run at other y before.
"""

import numpy as np
import pytest

from chirpmap.tsne import (
    _TILE,
    _TilePass,
    _tile_spans,
    conditional_affinities,
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
