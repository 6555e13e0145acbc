"""Greedy binary decision trees stored as flat node tables.

Splits minimize weighted child impurity: Gini for classification,
variance for regression, the latter scored as the centered gain of
CART (Breiman et al. 1984), summed over the outputs of a multi-output
target (multivariate CART, Segal 1992). Candidate thresholds are
midpoints between consecutive sorted unique values; growth stops at a
pure node or the depth cap. Of splits whose scores are equal bit for
bit, the lowest feature index wins, then the lowest threshold. A
classification score is one correctly rounded ratio of exact integers,
so splits tied in exact arithmetic tie bit for bit and follow that
rule; regression splits tied only in exact arithmetic are decided by
rounding.

A classification node is scored only at its candidate cuts: cuts between
two classes (the boundary points of Fayyad & Irani 1992, where the best
Gini cut lies) and cuts next to equal values. Along cuts that move one
class the Gini score is strictly convex, so no other cut holds a first
minimum, and in a node of at most `_EXACT_ROWS` drawn rows rounding
merges no two unequal scores (a larger node is scored at every cut):
the split is the one that scoring every cut gives, bit for bit
(`_best_class_splits` holds the proof). Counts
come from exact integer prefix sums over the nodes' slots. A regression
node is scored at every cut, in groups of nodes padded to a common
width (`_size_groups`).

A block of fitted trees is one `NodeTable` of per-node arrays, each tree
in preorder and the trees end to end. Trees grow breadth-first, a block
of them at once (a forest's trees, or the single tree of
`forest.fit_tree`), over presorted attribute lists as in SLIQ
(Mehta, Agrawal & Rissanen 1996) and SPRINT (Shafer, Agrawal & Mehta
1996). On every level each node's slice of the per-feature orders is
split stably into its children, which equals a stable argsort of the
child's rows, and every node of every tree on the level is scored in
one vectorized pass with the bits of scoring it alone. No loop runs
once per node, and no depth needs recursion.

A tree grows on its sample's distinct rows, each weighted by how often
the sample holds it. A node's n_samples is the weighted row count, the
rows the sample drew that reach it; a regression node's value is its
weighted mean target, one mean per output. A classification tree's
class counts, and with them every Gini score and stored count, are the
integers the repeated rows would give, and a cut falls only between
unequal values, where the order of rows within a tie cannot matter: it
is the tree grown on the repeated rows, bit for bit. The root orders
are one stable argsort per feature of all of x, filtered to each
tree's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class NodeTable:
    """One or more trees as parallel per-node arrays: each tree in
    preorder from its root, the trees end to end, and every child index
    into the whole table.

    Leaves have feature -1, threshold 0.0 and right = -1; internal node
    i sends x[feature] <= threshold to its left child, always node i + 1
    and so not stored, and the rest to right. `value` is (n_nodes,), or
    (n_nodes, q) for a regression tree grown on a target of q columns.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    right: np.ndarray  # int64
    n_samples: np.ndarray  # int64, training rows reaching the node
    value: np.ndarray  # float64: majority class (classification) or mean target(s)
    counts: np.ndarray | None = None  # (n_nodes, n_classes) int64, classification only

    @classmethod
    def build(cls, feature, threshold, right, n_samples=None, value=None, counts=None):
        """The table from the arrays that cannot be derived: given
        `counts` (classification), a node's value is its majority class
        and n_samples the counts' total."""
        feature = np.asarray(feature, dtype=np.int64)
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            n_samples = counts.sum(axis=1)
            value = counts.argmax(axis=1)  # ties go to the lowest class
        return cls(
            feature=feature,
            threshold=np.asarray(threshold, dtype=np.float64),
            right=np.asarray(right, dtype=np.int64),
            n_samples=np.asarray(n_samples, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
            counts=counts,
        )


def _ranges(starts, sizes) -> np.ndarray:
    """start_i, start_i + 1, ..., start_i + size_i - 1 for every i, end to end."""
    ends = np.cumsum(sizes)
    if not ends.size:
        return np.zeros(0, dtype=np.intp)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


# padding this many more positions costs about what scoring one more
# group of nodes costs in numpy calls
_MERGE_POSITIONS = 2048


def _size_groups(sizes) -> list[np.ndarray]:
    """Node indices in groups to be scored padded to the group's widest
    node: one group per size class (sizes in (2^(c-1), 2^c]), each merged
    into the group below while the padding that adds stays small."""
    size_class = np.frexp(sizes - 1)[1]
    order = np.argsort(size_class, kind="stable")
    groups = []
    for nodes in np.split(order, np.flatnonzero(np.diff(size_class[order])) + 1):
        widen = sizes[nodes].max() - sizes[groups[-1]].max() if groups else 0
        if groups and groups[-1].size * widen <= _MERGE_POSITIONS:
            groups[-1] = np.concatenate([groups[-1], nodes])
        else:
            groups.append(nodes)
    return groups


def _sorted_slots(xs, orders, at, sizes, cand) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values), each (m, R): node i's rows sorted by its j-th
    candidate feature, and their values of it, in row j at node i's
    segment of the positions `at` (the segments lie end to end, `sizes`
    long)."""
    k, m = cand.shape
    # flat takes: much faster than numpy's 2-D fancy indexing
    if m == xs.shape[0]:  # every feature, in order, at every node
        rows = orders.take(at, axis=1)
        return rows, xs.ravel().take(rows + np.arange(0, xs.size, xs.shape[1])[:, None])
    feats = cand.T.take(np.repeat(np.arange(k), sizes), axis=1)  # (m, R): each slot's feature
    rows = orders.ravel().take(feats * orders.shape[1] + at)
    return rows, xs.ravel().take(feats * xs.shape[1] + rows)


def _best_splits(xs, ys, weights, orders, at, sizes, cand, means):
    """Best regression split of each of k nodes: (feature, threshold),
    with feature -1 where every candidate column is constant over the node.

    Node i's rows sorted by feature f are orders[f, p] for its segment p
    of the positions `at` (the segments lie end to end, `sizes` long);
    its candidates are cand[i], ascending. Row r counts weights[r] times,
    an integer. Each candidate is scored at every split position between
    unequal values as -num / (n_L n_R), n_L and n_R the weighted rows
    left and right of the cut, and the first minimum wins: of
    bitwise-equal scores the lowest feature wins, then the lowest
    threshold.

    `means` holds each node's weighted mean target, (k,) for a target y
    of shape (n,) or (k, q) for one of shape (n, q), and num = sum_o
    s_Lo^2, s_Lo summing w (y_o - mean_o) over the rows left of the cut
    and the squares added in output order: the centered gain, in exact
    arithmetic n / (n_L n_R) times the fall in weighted squared error
    summed over the outputs, so its maximum is the least weighted child
    variance (CART; multivariate CART, Segal 1992, for q > 1); centering
    keeps it clear of the cancellation in s2/n - (s/n)^2. One output
    scores s_L^2 alone, so a (n, 1) target scores with the bits of a (n,)
    one. Its ties in exact arithmetic are decided by rounding.

    Every valid cut is scored: the candidate rule of `_best_class_splits`
    rests on class runs and exact integer scores, which a real target
    lacks.

    Nodes are padded to the widest node of their group (see
    `_size_groups`); positions past a node's end are masked, and the
    valid prefix of a cumsum does not depend on them, so every node gets
    the bits of being scored alone.
    """
    k, m = cand.shape
    starts = np.cumsum(sizes) - sizes
    rows, sv = _sorted_slots(xs, orders, at, sizes, cand)
    ws = weights.take(rows).astype(np.float64)  # each slot's weight
    node_n = np.add.reduceat(ws[0], starts)  # integers: exact
    centred = []  # each output's w (y_o - mean_o) at each slot
    for y_o, mean_o in zip(ys.reshape(ys.shape[0], -1).T, np.reshape(means, (k, -1)).T):
        c = y_o.take(rows)
        c -= np.repeat(mean_o, sizes)
        c *= ws
        centred.append(c)
    del rows
    feature = np.full(k, -1, dtype=np.int64)
    threshold = np.zeros(k)
    for group in _size_groups(sizes):
        width = int(sizes[group].max())
        n = node_n[group, None]
        valid = np.arange(width) < sizes[group, None]
        pos = np.where(valid, starts[group, None] + np.arange(width), 0)  # (g, width)
        svg = sv.take(pos, axis=1)  # (m, g, width)
        is_cut = svg[..., :-1] < svg[..., 1:]  # split after position j
        is_cut &= valid[:, 1:]
        del svg
        n_left = ws.take(pos, axis=1).cumsum(axis=-1)[..., :-1]
        n_right = np.maximum(n - n_left, 1)  # past the node's end: masked below
        num = None
        for c in centred:  # sum_o s_Lo^2, in output order
            s = c.take(pos, axis=1).cumsum(axis=-1)[..., :-1]
            s *= s
            if num is None:
                num = s
            else:
                num += s
        del s
        weighted = -num / (n_left * n_right)
        del num, pos, n_left, n_right
        weighted[~is_cut] = np.inf
        j = weighted.argmin(axis=-1)  # (m, g): first minimum per candidate
        mi, g = np.arange(m)[:, None], np.arange(group.size)
        found = is_cut[mi, g, j]
        slot = np.where(found, weighted[mi, g, j], np.inf).argmin(axis=0)  # over candidates
        cut = starts[group] + j[slot, g]
        ok = found[slot, g]
        feature[group[ok]] = cand[group, slot][ok]
        threshold[group[ok]] = ((sv[slot, cut] + sv[slot, cut + 1]) / 2.0)[ok]
    return feature, threshold


# A classification node of at most this many drawn rows is scored at its
# candidate cuts alone (`_best_class_splits`). A node of n drawn rows
# scores a cut num / (n_L n_R), num and n_L n_R <= n^2 / 4 integers, so
# two unequal scores differ by at least 16 / n^4; each lies in [0, n], so
# rounding moves it by at most n 2^-53. Rounding merges no two unequal
# scores while 16 / n^4 > n 2^-52, that is n^5 < 2^56 (n <= 2,352);
# 2,048 = 2^11 gives n^5 = 2^55.
_EXACT_ROWS = 2048


def _class_cut_candidates(sv, labels, starts, ends, node_n) -> np.ndarray:
    """(m, R) bool: the cuts `_best_class_splits` scores. Cut p lies
    between slots p and p + 1 of a row of the sorted values `sv` and
    their class labels `labels`, both (m, R); the nodes hold the slots
    [starts, ends) and `node_n` drawn rows. A cut is valid where both
    slots are in one node and the value rises. The candidates are the
    valid cuts between two classes or next to a cut that is not valid
    (equal values), and every valid cut of a node of more than
    `_EXACT_ROWS` drawn rows.
    """
    m, n_slots = sv.shape
    step = sv[:, :-1] < sv[:, 1:]  # rising values (a NaN never rises)
    keep = np.zeros((m, n_slots), dtype=bool)
    np.not_equal(labels[:, :-1], labels[:, 1:], out=keep[:, :-1])
    keep[:, 1:-1] |= ~step[:, :-1]  # equal values left of the cut
    keep[:, :-2] |= ~step[:, 1:]  # or right of it
    big = node_n > _EXACT_ROWS
    if big.any():
        keep[:, _ranges(starts[big], ends[big] - starts[big] - 1)] = True
    keep[:, :-1] &= step
    keep[:, ends - 1] = False  # a node's last slot: the cut would leave the node
    return keep


def _best_class_splits(xs, ys, weights, orders, at, sizes, cand, counts):
    """Best classification split of each of k nodes, with the arguments
    of `_best_splits` and the nodes' (k, n_classes) weighted class totals
    `counts` in place of means: (feature, threshold), feature -1 where
    every candidate column is constant over the node. Of bitwise-equal
    scores the lowest feature wins, then the lowest threshold.

    A valid cut scores -num / (n_L n_R), num = sum_c (a_c^2 n_R + b_c^2
    n_L), a_c and b_c class c's weighted counts left and right of the cut:
    the weighted child Gini impurity times n is n - num / (n_L n_R). The
    counts are differences of int64 prefix sums over the nodes' slots,
    feature after feature, so each is an exact integer of at most n; the
    sums run over the classes present on the level (an absent class adds
    an exact 0). num <= n_L n_R n <= n^3 / 4, so below 2^53 (nodes under
    about 3e5 drawn rows) every product is an exact integer in float64: a
    score is one correctly rounded ratio, and cuts tied in exact
    arithmetic tie bit for bit.

    Only the candidates of `_class_cut_candidates` are scored: the cuts
    between two classes and the cuts next to equal values, or every valid
    cut of a node of more than `_EXACT_ROWS` drawn rows. A superset of the
    boundary points of Fayyad & Irani (1992), they hold the first bitwise
    minimum over every valid cut, which scoring every cut would find:

    - Convexity. -score is g = sum_c a_c^2 / n_L + sum_c b_c^2 / n_R.
      Moving weight t of class c across the cut adds t to a_c and n_L and
      takes it from b_c and n_R. With A the other classes' weight on the
      left, a_c^2 / n_L = n_L - 2 A + A^2 / n_L is convex in t, and so is
      a_c'^2 / n_L for c' != c, each strictly unless its numerator is 0;
      so are the right-hand terms. All are affine only if the node holds
      class c alone, and a pure node is not scored: along cuts that move
      class c alone, g is strictly convex.
    - Minima are candidates. Let valid cut p not be a candidate: slots
      p and p + 1 hold one class c, and of cuts p - 1 and p + 1 each that
      lies in the node is valid. If both do, moving from cut p - 1 to
      p + 1 moves class c alone, so g(p) < max(g(p - 1), g(p + 1)). At a
      node's first cut the empty left side stands in for cut p - 1: there
      g is the node's own sum_c N_c^2 / N, and no cut's g is lower (by
      Cauchy-Schwarz, a_c^2 / n_L + b_c^2 / n_R >= N_c^2 / N), so
      g(p) < g(p + 1); a node's last cut mirrors it, and a node of two
      slots has one cut, between its two classes. So in exact arithmetic
      every valid cut that is not a candidate scores strictly worse than
      a valid neighbour.
    - Exact ordering. For n <= `_EXACT_ROWS` two unequal scores differ by
      more than rounding can move them (see `_EXACT_ROWS`), and rounding
      is monotone: the computed scores order the cuts as the exact ones
      do and tie exactly where they tie. So the bitwise minima over every
      valid cut are candidates, and the first of them is the first over
      the candidates. Across features the lowest feature still wins a tie.
    """
    k, m = cand.shape
    rows, sv = _sorted_slots(xs, orders, at, sizes, cand)
    n_slots = at.size
    ends = np.cumsum(sizes)
    starts = ends - sizes
    node_n = counts.sum(axis=1)
    labels = ys.take(rows)
    cuts = np.flatnonzero(_class_cut_candidates(sv, labels, starts, ends, node_n))
    feature = np.full(k, -1, dtype=np.int64)
    threshold = np.zeros(k)
    if not cuts.size:
        return feature, threshold
    # cut f * n_slots + p scores feature cand[i, f] of the node i holding
    # slot p: group f * k + i, the groups lying in order
    offsets = np.arange(0, m * n_slots, n_slots)[:, None]
    group = np.searchsorted((offsets + ends).ravel(), cuts, side="right")
    i = group % k
    # inclusive prefix sums over the flat slots, after a 0: row 0 sums the
    # weights, row j the weights of the j-th class present but the last. A
    # node's left sums at a cut are the prefix past the cut less the
    # prefix before the node's first slot.
    present = np.flatnonzero(counts.any(axis=0))
    ws = weights.take(rows).ravel()
    prefix = np.zeros((present.size, ws.size + 1), dtype=np.int64)
    prefix[0, 1:] = ws
    for row, c in zip(prefix[1:], present[:-1]):
        np.multiply(ws, labels.ravel() == c, out=row[1:])
    np.cumsum(prefix, axis=1, out=prefix)
    left = prefix.take(cuts + 1, axis=1) - prefix.take((offsets + starts).ravel()[group], axis=1)
    left = left.astype(np.float64)  # at most n: exact
    n_left = left[0]
    n_right = node_n.take(i) - n_left
    sum_a2 = sum_b2 = 0.0
    for a, total in zip([*left[1:], n_left - left[1:].sum(axis=0)], counts.T[present]):
        b = total.take(i) - a
        sum_a2 = sum_a2 + a * a
        sum_b2 = sum_b2 + b * b
    score = -(sum_a2 * n_right + sum_b2 * n_left) / (n_left * n_right)
    # each group's first minimum
    new = _run_starts(group)
    of_group = np.cumsum(new) - 1
    hit = np.flatnonzero(score == np.minimum.reduceat(score, np.flatnonzero(new))[of_group])
    first = hit[_run_starts(of_group[hit])]
    best = np.full(m * k, np.inf)
    best[group[first]] = score[first]
    at_best = np.zeros(m * k, dtype=np.int64)
    at_best[group[first]] = cuts[first]
    slot = best.reshape(m, k).argmin(axis=0)  # the lowest feature of a tie
    won = slot * k + np.arange(k)
    ok = np.isfinite(best[won])
    cut = at_best[won[ok]]
    feature[ok] = cand[ok, slot[ok]]
    values = sv.ravel()
    threshold[ok] = (values[cut] + values[cut + 1]) / 2.0
    return feature, threshold


def _run_starts(a) -> np.ndarray:
    """Where each run of equal entries of `a` starts."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _partition(orders, at, sizes, n_left, goes_left) -> np.ndarray:
    """Split k end-to-end segments (at the positions `at`) of every order
    row stably in two: the rows that go left, then the rest, each in
    their former order.

    Every row holds each segment's rows, in its own order, so the rows
    that go left from the segments before segment i, sum(n_left[:i]), are
    the same in every row, and so are the children's offsets."""
    lefts_before = np.cumsum(n_left) - n_left
    seg = np.repeat(np.arange(sizes.size), sizes)
    # a left-going row's destination is to_left + (left-going rows before
    # it); a right-going row's, to_right - (those rows)
    to_left = (np.cumsum(sizes) - sizes - lefts_before)[seg]
    to_right = (n_left + lefts_before)[seg] + np.arange(at.size)
    out = np.empty((orders.shape[0], at.size), dtype=orders.dtype)
    for row, full in zip(out, orders):
        order = full.take(at)
        left = goes_left.take(order)
        before = np.cumsum(left)
        before -= left
        row[np.where(left, to_left + before, to_right - before)] = order
    return out


def _preorder_table(levels) -> tuple[NodeTable, np.ndarray]:
    """The block's `NodeTable` from the per-level node records, and the
    node each tree starts at: the trees lie end to end, each in preorder.

    A split node's children are consecutive on the next level, left
    first, in the order of their parents. Subtree sizes, summed bottom-up,
    give every node's preorder index top-down.
    """
    size = [None] * len(levels)  # nodes in each node's subtree
    size[-1] = np.ones(levels[-1]["feature"].size, dtype=np.int64)
    for depth in range(len(levels) - 2, -1, -1):
        size[depth] = np.ones(levels[depth]["feature"].size, dtype=np.int64)
        children = size[depth + 1].reshape(-1, 2)
        size[depth][levels[depth]["feature"] >= 0] += children[:, 0] + children[:, 1]
    roots = np.cumsum(size[0]) - size[0]
    pre = [roots]  # index within the block's table
    for depth, level in enumerate(levels):
        split = level["feature"] >= 0
        level["right"] = np.full(split.size, -1, dtype=np.int64)
        if depth + 1 < len(levels):
            child_pre = np.repeat(pre[depth][split] + 1, 2)
            child_pre[1::2] += size[depth + 1][0::2]
            level["right"][split] = child_pre[1::2]
            pre.append(child_pre)
    dest = np.concatenate(pre)
    table = {}
    for key in list(levels[0]):
        merged = np.concatenate([level.pop(key) for level in levels])  # frees as it goes
        table[key] = np.empty_like(merged)
        table[key][dest] = merged
    return NodeTable.build(**table), roots


def grow_trees(
    x,
    y,
    samples,
    n_classes: int,
    max_depth: int | None = None,
    keys=None,
    m_features: int | None = None,
) -> tuple[NodeTable, np.ndarray]:
    """Grow one tree on the rows `samples[t]` of (x, y) for every t, all
    trees at once, level by level: the trees' one `NodeTable`, tree after
    tree, and the node each tree starts at.

    (x, y) is a training set as `inputs.training_set` returns it, and
    `n_classes` its class count: 0 grows regression trees on the target
    y, at least 2 classification trees on the class labels y. No node
    deeper than `max_depth` (None: no cap) is split.

    `keys`, a (trees, len(x) - 1, d) array of uniform keys, draws the
    candidate features when `m_features` is below the feature count d:
    the j-th node that tree t scores, in level order, takes keys[t, j],
    its candidates being the m features with the smallest keys. A scored
    node holds at least 2 distinct rows, and two scored nodes of a tree
    are nested or disjoint, so a tree on r distinct rows scores at most
    r - 1 nodes. Without `keys` every feature is a candidate at every node.

    Every tree grows on the distinct rows of `samples[t]`, each weighted
    by its multiplicity there (see the module docstring).

    A regression target y of shape (n, q) grows one tree for all q
    outputs: a node's value is its weighted mean of each output, a node
    is scored while any output varies over it, and a cut scores the sum
    over the outputs of the single-output score (`_best_splits`). Its
    table holds (n_nodes, q) values; a (n, 1) target grows the tree of
    the (n,) one, bit for bit.
    """
    xt = np.ascontiguousarray(x.T)
    d, n_x = xt.shape
    samples = np.atleast_2d(samples)
    n_trees = samples.shape[0]
    classify = n_classes > 0
    subsample = keys is not None and m_features is not None and m_features < d
    used = np.zeros(n_trees, dtype=np.int64)  # nodes each tree has scored so far
    # each tree's distinct rows, ascending, tree after tree, and how often it drew them
    offsets = np.arange(0, n_trees * n_x, n_x)
    mult = np.bincount((samples + offsets[:, None]).ravel(), minlength=n_trees * n_x)
    held = mult > 0
    flat = np.flatnonzero(held)  # each block row's (tree, row of x), flattened
    picked = flat % n_x
    weights = mult[flat]
    xs = xt.take(picked, axis=1)
    ys = y[picked]
    sizes = np.count_nonzero(held.reshape(n_trees, n_x), axis=1)
    # filtering x's stable orders to a tree's rows gives their stable
    # orders, ties still by row of x
    at = (np.argsort(xt, axis=1, kind="stable")[:, None, :] + offsets[:, None]).reshape(d, -1)
    block_row = np.cumsum(held) - 1
    orders = block_row.take(at[held.take(at)]).reshape(d, -1)
    del mult, held, flat, picked, at, block_row
    goes_left = np.zeros(ys.size, dtype=bool)
    tree = np.arange(n_trees)  # the tree of each node on the level
    levels = []
    depth = 0
    while True:
        k = sizes.size
        starts = np.cumsum(sizes) - sizes
        # a node's rows are its segment of orders[-1]; its totals are
        # summed in that order
        y_node = ys.take(orders[-1], axis=0)
        w_node = weights.take(orders[-1])
        node = np.repeat(np.arange(k), sizes)
        if classify:
            counts = np.bincount(node * n_classes + y_node, w_node, minlength=k * n_classes)
            counts = counts.astype(np.int64).reshape(k, n_classes)  # sums of integers: exact
            level = {"counts": counts}
            scored = np.count_nonzero(counts, axis=1) > 1
        else:
            n_node = np.bincount(node, w_node, minlength=k)  # sums of integers: exact
            value = np.stack([np.bincount(node, w_node * y_o, minlength=k) / n_node
                              for y_o in y_node.reshape(y_node.shape[0], -1).T], axis=1)
            level = {"n_samples": n_node.astype(np.int64),
                     "value": value if y.ndim > 1 else value[:, 0]}
            # scored while any output varies over the node
            scored = np.maximum.reduceat(y_node, starts) != np.minimum.reduceat(y_node, starts)
            scored = scored.reshape(k, -1).any(axis=1)
        del y_node, w_node, node
        if max_depth is not None and depth >= max_depth:
            scored[:] = False
        scored = np.flatnonzero(scored)
        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        if scored.size:
            if subsample:
                # the level's nodes are grouped by tree: a scored node's rank
                # among its tree's scored nodes is its index past the first
                owner = tree[scored]
                per_tree = np.bincount(owner, minlength=n_trees)
                rank = np.arange(scored.size) - (np.cumsum(per_tree) - per_tree)[owner]
                drawn = keys[owner, used[owner] + rank]
                used += per_tree
                cand = np.sort(np.argsort(drawn, axis=1, kind="stable")[:, :m_features], axis=1)
            else:
                cand = np.broadcast_to(np.arange(d), (scored.size, d))
            at = _ranges(starts[scored], sizes[scored])
            if classify:
                feature[scored], threshold[scored] = _best_class_splits(
                    xs, ys, weights, orders, at, sizes[scored], cand, counts[scored])
            else:
                feature[scored], threshold[scored] = _best_splits(
                    xs, ys, weights, orders, at, sizes[scored], cand, level["value"][scored])
        # route the split nodes' rows; a midpoint that rounds onto a value separates nothing
        split = np.flatnonzero(feature >= 0)
        at = _ranges(starts[split], sizes[split])
        rows = orders[-1].take(at)
        left = xs.ravel().take(np.repeat(feature[split], sizes[split]) * xs.shape[1] + rows) \
            <= np.repeat(threshold[split], sizes[split])
        n_left = np.bincount(np.repeat(np.arange(split.size), sizes[split])[left],
                             minlength=split.size)
        keep = (n_left > 0) & (n_left < sizes[split])
        feature[split[~keep]] = -1
        threshold[split[~keep]] = 0.0
        level.update(feature=feature, threshold=threshold)
        levels.append(level)
        if not keep.any():
            break
        goes_left[rows] = left
        at = at[np.repeat(keep, sizes[split])]
        split, n_left = split[keep], n_left[keep]
        orders = _partition(orders, at, sizes[split], n_left, goes_left)
        sizes = np.stack([n_left, sizes[split] - n_left], axis=1).ravel()
        tree = np.repeat(tree[split], 2)
        depth += 1

    return _preorder_table(levels)


def route_trees(table: NodeTable, roots, x) -> np.ndarray:
    """The leaf of `table` that every point of x reaches from every root:
    a (len(roots), len(x)) array of node indices, found one level at a
    time for the (root, point) pairs not yet at a leaf. A point goes left
    where x[feature] <= threshold."""
    n_points = x.shape[0]
    leaf = np.empty((len(roots), n_points), dtype=np.int64)
    node = np.repeat(np.asarray(roots, dtype=np.int64), n_points)
    pair = np.arange(node.size)
    xf = np.ascontiguousarray(x).ravel()
    at = pair % n_points * x.shape[1]  # each pair's point's offset in xf
    while pair.size:
        feature = table.feature[node]
        done = feature < 0
        leaf.flat[pair[done]] = node[done]
        inner = ~done
        node, pair, at, feature = node[inner], pair[inner], at[inner], feature[inner]
        node = np.where(xf[at + feature] <= table.threshold[node], node + 1, table.right[node])
    return leaf


def count_leaves(table: NodeTable) -> int:
    return int(np.count_nonzero(table.feature < 0))


def _split_levels(table: NodeTable):
    """The split nodes of each level, top-down from the roots (the nodes
    no node points to), one array per level."""
    internal = table.feature >= 0
    is_child = np.zeros(table.feature.size, dtype=bool)
    is_child[np.flatnonzero(internal) + 1] = is_child[table.right[internal]] = True
    level = np.flatnonzero(~is_child)
    while level.size:
        split = level[internal[level]]
        yield split
        level = np.concatenate([split + 1, table.right[split]])


def leaf_boxes(table: NodeTable, n_features: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, value) of every leaf in preorder: the leaf holds exactly
    the x with lo[i, f] < x[f] <= hi[i, f] for every feature f, walked down
    from the roots one level at a time.

    A path that splits twice on one feature keeps the tighter bound on
    each side, so a leaf that no x reaches gets a box with hi <= lo on
    some feature.
    """
    n = table.feature.size
    lo = np.full((n, n_features), -np.inf)
    hi = np.full((n, n_features), np.inf)
    for split in _split_levels(table):
        f, t = table.feature[split], table.threshold[split]
        left, right = split + 1, table.right[split]
        lo[left] = lo[right] = lo[split]
        hi[left] = hi[right] = hi[split]
        hi[left, f] = np.minimum(hi[split, f], t)
        lo[right, f] = np.maximum(lo[split, f], t)
    leaves = table.feature < 0
    return lo[leaves], hi[leaves], table.value[leaves]


def leaf_path_shares(table: NodeTable, n_features: int) -> np.ndarray:
    """P[i, s] for every leaf i in preorder and every feature subset s,
    whose members are the set bits of s: the product, root to leaf, of the
    child's training share n_child / n_parent at each split on a feature
    outside the subset.

    Each level multiplies its parents' products by the shares, so every
    product is taken in path order starting from 1.0, with the bits of a
    root-to-leaf walk that multiplies by 1.0 at the splits inside the subset.
    """
    subsets = np.arange(1 << n_features)
    share = np.ones((table.feature.size, subsets.size))
    for split in _split_levels(table):
        outside = ((subsets >> table.feature[split, None]) & 1) == 0
        for child in (split + 1, table.right[split]):
            ratio = table.n_samples[child] / table.n_samples[split]
            share[child] = np.where(outside, share[split] * ratio[:, None], share[split])
    return share[table.feature < 0]


__all__ = [
    "NodeTable",
    "grow_trees",
    "count_leaves",
    "leaf_boxes",
    "leaf_path_shares",
    "route_trees",
]
