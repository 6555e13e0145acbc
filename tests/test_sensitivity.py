import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.ingest import FEATURE_NAMES
from chirpmap.models.forest import ForestConfig, fit_random_forest, fit_tree
from chirpmap.pipeline import (
    _read_combined,
    _read_embedding_aligned,
    _read_table,
    artifact_paths,
    config_from_dict,
    run_stage,
)
from chirpmap.sensitivity import (
    SensitivityConfig,
    _quartiles,
    build_sensitivity_map,
    fit_coordinate_regressors,
    sensitivity_summary,
    shapley_from_subset_values,
    shapley_values,
    tree_subset_values,
)
from chirpmap.synth import generate_records, write_records_csv
from tests.test_subset_oracle import walk_subset_values


def naive_subset_value(table, node, instance, in_mask):
    """Textbook recursion: out-of-subset splits average the children by
    training share."""
    f = table.feature[node]
    if f < 0:
        return table.value[node]
    left, right = node + 1, table.right[node]
    if in_mask[f]:
        child = left if instance[f] < table.threshold[node] else right
        return naive_subset_value(table, child, instance, in_mask)
    nl = table.n_samples[left]
    nr = table.n_samples[right]
    return (
        nl * naive_subset_value(table, left, instance, in_mask)
        + nr * naive_subset_value(table, right, instance, in_mask)
    ) / (nl + nr)


def recursive_subset_values(table, x):
    """The former recursive walk (DFS, left first, copies per child), kept
    as the reference for the exact arithmetic of the iterative walk oracle."""
    d = x.shape[1]
    out = np.zeros((x.shape[0], 1 << d))

    def walk(node, weights):
        f = table.feature[node]
        if f < 0:
            out[:] += weights * float(table.value[node])
            return
        with_f = [s for s in range(1 << d) if (s >> f) & 1]
        without_f = [s for s in range(1 << d) if not (s >> f) & 1]
        goes_left = x[:, f] <= table.threshold[node]
        left, right = node + 1, table.right[node]
        n = int(table.n_samples[node])
        w_left = weights.copy()
        w_right = weights.copy()
        w_left[:, with_f] *= goes_left[:, None]
        w_right[:, with_f] *= (~goes_left)[:, None]
        w_left[:, without_f] *= int(table.n_samples[left]) / n
        w_right[:, without_f] *= int(table.n_samples[right]) / n
        if np.any(w_left):
            walk(left, w_left)
        if np.any(w_right):
            walk(right, w_right)

    walk(0, np.ones_like(out))
    return out


def ordering_shapley(values_row, d):
    """Average marginal contribution over every feature ordering."""
    phi = np.zeros(d)
    for j in range(d):
        terms = []
        for perm in itertools.permutations(range(d)):
            before = 0
            for f in perm:
                if f == j:
                    break
                before |= 1 << f
            terms.append(values_row[before | (1 << j)] - values_row[before])
        phi[j] = math.fsum(terms) / math.factorial(d)
    return phi


@pytest.fixture(scope="module")
def regression_tree():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 3))
    y = 3.0 * x[:, 0] + np.sin(x[:, 1]) + 0.2 * x[:, 2] ** 2
    return fit_tree(x, y, ForestConfig(n_trees=1, task="regression", max_depth=5)), x


def test_subset_values_match_naive_recursion(regression_tree):
    tree, x = regression_tree
    instances = x[:10]
    values = tree_subset_values(tree, instances)
    for i, inst in enumerate(instances):
        for mask in range(8):
            in_mask = [bool(mask >> j & 1) for j in range(3)]
            assert values[i, mask] == pytest.approx(
                naive_subset_value(tree.root, 0, inst, in_mask), abs=1e-12
            )


def test_subset_values_equal_recursive_walk_exactly(regression_tree):
    _, x = regression_tree
    y = 3.0 * x[:, 0] - x[:, 2] + np.sin(x[:, 1])
    forest = fit_random_forest(x, y, ForestConfig(n_trees=5, seed=8, task="regression"))
    for tree in forest.trees:
        assert np.array_equal(walk_subset_values(tree, x), recursive_subset_values(tree.root, x))


def test_attributions_equal_ordering_enumeration_exactly(regression_tree):
    tree, x = regression_tree
    instances = x[:30]
    values = tree_subset_values(tree, instances)
    phi = shapley_from_subset_values(values, 3)
    for i in range(30):
        assert np.array_equal(phi[i], ordering_shapley(values[i], 3))


def test_two_leaf_tree_closed_form():
    # split on feature 0 at 0.0; leaves are the training means
    x = np.array([[-1.0, 5.0, 5.0]] * 3 + [[1.0, 5.0, 5.0]] * 1)
    y = np.array([2.0, 2.0, 2.0, 10.0])
    tree = fit_tree(x, y, ForestConfig(n_trees=1, task="regression"))
    att = shapley_values(tree, np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    base = 0.75 * 2.0 + 0.25 * 10.0
    assert att.base == pytest.approx(base)
    # only feature 0 carries signal; its value is prediction minus base
    assert att.phi[0].tolist() == pytest.approx([2.0 - base, 0.0, 0.0])
    assert att.phi[1].tolist() == pytest.approx([10.0 - base, 0.0, 0.0])


def test_efficiency_and_null_player(regression_tree):
    tree, x = regression_tree
    att = shapley_values(tree, x)
    gaps = att.phi.sum(axis=1) + att.base - att.predictions
    assert np.max(np.abs(gaps)) <= 1e-9
    # a feature the tree never splits on gets exactly zero
    x4 = np.hstack([x, np.full((x.shape[0], 1), 7.7)])
    rng_y = 3.0 * x4[:, 0]
    tree4 = fit_tree(x4, rng_y, ForestConfig(n_trees=1, task="regression", max_depth=4))
    att4 = shapley_values(tree4, x4[:20])
    assert np.all(att4.phi[:, 3] == 0.0)


def test_forest_attributions_average_trees(regression_tree):
    _, x = regression_tree
    y = 3.0 * x[:, 0] - x[:, 2]
    forest = fit_random_forest(x, y, ForestConfig(n_trees=7, seed=3, task="regression"))
    att = shapley_values(forest, x[:15])
    per_tree = [shapley_values(t, x[:15]) for t in forest.trees]
    stacked = np.mean([a.phi for a in per_tree], axis=0)
    assert np.allclose(att.phi, stacked, atol=1e-12)
    assert att.predictions == pytest.approx(forest.predict(x[:15]))
    gaps = att.phi.sum(axis=1) + att.base - att.predictions
    assert np.max(np.abs(gaps)) <= 1e-9


def test_classification_forest_rejected(two_blobs):
    x, y = two_blobs
    forest = fit_random_forest(x, y, ForestConfig(n_trees=3, seed=0))
    with pytest.raises(DataError, match="regression"):
        shapley_values(forest, x[:5])


def test_coordinate_regressors_and_map():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(60, 3))
    coords = np.column_stack([2.0 * values[:, 0], values[:, 1] - values[:, 2]])
    reg = fit_coordinate_regressors(values, coords, SensitivityConfig(n_trees=20, seed=1))
    smap = build_sensitivity_map(reg, values, coords, "euclidean")
    assert smap.r2_x > 0.8 and smap.r2_y > 0.8
    assert smap.combined.shape == (60, 3)
    assert np.allclose(smap.combined, np.hypot(smap.phi_x, smap.phi_y))
    assert np.all(smap.combined >= 0.0)
    summary = sensitivity_summary(smap)
    assert set(summary) == set(FEATURE_NAMES)
    assert {"mean", "max", "median", "q25", "q75"} <= set(summary[FEATURE_NAMES[0]])


def test_constant_coordinate_convention():
    rng = np.random.default_rng(10)
    values = rng.normal(size=(40, 3))
    coords = np.column_stack([values[:, 0], np.zeros(40)])  # flat y
    reg = fit_coordinate_regressors(values, coords, SensitivityConfig(n_trees=5, seed=0))
    smap = build_sensitivity_map(reg, values, coords, "euclidean")
    assert smap.r2_y == 1.0  # fit of a constant is trivially perfect
    assert np.all(smap.phi_y == 0.0)


def test_sum_abs_combination():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(30, 3))
    coords = np.column_stack([values[:, 0], values[:, 1]])
    reg = fit_coordinate_regressors(values, coords, SensitivityConfig(n_trees=5, seed=2))
    smap = build_sensitivity_map(reg, values, coords, "sum_abs")
    assert np.allclose(smap.combined, np.abs(smap.phi_x) + np.abs(smap.phi_y))
    with pytest.raises(DataError, match="unknown combination rule 'max'"):
        SensitivityConfig(combination="max")


def test_map_round_trip(tmp_path, monkeypatch):
    """The explain stage writes row i of the map under the embedding's id
    i, one line per feature in order, every float exactly; render's reader
    gives back the combined column; and a map with another row count than
    the ids, or a non-finite value, is refused before anything is written."""
    data = str(tmp_path / "data.csv")
    write_records_csv(generate_records(n_per_cluster=9, seed=12), data)
    config = config_from_dict({"input": data, "out": str(tmp_path / "out"), "seed": 3,
                               "tsne": {"perplexity": 5.0, "n_iterations": 40,
                                        "momentum_switch_iter": 20, "exaggeration_until_iter": 20},
                               "sensitivity": {"n_trees": 5}})
    paths = artifact_paths(config.out)
    for stage in ("ingest", "embed", "explain"):
        run_stage(stage, config)
    ids, values, coords, _ = _read_embedding_aligned(paths)
    sens_config = config.sensitivity_config()
    reg = fit_coordinate_regressors(values, coords, sens_config)
    smap = build_sensitivity_map(reg, values, coords, sens_config.combination)
    (read_ids, features), numbers = _read_table(paths, "sensitivity")
    assert len(ids) == 27
    assert read_ids == [rec_id for rec_id in ids for _ in FEATURE_NAMES]
    assert features == list(FEATURE_NAMES) * len(ids)
    for column, array in enumerate((smap.phi_x, smap.phi_y, smap.combined)):
        assert np.array_equal(numbers[:, column], array.ravel())  # repr round-trip is exact
    assert np.array_equal(_read_combined(paths, ids), smap.combined)
    assert json.loads(open(paths["sensitivity_meta"]).read())["combination"] == "euclidean"

    written = {key: open(paths[key], "rb").read() for key in ("sensitivity", "sensitivity_meta")}
    monkeypatch.setattr("chirpmap.pipeline.build_sensitivity_map", lambda *args: dataclasses.replace(
        smap, phi_x=smap.phi_x[1:], phi_y=smap.phi_y[1:], combined=smap.combined[1:]))
    with pytest.raises(ValueError, match="shorter"):
        run_stage("explain", config)
    assert {key: open(paths[key], "rb").read() for key in written} == written
    phi_x = smap.phi_x.copy()
    phi_x[1, 2] = np.nan  # record 1's third feature: the table's sixth row, line 7
    monkeypatch.setattr("chirpmap.pipeline.build_sensitivity_map",
                        lambda *args: dataclasses.replace(smap, phi_x=phi_x))
    with pytest.raises(DataError, match="sensitivity.csv: line 7, column 'phi_x' is not finite"):
        run_stage("explain", config)
    assert {key: open(paths[key], "rb").read() for key in written} == written


def test_map_follows_the_embedding_frame(tmp_path):
    """t-SNE's 8 exact frames (a column swap, then either column negated)
    of one 120-record embedding: the combined magnitudes keep their bytes,
    and each frame's phi, base and R^2 are the original's, swapped and
    negated with its columns."""
    data = str(tmp_path / "data.csv")
    write_records_csv(generate_records(n_per_cluster=40, separation=2.0, seed=12), data)
    config = config_from_dict({"input": data, "out": str(tmp_path / "out"), "seed": 5})
    for stage in ("ingest", "embed"):
        run_stage(stage, config)
    _, values, coords, _ = _read_embedding_aligned(artifact_paths(config.out))
    sens_config = config.sensitivity_config()

    def sensitivity_map(coords):
        reg = fit_coordinate_regressors(values, coords, sens_config)
        return build_sensitivity_map(reg, values, coords, sens_config.combination)

    original = sensitivity_map(coords)
    axes = [(original.phi_x, original.base_x, original.r2_x),
            (original.phi_y, original.base_y, original.r2_y)]
    for swap, sx, sy in itertools.product((False, True), (1.0, -1.0), (1.0, -1.0)):
        source = axes[::-1] if swap else axes
        smap = sensitivity_map((coords[:, ::-1] if swap else coords) * [sx, sy])
        assert smap.combined.tobytes() == original.combined.tobytes()
        for (phi, base, r2), (src_phi, src_base, src_r2), sign in zip(
                ((smap.phi_x, smap.base_x, smap.r2_x), (smap.phi_y, smap.base_y, smap.r2_y)),
                source, (sx, sy)):
            assert phi.tobytes() == (sign * src_phi).tobytes()
            assert (base, r2) == (sign * src_base, src_r2)


def test_regressors_need_enough_rows():
    with pytest.raises(DataError):
        fit_coordinate_regressors(np.ones((5, 3)), np.ones((5, 2)), SensitivityConfig(n_trees=2))


def test_regressors_need_the_three_features():
    """A map's columns are FEATURE_NAMES, so its features are those three."""
    x = np.random.default_rng(14).normal(size=(20, 2))
    with pytest.raises(DataError, match="expected 3 feature columns, got 2"):
        fit_coordinate_regressors(x, x, SensitivityConfig(n_trees=2))


def test_map_needs_one_coordinate_pair_per_record():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(20, 3))
    coords = values[:, :2].copy()
    reg = fit_coordinate_regressors(values, coords, SensitivityConfig(n_trees=3, seed=4))
    for bad in (coords[:-1], coords[:, :1]):
        with pytest.raises(DataError, match="misaligned"):
            build_sensitivity_map(reg, values, bad, "euclidean")


def test_sensitivity_map_peak_memory():
    """A map reads the forest's one node table: no reader stacks the
    trees into a second one."""
    x = np.random.default_rng(6).normal(size=(900, 3))
    coords = np.column_stack([3.0 * np.sin(x[:, 0]), x[:, 1] * x[:, 2]])
    reg = fit_coordinate_regressors(x, coords, SensitivityConfig())
    tracemalloc.start()
    try:
        build_sensitivity_map(reg, x, coords, "euclidean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20


def test_quartiles_equal_np_quantile_bitwise():
    rng = np.random.default_rng(25)
    for n in [*range(1, 61), 120, 450, 900]:
        columns = [
            rng.random(n),
            np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-300, 300),
            rng.integers(0, 3, n).astype(np.float64),  # ties
            np.full(n, rng.random()),  # constant
            np.zeros(n),
            np.where(np.arange(n) == n // 2, np.nan, rng.random(n)),  # NaN sorts last
        ]
        for col in columns:
            ours = np.array(_quartiles(col.copy()))
            assert ours.tobytes() == np.quantile(col, (0.25, 0.5, 0.75)).tobytes(), (n, col)
