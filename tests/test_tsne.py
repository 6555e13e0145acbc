import dataclasses
import json

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.pipeline import _read_features, _read_table, artifact_paths, config_from_dict, run_stage
from chirpmap.synth import generate_records, write_records_csv
from chirpmap.tsne import (
    TsneConfig,
    conditional_affinities,
    kl_divergence,
    kl_gradient,
    low_dim_similarities,
    pca_init,
    run_tsne,
    symmetrize,
)


def gaussian_cloud(n, d=3, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=(n, d))


def test_affinity_rows_are_distributions():
    aff = conditional_affinities(gaussian_cloud(40), perplexity=10.0)
    assert np.allclose(aff.p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(aff.p) == 0.0)
    assert np.all(aff.p >= 0.0)


@pytest.mark.parametrize("target", [5.0, 15.0, 30.0])
def test_calibration_hits_target_perplexity(target):
    aff = conditional_affinities(gaussian_cloud(50, seed=1), perplexity=target)
    assert not aff.fallback_rows
    assert np.all(np.abs(aff.realized_perplexity - target) <= 1e-5)


def test_calibration_survives_extreme_scales():
    # bandwidth search must cope with very large and very tiny distances
    for scale in (1e-6, 1e6):
        aff = conditional_affinities(gaussian_cloud(25, seed=2, scale=scale), perplexity=8.0)
        assert not aff.fallback_rows
        assert np.all(np.abs(aff.realized_perplexity - 8.0) <= 1e-5)


def test_perplexity_of_n_minus_1_is_the_reachable_maximum():
    # a row of 10 points has 9 neighbours: perplexity 9 is the uniform row
    x = gaussian_cloud(10, seed=3)
    aff = conditional_affinities(x, perplexity=9.0)
    assert aff.fallback_rows == []
    assert np.all(np.abs(aff.realized_perplexity - 9.0) <= 1e-5)
    TsneConfig(perplexity=9.0).validate(n_points=10)
    for perplexity in (9.5, np.nextafter(9.0, 10.0)):
        with pytest.raises(DataError, match="perplexity"):
            conditional_affinities(x, perplexity=perplexity)
        with pytest.raises(DataError, match="perplexity"):
            TsneConfig(perplexity=perplexity).validate(n_points=10)


def test_symmetrize_produces_joint_distribution():
    aff = conditional_affinities(gaussian_cloud(30), perplexity=9.0)
    p = symmetrize(aff.p)
    assert np.allclose(p, p.T)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(np.diag(p) == 0.0)


def test_low_dim_similarities_student_t():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    q, w = low_dim_similarities(coords)
    # pairwise kernels: 1/(1+d^2)
    assert w[0, 1] == pytest.approx(1 / 2)
    assert w[0, 2] == pytest.approx(1 / 5)
    assert w[1, 2] == pytest.approx(1 / 6)
    assert q.sum() == pytest.approx(1.0)
    assert np.all(np.diag(q) == 0.0)


def test_kl_divergence_zero_iff_equal():
    aff = conditional_affinities(gaussian_cloud(12), perplexity=5.0)
    p = symmetrize(aff.p)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)
    q, _ = low_dim_similarities(gaussian_cloud(12, d=2, seed=9))
    assert kl_divergence(p, q) > 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 3))
    p = symmetrize(conditional_affinities(x, perplexity=4.0).p)
    coords = rng.normal(size=(8, 2))
    grad = kl_gradient(p, coords)
    h = 1e-5
    for i in range(8):
        for j in range(2):
            bump = np.zeros_like(coords)
            bump[i, j] = h
            q_hi, _ = low_dim_similarities(coords + bump)
            q_lo, _ = low_dim_similarities(coords - bump)
            fd = (kl_divergence(p, q_hi) - kl_divergence(p, q_lo)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_pca_init_is_deterministic_and_tiny():
    matrix = gaussian_cloud(60, seed=4)
    a, fell_back = pca_init(matrix, seed=0)
    b, _ = pca_init(matrix, seed=0)
    assert np.array_equal(a, b)
    assert not fell_back
    assert a.shape == (60, 2)
    assert a.std() == pytest.approx(1e-4, rel=0.2)


def test_pca_init_rank_deficient_fallback():
    matrix = np.ones((10, 3)) * 2.5  # rank 0 after centering
    coords, fell_back = pca_init(matrix, seed=3)
    assert fell_back
    assert np.all(np.isfinite(coords))


def test_run_tsne_is_deterministic_and_traces_kl():
    values = gaussian_cloud(40, seed=7)
    config = TsneConfig(perplexity=10.0, n_iterations=400, seed=13,
                        momentum_switch_iter=100, exaggeration_until_iter=100)
    first = run_tsne(values, config)
    second = run_tsne(values, config)
    assert np.array_equal(first.coords, second.coords)
    assert len(first.kl_trace) == config.n_iterations // 50
    assert first.final_kl == first.kl_trace[-1][1]
    # the trace tracks the plain objective, so judge progress from the
    # point where exaggeration ends
    checkpoints = dict(first.kl_trace)
    assert first.final_kl < checkpoints[config.exaggeration_until_iter]
    assert all(v >= 0.0 and np.isfinite(v) for _, v in first.kl_trace)
    assert first.metadata["duplicates_jittered"] == 0


def test_run_tsne_jitters_exact_duplicates():
    values = gaussian_cloud(20, seed=8)
    values[5] = values[3]
    values[11] = values[3]
    config = TsneConfig(perplexity=6.0, n_iterations=60, seed=1,
                        momentum_switch_iter=30, exaggeration_until_iter=30)
    out = run_tsne(values, config)
    assert out.metadata["duplicates_jittered"] == 2
    assert np.all(np.isfinite(out.coords))


def test_tsne_config_validation():
    with pytest.raises(DataError):
        TsneConfig(perplexity=50.0).validate(n_points=50)
    with pytest.raises(DataError):
        TsneConfig(perplexity=5.0, n_iterations=0).validate(n_points=20)
    with pytest.raises(DataError):
        TsneConfig(perplexity=5.0, output_dims=3).validate(n_points=20)
    with pytest.raises(DataError):
        run_tsne(gaussian_cloud(2), TsneConfig(perplexity=1.0))


def test_embedding_round_trip(tmp_path, monkeypatch):
    """The embed stage writes row k of the coordinates under the id of
    features.csv's row k, every float exactly, and refuses coordinates
    with another row count than the ids before it writes anything."""
    data = str(tmp_path / "data.csv")
    write_records_csv(generate_records(n_per_cluster=4, seed=2), data)
    config = config_from_dict({"input": data, "out": str(tmp_path / "out"), "seed": 5,
                               "tsne": {"perplexity": 4.0, "n_iterations": 40,
                                        "momentum_switch_iter": 20, "exaggeration_until_iter": 20}})
    paths = artifact_paths(config.out)
    for stage in ("ingest", "embed"):
        run_stage(stage, config)
    ids, values, _ = _read_features(paths["features"])
    (read_ids,), coords = _read_table(paths, "embedding")
    assert len(ids) == 12 and read_ids == ids
    assert np.array_equal(coords, run_tsne(values, config.tsne_config()).coords)  # repr round-trip is exact
    meta = json.loads(open(paths["embedding_meta"]).read())
    assert meta["master_seed"] == 5 and meta["config"]["perplexity"] == 4.0

    written = {key: open(paths[key], "rb").read() for key in ("embedding", "embedding_meta")}

    def one_row_short(x, tsne_config):
        embedding = run_tsne(x, tsne_config)
        return dataclasses.replace(embedding, coords=embedding.coords[1:])

    monkeypatch.setattr("chirpmap.pipeline.run_tsne", one_row_short)
    with pytest.raises(ValueError, match="shorter"):
        run_stage("embed", config)
    assert {key: open(paths[key], "rb").read() for key in written} == written
