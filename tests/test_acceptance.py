"""Acceptance checklist.

Each test covers one numbered criterion and prints a single
`ACCEPTANCE <n> <PASS|FAIL> <label>` line (visible under `pytest -s` or
in captured output). Tolerances and time budgets are asserted, not
advisory.
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chirpmap.evaluation import (
    compute_metrics,
    confusion,
    holdout_split,
    stratified_kfold,
)
from chirpmap.ingest import apply_weights, standardize
from chirpmap.models import CLASSIFIER_KINDS, fit_classifier
from chirpmap.models.forest import ForestConfig, fit_random_forest, fit_tree
from chirpmap.models.svm import SvmConfig, _kernel_block, fit_svm, kkt_violation
from chirpmap.pipeline import config_from_dict, run_pipeline
from chirpmap.sensitivity import (
    shapley_from_subset_values,
    shapley_values,
    tree_subset_values,
)
from chirpmap.synth import generate_records, write_records_csv
from chirpmap.tsne import (
    TsneConfig,
    conditional_affinities,
    kl_divergence,
    kl_gradient,
    low_dim_similarities,
    run_tsne,
    symmetrize,
)
from tests.conftest import make_blobs


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} PASS  {label} [{elapsed:.2f}s]")


def test_criterion_01_gradient_against_finite_differences():
    with criterion(1, "embedding gradient matches central finite differences"):
        started = time.perf_counter()
        h = 1e-6
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(8, 3))
            p = symmetrize(conditional_affinities(x, perplexity=4.0).p)
            coords = rng.normal(size=(8, 2))
            grad = kl_gradient(p, coords)
            for i in range(8):
                for j in range(2):
                    bump = np.zeros_like(coords)
                    bump[i, j] = h
                    q_hi, _ = low_dim_similarities(coords + bump)
                    q_lo, _ = low_dim_similarities(coords - bump)
                    fd = (kl_divergence(p, q_hi) - kl_divergence(p, q_lo)) / (2 * h)
                    rel = abs(grad[i, j] - fd) / max(abs(fd), 1e-6)
                    assert rel <= 1e-5, (seed, i, j, rel)
        assert time.perf_counter() - started < 1.0


def test_criterion_02_perplexity_calibration():
    with criterion(2, "realized perplexity hits each target"):
        started = time.perf_counter()
        x = np.random.default_rng(42).normal(size=(50, 3))
        for target in (5.0, 15.0, 30.0):
            aff = conditional_affinities(x, perplexity=target)
            worst = float(np.max(np.abs(aff.realized_perplexity - target)))
            assert worst <= 1e-3, (target, worst)
        assert time.perf_counter() - started < 1.0


def _purity(coords: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    neigh = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return float((labels[neigh] == labels[:, None]).mean())


def test_criterion_03_blob_embedding_purity():
    with criterion(3, "well-separated blobs keep >=95% 5-NN purity, weighted >=90%"):
        started = time.perf_counter()
        # one center per axis, pairwise exactly 10 sd apart, so every
        # feature carries cluster signal and survives re-weighting
        c = 10.0 / math.sqrt(2.0)
        values, labels = make_blobs(
            [(c, 0.0, 0.0), (0.0, c, 0.0), (0.0, 0.0, c)], n_per=50, sd=1.0, seed=17
        )
        config = TsneConfig(perplexity=30.0, n_iterations=500, seed=3)

        base = run_tsne(values, config)
        assert _purity(base.coords, labels) >= 0.95

        std, _ = standardize(values)
        for weights in ((2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)):
            weighted = apply_weights(std, weights)
            out = run_tsne(weighted, config)
            assert _purity(out.coords, labels) >= 0.90, weights
        assert time.perf_counter() - started < 30.0


def test_criterion_04_classifier_sanity():
    with criterion(4, "all classifiers separate blobs and stay chance-level on noise"):
        started = time.perf_counter()
        x, y = make_blobs([(-4.0, 0.0), (4.0, 0.0)], n_per=100, seed=23)
        train, test = holdout_split(y, 0.3, seed=1)
        for kind in CLASSIFIER_KINDS:
            model = fit_classifier(kind, x[train], y[train], seed=7)
            accuracy = float((model.predict(x[test]) == y[test]).mean())
            assert accuracy >= 0.95, (kind, accuracy)

        rng = np.random.default_rng(99)
        chance: dict = {kind: [] for kind in CLASSIFIER_KINDS}
        for rep in range(10):
            noise = rng.permutation(y)
            train, test = holdout_split(noise, 0.3, seed=rep)
            for kind in CLASSIFIER_KINDS:
                model = fit_classifier(kind, x[train], noise[train], seed=rep)
                chance[kind].append(float((model.predict(x[test]) == noise[test]).mean()))
        for kind, values in chance.items():
            mean = float(np.mean(values))
            assert 0.40 <= mean <= 0.60, (kind, mean)
        assert time.perf_counter() - started < 60.0


def test_criterion_05_svm_dual_against_qp_oracle():
    with criterion(5, "SMO dual matches a quadratic-programming oracle"):
        from scipy.optimize import minimize

        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(20, 2))
            y = (x[:, 0] + 0.5 * rng.normal(size=20) > 0).astype(int)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            config = SvmConfig(c=1.0)
            model = fit_svm(x, y, config)
            assert kkt_violation(model) < config.tol

            ys = np.where(y > 0, 1.0, -1.0)
            q = (ys[:, None] * ys[None, :]) * _kernel_block(x, x, "rbf", model.gamma_value)
            result = minimize(
                lambda a: 0.5 * a @ q @ a - a.sum(),
                np.full(20, 0.5),
                jac=lambda a: q @ a - 1.0,
                bounds=[(0.0, 1.0)] * 20,
                constraints=[{"type": "eq", "fun": lambda a: a @ ys}],
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-12},
            )
            assert result.success
            oracle = -float(result.fun)
            assert abs(model.dual_objective - oracle) <= 1e-3, (seed, model.dual_objective, oracle)


def test_criterion_06_metrics_against_counting():
    with criterion(6, "metrics equal brute-force counting exactly"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, 2, size=n)
            y_pred = rng.integers(0, 2, size=n)
            cm = confusion(y_true, y_pred)
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
            tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
            assert cm == {"tp": tp, "fp": fp, "tn": tn, "fn": fn}
            metrics = compute_metrics(cm)
            assert metrics["accuracy"] == ((tp + tn) / n)
            assert metrics["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
            assert metrics["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
            p, r = metrics["precision"], metrics["recall"]
            assert metrics["f1"] == (2 * p * r / (p + r) if p + r else 0.0)


def test_criterion_07_stratification_properties():
    with criterion(7, "stratified folds partition and balance every configuration"):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            n = int(rng.integers(20, 200))
            k = int(rng.integers(2, 9))
            fraction = float(rng.uniform(0.1, 0.9))
            labels = (rng.random(n) < fraction).astype(int)
            if min(np.sum(labels == 0), np.sum(labels == 1)) < k:
                continue
            folds = stratified_kfold(labels, k, seed=checked)
            combined = np.sort(np.concatenate(folds))
            assert np.array_equal(combined, np.arange(n))
            for c in (0, 1):
                n_c = int(np.sum(labels == c))
                for fold in folds:
                    got = int(np.sum(labels[fold] == c))
                    assert abs(got - n_c / k) < 1.0 + 1e-9, (n, k, c, got)
            checked += 1


def test_criterion_08_attribution_axioms():
    with criterion(8, "attribution efficiency, null player, and exact enumeration"):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(200, 3))
        y = 2.0 * x[:, 0] - 0.5 * x[:, 1] * x[:, 2]
        forest = fit_random_forest(x, y, ForestConfig(n_trees=25, seed=5, task="regression"))
        att = shapley_values(forest, x)
        gap = np.abs(att.phi.sum(axis=1) + att.base - att.predictions)
        assert float(gap.max()) <= 1e-9

        # a never-used feature earns exactly zero
        x4 = np.hstack([x, np.full((200, 1), 3.3)])
        tree4 = fit_tree(x4, y, ForestConfig(n_trees=1, task="regression", max_depth=6))
        att4 = shapley_values(tree4, x4)
        assert np.all(att4.phi[:, 3] == 0.0)

        # single tree equals averaging marginal gains over all orderings
        tree = fit_tree(x, y, ForestConfig(n_trees=1, task="regression", max_depth=5))
        values = tree_subset_values(tree, x[:50])
        phi = shapley_from_subset_values(values, 3)
        for i in range(50):
            for j in range(3):
                terms = []
                for perm in itertools.permutations(range(3)):
                    before = 0
                    for f in perm:
                        if f == j:
                            break
                        before |= 1 << f
                    terms.append(values[i, before | (1 << j)] - values[i, before])
                assert phi[i, j] == math.fsum(terms) / 6.0, (i, j)


@pytest.fixture(scope="module")
def full_pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    data = os.path.join(root, "synth_data.csv")
    write_records_csv(generate_records(n_per_cluster=40, seed=12), data)
    common = {"input": data, "seed": 2024}
    started = time.perf_counter()
    run_pipeline(config_from_dict({**common, "out": os.path.join(root, "run1")}))
    elapsed = time.perf_counter() - started
    run_pipeline(config_from_dict({**common, "out": os.path.join(root, "run2")}))
    return root, elapsed


def _collect(run_dir: str, suffix: str) -> dict:
    out = {}
    for base, _, files in os.walk(run_dir):
        for name in files:
            if name.endswith(suffix):
                full = os.path.join(base, name)
                with open(full, "rb") as handle:
                    out[os.path.relpath(full, run_dir)] = handle.read()
    return out


def test_criterion_09_repeat_runs_are_byte_identical(full_pipeline_runs):
    with criterion(9, "same config and seed reproduce bytes"):
        root, _ = full_pipeline_runs
        run1, run2 = os.path.join(root, "run1"), os.path.join(root, "run2")
        jsons1, jsons2 = _collect(run1, ".json"), _collect(run2, ".json")
        svgs1, svgs2 = _collect(run1, ".svg"), _collect(run2, ".svg")
        assert jsons1 and svgs1
        assert jsons1 == jsons2
        assert svgs1 == svgs2


def test_criterion_10_end_to_end_artifacts(full_pipeline_runs):
    with criterion(10, "pipeline over synthetic data emits every artifact in budget"):
        root, elapsed = full_pipeline_runs
        out = os.path.join(root, "run1")
        for name in ("features.csv", "ingest_meta.json", "rejections.txt",
                     "embedding.csv", "embedding_meta.json", "eval_report.json",
                     "sensitivity.csv", "sensitivity_meta.json"):
            assert os.path.exists(os.path.join(out, name)), name
        figs = set(os.listdir(os.path.join(out, "figs")))
        expected = {"fig_bars_outcome.svg", "fig_bars_difficulty.svg",
                    "fig_embedding_outcome.svg", "fig_embedding_difficulty.svg"}
        for scenario in ("s1", "s2", "s3"):
            for short in ("rf", "svm", "logreg", "knn"):
                expected.add(f"fig_boundary_{scenario}_{short}.svg")
                assert os.path.exists(os.path.join(out, "models", f"{scenario}_{short}.json"))
            expected.add(f"fig_confusion_{scenario}.svg")
            expected.add(f"fig_metrics_{scenario}.svg")
        for feature in ("temporal_duration", "frequency_onset", "spectral_duration"):
            expected.add(f"fig_sensitivity_{feature}.svg")
        assert figs == expected
        report = json.loads(open(os.path.join(out, "eval_report.json")).read())
        assert set(report["scenarios"]) == {"s1", "s2", "s3"}
        assert elapsed < 300.0
