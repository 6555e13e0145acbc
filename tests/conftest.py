import os

import numpy as np
import pytest

from chirpmap.models.forest import ForestConfig, RandomForestModel
from chirpmap.models.tree import NodeTable


def make_blobs(centers, n_per, sd=1.0, seed=0):
    """Gaussian blobs around the given centers; labels follow center index."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(0.0, sd, size=(n_per, len(center))) + np.asarray(center))
        ys.append(np.full(n_per, label, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def forest_of(tables, task="classification", n_features=2, n_classes=None) -> RandomForestModel:
    """Hand-built node tables, each one tree in preorder from its node 0,
    joined end to end into one forest, child indices shifted to match."""
    sizes = [t.feature.size for t in tables]
    roots = np.cumsum(sizes) - sizes
    joined = {key: None if a is None else np.concatenate([vars(t)[key] for t in tables])
              for key, a in vars(tables[0]).items()}
    joined["right"] = np.where(joined["feature"] >= 0,
                               joined["right"] + np.repeat(roots, sizes), -1)
    if n_classes is None:
        n_classes = 2 if task == "classification" else 0
    return RandomForestModel(root=NodeTable(**joined), roots=roots,
                             config=ForestConfig(n_trees=len(tables), task=task),
                             n_features=n_features, n_classes=n_classes)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process running or unreaped, such
    as a t-SNE pass's helper (a leftover zombie is reaped here)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " + ("running" if pid == 0 else f"{pid} unreaped"))


@pytest.fixture
def two_blobs():
    return make_blobs([(-4.0, 0.0), (4.0, 0.0)], n_per=100, seed=3)
