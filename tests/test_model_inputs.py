"""Every model reads its inputs through one contract
(`chirpmap.models.inputs`): a training set that breaks it is a DataError
from every fit, and so are query points of another width from every
`predict`."""

import numpy as np
import pytest

from chirpmap.errors import DataError
from chirpmap.models import CLASSIFIER_KINDS, fit_classifier
from chirpmap.models.forest import ForestConfig, fit_random_forest, fit_tree

X = np.random.default_rng(3).normal(size=(20, 2))
Y = (X[:, 0] > 0).astype(np.int64)
BINARY = ("svm", "logistic_regression")

# (case, x, y, the kinds whose fit must refuse it)
MALFORMED = [
    ("no-rows", np.zeros((0, 2)), np.zeros(0, dtype=np.int64), CLASSIFIER_KINDS),
    ("labels-short", X, Y[:-1], CLASSIFIER_KINDS),
    ("labels-2d", X, Y[:, None], CLASSIFIER_KINDS),
    ("labels-two-columns", X, np.column_stack([Y, Y]), CLASSIFIER_KINDS),
    ("negative-label", X, np.where(Y > 0, 1, -1), CLASSIFIER_KINDS),
    ("fractional-label", X, np.where(Y > 0, 1.0, 0.5), CLASSIFIER_KINDS),
    ("nan-label", X, np.where(Y > 0, 1.0, np.nan), CLASSIFIER_KINDS),
    ("label-two", X, 2 * Y, BINARY),
]


@pytest.mark.parametrize(
    "kind, x, y",
    [pytest.param(kind, x, y, id=f"{kind}-{case}")
     for kind in CLASSIFIER_KINDS for case, x, y, kinds in MALFORMED if kind in kinds],
)
def test_malformed_training_set_is_data_error(kind, x, y):
    with pytest.raises(DataError):
        fit_classifier(kind, x, y, seed=1)


@pytest.mark.parametrize("shape", [(20, 2, 2), (20, 0)], ids=["three-axes", "no-outputs"])
@pytest.mark.parametrize("fit", [fit_tree, fit_random_forest], ids=["tree", "forest"])
def test_malformed_regression_target_is_data_error(fit, shape):
    with pytest.raises(DataError, match=r"shape \(n,\) or \(n, q\) with q >= 1"):
        fit(X, np.zeros(shape), ForestConfig(n_trees=3, task="regression"))


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_points_of_another_shape_are_data_error(kind):
    model = fit_classifier(kind, X, Y, seed=1)
    with pytest.raises(DataError, match="expected 2 features, got 3"):
        model.predict(np.zeros((4, 3)))
    with pytest.raises(DataError, match=r"expected 2 features, got \(4, 2, 1\)"):
        model.predict(np.zeros((4, 2, 1)))
    assert model.predict(X[0]).shape == (1,)  # one point as a 1-D array
