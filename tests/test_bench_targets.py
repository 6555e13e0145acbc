"""Every call the benchmark's tracer wraps still exists in the package.

`perfbench/tracer.py` swaps package callables for timing wrappers by
name and records a missing one as absent instead of failing, so a
renamed or moved function would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

import numpy as np

import chirpmap.models
import chirpmap.pipeline
import chirpmap.sensitivity

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    originals = (chirpmap.models.fit_random_forest, chirpmap.sensitivity.fit_random_forest,
                 chirpmap.pipeline.run_tsne)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.absent_spans == set()
        assert chirpmap.models.fit_random_forest is not originals[0]  # really wrapped
    finally:
        tracer.uninstall()
    assert (chirpmap.models.fit_random_forest, chirpmap.sensitivity.fit_random_forest,
            chirpmap.pipeline.run_tsne) == originals


def test_forest_node_counter_reads_the_fitted_trees():
    """The node counters read `model.trees`, each tree's `.root` and
    `count_leaves`; a fit under the tracer must yield them, not mark them absent."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        x = np.random.default_rng(0).normal(size=(30, 2))
        model = chirpmap.models.fit_random_forest(
            x, (x[:, 0] > 0).astype(np.int64), chirpmap.models.ForestConfig(n_trees=3))
    finally:
        tracer.uninstall()
    assert tracer.absent_counters == set()
    nodes = [span.info["models.rf.nodes"] for span in tracer.spans if span.name == "models.fit.rf"]
    assert nodes == [sum(tree.root.feature.size for tree in model.trees)]
