"""Every JSON artifact that render reads, mutated one place at a time.

Each case sets one key of the document, or the first or last element of
one list, at any depth, to one of 13 values, or deletes it; writes the
file; and calls the reader that render calls on it. The reader may accept
the file or reject it with one of the package's documented errors (exit
2, 1 or 3), never with any other exception. The cases are enumerated in
a fixed order, depth first, so the case list is the same on every run.
"""

import json
import os

import pytest

from chirpmap.artifacts import read_json
from chirpmap.errors import DataError, NumericError, UsageError
from chirpmap.evaluation import report_metrics
from chirpmap.models import CLASSIFIER_KINDS, load_model
from chirpmap.pipeline import (
    _read_combined,
    _read_embedding_aligned,
    artifact_paths,
    config_from_dict,
    run_stage,
)
from chirpmap.synth import generate_records, write_records_csv

VALUES = (None, "text", True, -1, 0, 1.5, 10**30, 1e308, [], {}, "NaN", float("nan"),
          float("inf"))
DELETE = "<deleted>"  # a sentinel: no case sets a value equal to it
SCENARIOS = ("s1", "s2", "s3")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The out directory of a 30-record run through explain."""
    root = tmp_path_factory.mktemp("mutations")
    data = str(root / "data.csv")
    write_records_csv(generate_records(n_per_cluster=10, seed=4), data)
    config = config_from_dict({
        "input": data, "out": str(root / "out"), "seed": 7, "k_folds": 2,
        "tsne": {"perplexity": 5, "n_iterations": 100, "momentum_switch_iter": 50,
                 "exaggeration_until_iter": 50},
        "classifier_configs": {"rf": {"n_trees": 3}}, "sensitivity": {"n_trees": 3}})
    for stage in ("ingest", "embed", "eval", "explain"):
        run_stage(stage, config)
    return config.out


def places(doc, path=()):
    """The path of every key of every object and of the first and last
    element of every list in doc, depth first, each before its children."""
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, len(doc) - 1}) if doc else []
    else:
        keys = []
    for key in keys:
        yield path + (key,)
        yield from places(doc[key], path + (key,))


def mutations(doc):
    """(path, value) for every case, in order; DELETE deletes the place."""
    return [(path, value) for path in places(doc) for value in (*VALUES, DELETE)]


def readers(out):
    """(file, reader of that file) for every JSON artifact render reads."""
    models = os.path.join(out, "models")
    paths = artifact_paths(out)
    ids = _read_embedding_aligned(paths)[0]
    report = os.path.join(out, "eval_report.json")
    pairs = [(os.path.join(models, f"s1_{short}.json"), load_model)
             for short in ("rf", "svm", "logreg", "knn")]
    pairs.append((report, lambda path: report_metrics(read_json(path), path, SCENARIOS,
                                                      CLASSIFIER_KINDS)))
    pairs.append((os.path.join(out, "sensitivity_meta.json"),
                  lambda path: _read_combined({**paths, "sensitivity_meta": path}, ids)))
    return pairs


def test_cases_are_enumerated_in_a_fixed_order():
    doc = {"b": [1, {"c": 2}, 3], "a": {}}
    assert list(places(doc)) == [("b",), ("b", 0), ("b", 2), ("a",)]
    assert len(mutations(doc)) == 4 * 14


def test_every_mutated_artifact_is_read_or_rejected_with_a_documented_error(run_dir):
    failures = []
    n_cases = 0
    for path, read in readers(run_dir):
        with open(path, encoding="utf-8") as handle:
            original = handle.read()
        read(path)  # the unmutated file reads
        doc = json.loads(original)
        for place, value in mutations(doc):
            mutated = json.loads(original)
            *parents, last = place
            holder = mutated
            for key in parents:
                holder = holder[key]
            if value == DELETE:
                del holder[last]
            else:
                holder[last] = value
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(mutated))
            n_cases += 1
            try:
                read(path)
            except (DataError, UsageError, NumericError):
                pass
            except Exception as exc:  # noqa: BLE001 - every other exception is the failure
                failures.append(f"{os.path.basename(path)} {place} = {value!r}: "
                                f"{type(exc).__name__}: {exc}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original)
    assert n_cases > 1000
    assert failures == []
