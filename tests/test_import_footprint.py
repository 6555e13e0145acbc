"""The pipeline loads no module that no stage needs.

`xml.sax.saxutils` pulls in the network stack (`urllib.request`,
`http.client`, `email`, `ssl`), and numpy >= 2 imports `numpy.ma` on the
first plain `np.unique` or `np.quantile`. Each costs import time and
resident memory in every short `chirpmap <stage>` process.
"""

import json
import os
import subprocess
import sys
import textwrap

FORBIDDEN = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "numpy.ma")

CHILD = textwrap.dedent("""
    import json, os, sys
    import numpy
    baseline = set(sys.modules)
    import chirpmap.cli
    from chirpmap.pipeline import config_from_dict, run_pipeline
    from chirpmap.synth import generate_records, write_records_csv
    root = sys.argv[1]
    data = os.path.join(root, "data.csv")
    write_records_csv(generate_records(n_per_cluster=10, seed=4), data)
    run_pipeline(config_from_dict({
        "input": data, "out": os.path.join(root, "out"), "seed": 7, "k_folds": 2,
        "tsne": {"perplexity": 5, "n_iterations": 100, "momentum_switch_iter": 50,
                 "exaggeration_until_iter": 50},
        "classifier_configs": {"rf": {"n_trees": 5}}, "sensitivity": {"n_trees": 5},
        "grid_resolution": 20}))
    print(json.dumps(sorted(set(sys.modules) - baseline)))
""")


def test_pipeline_run_loads_no_unused_heavy_module(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    added = json.loads(child.stdout.splitlines()[-1])
    assert os.path.exists(tmp_path / "out" / "figs")
    loaded = [m for m in added if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert loaded == []
