"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that an untraced run emits every end-to-end metric and a traced
run every per-layer metric that BENCHMARK.json names, each with its
declared unit; that an op whose input has every row rejected is counted
in ``failed`` and ``failed_frac`` while the run goes on; and that a
wrapped function or counter source the package no longer has is
reported as absent instead of failing the run. Takes about ten seconds.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

import run

TINY_CONFIG = {
    "tsne": {"perplexity": 10.0},
    "sensitivity": {"n_trees": 4},
    "classifier_configs": {"rf": {"n_trees": 5}, "logreg": {"max_iters": 300}},
    "grid_resolution": 20,
}


def tiny(workload):
    return dataclasses.replace(workload, n_per_cluster=20, config=TINY_CONFIG)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def final_line(record: dict) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(record)


def check_metrics(workload, spec: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run(tiny(workload), seed=7, seconds=0, trace=trace, import_s=0.0)
        check(record["failed"] == 0, f"{workload.name} trace={trace}: {record['ops']}")
        metrics = final_line(record)["metrics"]
        want = {m["name"]: m["unit"] for m in spec[section]}
        check(set(metrics) == set(want),
              f"{workload.name} {section}: missing {sorted(set(want) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(want))}")
        for name, unit in want.items():
            check(metrics[name]["unit"] == unit, f"{name}: unit {metrics[name]['unit']} != {unit}")
            check(isinstance(metrics[name]["value"], (int, float)), f"{name}: not a number")
        if not trace:
            stages = {f"{s}_s" for s in workload.stages}
            check(stages <= set(record["end_to_end"]), f"{workload.name}: stage times missing")
            check(record["end_to_end"]["failed_frac"][0] == 0.0, "failed_frac is not 0")
        print(f"selftest: {workload.name} trace={int(trace)}: {len(metrics)} metrics ok")


def check_failing_op(workload) -> None:
    """The second of three ops reads an input whose every row is rejected."""
    saved = {}

    def hook(bench, k):
        if k == 1:
            bad_dir = os.path.join(bench.work_dir, "bad")
            os.makedirs(bad_dir)
            csv_path = os.path.join(bad_dir, "records.csv")
            with open(csv_path, "w", encoding="utf-8") as handle:
                handle.write("id,temporal_duration,frequency_onset,spectral_duration,outcome,difficulty\n")
                handle.write("r0000,-1.0,2.0,3.0,S,1\nr0001,1.0,2.0,3.0,X,1\n")
            config_path = os.path.join(bad_dir, "config.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump({"input": csv_path}, handle)
            saved["config"], bench.config_path = bench.config_path, config_path
        elif k == 2:
            bench.config_path = saved["config"]

    small = tiny(workload)
    record = run.run(small, seed=3, seconds=0, trace=False, import_s=0.0, min_ops=3, bench_hook=hook)
    failures = [op["failure"] for op in record["ops"]]
    check(record["attempted"] == 3 and record["failed"] == 1, f"expected 1 of 3 ops failed: {failures}")
    check(failures[1] is not None and "zero valid rows" in failures[1], f"wrong failure: {failures[1]}")
    check(abs(record["end_to_end"]["failed_frac"][0] - 1 / 3) < 1e-12, "failed_frac is not 1/3")
    line = final_line(record)
    check(line["correct"] is False and line["failed"] == 1, f"final line: {line}")
    print("selftest: a failing op is counted and the run goes on")


def check_absent(workload) -> None:
    """A renamed function and a removed counter source are reported absent."""
    import chirpmap.models.tree as tree_module
    import tracer

    original_targets = tracer._targets
    saved_count_leaves = tree_module.count_leaves

    def renamed_targets(count_leaves):
        return [t for t in original_targets(count_leaves) if t[2] != "tsne.kl"] + [
            ("chirpmap.tsne", "kl_divergence_renamed", "tsne.kl", None)]

    tracer._targets = renamed_targets
    del tree_module.count_leaves
    try:
        record = run.run(tiny(workload), seed=5, seconds=0, trace=True, import_s=0.0)
    finally:
        tracer._targets = original_targets
        tree_module.count_leaves = saved_count_leaves
    check(record["failed"] == 0, f"ops failed: {record['ops']}")
    want = {"tsne.kl_s", "tsne.kl_calls", "models.rf.nodes", "sensitivity.regression_nodes"}
    check(set(record["absent"]) == want, f"absent: {record['absent']}")
    check(not want & set(record["per_layer"]), "absent metrics were still reported")
    print(f"selftest: absent sources reported: {', '.join(sorted(want))}")


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    spec = declared()
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in WORKLOADS.values():
        check_metrics(workload, spec)
    check_failing_op(WORKLOADS["pipeline_n120"])
    check_absent(WORKLOADS["pipeline_n120"])
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
