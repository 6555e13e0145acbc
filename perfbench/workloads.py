"""Workloads, set-up, operations and per-op checks of the chirpmap benchmark.

An op runs a fixed list of stages through ``chirpmap.pipeline.run_stage``,
the entry point the ``chirpmap <stage>`` subcommands use, into a fresh
output directory. Each op's output is checked before it is deleted: the
stages raised nothing and left no FAILED marker, every documented artifact
of those stages exists, the artifact set hashes to the same digest as the
run's first op, and the results clear two quality floors.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import time
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass, field

import numpy as np

from chirpmap.pipeline import config_from_dict, load_config_file, run_stage
from chirpmap.synth import generate_records, write_records_csv

N_CLUSTERS = 3
# The cohort of ROADMAP.md's baseline table. The workload seed derives the
# master seed only: with a cohort drawn per seed, the logistic fits' total
# iteration count, and with it eval's wall time, varied threefold from seed
# to seed at N=120, past any bound a benchmark may set.
SYNTH_SEED = 12
SCENARIOS = ("s1", "s2", "s3")
CLASSIFIERS = ("rf", "svm", "logreg", "knn")
FEATURES = ("temporal_duration", "frequency_onset", "spectral_duration")
PURITY_NEIGHBOURS = 10
PURITY_FLOOR = 0.9
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why it was chosen."""

    name: str
    n_per_cluster: int
    stages: tuple[str, ...]  # run by every op, in this order
    primed: tuple[str, ...] = ()  # run in set-up; each op starts from a copy of their artifacts
    config: dict = field(default_factory=dict)  # program config beyond input, out and seed

    @property
    def n_records(self) -> int:
        return N_CLUSTERS * self.n_per_cluster


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline_n120",
            n_per_cluster=40,
            stages=("ingest", "embed", "eval", "explain", "render"),
        ),
        Workload(
            "embed_eval_n900",
            n_per_cluster=300,
            stages=("ingest", "embed", "eval"),
        ),
        Workload(
            "classify_n450",
            n_per_cluster=150,
            stages=("eval", "render"),
            primed=("ingest", "embed", "explain"),
            # half the embed iterations and a tenth of the explain trees keep
            # each set-up near 5 s; eval and render, the timed stages, keep
            # every default
            config={"tsne": {"n_iterations": 500}, "sensitivity": {"n_trees": 10}},
        ),
    )
}


def master_seed_for(seed: int) -> int:
    """The pipeline master seed for a workload seed: 32 bits of a SHA-256."""
    digest = hashlib.sha256(f"perfbench:{seed}:master".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def expected_artifacts(stages) -> list[str]:
    """Artifacts each stage documents, as paths relative to the output directory."""
    names = {
        "ingest": ["features.csv", "ingest_meta.json", "rejections.txt"],
        "embed": ["embedding.csv", "embedding_meta.json"],
        "eval": ["eval_report.json"]
        + [f"models/{s}_{k}.json" for s in SCENARIOS for k in CLASSIFIERS],
        "explain": ["sensitivity.csv", "sensitivity_meta.json"],
        "render": [
            f"figs/{name}.svg"
            for name in ["fig_bars_outcome", "fig_bars_difficulty",
                         "fig_embedding_outcome", "fig_embedding_difficulty"]
            + [f"fig_boundary_{s}_{k}" for s in SCENARIOS for k in CLASSIFIERS]
            + [f"fig_{kind}_{s}" for kind in ("confusion", "metrics") for s in SCENARIOS]
            + [f"fig_sensitivity_{f}" for f in FEATURES]
        ],
    }
    return [path for stage in stages for path in names[stage]]


def artifact_digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                data = handle.read()
            h.update(os.path.relpath(path, out_dir).encode("utf-8") + b"\0")
            h.update(len(data).to_bytes(8, "big") + data)
            total += len(data)
    return h.hexdigest(), total


def neighbour_purity(out_dir: str, n_per_cluster: int) -> float:
    """Mean share of each point's nearest embedding neighbours from its own cluster.

    The synthetic ids r0000... run cluster by cluster, so the cluster of
    a record is its index divided by the cluster size.
    """
    with open(os.path.join(out_dir, "embedding.csv"), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    cluster = np.array([int(r[0][1:]) // n_per_cluster for r in rows])
    y = np.array([[float(r[1]), float(r[2])] for r in rows])
    d2 = np.sum((y[:, None, :] - y[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    near = np.argpartition(d2, PURITY_NEIGHBOURS, axis=1)[:, :PURITY_NEIGHBOURS]
    return float(np.mean(cluster[near] == cluster[:, None]))


def below_chance_s1(out_dir: str) -> list[str]:
    """Classifiers whose s1 hold-out accuracy does not beat the majority class."""
    with open(os.path.join(out_dir, "eval_report.json"), encoding="utf-8") as handle:
        s1 = json.load(handle)["scenarios"]["s1"]
    share = s1["class_balance"]["positive_fraction"]
    chance = max(share, 1.0 - share)
    return [kind for kind, entry in sorted(s1["classifiers"].items())
            if not entry["holdout"]["accuracy"] > chance]


@dataclass
class OpResult:
    op_s: float  # reference-clock seconds, as every stage_s
    wall_s: float
    stage_s: dict
    traced: bool
    failure: str | None = None
    digest: str | None = None
    artifact_bytes: int = 0
    fallback_rows: int | None = None


class Bench:
    """Set-up and ops of one workload under one seed, inside ``work_dir``,
    timed on ``clock`` (a ``refclock.RefClock``) and on wall time."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, clock,
                 master_seed: int | None = None):
        self.workload = workload
        self.clock = clock
        self.work_dir = work_dir
        self.master_seed = master_seed_for(seed) if master_seed is None else master_seed
        self.config_path: str | None = None
        self.primed_dir: str | None = None
        self.reference: str | None = None  # digest of the run's first checked op

    def _config(self, out_dir: str):
        doc = load_config_file(self.config_path)
        doc["out"] = out_dir
        return config_from_dict(doc)

    def setup_once(self, rep: int) -> tuple[float, float]:
        """Write the input CSV and config and build the primed artifacts
        into a fresh directory, which the ops then use; its reference and
        wall time."""
        start, wall = self.clock.now(), time.perf_counter()
        setup_dir = os.path.join(self.work_dir, f"setup{rep}")
        os.makedirs(setup_dir)
        csv_path = os.path.join(setup_dir, "records.csv")
        records = generate_records(self.workload.n_per_cluster, N_CLUSTERS, seed=SYNTH_SEED,
                                   label_model="cluster")
        write_records_csv(records, csv_path)
        config_path = os.path.join(setup_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump({**self.workload.config, "input": csv_path, "seed": self.master_seed}, handle)
        previous = os.path.dirname(self.config_path) if self.config_path else None
        self.config_path = config_path
        if self.workload.primed:
            self.primed_dir = os.path.join(setup_dir, "primed")
            config = self._config(self.primed_dir)
            with redirect_stderr(io.StringIO()):
                for stage in self.workload.primed:
                    run_stage(stage, config)
        elapsed = self.clock.now() - start, time.perf_counter() - wall
        if previous:
            shutil.rmtree(previous)
        return elapsed

    def run_op(self, k: int, tracer=None) -> OpResult:
        """Op ``k``, traced if a tracer is given; a failing op is recorded
        in the result, never raised."""
        out_dir = os.path.join(self.work_dir, f"op{k}")
        if self.primed_dir is not None:
            shutil.copytree(self.primed_dir, out_dir)
        stage_s: dict[str, float] = {}
        failure = None
        install = tracer.installed(k) if tracer is not None else nullcontext()
        start, wall = self.clock.now(), time.perf_counter()
        try:
            config = self._config(out_dir)
            with install, redirect_stderr(io.StringIO()):
                for stage in self.workload.stages:
                    span = tracer.span(f"pipeline.{stage}") if tracer is not None else nullcontext()
                    t0 = self.clock.now()
                    with span:
                        run_stage(stage, config)
                    stage_s[stage] = self.clock.now() - t0
        except Exception as exc:  # an op that fails is counted, and the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        result = OpResult(self.clock.now() - start, time.perf_counter() - wall, stage_s,
                          tracer is not None, failure)
        if result.failure is None:
            self._check(result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _check(self, result: OpResult, out_dir: str) -> None:
        missing = [p for p in expected_artifacts(self.workload.stages)
                   if not os.path.isfile(os.path.join(out_dir, p))]
        problems = []
        if os.path.exists(os.path.join(out_dir, "FAILED")):
            problems.append("FAILED marker left")
        if missing:
            problems.append(f"missing {len(missing)} artifacts, e.g. {missing[0]}")
        result.digest, result.artifact_bytes = artifact_digest(out_dir)
        if self.reference is None:
            self.reference = result.digest
        elif result.digest != self.reference:
            problems.append("artifact digest differs from the run's first op")
        if not missing and "embed" in self.workload.stages:
            purity = neighbour_purity(out_dir, self.workload.n_per_cluster)
            if purity < PURITY_FLOOR:
                problems.append(f"embedding neighbour purity {purity:.3f} < {PURITY_FLOOR}")
            with open(os.path.join(out_dir, "embedding_meta.json"), encoding="utf-8") as handle:
                rows = json.load(handle).get("perplexity_fallback_rows")
            result.fallback_rows = None if rows is None else len(rows)
        if not missing and "eval" in self.workload.stages:
            weak = below_chance_s1(out_dir)
            if weak:
                problems.append(f"s1 hold-out accuracy at or below chance: {', '.join(weak)}")
        if problems:
            result.failure = "; ".join(problems)
