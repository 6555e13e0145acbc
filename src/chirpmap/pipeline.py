"""Stage orchestration over disk artifacts.

Each stage reads its inputs from the output directory and writes its
artifacts back there, so running stages one by one produces byte-for-
byte the same files as the single-shot pipeline. Every artifact embeds
the config hash and master seed. A failing stage records itself and its
cause in a FAILED marker next to whatever partial outputs exist, and a
stage that reads its outputs, directly or through other stages, refuses
to run while the entry stands (`run_stage`).

`STAGES` is the one list of the stages: each entry declares, in pipeline
order, the stage's function, its CLI help line, the artifacts it reads,
and the files and directories it writes. The artifact paths, the
missing-upstream messages, `run_stage`, `run_pipeline` and the CLI's
stage subcommands all read it.

The stages own the table formats: only this module reads and writes the
CSV tables and their JSON sidecars; `tsne` and `sensitivity` compute on
arrays, and a features.csv row is an `ingest.ChirpRecord`. Embed and
explain check a table and its sidecar before writing either
(`_write_table`), and write the sidecar last; eval writes its report
after its models. The embedding reader refuses a window render cannot draw.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from typing import get_type_hints

import numpy as np

from .artifacts import (build, fits, json_text, json_value, make_dir, read_csv, read_json,
                        read_text, write_csv, write_json, write_text)
from .errors import DataError, UsageError
from .evaluation import (
    SCENARIO_ORDER,
    SCENARIOS,
    encode_scenario,
    run_all_scenarios,
    report_metrics,
)
from .ingest import (
    CANONICAL_COLUMNS,
    FEATURE_NAMES,
    LABEL_LEVELS,
    ChirpRecord,
    apply_weights,
    class_distribution,
    load_records,
    mapped_columns,
    records_to_matrix,
    standardize,
    subsample_records,
)
from .models import (
    CLASSIFIER_KINDS,
    CONFIG_TYPES,
    SHORT_KIND_NAMES,
    load_model,
    save_model,
)
from .render import (
    padded_window,
    render_bars,
    render_boundary,
    render_confusion,
    render_labeled_embedding,
    render_metric_bars,
    render_sensitivity,
)
from .seeding import derive_seed
from .sensitivity import (
    SensitivityConfig,
    build_sensitivity_map,
    fit_coordinate_regressors,
    sensitivity_summary,
)
from .tsne import TsneConfig, run_tsne

LONG_KIND_NAMES = {v: k for k, v in SHORT_KIND_NAMES.items()}

# fields of a section's dataclass that the pipeline sets, not the config: each
# stage's seed derives from the master seed, eval's forests classify, and
# t-SNE embeds in two dimensions
_SET_BY_PIPELINE = ("seed", "task", "output_dims")

# each table after features.csv, by artifact key: its text columns, then its number columns
_TABLES = {"embedding": (("id",), ("tsne_x", "tsne_y")),
           "sensitivity": (("id", "feature"), ("phi_x", "phi_y", "combined"))}


@dataclass(frozen=True)
class PipelineConfig:
    """The run config. The sections `tsne`, `classifier_configs` (by kind)
    and `sensitivity` hold the overrides as given, which the hash covers;
    each section's dataclass supplies its keys, types and defaults."""

    input: str | None = None
    out: str = "out"
    schema: dict[str, str] | None = None
    delimiter: str = ","
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    subsample: int | None = None
    tsne: dict = field(default_factory=dict)
    scenarios: tuple[str, ...] = SCENARIO_ORDER
    classifiers: tuple[str, ...] = CLASSIFIER_KINDS
    k_folds: int = 5
    holdout_fraction: float = 0.3
    classifier_configs: dict = field(default_factory=dict)
    sensitivity: dict = field(default_factory=dict)
    grid_resolution: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.subsample is not None and self.subsample < 1:
            raise UsageError("subsample must be a positive integer")
        if self.k_folds < 2:
            raise UsageError("k_folds must be at least 2")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise UsageError("holdout_fraction must be in (0, 1)")
        if self.grid_resolution < 2:
            raise UsageError("grid_resolution must be at least 2")
        if len(self.delimiter) != 1:
            raise UsageError("delimiter must be a single character")
        if any(w < 0 for w in self.weights):
            raise UsageError(f"feature weights must be nonnegative, got {self.weights}")
        if not any(w > 0 for w in self.weights):
            raise UsageError("at least one feature weight must be strictly positive")

    def tsne_config(self) -> TsneConfig:
        return build(TsneConfig, vars(self), ("tsne",), "config", _SET_BY_PIPELINE,
                     seed=derive_seed(self.seed, "embed"))

    def sensitivity_config(self) -> SensitivityConfig:
        return build(SensitivityConfig, vars(self), ("sensitivity",), "config", _SET_BY_PIPELINE,
                     seed=derive_seed(self.seed, "explain"))

    def classifier_config(self, kind: str):
        """Eval's config for one kind; `fit_classifier` seeds each forest."""
        doc = {"classifier_configs": {kind: self.classifier_configs.get(kind, {})}}
        return build(CONFIG_TYPES[kind], doc, ("classifier_configs", kind), "config",
                     _SET_BY_PIPELINE)

    def hash(self) -> str:
        """Identity of everything semantic; file locations excluded."""
        doc = asdict(self)
        del doc["input"], doc["out"]
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _normalize_weights(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not all(fits(w, float) for w in value):
        raise UsageError(f"weights must be three finite numbers, got {value!r}")
    if len(value) != 3:
        raise UsageError(f"weights must have exactly 3 entries, got {len(value)}")
    return tuple(float(w) for w in value)


def _normalize_selection(value, what: str, every: tuple[str, ...], spellings: dict) -> tuple[str, ...]:
    """The `what`s (scenarios or classifiers) a run covers: null or "all"
    is `every` one, a string one, a list those it names. `spellings` maps
    each accepted name, in lower case, to the one the run uses. An empty
    list leaves nothing to run, and a name listed twice would run twice
    and overwrite its own artifacts; both are UsageErrors."""
    if value in (None, "all"):
        return every
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{what}s must be a name, a list of names or all, got {value!r}")
    if not value:
        raise UsageError(f"{what}s must name at least one {what}")
    names = []
    for v in value:
        name = spellings.get(str(v).lower())
        if name is None:
            raise UsageError(f"unknown {what} {v!r}; expected {', '.join(spellings)}, or all")
        if name in names:
            raise UsageError(f"{what}s lists {name!r} twice")
        names.append(name)
    return tuple(names)


def _normalize_scenarios(value) -> tuple[str, ...]:
    return _normalize_selection(value, "scenario", SCENARIO_ORDER, {k: k for k in SCENARIO_ORDER})


def _normalize_classifiers(value) -> tuple[str, ...]:
    spellings = {**SHORT_KIND_NAMES, **{kind: kind for kind in CLASSIFIER_KINDS}}
    return _normalize_selection(value, "classifier", CLASSIFIER_KINDS, spellings)


def _normalize_classifier_configs(value) -> dict:
    """The per-kind overrides, keyed by long kind names."""
    if not isinstance(value, dict):
        raise UsageError(f"classifier_configs must be an object, got {value!r}")
    configs = {}
    for raw_kind, overrides in value.items():
        kind = SHORT_KIND_NAMES.get(raw_kind, raw_kind)
        if kind not in CLASSIFIER_KINDS:
            raise UsageError(f"unknown classifier in classifier_configs: {raw_kind!r}")
        configs[kind] = overrides
    return configs


_NORMALIZERS = {
    "weights": _normalize_weights,
    "scenarios": _normalize_scenarios,
    "classifiers": _normalize_classifiers,
    "classifier_configs": _normalize_classifier_configs,
}


def config_from_dict(doc: dict) -> PipelineConfig:
    """The run config from its JSON object; a key, a value type or a
    value that the config dataclasses reject is a UsageError."""
    values = copy.deepcopy(doc)
    for key, normalize in _NORMALIZERS.items():
        if key in values:
            values[key] = normalize(values[key])
    try:
        config = build(PipelineConfig, values, (), "config")
        mapped_columns(config.schema)
        config.tsne_config()
        config.sensitivity_config()
        for kind in config.classifier_configs:
            config.classifier_config(kind)
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    return config


def load_config_file(path: str) -> dict:
    try:
        return read_json(path)
    except DataError as exc:
        raise UsageError(f"bad config file: {exc}") from exc


def artifact_paths(out_dir: str) -> dict:
    """Artifact key -> path under `out_dir`, for every file and directory
    `STAGES` declares, and the FAILED marker."""
    paths = {key: os.path.join(out_dir, name) for key, (name, _, _) in _ARTIFACTS.items()}
    return {**paths, "failed": os.path.join(out_dir, "FAILED")}


def _missing(key: str, path: str = "") -> str:
    """The DataError message for the absent upstream artifact `key`, or
    for the absent file `path` in the directory `key`."""
    _, label, stage = _ARTIFACTS[key]
    return f"missing {label} artifact{f' {path}' if path else ''} (run the {stage} stage first)"


def _model_path(paths: dict, scenario: str, kind: str) -> str:
    """models/<scenario>_<short kind>.json, the file of one fitted model."""
    return os.path.join(paths["models_dir"], f"{scenario}_{LONG_KIND_NAMES[kind]}.json")


def _log(message: str) -> None:
    print(f"[chirpmap] {message}", file=sys.stderr)


def _provenance(config: PipelineConfig) -> dict:
    return {"config": config.hash(), "seed": config.seed}


def _meta_provenance(config: PipelineConfig) -> dict:
    """The provenance keys of every stage's JSON metadata."""
    return {"config_hash": config.hash(), "master_seed": config.seed}


def stage_ingest(config: PipelineConfig) -> None:
    """Load, validate, sort by id, optionally subsample, standardize, and
    weight; the records keep the ids, and the feature table is the array
    beside them. Sorting by id (code-point order) makes the run a function
    of the records, whatever their input order."""
    if not config.input:
        raise UsageError("ingest needs an input file (--input or config 'input')")
    paths = artifact_paths(config.out)

    records, report = load_records(config.input, schema=config.schema, delimiter=config.delimiter)
    n_loaded = len(records)
    records.sort(key=lambda r: r.id)
    if config.subsample is not None:
        records = subsample_records(records, config.subsample, derive_seed(config.seed, "subsample"))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by column
        values, scaling = standardize(records_to_matrix(records))
        values = apply_weights(values, config.weights)
    for name, column, mean_sd in zip(FEATURE_NAMES, values.T, scaling):
        if not (np.isfinite(column).all() and np.isfinite(mean_sd).all()):
            raise DataError(f"{name} overflows the float range when standardized and weighted")

    write_csv(paths["features"], CANONICAL_COLUMNS,
              (r._replace(**dict(zip(FEATURE_NAMES, row))) for r, row in zip(records, values.tolist())))
    write_text(paths["rejections"], f"# config={config.hash()} seed={config.seed}\n" + report.to_text())
    meta = {
        **_meta_provenance(config),
        "input_basename": os.path.basename(config.input),
        "n_input": report.n_input,
        "n_rejected": report.n_rejected,
        "n_accepted": report.n_accepted,
        "n_after_subsample": len(records) if config.subsample is not None else None,
        "scaling": scaling,
        "weights": list(config.weights),
        "distribution": class_distribution(records),
    }
    write_json(paths["ingest_meta"], meta)
    kept = f", {len(records)} kept after subsampling" if len(records) != n_loaded else ""
    _log(f"ingest: {report.n_accepted}/{report.n_input} rows accepted{kept}")


def _read_features(path: str) -> tuple[list[str], np.ndarray, list[ChirpRecord]]:
    """features.csv back into (ids, feature table, records); every id must
    be unique and every label one that ingest accepts."""
    table = read_csv(path, CANONICAL_COLUMNS, tuple(get_type_hints(ChirpRecord).values()),
                     _missing("features"))
    records = [ChirpRecord(*row) for row in table]
    first_line: dict[str, int] = {}
    for line, record in enumerate(records, start=2):
        first = first_line.setdefault(record.id, line)
        if first != line:
            raise DataError(f"{path} line {line}: duplicate id {record.id!r} (first at line {first})")
        for column, levels in LABEL_LEVELS.items():
            if (value := getattr(record, column)) not in levels:
                raise DataError(f"{path} line {line}, column {column!r}: {value!r} is not one of "
                                f"{', '.join(map(str, levels))}")
    return [r.id for r in records], np.array([row[1:4] for row in table], dtype=np.float64), records


def _write_table(paths: dict, key: str, text: list[tuple], numbers: np.ndarray, meta: dict) -> None:
    """Write table `key`, row k holding the cells text[k] and then the
    reprs of numbers[k], and then its sidecar `key`_meta. Both are checked
    before either is written, so a refused value leaves the old pair."""
    path, meta_path = paths[key], paths[f"{key}_meta"]
    text_columns, number_columns = _TABLES[key]
    meta_text = json_text(meta_path, meta)
    if not np.isfinite(numbers).all():
        row, column = np.argwhere(~np.isfinite(numbers))[0]
        raise DataError(f"cannot write {path}: line {row + 2}, column {number_columns[column]!r} is not finite")
    rows = ([*cells, *map(repr, values)] for cells, values in zip(text, numbers.tolist(), strict=True))
    write_csv(path, text_columns + number_columns, rows)
    write_text(meta_path, meta_text)


def _read_table(paths: dict, key: str) -> tuple[list[list[str]], np.ndarray]:
    """Table `key`'s text columns, each a list, and its numbers, an array row per line."""
    text_columns, number_columns = _TABLES[key]
    k = len(text_columns)
    table = read_csv(paths[key], text_columns + number_columns,
                     (str,) * k + (float,) * len(number_columns), _missing(key))
    return [[row[j] for row in table] for j in range(k)], np.array([row[k:] for row in table])


def stage_embed(config: PipelineConfig) -> None:
    paths = artifact_paths(config.out)
    ids, values, _ = _read_features(paths["features"])
    tsne_config = config.tsne_config()
    embedding = run_tsne(values, tsne_config)
    meta = {**_meta_provenance(config), "config": asdict(tsne_config), "final_kl": embedding.final_kl,
            "kl_trace": embedding.kl_trace, **embedding.metadata}
    _write_table(paths, "embedding", [(rec_id,) for rec_id in ids], embedding.coords, meta)
    _log(f"embed: {len(ids)} points, final KL {embedding.final_kl:.4f}")


def _read_embedding_aligned(paths: dict) -> tuple[list[str], np.ndarray, np.ndarray, list[ChirpRecord]]:
    """`_read_features` and embedding.csv's coordinates, row k of each for one
    record; a window render cannot draw is refused before eval or explain fit."""
    ids, values, records = _read_features(paths["features"])
    (emb_ids,), coords = _read_table(paths, "embedding")
    if emb_ids != ids:
        raise DataError(f"embedding rows do not match {os.path.basename(paths['features'])} rows")
    try:
        padded_window(coords)
    except DataError as exc:
        raise DataError(f"{paths['embedding']}: {exc}") from exc
    return ids, values, coords, records


def stage_eval(config: PipelineConfig) -> None:
    paths = artifact_paths(config.out)
    _, _, coords, records = _read_embedding_aligned(paths)
    classifier_configs = {kind: config.classifier_config(kind) for kind in config.classifiers}
    report, models = run_all_scenarios(
        coords, records, master_seed=config.seed, scenario_keys=config.scenarios,
        classifier_kinds=config.classifiers, k_folds=config.k_folds,
        holdout_fraction=config.holdout_fraction, classifier_configs=classifier_configs)
    report["config_hash"] = config.hash()
    report["classifier_configs"] = {kind: asdict(c) for kind, c in classifier_configs.items()}
    report_text = json_text(paths["eval_report"], report)
    make_dir(paths["models_dir"])
    for (scenario, kind), model in models.items():
        save_model(model, _model_path(paths, scenario, kind), extra={"provenance": _provenance(config)})
    write_text(paths["eval_report"], report_text)
    _log(f"eval: {len(config.scenarios)} scenarios x {len(config.classifiers)} classifiers, "
         f"{config.k_folds}-fold CV + {config.holdout_fraction:.0%} hold-out")


def stage_explain(config: PipelineConfig) -> None:
    paths = artifact_paths(config.out)
    ids, values, coords, _ = _read_embedding_aligned(paths)
    sens_config = config.sensitivity_config()
    regressors = fit_coordinate_regressors(values, coords, sens_config)
    smap = build_sensitivity_map(regressors, values, coords, sens_config.combination)
    meta = {**_meta_provenance(config), "base_x": smap.base_x, "base_y": smap.base_y,
            "combination": sens_config.combination, "r2_x": smap.r2_x, "r2_y": smap.r2_y,
            "feature_names": list(FEATURE_NAMES), "n_records": len(ids),
            "summary": sensitivity_summary(smap)}
    text = [(rec_id, name) for rec_id in ids for name in FEATURE_NAMES]
    numbers = np.stack((smap.phi_x, smap.phi_y, smap.combined), axis=-1).reshape(-1, 3)
    _write_table(paths, "sensitivity", text, numbers, meta)
    _log(f"explain: R^2 x={smap.r2_x:.3f} y={smap.r2_y:.3f}, {len(ids)} records attributed")


def _read_combined(paths: dict, ids: list[str]) -> np.ndarray:
    """sensitivity.csv's combined attributions, row i for ids[i] and a
    column per feature. The sidecar must name ``FEATURE_NAMES`` and hold
    the bases, rule and R^2, and the rows come as explain writes them:
    each id in turn, with the features in order."""
    meta_path = paths["sensitivity_meta"]
    meta = read_json(meta_path, _missing("sensitivity"))
    names = json_value(meta, ("feature_names",), meta_path, list[str])
    if tuple(names) != FEATURE_NAMES:
        raise DataError(f"{meta_path} has feature_names = {names!r}, not {list(FEATURE_NAMES)!r}")
    for key, hint in (("base_x", float), ("base_y", float), ("combination", str),
                      ("r2_x", float | None), ("r2_y", float | None)):
        json_value(meta, (key,), meta_path, hint)
    (table_ids, features), numbers = _read_table(paths, "sensitivity")
    want_ids = [rec_id for rec_id in ids for _ in FEATURE_NAMES]
    want_features = list(FEATURE_NAMES) * len(ids)
    if table_ids != want_ids or features != want_features:
        rows = enumerate(zip_longest(zip(table_ids, features), zip(want_ids, want_features)), start=2)
        line, pair = next((line, pair) for line, pair in rows if pair[0] != pair[1])
        found, want = (f"record {p[0]!r} feature {p[1]!r}" if p else "the end of the table" for p in pair)
        raise DataError(f"{paths['sensitivity']} line {line} holds {found}, not {want}")
    return numbers[:, 2].reshape(len(ids), len(FEATURE_NAMES))


def stage_render(config: PipelineConfig) -> None:
    paths = artifact_paths(config.out)
    ids, _, coords, records = _read_embedding_aligned(paths)
    report = read_json(paths["eval_report"], _missing("eval_report"))
    combined = _read_combined(paths, ids)
    metrics = report_metrics(report, paths["eval_report"], config.scenarios, config.classifiers)
    prov = _provenance(config)

    figures = []  # (file name, svg), written in one loop once every figure is drawn
    dist = class_distribution(records)
    for name in ("outcome", "difficulty"):
        figures.append((f"fig_bars_{name}.svg",
                        render_bars(dist[name], f"{name.title()} distribution", prov)))
    for name in ("outcome", "difficulty"):
        figures.append((f"fig_embedding_{name}.svg", render_labeled_embedding(
            coords, [getattr(r, name) for r in records], f"Embedding by {name}", prov)))
    for scenario in config.scenarios:
        labels, _ = encode_scenario(records, SCENARIOS[scenario])
        for kind in config.classifiers:
            short = LONG_KIND_NAMES[kind]
            model_path = _model_path(paths, scenario, kind)
            model = load_model(model_path, _missing("models_dir", model_path))
            figures.append((f"fig_boundary_{scenario}_{short}.svg", render_boundary(
                model, coords, labels, f"{scenario} decision regions ({short})",
                config.grid_resolution, prov)))
        figures.append((f"fig_confusion_{scenario}.svg", render_confusion(
            {LONG_KIND_NAMES[kind]: metrics[scenario, kind][0] for kind in config.classifiers},
            f"{scenario} hold-out confusion", prov)))
        figures.append((f"fig_metrics_{scenario}.svg", render_metric_bars(
            {LONG_KIND_NAMES[kind]: metrics[scenario, kind][1] for kind in config.classifiers},
            f"{scenario}: CV accuracy and hold-out precision/recall/F1", prov)))
    for j, feature in enumerate(FEATURE_NAMES):
        figures.append((f"fig_sensitivity_{feature}.svg",
                        render_sensitivity(coords, combined[:, j], feature, prov)))

    make_dir(paths["figs_dir"])
    for name, svg in figures:
        write_text(os.path.join(paths["figs_dir"], name), svg)
    _log(f"render: {len(figures)} figures written to {paths['figs_dir']}")


@dataclass(frozen=True)
class Stage:
    """One stage: `reads` names the artifact keys it reads; `files` maps
    each artifact key it writes to the file's name and the label of its
    missing-artifact message (None where no stage reads it); `dirs` does
    the same for directories of files named from the config."""

    name: str
    run: Callable[[PipelineConfig], None]
    help: str
    reads: tuple[str, ...] = ()
    files: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    dirs: dict[str, tuple[str, str | None]] = field(default_factory=dict)


STAGES = (
    Stage("ingest", stage_ingest, "validate, standardize, and weight the input features",
          files={"features": ("features.csv", "features"), "ingest_meta": ("ingest_meta.json", None),
                 "rejections": ("rejections.txt", None)}),
    Stage("embed", stage_embed, "project weighted features to 2-D", reads=("features",),
          files={"embedding": ("embedding.csv", "embedding"),
                 "embedding_meta": ("embedding_meta.json", None)}),
    Stage("eval", stage_eval, "cross-validate and hold-out test the classifiers",
          reads=("features", "embedding"),
          files={"eval_report": ("eval_report.json", "evaluation")},
          dirs={"models_dir": ("models", "model")}),
    Stage("explain", stage_explain, "compute per-record feature attributions",
          reads=("features", "embedding"),
          files={"sensitivity": ("sensitivity.csv", "sensitivity"),
                 "sensitivity_meta": ("sensitivity_meta.json", None)}),
    Stage("render", stage_render, "draw all figures as SVG",
          reads=("features", "embedding", "eval_report", "models_dir", "sensitivity",
                 "sensitivity_meta"),
          dirs={"figs_dir": ("figs", None)}),
)

_STAGES_BY_NAME = {stage.name: stage for stage in STAGES}

# artifact key -> (name under the output directory, missing-artifact label, stage)
_ARTIFACTS = {key: (name, label, stage.name)
              for stage in STAGES for key, (name, label) in {**stage.files, **stage.dirs}.items()}


def _reads_from(name: str) -> set[str]:
    """The stages whose outputs stage `name` reads, directly or through other stages."""
    direct = {_ARTIFACTS[key][2] for key in _STAGES_BY_NAME[name].reads}
    return direct.union(*map(_reads_from, direct))


def _failures(path: str) -> dict[str, str]:
    """Failed stage -> cause, one entry for each "stage: <name>" line of
    the FAILED marker at `path` and the "cause: " text after it; empty
    without a marker. A marker with an entry that names no stage, or with
    no entry, is a DataError."""
    if not os.path.exists(path):
        return {}
    head, *entries = ("\n" + read_text(path)).split("\nstage: ")
    failures = {stage: cause.removeprefix("cause: ").strip()
                for stage, _, cause in (entry.partition("\n") for entry in entries)}
    if head or not failures or not failures.keys() <= _STAGES_BY_NAME.keys():
        raise DataError(f"{path} names no stage of {', '.join(_STAGES_BY_NAME)}")
    return failures


def _write_failures(path: str, failures: dict[str, str]) -> None:
    """The FAILED marker at `path`, recording `failures`; none without one."""
    if failures:
        write_text(path, "".join(f"stage: {s}\ncause: {cause}\n" for s, cause in failures.items()))
    else:
        os.remove(path)


def run_stage(name: str, config: PipelineConfig) -> None:
    """Run one stage. A failure records the stage and its cause in the
    FAILED marker. While the marker records a stage whose outputs this
    one reads, directly or through other stages, this one does not run.
    Either outcome replaces the entries of this stage and of the stages
    that read its outputs, so a success of a failed stage, or of a stage
    it reads from, removes its entry; the marker goes with its last entry."""
    stage = _STAGES_BY_NAME.get(name)
    if stage is None:
        raise UsageError(f"unknown stage {name!r}")
    make_dir(config.out)
    path = artifact_paths(config.out)["failed"]
    failures = _failures(path)
    upstream = _reads_from(name)
    for failed, cause in failures.items():
        if failed in upstream:
            raise DataError(f"{path}: the {failed} stage failed ({cause}); "
                            f"run it or a stage it reads from again before {name}")
    kept = {s: cause for s, cause in failures.items() if s != name and name not in _reads_from(s)}
    try:
        stage.run(config)
    except Exception as exc:
        _write_failures(path, {**kept, name: str(exc)})
        raise
    if kept != failures:
        _write_failures(path, kept)


def run_pipeline(config: PipelineConfig) -> None:
    """Every stage of `STAGES` in order, stopping at the first failure."""
    for stage in STAGES:
        run_stage(stage.name, config)
    _log("pipeline: complete")
