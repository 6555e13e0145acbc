"""Command-line interface.

Subcommands: synth, ingest, embed, eval, explain, render, pipeline.
Flags override config-file fields. Exit codes: 0 success, 1 usage
errors, 2 data errors, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .artifacts import make_dir
from .errors import DataError, NumericError, UsageError
from .evaluation import SCENARIO_ORDER
from .models import SHORT_KIND_NAMES
from .pipeline import STAGES, PipelineConfig, config_from_dict, load_config_file, run_pipeline, run_stage
from .synth import LABEL_MODELS, generate_records, write_records_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this package reserves
    # 2 for data errors, so route through UsageError (exit 1) instead
    def error(self, message: str):
        raise UsageError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, metavar="INT", help="master seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--weights",
        metavar="a,b,c",
        help="feature weights for temporal,frequency,spectral",
    )
    parser.add_argument(
        "--scenario",
        choices=(*SCENARIO_ORDER, "all"),
        help="which labeling scenario(s) to evaluate",
    )
    parser.add_argument(
        "--classifier",
        choices=(*SHORT_KIND_NAMES, "all"),
        help="which classifier(s) to evaluate",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="chirpmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    specs = (("synth", "generate a synthetic chirp dataset"),
             *((stage.name, stage.help) for stage in STAGES),
             ("pipeline", "run every stage in order"))
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_common_flags(p)
        if name in ("ingest", "pipeline"):
            p.add_argument("--input", metavar="PATH", help="input CSV of chirp records")
        if name == "synth":
            p.add_argument("--n-per-cluster", type=int, default=60, metavar="INT")
            p.add_argument("--n-clusters", type=int, default=3, metavar="INT")
            p.add_argument("--separation", type=float, default=10.0, metavar="FLOAT")
            p.add_argument("--label-model", choices=LABEL_MODELS, default="cluster")
    return parser


def _parse_weights(text: str) -> list[float]:
    parts = text.split(",")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(
            f"weights must be three comma-separated numbers, got {text!r}"
        ) from exc


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    doc = load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    if args.weights is not None:
        doc["weights"] = _parse_weights(args.weights)
    if args.scenario is not None:
        doc["scenarios"] = args.scenario
    if args.classifier is not None:
        doc["classifiers"] = args.classifier
    if getattr(args, "input", None) is not None:
        doc["input"] = args.input
    return config_from_dict(doc)


def _cmd_synth(args: argparse.Namespace) -> None:
    config = config_from_args(args)
    records = generate_records(
        n_per_cluster=args.n_per_cluster,
        n_clusters=args.n_clusters,
        separation=args.separation,
        seed=config.seed,
        label_model=args.label_model,
    )
    make_dir(config.out)
    path = os.path.join(config.out, "synth_data.csv")
    write_records_csv(records, path)
    print(f"[chirpmap] synth: {len(records)} records written to {path}", file=sys.stderr)


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    if args.command == "synth":
        _cmd_synth(args)
    elif args.command == "pipeline":
        run_pipeline(config_from_args(args))
    else:
        run_stage(args.command, config_from_args(args))


def entrypoint(argv=None) -> int:
    try:
        main(argv)
    except UsageError as exc:
        print(f"chirpmap: usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"chirpmap: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"chirpmap: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0
