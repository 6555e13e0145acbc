"""chirpmap benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_n120 --seed 1 --seconds 20 --trace 0

One client runs one op at a time in this process (a closed loop). Ops
start until ``--seconds`` have passed since the first one started. With
``--trace 0`` nothing is wrapped and the end-to-end metrics are reported;
with ``--trace 1`` ops alternate untraced and traced, and the per-layer
metrics of the traced ops are reported with the tracing overhead. A
human-readable report goes to standard output, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. The full record of the
run, with per-op artifact digests and machine metadata, is written under
``.perfbench/results/``.

``--seed`` derives the pipeline master seed; the records are synth's
cohort of ROADMAP.md's baseline table (synth seed 12). ``--master-seed``
replaces the derived master seed, e.g. 2024 for exactly the inputs that
table used.
"""

from refclock import RefClock

CLOCK = RefClock()
CLOCK.start()  # set-up time counts from here

import argparse
import atexit
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, median_metrics

atexit.register(CLOCK.stop)  # else a SIGPROF during interpreter shutdown ends it
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one was no slower than two at N=900 on a 2-CPU machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the end-to-end metrics in the final JSON line; the report prints more
END_TO_END = ("op_s", "peak_rss_mb", "setup_s")


def prepare() -> None:
    """Pin BLAS threads and import chirpmap from this checkout's src/ only."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "chirpmap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no chirpmap sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import chirpmap

    if Path(chirpmap.__file__).resolve().parent != src / "chirpmap":
        sys.exit(f"perfbench: imported chirpmap from {chirpmap.__file__}, not from {src}")


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def metadata(bench, workload) -> dict:
    import numpy as np
    from workloads import SYNTH_SEED

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    n = workload.n_records
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "llc_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "workload": workload.name,
        "n_records": n,
        "pair_matrix_mb": n * n * 8 / 1e6,
        "synth_seed": SYNTH_SEED,
        "master_seed": bench.master_seed,
    }


def end_to_end(ops, setup_s: float) -> dict:
    """Every end-to-end metric: name -> (value, unit). Timings come from
    the ops that passed every check, or from all ops if none did; all but
    ``op_wall_s`` are in reference-clock seconds."""
    timed = [r for r in ops if r.failure is None] or ops
    out = {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(r.op_s for r in timed), "s"),
        "op_wall_s": (statistics.median(r.wall_s for r in timed), "s"),
    }
    for stage in ("ingest", "embed", "eval", "explain", "render"):
        values = [r.stage_s[stage] for r in timed if stage in r.stage_s]
        if values:
            out[f"{stage}_s"] = (statistics.median(values), "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    out["failed_frac"] = (sum(r.failure is not None for r in ops) / len(ops), "1")
    return out


def per_layer(ops, tracer, workload):
    """Median per-layer metrics over the traced ops that passed, and the
    names left out because their source is absent."""
    good = [(k, r) for k, r in enumerate(ops) if r.traced and r.failure is None]
    embeds = "embed" in workload.stages
    per_op, absent = [], set()
    for k, r in good:
        metrics, missing = layer_metrics(tracer, k)
        metrics["pipeline.artifact_bytes"] = (r.artifact_bytes, "bytes")
        metrics["tsne.pair_matrix_mb"] = (workload.n_records ** 2 * 8 / 1e6 if embeds else 0.0, "MB")
        if not embeds:
            metrics["tsne.fallback_rows"] = (0, "count")
        elif r.fallback_rows is None:  # embedding_meta.json no longer records them
            missing.add("tsne.fallback_rows")
        else:
            metrics["tsne.fallback_rows"] = (r.fallback_rows, "count")
        per_op.append(metrics)
        absent |= missing
    out = median_metrics(per_op)
    # op 0, the process's first, runs cold: at N=900 it took 15-20% longer
    # than the next, which would make tracing look faster than no tracing
    untraced = [r.op_s for r in ops[1:] if not r.traced and r.failure is None]
    traced = [r.op_s for _, r in good]
    if untraced and traced:
        out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return out, sorted(absent)


def run(workload, seed: int, seconds: float, trace: bool, import_s: float,
        master_seed=None, min_ops: int = 1, bench_hook=None) -> dict:
    """Set up, run ops for ``seconds`` and at least ``min_ops`` times
    (three times if traced), and return the run's full record.

    ``import_s`` is the import time already spent, billed to set-up; it
    and every time the record holds are on ``CLOCK`` unless named wall.
    ``bench_hook(bench, k)`` is called before op ``k``; the self-test
    uses it to make one op fail.
    """
    from workloads import SETUP_REPEATS, Bench  # imports chirpmap: after prepare()

    work_dir = ROOT / ".perfbench" / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, str(work_dir), CLOCK, master_seed)
        reps = [bench.setup_once(rep) for rep in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(ref for ref, _ in reps)
        tracer = Tracer(CLOCK.now) if trace else None
        ops = []
        start = time.perf_counter()
        # traced runs alternate untraced and traced ops
        while time.perf_counter() - start < seconds or len(ops) < max(min_ops, 3 * trace):
            k = len(ops)
            if bench_hook is not None:
                bench_hook(bench, k)
            result = bench.run_op(k, tracer if trace and k % 2 else None)
            ops.append(result)
            print(f"perfbench: op {k} {result.op_s:.3f} s ({result.wall_s:.3f} s wall)"
                  + (" traced" if result.traced else "")
                  + (f" FAILED: {result.failure}" if result.failure else ""), file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = {
        "metadata": metadata(bench, workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "import_s": import_s,
        "setup_reps_s": [ref for ref, _ in reps],
        "setup_reps_wall_s": [wall for _, wall in reps],
        "ops": [vars(r) for r in ops],
        "attempted": len(ops),
        "failed": sum(r.failure is not None for r in ops),
    }
    if trace:
        metrics, absent = per_layer(ops, tracer, workload)
        record["per_layer"], record["absent"] = metrics, absent
    else:
        record["end_to_end"] = end_to_end(ops, setup_s)
    return record


def report(record: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    meta = record["metadata"]
    print(f"workload {meta['workload']}  seed {record['seed']}  N={meta['n_records']}  "
          f"pair matrix {meta['pair_matrix_mb']:.2f} MB  trace {int(record['trace'])}")
    print("machine  " + "  ".join(f"{k}={meta[k]}" for k in (
        "nproc", "python", "numpy", "blas", "blas_threads", "l2_bytes", "llc_bytes")))
    print(f"inputs   synth seed {meta['synth_seed']}  master seed {meta['master_seed']}")
    for k, op in enumerate(record["ops"]):
        print(f"op {k:>2} {'traced  ' if op['traced'] else 'untraced'} "
              f"{op['op_s']:8.3f} s ({op['wall_s']:.3f} s wall)  digest {(op['digest'] or '-')[:16]}  "
              + (f"FAILED {op['failure']}" if op["failure"] else "ok"))
    n_ops = record["attempted"]
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    timed = sum(op["failure"] is None and op["traced"] == record["trace"] for op in record["ops"])
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit:<6}"
              + (f" median of {timed} ops" if unit == "s" and name != "setup_s" else ""))
    for name in record.get("absent", []):
        print(f"{name:<34} {'absent':>16}")
    declared = None if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": n_ops,
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if declared is None or name in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--master-seed", type=int)
    args = parser.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    import_s = CLOCK.now()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s,
                 args.master_seed)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    line = report(record)
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
