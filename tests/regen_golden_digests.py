"""Regenerate tests/golden_digests.json, the SHA-256 of every artifact of
one full `pipeline` run on each ledger cohort: the acceptance cohort
(N = 120) and N = 450, which takes t-SNE through several row tiles and
the k-NN grids through more mixed tiles.

Run from the repository root after a deliberate change of artifact bytes:

    PYTHONPATH=src python tests/regen_golden_digests.py

and name every file whose digest changed in CHANGES.md. The digests hold
only for the numpy version, BLAS, numpy SIMD targets and OpenBLAS kernel
recorded beside them; floating-point results, and so the bytes, may
differ under another build or on another CPU family. Each run goes
to a child process with BLAS pinned to one thread, as in the benchmark.
Every file of the N = 120 run has the same bytes under two threads:
tests/test_golden_digests.py reruns that cohort in a two-thread child
against this ledger, and tests/test_tsne_loop.py checks `run_tsne`
(whose KL trace once took a BLAS dot product that did not) on its own.
Small matrices may stay on a BLAS's one-thread path, so this shows no
thread count beyond two or cohort beyond N = 120, and the pin stays.

To compare the bytes of two checkouts on another cohort size, print the
digests of a full run without touching the ledger:

    PYTHONPATH=src python tests/regen_golden_digests.py --print --n-per-cluster 300

prints one "digest  path" line per artifact (master seed 2024, synth
seed 12, three clusters, one BLAS thread), so N = 900 is one command
per checkout and a `diff` of the two outputs.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
from numpy._core import _multiarray_umath as _umath

from chirpmap.pipeline import config_from_dict, run_pipeline
from chirpmap.synth import generate_records, write_records_csv

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
COHORT = {"n_per_cluster": 40, "seed": 12}
# records per cluster of each ledger cohort: N = 120 and 450
LEDGER_SIZES = (COHORT["n_per_cluster"], 150)
MASTER_SEED = 2024
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """numpy's version, the BLAS it was built against, and the CPU code
    paths both chose when they loaded: numpy's active SIMD dispatch
    targets and the OpenBLAS kernel. Either changes the bits of exp, log
    and matrix products, so a ledger holds for one CPU family."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1,
            "simd": [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)],
            "openblas_core": _openblas_core()}


def _openblas_core() -> str | None:
    """The kernel name of the OpenBLAS bundled with numpy, or None where
    no bundled library exports `scipy_openblas_get_corename64_`."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _run(root: str, n_per_cluster: int) -> None:
    data = os.path.join(root, "synth_data.csv")
    write_records_csv(generate_records(**{**COHORT, "n_per_cluster": n_per_cluster}), data)
    run_pipeline(config_from_dict({"input": data, "seed": MASTER_SEED,
                                   "out": os.path.join(root, "out")}))


def run_digests(root: str, threads: int = 1,
                n_per_cluster: int = COHORT["n_per_cluster"]) -> dict[str, str]:
    """Run the pipeline on the cohort of `n_per_cluster` records per
    cluster into root/out, in a child process with BLAS pinned to
    `threads` threads; the SHA-256 of every file it wrote, by path
    relative to the out directory."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(p for p in (os.path.join(repo, "src"), os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, os.path.abspath(__file__), "--run", root,
                            "--n-per-cluster", str(n_per_cluster)],
                           capture_output=True, text=True,
                           env={**os.environ, **dict.fromkeys(_THREAD_VARIABLES, str(threads)),
                                "PYTHONPATH": path})
    if child.returncode:
        raise RuntimeError(f"pipeline run failed:\n{child.stderr}")
    out = os.path.join(root, "out")
    digests = {}
    for base, _, files in os.walk(out):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as handle:
                rel = os.path.relpath(full, out).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(digests.items()))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--print", action="store_true",
                        help="print the digests to stdout instead of writing the ledger")
    parser.add_argument("--n-per-cluster", type=int, default=COHORT["n_per_cluster"],
                        help="records per cluster (default %(default)s, the ledger's cohort)")
    parser.add_argument("--run", metavar="ROOT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        _run(args.run, args.n_per_cluster)
        return 0
    if args.n_per_cluster != COHORT["n_per_cluster"] and not args.print:
        parser.error("--n-per-cluster needs --print; the ledger holds its own cohorts")
    if args.print:
        with tempfile.TemporaryDirectory() as root:
            digests = run_digests(root, n_per_cluster=args.n_per_cluster)
        for name, digest in digests.items():
            print(f"{digest}  {name}")
        return 0
    cohorts = []
    for n_per_cluster in LEDGER_SIZES:
        with tempfile.TemporaryDirectory() as root:
            digests = run_digests(root, n_per_cluster=n_per_cluster)
        cohorts.append({**COHORT, "n_per_cluster": n_per_cluster, "master_seed": MASTER_SEED,
                        "digests": digests})
    ledger = {"environment": environment(), "cohorts": cohorts}
    with open(LEDGER, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(cohorts)} cohorts of digests to {LEDGER}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
