"""Every artifact of one full pipeline run against its pinned SHA-256.

Criterion 9 compares two runs of one session; this compares a run with
the bytes recorded in tests/golden_digests.json, so a change that moves
any artifact's bytes fails here and names the files. The ledger is
rewritten only by tests/regen_golden_digests.py, in the commit that
changes the bytes on purpose. The ledger is pinned under one BLAS
thread; a second run of the N = 120 cohort under two threads must give
the same bytes. The N = 450 cohort reaches paths N = 120 does not, such
as t-SNE over several row tiles. The ledger holds for one CPU family:
another OpenBLAS kernel or numpy SIMD dispatch is another environment.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.regen_golden_digests import COHORT, LEDGER, environment, run_digests

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_run_matches_ledger(root, threads, n_per_cluster=COHORT["n_per_cluster"]):
    with open(LEDGER, encoding="utf-8") as handle:
        ledger = json.load(handle)
    here = environment()
    assert here == ledger["environment"], (
        f"digests were pinned under {ledger['environment']}, this is {here}: "
        "regenerate the ledger with tests/regen_golden_digests.py on this build"
    )
    [pinned] = [c["digests"] for c in ledger["cohorts"] if c["n_per_cluster"] == n_per_cluster]
    got = run_digests(str(root), threads, n_per_cluster)
    changed = sorted(name for name in got.keys() & pinned.keys() if got[name] != pinned[name])
    missing = sorted(pinned.keys() - got.keys())
    extra = sorted(got.keys() - pinned.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; missing: {missing}; not in the ledger: {extra}"
    )


def test_every_artifact_matches_its_pinned_digest(tmp_path):
    assert_run_matches_ledger(tmp_path, threads=1)


def test_two_blas_threads_give_the_pinned_digests(tmp_path):
    assert_run_matches_ledger(tmp_path, threads=2)


def test_a_cohort_of_450_gives_its_pinned_digests(tmp_path):
    assert_run_matches_ledger(tmp_path, threads=1, n_per_cluster=150)


@pytest.mark.parametrize("variable, value", [
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),  # numpy's AVX2 loops
    ("OPENBLAS_CORETYPE", "Haswell"),
])
def test_another_cpu_family_is_not_the_pinned_environment(variable, value):
    """Under a kernel or dispatch that changes digests, the ledger tests
    fail with their "regenerate" message, not with a list of files."""
    with open(LEDGER, encoding="utf-8") as handle:
        pinned = json.load(handle)["environment"]
    path = os.pathsep.join(p for p in (REPO, os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", "import json; from tests.regen_golden_digests import environment; "
                               "print(json.dumps(environment()))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, variable: value, "PYTHONPATH": path})
    assert json.loads(child.stdout) != pinned
