"""The benchmark and the bit-print tool run whole on this tree.

No figure or digest is pinned, since both depend on the BLAS build: each run
must exit 0 and print the last line(s) its own docstring documents.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of bench/ and src/, so the runs' results/ files land outside the tree."""
    tmp = tmp_path_factory.mktemp("tree")
    for d in ("bench", "src"):
        shutil.copytree(ROOT / d, tmp / d,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
    return tmp


def _run(*argv) -> list[str]:
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ring", "seq", "sample"])
def test_bench_run_passes_its_checks(tree, workload, trace):
    last = json.loads(_run(tree / "bench" / "run.py", "--workload", workload, "--seed", 1,
                           "--seconds", 1, "--trace", trace)[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_bitprint_prints_one_digest_per_artifact():
    lines = _run(ROOT / "tools" / "bitprint.py")
    assert len(lines) == 131
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    assert len({line.split()[0] for line in lines}) == 131
