"""The benchmark and the bit-print tool run whole on this tree.

Each run must exit 0 and print the last line(s) its own docstring documents.
No benchmark figure is pinned. The bit-print digests depend on the Python,
numpy and BLAS build, so they are compared with tools/bitprint.golden.json
only where the run's fingerprint is the one the golden lines were made under.
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


def _run(*argv) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ring", "seq", "sample"])
def test_bench_run_passes_its_checks(tree, workload, trace):
    last = json.loads(_run(tree / "bench" / "run.py", "--workload", workload, "--seed", 1,
                           "--seconds", 1, "--trace", trace).stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_bitprint_prints_one_digest_per_artifact():
    proc = _run(ROOT / "tools" / "bitprint.py")
    lines = proc.stdout.splitlines()
    assert len(lines) == 131
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), lines
    assert len({line.split()[0] for line in lines}) == 131
    golden = json.loads((ROOT / "tools" / "bitprint.golden.json").read_text())
    here = json.loads(proc.stderr.splitlines()[-1])
    differ = {k: (v, here.get(k)) for k, v in golden["fingerprint"].items() if here.get(k) != v}
    if differ:
        pytest.skip(f"golden digests were made under another build, (golden, here): {differ}")
    moved = [a.split()[0] for a, b in zip(lines, golden["lines"]) if a != b]
    assert lines == golden["lines"], f"digests differ from the golden file: {moved}"
