"""`import vmflow` puts numpy's OpenBLAS on one thread unless the user set a
thread variable, and the thread count moves no output bit.

Each case runs in a fresh interpreter, since OpenBLAS is loaded once per
process. The count is read back through the loaded library's own getter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vmflow

SRC = str(Path(vmflow.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Prints a JSON list of the thread counts of every OpenBLAS in the process,
# loading numpy's first if nothing has.
READ_COUNTS = """
import ctypes, json
import numpy
paths = sorted({line.split(maxsplit=5)[-1].rstrip("\\n") for line in open("/proc/self/maps")
                if "openblas" in line.rsplit("/", 1)[-1].lower()})
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
        if hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_int
            counts.append(getattr(lib, name)())
            break
print(json.dumps(counts))
"""


def _run(code: str, **env_vars) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _counts(imports: str, **env_vars) -> list[int]:
    counts = json.loads(_run(imports + "\n" + READ_COUNTS, **env_vars))
    if not counts:
        pytest.skip("numpy here loads no OpenBLAS with a thread getter; nothing to set")
    return counts


@pytest.mark.parametrize("imports", ["import vmflow",
                                     "import numpy\nimport vmflow",  # bench/run.py's order
                                     "import scipy.linalg\nimport vmflow"],
                         ids=["vmflow", "numpy-then-vmflow", "scipy-then-vmflow"])
def test_import_vmflow_sets_every_loaded_openblas_to_one_thread(imports):
    if "scipy" in imports:
        pytest.importorskip("scipy.linalg")
    counts = _counts(imports)
    assert counts == [1] * len(counts)


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_user_thread_variable_is_left_alone(var):
    want = _counts("import numpy", **{var: "2"})
    assert _counts("import vmflow", **{var: "2"}) == want
    if (os.cpu_count() or 1) >= 2:
        assert want == [2]


# Trains a small sequences model for one epoch, samples it at nfe 1, w 1.5,
# and scores a fixed signed 600x32 set, large enough for OpenBLAS to thread
# the Gram blocks; prints SHA-256 of each, and the thread counts.
TRAIN_SAMPLE_SCORE = """
import hashlib, json
import numpy as np
from vmflow.config import RunConfig
from vmflow.datasets import ToySequenceSpec, make_sequence_dataset
from vmflow.metrics import conditional_metrics
from vmflow.rng import make_rng
from vmflow.sampling import sample_batch
from vmflow.training import train_model

data = make_sequence_dataset(ToySequenceSpec(n_sequences=600, dominance=0.9, seed=21,
                                             scale=4.0))
cfg = RunConfig(variant="VMF", width=24, heads=2, blocks=2, latent_dim=8, time_freqs=8,
                phi_hidden=32, lr=1e-3, epochs=1, batch_size=64, seed=0, alpha=1.0)
params, dims, opt = train_model(cfg, data.x, data.c)
state = {**{k: p.data for k, p in params.items()}, **opt.state_tensors()}
res = sample_batch(params, dims, data.c, data.x.shape[1], make_rng(777), nfe=1,
                   guidance_w=1.5, conditional=True)
rng = make_rng(5)
gen, ref = rng.standard_normal((600, 32)), rng.standard_normal((600, 32))
report = conditional_metrics(list(gen), list(ref))
sha = lambda *blobs: hashlib.sha256(b"".join(blobs)).hexdigest()
print(json.dumps({"params": sha(*(k.encode() + state[k].tobytes() for k in sorted(state))),
                  "samples": sha(res.x.tobytes()),
                  "metrics": sha(json.dumps(report.metrics).encode())}))
"""


def test_thread_count_moves_no_bit():
    one = _run(TRAIN_SAMPLE_SCORE + READ_COUNTS, OPENBLAS_NUM_THREADS="1").splitlines()
    two = _run(TRAIN_SAMPLE_SCORE + READ_COUNTS, OPENBLAS_NUM_THREADS="2").splitlines()
    assert json.loads(one[0]) == json.loads(two[0])
    if json.loads(two[1]) and (os.cpu_count() or 1) >= 2:
        assert json.loads(one[1]) == [1] and json.loads(two[1]) == [2]
