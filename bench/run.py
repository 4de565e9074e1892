"""Run one benchmark workload as a single process and print its metrics.

    python3 bench/run.py --workload ring --seed 1 --seconds 30 --trace 0

With --trace 0 the run drives the pipeline a `vmflow train` / `sample` /
`eval` user runs, through the library's public functions: generate the data,
train through train_model with checkpoints on the CLI's schedule, load the
last checkpoint back, sample through sample_batch and score with
conditional_metrics. It reports the end-to-end metrics. With --trace 1 the
same workload runs traced (see traced.py) and reports the per-layer metrics.
Either way the correctness checks of checks.py run after the timed phases,
and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program under test is imported from src/ next to this directory; the run
fails, printing no result, when src/vmflow is not there.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402


def pin_malloc_thresholds() -> str:
    """Fix glibc's mmap and trim thresholds at the values its own heuristic
    climbs toward (32 MiB, and twice that), before numpy allocates.

    Left dynamic, the thresholds move with the process's allocation history,
    and with them whether each call's megabyte-sized temporaries are served
    from the heap or mmapped and page-faulted afresh: a 500-sample guided
    batch then takes 33 to 48 ms from one process to the next, against 27
    to 30 ms pinned. mallopt acts on this process only."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    ok = mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20)  # M_MMAP_, M_TRIM_THRESHOLD
    return "mmap_threshold 32 MiB, trim_threshold 64 MiB" if ok else "default (mallopt refused)"


MALLOC = pin_malloc_thresholds()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "train_steps_per_s": "steps/s",
                    "train_step_ms_p50": "ms", "train_step_ms_p90": "ms",
                    "sample_per_s": "samples/s", "eval_per_s": "samples/s",
                    "peak_rss_mb": "MB"}


def seconds_since_process_start() -> float:
    """Interpreter start-up before this file ran, from /proc (10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


PRE_START_S = seconds_since_process_start()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fingerprint(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "malloc": MALLOC}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vmflow" / "__init__.py").is_file():
        print(f"error: {SRC / 'vmflow'} not found; run from a vmflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    t0 = time.perf_counter()
    import vmflow.cli  # the whole library: every module the CLI wires together
    import_ms = (time.perf_counter() - t0) * 1e3
    if Path(vmflow.cli.__file__).resolve().parent != SRC / "vmflow":
        print(f"error: imported vmflow from {vmflow.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import pipeline
    import traced
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = RESULTS / f"tmp-{os.getpid()}"
    try:
        out = pipeline.run(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), run_dir,
                           setup_origin=(T_START, PRE_START_S), import_ms=import_ms)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    fp = fingerprint(np)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print("plan " + json.dumps(out["plan"], sort_keys=True))
    for check in out["checks"]:
        print(check.line())
    for line in out.get("info", []):
        print(line)
    unit = traced.unit if args.trace else END_TO_END_UNITS.get
    metrics = {k: {"value": float(v), "unit": unit(k)} for k, v in out["metrics"].items()}
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {out['attempted']}, failed {out['failed']}")
    result = {"correct": all(c.ok for c in out["checks"]),
              "attempted": int(out["attempted"]), "failed": int(out["failed"]),
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"result-{stem}.json", "w") as fh:
        json.dump(dict(result, fingerprint=fp, plan=out["plan"],
                       checks=[c.line() for c in out["checks"]]), fh, indent=1)
    if args.trace:
        with open(RESULTS / f"trace-{stem}.json", "w") as fh:
            json.dump(out["trace"], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
