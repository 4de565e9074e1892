"""Variational mean-flow generative modeling with a causality-aware transformer."""
import contextlib
import ctypes
import os

import numpy  # noqa: F401  loads the OpenBLAS that _one_blas_thread sets

__version__ = "0.1.0"


def openblas_functions(stem: str):
    """For each OpenBLAS loaded in this process, in path order, its function
    openblas_<stem> in whichever of four spellings it exports, or None."""
    names = (f"openblas_{stem}", f"scipy_openblas_{stem}64_",
             f"scipy_openblas_{stem}", f"openblas_{stem}64_")
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        for path in sorted({line.split(maxsplit=5)[-1].rstrip("\n") for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()}):
            lib = ctypes.CDLL(path)
            yield next((getattr(lib, n) for n in names if hasattr(lib, n)), None)


def _one_blas_thread() -> None:
    """One thread for each loaded OpenBLAS, unless a variable it reads is set: a
    threaded GEMM can stall on 2-vCPU hosts. No-op where no setter is found."""
    if {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        return
    for setter in openblas_functions("set_num_threads"):
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


_one_blas_thread()
