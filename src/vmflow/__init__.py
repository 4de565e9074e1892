"""Variational mean-flow generative modeling with a causality-aware transformer."""
import contextlib
import ctypes
import os

import numpy  # noqa: F401  loads the OpenBLAS that _one_blas_thread sets

__version__ = "0.1.0"
_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads", "openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """One thread for each loaded OpenBLAS, unless a variable it reads is set: a
    threaded GEMM can stall on 2-vCPU hosts. No-op where no setter is found."""
    if {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        return
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        for path in {line.split(maxsplit=5)[-1].rstrip("\n") for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}:
            lib = ctypes.CDLL(path)
            setter = next((getattr(lib, s) for s in _SETTERS if hasattr(lib, s)), None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


_one_blas_thread()
