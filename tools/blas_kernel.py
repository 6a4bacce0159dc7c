"""The kernel that numpy's bundled OpenBLAS picked at run time.

numpy's ``show_config()`` names the OpenBLAS configuration fixed when
numpy is built; OpenBLAS picks its kernels from the CPU's features when it
loads.  This asks the loaded library which it picked and prints the
kernel's name, or ``unknown`` where numpy bundles no OpenBLAS that
answers.  Golden outputs and timings can differ from one kernel to
another, so a run records it beside them.

    python3 tools/blas_kernel.py
"""

import ctypes
import glob
import os

import numpy


def kernel() -> str:
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


if __name__ == "__main__":
    print(kernel())
