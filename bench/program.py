"""Locate and import the sphkol package of the checkout the benchmark sits in.

The benchmark must measure the source tree next to it, never an installed
copy, and must refuse to run when that tree is missing.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the runs stay comparable on a shared machine and never
# ask for more threads than it has cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Fix the thread count of numerical libraries; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load():
    """Import sphkol (with its CLI) from ``<checkout>/src``; exit non-zero when absent."""
    init = SRC / "sphkol" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no sphkol sources at {init}")
    sys.path.insert(0, str(SRC))
    sphkol = importlib.import_module("sphkol")
    importlib.import_module("sphkol.cli")
    if Path(sphkol.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported sphkol from {sphkol.__file__}, expected {init}")
    return sphkol
