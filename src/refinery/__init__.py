"""Desk-scale monolingual web-corpus refinement toolkit."""

import os

# Refinery calls no BLAS routine. Capped before numpy loads, OpenBLAS starts
# no thread pool, which halves the time numpy takes to import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
