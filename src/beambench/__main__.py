"""Entry point of the `beambench` console script and `python -m beambench`.

A run's parallelism is its realization workers (`--jobs`).  BLAS
threads on top of them oversubscribe the cores, and the output bytes
depend on the BLAS thread count, so the command line defaults every
BLAS thread variable to 1 before numpy loads; a value the user set is
kept.  Importing `beambench` or `beambench.cli` leaves the environment
alone.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Default the BLAS thread variables to 1; call before numpy loads."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def main() -> int:
    pin_blas_threads()
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
