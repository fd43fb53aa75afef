"""Tier-1 runs with one BLAS thread, as the command line does, unless
the caller set a count.  pytest imports this file before any test
module, so the variables are set before numpy loads; several tests
start runs on worker threads, which more BLAS threads would
oversubscribe."""

from beambench.__main__ import pin_blas_threads

pin_blas_threads()
