"""The ``orkmc`` process entry.  It imports no numpy, so it acts before numpy
loads; ``import orkmc`` as a library never runs it."""

from __future__ import annotations

import os
import sys


def default_blas_threads() -> None:
    """Default OpenBLAS to one thread unless the caller set a count.

    OpenBLAS starts its worker threads inside ``import numpy``, and they spin
    there for about 0.13 s of CPU per process.  Threaded BLAS did not pay that
    back on a 2-core host, up to an ``rkmc_fit`` on 200 000 x 50 rows
    (CHANGES.md; more cores are unmeasured), so a CLI run uses one thread.
    ``OPENBLAS_NUM_THREADS=N orkmc ...`` still wins.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def run() -> None:
    """The ``orkmc`` console script: the thread default, then :func:`orkmc.cli.main`."""
    default_blas_threads()
    from .cli import main

    sys.exit(main())
