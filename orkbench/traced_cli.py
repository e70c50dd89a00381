"""Run ``orkmc.cli.main`` in this process, with or without layer spans.

    python3 orkbench/traced_cli.py --trace 0|1 --record OUT.json -- <cli args>

The CLI writes to this process's standard output, as ``python -m orkmc.cli``
would; the benchmark runs it on a pseudo-terminal, so printing costs what it
costs on a terminal.  ``--record`` receives the exit code, the wall time of
``main`` and, with ``--trace 1``, the spans and the wrapped attributes that
were missing.  Both settings run the same code apart from the wrappers, so
their wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from orkbench.tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from orkmc import cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall, "spans": tracer.spans, "missing": tracer.missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
