"""End-to-end and per-layer benchmark of the ``orkmc`` CLI.

Run ``python3 orkbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``orkbench/README.md``.
"""
