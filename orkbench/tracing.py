"""Spans around the calls into each ``orkmc`` layer, recorded from outside.

:func:`Tracer.install` replaces public functions at the module attributes
where their callers look them up (``orkmc.offline.update_U``,
``orkmc.offline.nnls``, ``orkmc.online.orkmc_step`` ...) with wrappers that
record one in-memory span per call: name, start, end and the index of the
enclosing span.  Nothing inside ``orkmc`` changes.  A wrapped attribute that
no longer exists is reported as missing and the metrics of its layer as null.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# (span name, module, attribute).  One span name may be wrapped at several
# call sites when callers import the function by name.
WRAPS = (
    ("cli.main", "orkmc.cli", "main"),
    ("dataio.load", "orkmc.dataio", "load"),
    ("dataio.save_result", "orkmc.dataio", "save_result"),
    ("offline.rkmc_fit", "orkmc.cli", "rkmc_fit"),
    ("online.orkmc_run", "orkmc.cli", "orkmc_run"),
    ("baselines.kmeans_fit", "orkmc.baselines", "kmeans_fit"),
    ("seeding.select_initial_rows", "orkmc.offline", "select_initial_rows"),
    ("seeding.select_initial_rows", "orkmc.online", "select_initial_rows"),
    ("seeding.select_initial_rows", "orkmc.baselines", "select_initial_rows"),
    ("offline.update_U", "orkmc.offline", "update_U"),
    ("offline.update_M", "orkmc.offline", "update_M"),
    ("kernels.nnls", "orkmc.offline", "nnls"),
    ("kernels.pgd_rows", "orkmc.offline", "_pgd_rows"),
    ("model.objective_rkmc", "orkmc.offline", "objective_rkmc"),
    ("online.orkmc_init", "orkmc.online", "orkmc_init"),
    ("online.orkmc_step", "orkmc.online", "orkmc_step"),
    ("metrics.nmi", "orkmc.metrics", "nmi"),
    ("metrics.pair_scores", "orkmc.metrics", "pair_scores"),
)

# Spans whose return value carries a count worth keeping: ``_pgd_rows``
# returns (u, converged, sweeps).
COUNTERS = {"kernels.pgd_rows": lambda result: int(result[2])}

# (metric, unit, better, span name, statistic).  The prediction column --
# which end-to-end metric each should move, on which workload -- is in
# orkbench/README.md.
PER_LAYER = (
    ("offline.update_U.s", "s", "lower", "offline.update_U", "total"),
    ("offline.update_U.calls", "count", "lower", "offline.update_U", "calls"),
    ("offline.update_U.ms_per_call", "ms", "lower", "offline.update_U", "ms_per_call"),
    ("offline.update_U.sweeps", "count", "lower", "kernels.pgd_rows", "count"),
    ("offline.update_M.self_s", "s", "lower", "offline.update_M", "self"),
    ("kernels.nnls.s", "s", "lower", "kernels.nnls", "total"),
    ("kernels.nnls.calls", "count", "lower", "kernels.nnls", "calls"),
    ("online.orkmc_step.s", "s", "lower", "online.orkmc_step", "total"),
    ("online.orkmc_step.calls", "count", "lower", "online.orkmc_step", "calls"),
    ("online.orkmc_step.p50_us", "us", "lower", "online.orkmc_step", "p50_us"),
    ("online.orkmc_step.p99_us", "us", "lower", "online.orkmc_step", "p99_us"),
    ("online.orkmc_init.s", "s", "lower", "online.orkmc_init", "total"),
    # orkmc_run's own time: the CLI's progress callback (formatting and
    # printing one row per arrival), the surrogate objective, the drift check.
    ("online.orkmc_run.self_s", "s", "lower", "online.orkmc_run", "self"),
    ("seeding.select_initial_rows.s", "s", "lower", "seeding.select_initial_rows", "total"),
    ("seeding.select_initial_rows.calls", "count", "lower", "seeding.select_initial_rows", "calls"),
    ("dataio.load.s", "s", "lower", "dataio.load", "total"),
    ("dataio.load.mb_per_s", "MB/s", "higher", "dataio.load", "mb_per_s"),
    ("dataio.save_result.s", "s", "lower", "dataio.save_result", "total"),
    ("dataio.save_result.mb_per_s", "MB/s", "higher", "dataio.save_result", "mb_per_s"),
    ("model.objective_rkmc.s", "s", "lower", "model.objective_rkmc", "total"),
    ("model.objective_rkmc.calls", "count", "lower", "model.objective_rkmc", "calls"),
    ("metrics.nmi.s", "s", "lower", "metrics.nmi", "total"),
    ("metrics.pair_scores.s", "s", "lower", "metrics.pair_scores", "total"),
    ("baselines.kmeans_fit.self_s", "s", "lower", "baselines.kmeans_fit", "self"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self"),
)
OVERHEAD = ("trace.overhead_frac", "fraction", "lower")


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, count]``."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def install(self, wraps=WRAPS) -> None:
        """Wrap every ``(name, module, attribute)``; record the ones that are gone."""
        for name, module, attr in wraps:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append((name, f"{module}.{attr}"))
            else:
                setattr(mod, attr, self.wrap(fn, name))


def span_stats(spans) -> dict:
    """Per span name: calls, total and self seconds, durations and counts."""
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += durations[i]
    stats: dict = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[0], {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "count": 0})
        st["calls"] += 1
        st["total"] += durations[i]
        st["self"] += durations[i] - child_time[i]
        st["durations"].append(durations[i])
        st["count"] += s[4] or 0
    return stats


def layer_metrics(spans, missing, io_bytes: dict) -> dict:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``missing`` lists the span names whose wrapped attribute no longer exists;
    their metrics are None.  ``io_bytes`` maps ``dataio.load`` and
    ``dataio.save_result`` to the bytes each read or wrote.
    """
    stats = span_stats(spans)
    gone = {name for name, _ in missing}
    out = {}
    for metric, _unit, _better, name, stat in PER_LAYER:
        if name in gone:
            out[metric] = None
            continue
        st = stats.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "count": 0})
        if stat in ("total", "self", "calls", "count"):
            value = st[stat]
        elif stat == "ms_per_call":
            value = 1e3 * st["total"] / st["calls"] if st["calls"] else 0.0
        elif stat in ("p50_us", "p99_us"):
            q = 50 if stat == "p50_us" else 99
            value = 1e6 * float(np.percentile(st["durations"], q)) if st["calls"] else 0.0
        else:  # mb_per_s
            value = io_bytes.get(name, 0) / 1e6 / st["total"] if st["total"] > 0 else 0.0
        out[metric] = float(value)
    return out
