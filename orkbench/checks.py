"""Output checks: a CLI run counts as failed when any of them does not hold."""

from __future__ import annotations

import json
import math
import re

import numpy as np

SIMPLEX_TOL = 1e-9
# Both RKMC half-steps descend; allow only rounding in the objective sum.
MONOTONE_RTOL = 1e-12
NMI_RE = re.compile(r"\bnmi=([0-9]+(?:\.[0-9]+)?)")


def read_result(path):
    """The result document at ``path``, or None when it is missing or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _on_simplex(rows: np.ndarray) -> bool:
    return bool(
        np.all(np.isfinite(rows))
        and np.all(rows >= -SIMPLEX_TOL)
        and np.all(np.abs(rows.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    )


def check_result(doc, *, n: int, k: int, algo: str) -> list:
    """Problems with a result document written by ``orkmc fit|stream``."""
    if doc is None:
        return ["result file missing or not JSON"]
    problems = []
    labels = np.asarray(doc.get("result", []))
    if labels.shape != (n,):
        problems.append(f"result has {labels.size} labels, expected {n}")
    elif not (np.issubdtype(labels.dtype, np.integer) and labels.min() >= 1 and labels.max() <= k):
        problems.append(f"labels outside 1..{k}")
    u = np.asarray(doc.get("U", []), dtype=np.float64)
    if u.shape != (n, k):
        problems.append(f"U has shape {u.shape}, expected {(n, k)}")
    elif not _on_simplex(u):
        problems.append("a U row is off the simplex")
    centers = doc.get("center") or []
    if not centers or not all(np.all(np.isfinite(np.asarray(c, dtype=np.float64))) for c in centers):
        problems.append("centers missing or not finite")
    weights = np.asarray(doc.get("weight", []), dtype=np.float64)
    if weights.size == 0 or not np.all(np.isfinite(weights)):
        problems.append("weights missing or not finite")
    trace = doc.get("objective_trace") or []
    if not trace or not all(math.isfinite(v) for v in trace):
        problems.append("objective trace empty or not finite")
    elif algo == "rkmc":
        reseeds = set((doc.get("config") or {}).get("reseed_steps", []))
        for i in range(1, len(trace)):
            if i not in reseeds and trace[i] > trace[i - 1] + MONOTONE_RTOL * abs(trace[i - 1]):
                problems.append(f"objective rose at step {i}: {trace[i - 1]!r} -> {trace[i]!r}")
                break
    return problems


def check_summary(lines, doc, truth) -> list:
    """The NMI on the CLI's summary line must match one recomputed from the labels."""
    from orkmc import metrics

    if not lines:
        return ["no summary line"]
    m = NMI_RE.search(lines[-1])
    if m is None:
        return [f"summary line has no nmi: {lines[-1]!r}"]
    if doc is None or len(doc.get("result", [])) != len(truth):
        return []
    expected = metrics.nmi(np.asarray(doc["result"]), truth)
    if abs(float(m.group(1)) - expected) > 1e-7:
        return [f"summary nmi {m.group(1)} != recomputed {expected:.7f}"]
    return []


def progress_rows(lines) -> list:
    """The CSV progress rows of ``orkmc stream`` (header and summary dropped)."""
    if not lines or not lines[0].startswith("t,objective"):
        return []
    return [ln for ln in lines[1:] if ln and ln[0].isdigit() and "," in ln]


def check_stream(lines, *, n: int, chushi: int, views: int) -> list:
    """Exactly one progress row per arrival plus the warm start, ``t`` increasing,
    alphas on the simplex."""
    rows = progress_rows(lines)
    if len(rows) != n - chushi + 1:
        return [f"{len(rows)} progress rows, expected {n - chushi + 1}"]
    try:
        table = np.array([[float(c) for c in r.split(",")] for r in rows])
    except ValueError:
        return ["unparseable progress row"]
    if table.shape[1] != 2 + views:
        return [f"progress rows have {table.shape[1]} columns, expected {2 + views}"]
    problems = []
    t = table[:, 0]
    if t[0] != chushi or not np.all(np.diff(t) > 0):
        problems.append("progress t does not start at chushi and increase")
    if not _on_simplex(table[:, 2:]):
        problems.append("alpha off the simplex in a progress row")
    return problems
