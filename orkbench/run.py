"""Benchmark of the ``orkmc`` CLI: end-to-end metrics, or per-layer ones with --trace 1.

    python3 orkbench/run.py --workload rkmc-dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark generates its datasets from
``--seed`` with ``orkmc.datagen``, saves them with ``orkmc.dataio``, and runs
``python -m orkmc.cli fit|stream`` on them in fresh processes for
``--seconds`` seconds (always at least one pass over every dataset).  Every
output is checked; a run that fails a check counts in ``failed``.  The last
line of standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, the sizes and the
sample counts.  ``--workload all`` runs every workload in turn.

With ``--trace 1`` the benchmark runs ``orkbench/traced_cli.py`` instead,
which wraps the ``orkmc`` layers in spans (see ``orkbench/tracing.py``), and
reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from orkbench import checks, tracing  # noqa: E402
from orkbench.proc import run_child  # noqa: E402
from orkbench.workloads import (  # noqa: E402
    TRACED_DATASETS, VIEWS, WORKLOADS, dataset_seed, make_dataset,
)

# (metric, unit, better).  "row" is one sample clustered: on the stream
# workload one arrival, timed by the gap between consecutive progress rows;
# a fit answers all N rows at once, so there every row takes wall_s / N.
# The 99th percentile of the stream gaps is on the detail line only: on a
# shared 2-core machine it measures scheduler preemptions more than orkmc.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("objective_final", "objective", "lower"),
    ("nmi", "nmi", "higher"),
    ("rows_per_s", "1/s", "higher"),
    ("row_p50_us", "us", "lower"),
)
SETUP_PROBES = 7
# A child gets CHILD_TIMEOUT_S, or less when the run's own RUN_LIMIT_S comes
# first; a child killed at the run's limit is counted apart from failures.
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
LOAD_ONLY = "import sys, orkmc.dataio as d; d.load(d.DatasetManifest.read(sys.argv[1]))"


class Dataset:
    """One generated dataset saved for the CLI: seed, manifest, true labels, bytes."""

    def __init__(self, w, seed: int, out_dir: str):
        from orkmc import dataio

        data = make_dataset(w, seed)
        self.seed = seed
        self.truth = data.labels
        self.manifest = dataio.save_dataset(data, out_dir)
        self.bytes = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir) if f.endswith(".csv")
        )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def git_state():
    """(commit sha, dirty flag) of the checkout, or (None, None) outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(status.strip())


def environment() -> dict:
    """Where and on what the numbers were taken."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha, dirty = git_state()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {
        k: os.environ[k]
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "default",
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def child_timeout(deadline: float):
    """(timeout, cut): a child's timeout, and whether the run's ``deadline``
    rather than CHILD_TIMEOUT_S sets it."""
    left = deadline - time.perf_counter()
    return (left, True) if left < CHILD_TIMEOUT_S else (CHILD_TIMEOUT_S, False)


def fit_sample(w, ds: Dataset, work: str, deadline: float):
    """One CLI run on ``ds``: (problems, sample metrics); problems is None
    when the run's deadline, not the program, stopped the child."""
    out = os.path.join(work, f"result-{ds.seed}.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, "-m", "orkmc.cli"] + w.cli_args(ds.manifest, out, ds.seed)
    timeout, cut = child_timeout(deadline)
    run = run_child(
        argv, cwd=ROOT, env=child_env(), stderr_path=os.path.join(work, "stderr.txt"),
        timeout_s=timeout,
    )
    if run.timed_out and cut:
        return None, None
    doc = checks.read_result(out)
    problems = output_problems(w, run, run.lines, doc, ds)
    if problems:
        return problems, None
    sample = {"wall_s": run.wall_s, "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb}
    sample.update(quality(doc, ds))
    if w.subcommand == "stream":
        rows = checks.progress_rows(run.lines)
        first = run.lines.index(rows[0])
        stamps = run.stamps[first:first + len(rows)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        span = stamps[-1] - stamps[0]
        sample["rows_per_s"] = len(gaps) / span if span > 0 else float("inf")
        sample["row_p50_us"] = 1e6 * statistics.median(gaps)
        sample["row_p99_us"] = 1e6 * statistics.quantiles(gaps, n=100, method="inclusive")[98]
        sample["row_samples"] = len(gaps)
    else:
        sample["rows_per_s"] = w.n / run.wall_s
        sample["row_p50_us"] = sample["row_p99_us"] = 1e6 * run.wall_s / w.n
        sample["row_samples"] = 1
    return [], sample


def output_problems(w, run, lines, doc, ds: Dataset) -> list:
    if run.timed_out:
        return ["timed out"]
    if run.returncode != 0:
        return [f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"]
    problems = checks.check_result(doc, n=w.n, k=w.k, algo=w.algo)
    problems += checks.check_summary(lines, doc, ds.truth)
    if w.subcommand == "stream":
        problems += checks.check_stream(lines, n=w.n, chushi=w.chushi, views=VIEWS)
    return problems


def quality(doc, ds: Dataset) -> dict:
    from orkmc import metrics

    return {
        "objective_final": float(doc["objective_trace"][-1]),
        "nmi": float(metrics.nmi(np.asarray(doc["result"]), ds.truth)),
    }


def setup_sample(ds: Dataset, work: str) -> float:
    """Wall time of a fresh process that imports orkmc and loads the manifest."""
    run = run_child(
        [sys.executable, "-c", LOAD_ONLY, ds.manifest], cwd=ROOT, env=child_env(),
        stderr_path=os.path.join(work, "stderr.txt"), timeout_s=CHILD_TIMEOUT_S,
    )
    if run.returncode != 0:
        raise RuntimeError(f"loading {ds.manifest} failed: {run.stderr.strip()[-300:]}")
    return run.wall_s


def traced_sample(w, ds: Dataset, work: str, trace: int, deadline: float):
    """One in-process CLI run through traced_cli.py: (problems, record), as
    for :func:`fit_sample`."""
    out = os.path.join(work, f"result-{ds.seed}.json")
    record = os.path.join(work, "record.json")
    for p in (out, record):
        if os.path.exists(p):
            os.remove(p)
    argv = [
        sys.executable, os.path.join(ROOT, "orkbench", "traced_cli.py"),
        "--trace", str(trace), "--record", record, "--",
    ] + w.cli_args(ds.manifest, out, ds.seed)
    timeout, cut = child_timeout(deadline)
    run = run_child(
        argv, cwd=ROOT, env=child_env(), stderr_path=os.path.join(work, "stderr.txt"),
        timeout_s=timeout,
    )
    if run.timed_out and cut:
        return None, None
    doc = checks.read_result(out)
    problems = output_problems(w, run, run.lines, doc, ds)
    if problems:
        return problems, None
    with open(record, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["result_bytes"] = os.path.getsize(out)
    rec["process_wall_s"] = run.wall_s
    return [], rec


def dataset_medians(per_dataset: dict, key: str) -> list:
    """Per dataset with at least one sample, the median of ``key`` over its samples."""
    return [statistics.median(s[key] for s in samples) for samples in per_dataset.values() if samples]


def mean_of_medians(per_dataset: dict, key: str):
    meds = dataset_medians(per_dataset, key)
    return statistics.fmean(meds) if meds else None


def run_rounds(datasets, seconds: float, deadline: float, step) -> None:
    """Call ``step(index, dataset, round)`` over every dataset, round after
    round, until ``seconds`` have passed; the first round completes unless
    the run's ``deadline`` comes first."""
    start = time.perf_counter()
    r = 0
    while True:
        for i, ds in enumerate(datasets):
            now = time.perf_counter()
            if now >= deadline or (r > 0 and now - start >= seconds):
                return
            step(i, ds, r)
        r += 1


class Tally:
    """Runs attempted and failed, with the first problems found, and the runs
    cut at the run's deadline (``problems`` None), which count as neither."""

    def __init__(self):
        self.attempted = self.failed = self.cut = 0
        self.problems: list = []

    def ok(self, label: str, problems) -> bool:
        if problems is None:
            self.cut += 1
            return False
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems


def end_to_end(w, datasets, seconds, deadline, work, tally: Tally, setup_probes: int):
    """The END_TO_END metrics, with tracing off."""
    setup = [setup_sample(datasets[i % len(datasets)], work) for i in range(setup_probes)]
    per_dataset: dict = {i: [] for i in range(len(datasets))}

    def step(i, ds, _r):
        bad, sample = fit_sample(w, ds, work, deadline)
        if tally.ok(f"dataset {ds.seed}", bad):
            per_dataset[i].append(sample)

    run_rounds(datasets, seconds, deadline, step)
    metrics = {
        name: statistics.median(setup) if name == "setup_s" else mean_of_medians(per_dataset, name)
        for name, *_ in END_TO_END
    }
    details = {
        "setup_samples": len(setup),
        "row_samples_per_fit": mean_of_medians(per_dataset, "row_samples"),
        "row_p99_us": mean_of_medians(per_dataset, "row_p99_us"),
        "wall_s_per_dataset": dataset_medians(per_dataset, "wall_s"),
        "nmi_per_dataset": dataset_medians(per_dataset, "nmi"),
        "objective_per_dataset": dataset_medians(per_dataset, "objective_final"),
    }
    return metrics, details, per_dataset


def per_layer(w, datasets, seconds, deadline, work, tally: Tally):
    """The PER_LAYER metrics from traced runs, and the tracing overhead."""
    traced: dict = {i: [] for i in range(len(datasets))}
    untraced: dict = {i: [] for i in range(len(datasets))}
    missing: set = set()

    def step(i, ds, r):
        # Alternate which of the pair runs first, so drift hits both alike.
        for t in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
            bad, rec = traced_sample(w, ds, work, t, deadline)
            if not tally.ok(f"dataset {ds.seed} trace={t}", bad):
                continue
            if t == 0:
                untraced[i].append({"main_wall_s": rec["wall_s"]})
                continue
            missing.update(tuple(m) for m in rec["missing"])
            io_bytes = {"dataio.load": ds.bytes, "dataio.save_result": rec["result_bytes"]}
            sample = tracing.layer_metrics(rec["spans"], rec["missing"], io_bytes)
            sample["wall_s"] = rec["process_wall_s"]
            sample["startup_s"] = rec["process_wall_s"] - rec["wall_s"]
            sample["main_wall_s"] = rec["wall_s"]
            traced[i].append(sample)

    run_rounds(datasets, seconds, deadline, step)
    metrics = {}
    for name, *_ in tracing.PER_LAYER:
        nulls = any(s[name] is None for samples in traced.values() for s in samples)
        metrics[name] = None if nulls else mean_of_medians(traced, name)
    ratios = [
        statistics.median(s["main_wall_s"] for s in traced[i])
        / statistics.median(s["main_wall_s"] for s in untraced[i]) - 1.0
        for i in traced if traced[i] and untraced[i]
    ]
    metrics[tracing.OVERHEAD[0]] = statistics.fmean(ratios) if ratios else None
    details = {
        "missing_attributes": sorted(attr for _, attr in missing),
        "wall_shares": wall_shares(metrics, traced),
    }
    return metrics, details, traced


def wall_shares(metrics: dict, traced: dict) -> dict:
    """Each seconds-valued layer metric, and the process start-up outside
    ``cli.main`` (interpreter, imports, exit), as a share of the traced
    process's wall time."""
    wall = mean_of_medians(traced, "wall_s")
    if not wall:
        return {}
    values = {"startup_s": mean_of_medians(traced, "startup_s")}
    values.update({name: metrics[name] for name, unit, *_ in tracing.PER_LAYER if unit == "s"})
    return {name: None if v is None else round(v / wall, 4) for name, v in values.items()}


def run_workload(w, seed: int, seconds: float, trace: int, work: str, setup_probes: int):
    """Measure one workload: (metrics, tally, detail record)."""
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    n_sets = min(TRACED_DATASETS, w.datasets) if trace else w.datasets
    datasets = [
        Dataset(w, dataset_seed(seed, i), os.path.join(work, f"data-{i}")) for i in range(n_sets)
    ]
    tally = Tally()
    if trace:
        metrics, details, samples = per_layer(w, datasets, seconds, deadline, work, tally)
    else:
        metrics, details, samples = end_to_end(
            w, datasets, seconds, deadline, work, tally, setup_probes,
        )
    details.update({
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "sizes": {
            "n": w.n, "k": w.k, "views": VIEWS, "features_per_view": w.j,
            "chushi": w.chushi or None, "nonneg": w.nonneg, "datasets": n_sets,
            "dataset_seeds": [ds.seed for ds in datasets],
        },
        "command": ["orkmc"] + w.cli_args("<manifest>", "<result>", "<dataset seed>"),
        "fits_per_dataset": [len(samples[i]) for i in range(n_sets)],
        "failed_frac": tally.failed / tally.attempted if tally.attempted else None,
        "cut_at_deadline": tally.cut,
        "problems": tally.problems[:5],
        "elapsed_s": time.perf_counter() - t_begin,
    })
    return metrics, tally, details


def units() -> dict:
    table = {name: unit for name, unit, _ in END_TO_END}
    table.update({name: unit for name, unit, *_ in tracing.PER_LAYER})
    table[tracing.OVERHEAD[0]] = tracing.OVERHEAD[1]
    return table


def result_line(metrics: dict, attempted: int, failed: int) -> dict:
    unit = units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k.split("/")[-1]]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one setup probe, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orkmc", "__init__.py")):
        print(f"error: no orkmc package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    env = environment()
    total_metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            w = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
            wdir = os.path.join(work, name)
            os.makedirs(wdir)
            metrics, tally, details = run_workload(
                w, args.seed, args.seconds, args.trace, wdir, 1 if args.smoke else SETUP_PROBES,
            )
            details["env"] = env
            print(json.dumps(details), flush=True)
            attempted += tally.attempted
            failed += tally.failed
            if len(names) == 1:
                total_metrics = metrics
            else:
                line = result_line(metrics, tally.attempted, tally.failed)
                print(json.dumps({"workload": name, **line}), flush=True)
                total_metrics.update({f"{name}/{k}": v for k, v in metrics.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    if not args.trace and any(v is None for v in total_metrics.values()):
        print("error: no successful run to measure", file=sys.stderr)
        return 1
    print(json.dumps(result_line(total_metrics, attempted, failed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
