"""Command-line front end.

Five subcommands expose the solvers and the evaluation machinery::

    orkmc fit       run one solver on a dataset manifest, write a result JSON
    orkmc stream    run the online solver, emitting progress rows as CSV
    orkmc eval      score a predicted labeling against ground truth
    orkmc bench     run every algorithm over a suite of seeds, write a table
    orkmc simulate  write a synthetic dataset (views + labels + manifest)

Flags mirror the original interface (``--yita``, ``--chushi``) with English
aliases (``--eta``, ``--init-size``).  Exit codes: 0 success, 1 runtime or
data error, 2 usage error.  ``ORKM_DATA_DIR`` overrides the directory searched
for the real datasets used by ``bench``.

Run as ``orkmc`` or ``python -m orkmc.cli``, the process uses one OpenBLAS
thread unless ``OPENBLAS_NUM_THREADS`` is already set: numpy's BLAS worker
threads would spin at start-up for no gain (see :mod:`orkmc._entry`).  To give
BLAS more threads, set the variable, e.g. ``OPENBLAS_NUM_THREADS=4 orkmc fit
...``.  Calling :func:`main` from Python leaves the threading as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import groupby

if __name__ == "__main__":  # python -m orkmc.cli: the entry default, before numpy loads
    from ._entry import default_blas_threads

    default_blas_threads()

import numpy as np

from . import baselines, dataio, datagen, metrics
from .errors import OrkmcError, UsageError
from .model import ClusterResult, HyperParams, MultiViewDataset, with_initial_batch
from .offline import rkmc_fit
from .online import orkmc_run

ALGORITHMS = ("rkmc", "orkmc", "kmeans", "pkmeans", "ogd", "omu")
SINGLE_VIEW_ALGOS = ("pkmeans", "ogd")
BENCH_HEADER = "dataset,algorithm,view,nmi,purity,fscore,elapsed_seconds,seed"
BENCH_METRICS = ("nmi", "purity", "fscore")
EVAL_METRICS = ("nmi", "purity", "precision", "recall", "fscore", "ri")


def _data_dir() -> str:
    return os.environ.get("ORKM_DATA_DIR", "data")


def _hyper_from_args(args) -> HyperParams:
    """Validate every hyperparameter flag; runs before the dataset is parsed."""
    return HyperParams(
        k=args.k,
        eta=args.yita,
        r=args.r,
        gamma=args.gamma,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        chushi=args.chushi,
        seed=args.seed,
    )


def _run_algorithm(algo: str, data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    """Call solver ``algo`` as ``fit(data, hyper)``.  The solver is looked up
    when called (this module's ``rkmc_fit``/``orkmc_run``, else
    ``baselines.<algo>_fit``), so a function replaced after import is used."""
    if algo == "rkmc":
        return rkmc_fit(data, hyper)
    if algo == "orkmc":
        return orkmc_run(data, hyper)
    return getattr(baselines, f"{algo}_fit")(data, hyper)


def _scores(result: ClusterResult, data: MultiViewDataset):
    if data.labels is None:
        return None
    pred = result.labels
    pair = metrics.pair_scores(pred, data.labels)
    return {
        "nmi": result.nmi,
        "purity": metrics.purity(pred, data.labels),
        "fscore": pair["fscore"],
    }


def _summary_line(algo: str, data: MultiViewDataset, result: ClusterResult) -> str:
    head = f"{algo} n={data.n_samples} k={result.assignment.shape[1]}"
    scores = _scores(result, data)
    if scores is None:
        return f"{head} nmi=NA"
    return (
        f"{head} nmi={scores['nmi']:.7f} purity={scores['purity']:.7f} "
        f"fscore={scores['fscore']:.7f}"
    )


def cmd_fit(args) -> int:
    hyper = _hyper_from_args(args)
    data = dataio.load(dataio.DatasetManifest.read(args.data))
    result = _run_algorithm(args.algo, data, hyper)
    dataio.save_result(result, args.out)
    print(_summary_line(args.algo, data, result))
    return 0


def cmd_stream(args) -> int:
    if args.emit_every < 1:
        raise UsageError(f"--emit-every must be >= 1, got {args.emit_every}")
    hyper = _hyper_from_args(args)
    data = dataio.load(dataio.DatasetManifest.read(args.data))
    hyper = with_initial_batch(hyper, data.n_samples)
    n = data.n_samples
    chushi = hyper.chushi
    alpha_header = ",".join(f"alpha_{v + 1}" for v in range(data.n_views))
    print(f"t,objective,{alpha_header}")

    def emit(t: int, objective: float, alpha: np.ndarray) -> None:
        # One write per row; stdout is line-buffered on a terminal, so rows stay live.
        if t == chushi or (t - chushi) % args.emit_every == 0 or t == n:
            sys.stdout.write(f"{t},{objective!r},{','.join(map(repr, alpha.tolist()))}\n")

    result = orkmc_run(data, hyper, progress=emit)
    dataio.save_result(result, args.out)
    print(_summary_line("orkmc", data, result))
    return 0


def cmd_eval(args) -> int:
    pred = dataio.read_labels(args.pred)
    truth = dataio.read_labels(args.truth)
    values = {}
    if args.metric in ("nmi", "all"):
        values["nmi"] = metrics.nmi(pred, truth)
    if args.metric in ("purity", "all"):
        values["purity"] = metrics.purity(pred, truth)
    if args.metric in ("precision", "recall", "fscore", "ri", "all"):
        pair = metrics.pair_scores(pred, truth)
        pair["ri"] = pair.pop("rand_index")
        if args.metric == "all":
            values.update({m: pair[m] for m in ("precision", "recall", "fscore", "ri")})
        else:
            values[args.metric] = pair[args.metric]
    for name in EVAL_METRICS:
        if name in values:
            print(f"{name},{values[name]:.7f}")
    return 0


def cmd_simulate(args) -> int:
    if args.preset is not None:
        scenario = datagen.preset(args.preset)
        if scenario.n_grid is not None:
            paths = []
            for n in scenario.n_grid:
                spec = replace(scenario.sim, n=n, seed=args.seed)
                sub = os.path.join(args.out_dir, f"n{n}")
                paths.append(dataio.save_dataset(datagen.generate(spec), sub))
            for p in paths:
                print(p)
            return 0
        spec = replace(scenario.sim, seed=args.seed)
    else:
        if args.n is None or args.k is None:
            raise UsageError("simulate needs --preset or both --n and --k")
        spec = datagen.SimSpec(
            n=args.n, k=args.k, v=args.v, j=args.j,
            separation=args.separation, seed=args.seed,
        )
    manifest_path = dataio.save_dataset(datagen.generate(spec), args.out_dir)
    print(manifest_path)
    return 0


def _bench_runs(name, data, seed, k, eta, chushi, max_iter, gamma=None) -> list:
    """Fit the four multi-view algorithms on all of ``data``'s views, then
    ``SINGLE_VIEW_ALGOS`` on each view, at r and epsilon's ``HyperParams``
    defaults.  Returns one ``((name, algorithm, view), seed, scores, elapsed)``
    tuple per fit, ``scores`` as from :func:`_scores`."""
    hyper = HyperParams(
        k=k, eta=eta, gamma=gamma, max_iter=max_iter,
        chushi=min(chushi, data.n_samples), seed=seed,
    )
    fits = [(algo, "all", data) for algo in ("rkmc", "orkmc", "kmeans", "omu")]
    for v in range(data.n_views):
        fits += [(algo, str(v + 1), data.single_view(v)) for algo in SINGLE_VIEW_ALGOS]
    runs = []
    for algo, view, fit_data in fits:
        result = _run_algorithm(algo, fit_data, hyper)
        runs.append(((name, algo, view), seed, _scores(result, fit_data), result.elapsed_seconds))
    return runs


def _bench_lines(runs) -> list:
    """Per (dataset, algorithm, view), in sorted order: one row per fit in
    ascending seed order, then the median row.  Unscored cells are empty."""
    lines = []
    for key, group in groupby(sorted(runs, key=lambda run: run[:2]), key=lambda run: run[0]):
        rows = [(scores, f"{elapsed:.4f}", str(seed)) for _, seed, scores, elapsed in group]
        scored = [scores for scores, _, _ in rows if scores is not None]
        # Medians of the 7-decimal cells, as printed: with an even seed count the
        # median is a mean of two values.  round(v, 7) is the double nearest the
        # correctly rounded decimal, as float(f"{v:.7f}") is.
        median = {
            m: float(np.median([round(s[m], 7) for s in scored])) for m in BENCH_METRICS
        } if scored else None
        rows.append((median, "", "median"))
        for scores, elapsed, seed in rows:
            cells = ("",) * 3 if scores is None else (f"{scores[m]:.7f}" for m in BENCH_METRICS)
            lines.append(",".join((*key, *cells, elapsed, seed)))
    return lines


def _bench_suite(suite: str):
    """``(dataset name, data for a seed, settings for _bench_runs)`` of a bench
    suite, or None when the suite's data files are missing."""
    if suite in ("case1-single", "case2-multi"):
        scenario = datagen.preset(suite)
        settings = dict(k=scenario.sim.k, eta=scenario.eta, chushi=scenario.chushi,
                        max_iter=100)
        return suite, lambda seed: datagen.generate(replace(scenario.sim, seed=seed)), settings
    if suite == "qcm":
        paths = [os.path.join(_data_dir(), f) for f in ("QCM.csv", "qcm.csv")]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            return None
        data = dataio.load_qcm(path)
        return "qcm", lambda seed: data, dict(k=5, eta=110.0, chushi=62, max_iter=100)
    if suite == "movie":
        path = os.path.join(_data_dir(), "movie.manifest.json")
        if not os.path.exists(path):
            return None
        manifest = dataio.DatasetManifest.read(path)
        data = dataio.load(manifest)
        settings = dict(k=manifest.k_true or 17, eta=0.5, chushi=600, max_iter=10, gamma=1e-5)
        return "movie", lambda seed: data, settings
    raise UsageError(f"unknown suite {suite!r}")


def cmd_bench(args) -> int:
    """Write ``args.suite``'s table over seeds 0..seeds-1 as a CSV with the
    ``BENCH_HEADER`` columns: one row per fit, then a median row (seed
    ``median``) per (dataset, algorithm, view), then a ``dmc,all,external``
    row for the method scored outside the package.  When the qcm or movie
    data files are missing, one ``SKIPPED`` row replaces them all."""
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    lines = [BENCH_HEADER]
    found = _bench_suite(args.suite)
    if found is None:
        lines.append(f"{args.suite},ALL,all,SKIPPED,SKIPPED,SKIPPED,SKIPPED,")
        print(f"suite {args.suite}: dataset files not found under {_data_dir()!r}; SKIPPED")
    else:
        name, data_for_seed, settings = found
        runs = []
        for seed in range(args.seeds):
            runs += _bench_runs(name, data_for_seed(seed), seed, **settings)
        lines += _bench_lines(runs)
        lines.append(f"{args.suite},dmc,all,external,external,external,external,")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orkmc",
        description="Regularized K-means clustering for multi-view data, offline and online.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fit_flags(p, algos=ALGORITHMS):
        p.add_argument("--algo", required=True, choices=algos)
        p.add_argument("--data", required=True, help="dataset manifest (JSON)")
        p.add_argument("--k", required=True, type=int, help="number of clusters (all)")
        p.add_argument("--yita", "--eta", dest="yita", type=float, default=HyperParams.eta,
                       help="regularization strength (rkmc, orkmc)")
        p.add_argument("--r", type=float, default=HyperParams.r,
                       help="view-weight balance exponent (orkmc; at r <= 1 the view with "
                            "the smallest residual takes all the weight)")
        p.add_argument("--gamma", type=float, default=None,
                       help="gradient step length (orkmc; default: 1 / the largest curvature "
                            "of each row's objective along the simplex)")
        p.add_argument("--epsilon", type=float, default=HyperParams.epsilon,
                       help="stop threshold on the largest move of one center within one "
                            "view (rkmc, orkmc, kmeans)")
        p.add_argument("--chushi", "--init-size", dest="chushi", type=int, default=None,
                       help="initial batch size (orkmc, ogd, omu; default: max(k, n // 10))")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=HyperParams.max_iter,
                       help="iteration cap (rkmc, orkmc, kmeans, pkmeans, omu)")
        p.add_argument("--seed", type=int, default=HyperParams.seed, help="random seed (all)")
        p.add_argument("--out", required=True, help="result JSON path")

    p_fit = sub.add_parser("fit", help="run one solver on a dataset")
    add_fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_stream = sub.add_parser("stream", help="run the online solver with progress rows")
    add_fit_flags(p_stream, algos=("orkmc",))
    p_stream.add_argument("--emit-every", dest="emit_every", type=int, default=1)
    p_stream.set_defaults(func=cmd_stream)

    p_eval = sub.add_parser("eval", help="score predicted labels against ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--metric", required=True, choices=EVAL_METRICS + ("all",))
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run the comparison table for a suite")
    p_bench.add_argument("--suite", required=True,
                         choices=("case1-single", "case2-multi", "qcm", "movie"))
    p_bench.add_argument("--seeds", type=int, default=5)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    p_sim.add_argument("--preset", default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--k", type=int, default=None)
    p_sim.add_argument("--v", type=int, default=1)
    p_sim.add_argument("--j", type=int, default=2)
    p_sim.add_argument("--separation", type=float, default=6.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", dest="out_dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OrkmcError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
