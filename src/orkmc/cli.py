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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import baselines, dataio, datagen, metrics
from .errors import OrkmcError, UsageError
from .model import ClusterResult, HyperParams, MultiViewDataset
from .offline import RkmcConfig, rkmc_fit
from .online import orkmc_run

ALGORITHMS = ("rkmc", "orkmc", "kmeans", "pkmeans", "ogd", "omu")
SINGLE_VIEW_ALGOS = ("pkmeans", "ogd")
BENCH_HEADER = "dataset,algorithm,view,nmi,purity,fscore,elapsed_seconds,seed"
EVAL_METRICS = ("nmi", "purity", "precision", "recall", "fscore", "ri")


@dataclass(frozen=True)
class BenchRow:
    dataset: str
    algorithm: str
    view: str
    nmi: str
    purity: str
    fscore: str
    elapsed_seconds: str
    seed: str

    def line(self) -> str:
        return ",".join(
            (self.dataset, self.algorithm, self.view, self.nmi, self.purity,
             self.fscore, self.elapsed_seconds, self.seed)
        )


def _data_dir() -> str:
    return os.environ.get("ORKM_DATA_DIR", "data")


def _hyper_from_args(args, n_samples: int) -> HyperParams:
    chushi = args.chushi
    if chushi is None and args.algo in ("orkmc", "ogd", "omu"):
        chushi = max(args.k, n_samples // 10)
    return HyperParams(
        k=args.k,
        eta=args.yita,
        r=args.r,
        gamma=args.gamma,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        chushi=chushi,
        seed=args.seed,
    )


def _run_algorithm(algo: str, data: MultiViewDataset, hyper: HyperParams) -> ClusterResult:
    if algo == "rkmc":
        return rkmc_fit(data, RkmcConfig(hyper=hyper))
    if algo == "orkmc":
        return orkmc_run(data, hyper)
    if algo == "kmeans":
        return baselines.kmeans_fit(
            data, hyper.k, max_iter=hyper.max_iter, epsilon=hyper.epsilon, seed=hyper.seed
        )
    if algo == "pkmeans":
        return baselines.pkmeans_fit(data, hyper.k, max_iter=hyper.max_iter, seed=hyper.seed)
    if algo == "ogd":
        return baselines.ogd_fit(data, hyper.k, chushi=hyper.chushi, seed=hyper.seed)
    if algo == "omu":
        return baselines.omu_fit(
            data, hyper.k, chushi=hyper.chushi, max_iter=hyper.max_iter, seed=hyper.seed
        )
    raise UsageError(f"unknown algorithm {algo!r}")


def _scores(result: ClusterResult, data: MultiViewDataset):
    if data.labels is None:
        return None
    pred = result.assignment.hard_labels
    pair = metrics.pair_scores(pred, data.labels)
    return {
        "nmi": metrics.nmi(pred, data.labels),
        "purity": metrics.purity(pred, data.labels),
        "fscore": pair["fscore"],
    }


def _summary_line(algo: str, data: MultiViewDataset, result: ClusterResult) -> str:
    head = f"{algo} n={data.n_samples} k={result.assignment.k}"
    scores = _scores(result, data)
    if scores is None:
        return f"{head} nmi=NA"
    return (
        f"{head} nmi={scores['nmi']:.7f} purity={scores['purity']:.7f} "
        f"fscore={scores['fscore']:.7f}"
    )


def cmd_fit(args) -> int:
    data = dataio.load(dataio.DatasetManifest.read(args.data))
    hyper = _hyper_from_args(args, data.n_samples)
    result = _run_algorithm(args.algo, data, hyper)
    dataio.save_result(result, args.out)
    print(_summary_line(args.algo, data, result))
    return 0


def cmd_stream(args) -> int:
    if args.emit_every < 1:
        raise UsageError(f"--emit-every must be >= 1, got {args.emit_every}")
    data = dataio.load(dataio.DatasetManifest.read(args.data))
    hyper = _hyper_from_args(args, data.n_samples)
    n = data.n_samples
    chushi = hyper.chushi
    alpha_header = ",".join(f"alpha_{v + 1}" for v in range(data.n_views))
    print(f"t,objective,{alpha_header}")

    def emit(t: int, objective: float, alpha: np.ndarray) -> None:
        due = t == chushi or (t - chushi) % args.emit_every == 0 or t == n
        if due:
            cols = ",".join(repr(float(a)) for a in alpha)
            print(f"{t},{objective!r},{cols}")

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
                spec = replace(scenario.spec_for(n), seed=args.seed)
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


def _fmt_metric(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.7f}"


def _bench_rows(dataset_name, data, algo, view_label, hyper) -> BenchRow:
    result = _run_algorithm(algo, data, hyper)
    scores = _scores(result, data)
    return BenchRow(
        dataset=dataset_name,
        algorithm=algo,
        view=view_label,
        nmi=_fmt_metric(None if scores is None else scores["nmi"]),
        purity=_fmt_metric(None if scores is None else scores["purity"]),
        fscore=_fmt_metric(None if scores is None else scores["fscore"]),
        elapsed_seconds=f"{result.elapsed_seconds:.4f}",
        seed=str(hyper.seed),
    )


def _bench_dataset(dataset_name, data, seed, k, eta, r, chushi, max_iter, gamma=None) -> list:
    hyper = HyperParams(
        k=k, eta=eta, r=r, gamma=gamma, epsilon=1e-4,
        max_iter=max_iter, chushi=min(chushi, data.n_samples), seed=seed,
    )
    rows = []
    for algo in ("rkmc", "orkmc", "kmeans", "omu"):
        rows.append(_bench_rows(dataset_name, data, algo, "all", hyper))
    for v in range(data.n_views):
        single = data.single_view(v)
        for algo in SINGLE_VIEW_ALGOS:
            rows.append(_bench_rows(dataset_name, single, algo, str(v + 1), hyper))
    return rows


def _median_rows(rows: list) -> list:
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.dataset, row.algorithm, row.view), []).append(row)
    out = []
    for (dataset, algo, view), members in groups.items():
        def med(values):
            vals = [float(v) for v in values if v != ""]
            return "" if not vals else f"{float(np.median(vals)):.7f}"

        out.append(
            BenchRow(
                dataset=dataset,
                algorithm=algo,
                view=view,
                nmi=med([m.nmi for m in members]),
                purity=med([m.purity for m in members]),
                fscore=med([m.fscore for m in members]),
                elapsed_seconds="",
                seed="median",
            )
        )
    return out


def _seed_sort_key(row: BenchRow):
    try:
        return (0, int(row.seed))
    except ValueError:
        return (1, 0)


def cmd_bench(args) -> int:
    rows: list[BenchRow] = []
    skipped = False
    if args.suite in ("case1-single", "case2-multi"):
        scenario = datagen.preset(args.suite)
        for seed in range(args.seeds):
            data = datagen.generate(replace(scenario.sim, seed=seed))
            rows += _bench_dataset(
                args.suite, data, seed, k=scenario.sim.k, eta=scenario.eta,
                r=0.5, chushi=scenario.chushi_for(), max_iter=100,
            )
    elif args.suite == "qcm":
        path = None
        for cand in ("QCM.csv", "qcm.csv"):
            p = os.path.join(_data_dir(), cand)
            if os.path.exists(p):
                path = p
                break
        if path is None:
            skipped = True
        else:
            data = dataio.load_qcm(path)
            for seed in range(args.seeds):
                rows += _bench_dataset(
                    "qcm", data, seed, k=5, eta=110.0, r=0.5,
                    chushi=62, max_iter=100,
                )
    elif args.suite == "movie":
        p = os.path.join(_data_dir(), "movie.manifest.json")
        if not os.path.exists(p):
            skipped = True
        else:
            manifest = dataio.DatasetManifest.read(p)
            data = dataio.load(manifest)
            for seed in range(args.seeds):
                rows += _bench_dataset(
                    "movie", data, seed, k=manifest.k_true or 17, eta=0.5,
                    r=0.5, chushi=600, max_iter=10, gamma=1e-5,
                )
    else:
        raise UsageError(f"unknown suite {args.suite!r}")

    lines = [BENCH_HEADER]
    if skipped:
        lines.append(f"{args.suite},ALL,all,SKIPPED,SKIPPED,SKIPPED,SKIPPED,")
        print(f"suite {args.suite}: dataset files not found under {_data_dir()!r}; SKIPPED")
    else:
        rows = rows + _median_rows(rows)
        rows.sort(key=lambda r: (r.dataset, r.algorithm, r.view, _seed_sort_key(r)))
        lines += [r.line() for r in rows]
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
        p.add_argument("--k", required=True, type=int, help="number of clusters")
        p.add_argument("--yita", "--eta", dest="yita", type=float, default=1.0,
                       help="regularization strength")
        p.add_argument("--r", type=float, default=0.5, help="balance exponent")
        p.add_argument("--gamma", type=float, default=None,
                       help="gradient step length (default: automatic)")
        p.add_argument("--epsilon", type=float, default=1e-4, help="stop threshold")
        p.add_argument("--chushi", "--init-size", dest="chushi", type=int, default=None,
                       help="initial batch size for the online solvers")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
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


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
