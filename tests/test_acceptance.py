"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE Cn: PASS/FAIL`` line (run with ``-s``
to see them live) and enforces both the behavioral bar and the stated runtime
budget.  C9 skips itself when the real QCM file has not been downloaded.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import time
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import oracles
from orkmc import (
    HyperParams,
    MultiViewDataset,
    nnls,
    project_simplex,
    rkmc_fit,
)
from orkmc.baselines import (
    kmeans_fit,
    mu_update_centers,
    mu_update_rows,
    nearest_center_labels,
    pkmeans_fit,
    power_mean_objective,
    power_mm_step,
)
from orkmc.cli import main as cli_main
from orkmc.dataio import load_qcm, load_result, save_dataset
from orkmc.datagen import SimSpec, add_shuffled_noise_view, generate, preset
from orkmc.errors import ConvergenceWarning, RidgeFallbackWarning
from orkmc.kernels import _active_set, assignment_qp, one_hot
from orkmc.metrics import nmi, pair_scores, purity
from orkmc.model import CenterSet
from orkmc.offline import update_M
from orkmc.online import orkmc_run


class Criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, name, limit_seconds):
        self.name = name
        self.limit = limit_seconds
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s ({exc})")
            return False
        within = elapsed < self.limit
        verdict = "PASS" if within else "FAIL (runtime)"
        print(
            f"ACCEPTANCE {self.name}: {verdict} "
            f"({elapsed:.2f}s, limit {self.limit:.0f}s) {self.detail}"
        )
        assert within, f"{self.name} exceeded its runtime budget"
        return False


def _qcm_path():
    base = os.environ.get("ORKM_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))
    for name in ("QCM.csv", "qcm.csv"):
        p = os.path.join(base, name)
        if os.path.exists(p):
            return p
    return None


@lru_cache(maxsize=1)
def _case1_runs():
    """RKMC and ORKMC NMI over 20 seeds of the case1-single preset."""
    scenario = preset("case1-single")
    pairs = []
    for seed in range(20):
        data = generate(replace(scenario.sim, seed=seed))
        hyper = HyperParams(
            k=scenario.sim.k, eta=scenario.eta, chushi=scenario.chushi, seed=seed
        )
        offline_nmi = rkmc_fit(data, hyper).nmi
        online_nmi = orkmc_run(data, hyper).nmi
        pairs.append((offline_nmi, online_nmi))
    return pairs


def test_c01_metric_identity():
    with Criterion("C1 metric identity", 1.0) as crit:
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            labels = rng.integers(1, int(rng.integers(2, 6)) + 1, size=n)
            relabeling = (rng.permutation(10) + 1)[labels - 1]
            for other in (labels, relabeling):
                assert nmi(labels, other) == 1.0
                assert purity(labels, other) == 1.0
                scores = pair_scores(labels, other)
                assert scores["fscore"] == 1.0
                assert scores["rand_index"] == 1.0
        crit.detail = "50 partitions, self and relabeled, all metrics exactly 1"


def test_c02_metric_oracle_equivalence():
    with Criterion("C2 metric oracles", 5.0) as crit:
        rng = np.random.default_rng(102)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            assert nmi(a, b) == pytest.approx(oracles.nmi_direct(a, b), abs=1e-12)
            assert purity(a, b) == pytest.approx(oracles.purity_direct(a, b), abs=1e-12)
            got = pair_scores(a, b)
            want = oracles.pair_scores_direct(a, b)
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-12)
        crit.detail = "200 label pairs vs enumeration oracle at 1e-12"


def test_c03_rkmc_monotonicity():
    with Criterion("C3 RKMC monotonicity", 30.0) as crit:
        rng = np.random.default_rng(103)
        etas = (0.0, 0.5, 5.0)
        checked = ridged = 0
        for i in range(50):
            n = int(rng.integers(8, 61))
            k = int(rng.integers(2, 5))
            v = int(rng.integers(1, 4))
            views = tuple(
                rng.normal(size=(n, int(rng.integers(1, 4)))) * 2 for _ in range(v)
            )
            data = MultiViewDataset(views=views)
            hyper = HyperParams(k=k, eta=etas[i % 3], max_iter=20, seed=i)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error", ConvergenceWarning)
                warnings.simplefilter("always", RidgeFallbackWarning)
                res = rkmc_fit(data, hyper)
            ridged += any(w.category is RidgeFallbackWarning for w in caught)
            trace = res.objective_trace
            for t in range(1, len(trace)):
                assert trace[t] <= trace[t - 1] + 1e-9, (i, t)
                checked += 1
        crit.detail = (
            f"50 fits ({ridged} took the ridge rule), {checked} consecutive-step "
            "comparisons"
        )


def test_c04_lloyd_reduction():
    with Criterion("C4 Lloyd reduction", 10.0) as crit:
        rng = np.random.default_rng(104)
        for i in range(20):
            n = int(rng.integers(12, 50))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, 2)) * 2.5
            centers0 = x[rng.choice(n, size=k, replace=False)].copy()
            data, m = MultiViewDataset(views=(x,)), CenterSet((centers0.copy(),))
            # RKMC's center block at one-hot assignments is Lloyd's mean step.
            # Iteration 0 is the first assignment; iteration t follows t center steps.
            ours = [nearest_center_labels(x, m.centers[0])]
            for _ in range(10):
                m = update_M(data, one_hot(ours[-1], k), prev=m)
                ours.append(nearest_center_labels(x, m.centers[0]))
            reference = oracles.lloyd_reference(x, centers0, len(ours))
            for t, (got, want) in enumerate(zip(ours, reference)):
                assert np.array_equal(got, want), (i, t)
        crit.detail = "20 instances, labels identical to reference Lloyd at iterations 0-10"


def test_c05_simulation_anchor():
    with Criterion("C5 simulation anchor", 60.0) as crit:
        pairs = _case1_runs()
        ok_offline = sum(a >= 0.95 for a, _ in pairs)
        ok_online = sum(b >= 0.95 for _, b in pairs)
        assert ok_offline >= 18, f"RKMC hit 0.95 in only {ok_offline}/20 seeds"
        assert ok_online >= 18, f"ORKMC hit 0.95 in only {ok_online}/20 seeds"
        crit.detail = f"NMI >= 0.95: RKMC {ok_offline}/20, ORKMC {ok_online}/20"


def test_c06_multi_view_weight_sanity():
    with Criterion("C6 weight sanity", 60.0) as crit:
        wins = 0
        for seed in range(20):
            base = generate(SimSpec(n=210, k=3, v=1, j=2, seed=seed))
            data = add_shuffled_noise_view(base, seed=seed)
            hyper = HyperParams(k=3, eta=20.0, r=2.0, chushi=130, seed=seed)
            res = orkmc_run(data, hyper)
            wins += res.weights[0] > res.weights[1]
        assert wins >= 18, f"informative view won only {wins}/20 seeds"
        crit.detail = f"informative-view weight larger in {wins}/20 seeds"


def test_c07_online_offline_proximity():
    with Criterion("C7 online/offline proximity", 60.0) as crit:
        pairs = _case1_runs()
        close = sum(abs(a - b) <= 0.15 for a, b in pairs)
        assert close >= 18, f"only {close}/20 seeds within 0.15 NMI"
        crit.detail = f"|NMI diff| <= 0.15 in {close}/20 seeds"


def test_c08_kernel_oracles():
    with Criterion("C8 kernel oracles", 30.0) as crit:
        rng = np.random.default_rng(108)
        for _ in range(1000):
            y = rng.normal(size=int(rng.integers(1, 6))) * rng.uniform(0.5, 4)
            np.testing.assert_allclose(
                project_simplex(y), oracles.project_simplex_enum(y), atol=1e-8
            )
        for _ in range(1000):
            k = int(rng.integers(2, 4))
            b = rng.normal(size=(k, k))
            h = b @ b.T + 2.0 * float(rng.uniform(0.05, 2.0)) * np.eye(k)
            c = rng.normal(size=k) * 2
            u = _active_set(h, c[None], np.full((1, k), 1.0 / k), True)[0]
            _, val_ref = oracles.row_qp_enum(h, c)
            assert 0.5 * u @ h @ u - c @ u == pytest.approx(val_ref, abs=1e-8)
        for _ in range(500):
            cols = int(rng.integers(1, 4))
            a = rng.normal(size=(int(rng.integers(cols, 7)), cols))
            bvec = rng.normal(size=a.shape[0])
            x = nnls(a, bvec)
            x_ref = oracles.nnls_enum(a, bvec)
            assert float(np.sum((a @ x - bvec) ** 2)) == pytest.approx(
                float(np.sum((a @ x_ref - bvec) ** 2)), abs=1e-8
            )
        crit.detail = "1000 projections, 1000 row QPs, 500 NNLS against oracles"


def test_c09_qcm_anchor():
    path = _qcm_path()
    if path is None:
        print("ACCEPTANCE C9 QCM anchor: SKIP (QCM.csv not found in $ORKM_DATA_DIR, default data/)")
        pytest.skip("QCM data file not downloaded")
    with Criterion("C9 QCM anchor", 30.0) as crit:
        data = load_qcm(path)
        best_offline = best_online = 0.0
        for seed in range(10):
            hyper = HyperParams(k=5, eta=110.0, r=0.5, chushi=62, max_iter=100, seed=seed)
            res = rkmc_fit(data, hyper)
            best_offline = max(best_offline, purity(res.labels, data.labels))
            res2 = orkmc_run(data, hyper)
            best_online = max(best_online, purity(res2.labels, data.labels))
        assert best_offline >= 0.40, f"best RKMC purity {best_offline:.3f}"
        assert best_online >= 0.45, f"best ORKMC purity {best_online:.3f}"
        crit.detail = f"best-of-10 purity: RKMC {best_offline:.3f}, ORKMC {best_online:.3f}"


def test_c10_performance_envelope():
    with Criterion("C10 performance envelope", 10.0) as crit:
        data = generate(SimSpec(n=125, k=5, v=1, j=10, seed=0))
        hyper = HyperParams(k=5, eta=110.0, r=0.5, max_iter=100, seed=0)
        t0 = time.perf_counter()
        rkmc_fit(data, hyper)
        offline_time = time.perf_counter() - t0
        assert offline_time < 1.0, f"RKMC on 125x10 took {offline_time:.2f}s"

        stream = generate(SimSpec(n=10_000, k=5, v=1, j=10, seed=1))
        hyper2 = HyperParams(k=5, eta=1.0, chushi=500, seed=1)
        t0 = time.perf_counter()
        orkmc_run(stream, hyper2)
        online_time = time.perf_counter() - t0
        assert online_time < 5.0, f"ORKMC 10k stream took {online_time:.2f}s"
        crit.detail = f"RKMC 125x10 {offline_time:.2f}s < 1s; ORKMC 10k {online_time:.2f}s < 5s"


def _masked_result_json(result) -> str:
    import orkmc.dataio as dataio_mod
    import tempfile

    with tempfile.NamedTemporaryFile("w+", suffix=".json", delete=False) as fh:
        path = fh.name
    try:
        dataio_mod.save_result(result, path)
        doc = load_result(path)
    finally:
        os.unlink(path)
    doc["elapsed_seconds"] = None
    return json.dumps(doc, sort_keys=True)


def test_c11_determinism(tmp_path):
    with Criterion("C11 determinism", 120.0) as crit:
        from orkmc.baselines import ogd_fit, omu_fit

        data = generate(SimSpec(n=80, k=3, v=2, j=2, seed=4))
        single = data.single_view(0)
        hyper = HyperParams(k=3, eta=1.0, chushi=30, seed=9)
        runs = {
            "rkmc": lambda: rkmc_fit(data, hyper),
            "orkmc": lambda: orkmc_run(data, hyper),
            "kmeans": lambda: kmeans_fit(data, replace(hyper, epsilon=1e-6)),
            "pkmeans": lambda: pkmeans_fit(single, hyper),
            "ogd": lambda: ogd_fit(single, hyper),
            "omu": lambda: omu_fit(data, replace(hyper, max_iter=50)),
        }
        for name, fit in runs.items():
            assert _masked_result_json(fit()) == _masked_result_json(fit()), name

        texts = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            code = cli_main(["bench", "--suite", "case2-multi", "--seeds", "2",
                             "--out", str(out)])
            assert code == 0
            rows = []
            for line in out.read_text().strip().splitlines():
                cells = line.split(",")
                if len(cells) == 8:
                    cells[6] = "T"
                rows.append(",".join(cells))
            texts.append("\n".join(rows))
        assert texts[0] == texts[1]
        crit.detail = "6 solvers and the bench suite byte-identical across reruns"


def test_c12_baseline_properties():
    with Criterion("C12 baseline properties", 60.0) as crit:
        rng = np.random.default_rng(112)

        # kmeans SSE monotone
        for seed in range(10):
            data = generate(SimSpec(n=60, k=3, v=1, j=2, seed=seed))
            trace = kmeans_fit(data, HyperParams(k=3, epsilon=1e-6, seed=seed)).objective_trace
            for i in range(1, len(trace)):
                assert trace[i] <= trace[i - 1] + 1e-9

        # pkmeans MM monotone at fixed s
        x = rng.normal(size=(40, 3)) * 2
        centers = x[rng.choice(40, size=3, replace=False)].copy()
        for s in (-1.0, -5.0, -100.0):
            current = centers.copy()
            for _ in range(20):
                after = power_mm_step(x, current, s)
                assert power_mean_objective(x, after, s) <= (
                    power_mean_objective(x, current, s) + 1e-9
                )
                current = after

        # pkmeans at s=-100 agrees with Lloyd labels from its converged centers
        for seed in range(20):
            data = generate(SimSpec(n=40, k=3, v=1, j=2, seed=seed))
            res = pkmeans_fit(data, HyperParams(k=3, max_iter=120, seed=seed))
            lloyd = nearest_center_labels(data.views[0], res.centers.centers[0])
            assert np.array_equal(res.labels, lloyd)

        # omu preserves nonnegativity exactly across random streams
        for stream in range(50):
            srng = np.random.default_rng(1000 + stream)
            n, k, j = 20, 3, 2
            x = np.abs(srng.normal(size=(n, j)))
            u = np.abs(srng.normal(size=(n, k))) + 1e-9
            m = np.abs(srng.normal(size=(k, j))) + 1e-9
            for _ in range(8):
                u = mu_update_rows(u, *assignment_qp([x], [m], np.ones(1), 0.0))
                m = mu_update_centers(m, u.T @ x, u.T @ u)
                assert np.all(u >= 0.0) and np.all(m >= 0.0)
        crit.detail = "kmeans SSE, power-mean MM, s=-100 vs Lloyd, OMU nonnegativity"
