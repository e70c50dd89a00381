"""Tests of the benchmark itself: metrics emitted, checks, spans, missing layers."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from orkbench import checks, tracing
from orkbench.proc import run_child
from orkbench.run import END_TO_END, Tally
from orkbench.workloads import VIEWS, WORKLOADS, make_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "orkbench", "run.py")


def _bench(*args):
    return subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _results(proc) -> dict:
    """Per-workload result objects printed by ``--workload all``."""
    assert proc.returncode == 0, proc.stderr
    out = {}
    for line in proc.stdout.splitlines():
        doc = json.loads(line)
        if "workload" in doc and "metrics" in doc:
            out[doc["workload"]] = doc
    return out


@pytest.fixture(scope="module")
def smoke_e2e():
    return _results(_bench("--workload", "all", "--trace", "0", "--smoke"))


@pytest.fixture(scope="module")
def smoke_traced():
    return _results(_bench("--workload", "all", "--trace", "1", "--smoke"))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == [m[:3] for m in tracing.PER_LAYER] + [tracing.OVERHEAD]


def test_every_end_to_end_metric_is_emitted_with_its_unit(smoke_e2e, spec):
    assert set(smoke_e2e) == set(WORKLOADS)
    for doc in smoke_e2e.values():
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        for m in spec["end_to_end"]:
            got = doc["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float) and got["value"] > 0


def test_traced_run_emits_every_layer_metric_and_the_predicted_split(smoke_traced, spec):
    for doc in smoke_traced.values():
        assert doc["correct"]
        for m in spec["per_layer"]:
            assert doc["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(doc["metrics"][m["name"]]["value"], float)

    def value(workload, metric):
        return smoke_traced[workload]["metrics"][metric]["value"]

    for name, w in WORKLOADS.items():
        smoke = w.smoke()
        assert (value(name, "kernels.nnls.calls") > 0) == (name == "rkmc-nonneg")
        steps = value(name, "online.orkmc_step.calls")
        assert steps == (smoke.n - smoke.chushi if name == "stream" else 0)
        assert (value(name, "offline.update_U.calls") > 0) == name.startswith("rkmc")
        # The stream's progress rows are formatted and printed inside orkmc_run.
        assert (value(name, "online.orkmc_run.self_s") > 0) == (name == "stream")


def _fit(tmp_path, workload: str):
    """Run a smoke-sized CLI fit in-process; return (lines, doc, truth, workload)."""
    from orkmc import cli, dataio

    w = WORKLOADS[workload].smoke()
    data = make_dataset(w, 5)
    manifest = dataio.save_dataset(data, tmp_path / "data")
    out = str(tmp_path / "result.json")
    log = tmp_path / "stdout.txt"
    with open(log, "w", encoding="utf-8") as fh:
        saved, sys.stdout = sys.stdout, fh
        try:
            assert cli.main(w.cli_args(manifest, out, 5)) == 0
        finally:
            sys.stdout = saved
    return log.read_text().splitlines(), checks.read_result(out), data.labels, w


def test_checks_accept_a_real_result_and_reject_corrupted_ones(tmp_path):
    lines, doc, truth, w = _fit(tmp_path, "rkmc-dense")
    assert checks.check_result(doc, n=w.n, k=w.k, algo=w.algo) == []
    assert checks.check_summary(lines, doc, truth) == []

    def corrupt(edit):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        return checks.check_result(bad, n=w.n, k=w.k, algo=w.algo)

    assert corrupt(lambda d: d["result"].pop())
    assert corrupt(lambda d: d["result"].__setitem__(0, w.k + 1))
    assert corrupt(lambda d: d["U"][3].__setitem__(0, d["U"][3][0] + 1e-6))
    assert corrupt(lambda d: d["center"][0][0].__setitem__(0, float("nan")))
    assert corrupt(lambda d: d["weight"].__setitem__(0, float("inf")))
    assert corrupt(lambda d: d["objective_trace"].insert(2, d["objective_trace"][0] * 2))
    assert checks.check_result(None, n=w.n, k=w.k, algo=w.algo)

    wrong_nmi = lines[:-1] + [lines[-1].replace("nmi=", "nmi=0.0", 1)]
    assert checks.check_summary(wrong_nmi, doc, truth)


def test_objective_may_rise_only_at_logged_reseeds(tmp_path):
    _, doc, _, w = _fit(tmp_path, "rkmc-dense")
    doc["objective_trace"] = [10.0, 9.0, 12.0, 8.0]
    doc["config"]["reseed_steps"] = [2]
    assert checks.check_result(doc, n=w.n, k=w.k, algo=w.algo) == []
    doc["config"]["reseed_steps"] = [3]
    assert checks.check_result(doc, n=w.n, k=w.k, algo=w.algo)


def test_stream_checks_reject_missing_rows_and_bad_alphas(tmp_path):
    lines, doc, truth, w = _fit(tmp_path, "stream")
    assert checks.check_stream(lines, n=w.n, chushi=w.chushi, views=VIEWS) == []
    assert checks.check_summary(lines, doc, truth) == []
    assert checks.check_stream(lines[:5] + lines[6:], n=w.n, chushi=w.chushi, views=VIEWS)
    row = lines[3].split(",")
    row[2] = "0.9"
    row[3] = "0.2"
    bad = lines[:3] + [",".join(row)] + lines[4:]
    assert checks.check_stream(bad, n=w.n, chushi=w.chushi, views=VIEWS)


def test_spans_nest_and_self_time_is_nonnegative(tmp_path):
    from orkmc import dataio

    w = WORKLOADS["rkmc-nonneg"].smoke()
    manifest = dataio.save_dataset(make_dataset(w, 7), tmp_path / "data")
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "orkbench", "traced_cli.py"), "--trace", "1",
         "--record", str(record), "--"]
        + w.cli_args(manifest, str(tmp_path / "result.json"), 7),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    spans = rec["spans"]
    assert rec["missing"] == [] and spans[0][0] == "cli.main" and spans[0][3] == -1
    for name, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    stats = tracing.span_stats(spans)
    assert all(st["self"] >= -1e-9 for st in stats.values())
    assert stats["kernels.nnls"]["calls"] > 0 and stats["kernels.pgd_rows"]["count"] > 0


def test_a_renamed_attribute_gives_null_metrics_and_is_named():
    tracer = tracing.Tracer()
    tracer.install((("kernels.nnls", "orkmc.offline", "nnls_renamed"),
                    ("x.y", "orkmc.no_such_module", "f")))
    assert tracer.missing == [("kernels.nnls", "orkmc.offline.nnls_renamed"),
                              ("x.y", "orkmc.no_such_module.f")]
    out = tracing.layer_metrics([["kernels.nnls", 0.0, 1.0, -1, None]], tracer.missing, {})
    assert out["kernels.nnls.s"] is None and out["kernels.nnls.calls"] is None
    assert out["offline.update_U.s"] == 0.0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "orkbench"), tmp_path / "orkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "orkbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_child_cut_at_the_runs_deadline_is_not_a_failure():
    tally = Tally()
    assert not tally.ok("dataset 1", None)
    assert tally.ok("dataset 2", [])
    assert not tally.ok("dataset 3", ["exit code 1"])
    assert (tally.attempted, tally.failed, tally.cut) == (2, 1, 1)


def test_span_wrapper_records_parent_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: (None, True, 7), "kernels.pgd_rows")
    outer = tracer.wrap(lambda: inner(), "offline.update_U")
    outer()
    assert [s[0] for s in tracer.spans] == ["offline.update_U", "kernels.pgd_rows"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7
    assert all(st["self"] >= 0 for st in tracing.span_stats(tracer.spans).values())


def test_child_runs_are_timed_line_by_line_and_killed_at_the_timeout(tmp_path):
    code = "import time\nfor i in range(3):\n    print(i)\n    time.sleep(0.05)\ntime.sleep(60)"
    run = run_child([sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ),
                    stderr_path=tmp_path / "err.txt", timeout_s=3.0)
    assert run.timed_out and run.returncode != 0 and run.wall_s < 10
    assert run.lines == ["0", "1", "2"] and run.stamps == sorted(run.stamps)
    assert run.stamps[2] - run.stamps[0] >= 0.09
