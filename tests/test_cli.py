"""Command-line behavior: exit codes, outputs, reproducibility."""

import json
import math
import os

import numpy as np
import pytest

from orkmc.cli import main
from orkmc.dataio import load_result, save_dataset
from orkmc.datagen import SimSpec, generate
from orkmc.model import MultiViewDataset


@pytest.fixture()
def sep_manifest(tmp_path):
    data = MultiViewDataset(
        views=(np.array([[0.0], [0.1], [10.0], [10.1]]),),
        labels=np.array([1, 1, 2, 2]),
        name="sep",
    )
    return save_dataset(data, tmp_path / "sep")


@pytest.fixture()
def sim_manifest(tmp_path):
    data = generate(SimSpec(n=60, k=3, v=1, j=2, seed=0))
    return save_dataset(data, tmp_path / "sim")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--algo", "orkmc", "--k", "3")
        assert code == 2

    def test_unknown_algo_is_usage_error(self, capsys, sep_manifest, tmp_path):
        code, _, _ = run_cli(
            capsys, "fit", "--algo", "nope", "--data", sep_manifest,
            "--k", "2", "--out", str(tmp_path / "r.json"),
        )
        assert code == 2

    def test_solver_error_is_runtime_error(self, capsys, sep_manifest, tmp_path):
        code, _, err = run_cli(
            capsys, "fit", "--algo", "rkmc", "--data", sep_manifest,
            "--k", "10", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "error" in err

    def test_missing_data_file_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "fit", "--algo", "rkmc", "--data", str(tmp_path / "none.json"),
            "--k", "2", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1

    def test_malformed_manifest_is_runtime_error(self, capsys, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"view_files": [3]}))
        code, _, err = run_cli(
            capsys, "fit", "--algo", "rkmc", "--data", str(mp),
            "--k", "2", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "'view_files'" in err

    def test_out_of_range_seed_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "20", "--k", "2", "--seed", "4294967297",
            "--out-dir", str(tmp_path / "d"),
        )
        assert code == 1
        assert "4294967297" in err

    def test_fit_rejects_an_out_of_range_seed(self, capsys, sim_manifest, tmp_path):
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "fit", "--algo", "kmeans", "--data", sim_manifest,
            "--k", "3", "--seed", "4294967297", "--out", str(out),
        )
        assert code == 1
        assert "seed must be in [0, 2**32), got 4294967297" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "stream"])
    def test_seed_is_checked_before_the_data_is_read(self, capsys, tmp_path, command):
        code, _, err = run_cli(
            capsys, command, "--algo", "orkmc", "--data", str(tmp_path / "none.json"),
            "--k", "2", "--seed", "4294967297", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "seed must be in [0, 2**32), got 4294967297" in err

    def test_unknown_preset_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--preset", "nope", "--out-dir", str(tmp_path / "d")
        )
        assert code == 2


class TestFit:
    def test_two_pair_fixture(self, capsys, sep_manifest, tmp_path):
        out_path = tmp_path / "r.json"
        code, out, _ = run_cli(
            capsys, "fit", "--algo", "rkmc", "--data", sep_manifest,
            "--k", "2", "--yita", "0", "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        doc = load_result(out_path)
        labels = doc["result"]
        assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
        assert "nmi=" in out

    def test_every_algorithm_runs(self, capsys, sim_manifest, tmp_path):
        for algo in ("rkmc", "orkmc", "kmeans", "pkmeans", "ogd", "omu"):
            out_path = tmp_path / f"{algo}.json"
            code, out, err = run_cli(
                capsys, "fit", "--algo", algo, "--data", sim_manifest,
                "--k", "3", "--seed", "0", "--out", str(out_path),
            )
            assert code == 0, (algo, err)
            doc = load_result(out_path)
            assert len(doc["result"]) == 60
            assert doc["config"]["algorithm"] == algo

    def test_yita_alias_eta(self, capsys, sep_manifest, tmp_path):
        code, _, _ = run_cli(
            capsys, "fit", "--algo", "rkmc", "--data", sep_manifest,
            "--k", "2", "--eta", "0.5", "--out", str(tmp_path / "r.json"),
        )
        assert code == 0

    def test_result_json_reproducible(self, capsys, sim_manifest, tmp_path):
        outs = []
        for run in (1, 2):
            out_path = tmp_path / f"r{run}.json"
            code, _, _ = run_cli(
                capsys, "fit", "--algo", "rkmc", "--data", sim_manifest,
                "--k", "3", "--seed", "7", "--out", str(out_path),
            )
            assert code == 0
            doc = load_result(out_path)
            doc["elapsed_seconds"] = None  # timing masked
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestStream:
    def test_progress_row_count(self, capsys, tmp_path):
        data = generate(SimSpec(n=240, k=3, v=1, j=2, seed=1))
        manifest = save_dataset(data, tmp_path / "ds")
        code, out, _ = run_cli(
            capsys, "stream", "--algo", "orkmc", "--data", manifest, "--k", "3",
            "--chushi", "100", "--emit-every", "60", "--seed", "0",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,objective,alpha_1"
        progress = [l for l in lines[1:] if "," in l and not l.startswith("orkmc")]
        # init row at t=chushi plus ceil(140/60) = 3 arrival rows
        assert len(progress) == 1 + math.ceil(140 / 60)
        init_t = int(progress[0].split(",")[0])
        assert init_t == 100
        for line in progress:
            obj = float(line.split(",")[1])
            assert np.isfinite(obj) and obj >= 0

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_emit_every_below_one_is_usage_error(self, capsys, tmp_path, every):
        # The manifest does not exist: a check made after loading would exit 1.
        code, out, err = run_cli(
            capsys, "stream", "--algo", "orkmc", "--data", str(tmp_path / "none.json"),
            "--k", "3", "--emit-every", every, "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "--emit-every" in err
        assert out == ""

    def test_chushi_equals_n_emits_init_only(self, capsys, tmp_path):
        data = generate(SimSpec(n=50, k=3, v=1, j=2, seed=1))
        manifest = save_dataset(data, tmp_path / "ds")
        code, out, _ = run_cli(
            capsys, "stream", "--algo", "orkmc", "--data", manifest, "--k", "3",
            "--chushi", "50", "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("orkmc")]
        assert len(lines) == 2  # header + init row


class TestEval:
    def write_labels(self, path, labels):
        path.write_text("\n".join(str(v) for v in labels) + "\n")

    def test_identical_files_all_ones(self, capsys, tmp_path):
        p = tmp_path / "a.csv"
        self.write_labels(p, [1, 1, 2, 2])
        code, out, _ = run_cli(capsys, "eval", "--pred", str(p), "--truth", str(p), "--metric", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.endswith(",1.0000000") for line in lines)

    def test_fscore_fixture(self, capsys, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        self.write_labels(pred, [1, 1, 2, 2])
        self.write_labels(truth, [1, 1, 1, 2])
        code, out, _ = run_cli(
            capsys, "eval", "--pred", str(pred), "--truth", str(truth), "--metric", "fscore"
        )
        assert code == 0
        assert out.strip() == "fscore,0.4000000"

    def test_length_mismatch_is_runtime_error(self, capsys, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        self.write_labels(pred, [1, 2])
        self.write_labels(truth, [1, 2, 3])
        code, _, _ = run_cli(
            capsys, "eval", "--pred", str(pred), "--truth", str(truth), "--metric", "nmi"
        )
        assert code == 1


class TestSimulate:
    def test_preset_writes_dataset(self, capsys, tmp_path):
        out_dir = tmp_path / "d"
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "case2-multi", "--seed", "7",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "view_1.csv").exists()
        assert (out_dir / "view_2.csv").exists()
        assert (out_dir / "labels.csv").exists()
        assert (out_dir / "manifest.json").exists()
        n_rows = len((out_dir / "view_1.csv").read_text().strip().splitlines())
        assert n_rows == 210

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "simulate", "--n", "40", "--k", "2", "--seed", "3",
                "--out-dir", str(out_dir),
            )
            assert code == 0
            blobs.append((out_dir / "view_1.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_custom_flags(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "30", "--k", "2", "--v", "2", "--j", "3",
            "--separation", "4.5", "--out-dir", str(tmp_path / "c"),
        )
        assert code == 0
        header_cells = (tmp_path / "c" / "view_2.csv").read_text().splitlines()[0].split(",")
        assert len(header_cells) == 3


class TestBench:
    def test_case2_row_counts(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--suite", "case2-multi", "--seeds", "1", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("dataset,algorithm,view")
        body = lines[1:]
        # 4 multi-view rows + 2 algos x 2 views, plus one median row per group,
        # plus the external dmc row
        per_seed = 4 + 4
        assert len(body) == per_seed * 2 + 1
        assert any(",dmc," in line and "external" in line for line in body)

    def test_qcm_without_file_skips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ORKM_DATA_DIR", str(tmp_path / "nowhere"))
        out = tmp_path / "bench.csv"
        code, stdout, _ = run_cli(
            capsys, "bench", "--suite", "qcm", "--seeds", "2", "--out", str(out)
        )
        assert code == 0
        assert "SKIPPED" in out.read_text()

    def test_bench_reproducible_modulo_timing(self, capsys, tmp_path):
        texts = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "bench", "--suite", "case2-multi", "--seeds", "2", "--out", str(out)
            )
            assert code == 0
            rows = []
            for line in out.read_text().strip().splitlines():
                cells = line.split(",")
                if len(cells) == 8:
                    cells[6] = "T"  # mask elapsed_seconds
                rows.append(",".join(cells))
            texts.append("\n".join(rows))
        assert texts[0] == texts[1]

        groups: dict = {}
        for line in texts[0].splitlines()[1:-1]:  # between the header and the dmc row
            cells = line.split(",")
            groups.setdefault(tuple(cells[:3]), []).append(cells)
        assert len(groups) == 8
        for rows in groups.values():
            *fits, median = rows
            assert median[7] == "median"  # the median row comes last
            assert [int(f[7]) for f in fits] == [0, 1]  # seeds ascending
            for col in (3, 4, 5):  # nmi, purity, fscore
                assert median[col] == f"{np.median([float(f[col]) for f in fits]):.7f}"
