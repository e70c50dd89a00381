"""File formats: manifests, matrix parsing, QCM preprocessing, result JSON."""

import json

import numpy as np
import pytest

from orkmc.dataio import (
    DatasetManifest,
    load,
    load_qcm,
    load_result,
    read_labels,
    read_matrix,
    save_dataset,
    save_result,
)
from orkmc.datagen import SimSpec, generate
from orkmc.errors import ParseError
from orkmc.model import (
    CenterSet,
    ClusterResult,
)


def small_result():
    u = np.array([[0.75, 0.25], [0.1, 0.9], [0.6, 0.4]])
    return ClusterResult(
        assignment=u,
        centers=CenterSet((np.array([[1.5, -2.25], [0.125, 3.5]]),)),
        weights=np.array([1.0]),
        objective_trace=(3.125, 1.0625),
        elapsed_seconds=0.25,
        nmi=0.75,
        metadata={"algorithm": "rkmc", "hyper": {"k": 2}},
    )


class TestMatrixParsing:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = generate(SimSpec(n=17, k=2, v=2, j=3, seed=3))
        manifest_path = save_dataset(data, tmp_path / "ds")
        loaded = load(DatasetManifest.read(manifest_path))
        for a, b in zip(data.views, loaded.views):
            assert np.array_equal(a, b)
        assert np.array_equal(np.asarray(data.labels), np.asarray(loaded.labels))

    def test_ragged_row_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            read_matrix(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,abc\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            read_matrix(p)

    def test_nan_text_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\nnan,4\n")
        with pytest.raises(ParseError, match="row 2, column 1"):
            read_matrix(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="no data rows"):
            read_matrix(p)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n")
        m = read_matrix(p, has_header=True)
        assert m.shape == (1, 2)

    def test_labels_must_be_integers(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("1\n2.5\n")
        with pytest.raises(ParseError, match="non-integer"):
            read_labels(p)


class TestManifest:
    def test_row_count_mismatch_across_views(self, tmp_path):
        (tmp_path / "v1.csv").write_text("1,2\n3,4\n")
        (tmp_path / "v2.csv").write_text("1,2\n")
        m = DatasetManifest(name="x", view_files=(str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")))
        with pytest.raises(ParseError, match="rows"):
            load(m)

    def test_label_row_count_mismatch(self, tmp_path):
        (tmp_path / "v1.csv").write_text("1,2\n3,4\n")
        (tmp_path / "l.csv").write_text("1\n")
        m = DatasetManifest(
            name="x", view_files=(str(tmp_path / "v1.csv"),), label_file=str(tmp_path / "l.csv")
        )
        with pytest.raises(ParseError, match="labels"):
            load(m)

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        (tmp_path / "v1.csv").write_text("1,2\n")
        doc = {"name": "rel", "view_files": ["v1.csv"], "label_file": None}
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps(doc))
        data = load(DatasetManifest.read(mp))
        assert data.n_samples == 1

    def test_missing_view_file(self, tmp_path):
        m = DatasetManifest(name="x", view_files=(str(tmp_path / "nope.csv"),))
        with pytest.raises(ParseError, match="does not exist"):
            load(m)

    @pytest.mark.parametrize(
        "doc, key",
        [
            (["v1.csv"], "JSON object"),
            ({"name": "x"}, "'view_files'"),
            ({"view_files": "v1.csv"}, "'view_files'"),
            ({"view_files": [3]}, "'view_files'"),
            ({"view_files": ["v1.csv"], "label_file": 5}, "'label_file'"),
            ({"view_files": ["v1.csv"], "delimiter": ""}, "'delimiter'"),
            ({"view_files": ["v1.csv"], "has_header": "false"}, "'has_header'"),
            ({"view_files": ["v1.csv"], "k_true": True}, "'k_true'"),
            ({"view_files": ["v1.csv"], "k_true": "5"}, "'k_true'"),
            ({"view_files": ["v1.csv"], "k_true": -3}, "'k_true'"),
            ({"view_files": ["v1.csv"], "k_true": 0}, "'k_true'"),
            ({"view_files": ["v1.csv"], "k_true": 2.5}, "'k_true'"),
            ({"view_files": ["v1.csv"], "name": [1, 2]}, "'name' must be a string"),
            ({"view_files": ["v1.csv"], "name": None}, "'name' must be a string"),
        ],
    )
    def test_malformed_manifest_names_the_key(self, tmp_path, doc, key):
        (tmp_path / "v1.csv").write_text("1,2\n")
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            DatasetManifest.read(mp)


def write_qcm_fixture(path, rows=125, semicolons=True, header=True):
    rng = np.random.default_rng(42)
    sep = ";" if semicolons else ","
    lines = []
    if header:
        lines.append(sep.join(f"c{i}" for i in range(15)))
    for i in range(rows):
        feats = rng.normal(size=10).round(6)
        onehot = [0] * 5
        onehot[i % 5] = 1
        lines.append(sep.join([repr(float(v)) for v in feats] + [str(b) for b in onehot]))
    path.write_text("\n".join(lines) + "\n")


class TestQcm:
    def test_valid_fixture(self, tmp_path):
        p = tmp_path / "QCM.csv"
        write_qcm_fixture(p)
        data = load_qcm(p)
        assert data.n_samples == 125
        assert data.feature_counts == (10,)
        labels = np.asarray(data.labels)
        assert sorted(set(labels.tolist())) == [1, 2, 3, 4, 5]
        assert all(int(np.sum(labels == c)) == 25 for c in range(1, 6))
        assert labels[25] == 2  # row 26 sits in the second block

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "QCM.csv"
        write_qcm_fixture(p, rows=100)
        with pytest.raises(ParseError, match="125"):
            load_qcm(p)

    def test_comma_delimited_works(self, tmp_path):
        p = tmp_path / "QCM.csv"
        write_qcm_fixture(p, semicolons=False, header=False)
        data = load_qcm(p)
        assert data.n_samples == 125


class TestResultJson:
    def test_save_load_round_trip(self, tmp_path):
        res = small_result()
        path = tmp_path / "r.json"
        save_result(res, path)
        doc = load_result(path)
        assert doc["result"] == [1, 2, 1]  # 1-based hard labels
        assert np.array_equal(np.array(doc["U"]), res.assignment)
        assert np.array_equal(np.array(doc["center"][0]), res.centers.centers[0])
        assert doc["weight"] == [1.0]
        assert doc["nmi"] == 0.75
        assert doc["objective_trace"] == [3.125, 1.0625]
        assert doc["config"]["algorithm"] == "rkmc"

    def test_nmi_null_without_truth(self, tmp_path):
        res = small_result()
        res = ClusterResult(
            assignment=res.assignment, centers=res.centers, weights=res.weights,
            objective_trace=res.objective_trace, elapsed_seconds=0.0, nmi=None,
        )
        path = tmp_path / "r.json"
        save_result(res, path)
        assert load_result(path)["nmi"] is None

    def test_floats_survive_17_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        u = rng.dirichlet(np.ones(3), size=4)
        res = ClusterResult(
            assignment=u,
            centers=CenterSet((rng.normal(size=(3, 2)),)),
            weights=np.array([1.0]),
        )
        path = tmp_path / "r.json"
        save_result(res, path)
        doc = load_result(path)
        assert np.array_equal(np.array(doc["U"]), u)
        assert np.array_equal(np.array(doc["center"][0]), res.centers.centers[0])
