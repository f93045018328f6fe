import json

import numpy as np
import pytest

from covtarget import bekk_simulate, load_panel, write_returns_csv
from covtarget.cli import main

from conftest import bekk2, gaussian_panel


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("paneldata")
    panel = bekk_simulate(bekk2(), np.array([0.001, -0.001]), 200, seed=31)
    path = d / "panel.csv"
    write_returns_csv(panel, path)
    return path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestUsageErrors:
    def test_missing_input(self, capsys, tmp_path):
        rc, _, err = run(capsys, "graph", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "--input" in err

    def test_unknown_model(self, capsys, panel_csv, tmp_path):
        rc, _, err = run(
            capsys,
            "fit",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk,quux",
        )
        assert rc == 2
        assert "quux" in err

    def test_bad_format(self, capsys, panel_csv, tmp_path):
        rc, _, err = run(
            capsys,
            "graph",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--format",
            "yaml",
        )
        assert rc == 2

    def test_bad_starts(self, capsys, panel_csv, tmp_path):
        rc, *_ = run(
            capsys,
            "fit",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk",
            "--starts",
            "0",
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["fit", "evaluate", "simulate"])
    def test_repeated_model(self, capsys, panel_csv, tmp_path, command):
        rc, _, err = run(
            capsys,
            command,
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk,bekk",
            "--sim-len",
            "50",
        )
        assert rc == 2
        assert "repeated" in err

    def test_simulate_needs_sim_len(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "simulate", "--out-dir", str(tmp_path), "--model", "bekk"
        )
        assert rc == 2
        assert "sim-len" in err


class TestDataErrors:
    def test_missing_file(self, capsys, tmp_path):
        rc, *_ = run(
            capsys,
            "graph",
            "--input",
            str(tmp_path / "nope.csv"),
            "--out-dir",
            str(tmp_path),
        )
        assert rc == 3

    def test_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("#returns\ndate,A,B\n2020-01-01,0.1\n")
        rc, _, err = run(
            capsys, "graph", "--input", str(bad), "--out-dir", str(tmp_path)
        )
        assert rc == 3
        assert "bad.csv" in err

    def test_simulate_without_fit(self, capsys, tmp_path):
        rc, *_ = run(
            capsys,
            "simulate",
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk",
            "--sim-len",
            "50",
        )
        assert rc == 3


    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("model", ["bekk", "dcc"])
    def test_singular_covariance_names_the_series(
        self, capsys, tmp_path, command, model
    ):
        r = gaussian_panel(4, t_len=252, n=4).returns.copy()
        r[:, 3] = r[:, 1]
        from covtarget import ReturnPanel

        path = tmp_path / "dup.csv"
        write_returns_csv(ReturnPanel(labels=("A", "B", "C", "DUP"), returns=r), path)
        rc, _, err = run(
            capsys,
            command,
            "--input",
            str(path),
            "--out-dir",
            str(tmp_path),
            "--model",
            model,
            "--starts",
            "1",
        )
        assert rc == 3
        assert "singular" in err and "DUP" in err


class TestEstimationErrors:
    def test_constant_series_fails_with_4(self, capsys, tmp_path):
        r = gaussian_panel(1, t_len=80, n=2).returns.copy()
        r[:, 1] = 0.002
        from covtarget import ReturnPanel

        panel = ReturnPanel(labels=("OK", "FLAT"), returns=r)
        path = tmp_path / "flat.csv"
        write_returns_csv(panel, path)
        rc, _, err = run(
            capsys,
            "fit",
            "--input",
            str(path),
            "--out-dir",
            str(tmp_path),
            "--model",
            "dcc",
            "--starts",
            "1",
        )
        assert rc == 4
        assert "FLAT" in err


class TestCluster:
    def test_writes_dendrogram_and_cuts(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(
            capsys,
            "cluster",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--k",
            "2",
        )
        assert rc == 0
        doc = json.loads((tmp_path / "dendrogram.json").read_text())
        assert doc["labels"] == ["S1", "S2"]
        assert set(doc["clusters"]) == {"S1", "S2"}
        assert "merge" in out and doc["newick"] in out

    def test_json_format(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(
            capsys,
            "cluster",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--format",
            "json",
        )
        assert rc == 0
        assert json.loads(out)["newick"].endswith(";")


class TestGraphAndCliques:
    def test_graph_outputs(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(
            capsys,
            "graph",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--delta",
            "0.1",
        )
        assert rc == 0
        assert out.startswith("graph correlation {")
        assert (tmp_path / "graph.dot").read_text() == out
        doc = json.loads((tmp_path / "graph.json").read_text())
        assert doc["delta"] == 0.1

    def test_cliques_from_panel_and_from_graph_json(self, capsys, panel_csv, tmp_path):
        rc, out1, _ = run(
            capsys,
            "cliques",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--delta",
            "0.1",
        )
        assert rc == 0
        run(
            capsys,
            "graph",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--delta",
            "0.1",
        )
        rc, out2, _ = run(
            capsys,
            "cliques",
            "--input",
            str(tmp_path / "graph.json"),
            "--out-dir",
            str(tmp_path),
        )
        assert rc == 0
        assert out1 == out2
        doc = json.loads((tmp_path / "cliques.json").read_text())
        assert doc["cliques"] and doc["orders"]


class TestFitSimulateEvaluate:
    def test_fit_then_simulate(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(
            capsys,
            "fit",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk",
            "--starts",
            "1",
        )
        assert rc == 0
        assert "bekk: objective" in out
        params = json.loads((tmp_path / "params.bekk.json").read_text())
        assert params["model"] == "bekk" and params["n"] == 2
        rc, out, _ = run(
            capsys,
            "simulate",
            "--out-dir",
            str(tmp_path),
            "--model",
            "bekk",
            "--sim-len",
            "60",
        )
        assert rc == 0
        sim = load_panel(tmp_path / "sim.bekk.csv")
        assert sim.returns.shape == (60, 2)
        assert sim.labels == ("S1", "S2")

    def test_evaluate_writes_report_deterministically(self, capsys, panel_csv, tmp_path):
        args = (
            "evaluate",
            "--input",
            str(panel_csv),
            "--model",
            "bekk",
            "--starts",
            "1",
            "--sim-len",
            "40",
            "--delta",
            "0.1",
        )
        rc, out1, _ = run(capsys, *args, "--out-dir", str(tmp_path / "a"))
        assert rc == 0
        assert "bekk" in out1
        rc, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "b"))
        assert rc == 0
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        doc = json.loads(ra)
        assert doc["config"]["seed"] == 0
        assert "bekk" in doc["models"]
        assert (tmp_path / "a" / "params.bekk.json").exists()

    def test_evaluate_json_stdout_matches_file(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(
            capsys,
            "evaluate",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--model",
            "dcc",
            "--starts",
            "1",
            "--sim-len",
            "40",
            "--format",
            "json",
        )
        assert rc == 0
        assert out == (tmp_path / "report.json").read_text()


class TestConfigFile:
    def test_precedence_and_comments(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# evaluation settings\n"
            "delta = 0.1\n"
            "seed = 5\n"
            "model = bekk\n"
            "starts = 1\n"
            "sim-len = 40\n"
        )
        rc, _, _ = run(
            capsys,
            "evaluate",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--config",
            str(cfg),
            "--seed",
            "9",  # flag beats file
        )
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["seed"] == 9
        assert doc["config"]["delta"] == 0.1
        assert doc["config"]["models"] == ["bekk"]

    def test_unknown_key_rejected(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbosity = 3\n")
        rc, _, err = run(
            capsys,
            "cluster",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--config",
            str(cfg),
        )
        assert rc == 2
        assert "verbosity" in err

    def test_malformed_line_rejected(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        rc, *_ = run(
            capsys,
            "cluster",
            "--input",
            str(panel_csv),
            "--out-dir",
            str(tmp_path),
            "--config",
            str(cfg),
        )
        assert rc == 2
