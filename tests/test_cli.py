import argparse
import json
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from covtarget import (
    BekkParams,
    DccParams,
    Garch11Params,
    ReturnPanel,
    bekk_simulate,
    build_graph,
    graph_to_json,
    kl_divergence,
    load_panel,
    maximal_cliques,
    sample_moments,
    write_returns_csv,
)
from covtarget.cli import COMMANDS, OPTIONS, build_parser, main
from covtarget.report import bekk_document, dcc_document

from conftest import bekk2, gaussian_panel

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


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
        flags = ("--out-dir", str(tmp_path), "--model", "bekk,bekk")
        if command != "simulate":
            flags = ("--input", str(panel_csv), *flags)
        if command != "fit":
            flags = (*flags, "--sim-len", "50")
        rc, _, err = run(capsys, command, *flags)
        assert rc == 2
        assert "repeated" in err

    def test_simulate_needs_sim_len(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "simulate", "--out-dir", str(tmp_path), "--model", "bekk"
        )
        assert rc == 2
        assert "sim-len" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "sim-len", "1"),
        ("simulate", "sim-len", "-5"),
        ("evaluate", "sim-len", "1"),
        ("graph", "delta", "1.5"),
        ("cliques", "delta", "-0.1"),
        ("fit", "delta", "1.5"),
        ("evaluate", "delta", "1.0"),
        ("cluster", "k", "0"),
        ("cluster", "k", "3"),  # the panel has two series
        ("fit", "starts", "0"),
        ("fit", "seed", "-1"),
        ("simulate", "seed", "-1"),
        ("evaluate", "seed", "-1"),
    ])
    def test_option_out_of_range(self, capsys, panel_csv, tmp_path, command, key,
                                 value, source):
        out = tmp_path / "out"
        argv = [command, "--out-dir", str(out)]
        if "input" in COMMANDS[command].options:
            argv += ["--input", str(panel_csv)]
        if source == "flag":
            argv += [f"--{key}={value}"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert f"usage error: --{key}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_sim_len_past_9999_12_31_fails_before_any_work(self, capsys, panel_csv,
                                                           tmp_path, command):
        # Simulated rows are dated from 1970-01-02, and 2,932,897 rows would
        # end in the year 10000. With a good params file in place, the check
        # must come before any fit or simulation, not after it.
        p = bekk2()
        doc = bekk_document(p, np.zeros(2), p.unconditional_cov(), None)
        (tmp_path / "params.bekk.json").write_text(json.dumps(doc))
        argv = [command, "--out-dir", str(tmp_path), "--model", "bekk",
                "--sim-len", "2932897"]
        if command == "evaluate":
            argv += ["--input", str(panel_csv)]
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert rc == 2
        assert "usage error: --sim-len: simulation length must be in [2, 2932896], got 2932897" in err
        assert out == ""
        assert [f.name for f in tmp_path.iterdir()] == ["params.bekk.json"]


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

    @pytest.mark.parametrize("name, argv, code", [
        ("panel.csv", ["cliques", "--input", "{path}"], 3),
        ("graph.json", ["cliques", "--input", "{path}"], 3),
        ("params.bekk.json", ["simulate", "--model", "bekk", "--sim-len", "50"], 3),
        ("run.cfg", ["graph", "--config", "{path}"], 2),
    ])
    def test_bytes_that_are_not_utf8(self, capsys, tmp_path, name, argv, code):
        # a data file names itself in a parse error; a config file is a usage error
        path = tmp_path / name
        path.write_bytes(b"date,\xe9,B\n")
        argv = [a.format(path=path) for a in argv] + ["--out-dir", str(tmp_path)]
        rc, _, err = run(capsys, *argv)
        assert rc == code
        assert str(path) in err and "utf-8" in err.lower()

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

    def test_simulate_with_mis_sized_start(self, capsys, tmp_path):
        # A three-asset params file whose h1 is 2 x 2.
        params = BekkParams(
            c_lower=0.2 * np.eye(3), a_diag=np.full(3, 0.3), b_diag=np.full(3, 0.9)
        )
        doc = bekk_document(params, np.zeros(3), np.eye(2), None)
        (tmp_path / "params.bekk.json").write_text(json.dumps(doc))
        rc, _, err = run(
            capsys, "simulate", "--out-dir", str(tmp_path), "--model", "bekk",
            "--sim-len", "50",
        )
        assert rc == 3
        assert "h1 must be (3, 3), got (2, 2)" in err

    @pytest.mark.parametrize("fault, message", [
        ("missing", "data error: cannot read params file "),
        ("not json", "data error: cannot read params file "),
        ("no theta", "malformed params document: 'theta1'"),
        ("short mu", "mu must have 2 entries"),
        # json writes and reads NaN, which no simulated row can have
        ("nan mu", "data error: mu must hold finite JSON numbers, got nan"),
        # R_1 = q_bar: a singular one would fail the DCC simulation's first step
        ("singular q_bar", "data error: q_bar: matrix is not positive definite (pivot 1)"),
        ("asymmetric q_bar", "data error: q_bar: matrix is not symmetric (max asymmetry 1.000e-01)"),
    ])
    def test_simulate_checks_every_params_file_first(self, capsys, tmp_path, fault,
                                                     message):
        # params.bekk.json is good and comes first; params.dcc.json is not.
        p = bekk2()
        bekk_doc = bekk_document(p, np.zeros(2), p.unconditional_cov(), None)
        (tmp_path / "params.bekk.json").write_text(json.dumps(bekk_doc))
        g = Garch11Params(omega=1e-5, alpha=0.05, beta=0.9)
        dcc = DccParams(univariate=(g, g), theta1=0.05, theta2=0.9,
                        q_bar=np.array([[1.0, 0.3], [0.3, 1.0]]))
        dcc_doc = dcc_document(dcc, np.zeros(2), None)
        text = {
            "not json": "{",
            "no theta": json.dumps({k: v for k, v in dcc_doc.items() if k != "theta1"}),
            "short mu": json.dumps({**dcc_doc, "mu": [0.0]}),
            "nan mu": json.dumps({**dcc_doc, "mu": [float("nan"), 0.0]}),
            "singular q_bar": json.dumps({**dcc_doc, "q_bar": [[1.0, 1.0], [1.0, 1.0]]}),
            "asymmetric q_bar": json.dumps({**dcc_doc, "q_bar": [[1.0, 0.1], [0.2, 1.0]]}),
        }
        if fault in text:
            (tmp_path / "params.dcc.json").write_text(text[fault])
        rc, out, err = run(capsys, "simulate", "--out-dir", str(tmp_path),
                           "--model", "bekk,dcc", "--sim-len", "50")
        assert rc == 3, err
        assert message in err
        assert out == ""
        assert sorted(f.name for f in tmp_path.iterdir()) == (
            ["params.bekk.json"] + (["params.dcc.json"] if fault in text else [])
        )

    def test_simulate_refuses_a_bekk_document_without_series(self, capsys, tmp_path):
        doc = dict(model="bekk", n=0, c_lower=[], a_diag=[], b_diag=[], mu=[])
        (tmp_path / "params.bekk.json").write_text(json.dumps(doc))
        rc, out, err = run(capsys, "simulate", "--out-dir", str(tmp_path), "--model", "bekk",
                           "--sim-len", "50")
        assert (rc, out, err) == (3, "", "data error: n must be a positive integer, got 0\n")
        assert [f.name for f in tmp_path.iterdir()] == ["params.bekk.json"]

    @pytest.mark.parametrize("text", [None, "{", "[1, 2"])
    def test_cliques_with_an_unreadable_graph_document(self, capsys, tmp_path, text):
        path = tmp_path / "graph.json"
        if text is not None:
            path.write_text(text)
        rc, out, err = run(capsys, "cliques", "--input", str(path), "--out-dir", str(tmp_path))
        assert rc == 3 and out == ""
        assert err.startswith(f"data error: cannot read graph document {path}: ")
        assert not (tmp_path / "cliques.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"labels": {"A": 1, "B": 2}, "delta": 0.5, "edges": []},
         "graph labels must be a list, got {'A': 1, 'B': 2}"),
        ({"labels": ["A", "B"], "delta": 0.5, "edges": [[0, 1, 1.5]]},
         "edge (0, 1) has weight 1.5, above 1 in magnitude"),
        ({"labels": ["A", "B"], "delta": 0.5, "edges": [[0, 1, float("inf")]]},
         "edge (0, 1) has weight inf, above 1 in magnitude"),
    ])
    def test_cliques_refuses_a_graph_document_graph_cannot_write(self, capsys, tmp_path,
                                                                doc, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))  # an infinite weight as the token Infinity
        rc, out, err = run(capsys, "cliques", "--input", str(path), "--out-dir", str(tmp_path))
        assert (rc, out, err) == (3, "", f"data error: {message}\n")
        assert [f.name for f in tmp_path.iterdir()] == ["graph.json"]

    @pytest.mark.parametrize("name, argv, what", [
        ("params.bekk.json", ["simulate", "--model", "bekk", "--sim-len", "50"], "params file"),
        ("graph.json", ["cliques", "--input", "{path}"], "graph document"),
    ])
    def test_deeply_nested_json_is_a_data_error(self, capsys, tmp_path, name, argv, what):
        # json's decoder recurses once per level of nesting
        path = tmp_path / name
        path.write_text("[" * 200_000 + "]" * 200_000)
        argv = [a.format(path=path) for a in argv] + ["--out-dir", str(tmp_path)]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (3, "")
        assert err.startswith(f"data error: cannot read {what} {path}: ")
        assert [f.name for f in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("text, where", [
        ("date,A,{long}\n2020-01-02,1.0,2.0\n", ""),
        ("date,A\n2020-01-02,1.0\n2020-01-03,{long}\n", ":3"),
        ('date,A\n2020-01-02,1.0\n2020-01-03,"{long}"\n', ":3"),
    ], ids=["label", "plain", "quoted"])
    def test_a_cell_over_the_csv_field_limit(self, capsys, tmp_path, text, where):
        path = tmp_path / "panel.csv"
        path.write_text(text.format(long="x" * 200_000))
        rc, out, err = run(capsys, "cliques", "--input", str(path), "--out-dir", str(tmp_path))
        assert (rc, out) == (3, "")
        assert err.startswith(f"data error: {path}{where}: field larger than field limit")
        assert [f.name for f in tmp_path.iterdir()] == ["panel.csv"]

    @pytest.mark.parametrize("sim_len", [3, 5])
    def test_evaluate_sim_len_at_most_the_series_fails_before_any_fit(
        self, capsys, tmp_path, sim_len
    ):
        # T simulated rows give a covariance of rank at most T - 1, which the
        # simulated KL divergence cannot invert.
        path = tmp_path / "panel5.csv"
        write_returns_csv(gaussian_panel(2, t_len=120, n=5), path)
        out = tmp_path / "out"
        rc, stdout, err = run(capsys, "evaluate", "--input", str(path), "--out-dir", str(out),
                              "--model", "bekk,dcc", "--sim-len", str(sim_len))
        assert rc == 3
        assert err == f"data error: simulation length {sim_len} must exceed the 5 series\n"
        assert stdout == ""
        assert not out.exists()

    @staticmethod
    def run_with_dependent_column(capsys, tmp_path, command, model, scale, noise):
        """Run `command` on a 252-row panel whose column DUP is `scale` times
        column B plus `noise`-sized Gaussian noise."""
        r = gaussian_panel(4, t_len=252, n=4).returns.copy()
        r[:, 3] = scale * r[:, 1]
        if noise:
            r[:, 3] += noise * np.random.default_rng(9).standard_normal(252)
        from covtarget import ReturnPanel

        path = tmp_path / "dup.csv"
        write_returns_csv(ReturnPanel(labels=("A", "B", "C", "DUP"), returns=r), path)
        return run(
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

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("model", ["bekk", "dcc"])
    def test_singular_covariance_names_the_series(
        self, capsys, tmp_path, command, model
    ):
        rc, _, err = self.run_with_dependent_column(
            capsys, tmp_path, command, model, 1.0, 0.0
        )
        assert rc == 3
        assert "singular" in err and "DUP" in err

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("model", ["bekk", "dcc"])
    def test_near_singular_covariance_names_the_series(
        self, capsys, tmp_path, command, model
    ):
        rc, _, err = self.run_with_dependent_column(
            capsys, tmp_path, command, model, 2.0, 1e-9
        )
        assert rc == 3
        assert "singular" in err and "DUP" in err

    @pytest.mark.parametrize("command", ["graph", "evaluate"])
    def test_quoted_sentinel_is_a_returns_panel(
        self, capsys, panel_csv, tmp_path, command
    ):
        # The sentinel is the first CSV cell of line 1, quoted or not.
        path = tmp_path / "quoted.csv"
        path.write_text('"#returns"' + panel_csv.read_text()[len("#returns"):])
        fit_flags = ("--model", "bekk", "--starts", "1", "--sim-len", "40")
        rc, _, err = run(
            capsys, command, "--input", str(path), "--out-dir", str(tmp_path),
            *(fit_flags if command == "evaluate" else ()),
        )
        assert rc == 0, err

    @pytest.mark.parametrize("model", ["bekk", "dcc"])
    def test_constant_series_fails_with_3(self, capsys, tmp_path, model):
        # A constant column's sample std is rounding residue, not exactly 0.
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
            model,
            "--starts",
            "1",
        )
        assert rc == 3
        assert "FLAT" in err

    @pytest.mark.parametrize("text, cell", [
        # a returns panel, and a price panel parsed in C, where 1e500 is inf
        ("#returns\ndate,A,B\n2020-01-02,0.01,0.02\n2020-01-03,0.01,{}\n", "inf"),
        ("date,A,B\n2020-01-02,1.0,2.0\n2020-01-03,1.5,{}\n", "1e500"),
    ])
    def test_non_finite_cell_names_the_series(self, capsys, tmp_path, text, cell):
        path = tmp_path / "p.csv"
        path.write_text(text.format(cell))
        rc, _, err = run(capsys, "graph", "--input", str(path), "--out-dir", str(tmp_path))
        assert rc == 3
        assert f"{path}: non-finite value for B on 2020-01-03" in err

    @pytest.mark.parametrize("model, rc_expected", [("dcc", 3), ("dcc_mod", 3), ("bekk", 0)])
    def test_short_panel(self, capsys, tmp_path, model, rc_expected):
        # DCC's stage one needs garch.MIN_OBS rows; BEKK fits 30 rows of 4 series.
        path = tmp_path / "short.csv"
        write_returns_csv(gaussian_panel(5, t_len=30, n=4), path)
        rc, _, err = run(capsys, "fit", "--input", str(path), "--out-dir",
                         str(tmp_path), "--model", model, "--starts", "1")
        assert rc == rc_expected, err
        if rc_expected == 3:
            assert "at least 50 observations, got 30" in err


class TestLogging:
    CHILD = (
        "import logging, sys\n"
        "from covtarget.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(logging.getLogger().level)\n"
        "sys.exit(rc)\n"
    )

    @pytest.mark.parametrize("value, level", [
        ("debug", logging.DEBUG),
        ("basic_format", logging.INFO),
        ("chatty", logging.INFO),
    ])
    def test_level_or_info(self, panel_csv, tmp_path, value, level):
        # COVTARGET_LOG names a level, or means INFO. Logging is set up once
        # per process, so each case runs in a fresh interpreter.
        env = {**os.environ, "COVTARGET_LOG": value, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, "graph", "--input", str(panel_csv),
             "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(level)

    def test_debug_logs_each_start_and_changes_no_output(self, panel_csv, tmp_path):
        def fit(value):
            out = tmp_path / (value or "unset")
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            env.pop("COVTARGET_LOG", None)
            if value:
                env["COVTARGET_LOG"] = value
            proc = subprocess.run(
                [sys.executable, "-m", "covtarget.cli", "fit", "--input", str(panel_csv),
                 "--out-dir", str(out), "--model", "bekk", "--starts", "2"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            starts = re.findall(r"^DEBUG covtarget\.optimize: start (\d+): ", proc.stderr, re.M)
            return proc.stdout, (out / "params.bekk.json").read_bytes(), starts

        stdout, params, starts = fit("DEBUG")
        assert starts == ["0", "1"]
        assert fit(None) == (stdout, params, [])
        assert fit("chatty") == (stdout, params, [])  # an unknown level means INFO


class TestCLocale:
    """Under the C locale with UTF-8 mode off, the locale's encoding is
    ASCII; files are still read and written as UTF-8."""

    WRITE = (
        "import locale, sys\n"
        "import numpy as np\n"
        "from covtarget import ReturnPanel, load_panel, write_returns_csv\n"
        "print(locale.getpreferredencoding(False))\n"
        "for path, labels in zip(sys.argv[1:], [('\\u00e9', 'S2'), ('S1', 'S2')]):\n"
        "    panel = ReturnPanel(labels, np.array(%r))\n"
        "    write_returns_csv(panel, path)\n"
        "    assert load_panel(path).labels == labels\n"
    )
    CLI = "import sys\nfrom covtarget.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    RETURNS = [[0.01, -0.02], [0.03, 0.0], [-0.01, 0.025]]

    def child(self, code, *argv, encoding="utf-8"):
        """``code`` run with ``argv``; its output is bytes if ``encoding`` is None."""
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                              capture_output=True, encoding=encoding)

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        accented, plain = tmp_path / "accented.csv", tmp_path / "plain.csv"
        proc = self.child(self.WRITE % (self.RETURNS,), accented, plain)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().lower() not in ("utf-8", "utf8")
        assert accented.read_bytes().split(b"\n")[1] == "date,\u00e9,S2".encode("utf-8")
        # ASCII text is written with the same bytes under any locale
        write_returns_csv(ReturnPanel(("S1", "S2"), np.array(self.RETURNS)), tmp_path / "here.csv")
        assert plain.read_bytes() == (tmp_path / "here.csv").read_bytes()

        proc = self.child(self.CLI, "cliques", "--input", accented, "--delta", "0.5",
                          "--format", "json", "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "cliques.json").read_text(encoding="utf-8"))
        assert doc["labels"] == ["\u00e9", "S2"]

        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(accented.read_bytes().decode("utf-8").encode("latin-1"))
        proc = self.child(self.CLI, "cliques", "--input", latin1, "--out-dir", tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == f"data error: {latin1}: not UTF-8 text (invalid continuation byte)\n"

    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path):
        accented = tmp_path / "accented.csv"
        assert self.child(self.WRITE % (self.RETURNS,), accented, tmp_path / "p.csv").returncode == 0

        def stdout(*argv):
            proc = self.child(self.CLI, *argv, "--input", accented, "--out-dir", tmp_path,
                              encoding=None)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        out = stdout("cliques", "--delta", "0.1")
        doc = json.loads((tmp_path / "cliques.json").read_text(encoding="utf-8"))
        assert out == "".join("{" + ", ".join(c) + "}\n" for c in doc["cliques"]).encode("utf-8")
        assert "\u00e9".encode("utf-8") in out
        assert stdout("graph", "--delta", "0.1") == (tmp_path / "graph.dot").read_bytes()
        out = stdout("cluster")
        doc = json.loads((tmp_path / "dendrogram.json").read_text(encoding="utf-8"))
        assert out.endswith((doc["newick"] + "\n").encode("utf-8"))
        assert "\u00e9" in doc["newick"]


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

    def test_cliques_json_format_prints_the_file(self, capsys, panel_csv, tmp_path):
        rc, out, _ = run(capsys, "cliques", "--input", str(panel_csv), "--out-dir",
                         str(tmp_path), "--delta", "0.1", "--format", "json")
        assert rc == 0
        assert out == (tmp_path / "cliques.json").read_text(encoding="utf-8")
        assert json.loads(out)["cliques"]

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

    def test_simulate_from_evaluate_params_reproduces_kl_simulated(
        self, capsys, panel_csv, tmp_path
    ):
        """For every kind, evaluate's simulated graph block and KL loss are
        those of the file `simulate` writes from the params file evaluate
        wrote, read back and given the panel's labels: equal, not close."""
        common = ("--out-dir", str(tmp_path), "--seed", "7", "--sim-len", "300")
        rc, _, err = run(capsys, "evaluate", "--input", str(panel_csv), "--starts", "1",
                         "--delta", "0.1", *common)
        assert rc == 0, err
        rc, _, err = run(capsys, "simulate", *common)
        assert rc == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        labels = tuple(report["panel"]["labels"])
        sigma_hat = np.array(report["target"]["sigma_hat"])
        assert list(report["models"]) == ["bekk", "bekk_mod", "dcc", "dcc_mod"]
        for kind, block in report["models"].items():
            sim = load_panel(tmp_path / f"sim.{kind}.csv")
            assert sim.t_len == 300
            moments = sample_moments(ReturnPanel(labels=labels, returns=sim.returns))
            graph = build_graph(moments.corr, labels, 0.1)
            assert block["simulated"] == {
                "graph": graph_to_json(graph),
                "cliques": [[labels[v] for v in c] for c in maximal_cliques(graph)],
            }
            assert block["losses"]["kl_simulated"] == kl_divergence(sigma_hat, moments.cov)

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


def table_flags() -> dict[str, set[str]]:
    """Each command's flags as the option table gives them."""
    return {name: {"--" + key for key in command.options} | {"--config"}
            for name, command in COMMANDS.items()}


class TestOptionTable:
    def test_parser_and_readme_follow_the_table(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {f for a in p._actions for f in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        rows = re.findall(r"^\| `(\w+)` +\|([^|]*)\|", README.read_text(), re.MULTILINE)
        documented = {name: set(re.findall(r"--[a-z-]+", cell)) for name, cell in rows}
        assert parsed == table_flags()
        assert documented == table_flags()

    @pytest.mark.parametrize("command, flag", sorted(
        (name, flag)
        for name, flags in table_flags().items()
        for flag in {"--" + key for key in OPTIONS} - flags
    ))
    def test_flag_the_command_does_not_take_exits_2(self, capsys, command, flag):
        rc, _, err = run(capsys, command, flag, "1")
        assert rc == 2
        assert "unrecognized arguments" in err

    def test_bad_format_in_config_file(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = yaml\n")
        rc, _, err = run(capsys, "graph", "--input", str(panel_csv),
                         "--out-dir", str(tmp_path), "--config", str(cfg))
        assert rc == 2
        assert "yaml" in err

    def test_config_keys_of_other_commands_are_ignored(self, capsys, panel_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = bekk\nsim-len = 9\nstarts = 1\nk = 2\nformat = json\n")
        rc, out, err = run(capsys, "graph", "--input", str(panel_csv),
                           "--out-dir", str(tmp_path), "--config", str(cfg))
        assert rc == 0, err
        assert json.loads(out)["labels"] == ["S1", "S2"]
