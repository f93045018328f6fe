"""No command loads scipy.

Every one-pole recursion is an in-house scan and every fit runs the
in-house BFGS in ``covtarget.optimize``, so the package needs numpy alone.
A fresh interpreter checks sys.modules after importing the CLI, after
running graph, cliques, cluster and simulate, and after a fit of BEKK and
DCC, which also fits the GARCH stage one. fit and evaluate share that path,
and ``test_hygiene`` checks that no package module imports scipy at all.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from covtarget import bekk_simulate, write_returns_csv
from covtarget.cli import main

from conftest import bekk2

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


from covtarget.cli import main

assert not loaded(), f"after import covtarget.cli: {loaded()}"
panel, out = sys.argv[1], sys.argv[2]
for argv in (
    ["graph", "--input", panel, "--out-dir", out],
    ["cliques", "--input", panel, "--out-dir", out],
    ["cluster", "--input", panel, "--out-dir", out, "--k", "2"],
    ["simulate", "--out-dir", out, "--model", "bekk,dcc", "--sim-len", "50"],
):
    assert main(argv) == 0, argv
assert not loaded(), f"after graph, cliques, cluster, simulate: {loaded()}"
fit = ["fit", "--input", panel, "--out-dir", out, "--model", "bekk,dcc",
       "--starts", "1"]
assert main(fit) == 0
assert not loaded(), f"after fit: {loaded()}"
"""


def test_no_command_loads_scipy(tmp_path):
    panel = tmp_path / "panel.csv"
    write_returns_csv(
        bekk_simulate(bekk2(), np.array([0.001, -0.001]), 200, seed=31), panel
    )
    out = tmp_path / "out"
    # params.*.json for simulate come from a fit in this process
    assert main(["fit", "--input", str(panel), "--out-dir", str(out),
                 "--model", "bekk,dcc", "--starts", "1"]) == 0
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-c", CHILD, str(panel), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr
