"""Output checks and the deterministic facts read from each workload's
outputs.

Each check returns ``(facts, failures)``: ``facts`` are numbers reported
next to the timings (objectives, converged flags, degenerate GARCH fits,
clique counts), ``failures`` maps a command index to the reasons its output
is wrong. The references come from the generating model the benchmark
itself chose, evaluated with the package's public functions, or are
recomputed here with numpy.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads as W

# AC07's bound on the relative Frobenius distance between a long simulated
# sample covariance and the model's unconditional covariance.
SIM_COV_TOL = 0.10
# A stage-1 GARCH fit is degenerate when its unconditional variance
# omega / (1 - alpha - beta) is this far from the series' sample variance.
DEGENERATE_RATIO = (0.1, 10.0)


def _read_numeric_csv(path: Path, skip: int) -> np.ndarray:
    """Rows after ``skip`` header lines, date column dropped."""
    lines = path.read_text().splitlines()[skip:]
    flat = ",".join(line.split(",", 1)[1] for line in lines).split(",")
    return np.array(flat, dtype=float).reshape(len(lines), -1)


def check_fits(workdir: Path, info: dict, models: tuple[str, ...]) -> tuple[dict, list]:
    """desk5, dcc15: finite objectives, each at least the same objective at
    the generating parameters, and the degenerate stage-1 count."""
    from covtarget import (
        BekkParams, DccParams, bekk_loglik, bekk_modified_loglik, build_target,
        dcc_modified_loglik, dcc_stage2_loglik, dcc_std_residuals, load_panel,
        sample_moments,
    )
    from covtarget.report import params_from_document

    bad: list[str] = []
    report = json.loads((workdir / "report.json").read_text())
    panel = load_panel(workdir / "returns.csv")
    moments = sample_moments(panel)
    target = build_target(moments, W.DELTA_FIT)
    eps = panel.demeaned()
    facts: dict = {}
    converged = 0
    for kind in models:
        block = report["models"][kind]
        obj = block["fit"]["objective"]
        converged += bool(block["fit"]["converged"])
        if obj is None or not math.isfinite(obj):
            bad.append(f"{kind}: objective is not finite")
            continue
        facts[f"objective.{kind}"] = obj
        if kind.startswith("bekk"):
            g = info["bekk"]
            p = BekkParams(c_lower=g["c_lower"], a_diag=g["a"], b_diag=g["b"])
            ref = (bekk_loglik(eps, p, h1=moments.cov) if kind == "bekk" else
                   bekk_modified_loglik(eps, p, target, h1=moments.cov))
        else:
            _, fitted, _, _ = params_from_document(block["params"])
            z = dcc_std_residuals(panel, fitted)
            p = DccParams(univariate=fitted.univariate, theta1=info["theta"][0],
                          theta2=info["theta"][1], q_bar=fitted.q_bar)
            ref = (dcc_stage2_loglik(z, p) if kind == "dcc" else
                   dcc_modified_loglik(z, p, target))
        facts[f"objective_at_generating.{kind}"] = ref
        if not obj >= ref:
            bad.append(f"{kind}: fitted objective {obj!r} is below {ref!r} "
                       "at the generating parameters")
    facts["converged_frac"] = converged / len(models)
    if any(k.startswith("dcc") for k in models):
        doc = json.loads((workdir / "params.dcc.json").read_text())
        var = eps.var(axis=0, ddof=1)
        ratios = [u["omega"] / (1.0 - u["alpha"] - u["beta"]) / v
                  for u, v in zip(doc["univariate"], var)]
        lo, hi = DEGENERATE_RATIO
        facts["garch_degenerate"] = sum(not lo <= r <= hi for r in ratios)
        facts["garch_degenerate_series"] = {
            lab: r for lab, r in zip(panel.labels, ratios) if not lo <= r <= hi
        }
    return facts, bad


def check_panels(workdir: Path, info: dict, models: tuple[str, ...],
                 panels: int) -> tuple[dict, dict]:
    """check_fits over each panel directory (command j fits panel j);
    objectives are keyed by panel when there are several."""
    facts: dict = {"converged_frac": 0.0, "garch_degenerate": 0,
                   "garch_degenerate_series": {}}
    failures = {}
    for j in range(panels):
        f, bad = check_fits(workdir / f"panel{j}", info, models)
        if bad:
            failures[j] = bad
        suffix = f"@panel{j}" if panels > 1 else ""
        facts.update({k + suffix: v for k, v in f.items()
                      if k.startswith("objective")})
        facts["converged_frac"] += f["converged_frac"] / panels
        facts["garch_degenerate"] += f.get("garch_degenerate", 0)
        facts["garch_degenerate_series"].update(
            {f"panel{j}:{lab}": r
             for lab, r in f.get("garch_degenerate_series", {}).items()})
    return facts, failures


def check_screen(workdir: Path) -> tuple[dict, dict]:
    """screen500: the dendrogram and cut (command 0) and every clique being
    complete and maximal in the threshold graph rebuilt here (command 1)."""
    failures: dict[int, list[str]] = defaultdict(list)
    prices = _read_numeric_csv(workdir / "prices.csv", skip=1)
    corr = np.corrcoef(np.diff(np.log(prices), axis=0), rowvar=False)
    n = corr.shape[0]

    dend = json.loads((workdir / "dendrogram.json").read_text())
    heights = [m[2] for m in dend["merges"]]
    if len(heights) != n - 1:
        failures[0].append(f"{len(heights)} merges for {n} leaves")
    if any(b < a for a, b in zip(heights, heights[1:])):
        failures[0].append("merge heights decrease")
    clusters = dend.get("clusters", {})
    if len(clusters) != n or len(set(clusters.values())) != W.SCREEN_K:
        failures[0].append(f"cut does not yield {W.SCREEN_K} clusters over {n} series")

    doc = json.loads((workdir / "cliques.json").read_text())
    index = {lab: i for i, lab in enumerate(doc["labels"])}
    adj = np.abs(corr) > W.DELTA_SCREEN
    np.fill_diagonal(adj, False)
    for clique in doc["cliques"]:
        c = [index[lab] for lab in clique]
        sub = adj[np.ix_(c, c)] | np.eye(len(c), dtype=bool)
        common = np.all(adj[c], axis=0)
        if not sub.all():
            failures[1].append(f"clique {clique[:3]}... is not complete")
        elif common.any():
            failures[1].append(f"clique {clique[:3]}... is not maximal")
    return {"cliques": len(doc["cliques"])}, dict(failures)


def check_mc(workdir: Path, info: dict) -> tuple[dict, dict]:
    """mc15: row counts and sample covariances within AC07's bound."""
    bad: list[str] = []
    facts: dict = {}
    sigma = info["uncond_cov"]
    for kind in ("bekk", "dcc"):
        x = _read_numeric_csv(workdir / f"sim.{kind}.csv", skip=2)
        if x.shape != (W.MC_SIM_LEN, sigma.shape[0]):
            bad.append(f"sim.{kind}.csv has shape {x.shape}")
            continue
        dist = float(np.linalg.norm(np.cov(x, rowvar=False) - sigma)
                     / np.linalg.norm(sigma))
        facts[f"sim_cov_distance.{kind}"] = dist
        if not dist <= SIM_COV_TOL:
            bad.append(f"sim.{kind}.csv covariance is {dist:.3f} from the model's")
    return facts, ({0: bad} if bad else {})


def check(name: str, workdir: Path, info: dict) -> tuple[dict, dict]:
    if name == "screen500":
        return check_screen(workdir)
    if name == "mc15":
        return check_mc(workdir, info)
    if name == "desk5":
        return check_panels(workdir, info, ("bekk", "bekk_mod", "dcc", "dcc_mod"), 1)
    return check_panels(workdir, info, ("dcc", "dcc_mod"), W.DCC15_PANELS)

