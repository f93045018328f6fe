"""Seeded inputs and command lines for the four benchmark workloads.

Every input is generated here with numpy's PCG64 generator from the run seed
or the panel seed, by code that does not call the package, so a change to
the package never changes what it is fed. The program sees only the files
written here (a returns or price CSV, or params documents) and the command
lines.
"""
from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABELS5 = ("MSFT", "AMZN", "CRM", "FB", "AAPL")

LABELS15 = (
    "MSFT", "AMZN", "CRM", "FB", "AAPL", "VZ", "GOOG", "V",
    "GM", "GS", "KO", "BA", "JPM", "INTC", "CSCO",
)

# Observed correlations of the 15-stock US equity panel the package's tests
# use; the 5-stock matrix is its leading block.
CORR15 = np.array(
    [
        [1.0000, 0.7712, 0.7690, 0.6855, 0.6914, 0.8067, 0.4671, 0.5619,
         0.6656, 0.4566, 0.4038, 0.4834, 0.4387, 0.5493, 0.5777],
        [0.7712, 1.0000, 0.8435, 0.7028, 0.6458, 0.7581, 0.4539, 0.6225,
         0.7123, 0.5523, 0.4810, 0.5412, 0.5580, 0.6333, 0.6596],
        [0.7690, 0.8435, 1.0000, 0.7413, 0.7508, 0.8558, 0.4849, 0.6484,
         0.7830, 0.6080, 0.4798, 0.5912, 0.5838, 0.7187, 0.7171],
        [0.6855, 0.7028, 0.7413, 1.0000, 0.6121, 0.6837, 0.2288, 0.3825,
         0.4519, 0.3955, 0.2451, 0.2697, 0.3162, 0.5065, 0.4991],
        [0.6914, 0.6458, 0.7508, 0.6121, 1.0000, 0.6846, 0.4191, 0.5118,
         0.6353, 0.4143, 0.3995, 0.4562, 0.4472, 0.5170, 0.5358],
        [0.8067, 0.7581, 0.8558, 0.6837, 0.6846, 1.0000, 0.5379, 0.6644,
         0.7903, 0.5877, 0.5163, 0.6020, 0.6172, 0.6535, 0.6838],
        [0.4671, 0.4539, 0.4849, 0.2288, 0.4191, 0.5379, 1.0000, 0.7488,
         0.7014, 0.4135, 0.6972, 0.7590, 0.5881, 0.4913, 0.5131],
        [0.5619, 0.6225, 0.6484, 0.3825, 0.5118, 0.6644, 0.7488, 1.0000,
         0.7604, 0.5899, 0.6963, 0.8907, 0.7001, 0.5981, 0.6526],
        [0.6656, 0.7123, 0.7830, 0.4519, 0.6353, 0.7903, 0.7014, 0.7604,
         1.0000, 0.6280, 0.6541, 0.7773, 0.7363, 0.6404, 0.7295],
        [0.4566, 0.5523, 0.6080, 0.3955, 0.4143, 0.5877, 0.4135, 0.5899,
         0.6280, 1.0000, 0.4366, 0.5975, 0.7133, 0.5698, 0.6544],
        [0.4038, 0.4810, 0.4798, 0.2451, 0.3995, 0.5163, 0.6972, 0.6963,
         0.6541, 0.4366, 1.0000, 0.7211, 0.6461, 0.4908, 0.5061],
        [0.4834, 0.5412, 0.5912, 0.2697, 0.4562, 0.6020, 0.7590, 0.8907,
         0.7773, 0.5975, 0.7211, 1.0000, 0.7304, 0.5663, 0.6145],
        [0.4387, 0.5580, 0.5838, 0.3162, 0.4472, 0.6172, 0.5881, 0.7001,
         0.7363, 0.7133, 0.6461, 0.7304, 1.0000, 0.5542, 0.5984],
        [0.5493, 0.6333, 0.7187, 0.5065, 0.5170, 0.6535, 0.4913, 0.5981,
         0.6404, 0.5698, 0.4908, 0.5663, 0.5542, 1.0000, 0.6700],
        [0.5777, 0.6596, 0.7171, 0.4991, 0.5358, 0.6838, 0.5131, 0.6526,
         0.7295, 0.6544, 0.5061, 0.6145, 0.5984, 0.6700, 1.0000],
    ]
)
CORR5 = CORR15[:5, :5].copy()

# Generating models. BEKK: diagonal A = a I, B = b I, unconditional
# covariance SIGMA, so CC' = (1 - a^2 - b^2) SIGMA. DCC: one GARCH(1,1) per
# series with unconditional variance omega / (1 - alpha - beta) = 0.02^2,
# correlation dynamics THETA around q_bar.
BEKK_A, BEKK_B = 0.3, 0.9
GARCH_OMEGA, GARCH_ALPHA, GARCH_BETA = 2e-5, 0.05, 0.90
DCC_THETA = (0.05, 0.93)
DAILY_VOL = 0.02
BURN_IN = 200

# The fitted panels of desk5 and dcc15 come from ``panel_seed``, which is
# fixed unless the caller passes another; the run seed reaches these
# workloads only as the program's --seed. A fit's evaluation count depends
# strongly on its panel (desk5 panels 0-5 took 16.0k to 22.3k evaluations,
# dcc15 stage 2 took 121 to 268), which would put a third of the median
# between the quartiles of runs over seeds. dcc15 fits two panels per run;
# the second carries the workload's degenerate stage-1 fits.
DELTA_FIT = 0.5
DCC15_PANELS = 2
DELTA_SCREEN = 0.4   # screen500; below ~0.35 the clique count explodes
SCREEN_K = 20
SCREEN_N, SCREEN_ROWS, SCREEN_SECTORS = 500, 1000, 20
MC_SIM_LEN = 100_000

_START = dt.date(2000, 1, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    # per command, the output files whose bytes must repeat for a seed
    outputs: tuple[tuple[str, ...], ...]

    def generate(self, out: Path, seed: int, panel_seed: int) -> dict:
        """Write this workload's inputs into ``out``; returns what the
        output checks need to know about the generating model."""
        return _GENERATORS[self.name](out, seed, panel_seed)


def _dates(t_len: int) -> list[str]:
    return [(_START + dt.timedelta(days=t)).isoformat() for t in range(t_len)]


def _write_csv(path: Path, labels, rows: np.ndarray, returns: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["#returns"] if returns else []
    lines.append("date," + ",".join(labels))
    for date, row in zip(_dates(rows.shape[0]), rows):
        lines.append(date + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def bekk_path(cc, a, b, t_len, rng) -> np.ndarray:
    """Diagonal BEKK(1,1) returns from the unconditional covariance, after a
    burn-in: H_t = CC' + (a a') o e e' + (b b') o H_{t-1}."""
    n = cc.shape[0]
    aa, bb = np.outer(a, a), np.outer(b, b)
    h = cc / (1.0 - aa - bb)
    out = np.empty((t_len, n))
    for t in range(BURN_IN + t_len):
        e = np.linalg.cholesky(h) @ rng.standard_normal(n)
        if t >= BURN_IN:
            out[t - BURN_IN] = e
        h = cc + aa * np.outer(e, e) + bb * h
    return out


def dcc_path(q_bar, t_len, rng) -> np.ndarray:
    """DCC(1,1) returns with identical GARCH(1,1) margins, after a burn-in."""
    n = q_bar.shape[0]
    t1, t2 = DCC_THETA
    h = np.full(n, GARCH_OMEGA / (1.0 - GARCH_ALPHA - GARCH_BETA))
    q = q_bar.copy()
    out = np.empty((t_len, n))
    for t in range(BURN_IN + t_len):
        d = np.sqrt(np.diag(q))
        z = np.linalg.cholesky(q / np.outer(d, d)) @ rng.standard_normal(n)
        e = np.sqrt(h) * z
        if t >= BURN_IN:
            out[t - BURN_IN] = e
        h = GARCH_OMEGA + GARCH_ALPHA * e * e + GARCH_BETA * h
        q = (1.0 - t1 - t2) * q_bar + t1 * np.outer(z, z) + t2 * q
    return out


def _sigma(corr: np.ndarray) -> np.ndarray:
    return DAILY_VOL**2 * corr


def _bekk_c(corr: np.ndarray) -> np.ndarray:
    return np.linalg.cholesky((1.0 - BEKK_A**2 - BEKK_B**2) * _sigma(corr))


def gen_desk5(out: Path, seed: int, panel_seed: int) -> dict:
    rng = np.random.default_rng([panel_seed, 5])
    c = _bekk_c(CORR5)
    n = len(LABELS5)
    eps = bekk_path(c @ c.T, np.full(n, BEKK_A), np.full(n, BEKK_B), 252, rng)
    _write_csv(out / "panel0" / "returns.csv", LABELS5, 3e-4 + eps, returns=True)
    return {
        "bekk": {"c_lower": c, "a": np.full(n, BEKK_A), "b": np.full(n, BEKK_B)},
        # the scalar BEKK above is a covariance-scale DCC with these thetas
        "theta": (BEKK_A**2, BEKK_B**2),
    }


def gen_dcc15(out: Path, seed: int, panel_seed: int) -> dict:
    for j in range(DCC15_PANELS):
        rng = np.random.default_rng([panel_seed, 15, j])
        eps = dcc_path(CORR15, 500, rng)
        _write_csv(out / f"panel{j}" / "returns.csv", LABELS15, 3e-4 + eps,
                   returns=True)
    return {"theta": DCC_THETA}


def gen_screen500(out: Path, seed: int, panel_seed: int) -> dict:
    """Prices from a market factor plus one of 20 sector factors per stock.

    Loadings are drawn so that within-sector correlations straddle
    DELTA_SCREEN and cross-sector ones stay below ~0.3.
    """
    rng = np.random.default_rng([seed, 500])
    n, t_len, k = SCREEN_N, SCREEN_ROWS - 1, SCREEN_SECTORS
    sector = np.arange(n) % k
    b_mkt = rng.uniform(0.48, 0.56, n)
    b_sec = rng.uniform(0.34, 0.40, n)
    b_idio = np.sqrt(1.0 - b_mkt**2 - b_sec**2)
    vol = rng.uniform(0.01, 0.03, n)
    mkt = rng.standard_normal(t_len)
    sec = rng.standard_normal((t_len, k))
    idio = rng.standard_normal((t_len, n))
    r = vol * (b_mkt * mkt[:, None] + b_sec * sec[:, sector] + b_idio * idio)
    logp = np.log(100.0) + np.vstack([np.zeros(n), np.cumsum(r, axis=0)])
    labels = [f"S{i:03d}" for i in range(n)]
    _write_csv(out / "prices.csv", labels, np.exp(logp), returns=False)
    return {}


def _bekk_document(n: int) -> dict:
    c = _bekk_c(CORR15)
    rows, cols = np.tril_indices(n)
    return {
        "model": "bekk",
        "n": n,
        "c_lower": [float(v) for v in c[rows, cols]],
        "a_diag": [BEKK_A] * n,
        "b_diag": [BEKK_B] * n,
        "target": None,
        "mu": [0.0] * n,
        "h1": _sigma(CORR15).tolist(),
    }


def _dcc_document(n: int) -> dict:
    return {
        "model": "dcc",
        "n": n,
        "univariate": [
            {"omega": GARCH_OMEGA, "alpha": GARCH_ALPHA, "beta": GARCH_BETA}
        ] * n,
        "theta1": DCC_THETA[0],
        "theta2": DCC_THETA[1],
        "q_bar": CORR15.tolist(),
        "target": None,
        "mu": [0.0] * n,
    }


def gen_mc15(out: Path, seed: int, panel_seed: int) -> dict:
    """Params documents of known 15-asset models; ``seed`` reaches the
    program as the simulate command's --seed."""
    n = len(LABELS15)
    for kind, doc in (("bekk", _bekk_document(n)), ("dcc", _dcc_document(n))):
        (out / f"params.{kind}.json").write_text(json.dumps(doc, indent=2) + "\n")
    # Both models have unconditional covariance 0.02^2 * CORR15 (the DCC's
    # unconditional correlation is q_bar up to a small bias).
    return {"uncond_cov": _sigma(CORR15)}


_GENERATORS = {
    "desk5": gen_desk5,
    "dcc15": gen_dcc15,
    "screen500": gen_screen500,
    "mc15": gen_mc15,
}

def _evaluate(panel: str, models: str) -> tuple[str, ...]:
    return ("evaluate", "--input", f"{panel}/returns.csv", "--model", models,
            "--starts", "1", "--delta", str(DELTA_FIT), "--out-dir", panel)


_DCC15 = [f"panel{j}" for j in range(DCC15_PANELS)]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk5",
            (_evaluate("panel0", "bekk,bekk_mod,dcc,dcc_mod"),),
            (("panel0/report.json",),),
        ),
        Workload(
            "dcc15",
            tuple(_evaluate(p, "dcc,dcc_mod") for p in _DCC15),
            tuple((f"{p}/report.json",) for p in _DCC15),
        ),
        Workload(
            "screen500",
            (("cluster", "--input", "prices.csv", "--k", str(SCREEN_K),
              "--out-dir", "."),
             ("cliques", "--input", "prices.csv", "--delta", str(DELTA_SCREEN),
              "--out-dir", ".")),
            (("dendrogram.json",), ("cliques.json",)),
        ),
        Workload(
            "mc15",
            (("simulate", "--model", "bekk,dcc", "--sim-len", str(MC_SIM_LEN),
              "--out-dir", "."),),
            (("sim.bekk.csv", "sim.dcc.csv"),),
        ),
    )
}
