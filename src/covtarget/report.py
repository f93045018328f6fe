"""End-to-end evaluation pipeline.

For each requested model kind the pipeline fits the model, computes its
in-sample covariance path losses against the threshold target, simulates a
same-length panel from the fitted parameters, and compares the simulated
threshold graph and maximal cliques against the observed ones. Output is a
JSON document whose bytes depend only on (input data, configuration, seed):
no timestamps, no environment echoes, keys always sorted.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bekk import BekkParams, bekk_filter, bekk_fit, bekk_simulate
from .data import ReturnPanel, sample_moments
from .dcc import (
    DccParams,
    dcc_cov_path,
    dcc_fit,
    dcc_simulate,
    dcc_stage1,
)
from .errors import DataError, NotPositiveDefiniteError
from .garch import Garch11Params
from .graphs import (
    ThresholdGraph,
    build_graph,
    compare_graphs,
    graph_to_json,
    maximal_cliques,
)
from .linalg import cholesky, frobenius_path_loss, kl_divergence
from .optimize import FitReport, OptimizerOptions
from .targeting import TargetSpec, build_target

MODEL_KINDS = ("bekk", "bekk_mod", "dcc", "dcc_mod")


@dataclass(frozen=True)
class RunConfig:
    """Validated evaluation configuration."""

    input: str
    models: tuple[str, ...] = MODEL_KINDS
    delta: float = 0.5
    seed: int = 0
    sim_len: int | None = None
    opts: OptimizerOptions = field(default_factory=OptimizerOptions)

    def __post_init__(self):
        if not self.models:
            raise DataError("no models requested")
        unknown = [m for m in self.models if m not in MODEL_KINDS]
        if unknown:
            raise DataError(
                f"unknown model kinds {unknown}; valid kinds: {list(MODEL_KINDS)}"
            )
        if len(set(self.models)) != len(self.models):
            raise DataError("duplicate model kinds requested")
        if not (0.0 <= float(self.delta) < 1.0):
            raise DataError(f"delta must be in [0, 1), got {self.delta}")
        if self.sim_len is not None and self.sim_len < 2:
            raise DataError(f"sim_len must be >= 2, got {self.sim_len}")


@dataclass(frozen=True)
class EvalReport:
    """Assembled evaluation document plus deterministic renderings."""

    doc: dict

    def to_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        return render_text_table(self.doc)


def _f(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def _matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


def fit_report_to_json(report: FitReport) -> dict:
    return {
        "objective": _f(report.objective),
        "grad_norm": _f(report.grad_norm),
        "iterations": int(report.iterations),
        "start_winner": int(report.start_winner),
        "converged": bool(report.converged),
        "per_start": [
            {"objective": _f(s.objective), "converged": bool(s.converged)}
            for s in report.per_start
        ],
    }


def _target_stub(target: TargetSpec | None) -> dict | None:
    if target is None:
        return None
    return {"delta": float(target.delta), "pd_adjusted": bool(target.pd_adjusted)}


def bekk_document(
    params: BekkParams,
    mu: np.ndarray,
    h1: np.ndarray,
    target: TargetSpec | None,
) -> dict:
    """Fitted-model document for a diagonal BEKK (the params JSON schema)."""
    rows, cols = np.tril_indices(params.n)
    return {
        "model": "bekk",
        "n": params.n,
        "c_lower": [float(v) for v in params.c_lower[rows, cols]],
        "a_diag": [float(v) for v in params.a_diag],
        "b_diag": [float(v) for v in params.b_diag],
        "target": _target_stub(target),
        "mu": [float(v) for v in np.asarray(mu, dtype=float)],
        "h1": _matrix(h1),
    }


def dcc_document(
    params: DccParams, mu: np.ndarray, target: TargetSpec | None
) -> dict:
    """Fitted-model document for a DCC (the params JSON schema)."""
    return {
        "model": "dcc",
        "n": params.n,
        "univariate": [
            {"omega": p.omega, "alpha": p.alpha, "beta": p.beta}
            for p in params.univariate
        ],
        "theta1": float(params.theta1),
        "theta2": float(params.theta2),
        "q_bar": _matrix(params.q_bar),
        "target": _target_stub(target),
        "mu": [float(v) for v in np.asarray(mu, dtype=float)],
    }


def params_from_document(doc: dict):
    """Rebuild (model_name, params, mu, h1_or_None) from a params document."""
    try:
        model = doc["model"]
        n = int(doc["n"])
        mu = np.asarray(doc["mu"], dtype=float)
        if model == "bekk":
            m = n * (n + 1) // 2
            flat = np.asarray(doc["c_lower"], dtype=float)
            if flat.shape != (m,):
                raise DataError(
                    f"c_lower must have {m} entries for n={n}, got {flat.shape}"
                )
            c = np.zeros((n, n))
            c[np.tril_indices(n)] = flat
            params = BekkParams(
                c_lower=c,
                a_diag=np.asarray(doc["a_diag"], dtype=float),
                b_diag=np.asarray(doc["b_diag"], dtype=float),
            )
            h1 = np.asarray(doc["h1"], dtype=float) if doc.get("h1") is not None else None
            return model, params, mu, h1
        if model == "dcc":
            uni = tuple(
                Garch11Params(
                    omega=float(u["omega"]),
                    alpha=float(u["alpha"]),
                    beta=float(u["beta"]),
                )
                for u in doc["univariate"]
            )
            params = DccParams(
                univariate=uni,
                theta1=float(doc["theta1"]),
                theta2=float(doc["theta2"]),
                q_bar=np.asarray(doc["q_bar"], dtype=float),
            )
            return model, params, mu, None
        raise DataError(f"unknown model {model!r} in params document")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed params document: {exc}") from exc


def _graph_block(graph: ThresholdGraph) -> dict:
    cliques = maximal_cliques(graph)
    return {
        "graph": graph_to_json(graph),
        "cliques": [list(c) for c in cliques.as_labels(graph.labels)],
    }


def _setup(panel: ReturnPanel, config: RunConfig) -> tuple:
    """What every fit kind of one run shares: the panel's moments, the
    threshold target, and the stage-one fits (None without a DCC kind)."""
    moments = sample_moments(panel)
    try:
        cholesky(moments.cov)
    except NotPositiveDefiniteError as exc:
        raise DataError(
            f"sample covariance is singular: series {panel.labels[exc.pivot]} "
            "is a linear combination of the series before it"
        ) from exc
    target = build_target(moments, config.delta)
    stage1 = None
    if any(k.startswith("dcc") for k in config.models):
        # both DCC variants share identical first-stage fits
        stage1 = dcc_stage1(panel, opts=config.opts)
    return moments, target, stage1


def _fit(
    kind: str, panel: ReturnPanel, setup: tuple, opts: OptimizerOptions
) -> tuple:
    """Fit one model kind, penalized toward the target for the _mod kinds.

    Returns its params document and FitReport, plus callables giving its
    in-sample covariance path and a simulated panel of (t_len, seed).
    """
    moments, target, stage1 = setup
    fit_target = target if kind.endswith("_mod") else None
    if kind.startswith("bekk"):
        eps, h1 = panel.demeaned(), moments.cov
        params, fit = bekk_fit(eps, target=fit_target, opts=opts, h1=h1)
        return (
            bekk_document(params, panel.mean, h1, fit_target),
            fit,
            lambda: bekk_filter(eps, params, h1).h,
            lambda t_len, seed: bekk_simulate(
                params, panel.mean, t_len, seed, h1=h1, labels=panel.labels
            ),
        )
    params, fit = dcc_fit(panel, target=fit_target, opts=opts, stage1=stage1)
    return (
        dcc_document(params, panel.mean, fit_target),
        fit,
        lambda: dcc_cov_path(panel, params),
        lambda t_len, seed: dcc_simulate(
            params, panel.mean, t_len, seed, labels=panel.labels
        ),
    )


def evaluate_model(
    kind: str,
    panel: ReturnPanel,
    setup: tuple,
    observed_graph: ThresholdGraph,
    config: RunConfig,
) -> dict:
    """Fit one model kind and assemble its report block."""
    moments, target, _ = setup
    doc, fit, path_of, simulate = _fit(kind, panel, setup, config.opts)
    path = path_of()
    sim_len = config.sim_len if config.sim_len is not None else panel.t_len
    sim_moments = sample_moments(simulate(sim_len, config.seed))
    sim_graph = build_graph(sim_moments.corr, panel.labels, config.delta)
    comparison = compare_graphs(observed_graph, sim_graph)
    losses = {
        "frobenius_vs_target": _f(frobenius_path_loss(path, target.sigma_hat)),
        "frobenius_vs_sample": _f(frobenius_path_loss(path, moments.cov)),
        "kl_simulated": _f(kl_divergence(target.sigma_hat, sim_moments.cov)),
    }
    return {
        "params": doc,
        "fit": fit_report_to_json(fit),
        "losses": losses,
        "simulated": _graph_block(sim_graph),
        "comparison": {
            "edge_jaccard": _f(comparison.edge_jaccard),
            "cliques_matched": int(comparison.cliques_matched),
            "clique_best_jaccard": [_f(v) for v in comparison.clique_best_jaccard],
            "edges_only_observed": [list(e) for e in comparison.edges_only_observed],
            "edges_only_simulated": [list(e) for e in comparison.edges_only_simulated],
        },
    }


def run_fits(panel: ReturnPanel, config: RunConfig) -> dict:
    """Fit the requested kinds only; returns {kind: {params, fit}} blocks."""
    setup = _setup(panel, config)
    blocks: dict[str, dict] = {}
    for kind in config.models:
        doc, fit, _, _ = _fit(kind, panel, setup, config.opts)
        blocks[kind] = {"params": doc, "fit": fit_report_to_json(fit)}
    return blocks


def run_evaluation(panel: ReturnPanel, config: RunConfig) -> EvalReport:
    """Run the full pipeline over every requested model kind."""
    setup = _setup(panel, config)
    moments, target, _ = setup
    observed_graph = build_graph(moments.corr, panel.labels, config.delta)
    blocks = {
        kind: evaluate_model(kind, panel, setup, observed_graph, config)
        for kind in config.models
    }
    doc = {
        "config": {
            "input": config.input,
            "models": list(config.models),
            "delta": float(config.delta),
            "seed": int(config.seed),
            "sim_len": int(config.sim_len) if config.sim_len is not None else None,
            "starts": int(config.opts.n_starts),
        },
        "panel": {
            "labels": list(panel.labels),
            "n": panel.n,
            "t": panel.t_len,
        },
        "target": {
            "delta": float(target.delta),
            "pd_adjusted": bool(target.pd_adjusted),
            "z_hat": _matrix(target.z_hat),
            "sigma_hat": _matrix(target.sigma_hat),
        },
        "observed": _graph_block(observed_graph),
        "models": blocks,
    }
    return EvalReport(doc=doc)


def render_text_table(doc: dict) -> str:
    """Fixed-width summary of the report document."""
    lines = []
    cfg = doc["config"]
    lines.append(
        f"input: {cfg['input']}   delta: {cfg['delta']:g}   seed: {cfg['seed']}"
    )
    obs_cliques = doc["observed"]["cliques"]
    lines.append(f"observed maximal cliques ({len(obs_cliques)}):")
    for c in obs_cliques:
        lines.append("  {" + ", ".join(c) + "}")
    header = (
        f"{'model':<10} {'loglik':>14} {'F(target)':>12} {'F(sample)':>12} "
        f"{'KL(sim)':>10} {'cliques':>8}"
    )
    lines.append("")
    lines.append(header)
    lines.append("-" * len(header))
    for kind in doc["config"]["models"]:
        block = doc["models"][kind]
        losses = block["losses"]
        comp = block["comparison"]
        n_obs = len(obs_cliques)
        lines.append(
            f"{kind:<10} {_fmt(block['fit']['objective'], 14, 6)} "
            f"{_fmt(losses['frobenius_vs_target'], 12, 6)} "
            f"{_fmt(losses['frobenius_vs_sample'], 12, 6)} "
            f"{_fmt(losses['kl_simulated'], 10, 4)} "
            f"{comp['cliques_matched']:>5}/{n_obs}"
        )
    return "\n".join(lines) + "\n"


def _fmt(v, width: int, prec: int) -> str:
    if v is None:
        return " " * (width - 3) + "nan"
    return f"{v:>{width}.{prec}g}"
