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
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bekk import BekkParams, _bekk_steps, bekk_filter, bekk_fit, bekk_simulate
from .data import (
    ReturnPanel, _sim_blocks, _sim_labels, _write_returns, check_sim_len, sample_moments,
)
from .dcc import DccParams, _dcc_steps, dcc_cov_path, dcc_fit, dcc_simulate, dcc_stage1
from .errors import DataError
from .garch import Garch11Params
from .graphs import (
    ThresholdGraph,
    build_graph,
    compare_graphs,
    graph_to_json,
    maximal_cliques,
)
from .linalg import (
    _check_independent, _checked_pd, frobenius_path_loss, kl_divergence,
)
from .optimize import FitReport, OptimizerOptions
from .targeting import TargetSpec, build_target, check_delta

MODEL_KINDS = ("bekk", "bekk_mod", "dcc", "dcc_mod")


def check_models(models: tuple[str, ...]) -> tuple[str, ...]:
    """``models`` if it names one kind or more, all known, none repeated."""
    if not models:
        raise DataError("no model kinds given")
    unknown = [m for m in models if m not in MODEL_KINDS]
    if unknown:
        raise DataError(f"unknown model kinds {unknown}; valid: {', '.join(MODEL_KINDS)}")
    if len(set(models)) != len(models):
        raise DataError(f"model kinds repeated in {','.join(models)!r}")
    return models


@dataclass(frozen=True)
class RunConfig:
    """Validated evaluation configuration. The fits' ``opts`` are derived
    from ``starts`` and ``seed``, the one seed report.json records."""

    input: str
    models: tuple[str, ...] = MODEL_KINDS
    delta: float = 0.5
    seed: int = 0
    sim_len: int | None = None
    starts: int = OptimizerOptions.n_starts
    opts: OptimizerOptions = field(init=False)

    def __post_init__(self):
        check_models(self.models)
        check_delta(self.delta)
        if self.sim_len is not None:
            check_sim_len(self.sim_len)
        object.__setattr__(self, "opts", OptimizerOptions(self.starts, self.seed))


def render_json(doc) -> str:
    """The text of every JSON document: sorted keys, indent 2, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _f(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def fit_report_to_json(report: FitReport) -> dict:
    """The fit block: the FitReport's fields, a non-finite number as null."""
    doc = asdict(report)
    doc["per_start"] = list(doc["per_start"])  # a JSON array, as read back
    for d in (doc, *doc["per_start"]):
        d.update({k: _f(v) for k, v in d.items() if type(v) is float})
    return doc


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
    return {
        "model": "bekk",
        "n": params.n,
        "c_lower": params.to_vector()[: -2 * params.n].tolist(),
        "a_diag": params.a_diag.tolist(),
        "b_diag": params.b_diag.tolist(),
        "target": _target_stub(target),
        "mu": np.asarray(mu, dtype=float).tolist(),
        "h1": np.asarray(h1, dtype=float).tolist(),
    }


def dcc_document(
    params: DccParams, mu: np.ndarray, target: TargetSpec | None
) -> dict:
    """Fitted-model document for a DCC (the params JSON schema)."""
    return {
        "model": "dcc",
        "n": params.n,
        "univariate": [asdict(p) for p in params.univariate],
        "theta1": float(params.theta1),
        "theta2": float(params.theta2),
        "q_bar": params.q_bar.tolist(),
        "target": _target_stub(target),
        "mu": np.asarray(mu, dtype=float).tolist(),
    }


def _numbers(doc: dict, key: str, shape: tuple[int, ...] = ()):
    """``doc[key]`` as a float, or as a float array when a ``shape`` is given,
    if it is finite JSON numbers (int or float, not bool or str) nested in
    exactly that shape; else DataError naming ``key``."""
    a = np.array(doc[key], dtype=object)  # ragged lists nest less deep
    if a.shape != shape:
        want = (f"be {shape}" if len(shape) > 1 else
                f"have {shape[0]} entries" if shape else "be a number")
        raise DataError(f"{key} must {want}, got {a.shape}")
    for v in a.flat:
        if type(v) not in (int, float) or not math.isfinite(v):
            raise DataError(f"{key} must hold finite JSON numbers, got {v!r}")
    return a.astype(float) if shape else float(a)


def params_from_document(doc: dict):
    """Rebuild (model_name, params, mu, h1_or_None) from a params document,
    checked as far as simulating from it needs: every number read by
    _numbers, in its model's shape for the document's n series."""
    try:
        model, n = doc["model"], doc["n"]
        if type(n) is not int or n < 1:
            raise DataError(f"n must be a positive integer, got {n!r}")
        h1 = None
        if model == "bekk":
            sizes = {"c_lower": n * (n + 1) // 2, "a_diag": n, "b_diag": n}
            params = BekkParams.from_vector(
                np.concatenate([_numbers(doc, k, (m,)) for k, m in sizes.items()]), n)
            if doc.get("h1") is not None:
                h1, _ = _checked_pd(_numbers(doc, "h1", (n, n)), n, "h1")
        elif model == "dcc":
            uni = doc["univariate"]
            if len(uni) != n:
                raise DataError(f"n is {n} but the document has {len(uni)} series")
            params = DccParams(
                univariate=tuple(Garch11Params(**{f.name: _numbers(u, f.name)
                                                  for f in fields(Garch11Params)}) for u in uni),
                theta1=_numbers(doc, "theta1"),
                theta2=_numbers(doc, "theta2"),
                q_bar=_numbers(doc, "q_bar", (n, n)),
            )
        else:
            raise DataError(f"unknown model {model!r} in params document")
        mu = _numbers(doc, "mu", (n,))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed params document: {exc}") from exc
    return model, params, mu, h1


def _write_simulation(parsed: tuple, t_len: int, seed: int, path: Path) -> None:
    """Write the file write_returns_csv writes of the panel bekk_simulate or
    dcc_simulate gives for a document parsed by params_from_document,
    simulating its rows one block at a time as they are written."""
    model, params, mu, h1 = parsed
    step = _bekk_steps(params, h1) if model == "bekk" else _dcc_steps(params)
    _write_returns(path, _sim_labels(params.n), _sim_blocks(step, params.n, mu, t_len, seed))


def _graph_block(graph: ThresholdGraph, cliques: tuple[tuple[int, ...], ...]) -> dict:
    return {
        "graph": graph_to_json(graph),
        "cliques": [[graph.labels[v] for v in c] for c in cliques],
    }


def _setup(panel: ReturnPanel, config: RunConfig) -> tuple:
    """What every fit kind of one run shares: the panel's moments, the
    threshold target, and the stage-one fits (None without a DCC kind)."""
    moments = sample_moments(panel)
    _check_independent(moments.corr, "sample covariance", panel.labels)
    target = build_target(moments, config.delta)
    stage1 = None
    if any(k.startswith("dcc") for k in config.models):
        # both DCC variants share identical first-stage fits
        stage1 = dcc_stage1(panel, opts=config.opts)
    return moments, target, stage1


def _fit(kind: str, panel: ReturnPanel, setup: tuple, opts: OptimizerOptions) -> dict:
    """Fit one model kind, penalized toward the target for the _mod kinds;
    returns its {params, fit} block."""
    moments, target, stage1 = setup
    fit_target = target if kind.endswith("_mod") else None
    if kind.startswith("bekk"):
        params, fit = bekk_fit(panel.demeaned(), target=fit_target, opts=opts, h1=moments.cov)
        doc = bekk_document(params, panel.mean, moments.cov, fit_target)
    else:
        params, fit = dcc_fit(panel, target=fit_target, opts=opts, stage1=stage1)
        doc = dcc_document(params, panel.mean, fit_target)
    return {"params": doc, "fit": fit_report_to_json(fit)}


def evaluate_model(
    kind: str,
    panel: ReturnPanel,
    setup: tuple,
    observed_graph: ThresholdGraph,
    observed_cliques: tuple[tuple[int, ...], ...],
    config: RunConfig,
) -> dict:
    """Fit one model kind and extend its {params, fit} block from the model
    its params document holds, read back as `simulate` reads the file."""
    moments, target, _ = setup
    block = _fit(kind, panel, setup, config.opts)
    model, params, mu, h1 = params_from_document(block["params"])
    sim_len = config.sim_len if config.sim_len is not None else panel.t_len
    if model == "bekk":
        path = bekk_filter(panel.returns - mu, params, h1)
        sim = bekk_simulate(params, mu, sim_len, config.seed, h1=h1, labels=panel.labels)
    else:
        path = dcc_cov_path(panel, params)
        sim = dcc_simulate(params, mu, sim_len, config.seed, labels=panel.labels)
    sim_moments = sample_moments(sim)
    sim_graph = build_graph(sim_moments.corr, panel.labels, config.delta)
    sim_cliques = maximal_cliques(sim_graph)
    losses = {
        "frobenius_vs_target": _f(frobenius_path_loss(path, target.sigma_hat)),
        "frobenius_vs_sample": _f(frobenius_path_loss(path, moments.cov)),
        "kl_simulated": _f(kl_divergence(target.sigma_hat, sim_moments.cov)),
    }
    return {
        **block,
        "losses": losses,
        "simulated": _graph_block(sim_graph, sim_cliques),
        "comparison": compare_graphs(observed_graph, sim_graph, observed_cliques, sim_cliques),
    }


def run_fits(panel: ReturnPanel, config: RunConfig) -> dict:
    """Fit the requested kinds only; returns {kind: {params, fit}} blocks."""
    setup = _setup(panel, config)
    return {kind: _fit(kind, panel, setup, config.opts) for kind in config.models}


def run_evaluation(panel: ReturnPanel, config: RunConfig) -> dict:
    """Run the full pipeline over every requested model kind; returns the
    report document, which render_json and render_text_table render."""
    if config.sim_len is not None and config.sim_len <= panel.n:
        raise DataError(f"simulation length {config.sim_len} must exceed the {panel.n} series")
    setup = _setup(panel, config)
    moments, target, _ = setup
    observed_graph = build_graph(moments.corr, panel.labels, config.delta)
    observed_cliques = maximal_cliques(observed_graph)
    blocks = {
        kind: evaluate_model(
            kind, panel, setup, observed_graph, observed_cliques, config
        )
        for kind in config.models
    }
    return {
        "config": {
            "input": config.input,
            "models": list(config.models),
            "delta": float(config.delta),
            "seed": int(config.seed),
            "sim_len": int(config.sim_len) if config.sim_len is not None else None,
            "starts": int(config.starts),
        },
        "panel": {
            "labels": list(panel.labels),
            "n": panel.n,
            "t": panel.t_len,
        },
        "target": {
            **_target_stub(target),
            "z_hat": target.z_hat.tolist(),
            "sigma_hat": target.sigma_hat.tolist(),
        },
        "observed": _graph_block(observed_graph, observed_cliques),
        "models": blocks,
    }


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
