"""Command-line interface.

Subcommands: cluster, fit, simulate, graph, cliques, evaluate. Options can
also come from a ``key = value`` config file (--config); explicit flags win
over the file, which wins over built-in defaults. Exit codes: 0 success,
2 usage problems, 3 data errors, 4 estimation failures. Set COVTARGET_LOG
(DEBUG/INFO/...) to get diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .bekk import bekk_simulate
from .cluster import complete_linkage, corr_distance, cut_tree, dendrogram_to_json
from .data import ReturnPanel, load_panel, sample_moments, write_returns_csv, write_text_atomic
from .dcc import dcc_simulate
from .errors import (
    CovTargetError,
    DataError,
    EstimationError,
    NumericalOverflowError,
)
from .graphs import graph_from_json, graph_to_dot, graph_to_json, build_graph, maximal_cliques
from .optimize import OptimizerOptions
from .report import (
    MODEL_KINDS,
    RunConfig,
    params_from_document,
    run_evaluation,
    run_fits,
)

log = logging.getLogger(__name__)

_DEFAULTS = {
    "out_dir": ".",
    "seed": 0,
    "delta": 0.5,
    "model": ",".join(MODEL_KINDS),
    "sim_len": None,
    "starts": None,
    "input": None,
    "format": None,
    "k": None,
}

_FORMATS = {
    "cluster": ("text", "json"),
    "graph": ("dot", "json"),
    "cliques": ("text", "json"),
    "evaluate": ("text", "json"),
}


class UsageError(Exception):
    """Bad flag combinations or config contents; exits 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covtarget",
        description=(
            "Covariance-targeted multivariate GARCH: fit diagonal BEKK and "
            "DCC models (optionally penalized toward a thresholded "
            "correlation target), simulate them, and compare threshold "
            "graphs and maximal cliques."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input CSV (price panel or #returns panel)")
        p.add_argument("--out-dir", dest="out_dir", help="directory for output files")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--delta", type=float, help="correlation threshold in [0, 1)")
        p.add_argument(
            "--model",
            help="comma-separated model kinds: " + ",".join(MODEL_KINDS),
        )
        p.add_argument("--sim-len", dest="sim_len", type=int, help="simulation length")
        p.add_argument("--starts", type=int, help="optimizer multi-start count")
        p.add_argument("--format", help="stdout format for this command")
        p.add_argument("--config", help="key = value options file")

    p = sub.add_parser("cluster", help="complete-linkage dendrogram of correlations")
    common(p)
    p.add_argument("--k", type=int, help="also cut the tree into k clusters")
    for name in ("fit", "simulate", "graph", "cliques", "evaluate"):
        common(sub.add_parser(name, help=f"{name} command"))
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    try:
        if key in ("seed", "sim_len", "starts", "k"):
            return int(value)
        if key == "delta":
            return float(value)
    except ValueError as exc:
        raise UsageError(f"option {key}: {exc}") from exc
    return value


def merge_options(args: argparse.Namespace) -> dict:
    """Resolve each option: explicit flag, then config file, then default."""
    from_file = _read_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in from_file:
            merged[key] = _coerce(key, from_file[key])
        else:
            merged[key] = default
    return merged


def _models(opt: dict) -> tuple[str, ...]:
    kinds = tuple(s.strip() for s in str(opt["model"]).split(",") if s.strip())
    bad = [k for k in kinds if k not in MODEL_KINDS]
    if bad:
        raise UsageError(
            f"unknown model kinds {bad}; valid: {', '.join(MODEL_KINDS)}"
        )
    if not kinds:
        raise UsageError("no model kinds given")
    if len(set(kinds)) != len(kinds):
        raise UsageError(f"model kinds repeated in {opt['model']!r}")
    return kinds


def _format(opt: dict, command: str) -> str:
    allowed = _FORMATS.get(command)
    if allowed is None:
        return ""
    fmt = opt["format"] or allowed[0]
    if fmt not in allowed:
        raise UsageError(
            f"format {fmt!r} not valid for {command}; choose from {allowed}"
        )
    return fmt


def _require_input(opt: dict) -> str:
    if not opt["input"]:
        raise UsageError("--input is required for this command")
    return str(opt["input"])


def _optimizer_options(opt: dict) -> OptimizerOptions:
    if opt["starts"] is not None:
        if opt["starts"] < 1:
            raise UsageError(f"--starts must be >= 1, got {opt['starts']}")
        return OptimizerOptions(n_starts=int(opt["starts"]), seed=int(opt["seed"]))
    return OptimizerOptions(seed=int(opt["seed"]))


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_cluster(opt: dict, k: int | None, fmt: str) -> int:
    panel = load_panel(_require_input(opt))
    moments = sample_moments(panel)
    dend = complete_linkage(corr_distance(moments.corr), panel.labels)
    doc = dendrogram_to_json(dend)
    if k is not None:
        assign = cut_tree(dend, int(k))
        doc["clusters"] = {lab: int(c) for lab, c in zip(panel.labels, assign)}
    write_text_atomic(Path(opt["out_dir"]) / "dendrogram.json", _dump_json(doc))
    if fmt == "json":
        sys.stdout.write(_dump_json(doc))
    else:
        for a, b, h in dend.merges:
            sys.stdout.write(f"merge {a} + {b} at height {h:.6g}\n")
        sys.stdout.write(doc["newick"] + "\n")
        if k is not None:
            for lab in panel.labels:
                sys.stdout.write(f"{lab}: cluster {doc['clusters'][lab]}\n")
    return 0


def cmd_graph(opt: dict, fmt: str) -> int:
    panel = load_panel(_require_input(opt))
    moments = sample_moments(panel)
    graph = build_graph(moments.corr, panel.labels, float(opt["delta"]))
    out = Path(opt["out_dir"])
    write_text_atomic(out / "graph.json", _dump_json(graph_to_json(graph)))
    write_text_atomic(out / "graph.dot", graph_to_dot(graph))
    sys.stdout.write(
        graph_to_dot(graph) if fmt == "dot" else _dump_json(graph_to_json(graph))
    )
    return 0


def cmd_cliques(opt: dict, fmt: str) -> int:
    source = _require_input(opt)
    if source.endswith(".json"):
        try:
            doc = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read graph document {source}: {exc}") from exc
        graph = graph_from_json(doc)
    else:
        panel = load_panel(source)
        moments = sample_moments(panel)
        graph = build_graph(moments.corr, panel.labels, float(opt["delta"]))
    cliques = maximal_cliques(graph)
    doc = {
        "delta": graph.delta,
        "labels": list(graph.labels),
        "cliques": [list(c) for c in cliques.as_labels(graph.labels)],
        "orders": list(cliques.orders()),
    }
    write_text_atomic(Path(opt["out_dir"]) / "cliques.json", _dump_json(doc))
    if fmt == "json":
        sys.stdout.write(_dump_json(doc))
    else:
        for c in doc["cliques"]:
            sys.stdout.write("{" + ", ".join(c) + "}\n")
    return 0


def _load_run(opt: dict) -> tuple[ReturnPanel, RunConfig]:
    """The input panel and the validated configuration of fit/evaluate."""
    panel = load_panel(_require_input(opt))
    config = RunConfig(
        input=str(opt["input"]),
        models=_models(opt),
        delta=float(opt["delta"]),
        seed=int(opt["seed"]),
        sim_len=opt["sim_len"],
        opts=_optimizer_options(opt),
    )
    return panel, config


def cmd_fit(opt: dict) -> int:
    panel, config = _load_run(opt)
    blocks = run_fits(panel, config)
    out = Path(opt["out_dir"])
    for kind, block in blocks.items():
        write_text_atomic(out / f"params.{kind}.json", _dump_json(block["params"]))
        fit = block["fit"]
        sys.stdout.write(
            f"{kind}: objective {fit['objective']:.6f} "
            f"(converged={fit['converged']}, start {fit['start_winner']})\n"
        )
    return 0


def cmd_simulate(opt: dict) -> int:
    out = Path(opt["out_dir"])
    sim_len = opt["sim_len"]
    if sim_len is None:
        raise UsageError("--sim-len is required for simulate")
    seed = int(opt["seed"])
    for kind in _models(opt):
        params_path = out / f"params.{kind}.json"
        try:
            doc = json.loads(params_path.read_text())
        except OSError as exc:
            raise DataError(
                f"missing params file {params_path} (run fit first): {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed params file {params_path}: {exc}") from exc
        model, params, mu, h1 = params_from_document(doc)
        if model == "bekk":
            panel = bekk_simulate(params, mu, int(sim_len), seed, h1=h1)
        else:
            panel = dcc_simulate(params, mu, int(sim_len), seed)
        write_returns_csv(panel, out / f"sim.{kind}.csv")
        sys.stdout.write(f"{kind}: wrote sim.{kind}.csv ({sim_len} rows)\n")
    return 0


def cmd_evaluate(opt: dict, fmt: str) -> int:
    panel, config = _load_run(opt)
    report = run_evaluation(panel, config)
    out = Path(opt["out_dir"])
    write_text_atomic(out / "report.json", report.to_json())
    for kind in config.models:
        write_text_atomic(
            out / f"params.{kind}.json",
            _dump_json(report.doc["models"][kind]["params"]),
        )
    sys.stdout.write(report.to_json() if fmt == "json" else report.to_text())
    return 0


def _setup_logging() -> None:
    level = os.environ.get("COVTARGET_LOG", "").upper()
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        opt = merge_options(args)
        fmt = _format(opt, args.command)
        if args.command == "cluster":
            return cmd_cluster(opt, opt.get("k"), fmt)
        if args.command == "graph":
            return cmd_graph(opt, fmt)
        if args.command == "cliques":
            return cmd_cliques(opt, fmt)
        if args.command == "fit":
            return cmd_fit(opt)
        if args.command == "simulate":
            return cmd_simulate(opt)
        if args.command == "evaluate":
            return cmd_evaluate(opt, fmt)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, NumericalOverflowError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 4
    except CovTargetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
