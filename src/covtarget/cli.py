"""Command-line interface.

Subcommands: cluster, fit, simulate, graph, cliques, evaluate; ``COMMANDS``
lists the options each one takes, and any other flag is a usage error.
``--seed`` is the one program-wide option: every command accepts and checks
it, and fit, simulate and evaluate read it. ``--config`` names a ``key = value``
file of options; explicit flags win over the file, which wins over the
defaults in ``OPTIONS``. A file key must name an option of some command;
keys the running command does not take are ignored, so one file serves
fit, simulate and evaluate alike. Exit codes: 0 success, 2 usage problems,
3 data errors, 4 estimation failures. Standard output is UTF-8 whatever
the locale, as every written file is. Set COVTARGET_LOG (DEBUG/INFO/...)
to get diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .cluster import complete_linkage, corr_distance, cut_tree, dendrogram_to_json
from .data import (
    ReturnPanel, check_int, check_sim_len, load_panel, sample_moments, write_text_atomic,
)
from .errors import CovTargetError, DataError, EstimationError, NumericalOverflowError, ParseError
from .graphs import graph_from_json, graph_to_dot, graph_to_json, build_graph, maximal_cliques
from .optimize import OptimizerOptions
from .report import (
    MODEL_KINDS, RunConfig, _write_simulation, check_models, params_from_document,
    render_json, render_text_table, run_evaluation, run_fits,
)
from .targeting import check_delta


class UsageError(Exception):
    """Bad flag combinations or config contents; exits 2."""


def _usage(flag: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its DataError reported as a usage error
    of option ``flag``."""
    try:
        return make(*args, **kwargs)
    except DataError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _models(args: argparse.Namespace) -> tuple[str, ...]:
    kinds = tuple(s.strip() for s in args.model.split(",") if s.strip())
    return _usage("--model", check_models, kinds)


def _require_input(args: argparse.Namespace) -> str:
    if not args.input:
        raise UsageError("--input is required for this command")
    return args.input


def _read_json(path: str | Path, what: str):
    """The JSON document in file ``path``; any failure to read it is a
    DataError naming it as ``what`` (a ParseError if it is not UTF-8)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def cmd_cluster(args: argparse.Namespace) -> int:
    panel = load_panel(_require_input(args))
    moments = sample_moments(panel)
    dend = complete_linkage(corr_distance(moments.corr), panel.labels)
    doc = dendrogram_to_json(dend)
    if args.k is not None:
        assign = _usage("--k", cut_tree, dend, args.k)
        doc["clusters"] = {lab: int(c) for lab, c in zip(panel.labels, assign)}
    write_text_atomic(Path(args.out_dir) / "dendrogram.json", render_json(doc))
    if args.format == "json":
        sys.stdout.write(render_json(doc))
    else:
        for a, b, h in dend.merges:
            sys.stdout.write(f"merge {a} + {b} at height {h:.6g}\n")
        sys.stdout.write(doc["newick"] + "\n")
        if args.k is not None:
            for lab in panel.labels:
                sys.stdout.write(f"{lab}: cluster {doc['clusters'][lab]}\n")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    delta = _usage("--delta", check_delta, args.delta)
    panel = load_panel(_require_input(args))
    moments = sample_moments(panel)
    graph = build_graph(moments.corr, panel.labels, delta)
    out = Path(args.out_dir)
    texts = {"json": render_json(graph_to_json(graph)), "dot": graph_to_dot(graph)}
    for fmt, text in texts.items():
        write_text_atomic(out / f"graph.{fmt}", text)
    sys.stdout.write(texts[args.format])
    return 0


def cmd_cliques(args: argparse.Namespace) -> int:
    delta = _usage("--delta", check_delta, args.delta)
    source = _require_input(args)
    if source.endswith(".json"):
        graph = graph_from_json(_read_json(source, "graph document"))
    else:
        panel = load_panel(source)
        moments = sample_moments(panel)
        graph = build_graph(moments.corr, panel.labels, delta)
    cliques = maximal_cliques(graph)
    doc = {
        "delta": graph.delta,
        "labels": list(graph.labels),
        "cliques": [[graph.labels[v] for v in c] for c in cliques],
        "orders": [len(c) for c in cliques],
    }
    write_text_atomic(Path(args.out_dir) / "cliques.json", render_json(doc))
    if args.format == "json":
        sys.stdout.write(render_json(doc))
    else:
        for c in doc["cliques"]:
            sys.stdout.write("{" + ", ".join(c) + "}\n")
    return 0


def _load_run(args, sim_len: int | None = None) -> tuple[ReturnPanel, RunConfig]:
    """The input panel and the validated configuration of fit/evaluate."""
    config = RunConfig(
        input=args.input,
        models=_models(args),
        delta=_usage("--delta", check_delta, args.delta),
        seed=args.seed,
        sim_len=None if sim_len is None else _usage("--sim-len", check_sim_len, sim_len),
        starts=_usage("--starts", OptimizerOptions, args.starts).n_starts,
    )
    return load_panel(_require_input(args)), config


def cmd_fit(args: argparse.Namespace) -> int:
    panel, config = _load_run(args)
    blocks = run_fits(panel, config)
    out = Path(args.out_dir)
    for kind, block in blocks.items():
        write_text_atomic(out / f"params.{kind}.json", render_json(block["params"]))
        fit = block["fit"]
        sys.stdout.write(
            f"{kind}: objective {fit['objective']:.6f} "
            f"(converged={fit['converged']}, start {fit['start_winner']})\n"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    if args.sim_len is None:
        raise UsageError("--sim-len is required for simulate")
    sim_len = _usage("--sim-len", check_sim_len, args.sim_len)
    # Every document is checked before any model runs, so a bad one leaves
    # no new sim.*.csv. Each file is written as its rows are simulated, one
    # block at a time: the rows the API simulator's panel would hold.
    docs = {kind: params_from_document(_read_json(out / f"params.{kind}.json", "params file"))
            for kind in _models(args)}
    for kind, doc in docs.items():
        _write_simulation(doc, sim_len, args.seed, out / f"sim.{kind}.csv")
        sys.stdout.write(f"{kind}: wrote sim.{kind}.csv ({sim_len} rows)\n")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    panel, config = _load_run(args, args.sim_len)
    doc = run_evaluation(panel, config)
    out = Path(args.out_dir)
    text = render_json(doc)
    write_text_atomic(out / "report.json", text)
    for kind, block in doc["models"].items():
        write_text_atomic(out / f"params.{kind}.json", render_json(block["params"]))
    sys.stdout.write(text if args.format == "json" else render_text_table(doc))
    return 0


# Each option once, by its flag's name, as the keywords of its argparse
# argument; a config-file value passes through the same ``type``.
OPTIONS = {
    "input": dict(help="input CSV (price panel or #returns panel)"),
    "out-dir": dict(default=".", help="directory for output files"),
    "seed": dict(type=int, default=0, help="random seed"),
    "delta": dict(type=float, default=0.5, help="correlation threshold in [0, 1)"),
    "model": dict(default=",".join(MODEL_KINDS),
                  help="comma-separated model kinds (default %(default)s)"),
    "sim-len": dict(type=int, help="simulation length"),
    "starts": dict(type=int, default=OptimizerOptions.n_starts, help="multi-start count"),
    "format": dict(help="stdout format"),
    "k": dict(type=int, help="also cut the tree into k clusters"),
}


class Command(NamedTuple):
    """A subcommand: its function, its help line, the OPTIONS it takes (all
    take --config too) and its stdout formats, the first being the default."""
    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[str, ...]
    formats: tuple[str, ...] = ()


# --seed is on every command, read or not, so that one seed can be passed
# to every step of a pipeline.
COMMANDS = {
    "cluster": Command(cmd_cluster, "complete-linkage dendrogram of correlations",
                       ("input", "out-dir", "seed", "format", "k"), ("text", "json")),
    "graph": Command(cmd_graph, "threshold correlation graph",
                     ("input", "out-dir", "seed", "delta", "format"), ("dot", "json")),
    "cliques": Command(cmd_cliques, "maximal cliques of the threshold graph",
                       ("input", "out-dir", "seed", "delta", "format"), ("text", "json")),
    "fit": Command(cmd_fit, "fit the requested models",
                   ("input", "out-dir", "seed", "delta", "model", "starts")),
    "simulate": Command(cmd_simulate, "simulate from fitted params files",
                        ("out-dir", "seed", "model", "sim-len")),
    "evaluate": Command(cmd_evaluate, "fit, simulate and compare the requested models",
                        ("input", "out-dir", "seed", "delta", "model", "sim-len",
                         "starts", "format"), ("text", "json")),
}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.options:
            spec = OPTIONS[key]
            if key == "format":
                spec = {**spec, "choices": command.formats, "default": command.formats[0]}
            p.add_argument("--" + key, **spec)
        p.add_argument("--config", help="key = value options file")
    return parser


def _config_flags(path: str, command: Command) -> list[str]:
    """The options of config file ``path`` that ``command`` takes, as
    ``--key=value`` flags."""
    flags = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("_", "-")
        if key not in OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        if key in command.options:
            flags.append(f"--{key}={value}")
    return flags


def _setup_logging() -> None:
    level = os.environ.get("COVTARGET_LOG", "").upper()
    if level:
        # A level's name maps to its number; any other value means INFO.
        number = logging.getLevelName(level)
        logging.basicConfig(
            stream=sys.stderr,
            level=number if isinstance(number, int) else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )


def main(argv=None) -> int:
    _setup_logging()
    # Stdout carries series labels, so it is UTF-8 whatever the locale, like
    # every file the commands write.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        if args.config:
            # The file's options go right after the command name, so the
            # explicit flags, parsed after them, win.
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, command)
            args = parser.parse_args(argv)
        _usage("--seed", check_int, args.seed, "seed", 0)
        return command.run(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
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
