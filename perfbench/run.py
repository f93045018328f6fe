#!/usr/bin/env python3
"""Benchmark of the covtarget command-line program.

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload desk5 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` each of the workload's commands runs in a fresh
``covtarget`` process, repeated until ``--seconds`` of command time has
passed, and the end-to-end metrics are reported; times are calibrated
against the machine's speed (see ``Calibration``). With ``--trace 1`` the
same commands run in this process, once untraced and once under the span
tracer, and the per-layer metrics are reported. Every run checks the
program's outputs; the last line of standard output is one JSON object.
Without ``--workload`` every workload runs in both modes, every metric is
printed by name and unit, and the exit code is 1 if any check failed.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

# The benchmark and every process it starts run on one CPU. The host runs
# each of this machine's CPUs slower or faster in spells, independently of
# the other (per-second speeds of two pinned loops correlate at ~0.4), so a
# calibration slice only says how fast a command ran if both ran on the same
# CPU. Pinned before numpy loads, OpenBLAS starts one thread here and in the
# children, which changes nothing for the program's 5x5 and 15x15 matrices.
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from tracer import FIT_KINDS, Tracer  # noqa: E402

ENTRY = "import sys; from covtarget.cli import main; sys.exit(main())"
SETUP_REPEATS = 2
COMMAND_TIMEOUT_S = 150.0
# One calibration slice: CAL_ITERS rounds of the interpreter and small-matrix
# numpy work the program's commands are made of. REF_CAL_S is a fixed
# reference: calibrated seconds are seconds on a CPU that runs one slice in
# REF_CAL_S, which is about the reference machine (2 vCPUs of an Intel Xeon
# Sapphire Rapids KVM guest, Python 3.11.7, numpy 2.4.6) in its quieter
# spells. Of the slices tried there, this one tracked the program's own
# slowdowns best; it removes about half of them.
CAL_ITERS = 10000
REF_CAL_S = 0.10
# A timed child is stopped after each SLICE_EVERY_S seconds of running while
# one slice runs; the host's slow spells last seconds to minutes.
SLICE_EVERY_S = 1.0

# End-to-end facts read from the outputs: they exist only on some workloads
# or can be 0, so they are printed for reading and are not in BENCHMARK.json.
E2E_FACTS = (
    ("objective.bekk", "nats"), ("objective.bekk_mod", "nats"),
    ("objective.dcc", "nats"), ("objective.dcc_mod", "nats"),
    ("converged_frac", "ratio"), ("garch_degenerate", "count"),
    ("failed_frac", "ratio"), ("objective_at_generating", "nats"),
    ("cliques", "count"), ("sim_cov_distance", "ratio"),
)

# Traced functions whose calls and share of traced wall time are per-layer
# metrics. A share, not seconds, because a workload that bypasses a layer
# reads exactly zero time there on every run.
LAYER_SPANS = (
    "data.load_panel", "data.sample_moments", "data.write_returns_csv",
    "targeting.build_target",
    "linalg.stacked_quad_logdet", "linalg.kl_path_sum", "linalg.kl_divergence",
    "linalg.frobenius_path_loss",
    "garch.garch11_fit", "garch.garch11_loglik", "garch.garch11_filter",
    "bekk.bekk_fit", "bekk.bekk_loglik", "bekk.bekk_modified_loglik",
    "bekk.bekk_filter", "bekk.bekk_simulate",
    "dcc.dcc_stage1", "dcc.dcc_fit", "dcc.dcc_stage2_loglik",
    "dcc.dcc_modified_loglik", "dcc.dcc_filter", "dcc.dcc_cov_path",
    "dcc.dcc_simulate",
    "optimize.maximize", "optimize.fd_gradient",
    "graphs.build_graph", "graphs.maximal_cliques", "graphs.compare_graphs",
    "cluster.complete_linkage", "cluster.cut_tree",
    "report.run_evaluation", "report.EvalReport.to_json",
)
SELF_SHARE_SPANS = ("optimize.maximize", "report.run_evaluation")


def calibrate() -> float:
    """Seconds for one calibration slice: a fixed amount of work that
    involves no covtarget code, so only the machine's speed moves it."""
    a = np.eye(5) * 2.0 + 0.1
    x = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        x += float(np.linalg.slogdet(a)[1])
        x += sum([j * 0.5 for j in range(30)])
    return time.perf_counter() - t0


class Calibration:
    """The machine's speed along a sequence of timed pieces of running.

    A slice runs before the first piece and after every piece, on the same
    CPU. A piece's calibrated time is its wall time times REF_CAL_S over the
    mean of the slices on either side of it: in a spell in which the shared
    host runs this CPU slower, the slices lengthen as much as the piece and
    the ratio cancels it.
    """

    def __init__(self) -> None:
        self.slices = [calibrate()]

    def piece(self, wall_s: float) -> float:
        """Calibrated time of a piece that has just ended; runs a slice."""
        self.slices.append(calibrate())
        return wall_s * REF_CAL_S / statistics.fmean(self.slices[-2:])


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    calibrated_s: float


@dataclass
class Outcome:
    """Commands attempted and failed, with the reasons, over one run."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, n_commands: int, codes: list[int], failures: dict) -> None:
        self.attempted += n_commands
        for i in range(n_commands):
            why = []
            if codes[i] != 0:
                why.append(f"exit code {codes[i]}")
            why += failures.get(i, [])
            if why:
                self.failed += 1
                self.reasons += [f"command {i}: {w}" for w in why]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process so far, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_child(argv: list[str], cwd: Path, log: Path, cal: Calibration) -> Child:
    """Run one fresh process to its exit, in pieces: after each SLICE_EVERY_S
    seconds of running it is stopped (SIGSTOP) while ``cal`` takes a slice,
    then continued. Wall time is the sum of the pieces, calibrated time the
    sum of their calibrated times.

    Peak RSS: the ru_maxrss that wait4 returns for the child is the larger
    of its own peak and this process's peak when it was spawned (exec
    records the peak of the memory it replaces). When it exceeds the
    latter it is the child's own peak; otherwise the child's peak is taken
    as the highest VmHWM read while it was stopped."""
    spawner_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    wall = calibrated = 0.0
    hwm_kib: list[int] = []
    try:
        while True:
            t0 = time.perf_counter()
            if not select.select([pidfd], [], [], SLICE_EVERY_S)[0]:
                os.kill(proc.pid, signal.SIGSTOP)
            # returns once the child has stopped or exited
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            piece = time.perf_counter() - t0
            wall += piece
            if os.WIFSTOPPED(status):
                hwm_kib.append(vm_hwm_kib(proc.pid))
            calibrated += cal.piece(piece)
            if not os.WIFSTOPPED(status):
                break
            if wall > COMMAND_TIMEOUT_S:
                os.kill(proc.pid, signal.SIGKILL)
            os.kill(proc.pid, signal.SIGCONT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kib = usage.ru_maxrss
    if rss_kib <= spawner_kib and hwm_kib:
        rss_kib = max(hwm_kib)
    return Child(proc.returncode, wall, rss_kib / 1024.0, calibrated)


def tree_digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.glob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def output_digests(workdir: Path, names) -> dict:
    """sha256 of each named output that exists."""
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in names if (workdir / name).is_file()}


class DigestStore:
    """sha256 of every deterministic output, per source tree, generated
    inputs and seed, kept across runs in the checkout so that any run of a
    commit whose bytes differ from an earlier one fails."""

    def __init__(self, path: Path, workload: str, seed: int, inputs: str):
        self.path = path
        self.prefix = (f"{tree_digest(SRC / 'covtarget', '*.py')}:{inputs}:"
                       f"{workload}:{seed}:")

    def compare(self, workdir: Path, outputs) -> dict:
        try:
            known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            known = {}
        failures: dict[int, list[str]] = {}
        for i, files in enumerate(outputs):
            for name, digest in output_digests(workdir, files).items():
                key = self.prefix + name
                if known.setdefault(key, digest) != digest:
                    failures.setdefault(i, []).append(
                        f"{name} differs from an earlier run of this seed")
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return failures


def check_outputs(wl: W.Workload, workdir: Path, info: dict, codes: list[int],
                  store: DigestStore) -> tuple[dict, dict]:
    """Facts and per-command failures for one pass over the commands."""
    if any(codes):
        return {}, {}
    try:
        facts, failures = checks.check(wl.name, workdir, info)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, {i: [f"output check raised {exc!r}"] for i in range(len(codes))}
    for i, why in store.compare(workdir, wl.outputs).items():
        failures.setdefault(i, []).extend(why)
    return facts, failures


def prepare(wl: W.Workload, seed: int, panel_seed: int) -> tuple[Path, dict, DigestStore]:
    workdir = OUT / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    info = wl.generate(workdir, seed, panel_seed)
    print(f"# generated {wl.name} inputs for seed {seed}, panel seed "
          f"{panel_seed} in {time.perf_counter() - t0:.2f} s", flush=True)
    inputs = tree_digest(workdir, "**/*")
    return workdir, info, DigestStore(OUT / "digests.json", wl.name, seed, inputs)


def argv_of(cmd: tuple[str, ...], seed: int) -> list[str]:
    return [*cmd, "--seed", str(seed)]


def measure_e2e(wl: W.Workload, seed: int, panel_seed: int,
                seconds: float) -> tuple[dict, Outcome]:
    """Untraced: set-up time, then the commands in fresh processes, repeated
    until ``seconds`` of command time has passed. Times are calibrated
    (see Calibration); the raw wall times are printed next to them."""
    workdir, info, store = prepare(wl, seed, panel_seed)
    cal = Calibration()
    setup: list[Child] = []

    def time_setup(k: int) -> None:
        for _ in range(k):
            c = run_child([sys.executable, "-c", "import covtarget.cli"], workdir,
                          workdir / "setup.log", cal)
            if c.code != 0:
                raise SystemExit("importing covtarget.cli failed:\n"
                                 + (workdir / "setup.log").read_text())
            setup.append(c)

    # Half the set-up samples before the commands and half after, so that
    # one slow spell of a shared machine does not hold all of them.
    time_setup(SETUP_REPEATS // 2)
    outcome = Outcome()
    reps: list[list[Child]] = []
    rss, facts = 0.0, {}
    while not reps or sum(c.wall_s for rep in reps for c in rep) < seconds:
        children = [run_child([sys.executable, "-c", ENTRY, *argv_of(cmd, seed)],
                              workdir, workdir / f"cmd{i}.log", cal)
                    for i, cmd in enumerate(wl.commands)]
        codes = [c.code for c in children]
        reps.append(children)
        rss = max([rss] + [c.rss_mb for c in children])
        facts, failures = check_outputs(wl, workdir, info, codes, store)
        outcome.add(len(children), codes, failures)
    time_setup(SETUP_REPEATS - len(setup))
    walls = [sum(c.calibrated_s for c in rep) for rep in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(c.calibrated_s for c in setup),
        "peak_rss_mb": rss,
    }
    facts["failed_frac"] = outcome.failed / outcome.attempted
    facts["repetitions"] = len(reps)
    return {"metrics": metrics, "facts": facts, "walls": walls,
            "raw_walls": [sum(c.wall_s for c in rep) for rep in reps],
            "setup": [c.calibrated_s for c in setup],
            "raw_setup": [c.wall_s for c in setup],
            "cal_slices": cal.slices}, outcome


def import_times() -> dict:
    """Cumulative import seconds of scipy.signal and scipy.optimize when a
    fresh interpreter imports covtarget.cli (python -X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import covtarget.cli"],
        env=child_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
        if m:
            cumulative[m.group(2).strip()] = int(m.group(1)) / 1e6
    return {
        "cli.import.scipy_signal_s": cumulative.get("scipy.signal", 0.0),
        "cli.import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "cli.import.total_s": cumulative.get("covtarget.cli", 0.0),
    }


def run_in_process(wl: W.Workload, seed: int, workdir: Path) -> tuple[list[int], float]:
    """Call covtarget.cli.main for each command, looked up at call time so a
    traced run goes through the wrapper. Returns exit codes and wall time."""
    import covtarget.cli

    codes, wall = [], 0.0
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for i, cmd in enumerate(wl.commands):
            with open(f"inproc{i}.log", "w") as log, contextlib.redirect_stdout(log):
                t0 = time.perf_counter()
                try:
                    codes.append(covtarget.cli.main(argv_of(cmd, seed)))
                except Exception:  # a crash fails this command, as in a process
                    traceback.print_exc(file=log)
                    codes.append(1)
                wall += time.perf_counter() - t0
    finally:
        os.chdir(old)
    return codes, wall


def measure_trace(wl: W.Workload, seed: int, panel_seed: int) -> tuple[dict, Outcome]:
    """Untraced then traced in-process run of the commands; per-layer
    metrics from the traced one."""
    workdir, info, store = prepare(wl, seed, panel_seed)
    metrics = import_times()
    import covtarget.cli  # noqa: F401  (pays the import before timing)
    from covtarget.errors import CovTargetError

    outcome = Outcome()
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    codes, untraced_wall = run_in_process(wl, seed, workdir)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    facts, failures = check_outputs(wl, workdir, info, codes, store)
    outcome.add(len(codes), codes, failures)
    names = [name for files in wl.outputs for name in files]
    digests = {"untraced": output_digests(workdir, names)}

    tracer = Tracer(CovTargetError)
    tracer.install()
    try:
        codes, traced_wall = run_in_process(wl, seed, workdir)
    finally:
        tracer.uninstall()
    facts, failures = check_outputs(wl, workdir, info, codes, store)
    outcome.add(len(codes), codes, failures)
    digests["traced"] = output_digests(workdir, names)

    summary = tracer.summary()
    tracer.write(workdir / "spans.tsv")
    spans, opt = summary["spans"], summary["optimize"]
    metrics.update({
        "cli.cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (SRC / "covtarget").glob("*.py")),
        "data.write_returns_csv.bytes": sum(
            p.stat().st_size for p in workdir.glob("sim.*.csv")),
        "graphs.cliques": tracer.cliques,
        "optimize.fd_eval_share": opt["fd_eval_share"],
        "optimize.failed_evals": opt["failed_evals"],
    })
    for kind in FIT_KINDS:
        fit = opt["fits"].get(kind, {})
        metrics[f"optimize.evals_per_fit.{kind}"] = fit.get("evals_per_fit", 0)
        metrics[f"optimize.iterations.{kind}"] = fit.get("iterations", 0)
    for label in LAYER_SPANS:
        st = spans.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{label}.calls"] = st["calls"]
        metrics[f"{label}.share"] = st["s"] / traced_wall
        if label in SELF_SHARE_SPANS:
            metrics[f"{label}.self_share"] = st["self_s"] / traced_wall
    result = {"metrics": metrics, "facts": facts, "spans": spans,
              "optimize": opt, "untraced_wall_s": untraced_wall,
              "output_digests": digests}
    (workdir / "trace.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return result, outcome


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its own
    getter; None when the library or symbol cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units() -> dict:
    s = spec()
    return {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}


def print_e2e(name: str, res: dict, outcome: Outcome, unit_of: dict) -> None:
    print(f"## {name}: end to end, {res['facts']['repetitions']} repetition(s), "
          f"{outcome.attempted} command runs, {outcome.failed} failed")
    for key in ("walls", "raw_walls", "setup", "raw_setup", "cal_slices"):
        print(f"   {key:<11} {[round(v, 3) for v in res[key]]}")
    rows = [(n, v, unit_of[n]) for n, v in res["metrics"].items()]
    rows += [(n, v, u) for base, u in E2E_FACTS for n, v in res["facts"].items()
             if n.split("@")[0] == base or n.startswith(base + ".")]
    for n, v, u in rows:
        print(f"   {n:<34} {v:>14.6g} {u}")
    for label, ratio in res["facts"].get("garch_degenerate_series", {}).items():
        print(f"   garch_degenerate: {label} omega/(1-alpha-beta) is "
              f"{ratio:.3g} x its sample variance")


def print_trace(name: str, res: dict, unit_of: dict) -> None:
    print(f"## {name}: traced in process, {res['metrics']['trace.wall_s']:.3f} s "
          f"traced, {res['untraced_wall_s']:.3f} s untraced")
    print(f"   {'span':<34} {'calls':>9} {'s':>10} {'self_s':>10} {'failed':>7} {'share':>7}")
    wall = res["metrics"]["trace.wall_s"]
    for label, st in sorted(res["spans"].items(), key=lambda kv: -kv[1]["s"]):
        print(f"   {label:<34} {st['calls']:>9} {st['s']:>10.4f} "
              f"{st['self_s']:>10.4f} {st['failed']:>7} {st['s'] / wall:>7.1%}")
    for n, v in res["metrics"].items():
        if not n.endswith((".calls", ".share")):
            print(f"   {n:<34} {v:>14.6g} {unit_of.get(n, '')}")


def result_line(outcome: Outcome, metrics: dict, unit_of: dict) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, v in metrics.items()
                    if n in unit_of},
    })


def run_one(name: str, seed: int, panel_seed: int, seconds: float, trace: bool) -> int:
    wl = W.WORKLOADS[name]
    unit_of = units()
    if trace:
        res, outcome = measure_trace(wl, seed, panel_seed)
        print_trace(name, res, unit_of)
    else:
        res, outcome = measure_e2e(wl, seed, panel_seed, seconds)
        print_e2e(name, res, outcome, unit_of)
    for why in outcome.reasons:
        print(f"CHECK FAILED {name}: {why}")
    print(result_line(outcome, res["metrics"], unit_of))
    return 0


def stress(traced: dict) -> list[str]:
    """Whether each workload spends its traced time in the layers it was
    chosen for (informational: a later speed-up may move these shares)."""
    def share(name, *labels):
        res = traced[name]
        return sum(res["spans"].get(x, {}).get("s", 0.0)
                   for x in labels) / res["metrics"]["trace.wall_s"]

    lines = []
    if "desk5" in traced:
        lines.append(f"desk5: bekk.bekk_fit {share('desk5', 'bekk.bekk_fit'):.1%} "
                     "of traced time (chosen for >= 80%)")
    for name in sorted(set(traced) - {"desk5"}):
        lines.append(f"{name}: bekk.bekk_fit {share(name, 'bekk.bekk_fit'):.1%} "
                     "(chosen for < 1%)")
    if "dcc15" in traced:
        lines.append(f"dcc15: dcc.dcc_stage1 + dcc.dcc_fit "
                     f"{share('dcc15', 'dcc.dcc_stage1', 'dcc.dcc_fit'):.1%} "
                     "(chosen for >= 60%)")
    if "screen500" in traced:
        spans = traced["screen500"]["spans"]
        top = max((x for x in spans if not x.startswith("cli.")),
                  key=lambda x: spans[x]["s"])
        lines.append(f"screen500: largest span below cli is {top} "
                     "(chosen for cluster.complete_linkage)")
    if "mc15" in traced:
        s = share("mc15", "bekk.bekk_simulate", "dcc.dcc_simulate",
                  "data.write_returns_csv")
        lines.append(f"mc15: simulate spans + data.write_returns_csv {s:.1%} "
                     "(chosen for >= 60%)")
    return lines


def run_all(seed: int, panel_seed: int, seconds: float) -> int:
    """Every workload, untraced then traced; exit 1 on any failed check."""
    unit_of = units()
    print("# machine " + json.dumps(machine()))
    failed = 0
    traced = {}
    for entry in spec()["workloads"]:
        name, wl = entry["name"], W.WORKLOADS[entry["name"]]
        print(f"# {name}: {entry['why']}")
        e2e, outcome = measure_e2e(wl, seed, panel_seed, seconds)
        print_e2e(name, e2e, outcome, unit_of)
        traced[name], t_outcome = measure_trace(wl, seed, panel_seed)
        print_trace(name, traced[name], unit_of)
        for why in outcome.reasons + t_outcome.reasons:
            print(f"CHECK FAILED {name}: {why}")
        failed += outcome.failed + t_outcome.failed
    for line in stress(traced):
        print(f"# stress {line}")
    print(f"# {failed} failed command run(s)")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="the program's --seed, and the seed of the screen500 panel")
    ap.add_argument("--panel-seed", type=int, default=0,
                    help="seed of the desk5 and dcc15 return panels")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "covtarget" / "cli.py").is_file():
        print(f"covtarget sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args.seed, args.panel_seed, args.seconds)
    print("# machine " + json.dumps(machine()))
    return run_one(args.workload, args.seed, args.panel_seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
