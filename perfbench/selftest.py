#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload, runs ``run.py --trace 1`` twice in fresh processes and
checks that every deterministic count (calls and failed calls per span,
objective evaluations and iterations per fit, clique count, bytes written,
source lines) repeats exactly, and that the traced pass left the program's
output files byte-identical to the untraced pass. Exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

TIMED = ("s", "self_s")


def counts(trace: dict) -> dict:
    """Everything in a trace result that is not a time."""
    out = {f"span:{label}": {k: v for k, v in st.items() if k not in TIMED}
           for label, st in trace["spans"].items()}
    out["optimize"] = trace["optimize"]
    out.update({k: v for k, v in trace["metrics"].items()
                if not k.endswith(("_s", ".share", ".self_share"))})
    return out


def traced_run(name: str, seed: int) -> tuple[dict, bool]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {}, False
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((HERE / "out" / name / "trace.json").read_text())
    return trace, bool(result["correct"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bad = 0
    for name in args.workload or list(W.WORKLOADS):
        (first, ok1), (second, ok2) = traced_run(name, args.seed), traced_run(name, args.seed)
        problems = []
        if not (ok1 and ok2):
            problems.append("a traced run failed its output checks")
        else:
            a, b = counts(first), counts(second)
            problems += [f"{k}: {a.get(k)} != {b.get(k)}"
                         for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
            for t in (first, second):
                d = t["output_digests"]
                if d["traced"] != d["untraced"]:
                    problems.append(f"tracing changed output bytes: {d}")
        print(f"{name}: {'ok' if not problems else 'FAILED'} "
              f"({len(counts(first)) if first else 0} counts compared)")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
