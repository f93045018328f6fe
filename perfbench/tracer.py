"""In-process span tracer over the package's public functions.

Every public function and method defined in a ``covtarget`` module is
replaced, at every name through which a caller looks it up, by a wrapper
that records one span: name, parent span, start, end, and whether it raised
``CovTargetError``. For example ``covtarget.bekk.stacked_quad_logdet`` is
wrapped as well as ``covtarget.linalg.stacked_quad_logdet``, because
``bekk.py`` imports the name directly. The objective callable handed to
``optimize.maximize`` is wrapped too, as ``optimize.objective``, so each
objective evaluation is a span whether or not the model accepts the point.

Spans are kept in flat arrays while the program runs and summarised, or
written out, after it ends. Nothing here changes what the program computes.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

OBJECTIVE = "optimize.objective"
MAXIMIZE = "optimize.maximize"
FD_GRADIENT = "optimize.fd_gradient"
MAXIMAL_CLIQUES = "graphs.maximal_cliques"

# The log-likelihood each fit kind evaluates inside its objective.
LOGLIK_KIND = {
    "garch.garch11_loglik": "garch",
    "bekk.bekk_loglik": "bekk",
    "bekk.bekk_modified_loglik": "bekk_mod",
    "dcc.dcc_stage2_loglik": "dcc",
    "dcc.dcc_modified_loglik": "dcc_mod",
}
FIT_KINDS = ("garch", "bekk", "bekk_mod", "dcc", "dcc_mod")


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores
    every replaced attribute."""

    def __init__(self, error_type: type):
        self._error = error_type
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.fit_iterations: dict[int, int] = {}
        self.cliques = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, label: str, fn):
        nid = self._name_id.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        stack, error = self._stack, self._error
        clock = time.perf_counter
        is_maximize = label == MAXIMIZE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(i)
            if is_maximize:
                args = (self._wrap(OBJECTIVE, args[0]),) + args[1:]
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
            if is_maximize:
                self.fit_iterations[i] = int(result[1].iterations)
            elif label == MAXIMAL_CLIQUES:
                self.cliques += len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public covtarget function and method in place."""
        wrapped: dict[int, object] = {}

        def wrapper_for(fn, label):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(label, fn)
            return wrapped[id(fn)]

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "covtarget" or n.startswith("covtarget.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and _ours(val):
                    label = f"{_short(val.__module__)}.{val.__name__}"
                    self._replace(mod, attr, wrapper_for(val, label))
                elif (inspect.isclass(val) and val.__module__ == mod.__name__):
                    self._wrap_methods(val, wrapper_for)

    def _wrap_methods(self, cls, wrapper_for) -> None:
        prefix = f"{_short(cls.__module__)}.{cls.__name__}"
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val):
                self._replace(cls, attr, wrapper_for(val, f"{prefix}.{attr}"))
            elif isinstance(val, (classmethod, staticmethod)):
                inner = wrapper_for(val.__func__, f"{prefix}.{attr}")
                self._replace(cls, attr, type(val)(inner))

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def write(self, path) -> None:
        """One line per span: id, parent, name, start, end, failed."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tfailed\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - t0:.6f}\t{self.end[i] - t0:.6f}\t"
                    f"{self.failed[i]}\n"
                )

    def summary(self) -> dict:
        """Per-name calls, total, self and failed counts, plus the optimizer
        counts; totals skip spans nested inside a span of the same name."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}
        )
        for i in range(n):
            label = self.names[self.name[i]]
            st = stats[label]
            st["calls"] += 1
            st["failed"] += self.failed[i]
            st["self_s"] += dur[i] - child_time[i]
            if not self._inside_same(i):
                st["s"] += dur[i]
        return {"spans": dict(stats), "optimize": self._optimizer_counts()}

    def _inside_same(self, i: int) -> bool:
        nid = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def _optimizer_counts(self) -> dict:
        """Objective evaluations and iterations per fit kind, the share of
        evaluations made by finite-difference probes, and failed ones."""
        ids = {label: self._name_id.get(label, -2) for label in
               (OBJECTIVE, FD_GRADIENT)}
        kind_of_loglik = {self._name_id[k]: v for k, v in LOGLIK_KIND.items()
                          if k in self._name_id}
        kind: dict[int, str] = {}       # maximize span -> fit kind
        evals: dict[int, int] = defaultdict(int)
        objective_of = {}                # objective span -> maximize span
        total = in_fd = failed = 0
        for i in range(len(self)):
            nid = self.name[i]
            if nid == ids[OBJECTIVE]:
                p = self.parent[i]
                total += 1
                failed += self.failed[i]
                if self.name[p] == ids[FD_GRADIENT]:
                    in_fd += 1
                    p = self.parent[p]
                objective_of[i] = p
                evals[p] += 1
            elif nid in kind_of_loglik:
                m = objective_of.get(self.parent[i])
                if m is not None:
                    kind.setdefault(m, kind_of_loglik[nid])
        out = {
            "objective_evals": total,
            "failed_evals": failed,
            "fd_eval_share": in_fd / total if total else 0.0,
            "fits": {},
        }
        for k in FIT_KINDS:
            fits = [m for m, v in kind.items() if v == k]
            if fits:
                out["fits"][k] = {
                    "fits": len(fits),
                    "evals_per_fit": sum(evals[m] for m in fits) / len(fits),
                    "iterations": sum(self.fit_iterations.get(m, 0)
                                      for m in fits) / len(fits),
                }
        return out


def _ours(fn) -> bool:
    return fn.__module__.startswith("covtarget.") and not fn.__name__.startswith("_")


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]
