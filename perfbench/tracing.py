"""Span tracing of bioinv's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
`bioinv.*` module that holds a reference to it (for example `solve` in
`solver`, `formulations`, `ccg` and `tuning`), so calls made inside the
package are seen as well.  A span records its name, start, end, parent span
and the operation id that was current when it opened; spans stay in memory
until `write()` dumps them at the end of a run.  Nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped by the traced run, one boundary each.
TARGETS = (
    ("instance", "load_instance"),
    ("uncertainty", "sample_scenarios"),
    ("uncertainty", "quantile_bounds_from_means"),
    ("reference", "synthetic_instance"),
    ("solver", "solve"),
    ("formulations", "build_fulfillment_model"),
    ("formulations", "build_subproblem"),
    ("formulations", "build_master"),
    ("ccg", "solve_two_stage"),
    ("ccg", "alternating_heuristic_subproblem"),
    ("tuning", "score_allocation"),
    ("tuning", "tune_lambda"),
    ("simulate", "batch_evaluate"),
    ("simulate", "run_rolling_horizon"),
    ("simulate", "fulfill_order_stream"),
    ("simulate", "_solve_policy"),
    ("cli", "main"),
)

# The library call each CLI command delegates to; the rest of `cli.main`
# (argument parsing, instance loads, JSON and CSV writes) is CLI overhead.
LIBRARY_ENTRIES = {
    "ccg.solve_two_stage", "simulate.batch_evaluate", "tuning.tune_lambda",
    "simulate.run_rolling_horizon", "uncertainty.sample_scenarios",
    "reference.synthetic_instance",
}

def solver_class(model) -> str:
    """Solver calls are classed by model name and, for the subproblem, by
    whether the model has binaries."""
    if model.name == "subproblem":
        return "subproblem_mip" if "binary" in model.kind else "dual_lp"
    return model.name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op: str | None = None

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        qualify = _QUALIFIERS.get(name)
        annotate = _ANNOTATORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualify(args, kwargs) if qualify else name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if annotate:
                span[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded bioinv module that refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bioinv" or n.startswith("bioinv."))]
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"bioinv.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)

    # -- analysis ---------------------------------------------------------

    def totals(self, ops) -> dict:
        """Per-name calls, inclusive and self seconds, and summed attributes
        over the spans of the given operation ids.  `cli.overhead_s` is each
        `cli.main` span minus its library-entry children;
        `simulate._solve_policy.distinct` counts distinct plan inputs per
        operation."""
        ops = set(ops)
        child_s = defaultdict(float)
        library_s = defaultdict(float)
        for name, start, end, parent, _op, _attrs in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                if name in LIBRARY_ENTRIES:
                    library_s[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        policy_inputs = set()
        for i, (name, start, end, _parent, op, attrs) in enumerate(self.spans):
            if op not in ops:
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_s[i]
            if name == "simulate._solve_policy":
                policy_inputs.add((op, attrs["key"]))
            elif attrs:
                for k, v in attrs.items():
                    rec[k] += v
            if name == "cli.main":
                out["cli"]["overhead_s"] += end - start - library_s[i]
        out["simulate._solve_policy"]["distinct"] = len(policy_inputs)
        return out


def _solve_name(args, kwargs):
    return "solver." + solver_class(args[0] if args else kwargs["model"])


def _solve_attrs(args, kwargs, sol):
    return {"iters": sol.stats.simplex_iterations, "nodes": sol.stats.nodes}


def _ccg_attrs(args, kwargs, report):
    return {"iterations": report.iterations, "wall_time": report.wall_time}


def _policy_attrs(args, kwargs, alloc):
    plan_inst, policy, means = args
    key = (repr(plan_inst.inventory.pipeline), means.walkin.tobytes(),
           means.online.tobytes(), policy.kind, policy.lam)
    return {"key": hash(key)}


_QUALIFIERS = {"solver.solve": _solve_name}
_ANNOTATORS = {"solver.solve": _solve_attrs, "ccg.solve_two_stage": _ccg_attrs,
               "simulate._solve_policy": _policy_attrs}
