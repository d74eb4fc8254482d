"""Guards for the benchmark harness under perfbench/, read without running it."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _tracing_targets():
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_trace_targets_exist():
    # a traced benchmark run wraps each (module, function) pair of TARGETS
    targets = _tracing_targets()
    assert targets
    for module, name in targets:
        fn = getattr(importlib.import_module(f"bioinv.{module}"), name, None)
        assert callable(fn), f"bioinv.{module}.{name}"
