"""What the benchmark under ``perfbench/`` relies on, pinned in the suite.

The bundle workload checks every ``mpnspace all`` run against the hashes
in ``perfbench/expected_manifest.json``; the tracer looks up each layer
module in ``sys.modules`` after ``import mpnspace.cli``; the query
worker calls package attributes by name.  A change that broke any of
these would otherwise show only as failed benchmark ops.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import mpnspace
from mpnspace import run_all

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_layers():
    """The ``LAYERS`` tuple of ``perfbench/tracer.py``, read without
    importing it."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_run_all_matches_the_benchmark_manifest(tmp_path):
    expected = json.loads((PERFBENCH / "expected_manifest.json").read_text())
    assert run_all(str(tmp_path)) == expected


def test_importing_the_cli_loads_every_traced_layer():
    layers = _tracer_layers()
    assert len(layers) == 8
    code = (
        "import sys\n"
        "import mpnspace.cli\n"
        f"missing = [m for m in {list(layers)!r} if 'mpnspace.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
    )
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_query_worker_calls_stay_exported():
    called = set(re.findall(r"\bmp\.(\w+)\(", (PERFBENCH / "query_worker.py").read_text()))
    assert {"charpoly_oracle", "transition_matrix", "gate_pair", "spectrum"} <= called
    for name in sorted(called):
        assert name in mpnspace.__all__, name
        assert callable(getattr(mpnspace, name)), name


def test_constructing_a_rule_or_variant_calls_the_hook_the_tracer_counts(monkeypatch):
    """The tracer counts ``dynamics.objects_built`` by wrapping
    ``__post_init__`` on ``Rule`` and ``Variant``, so each construction,
    rejected ones included, must call that hook."""
    tracer = (PERFBENCH / "tracer.py").read_text()
    assert "dynamics.Rule, dynamics.Variant" in tracer and "__post_init__" in tracer
    built = []
    for cls in (mpnspace.Rule, mpnspace.Variant):
        hook = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda obj, hook=hook: built.append(type(obj)) or hook(obj))
    mpnspace.Rule(-1, 0, 1, 0)
    mpnspace.Variant("V4", mpnspace.UpdateMode.X_FIRST)
    with pytest.raises(ValueError):
        mpnspace.Rule(2, 0, 0, 0)
    with pytest.raises(ValueError):
        mpnspace.Variant("V9")
    assert built == [mpnspace.Rule, mpnspace.Variant] * 2
