"""Span tracing of mpnspace from outside the package.

``Tracer.install`` wraps every public module-level function of each
layer module and rebinds the wrapper at every namespace that holds the
original: the defining module, every module that did ``from .x import
f``, the package namespace, the CLI module, and module-level dicts such
as ``transforms.TRANSFORMATIONS``.  A call through any binding records
one span (name, start, end, parent), so nested calls give each layer's
self time: its span durations minus those of its child spans.  Methods
and properties of the package's classes are not wrapped; their time is
self time of the traced function that called them.

Spans stay in memory and ``dump`` writes them when the traced process
ends; ``load`` reads them back and aggregates per function name.  A
file written by ``report`` is timed as a ``report.write`` span (open,
each write, close) and its bytes are counted.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("dynamics", "gates", "report", "robustness", "rulespace",
          "spectral", "stats", "transforms")
ROBUSTNESS_SCORERS = ("robustness.class_robustness",
                      "robustness.state_robustness_rule_mutation",
                      "robustness.state_robustness_init_perturbation")
# Functions whose distinct argument tuples (after defaults) are counted.
DISTINCT = ("dynamics.attractor_set",) + ROBUSTNESS_SCORERS
WRITE_SPAN = "report.write"
# The package's table ids; each gets its own build_table span name.
TABLE_IDS = ("T1", "T2", "T3A", "T3B", "T4", "TA1", "TA2", "robustness", "spectra")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.distinct: dict[str, set] = {}
        self.objects_built = 0
        self.bytes_written = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, nid: int, fn, *args, **kwargs):
        """Call ``fn`` inside one span named ``self.names[nid]``."""
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, qualname: str, fn, namer=None):
        nid = self.name_id(qualname)
        keys = sig = None
        if qualname in DISTINCT:
            keys = self.distinct.setdefault(qualname, set())
            sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(tuple(bound.arguments.values()))
            span = self.name_id(namer(*args, **kwargs)) if namer else nid
            return self.timed(span, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layers of the already imported package."""
        import mpnspace
        import mpnspace.cli

        modules = {layer: sys.modules[f"mpnspace.{layer}"] for layer in LAYERS}
        report = modules["report"]
        table_ids = {t.lower(): t for t in TABLE_IDS}

        def table_span(table_id, *_, **__):
            tid = table_ids.get(str(table_id).lower(), "invalid")
            return f"report.build_table.{tid}"

        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    namer = table_span if obj is report.build_table else None
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, namer)

        for ns in (mpnspace, mpnspace.cli, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            obj[k] = wrapped[v]

        dynamics = modules["dynamics"]
        for cls in (dynamics.Rule, dynamics.Variant):
            cls.__post_init__ = self._counted(cls.__post_init__)
        # A module global shadows the builtin for code in report only.
        report.open = self._open

    def _counted(self, post_init):
        def counted(obj):
            self.objects_built += 1
            post_init(obj)
        return counted

    def _open(self, *args, **kwargs):
        nid = self.name_id(WRITE_SPAN)
        return _TimedFile(self, nid, self.timed(nid, builtins.open, *args, **kwargs))

    def dump(self, path: str, **extra) -> None:
        header = {
            "names": self.names,
            "spans": len(self.start),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "objects_built": self.objects_built,
            "bytes_written": self.bytes_written,
            **extra,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


class _TimedFile:
    """Write-side proxy for a file opened by the report module."""

    def __init__(self, tracer: Tracer, nid: int, fh):
        self._tracer, self._nid, self._fh = tracer, nid, fh

    def write(self, data):
        self._tracer.bytes_written += len(
            data.encode("utf-8") if isinstance(data, str) else data)
        return self._tracer.timed(self._nid, self._fh.write, data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer.timed(self._nid, self._fh.close)


def load(path: str) -> dict:
    """Per-name call counts, total and self seconds of one dump."""
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end = arrays
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    names = header["names"]
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        total[key] += dur[i]
        self_s[key] += own[i]
    return {"calls": calls, "total_s": total, "self_s": self_s, **header}


def _sum(summaries, field, names, start=0):
    return sum((s[field].get(n, 0) for s in summaries for n in names), start)


def _layer_names(summaries, layer) -> set[str]:
    return {n for s in summaries for n in s["names"]
            if n.split(".")[0] == layer and n != WRITE_SPAN}


def layer_metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one trace unit, summed over its processes.

    Distinct counts are distinct within a process, summed over
    processes, since no state is shared between processes.
    """
    def calls(*names):
        return _sum(summaries, "calls", names)

    def distinct(*names):
        return _sum(summaries, "distinct", names)

    def total(*names):
        return _sum(summaries, "total_s", names, 0.0)

    def self_time(layer):
        return _sum(summaries, "self_s", _layer_names(summaries, layer), 0.0)

    def ratio(useful, attempts):
        return useful / attempts if attempts else 1.0

    import_s = sorted(s["import_s"] for s in summaries)
    loaded = sorted(s["modules_loaded"] for s in summaries)
    att_calls = calls("dynamics.attractor_set")
    att_distinct = distinct("dynamics.attractor_set")
    score_calls = calls(*ROBUSTNESS_SCORERS)
    score_distinct = distinct(*ROBUSTNESS_SCORERS)
    out = {
        "cli.import_s": (import_s[len(import_s) // 2], "s"),
        "cli.modules_loaded": (loaded[len(loaded) // 2], "count"),
        "dynamics.attractor_set.calls": (att_calls, "count"),
        "dynamics.attractor_set.distinct": (att_distinct, "count"),
        "dynamics.attractor_set.useful_ratio": (ratio(att_distinct, att_calls), "ratio"),
        "dynamics.successor_indices.calls": (calls("dynamics.successor_indices"), "count"),
        "dynamics.step.calls": (calls("dynamics.step"), "count"),
        "dynamics.objects_built": (sum(s["objects_built"] for s in summaries), "count"),
        "dynamics.self_s": (self_time("dynamics"), "s"),
        "robustness.score.calls": (score_calls, "count"),
        "robustness.score.distinct": (score_distinct, "count"),
        "robustness.score.useful_ratio": (ratio(score_distinct, score_calls), "ratio"),
        "robustness.self_s": (self_time("robustness"), "s"),
        "rulespace.neighbors.calls": (calls("rulespace.neighbors"), "count"),
        "rulespace.class_transition_counts.calls":
            (calls("rulespace.class_transition_counts"), "count"),
        "rulespace.self_s": (self_time("rulespace"), "s"),
        "spectral.calls": (calls(*_layer_names(summaries, "spectral")), "count"),
        "spectral.self_s": (self_time("spectral"), "s"),
        "gates.calls": (calls(*_layer_names(summaries, "gates")), "count"),
        "gates.self_s": (self_time("gates"), "s"),
        "transforms.reduce_rules.calls": (calls("transforms.reduce_rules"), "count"),
        "transforms.self_s": (self_time("transforms"), "s"),
        "stats.self_s": (self_time("stats"), "s"),
    }
    for tid in TABLE_IDS:
        out[f"report.build_table.{tid}.s"] = (total(f"report.build_table.{tid}"), "s")
    out["report.stats_report.s"] = (total("report.stats_report"), "s")
    out["report.render.s"] = (total("report.render_table"), "s")
    out["report.write.s"] = (total(WRITE_SPAN), "s")
    out["report.bytes_written"] = (sum(s["bytes_written"] for s in summaries), "bytes")
    out["report.self_s"] = (self_time("report"), "s")
    return out
