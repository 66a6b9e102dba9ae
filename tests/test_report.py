"""Emitters: golden tables, state graphs, stats report, run_all, CLI."""

import copy
import csv
import difflib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import mpnspace
from mpnspace import (
    UpdateMode,
    emit_state_graph,
    emit_table,
    report,
    rule_from_number,
    variant,
)
from mpnspace.cli import main as cli_main
from mpnspace.report import (
    FORMATS,
    REFERENCE,
    TABLE_IDS,
    RuleGraph,
    TableDocument,
    build_rule_graph,
    build_table,
    export_graph,
    render_table,
    run_all,
    stats_report,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
BENCHMARK_MANIFEST = GOLDEN_DIR.resolve().parent.parent / "perfbench" / "expected_manifest.json"
GOLDEN_TABLES = ("T1", "T2", "T3A", "T3B", "T4", "TA1", "TA2")


@pytest.mark.parametrize("table_id", GOLDEN_TABLES)
def test_golden_file_equality(table_id):
    golden = (GOLDEN_DIR / f"table_{table_id.lower()}.csv").read_text(
        encoding="utf-8")
    assert emit_table(table_id, "csv") == golden


def test_golden_rows_spot_checked_against_fixtures():
    t1 = emit_table("T1", "csv").splitlines()
    assert "8,-1,-1,1,0,46,20,34,4C,3C,2C,2C,F2,F1,F1,F2,F1,F1" in t1
    ta1 = emit_table("TA1", "csv").splitlines()
    row41 = next(r for r in ta1 if r.startswith("41,"))
    assert row41.split(",")[8:] == ["F4", "F1", "F4", "F1", "F1"]
    t3a = [r.split(",") for r in emit_table("T3A", "csv").splitlines()[1:]]
    diagonal = [int(row[1 + i]) for i, row in enumerate(t3a)]
    assert diagonal == [24, 40, 8, 24, 8]


@pytest.mark.parametrize("tag, modes, column, warning", [
    ("V3", {UpdateMode.SYNCHRONOUS}, "v2_v3",
     "rule {rule}: V2 and V3 disagree ({label} vs X) under synchronous updating"),
    ("V1", {UpdateMode.Y_FIRST}, "v1_seq",
     "rule {rule}: sequential V1 classes depend on order ({label} x-first vs X y-first)"),
    ("V3", {UpdateMode.X_FIRST, UpdateMode.Y_FIRST}, "v2_v3_seq",
     "rule {rule}: sequential V2 and V3 disagree ({label} vs X)"),
], ids=["synchronous-merge", "sequential-order", "sequential-merge"])
def test_a_disagreeing_merge_keeps_the_column_and_warns(monkeypatch, tag, modes, column, warning):
    """If ``tag`` under ``modes`` ever read "X", T1 would keep ``column``
    with the label it read first (V2's, or the x-first one) and name each
    rule in a warning."""
    expected = build_table("T1")
    assert "warnings" not in expected.metadata
    label = report._label  # the atlas reader the builders read labels through

    def disagrees(number, t, mode=UpdateMode.SYNCHRONOUS):
        if t == tag and mode in modes:
            return "X"
        return label(number, t, mode)

    monkeypatch.setattr(report, "_label", disagrees)
    doc = build_table("T1")
    assert (doc.columns, doc.rows) == (expected.columns, expected.rows)
    kept = doc.columns.index(column)
    assert doc.metadata["warnings"] == tuple(warning.format(rule=row[0], label=row[kept])
                                             for row in expected.rows)


def test_a_v1_label_outside_the_t4_groups_stops_the_count_table(monkeypatch):
    """Every V1 label falls in a T4 group; a label that did not would stop
    ``build_t4`` rather than be dropped from the counts."""
    label = report._label

    def rule_8_leaves_the_groups(number, tag, mode=UpdateMode.SYNCHRONOUS):
        return "1+3" if (number, tag) == (8, "V1") else label(number, tag, mode)

    monkeypatch.setattr(report, "_label", rule_8_leaves_the_groups)
    with pytest.raises(ValueError) as excinfo:
        report.build_t4()
    assert str(excinfo.value) == "no count-table group for class '1+3'"


def test_rows_ordered_by_ascending_rule_number():
    for table_id in ("T1", "T2", "TA1", "TA2", "robustness"):
        doc = build_table(table_id)
        numbers = [int(row[0]) for row in doc.rows]
        assert numbers == sorted(numbers)


def test_table_id_case_insensitive():
    assert emit_table("t3a") == emit_table("T3A")


def test_unknown_table_and_format_raise():
    with pytest.raises(ValueError):
        emit_table("T9")
    with pytest.raises(ValueError):
        emit_table("T1", "yaml")


@pytest.mark.parametrize("fmt", ["yaml", "CSV", None], ids=repr)
def test_emit_table_refuses_a_bad_format_before_building(fmt, monkeypatch):
    built = []
    for table_id in TABLE_IDS:
        monkeypatch.setitem(report._BUILDERS, table_id, lambda t=table_id: built.append(t))
    for table_id in (*TABLE_IDS, "T9"):
        with pytest.raises(ValueError) as excinfo:
            emit_table(table_id, fmt)
        assert str(excinfo.value) == f"unknown format {fmt!r}; choose from {FORMATS}"
    assert built == []


@pytest.mark.parametrize("table_id", [None, 3, b"T1", ("T1",)], ids=repr)
def test_non_string_table_ids_raise_the_unknown_id_error(table_id):
    with pytest.raises(ValueError, match="unknown table id"):
        build_table(table_id)
    with pytest.raises(ValueError, match="unknown table id"):
        emit_table(table_id)


def test_render_formats():
    doc = build_table("T3B")
    csv_text = render_table(doc, "csv")
    tsv_text = render_table(doc, "tsv")
    md_text = render_table(doc, "markdown")
    json_text = render_table(doc, "json")
    assert csv_text.splitlines()[0] == "class,F,2C+M,4C,total"
    assert tsv_text.splitlines()[0] == "class\tF\t2C+M\t4C\ttotal"
    assert md_text.splitlines()[0] == "| class | F | 2C+M | 4C | total |"
    payload = json.loads(json_text)
    assert payload["table"] == "T3B"
    assert payload["rows"][0] == ["F", "96", "24", "8", "128"]
    assert payload["metadata"]["two_input_preserving"] == 108
    fine = json.loads(render_table(build_table("T3A"), "json"))
    assert fine["metadata"]["two_input_preserving"] == 76
    assert fine["metadata"]["two_input_edges"] == 168


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_renders_parse_back_to_the_table(table_id):
    doc = build_table(table_id)
    for fmt, delimiter in (("csv", ","), ("tsv", "\t")):
        text = render_table(doc, fmt)
        assert list(csv.reader(io.StringIO(text), delimiter=delimiter)) == [
            list(doc.columns), *map(list, doc.rows)], fmt
    payload = json.loads(render_table(doc, "json"))
    assert (payload["table"], payload["columns"], payload["rows"]) == (
        doc.table_id, list(doc.columns), [*map(list, doc.rows)])


# Each builds a well-formed document or graph with one field broken.
MALFORMED_TABLES = {
    "int-id": lambda: TableDocument(1, ("a", "b"), [["1", "2"]]),
    "str-columns": lambda: TableDocument("X", "ab", [["1", "2"]]),
    "int-column": lambda: TableDocument("X", ("a", 2), [["1", "2"]]),
    "int-cells": lambda: TableDocument("X", ("a", "b"), [[1, 2]]),
    "long-row": lambda: TableDocument("X", ("a", "b"), [["1", "2", "3"]]),
    "short-row": lambda: TableDocument("X", ("a", "b"), [["1"]]),
    "str-row": lambda: TableDocument("X", ("a", "b"), ["12"]),
    "str-rows": lambda: TableDocument("X", ("a", "b"), "12"),
    "list-metadata": lambda: TableDocument("X", ("a", "b"), [["1", "2"]], [("note", "x")]),
    "int-metadata-key": lambda: TableDocument("X", ("a", "b"), [["1", "2"]], {1: "x"}),
    "set-metadata-value": lambda: TableDocument("X", ("a", "b"), [["1", "2"]], {"note": {"x"}}),
}
GRAPH_FORMATS = ("dot", "csv", "json")
MALFORMED_GRAPHS = {
    "no-arity": lambda: RuleGraph({1: {}}),
    "str-arity": lambda: RuleGraph({1: {"arity": "2"}}),
    "str-node": lambda: RuleGraph({"1": {"arity": 2}}),
    "list-attrs": lambda: RuleGraph({1: [("arity", 2)]}),
    "int-class": lambda: RuleGraph({1: {"arity": 2, "classes": {"V1": 3}}}),
    # Both tags would name the one DOT attribute v1_class.
    "tags-equal-in-lower-case":
        lambda: RuleGraph({1: {"arity": 2, "classes": {"V1": "F1", "v1": "2C"}}}),
    "list-robustness": lambda: RuleGraph({1: {"arity": 2, "robustness": ["1/2"]}}),
    "unknown-attr": lambda: RuleGraph({1: {"arity": 2, "colour": "red"}}),
    "list-nodes": lambda: RuleGraph([1, 2]),
    "edge-to-a-missing-node": lambda: RuleGraph({1: {"arity": 2}}, ((1, 2),)),
    "three-node-edge": lambda: RuleGraph({1: {"arity": 2}, 2: {"arity": 2}}, ((1, 2, 1),)),
    "str-edges": lambda: RuleGraph({1: {"arity": 2}, 2: {"arity": 2}}, "12"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("build", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_a_malformed_table_document_is_a_value_error_in_every_format(build, fmt):
    """Refused where it is built, so no format gets to render it."""
    with pytest.raises(ValueError, match="a TableDocument needs") as excinfo:
        render_table(build(), fmt)
    assert excinfo.traceback[-1].frame.code.raw is TableDocument.__init__.__code__


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
@pytest.mark.parametrize("build", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS)
def test_a_malformed_rule_graph_is_a_value_error_in_every_format(build, fmt):
    with pytest.raises(ValueError, match="a RuleGraph needs") as excinfo:
        export_graph(build(), fmt)
    assert excinfo.traceback[-1].frame.code.raw is RuleGraph.__init__.__code__


# Each mutating method of a dict, with arguments it would accept.
_DICT_CHANGES = {"__setitem__": ("key", 1), "__delitem__": ("key",), "__ior__": ({"key": 1},),
                 "clear": (), "pop": ("key",), "popitem": (), "setdefault": ("key", 1),
                 "update": ({"key": 1},)}


def _containers(obj) -> set[type]:
    """The type of ``obj`` and of every array and map nested in it."""
    if isinstance(obj, (list, tuple, dict)):
        items = obj.values() if isinstance(obj, dict) else obj
        return {type(obj)}.union(*map(_containers, items))
    return set()


def _assert_read_only(record, maps):
    for field in record.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    for m in maps:
        before = dict(m)
        for name, args in _DICT_CHANGES.items():
            with pytest.raises(TypeError, match="read-only"):
                getattr(m, name)(*args)
        assert m == before


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_a_built_table_refuses_every_change(table_id):
    doc = build_table(table_id)
    for copied in (doc, pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
        assert copied == doc
        _assert_read_only(copied, [copied.metadata])
        assert _containers(copied.columns) == _containers(copied.rows) == {tuple}
        assert _containers(copied.metadata) <= {type(copied.metadata), tuple}


def test_a_document_keeps_no_container_it_was_built_from():
    columns, rows, metadata = ["a", "b"], [["1", "2"]], {"n": [1, ["x"]], "m": {"k": None}}
    doc = TableDocument("X", columns, rows, metadata)
    columns.append("c")
    rows[0].append("3")
    metadata["n"][1].append("y")
    metadata.clear()
    assert doc == TableDocument("X", ("a", "b"), (("1", "2"),),
                                {"n": (1, ("x",)), "m": {"k": None}})
    assert _containers(doc.metadata) == {type(doc.metadata), tuple}
    _assert_read_only(doc, [doc.metadata, doc.metadata["m"]])


def test_a_built_rule_graph_refuses_every_change():
    graph = build_rule_graph()
    for copied in (graph, pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert copied == graph
        node = copied.nodes[8]
        _assert_read_only(copied, [copied.nodes, node, node["classes"], node["robustness"]])
        assert _containers(copied.edges) == {tuple}


def test_the_renderers_refuse_a_look_alike_of_a_document():
    doc, graph = build_table("T3A"), build_rule_graph()
    fake_doc = SimpleNamespace(**{f: getattr(doc, f) for f in TableDocument.__match_args__})
    fake_graph = SimpleNamespace(nodes=graph.nodes, edges=graph.edges)
    for fmt in FORMATS:
        with pytest.raises(ValueError, match="^render_table needs a TableDocument, got namespace"):
            render_table(fake_doc, fmt)
    for fmt in GRAPH_FORMATS:
        with pytest.raises(ValueError, match="^export_graph needs a RuleGraph, got namespace"):
            export_graph(fake_graph, fmt)


def test_a_cold_run_all_checks_each_rule_graph_node_once(tmp_path):
    """The bundle's one rule graph is checked when it is built, and its
    three exports, which only format it, check none of its 81 nodes again."""
    program = (
        "import sys\n"
        "from mpnspace import report\n"
        "check, calls = report._graph_node.__code__, []\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and frame.f_code is check\n"
        "               and calls.append(1))\n"
        "report.run_all(sys.argv[1])\n"
        "sys.setprofile(None)\n"
        "print(len(calls))\n")
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    proc = subprocess.run([sys.executable, "-c", program, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "81\n"


# A DOT token: a quoted string (group 1, its escapes still in), a bare ID or
# numeral (group 2), or one punctuation character (group 3).
DOT_TOKEN = re.compile(r'"((?:[^"\\]|\\.)*)"|([\w.-]+)|(\S)', re.S)


def _dot_node_attributes(text):
    """Each node statement's attributes of a DOT text, as {node: {name: value}},
    a quoted string read with its backslash escapes undone."""
    tokens = [re.sub(r"\\(.)", r"\1", m[1], flags=re.S) if m[1] is not None else m[0]
              for m in DOT_TOKEN.finditer(text)]
    nodes = {}
    for i in (i for i, token in enumerate(tokens) if token == "["):
        attrs = nodes[int(tokens[i - 1])] = {}
        for j in range(i + 1, tokens.index("]", i), 3):
            assert tokens[j + 1] == "="
            attrs[tokens[j]] = tokens[j + 2]
    return nodes


def test_dot_attribute_values_and_names_read_back_exactly():
    odd = ('a"b', "ends\\", 'x\\"y', "two\nlines", "")
    graph = RuleGraph({
        1: {"arity": 2, "classes": {"V1": odd[0], 'W"\\': "F1"},
            "robustness": {"plain": odd[1], "has space": odd[2], "graph": odd[3], "1st": odd[4]}},
        2: {"arity": 0}}, ((1, 2),))
    text = export_graph(graph, "dot")
    assert ' "1st"="" "graph"="two\nlines" ' in text and ' plain="ends\\\\"];' in text
    assert _dot_node_attributes(text) == {
        1: {"arity": "2", "v1_class": odd[0], 'w"\\_class': "F1", "plain": odd[1],
            "has space": odd[2], "graph": odd[3], "1st": odd[4]},
        2: {"arity": "0"}}
    # The package's graph reads back to its own attributes.
    package = build_rule_graph()
    assert _dot_node_attributes(export_graph(package, "dot")) == {
        n: {"arity": str(a["arity"]), **{f"{t.lower()}_class": c for t, c in a["classes"].items()},
            **a["robustness"]} for n, a in package.nodes.items()}


def _markdown_cells(line):
    """The cells of one markdown table row, split at each unescaped ``|``, each
    cell's backslash escapes undone and its padding spaces stripped."""
    assert line.startswith("| ") and line.endswith(" |"), line
    cells = re.findall(r"((?:[^|\\]|\\.)*)\|", line[1:])
    return [re.sub(r"\\(.)", r"\1", cell[1:-1]) for cell in cells]


def test_markdown_cells_keep_their_pipes_backslashes_and_line_breaks_in_one_row():
    doc = TableDocument("X", ("a", "b|c", "d\\"), [["1|2", "x\ny", "\\|"], ["cr\r\nlf\rlf", "", "e"]])
    lines = render_table(doc, "markdown").splitlines()
    assert len(lines) == 4 and lines[1] == "| --- | --- | --- |"
    assert [_markdown_cells(line) for line in (lines[0], *lines[2:])] == [
        ["a", "b|c", "d\\"], ["1|2", "x<br>y", "\\|"], ["cr<br>lf<br>lf", "", "e"]]


def test_the_smallest_well_formed_records_render_in_every_format():
    doc = TableDocument("X", ("a", "b"), [["1", "2"]], {"n": [1, ["x"]], "ok": None})
    assert [render_table(doc, fmt).splitlines()[0] for fmt in FORMATS[:3]] == [
        "a,b", "a\tb", "| a | b |"]
    assert json.loads(render_table(doc, "json"))["rows"] == [["1", "2"]]
    graph = RuleGraph({1: {"arity": 0}, 2: {"arity": 1, "classes": {"V1": "F1"}}}, ((1, 2),))
    assert export_graph(graph, "csv") == "source,target\n1,2\n"
    assert json.loads(export_graph(graph, "json"))["nodes"][0] == {"rule": 1, "arity": 0}
    assert "2 [arity=1 v1_class=\"F1\"];" in export_graph(graph, "dot")
    assert export_graph(RuleGraph(), "json") == '{\n  "edges": [],\n  "nodes": []\n}\n'
    assert export_graph(build_rule_graph(), "dot").startswith("graph rulespace {\n")


def test_spectra_table_shape():
    doc = build_table("spectra")
    assert len(doc.rows) == 81 * 7
    row = next(r for r in doc.rows if r[0] == "8" and r[1] == "V1")
    assert row[2] == "4C"
    assert row[3] == "0"
    assert row[4] == "0;1/4;1/2;3/4"
    assert row[6] == "1 0 0 0 -1"


def test_robustness_table_shape():
    doc = build_table("robustness")
    assert len(doc.rows) == 81
    row25 = next(r for r in doc.rows if r[0] == "25")
    assert row25[4] == "3/8"


def test_state_graph_four_cycle():
    dot = emit_state_graph(rule_from_number(8), variant("V1"))
    assert dot.splitlines()[0] == "digraph state_space_rule8_v1 {"
    for edge in ("s0 -> s2;", "s2 -> s3;", "s3 -> s1;", "s1 -> s0;"):
        assert edge in dot
    assert dot.count("doublecircle") == 4


def test_state_graph_identity_rule():
    dot = emit_state_graph(rule_from_number(39), variant("V1"))
    for i in range(4):
        assert f"s{i} -> s{i};" in dot


def test_state_graph_requires_a_variant():
    with pytest.raises(ValueError, match="needs a variant"):
        emit_state_graph(rule_from_number(8), None)


def test_state_graph_hold_variant_funnel():
    dot = emit_state_graph(rule_from_number(8), variant("V4"))
    assert "s0 -> s0;" in dot          # (0,0) self-loop
    assert "s1 -> s1;" in dot          # (0,1) self-loop
    assert "s2 -> s1;" in dot          # (1,0) feeds (0,1)
    assert "s3 -> s1;" in dot          # (1,1) feeds (0,1)
    assert '[label="(0,1)" shape=doublecircle]' in dot


def test_stats_report_reference_comparisons():
    sr = stats_report()
    fisher = sr["fisher"]
    assert fisher["table"] == [[27, 21], [28, 5]]
    assert fisher["reference_p"] == REFERENCE["fisher_p"] == 0.00797
    assert fisher["within_5_percent"] is True
    assert fisher["p_value"] == pytest.approx(0.007966770531733485)

    odds = sr["odds_ratio"]
    assert odds["estimate"] == pytest.approx(135 / 588)
    assert odds["reference"] == 9.0
    assert odds["matches_reference"] is False
    assert odds["note"]

    primary = sr["correlations"]["primary"]
    assert primary["n"] == 81
    assert primary["pearson"]["within_0.03"] is True
    assert primary["spearman"]["within_0.03"] is True

    restricted = sr["correlations"]["two_input_restriction"]
    assert restricted["n"] == 72
    assert restricted["pearson"]["within_0.03"] is False
    assert sr["correlations"]["note"]

    transitions = sr["class_transitions"]
    assert transitions["matrix_preserving"] == 104
    assert transitions["matrix_total"] == 216
    assert transitions["two_input_preserving"] == 76
    assert transitions["two_input_total"] == 168
    assert "convention" in transitions["note"]


def _flags(monkeypatch, reference, *, fisher_p=Fraction(1, 2), odds=None, corr_p=0.5):
    """The stats report over stand-in statistics with the given results,
    against the given reference values: only the flag logic is real."""
    monkeypatch.setattr(report, "REFERENCE", {**REFERENCE, **reference})
    monkeypatch.setattr(report, "st", SimpleNamespace(
        fisher_exact=lambda table: mpnspace.TestResult(None, fisher_p),
        odds_ratio=lambda table: mpnspace.TestResult(odds, None),
        pearson=lambda xs, ys: mpnspace.TestResult(0.0, corr_p),
        spearman=lambda xs, ys: mpnspace.TestResult(0.0, corr_p)))
    return stats_report()


@pytest.mark.parametrize(("p", "within"), [
    (0.0, True), (0.03, True), (math.nextafter(0.03, 1.0), False), (0.5, False),
], ids=["equal", "at-edge", "past-edge", "far"])
def test_the_within_0_03_flag_holds_up_to_its_edge(monkeypatch, p, within):
    # Against a reference of 0, the difference is p itself, exactly.
    sr = _flags(monkeypatch, {"pearson_p": 0.0, "spearman_p": 0.0}, corr_p=p)
    for block in ("primary", "two_input_restriction"):
        for name in ("pearson", "spearman"):
            assert sr["correlations"][block][name]["within_0.03"] is within, (block, name)


@pytest.mark.parametrize(("p", "within"), [
    (Fraction(5, 8), True), (Fraction(21, 32), True), (Fraction(19, 32), True),
    (Fraction(21, 32) + Fraction(1, 2 ** 20), False),
    (Fraction(19, 32) - Fraction(1, 2 ** 20), False),
], ids=["equal", "at-upper-edge", "at-lower-edge", "past-upper-edge", "past-lower-edge"])
def test_the_within_5_percent_flag_holds_up_to_its_edge(monkeypatch, p, within):
    # 1/32 off a reference of 5/8 is 5% exactly; every value here is a binary fraction.
    sr = _flags(monkeypatch, {"fisher_p": 0.625}, fisher_p=p)
    assert sr["fisher"]["within_5_percent"] is within


@pytest.mark.parametrize(("estimate", "matches"), [
    (9.0, True), (8.75, True), (9.25, True), (8.5, False), (9.5, False), (0.125, False),
    (2 / 19, False), (2 / 17, False), (0.11, True), (None, False),
], ids=["equal", "within-below", "within-above", "at-lower-edge", "at-upper-edge",
        "inverse-far", "inverse-at-upper-edge", "inverse-at-lower-edge", "inverse-within",
        "no-estimate"])
def test_the_odds_ratio_matches_its_reference_within_half_in_either_orientation(
        monkeypatch, estimate, matches):
    # 1 / (2/19) is 9.5 and 1 / (2/17) is 8.5 exactly in binary floating point.
    sr = _flags(monkeypatch, {"odds_ratio": 9.0}, odds=estimate)
    assert sr["odds_ratio"]["matches_reference"] is matches
    assert sr["odds_ratio"]["inverse_orientation_estimate"] == (estimate and 1.0 / estimate)


def test_run_all_writes_manifest_and_hashes(tmp_path):
    out = tmp_path / "artifacts"
    manifest = run_all(str(out))
    assert manifest["file_count"] >= 10
    assert set(manifest["files"]) >= {
        f"table_{tid.lower()}.csv" for tid in TABLE_IDS}
    for name, digest in manifest["files"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    stored = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert stored == manifest
    stats_payload = json.loads(
        (out / "stats_report.json").read_text(encoding="utf-8"))
    assert stats_payload["fisher"]["reference_p"] == 0.00797
    dists = json.loads(
        (out / "robustness_distributions.json").read_text(encoding="utf-8"))
    assert dists["two-input"]["counts"] == [15, 21, 16, 11, 9]
    assert dists["all"]["counts"] == [17, 18, 20, 14, 12]


def test_run_all_writes_exactly_the_stage_table_in_its_order(tmp_path, monkeypatch):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, tmp_path))
        return open(path, *args, **kwargs)

    # A module global shadows the builtin for code in report only.
    monkeypatch.setattr(report, "open", recording_open, raising=False)
    manifest = run_all(str(tmp_path))
    stages = [name for name, _ in report._stages()]
    assert opened == [*stages, "manifest.json"]
    assert list(manifest["files"]) == sorted(stages)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(opened)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_rendering_changes_neither_the_table_nor_the_next_render(table_id, fmt):
    """The bundle, the CLI and the API render through one renderer, which
    reads its document and changes nothing in it."""
    doc = build_table(table_id)
    before = copy.deepcopy(doc)
    text = render_table(doc, fmt)
    assert doc == before
    assert render_table(doc, fmt) == render_table(before, fmt) == text


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
def test_exporting_changes_neither_the_graph_nor_the_next_export(fmt):
    graph = build_rule_graph()
    before = copy.deepcopy(graph)
    text = export_graph(graph, fmt)
    assert graph == before
    assert export_graph(graph, fmt) == export_graph(before, fmt) == text


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_the_json_writer_equals_json_dumps_on_every_document_the_package_emits(
        tmp_path, capsys, monkeypatch):
    writer, documents = report._json, []
    monkeypatch.setattr(report, "_json", lambda obj: documents.append(obj) or writer(obj))
    run_all(str(tmp_path))
    for table_id in TABLE_IDS:
        emit_table(table_id, "json")
    export_graph(build_rule_graph(), "json")
    assert cli(capsys, "stats")[0] == 0
    for targets in mpnspace.MUTATION_TARGET_CHOICES:
        assert cli(capsys, "robustness", "--targets", targets, "--distribution")[0] == 0
    # The four bundle documents, then every table, the graph, stats and two histograms.
    assert len(documents) == 4 + len(TABLE_IDS) + 1 + 1 + 2
    assert all(writer(obj) == _dumps(obj) for obj in documents)


class _Int(int):
    def __repr__(self):
        return "int subclass"


class _Float(float):
    def __repr__(self):
        return "float subclass"


class _Str(str):
    def __str__(self):
        return "str subclass"

    def __format__(self, spec):
        return "str subclass"

    __repr__ = __str__


# Every character class the writer treats apart: printable ASCII, quote,
# backslash, controls, DEL, non-ASCII, and line and paragraph separators.
_TEXT = hs.text(hs.sampled_from('a ~"\\/\x00\x1f\t\n\r\x7f\x80\xe9\u2028\U0001f600')) | hs.text()
_JSON_SCALARS = (hs.none() | hs.booleans() | hs.integers() | hs.floats()
                 | hs.sampled_from([math.nan, math.inf, -math.inf, -0.0])
                 | _TEXT | hs.builds(_Int, hs.integers()) | hs.builds(_Float, hs.floats())
                 | hs.builds(_Str, _TEXT))
_JSON_TREES = hs.recursive(_JSON_SCALARS, lambda children: (
    hs.lists(children, max_size=4) | hs.lists(children, max_size=4).map(tuple)
    | hs.dictionaries(_TEXT | hs.builds(_Str, _TEXT), children, max_size=4)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_the_json_writer_equals_json_dumps_on_any_json_tree(obj):
    assert report._json(obj) == _dumps(obj)


def test_the_json_writer_rejects_a_value_json_cannot_hold_as_json_dumps_does():
    message = "Object of type object is not JSON serializable"
    for write in (report._json, _dumps):
        with pytest.raises(TypeError) as excinfo:
            write({"a": object()})
        assert str(excinfo.value) == message


def _csv_writer_text(doc, delimiter):
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(doc.columns)
    writer.writerows(doc.rows)
    return buf.getvalue()


def _text_or_error(render, *args):
    """What ``render`` returns, or the csv error it raises (3.10's csv
    refuses a NUL, as it has no escape character for it)."""
    try:
        return render(*args)
    except csv.Error as error:
        return repr(error)


_CELLS = hs.text(hs.sampled_from(',\t"\r\n\0 a\xe9'), max_size=3) | hs.text(max_size=3)
_TABLES = hs.integers(0, 3).flatmap(lambda width: hs.builds(
    TableDocument, hs.just("X"), hs.tuples(*[_CELLS] * width),
    hs.lists(hs.lists(_CELLS, min_size=width, max_size=width), max_size=4)))


@settings(max_examples=400, deadline=None)
@given(_TABLES)
def test_the_csv_and_tsv_renders_equal_the_csv_writer(doc):
    for fmt, delimiter in (("csv", ","), ("tsv", "\t")):
        assert (_text_or_error(render_table, doc, fmt)
                == _text_or_error(_csv_writer_text, doc, delimiter))


@pytest.mark.parametrize(("columns", "rows"), [
    (("a",), [[""]]), (("",), []), (("a", "b"), [["", ""]]), ((), [[], []]),
    (("a,b",), [["x"]]), (("a\tb",), [["x"]]), (("a",), [['"']]), (("a",), [["\r"]]),
    (("a",), [["x\ny"]]), (("a",), [["x\0y"]])], ids=repr)
def test_each_cell_that_needs_quoting_is_quoted_as_the_csv_writer_quotes_it(columns, rows):
    doc = TableDocument("X", columns, rows)
    for fmt, delimiter in (("csv", ","), ("tsv", "\t")):
        assert (_text_or_error(render_table, doc, fmt)
                == _text_or_error(_csv_writer_text, doc, delimiter))


def test_run_all_writes_the_golden_bundle(tmp_path):
    """Every file ``run_all`` writes but its manifest equals its copy in
    ``tests/golden`` byte for byte; a mismatch shows the first lines that differ."""
    run_all(str(tmp_path))
    written = sorted(path.name for path in tmp_path.iterdir() if path.name != "manifest.json")
    assert written == sorted(path.name for path in GOLDEN_DIR.iterdir())
    diffs = []
    for name in written:
        got, want = (tmp_path / name).read_bytes(), (GOLDEN_DIR / name).read_bytes()
        if got != want:
            diff = difflib.unified_diff(want.decode().splitlines(), got.decode().splitlines(),
                                        f"golden/{name}", name, lineterm="")
            diffs.extend(itertools.islice(diff, 20))
    assert not diffs, "\n".join(diffs)


def test_the_golden_bundle_hashes_to_the_benchmark_manifest():
    """The manifest derived from ``tests/golden`` is the benchmark's expected
    manifest byte for byte, so the golden files are the bundle it checks."""
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in GOLDEN_DIR.iterdir()}
    derived = json.dumps({"file_count": len(files), "files": files}, indent=2, sort_keys=True)
    assert (derived + "\n").encode() == BENCHMARK_MANIFEST.read_bytes()


def cli(capsys, *argv):
    """(exit code, stdout) of ``mpnspace ARGV`` run in-process."""
    with pytest.raises(SystemExit) as exit_info:
        cli_main(args=list(argv), prog_name="mpnspace")
    return exit_info.value.code, capsys.readouterr().out


def test_cli_classify(capsys):
    code, out = cli(capsys, "classify", "8", "V1")
    assert code == 0
    assert "class: 4C" in out
    assert "(-1, -1) -> (1, -1) -> (1, 1) -> (-1, 1)" in out


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "mpnspace", "classify", "8", "V1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "class: 4C" in proc.stdout


def test_cli_usage_errors_exit_2(capsys):
    assert cli(capsys, "classify", "99", "V1")[0] == 2
    assert cli(capsys, "classify", "8", "V9")[0] == 2
    assert cli(capsys, "table", "T99")[0] == 2
    assert cli(capsys, "table", "T1", "--format", "yaml")[0] == 2
    assert cli(capsys, "robustness", "--distribution",
               "--metric", "class-vs-rule-mutation")[0] == 2


def test_cli_table_matches_golden(capsys):
    code, out = cli(capsys, "table", "T1")
    golden = (GOLDEN_DIR / "table_t1.csv").read_text(encoding="utf-8")
    assert code == 0
    assert out == golden


def test_cli_state_graph(capsys):
    code, out = cli(capsys, "state-graph", "8", "V1")
    assert code == 0
    assert "s0 -> s2;" in out


def test_cli_rulespace_export(capsys):
    code, out = cli(capsys, "rulespace", "export", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "source,target"
    assert len(lines) == 1 + 216


def test_cli_robustness_distribution(capsys):
    code, out = cli(capsys, "robustness", "--distribution")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [15, 21, 16, 11, 9]


def test_cli_robustness_scores(capsys):
    code, out = cli(capsys, "robustness", "--metric", "state-vs-init-perturbation")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rule,numerator,denominator,value"
    assert len(lines) == 1 + 81


def test_cli_stats(capsys):
    code, out = cli(capsys, "stats")
    assert code == 0
    payload = json.loads(out)
    assert payload["fisher"]["within_5_percent"] is True


def test_cli_all(capsys, tmp_path):
    out_dir = tmp_path / "bundle"
    code, _ = cli(capsys, "all", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_the_bundle_is_the_same_under_any_hash_seed(tmp_path, hash_seed):
    """``python -m mpnspace all`` in a fresh process writes the benchmark
    manifest byte for byte, whatever order str hashing gives sets."""
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    out_dir = tmp_path / "bundle"
    proc = subprocess.run([sys.executable, "-m", "mpnspace", "all", "--out", str(out_dir)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "manifest.json").read_bytes() == BENCHMARK_MANIFEST.read_bytes()
