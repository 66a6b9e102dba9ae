"""Table builders, graph emitters, the statistics report, and run_all.

Every cell of every table is computed from the other modules at build
time; nothing is hardcoded here beyond column layouts, the frozen bin
edges re-exported from the robustness module, and the external
reference values the statistics report compares against.  Merged
columns (V2=V3, V4=V7, and the matching sequential-update pairs) are
emitted merged only after the equality they assert has been rechecked
during the build; if a pair ever disagreed, the merged column would keep
the first variant's label and the table's ``metadata["warnings"]`` would
name the rule and the two labels.

All emitters are deterministic: rows are keyed by ascending rule
number, JSON is serialized with sorted keys, and no timestamps or
environment details enter the outputs, so identical inputs give
byte-identical documents.
"""

import functools
import os
from collections.abc import Callable
from itertools import repeat
from math import gcd, isfinite

from . import gates, rulespace, spectral, transforms
from . import robustness as rb
from . import stats as st
from .dynamics import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    _keyed_record,
    _label,
    _Record,
    _RULES,
    _SYNCHRONOUS,
    _V1,
    all_rules,
    variant,
)

FORMATS = ("csv", "tsv", "markdown", "json")

# External reference values the statistics report compares against.
REFERENCE = {
    "fisher_p": 0.00797,
    "odds_ratio": 9.0,
    "odds_ratio_ci": (1.89, 42.78),
    "pearson_p": 0.13,
    "spearman_p": 0.06,
}


class TableDocument(_Record):
    """One built table: its id, column names, rows of cell strings and
    metadata (notes, conventions, merge-check warnings)."""

    __slots__ = _fields = __match_args__ = ("table_id", "columns", "rows", "metadata")

    def __init__(self, table_id: str, columns: tuple[str, ...], rows: list[list[str]],
                 metadata: dict | None = None):
        self.table_id = table_id
        self.columns = columns
        self.rows = rows
        self.metadata = {} if metadata is None else metadata


def _fmt_fraction(f) -> str:
    """A Fraction or a RobustnessScore in lowest terms as "n/d", with no Fraction built."""
    g = gcd(f.numerator, f.denominator)
    return f"{f.numerator // g}/{f.denominator // g}"


# Class columns of the dynamics tables.  A column named by several tags
# merges those variants; a "_seq" column is the sequential form, which
# also merges x-first and y-first.  Each merge is checked as it is read.
_T1_COLUMNS = ("v1", "v2_v3", "v1_seq", "v2_v3_seq", "v4_v7", "v5", "v6",
               "v4_seq", "v5_seq", "v6_seq")
_TA1_COLUMNS = ("v1", "v2_v3", "v4_v7", "v5", "v6")


def _class_cell(rule: Rule, column: str, warnings: list[str]) -> str:
    """The class label shared by a column's merged variants, with a
    warning recorded for each pair that disagrees."""
    sequential = column.endswith("_seq")
    tags = column.removesuffix("_seq").upper().split("_")
    if sequential:
        labels = []
        for tag in tags:
            lx = _label(rule.number, tag, UpdateMode.X_FIRST)
            ly = _label(rule.number, tag, UpdateMode.Y_FIRST)
            if lx != ly:
                warnings.append(f"rule {rule.number}: sequential {tag} classes depend on order "
                                f"({lx} x-first vs {ly} y-first)")
            labels.append(lx)
    else:
        labels = [_label(rule.number, tag) for tag in tags]
    for tag, lab in zip(tags[1:], labels[1:]):
        if lab != labels[0]:
            pre, post = ("sequential ", "") if sequential else ("", " under synchronous updating")
            warnings.append(f"rule {rule.number}: {pre}{tags[0]} and {tag} disagree "
                            f"({labels[0]} vs {lab}){post}")
    return labels[0]


# Leading columns of T1, TA1 and T2: the rule, its weights, and the
# numbers of its images under node swap, sign flip, and both.
_RULE_COLUMNS = ("rule", "wxx", "wxy", "wyx", "wyy", "t12", "gauge", "t12_gauge")


def _rule_cells(rule: Rule) -> list[str]:
    swapped, flipped = transforms.t12(rule), transforms.gauge(rule)
    return [str(rule.number), *map(str, rule.weights),
            *(str(image.number) for image in (swapped, flipped, transforms.t12(flipped)))]


def _t12_representatives(arities: tuple[int, ...]) -> list[Rule]:
    """Node-swap class representatives among the rules of the given arities:
    node swap keeps the arity, and a rule represents its class when its
    number is the smaller of its own and its image's."""
    return [r for r in all_rules() if r.arity in arities and r.number <= transforms.t12(r).number]


def _dynamics_table(table_id: str, arities: tuple[int, ...],
                    columns: tuple[str, ...]) -> TableDocument:
    """One row per node-swap representative of the given arities: weights,
    transform images, then one class label per column of ``columns``."""
    warnings: list[str] = []
    rows = [
        [*_rule_cells(r), *(_class_cell(r, column, warnings) for column in columns)]
        for r in _t12_representatives(arities)
    ]
    doc = TableDocument(table_id, (*_RULE_COLUMNS, *columns), rows)
    if warnings:
        doc.metadata["warnings"] = warnings
    return doc


def build_t1() -> TableDocument:
    return _dynamics_table("T1", (2,), _T1_COLUMNS)


def build_ta1() -> TableDocument:
    return _dynamics_table("TA1", (0, 1), _TA1_COLUMNS)


_TA2_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6")


def build_ta2() -> TableDocument:
    variants = [variant(tag) for tag in _TA2_TAGS]
    rows = [[str(r.number), *(g.name for v in variants for g in gates.gate_pair(r, v))]
            for r in _t12_representatives((2,))]
    return TableDocument(
        "TA2",
        ("rule", *(f"{tag.lower()}_{node}" for tag in _TA2_TAGS for node in "xy")),
        rows,
    )


def build_t2() -> TableDocument:
    pool = [r for r in all_rules() if r.arity == 2]
    classes = transforms.reduce_rules({"T12", "G"}, pool)
    rows = []
    for cls in classes:
        r = _RULES[cls.representative]
        preds = gates.sign_predicates(r)
        cross = "positive" if preds.cross_positive else (
            "negative" if preds.cross_negative else "none"
        )
        gx, gy = gates.gate_pair(r, _V1)
        rows.append([
            *_rule_cells(r),
            _label(r.number, "V1"),
            "+".join(str(m) for m in cls.members),
            gx.name, gy.name,
            cross,
            "yes" if preds.isolated_self_negation else "no",
        ])
    return TableDocument(
        "T2",
        (*_RULE_COLUMNS,
         "class_v1", "members", "gate_x", "gate_y",
         "cross_sign", "isolated_self_negation"),
        rows,
        metadata={"note": (
            "21 equivalence classes of the 72 two-input rules under node swap "
            "and cross-weight sign flip; gates are for V1"
        )},
    )


def _transition_doc(table_id: str, grouping: str) -> TableDocument:
    counts = rulespace.class_transition_counts(_V1, grouping)
    rows = []
    for i, lab in enumerate(counts.labels):
        rows.append([lab, *map(str, counts.matrix[i]), str(counts.row_sums[i])])
    return TableDocument(
        table_id,
        ("class", *counts.labels, "total"),
        rows,
        metadata={
            "convention": (
                "each unordered neighbor pair over all 81 rules counted once, "
                "tallied by the V1 class labels of its endpoints"
            ),
            "two_input_edges": counts.two_input_edges,
            "two_input_preserving": counts.two_input_preserving,
            "low_arity_edges": counts.low_arity_edges,
        },
    )


def build_t3a() -> TableDocument:
    return _transition_doc("T3A", "five-class")


def build_t3b() -> TableDocument:
    return _transition_doc("T3B", "three-class")


# The T4 row name of each three-class group, in row order.
_T4_ROW_OF_GROUP = {"F": "fixed_point", "2C+M": "cycle2_or_mixed", "4C": "cycle4"}
T4_GROUPS = tuple(_T4_ROW_OF_GROUP.values())
# The quadrant table splits T4 at this edge: bins up to this index lie
# below it, the later bins at or above it.
_QUADRANT_EDGE = 2


def _t4_bin_headers() -> tuple[str, ...]:
    e = [str(float(x)) for x in rb.ALL_TARGET_BIN_EDGES]
    return (f"below_{e[0]}", *(f"from_{a}_below_{b}" for a, b in zip(e, e[1:])),
            f"at_least_{e[-1]}")


def _t4_cells() -> tuple[tuple[int, ...], ...]:
    """Counts of rules per (V1 class group, all-neighbor robustness bin): the
    all-neighbor histogram split by group, one row per ``T4_GROUPS`` entry."""
    hist = rb.robustness_distribution("all")
    cells = {g: [0] * len(hist.counts) for g in T4_GROUPS}
    for b, numbers in enumerate(hist.rules_per_bin):
        for n in numbers:
            label = _label(n, "V1")
            group = _T4_ROW_OF_GROUP.get(rulespace._three_class_group(label))
            if group is None:
                raise ValueError(f"no count-table group for class {label!r}")
            cells[group][b] += 1
    return tuple(tuple(cells[g]) for g in T4_GROUPS)


def _quadrants(cells) -> tuple[tuple[int, int], tuple[int, int]]:
    fixed, *others = cells
    rest = [sum(col) for col in zip(*others)]
    k = _QUADRANT_EDGE + 1
    return ((sum(fixed[:k]), sum(fixed[k:])), (sum(rest[:k]), sum(rest[k:])))


def quadrant_counts() -> tuple[tuple[int, int], tuple[int, int]]:
    """2x2 table: (fixed-point vs not) by (robustness below 0.821 vs not),
    all-neighbor mutation metric over all 81 rules, summed from T4's cells."""
    return _quadrants(_t4_cells())


def build_t4() -> TableDocument:
    cells = _t4_cells()
    totals = [sum(col) for col in zip(*cells)]
    rows = [[g, *map(str, row), str(sum(row))]
            for g, row in (*zip(T4_GROUPS, cells), ("total", totals))]
    quad = _quadrants(cells)
    return TableDocument(
        "T4",
        ("dynamics_group", *_t4_bin_headers(), "total"),
        rows,
        metadata={
            "metric": "state-vs-rule-mutation, all-neighbor convention, all 81 rules",
            "bin_edges": [_fmt_fraction(e) for e in rb.ALL_TARGET_BIN_EDGES],
            "quadrants": [list(quad[0]), list(quad[1])],
            "quadrant_cut": _fmt_fraction(rb.ALL_TARGET_BIN_EDGES[_QUADRANT_EDGE]),
        },
    )


def build_robustness_table() -> TableDocument:
    rows = [[str(r.number), str(r.arity), _label(r.number, "V1"),
             *map(_fmt_fraction, (rb.class_robustness(r),
                                  rb.state_robustness_rule_mutation(r, "two-input"),
                                  rb.state_robustness_rule_mutation(r, "all"),
                                  rb.state_robustness_init_perturbation(r)))]
            for r in all_rules()]
    return TableDocument(
        "robustness",
        ("rule", "arity", "class_v1", "class_vs_rule_mutation",
         "state_vs_rule_mutation_two_input", "state_vs_rule_mutation_all",
         "state_vs_init_perturbation"),
        rows,
        metadata={
            "two_input_bin_edges": [_fmt_fraction(e) for e in rb.TWO_INPUT_BIN_EDGES],
            "all_target_bin_edges": [_fmt_fraction(e) for e in rb.ALL_TARGET_BIN_EDGES],
        },
    )


def build_spectra_table() -> TableDocument:
    variants = [variant(tag) for tag in VARIANT_TAGS]
    tails = {}  # the five cells after rule and variant, per cycle type
    rows = []
    for r in all_rules():
        for v in variants:
            rec = _keyed_record(r.number, v.tag, _SYNCHRONOUS)
            tail = tails.get(rec.dynamics_class)
            if tail is None:
                sp = spectral.spectrum(r, v)
                tail = tails[rec.dynamics_class] = (
                    rec.dynamics_class.label, str(sp.zero_count), ";".join(map(str, sp.phases)),
                    ";".join(map(str, sp.cycle_lengths)),
                    " ".join(map(str, spectral.charpoly_from_cycles(rec.attractor_set))))
            rows.append([str(r.number), v.tag, *tail])
    return TableDocument(
        "spectra",
        ("rule", "variant", "class", "zero_count", "phases",
         "cycle_lengths", "charpoly"),
        rows,
        metadata={"phases": "each entry k/p is the eigenvalue exp(2*pi*i*k/p)",
                  "charpoly": "integer coefficients, descending powers"},
    )


_BUILDERS = {
    "T1": build_t1,
    "T2": build_t2,
    "T3A": build_t3a,
    "T3B": build_t3b,
    "T4": build_t4,
    "TA1": build_ta1,
    "TA2": build_ta2,
    "robustness": build_robustness_table,
    "spectra": build_spectra_table,
}
TABLE_IDS = tuple(_BUILDERS)


def build_table(table_id: str) -> TableDocument:
    key = {t.lower(): t for t in TABLE_IDS}.get(
        table_id.lower() if isinstance(table_id, str) else None)
    if key is None:
        raise ValueError(f"unknown table id {table_id!r}; choose from {TABLE_IDS}")
    return _BUILDERS[key]()


def _strs(items) -> bool:
    return isinstance(items, (list, tuple)) and all(map(isinstance, items, repeat(str)))


def _json_value(obj) -> bool:
    """Whether ``obj`` is made of JSON values only, with str keys."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and _json_value(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(map(_json_value, obj))
    return obj is None or isinstance(obj, (str, int, float))


def render_table(doc: TableDocument, fmt: str) -> str:
    if not isinstance(doc, TableDocument):
        raise ValueError(f"render_table needs a TableDocument, got {doc!r}")
    if not (isinstance(doc.table_id, str) and _strs(doc.columns)
            and isinstance(doc.rows, (list, tuple))
            and all(_strs(row) and len(row) == len(doc.columns) for row in doc.rows)
            and isinstance(doc.metadata, dict) and _json_value(doc.metadata)):
        raise ValueError("a TableDocument needs a str id, str columns, rows of one str "
                         "cell per column and JSON metadata with str keys")
    return _render_table(doc, fmt)


def _render_table(doc: TableDocument, fmt: str) -> str:
    """``doc`` as text in ``fmt``, with ``doc`` taken as well formed."""
    if fmt in ("csv", "tsv"):
        delimiter, width = "," if fmt == "csv" else "\t", len(doc.columns)
        lines = [delimiter.join(row) for row in (doc.columns, *doc.rows)]
        text = "\n".join(lines) + "\n"
        # csv quotes a cell holding the delimiter, '"', CR (on 3.13) or LF, and
        # the empty cell of a one-cell row, and 3.10's csv refuses a NUL; a LF
        # or delimiter beyond those the joins put in comes from a cell.  Such a
        # table, or one with no columns, is left to csv itself.
        if not ('"' in text or "\r" in text or "\0" in text or text.count("\n") > len(lines)
                or text.count(delimiter) > len(lines) * (width - 1) or width == 1 and "" in lines):
            return text
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(
            (doc.columns, *doc.rows))
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(doc.columns) + " |",
                 "|" + "|".join(" --- " for _ in doc.columns) + "|"]
        lines.extend("| " + " | ".join(row) + " |" for row in doc.rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({"table": doc.table_id, "columns": list(doc.columns),
                      "rows": doc.rows, "metadata": doc.metadata})
    raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")


def _json(obj) -> str:
    """Every JSON document the package emits: sorted keys, a two-space
    indent and one trailing newline, byte for byte as
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` writes it."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """``obj`` (str keys) as ``json`` writes it when ``newline`` starts its indent."""
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return '"' + obj + '"'
        import json

        return json.dumps(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return (float.__repr__(obj) if isfinite(obj) else "NaN" if obj != obj
                else "Infinity" if obj > 0 else "-Infinity")
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [_json_text(k, inner) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_table(table_id: str, fmt: str = "csv") -> str:
    return render_table(build_table(table_id), fmt)


class RuleGraph(_Record):
    """The 81-node mutation graph with per-rule attributes.

    ``nodes`` maps rule number to its attribute dict (arity, dynamics
    class per synchronous variant, and the three robustness fractions);
    ``edges`` lists each undirected edge once as (smaller, larger).
    """

    __slots__ = _fields = __match_args__ = ("nodes", "edges")

    def __init__(self, nodes: dict[int, dict] | None = None,
                 edges: tuple[tuple[int, int], ...] = ()):
        self.nodes = {} if nodes is None else nodes
        self.edges = edges


def build_rule_graph() -> RuleGraph:
    # Each score as str(Fraction) gives it: "n/d", or "n" when d is 1.
    nodes = {r.number: {
        "arity": r.arity,
        "classes": {tag: _label(r.number, tag) for tag in VARIANT_TAGS},
        "robustness": {key: _fmt_fraction(sc).removesuffix("/1") for key, sc in (
            ("class_vs_rule_mutation", rb.class_robustness(r)),
            ("state_vs_rule_mutation", rb.state_robustness_rule_mutation(r)),
            ("state_vs_init_perturbation", rb.state_robustness_init_perturbation(r)))},
    } for r in all_rules()}
    edges = sorted((r.number, nb.number)
                   for r in all_rules() for nb in rulespace.neighbors(r) if nb.number > r.number)
    return RuleGraph(nodes=nodes, edges=tuple(edges))


def _dot_escape(s: str) -> str:
    return s.replace('"', '\\"')


def _graph_node(n, attrs) -> bool:
    """Whether ``n: attrs`` is a rule graph node: an int number with an int
    arity and, optionally, str-to-str ``classes`` and ``robustness`` maps."""
    return (type(n) is int and isinstance(attrs, dict) and type(attrs.get("arity")) is int
            and attrs.keys() <= {"arity", "classes", "robustness"}
            and all(isinstance(m, dict) and _strs([*m, *m.values()])
                    for key, m in attrs.items() if key != "arity"))


def export_graph(graph: RuleGraph, fmt: str) -> str:
    """Serialize the rule graph deterministically as dot, csv, or json."""
    if not isinstance(graph, RuleGraph):
        raise ValueError(f"export_graph needs a RuleGraph, got {graph!r}")
    nodes, edges = graph.nodes, graph.edges
    if not (isinstance(nodes, dict) and all(map(_graph_node, nodes, nodes.values()))
            and isinstance(edges, (list, tuple))
            and all(isinstance(e, (list, tuple)) and len(e) == 2
                    and all(type(v) is int and v in nodes for v in e) for e in edges)):
        raise ValueError("a RuleGraph needs int nodes, each with an int arity and str-to-str "
                         "classes and robustness maps, and edges that are pairs of its nodes")
    return _render_graph(graph, fmt)


def _render_graph(graph: RuleGraph, fmt: str) -> str:
    """``graph`` as text in ``fmt``, with ``graph`` taken as well formed."""
    if fmt == "dot":
        lines = ["graph rulespace {"]
        for n in sorted(graph.nodes):
            attrs = graph.nodes[n]
            parts = [f'arity={attrs["arity"]}']
            for tag in sorted(attrs.get("classes", {})):
                parts.append(f'{tag.lower()}_class="{_dot_escape(attrs["classes"][tag])}"')
            for key in sorted(attrs.get("robustness", {})):
                parts.append(f'{key}="{attrs["robustness"][key]}"')
            lines.append(f'  {n} [{" ".join(parts)}];')
        for u, w in graph.edges:
            lines.append(f"  {u} -- {w};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["source,target"]
        lines.extend(f"{u},{w}" for u, w in graph.edges)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({"nodes": [{"rule": n, **graph.nodes[n]} for n in sorted(graph.nodes)],
                      "edges": [list(e) for e in graph.edges]})
    raise ValueError(f"unknown export format {fmt!r}")


def distribution_payload(targets: str) -> dict:
    """The state-vs-rule-mutation histogram for ``targets`` as JSON-ready
    edges ("n/d" text), counts and rule numbers per bin."""
    hist = rb.robustness_distribution(targets)
    return {
        "edges": [_fmt_fraction(e) for e in hist.edges],
        "counts": list(hist.counts),
        "rules_per_bin": [list(b) for b in hist.rules_per_bin],
    }


def _corr_block(pool_desc: str, xs, ys) -> dict:
    block = {"dataset": pool_desc, "n": len(xs)}
    for name, test in (("pearson", st.pearson), ("spearman", st.spearman)):
        res, ref = test(xs, ys), REFERENCE[f"{name}_p"]
        block[name] = {"r": res.statistic, "p_value": res.p_value, "reference_p": ref,
                       "within_0.03": abs(res.p_value - ref) <= 0.03}
    return block


def stats_report() -> dict:
    """Fisher, odds ratio, correlations, and tally conventions, each
    compared against its external reference value with an explicit
    agreement flag; disagreements are reported, never adjusted away."""
    quad = quadrant_counts()
    fisher = st.fisher_exact(quad)
    odds = st.odds_ratio(quad)
    fisher_p = float(fisher.p_value)
    ref_p = REFERENCE["fisher_p"]

    # Per-rule scores in rule order: all 81 rules, then the 72 two-input rules.
    rules = all_rules()
    # n / d is float(Fraction(n, d)): int true division is correctly rounded.
    init_all = [(sc := rb.state_robustness_init_perturbation(r)).numerator / sc.denominator
                for r in rules]
    mut_all = [(sc := rb.state_robustness_rule_mutation(r, "all")).numerator / sc.denominator
               for r in rules]
    init_two = [x for r, x in zip(rules, init_all) if r.arity == 2]
    mut_two = [(sc := rb.state_robustness_rule_mutation(r, "two-input")).numerator
               / sc.denominator for r in rules if r.arity == 2]

    counts = rulespace.class_transition_counts(_V1, "five-class")
    preserving = sum(counts.diagonal)

    inverse = (1.0 / odds.statistic) if odds.statistic else None
    return {
        "fisher": {
            "table": [list(quad[0]), list(quad[1])],
            "p_value": fisher_p,
            "p_value_exact": _fmt_fraction(fisher.p_value),
            "reference_p": ref_p,
            "relative_difference": abs(fisher_p - ref_p) / ref_p,
            "within_5_percent": abs(fisher_p - ref_p) / ref_p <= 0.05,
        },
        "odds_ratio": {
            "table": [list(quad[0]), list(quad[1])],
            "estimate": odds.statistic,
            "ci_95": [odds.ci_low, odds.ci_high],
            "inverse_orientation_estimate": inverse,
            "reference": REFERENCE["odds_ratio"],
            "reference_ci_95": list(REFERENCE["odds_ratio_ci"]),
            "matches_reference": False if odds.statistic is None else (
                abs(odds.statistic - REFERENCE["odds_ratio"]) < 0.5
                or (inverse is not None and abs(inverse - REFERENCE["odds_ratio"]) < 0.5)
            ),
            "note": (
                "the sample estimate from the quadrant counts does not "
                "reproduce the reference value in either orientation; both "
                "are reported"
            ),
        },
        "correlations": {
            "primary": _corr_block(
                "all 81 rules; all-neighbor mutation metric vs "
                "initial-state perturbation metric",
                init_all,
                mut_all,
            ),
            "two_input_restriction": _corr_block(
                "72 two-input rules; two-input mutation metric vs "
                "initial-state perturbation metric",
                init_two,
                mut_two,
            ),
            "note": (
                "only the 81-rule all-neighbor dataset reproduces the "
                "reference p-values; the 72-rule restriction is reported "
                "for comparison and does not"
            ),
        },
        "class_transitions": {
            "matrix_preserving": preserving,
            "matrix_total": counts.total,
            "two_input_preserving": counts.two_input_preserving,
            "two_input_total": counts.two_input_edges,
            "note": (
                "the 76-of-168 tally counts only unordered edges between "
                "two-input rules and is a different convention from the "
                "count matrix (104 of 216); the two do not agree and both "
                "are reported"
            ),
        },
    }


def _stages() -> list[tuple[str, Callable[[], str]]]:
    """The stage table of ``run_all``: every bundle file but the manifest,
    in write order, as its name and the producer of its text.  A producer
    renders the document it has just built without the checks of
    ``render_table`` and ``export_graph``, which guard documents built
    outside this module."""
    graph = functools.cache(build_rule_graph)  # one graph for its three files
    return [
        *((f"table_{t.lower()}.csv", lambda t=t: _render_table(build_table(t), "csv"))
          for t in TABLE_IDS),
        *((f"rulespace.{fmt}", lambda fmt=fmt: _render_graph(graph(), fmt))
          for fmt in ("dot", "csv", "json")),
        ("robustness_distributions.json", lambda: _json(
            {targets: distribution_payload(targets) for targets in rb.MUTATION_TARGET_CHOICES})),
        ("stats_report.json", lambda: _json(stats_report())),
    ]


def run_all(out_dir: str) -> dict:
    """Emit every document into ``out_dir`` and return the manifest."""
    import hashlib

    if not isinstance(out_dir, (str, os.PathLike)) or out_dir == "":
        raise ValueError(f"out_dir must be a non-empty str or an os.PathLike, got {out_dir!r}")
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise ValueError(f"out_dir {out_dir!r} exists and is not a directory")
    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, str] = {}
    for name, produce in _stages():
        data = produce().encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        files[name] = hashlib.sha256(data).hexdigest()

    manifest = {"file_count": len(files), "files": dict(sorted(files.items()))}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json(manifest))
    return manifest
