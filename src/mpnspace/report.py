"""Table builders, graph emitters, the statistics report, and run_all.

Every cell of every table is computed from the other modules at build
time; nothing is hardcoded here beyond column layouts, the frozen bin
edges re-exported from the robustness module, and the external
reference values the statistics report compares against.  Merged
columns (V2=V3, V4=V7, and the matching sequential-update pairs) are
emitted merged only after the equality they assert has been rechecked
during the build; if a pair ever disagreed the table would fall back to
split columns and carry a warning in its metadata.

All emitters are deterministic: rows are keyed by ascending rule
number, JSON is serialized with sorted keys, and no timestamps or
environment details enter the outputs, so identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import robustness as rb
from . import stats as st
from .dynamics import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    Variant,
    all_rules,
    attractor_set,
    classify,
    states,
    successor_indices,
    variant,
)
from .gates import gate_pair, sign_predicates
from .rulespace import (
    build_rule_graph,
    class_transition_counts,
    export_graph,
    neighbors,
)
from .spectral import charpoly_from_cycles, spectrum_from_cycles, transition_matrix
from .transforms import gauge, reduce_rules, t12

TABLE_IDS = ("T1", "T2", "T3A", "T3B", "T4", "TA1", "TA2", "robustness", "spectra")
FORMATS = ("csv", "tsv", "markdown", "json")

# External reference values the statistics report compares against.
REFERENCE = {
    "fisher_p": 0.00797,
    "odds_ratio": 9.0,
    "odds_ratio_ci": (1.89, 42.78),
    "pearson_p": 0.13,
    "spearman_p": 0.06,
}


@dataclass
class TableDocument:
    table_id: str
    columns: tuple[str, ...]
    rows: list[list[str]]
    metadata: dict = field(default_factory=dict)


def _fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _variant_table() -> dict[tuple[str, UpdateMode], Variant]:
    """Every (tag, mode) variant, built once per table instead of per cell."""
    return {(tag, mode): variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode}


def _class_label(rule: Rule, vt: dict, tag: str,
                 mode: UpdateMode = UpdateMode.SYNCHRONOUS) -> str:
    return classify(rule, vt[tag, mode]).label


def _merged_label(rule: Rule, vt: dict, tag_a: str, tag_b: str,
                  mode: UpdateMode, warnings: list[str]) -> tuple[str, str]:
    """Labels for a pair of variants expected to agree; both returned,
    with a warning recorded when they differ."""
    la = _class_label(rule, vt, tag_a, mode)
    lb = _class_label(rule, vt, tag_b, mode)
    if la != lb:
        warnings.append(
            f"rule {rule.number}: {tag_a} and {tag_b} disagree "
            f"({la} vs {lb}) under {mode.value} updating"
        )
    return la, lb


def _async_label(rule: Rule, vt: dict, tag: str, warnings: list[str]) -> str:
    """Class under sequential updating, checked for order independence."""
    lx = _class_label(rule, vt, tag, UpdateMode.X_FIRST)
    ly = _class_label(rule, vt, tag, UpdateMode.Y_FIRST)
    if lx != ly:
        warnings.append(
            f"rule {rule.number}: sequential {tag} classes depend on order "
            f"({lx} x-first vs {ly} y-first)"
        )
    return lx


def _async_merged_label(rule: Rule, vt: dict, tag_a: str, tag_b: str,
                        warnings: list[str]) -> str:
    la = _async_label(rule, vt, tag_a, warnings)
    lb = _async_label(rule, vt, tag_b, warnings)
    if la != lb:
        warnings.append(
            f"rule {rule.number}: sequential {tag_a} and {tag_b} disagree "
            f"({la} vs {lb})"
        )
    return la


def _transform_numbers(rule: Rule) -> tuple[int, int, int]:
    return (t12(rule).number, gauge(rule).number, t12(gauge(rule)).number)


def _t12_representatives(arities: tuple[int, ...]) -> list[Rule]:
    """Node-swap class representatives among the rules of the given arities."""
    pool = [r for r in all_rules() if r.arity in arities]
    return [Rule.from_number(c.representative) for c in reduce_rules({"T12"}, pool)]


def build_t1() -> TableDocument:
    warnings: list[str] = []
    vt = _variant_table()
    sync = UpdateMode.SYNCHRONOUS
    rows = []
    for r in _t12_representatives((2,)):
        v23, _ = _merged_label(r, vt, "V2", "V3", sync, warnings)
        v47, _ = _merged_label(r, vt, "V4", "V7", sync, warnings)
        rows.append([
            str(r.number), *map(str, r.weights),
            *map(str, _transform_numbers(r)),
            _class_label(r, vt, "V1"),
            v23,
            _async_label(r, vt, "V1", warnings),
            _async_merged_label(r, vt, "V2", "V3", warnings),
            v47,
            _class_label(r, vt, "V5"),
            _class_label(r, vt, "V6"),
            _async_label(r, vt, "V4", warnings),
            _async_label(r, vt, "V5", warnings),
            _async_label(r, vt, "V6", warnings),
        ])
    doc = TableDocument(
        "T1",
        ("rule", "wxx", "wxy", "wyx", "wyy", "t12", "gauge", "t12_gauge",
         "v1", "v2_v3", "v1_seq", "v2_v3_seq", "v4_v7", "v5", "v6",
         "v4_seq", "v5_seq", "v6_seq"),
        rows,
    )
    if warnings:
        doc.metadata["warnings"] = warnings
    return doc


def build_ta1() -> TableDocument:
    warnings: list[str] = []
    vt = _variant_table()
    sync = UpdateMode.SYNCHRONOUS
    rows = []
    for r in _t12_representatives((0, 1)):
        v23, _ = _merged_label(r, vt, "V2", "V3", sync, warnings)
        v47, _ = _merged_label(r, vt, "V4", "V7", sync, warnings)
        rows.append([
            str(r.number), *map(str, r.weights),
            *map(str, _transform_numbers(r)),
            _class_label(r, vt, "V1"),
            v23,
            v47,
            _class_label(r, vt, "V5"),
            _class_label(r, vt, "V6"),
        ])
    doc = TableDocument(
        "TA1",
        ("rule", "wxx", "wxy", "wyx", "wyy", "t12", "gauge", "t12_gauge",
         "v1", "v2_v3", "v4_v7", "v5", "v6"),
        rows,
    )
    if warnings:
        doc.metadata["warnings"] = warnings
    return doc


def build_ta2() -> TableDocument:
    variants = [variant(tag) for tag in ("V1", "V2", "V3", "V4", "V5", "V6")]
    rows = []
    for r in _t12_representatives((2,)):
        cells = [str(r.number)]
        for v in variants:
            gx, gy = gate_pair(r, v)
            cells.extend([gx.name, gy.name])
        rows.append(cells)
    return TableDocument(
        "TA2",
        ("rule",
         "v1_x", "v1_y", "v2_x", "v2_y", "v3_x", "v3_y",
         "v4_x", "v4_y", "v5_x", "v5_y", "v6_x", "v6_y"),
        rows,
    )


def build_t2() -> TableDocument:
    pool = [r for r in all_rules() if r.arity == 2]
    classes = reduce_rules({"T12", "G"}, pool)
    v1 = variant("V1")
    rows = []
    for cls in classes:
        r = Rule.from_number(cls.representative)
        preds = sign_predicates(r)
        cross = "positive" if preds.cross_positive else (
            "negative" if preds.cross_negative else "none"
        )
        gx, gy = gate_pair(r, v1)
        rows.append([
            str(r.number), *map(str, r.weights),
            *map(str, _transform_numbers(r)),
            classify(r, v1).label,
            "+".join(str(m) for m in cls.members),
            gx.name, gy.name,
            cross,
            "yes" if preds.isolated_self_negation else "no",
        ])
    return TableDocument(
        "T2",
        ("rule", "wxx", "wxy", "wyx", "wyy", "t12", "gauge", "t12_gauge",
         "class_v1", "members", "gate_x", "gate_y",
         "cross_sign", "isolated_self_negation"),
        rows,
        metadata={"note": (
            "21 equivalence classes of the 72 two-input rules under node swap "
            "and cross-weight sign flip; gates are for V1"
        )},
    )


def _transition_doc(table_id: str, grouping: str) -> TableDocument:
    counts = class_transition_counts(variant("V1"), grouping)
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


T4_GROUPS = ("fixed_point", "cycle2_or_mixed", "cycle4")


def _t4_group(label: str) -> str:
    if label.startswith("F"):
        return "fixed_point"
    if label in ("2C", "M"):
        return "cycle2_or_mixed"
    if label == "4C":
        return "cycle4"
    raise ValueError(f"no count-table group for class {label!r}")


def _t4_bin_headers() -> tuple[str, ...]:
    e = [str(float(x)) for x in rb.ALL_TARGET_BIN_EDGES]
    return (
        f"below_{e[0]}",
        f"from_{e[0]}_below_{e[1]}",
        f"from_{e[1]}_below_{e[2]}",
        f"from_{e[2]}_below_{e[3]}",
        f"at_least_{e[3]}",
    )


def t4_cells() -> dict[str, list[int]]:
    """Counts of rules per (V1 class group, all-neighbor robustness bin)."""
    edges = rb.ALL_TARGET_BIN_EDGES
    cells = {g: [0] * (len(edges) + 1) for g in T4_GROUPS}
    v1 = variant("V1")
    for r in all_rules():
        group = _t4_group(classify(r, v1).label)
        frac = rb.state_robustness_rule_mutation(r, "all").fraction
        k = sum(1 for e in edges if frac >= e)
        cells[group][k] += 1
    return cells


def quadrant_counts() -> tuple[tuple[int, int], tuple[int, int]]:
    """2x2 table: (fixed-point vs not) by (robustness below 0.821 vs not),
    all-neighbor mutation metric over all 81 rules."""
    cut = rb.ALL_TARGET_BIN_EDGES[2]
    n = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    v1 = variant("V1")
    for r in all_rules():
        fixed = _t4_group(classify(r, v1).label) == "fixed_point"
        low = rb.state_robustness_rule_mutation(r, "all").fraction < cut
        n[(fixed, low)] += 1
    return ((n[(True, True)], n[(True, False)]), (n[(False, True)], n[(False, False)]))


def build_t4() -> TableDocument:
    cells = t4_cells()
    headers = _t4_bin_headers()
    rows = []
    for g in T4_GROUPS:
        rows.append([g, *map(str, cells[g]), str(sum(cells[g]))])
    totals = [sum(cells[g][k] for g in T4_GROUPS) for k in range(len(headers))]
    rows.append(["total", *map(str, totals), str(sum(totals))])
    quad = quadrant_counts()
    return TableDocument(
        "T4",
        ("dynamics_group", *headers, "total"),
        rows,
        metadata={
            "metric": "state-vs-rule-mutation, all-neighbor convention, all 81 rules",
            "bin_edges": [_fmt_fraction(e) for e in rb.ALL_TARGET_BIN_EDGES],
            "quadrants": [list(quad[0]), list(quad[1])],
            "quadrant_cut": _fmt_fraction(rb.ALL_TARGET_BIN_EDGES[2]),
        },
    )


def build_robustness_table() -> TableDocument:
    v1 = variant("V1")
    rows = []
    for r in all_rules():
        rows.append([
            str(r.number),
            str(r.arity),
            classify(r, v1).label,
            _fmt_fraction(rb.class_robustness(r).fraction),
            _fmt_fraction(rb.state_robustness_rule_mutation(r, "two-input").fraction),
            _fmt_fraction(rb.state_robustness_rule_mutation(r, "all").fraction),
            _fmt_fraction(rb.state_robustness_init_perturbation(r).fraction),
        ])
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
    rows = []
    for r in all_rules():
        for v in variants:
            aset = attractor_set(r, v)
            sp = spectrum_from_cycles(aset)
            poly = charpoly_from_cycles(aset)
            rows.append([
                str(r.number),
                v.tag,
                classify(r, v).label,
                str(sp.zero_count),
                ";".join(str(p) for p in sp.phases),
                ";".join(str(p) for p in sp.cycle_lengths),
                " ".join(str(c) for c in poly),
            ])
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


def build_table(table_id: str) -> TableDocument:
    key = {t.lower(): t for t in TABLE_IDS}.get(table_id.lower())
    if key is None:
        raise ValueError(f"unknown table id {table_id!r}; choose from {TABLE_IDS}")
    return _BUILDERS[key]()


def render_table(doc: TableDocument, fmt: str) -> str:
    if fmt in ("csv", "tsv"):
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t",
                            lineterminator="\n")
        writer.writerow(doc.columns)
        writer.writerows(doc.rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(doc.columns) + " |",
                 "|" + "|".join(" --- " for _ in doc.columns) + "|"]
        lines.extend("| " + " | ".join(row) + " |" for row in doc.rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            {
                "table": doc.table_id,
                "columns": list(doc.columns),
                "rows": doc.rows,
                "metadata": doc.metadata,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")


def emit_table(table_id: str, fmt: str = "csv") -> str:
    return render_table(build_table(table_id), fmt)


def emit_state_graph(rule: Rule, v, fmt: str = "dot") -> str:
    """DOT digraph of the one-step map on the four states."""
    if fmt != "dot":
        raise ValueError(f"unknown state-graph format {fmt!r}")
    sts = states(v)
    aset = attractor_set(rule, v)
    nxt = successor_indices(rule, v)
    on_cycle = {i for cyc in aset.attractors for i in cyc}
    lines = [f"digraph state_space_rule{rule.number}_{v.tag.lower()} {{"]
    for i, s in enumerate(sts):
        shape = "doublecircle" if i in on_cycle else "circle"
        lines.append(f'  s{i} [label="({s[0]},{s[1]})" shape={shape}];')
    for i in range(4):
        lines.append(f"  s{i} -> s{nxt[i]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _corr_block(pool_desc: str, xs, ys) -> dict:
    pe = st.pearson(xs, ys)
    sp = st.spearman(xs, ys)
    return {
        "dataset": pool_desc,
        "n": len(xs),
        "pearson": {
            "r": pe.statistic,
            "p_value": pe.p_value,
            "reference_p": REFERENCE["pearson_p"],
            "within_0.03": abs(pe.p_value - REFERENCE["pearson_p"]) <= 0.03,
        },
        "spearman": {
            "r": sp.statistic,
            "p_value": sp.p_value,
            "reference_p": REFERENCE["spearman_p"],
            "within_0.03": abs(sp.p_value - REFERENCE["spearman_p"]) <= 0.03,
        },
    }


def stats_report() -> dict:
    """Fisher, odds ratio, correlations, and tally conventions, each
    compared against its external reference value with an explicit
    agreement flag; disagreements are reported, never adjusted away."""
    quad = quadrant_counts()
    fisher = st.fisher_exact(quad)
    odds = st.odds_ratio(quad)
    fisher_p = float(fisher.p_value)
    ref_p = REFERENCE["fisher_p"]

    init_fracs = {
        r.number: float(rb.state_robustness_init_perturbation(r).fraction)
        for r in all_rules()
    }
    mut_all = {
        r.number: float(rb.state_robustness_rule_mutation(r, "all").fraction)
        for r in all_rules()
    }
    mut_two = {
        r.number: float(rb.state_robustness_rule_mutation(r, "two-input").fraction)
        for r in all_rules()
        if r.arity == 2
    }
    pool81 = sorted(mut_all)
    pool72 = sorted(mut_two)

    counts = class_transition_counts(variant("V1"), "five-class")
    preserving = sum(counts.matrix[i][i] for i in range(len(counts.labels)))

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
                [init_fracs[n] for n in pool81],
                [mut_all[n] for n in pool81],
            ),
            "two_input_restriction": _corr_block(
                "72 two-input rules; two-input mutation metric vs "
                "initial-state perturbation metric",
                [init_fracs[n] for n in pool72],
                [mut_two[n] for n in pool72],
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


def run_all(out_dir: str) -> dict:
    """Emit every document into ``out_dir`` and return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    files: dict[str, str] = {}

    def write(name: str, text: str):
        path = os.path.join(out_dir, name)
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        files[name] = hashlib.sha256(data).hexdigest()

    for table_id in TABLE_IDS:
        write(f"table_{table_id.lower()}.csv", emit_table(table_id, "csv"))

    graph = build_rule_graph(include_robustness=True)
    for fmt, ext in (("dot", "dot"), ("csv", "csv"), ("json", "json")):
        write(f"rulespace.{ext}", export_graph(graph, fmt))

    dists = {}
    for targets in ("two-input", "all"):
        hist = rb.robustness_distribution("state-vs-rule-mutation", targets)
        dists[targets] = {
            "edges": [_fmt_fraction(e) for e in hist.edges],
            "counts": list(hist.counts),
            "rules_per_bin": [list(b) for b in hist.rules_per_bin],
        }
    write("robustness_distributions.json",
          json.dumps(dists, indent=2, sort_keys=True) + "\n")

    write("stats_report.json",
          json.dumps(stats_report(), indent=2, sort_keys=True) + "\n")

    manifest = {"file_count": len(files), "files": dict(sorted(files.items()))}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
