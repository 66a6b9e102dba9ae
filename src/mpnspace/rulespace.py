"""The Hamming-1 mutation graph on the 81 rules.

Two rules are neighbors when exactly one weight differs by exactly 1,
so -1 and +1 are never adjacent and a rule's degree is 4 plus its
number of zero weights (between 4 and 8).  On top of the graph sit the
class-transition tallies, edge-of-chaos detection, and deterministic
DOT/CSV/JSON exports carrying per-rule attributes.

Transition tallies follow the convention that reproduces the published
count matrix: every ordered neighbor pair over all 81 rules is tallied
by the dynamics-class labels of its two endpoints (rules with fewer
than two effective inputs enter under their own labels), and the tally
is halved so each unordered pair counts once.  The halving is exact
because the node-swap symmetry pairs up the ordered tallies and never
fixes an adjacent ordered pair.  A sidecar records the alternative
tally restricted to edges between two-input rules, which is what the
headline "fraction of mutations preserving the class" figure uses.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .dynamics import VARIANT_TAGS, Rule, Variant, all_rules, classify, variant

FIVE_CLASS_ORDER = ("F4", "F2", "M", "2C", "4C")
THREE_CLASS_ORDER = ("F", "2C+M", "4C")


def neighbors(rule: Rule) -> tuple[Rule, ...]:
    """All rules at Hamming distance 1, ascending by number."""
    return _neighbors(rule)


@functools.cache
def _neighbors(rule: Rule) -> tuple[Rule, ...]:
    out = []
    w = list(rule.weights)
    for i in range(4):
        for delta in (-1, 1):
            nv = w[i] + delta
            if -1 <= nv <= 1:
                w2 = w.copy()
                w2[i] = nv
                out.append(Rule(*w2))
    return tuple(sorted(out, key=lambda r: r.number))


def degree(rule: Rule) -> int:
    """4 plus the number of zero weights."""
    return 4 + sum(1 for w in rule.weights if w == 0)


@dataclass(frozen=True)
class TransitionCounts:
    """Class-transition count matrix plus the sidecar tallies."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    # Sidecar: the alternative convention restricted to two-input rules.
    two_input_edges: int
    two_input_preserving: int
    low_arity_edges: int

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.matrix)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.matrix[i][i] for i in range(len(self.labels)))

    @property
    def total(self) -> int:
        return sum(self.row_sums)


def _three_class_group(label: str) -> str:
    if label.startswith("F"):
        return "F"
    if label in ("M", "2C"):
        return "2C+M"
    return label


def class_transition_counts(v: Variant | None = None,
                            grouping: str = "five-class") -> TransitionCounts:
    """Tally neighbor pairs by the dynamics classes of their endpoints.

    ``grouping`` is "five-class" (per-label identity) or "three-class"
    (all-fixed-point labels merged as F, the 2C and M labels merged).
    """
    if grouping not in ("five-class", "three-class"):
        raise ValueError(f"unknown grouping {grouping!r}")
    if v is None:
        v = variant("V1")
    label_of = {r.number: classify(r, v).label for r in all_rules()}
    if grouping == "three-class":
        label_of = {n: _three_class_group(lab) for n, lab in label_of.items()}
        base_order = THREE_CLASS_ORDER
    else:
        base_order = FIVE_CLASS_ORDER
    observed = set(label_of.values())
    labels = tuple(lab for lab in base_order if lab in observed) + tuple(
        sorted(observed - set(base_order))
    )
    index = {lab: i for i, lab in enumerate(labels)}

    directed = [[0] * len(labels) for _ in labels]
    two_input_edges = 0
    two_input_preserving = 0
    low_arity_edges = 0
    for r in all_rules():
        for nb in neighbors(r):
            directed[index[label_of[r.number]]][index[label_of[nb.number]]] += 1
            if nb.number > r.number:  # each undirected edge once
                if r.arity == 2 and nb.arity == 2:
                    two_input_edges += 1
                    if label_of[r.number] == label_of[nb.number]:
                        two_input_preserving += 1
                else:
                    low_arity_edges += 1

    matrix = []
    for row in directed:
        if any(c % 2 for c in row):
            raise AssertionError("ordered tallies are not evenly paired")
        matrix.append(tuple(c // 2 for c in row))
    return TransitionCounts(
        labels=labels,
        matrix=tuple(matrix),
        two_input_edges=two_input_edges,
        two_input_preserving=two_input_preserving,
        low_arity_edges=low_arity_edges,
    )


def edge_of_chaos(v: Variant | None = None) -> tuple[Rule, ...]:
    """Two-input rules with all-fixed-point dynamics sitting one
    mutation away from a rule whose every trajectory is a 4-cycle."""
    if v is None:
        v = variant("V1")
    label_of = {r.number: classify(r, v) for r in all_rules()}
    out = []
    for r in all_rules():
        if r.arity != 2:
            continue
        cls = label_of[r.number]
        if set(cls.cycle_lengths) != {1}:
            continue
        if any(label_of[nb.number].label == "4C" for nb in neighbors(r)):
            out.append(r)
    return tuple(out)


@dataclass
class RuleGraph:
    """The 81-node mutation graph with per-rule attributes.

    ``nodes`` maps rule number to its attribute dict (arity, dynamics
    class per synchronous variant, and the three robustness fractions
    when requested); ``edges`` lists each undirected edge once as
    (smaller, larger).
    """

    nodes: dict[int, dict] = field(default_factory=dict)
    edges: tuple[tuple[int, int], ...] = ()


def build_rule_graph(include_robustness: bool = True) -> RuleGraph:
    from . import robustness as _robustness  # deferred: robustness uses neighbors()

    variants = [variant(tag) for tag in VARIANT_TAGS]
    nodes = {}
    for r in all_rules():
        attrs = {
            "arity": r.arity,
            "classes": {v.tag: classify(r, v).label for v in variants},
        }
        if include_robustness:
            attrs["robustness"] = {
                "class_vs_rule_mutation": str(_robustness.class_robustness(r).fraction),
                "state_vs_rule_mutation": str(
                    _robustness.state_robustness_rule_mutation(r).fraction
                ),
                "state_vs_init_perturbation": str(
                    _robustness.state_robustness_init_perturbation(r).fraction
                ),
            }
        nodes[r.number] = attrs
    edges = sorted(
        (r.number, nb.number)
        for r in all_rules()
        for nb in neighbors(r)
        if nb.number > r.number
    )
    return RuleGraph(nodes=nodes, edges=tuple(edges))


def _dot_escape(s: str) -> str:
    return s.replace('"', '\\"')


def export_graph(graph: RuleGraph, fmt: str) -> str:
    """Serialize the rule graph deterministically as dot, csv, or json."""
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
        doc = {
            "nodes": [
                {"rule": n, **graph.nodes[n]} for n in sorted(graph.nodes)
            ],
            "edges": [list(e) for e in graph.edges],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")


def graph_from_csv(doc: str, include_robustness: bool = True) -> RuleGraph:
    """Rebuild a rule graph from a csv edge list.

    Node attributes are recomputed (they are pure functions of the rule
    number), so a parsed graph compares equal to the one exported.
    """
    lines = [ln for ln in doc.strip().splitlines() if ln]
    if not lines or lines[0] != "source,target":
        raise ValueError("csv edge list must start with a source,target header")
    edges = []
    for ln in lines[1:]:
        u, w = ln.split(",")
        edges.append((int(u), int(w)))
    rebuilt = build_rule_graph(include_robustness=include_robustness)
    if tuple(sorted(edges)) != rebuilt.edges:
        raise ValueError("edge list does not match the rule-space adjacency")
    return rebuilt
