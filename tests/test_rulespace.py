"""The 81-node rule graph: adjacency, class transitions, graph export."""

from fractions import Fraction

import pytest

from mpnspace import (
    FIVE_CLASS_ORDER,
    THREE_CLASS_ORDER,
    all_rules,
    build_rule_graph,
    class_transition_counts,
    classify,
    degree,
    edge_of_chaos,
    export_graph,
    graph_from_csv,
    neighbors,
    rule_from_number,
    variant,
)

ALL = all_rules()

T3A_EXPECTED = {
    "F4": [24, 16, 0, 4, 0],
    "F2": [16, 40, 8, 12, 8],
    "M": [0, 8, 8, 4, 0],
    "2C": [4, 12, 4, 24, 4],
    "4C": [0, 8, 0, 4, 8],
}
T3B_EXPECTED = {
    "F": [96, 24, 8],
    "2C+M": [24, 40, 4],
    "4C": [8, 4, 8],
}


def test_degree_formula():
    for r in ALL:
        zeros = sum(1 for w in r.weights if w == 0)
        assert degree(r) == 4 + zeros == len(neighbors(r))
    assert degree(rule_from_number(41)) == 8
    assert degree(rule_from_number(1)) == 4


def test_neighbor_relation_is_symmetric_single_step():
    for r in ALL:
        for m in neighbors(r):
            diffs = [abs(a - b) for a, b in zip(r.weights, m.weights)]
            assert sorted(diffs) == [0, 0, 0, 1]
            assert r in neighbors(m)


def test_no_edge_between_opposite_signs():
    for r in ALL:
        for m in neighbors(r):
            for a, b in zip(r.weights, m.weights):
                assert not (a == -1 and b == 1) and not (a == 1 and b == -1)


def test_graph_has_216_undirected_edges():
    edges = {
        tuple(sorted((r.number, m.number)))
        for r in ALL
        for m in neighbors(r)
    }
    assert len(edges) == 216
    assert sum(degree(r) for r in ALL) == 2 * 216


def test_five_class_transition_matrix():
    counts = class_transition_counts(variant("V1"), "five-class")
    assert counts.labels == FIVE_CLASS_ORDER
    by_label = dict(zip(counts.labels, counts.matrix))
    for label, row in T3A_EXPECTED.items():
        assert list(by_label[label]) == row, label
    assert list(counts.row_sums) == [44, 84, 20, 48, 20]
    assert list(counts.diagonal) == [24, 40, 8, 24, 8]
    assert counts.total == 216


def test_three_class_transition_matrix():
    counts = class_transition_counts(variant("V1"), "three-class")
    assert counts.labels == THREE_CLASS_ORDER
    by_label = dict(zip(counts.labels, counts.matrix))
    for label, row in T3B_EXPECTED.items():
        assert list(by_label[label]) == row, label
    assert list(counts.row_sums) == [128, 68, 20]
    assert list(counts.diagonal) == [96, 40, 8]


def test_transition_matrix_is_symmetric():
    counts = class_transition_counts(variant("V1"), "five-class")
    n = len(counts.labels)
    for i in range(n):
        for j in range(n):
            assert counts.matrix[i][j] == counts.matrix[j][i]


def test_two_input_edge_tally_differs_from_matrix_convention():
    counts = class_transition_counts(variant("V1"), "five-class")
    assert counts.two_input_edges == 168
    assert counts.two_input_preserving == 76
    assert counts.low_arity_edges == 48
    assert counts.two_input_edges + counts.low_arity_edges == 216
    # the matrix convention counts 104 preserving pairs of 216; the
    # two-input-only tally is a genuinely different number
    assert sum(counts.diagonal) == 104
    assert counts.two_input_preserving != sum(counts.diagonal)


def test_unknown_grouping_rejected():
    with pytest.raises(ValueError):
        class_transition_counts(variant("V1"), "seven-class")


def test_edge_of_chaos_set():
    rules = edge_of_chaos()
    numbers = sorted(r.number for r in rules)
    assert numbers == [5, 9, 21, 23, 32, 36, 37, 38, 43, 44, 48, 50, 61, 62, 73, 74]
    fixed_point_two_input = [
        r for r in ALL
        if r.arity == 2 and classify(r, variant("V1")).label in ("F2", "F4")
    ]
    assert len(fixed_point_two_input) == 44
    assert {5, 9, 32, 36} <= set(numbers)


def test_edge_of_chaos_witnesses():
    v1 = variant("V1")
    for start in (5, 9):
        r = rule_from_number(start)
        mutants = [m for m in neighbors(r) if m.number == 8]
        assert len(mutants) == 1
        assert classify(mutants[0], v1).label == "4C"
        assert classify(r, v1).label == "F2"


def test_rule_graph_nodes_and_annotations():
    graph = build_rule_graph(include_robustness=True)
    assert len(graph.nodes) == 81
    assert len(graph.edges) == 216
    node8 = graph.nodes[8]
    assert node8["classes"]["V1"] == "4C"
    assert node8["arity"] == 2
    for value in node8["robustness"].values():
        assert 0 <= Fraction(value) <= 1


def test_graph_export_formats_are_deterministic():
    graph = build_rule_graph()
    for fmt in ("dot", "csv", "json"):
        assert export_graph(graph, fmt) == export_graph(graph, fmt)
    dot = export_graph(graph, "dot")
    assert dot.startswith("graph rulespace {") or "rulespace" in dot.splitlines()[0]
    with pytest.raises(ValueError):
        export_graph(graph, "gexf")


def test_graph_csv_round_trip():
    graph = build_rule_graph()
    doc = export_graph(graph, "csv")
    rebuilt = graph_from_csv(doc)
    assert {tuple(sorted(e)) for e in rebuilt.edges} == {
        tuple(sorted(e)) for e in graph.edges}


def test_graph_from_empty_csv_rejected():
    with pytest.raises(ValueError):
        graph_from_csv("")
