"""Acceptance criteria, one test per criterion.

Each test prints a single line ``criterion NN: PASS|FAIL - summary``
(visible with ``pytest -v -s`` and in captured output on failure), and
enforces the criterion at its stated tolerance.  Reference-value
comparisons that the criteria designate as report-not-force are
asserted to be present and flagged in the statistics report rather
than coerced to agree.
"""

import itertools
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import conftest

from mpnspace import (
    all_rules,
    attractor_set,
    charpoly_from_cycles,
    charpoly_oracle,
    class_robustness,
    class_transition_counts,
    classify,
    edge_of_chaos,
    fisher_exact,
    gate_pair,
    gauge,
    is_permutation_matrix,
    is_row_stochastic_01,
    neighbors,
    reduce_rules,
    robustness_distribution,
    rule_from_number,
    sign_predicates,
    spectrum,
    state_robustness_init_perturbation,
    state_robustness_rule_mutation,
    step,
    step_async,
    superstable_rules,
    t12,
    transition_matrix,
    variant,
)
from mpnspace.report import build_t4, run_all, stats_report
from oracles import functional_graph_attractors, sweep
from reference_tables import (
    GATE_TABLE_V1,
    T12_GAUGE_REPRESENTATIVES,
    T12_REPRESENTATIVES,
    t1_expected,
    ta1_expected,
    ta2_expected,
)

ALL = all_rules()
SYNC_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")


def _emit(line: str) -> None:
    print(line)
    conftest.CRITERION_LINES.append(line)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        _emit(f"criterion {num:02d}: FAIL - {summary}")
        raise
    _emit(f"criterion {num:02d}: PASS - {summary}")


def test_criterion_01_two_input_dynamics_table():
    with criterion(1, "39 two-input representatives, all 13 columns exact"):
        expected = t1_expected()
        assert sorted(expected) == list(T12_REPRESENTATIVES)
        for n, exp in expected.items():
            r = rule_from_number(n)
            assert (t12(r).number, gauge(r).number, t12(gauge(r)).number) == (
                int(exp["t12"]), int(exp["gauge"]), int(exp["t12_gauge"]))
            assert classify(r, variant("V1")).label == exp["v1"]
            for tag in ("V2", "V3"):
                assert classify(r, variant(tag)).label == exp["v2_v3"]
                assert classify(r, variant(tag, "x-first")).label == exp["v2_v3_seq"]
                assert classify(r, variant(tag, "y-first")).label == exp["v2_v3_seq"]
            for tag in ("V4", "V7"):
                assert classify(r, variant(tag)).label == exp["v4_v7"]
                assert classify(r, variant(tag, "x-first")).label == exp["v4_seq"]
            assert classify(r, variant("V1", "x-first")).label == exp["v1_seq"]
            assert classify(r, variant("V1", "y-first")).label == exp["v1_seq"]
            assert classify(r, variant("V5")).label == exp["v5"]
            assert classify(r, variant("V6")).label == exp["v6"]
            assert classify(r, variant("V5", "x-first")).label == exp["v5_seq"]
            assert classify(r, variant("V6", "x-first")).label == exp["v6_seq"]


def test_criterion_02_low_arity_dynamics_table():
    with criterion(2, "6 low-arity rules, every dynamics cell exact"):
        for n, exp in ta1_expected().items():
            r = rule_from_number(n)
            assert r.arity < 2
            assert (t12(r).number, gauge(r).number, t12(gauge(r)).number) == (
                int(exp["t12"]), int(exp["gauge"]), int(exp["t12_gauge"]))
            assert classify(r, variant("V1")).label == exp["v1"]
            assert classify(r, variant("V2")).label == exp["v2_v3"]
            assert classify(r, variant("V3")).label == exp["v2_v3"]
            assert classify(r, variant("V4")).label == exp["v4_v7"]
            assert classify(r, variant("V7")).label == exp["v4_v7"]
            assert classify(r, variant("V5")).label == exp["v5"]
            assert classify(r, variant("V6")).label == exp["v6"]


def test_criterion_03_equivalence_reduction():
    with criterion(3, "72 -> 39 swap classes, 72 -> 21 swap+flip classes"):
        pool = [r for r in ALL if r.arity == 2]
        swap = reduce_rules({"T12"}, pool)
        both = reduce_rules({"T12", "G"}, pool)
        assert len(swap) == 39
        assert len(both) == 21
        assert tuple(c.representative for c in both) == T12_GAUGE_REPRESENTATIVES


def test_criterion_04_variant_identities():
    with criterion(4, "V7==V4 stepwise, V2==V3 classes, epsilon forms, "
                      "order independence"):
        v4, v7 = variant("V4"), variant("V7")
        for r in ALL:
            for s in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert step(r, v4, s) == step(r, v7, s)
                for order in ("x-first", "y-first"):
                    assert step_async(r, v4, order, s) == step_async(
                        r, v7, order, s)
            assert classify(r, variant("V2")).label == classify(
                r, variant("V3")).label
        # The shifted-threshold forms, which only the oracle implements.
        for eps in (0.25, 0.5, 0.75):
            for tag in ("V2", "V3"):
                base = variant(tag)
                for r in ALL:
                    for s in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
                        assert step(r, base, s) == sweep(r.weights, tag, "synchronous", s, eps)
        violations = [
            (r.number, tag)
            for r in ALL for tag in SYNC_TAGS
            if classify(r, variant(tag, "x-first")).label
            != classify(r, variant(tag, "y-first")).label
        ]
        assert violations == [], f"order-dependent classes: {violations}"


def test_criterion_05_spectral_dictionary():
    with criterion(5, "transition matrix, charpoly routes, spectrum shapes"):
        assert transition_matrix(rule_from_number(8), variant("V1")) == (
            (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0))
        for r, tag in itertools.product(ALL, SYNC_TAGS):
            v = variant(tag)
            assert charpoly_oracle(transition_matrix(r, v)) == (
                charpoly_from_cycles(attractor_set(r, v)))
        four_cycle = Counter({Fraction(0): 1, Fraction(1, 4): 1,
                              Fraction(1, 2): 1, Fraction(3, 4): 1})
        mixed = Counter({Fraction(0): 3, Fraction(1, 2): 1})
        v1 = variant("V1")
        for r in ALL:
            label = classify(r, v1).label
            sp = spectrum(r, v1)
            if label == "4C":
                assert (sp.zero_count, Counter(sp.phases)) == (0, four_cycle)
            if label == "M":
                assert (sp.zero_count, Counter(sp.phases)) == (0, mixed)
        double_pair = Counter({Fraction(0): 2, Fraction(1, 2): 2})
        for n in (12, 18):
            sp = spectrum(rule_from_number(n), v1)
            assert (sp.zero_count, Counter(sp.phases)) == (0, double_pair)


def test_criterion_06_gates():
    with criterion(6, "gate tables exact, V1 gates canalize, no parity gate"):
        expected = ta2_expected()
        for n, per_variant in expected.items():
            r = rule_from_number(n)
            for tag, want in per_variant.items():
                gx, gy = gate_pair(r, variant(tag))
                assert (gx.name, gy.name) == want, (n, tag)
        v1 = variant("V1")
        for n, want in GATE_TABLE_V1.items():
            gx, gy = gate_pair(rule_from_number(n), v1)
            assert (gx.name, gy.name) == want, n
        for r in ALL:
            for g in gate_pair(r, v1):
                assert g.name in ("F", "T", "x", "y", "notx", "noty"), r.number
            for tag in SYNC_TAGS:
                for g in gate_pair(r, variant(tag)):
                    assert g.name not in ("XOR", "NXOR"), (r.number, tag)


def test_criterion_07_class_transition_tables():
    with criterion(7, "count matrices exact; 76-of-168 flagged, not forced"):
        five = class_transition_counts(variant("V1"), "five-class")
        assert [list(row) for row in five.matrix] == [
            [24, 16, 0, 4, 0],
            [16, 40, 8, 12, 8],
            [0, 8, 8, 4, 0],
            [4, 12, 4, 24, 4],
            [0, 8, 0, 4, 8],
        ]
        assert list(five.row_sums) == [44, 84, 20, 48, 20]
        assert list(five.diagonal) == [24, 40, 8, 24, 8]
        three = class_transition_counts(variant("V1"), "three-class")
        assert [list(row) for row in three.matrix] == [
            [96, 24, 8],
            [24, 40, 4],
            [8, 4, 8],
        ]
        assert list(three.row_sums) == [128, 68, 20]
        assert list(three.diagonal) == [96, 40, 8]
        # the sentence-level tally uses a different convention; it must
        # be carried in the statistics report as a flagged alternative
        transitions = stats_report()["class_transitions"]
        assert transitions["two_input_preserving"] == 76
        assert transitions["two_input_total"] == 168
        assert transitions["matrix_preserving"] == 104
        assert transitions["note"]


def test_criterion_08_edge_of_chaos():
    with criterion(8, "16 of 44 fixed-point rules border a 4-cycle rule"):
        rules = edge_of_chaos()
        numbers = sorted(r.number for r in rules)
        v1 = variant("V1")
        fixed = [r for r in ALL if r.arity == 2
                 and classify(r, v1).label in ("F2", "F4")]
        assert len(fixed) == 44
        assert len(numbers) == 16
        assert {5, 9, 32, 36} <= set(numbers)
        for start in (5, 9):
            r = rule_from_number(start)
            target = [m for m in neighbors(r) if m.number == 8]
            assert target and classify(target[0], v1).label == "4C"


def test_criterion_09_robustness():
    with criterion(9, "headline scores, 15/21/16/11/9 bins, superstable set, "
                      "count-table cells, swap invariance"):
        mut = {r.number: state_robustness_rule_mutation(r, "two-input").fraction
               for r in ALL if r.arity == 2}
        assert mut[25] == Fraction(3, 8)
        assert mut[16] == Fraction(1, 2) and mut[22] == Fraction(1, 2)
        for n in (9, 72, 73, 78):
            assert mut[n] == Fraction(15, 16)
        hist = robustness_distribution("two-input")
        assert list(hist.counts) == [15, 21, 16, 11, 9]
        assert superstable_rules() == (9, 51, 53, 54, 71, 72, 73, 78, 80)
        t4 = build_t4()
        cells = {row[0]: [int(c) for c in row[1:6]] for row in t4.rows}
        assert cells["fixed_point"] == [4, 11, 12, 10, 11]
        assert cells["cycle2_or_mixed"] == [9, 7, 4, 4, 1]
        assert cells["cycle4"] == [4, 0, 4, 0, 0]
        assert cells["total"] == [17, 18, 20, 14, 12]
        for r in ALL:
            s = t12(r)
            assert class_robustness(r).fraction == class_robustness(s).fraction
            assert (state_robustness_rule_mutation(r, "all").fraction
                    == state_robustness_rule_mutation(s, "all").fraction)
            assert (state_robustness_init_perturbation(r).fraction
                    == state_robustness_init_perturbation(s).fraction)
        for n, f in mut.items():
            assert f == mut[t12(rule_from_number(n)).number]


def test_criterion_10_statistics():
    with criterion(10, "Fisher exact within 5%, correlation p-values within "
                       "0.03 on the dataset matching the references, 72-rule "
                       "restriction reported as discrepant"):
        oracle = fisher_exact(((5, 0), (0, 5)))
        assert oracle.p_value == Fraction(2, 252)
        quad = fisher_exact(((27, 21), (28, 5)))
        assert abs(float(quad.p_value) - 0.00797) / 0.00797 <= 0.05
        sr = stats_report()
        primary = sr["correlations"]["primary"]
        assert abs(primary["pearson"]["p_value"] - 0.13) <= 0.03
        assert abs(primary["spearman"]["p_value"] - 0.06) <= 0.03
        # the reference p-values are met only by the 81-rule all-neighbor
        # dataset; the literal 72-rule restriction misses the Pearson
        # tolerance and must be carried as a flagged discrepancy
        restricted = sr["correlations"]["two_input_restriction"]
        assert restricted["n"] == 72
        _emit(
            "    72-rule restriction: pearson p="
            f"{restricted['pearson']['p_value']:.4f}, spearman p="
            f"{restricted['spearman']['p_value']:.4f} (references 0.13/0.06)"
        )
        assert restricted["pearson"]["within_0.03"] is False
        assert sr["correlations"]["note"]


def test_criterion_11_property_suite():
    with criterion(11, "oracle equivalence, bounded transients, matrix "
                       "properties, weight-sign implications"):
        from mpnspace import successor_indices
        for r, tag in itertools.product(ALL, SYNC_TAGS):
            v = variant(tag)
            aset = attractor_set(r, v)
            succ = successor_indices(r, v)
            cycles, basin, steps = functional_graph_attractors(
                lambda i: succ[i])
            assert aset.attractors == cycles
            assert aset.basin == basin
            assert aset.steps_to_attractor == steps
            assert aset.max_transient <= 4
            T = transition_matrix(r, v)
            assert is_row_stochastic_01(T)
            assert is_permutation_matrix(T) == (aset.max_transient == 0)
        v1 = variant("V1")
        for r in ALL:
            if r.arity != 2:
                continue
            label = classify(r, v1).label
            preds = sign_predicates(r)
            if label == "M":
                assert preds.cross_positive, r.number
            if label == "4C":
                assert preds.cross_negative, r.number


def test_criterion_12_run_all_determinism(tmp_path):
    with criterion(12, "run_all twice gives byte-identical manifests"):
        first = run_all(str(tmp_path / "a"))
        second = run_all(str(tmp_path / "b"))
        assert first == second
        assert first["file_count"] >= 10
