"""Robustness metrics, distributions, and their conventions."""

import statistics
from fractions import Fraction

import pytest

from mpnspace import (
    ALL_TARGET_BIN_EDGES,
    MUTATION_TARGET_CHOICES,
    TWO_INPUT_BIN_EDGES,
    all_rules,
    class_robustness,
    classify,
    neighbors,
    robustness_distribution,
    rule_from_number,
    score,
    state_robustness_init_perturbation,
    state_robustness_rule_mutation,
    superstable_rules,
    t12,
    variant,
)
from reference_tables import (
    LOW_ARITY_REPRESENTATIVES,
    T12_REPRESENTATIVES,
)

ALL = all_rules()


def test_class_robustness_counts_like_minded_neighbors():
    r39 = rule_from_number(39)
    v1 = variant("V1")
    same = sum(
        1 for m in neighbors(r39)
        if classify(m, v1).label == classify(r39, v1).label
    )
    sc = class_robustness(r39)
    assert sc.numerator == same
    assert sc.denominator == len(neighbors(r39))


def test_headline_mutation_scores():
    assert state_robustness_rule_mutation(
        rule_from_number(25), "two-input").fraction == Fraction(3, 8)
    for n in (16, 22):
        assert state_robustness_rule_mutation(
            rule_from_number(n), "two-input").fraction == Fraction(1, 2)
    for n in (9, 72, 73, 78):
        assert state_robustness_rule_mutation(
            rule_from_number(n), "two-input").fraction == Fraction(15, 16)


def test_mutation_score_denominators():
    for r in ALL:
        two = state_robustness_rule_mutation(r, "two-input")
        full = state_robustness_rule_mutation(r, "all")
        eligible = [m for m in neighbors(r) if m.arity == 2]
        assert two.denominator == 4 * len(eligible)
        assert full.denominator == 4 * len(neighbors(r))
        assert 0 <= two.fraction <= 1
        assert 0 <= full.fraction <= 1


def test_init_perturbation_extremes():
    assert state_robustness_init_perturbation(
        rule_from_number(39)).fraction == 0
    assert state_robustness_init_perturbation(
        rule_from_number(1)).fraction == 1
    for r in ALL:
        sc = state_robustness_init_perturbation(r)
        assert sc.denominator == 4


def test_all_metrics_invariant_under_node_swap():
    for r in ALL:
        s = t12(r)
        assert class_robustness(r).fraction == class_robustness(s).fraction
        assert (state_robustness_rule_mutation(r, "two-input").fraction
                == state_robustness_rule_mutation(s, "two-input").fraction)
        assert (state_robustness_rule_mutation(r, "all").fraction
                == state_robustness_rule_mutation(s, "all").fraction)
        assert (state_robustness_init_perturbation(r).fraction
                == state_robustness_init_perturbation(s).fraction)


def test_two_input_distribution_bins():
    hist = robustness_distribution("two-input")
    assert hist.edges == TWO_INPUT_BIN_EDGES
    assert list(hist.counts) == [15, 21, 16, 11, 9]
    assert sum(hist.counts) == 72


def test_all_neighbor_distribution_bins():
    hist = robustness_distribution("all")
    assert hist.edges == ALL_TARGET_BIN_EDGES
    assert list(hist.counts) == [17, 18, 20, 14, 12]
    assert sum(hist.counts) == 81


def test_superstable_set():
    assert superstable_rules() == (9, 51, 53, 54, 71, 72, 73, 78, 80)
    for n in superstable_rules():
        assert state_robustness_rule_mutation(
            rule_from_number(n), "two-input").fraction >= Fraction(9, 10)


def test_distribution_rejects_unknown_targets():
    with pytest.raises(ValueError, match="targets must be one of"):
        robustness_distribution("sideways")


@pytest.mark.parametrize("rule", [8, None, (-1, -1, 1, 0)], ids=repr)
@pytest.mark.parametrize("targets", MUTATION_TARGET_CHOICES)
def test_mutation_robustness_rejects_a_non_rule(rule, targets):
    with pytest.raises(ValueError, match="mutation robustness needs a Rule"):
        state_robustness_rule_mutation(rule, targets)


def test_score_dispatch():
    r = rule_from_number(25)
    assert score(r, "class-vs-rule-mutation").metric == "class-vs-rule-mutation"
    assert score(r, "state-vs-rule-mutation").fraction == Fraction(3, 8)
    assert score(r, "state-vs-init-perturbation").denominator == 4
    with pytest.raises(ValueError):
        score(r, "state-vs-weather")


@pytest.mark.parametrize("metric", ["class-vs-rule-mutation", "state-vs-init-perturbation"])
def test_score_rejects_invalid_targets_for_every_metric(metric):
    with pytest.raises(ValueError):
        score(rule_from_number(25), metric, "bogus")


def _median_by_group(metric_value, group):
    v1 = variant("V1")
    reps = T12_REPRESENTATIVES + LOW_ARITY_REPRESENTATIVES

    def grp(label):
        if label.startswith("F"):
            return "fixed"
        if label in ("2C", "M"):
            return "cyc2"
        return "cyc4"

    values = [
        float(metric_value(rule_from_number(n)))
        for n in reps
        if grp(classify(rule_from_number(n), v1).label) == group
    ]
    return statistics.median(values)


def test_group_medians_over_45_representatives():
    cls_med = {
        g: _median_by_group(lambda r: class_robustness(r).fraction, g)
        for g in ("fixed", "cyc2", "cyc4")
    }
    assert cls_med["fixed"] > cls_med["cyc2"]
    assert cls_med["fixed"] > cls_med["cyc4"]

    mut_med = {
        g: _median_by_group(
            lambda r: state_robustness_rule_mutation(r, "two-input").fraction, g)
        for g in ("fixed", "cyc2", "cyc4")
    }
    assert mut_med["fixed"] > mut_med["cyc2"]
    assert mut_med["fixed"] > mut_med["cyc4"]

    init_med = {
        g: _median_by_group(
            lambda r: state_robustness_init_perturbation(r).fraction, g)
        for g in ("fixed", "cyc2", "cyc4")
    }
    assert init_med["fixed"] < init_med["cyc2"] < init_med["cyc4"]


def test_rules_per_bin_are_sorted_and_disjoint():
    hist = robustness_distribution("two-input")
    seen = set()
    for bucket in hist.rules_per_bin:
        assert list(bucket) == sorted(bucket)
        assert not (set(bucket) & seen)
        seen |= set(bucket)
    assert len(seen) == 72
