"""Rule numbering, stepping, attractors, and classification."""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mpnspace import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    all_rules,
    attractor_set,
    class_from_cycle_lengths,
    classify,
    rule_from_number,
    rule_to_number,
    state_from_index,
    state_index,
    states,
    step,
    step_async,
    step_function,
    successor_indices,
    variant,
)
from oracles import functional_graph_attractors
from reference_tables import t1_expected, ta1_expected

ALL = all_rules()
SYNC_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")


def test_rule_numbering_round_trip():
    for n in range(1, 82):
        r = rule_from_number(n)
        assert rule_to_number(r) == n
        assert Rule.from_number(n) == r
        assert r.number == n


def test_rule_numbering_is_base_three():
    assert rule_from_number(1).weights == (-1, -1, -1, -1)
    assert rule_from_number(41).weights == (0, 0, 0, 0)
    assert rule_from_number(81).weights == (1, 1, 1, 1)
    assert rule_from_number(8).weights == (-1, -1, 1, 0)


def test_rule_number_bounds():
    with pytest.raises(ValueError):
        rule_from_number(0)
    with pytest.raises(ValueError):
        rule_from_number(82)
    with pytest.raises(ValueError):
        Rule(2, 0, 0, 0)


def test_float_weight_rejected():
    with pytest.raises(ValueError):
        Rule(1.0, 0, 0, 0)


def test_bool_rule_number_rejected():
    with pytest.raises(ValueError):
        Rule.from_number(True)


def test_state_index_rejects_float_and_bool_values():
    with pytest.raises(ValueError):
        state_index(variant("V1"), (1.0, True))


def test_step_rejects_bool_state():
    with pytest.raises(ValueError):
        step(rule_from_number(5), variant("V4"), (True, False))


# Values that hash or compare like an allowed int but are not ints.
NON_INTS = hs.one_of(
    hs.booleans(), hs.floats(), hs.fractions(), hs.decimals(allow_nan=False),
    hs.integers(-1, 1).map(Decimal), hs.integers(-1, 1).map(Fraction),
    hs.integers(-1, 1).map(float), hs.text(max_size=2), hs.none(),
)


@settings(deadline=None, database=None)
@given(hs.integers(0, 3), NON_INTS)
def test_non_int_weight_is_rejected(position, value):
    weights = [0, 0, 0, 0]
    weights[position] = value
    with pytest.raises(ValueError):
        Rule(*weights)


@settings(deadline=None, database=None)
@given(hs.sampled_from(VARIANT_TAGS), hs.sampled_from(("synchronous", "x-first")),
       hs.integers(0, 1), NON_INTS)
def test_non_int_state_value_is_rejected(tag, mode, position, value):
    v = variant(tag)
    s = [v.low, v.high]
    s[position] = value
    s = tuple(s)
    with pytest.raises(ValueError):
        state_index(v, s)
    with pytest.raises(ValueError):
        if mode == "synchronous":
            step(rule_from_number(5), v, s)
        else:
            step_async(rule_from_number(5), v, mode, s)


def test_arity_census():
    counts = {0: 0, 1: 0, 2: 0}
    for r in ALL:
        counts[r.arity] += 1
    assert counts == {0: 1, 1: 8, 2: 72}
    assert rule_from_number(41).arity == 0
    assert sorted(r.number for r in ALL if r.arity < 2) == [
        13, 14, 15, 40, 41, 42, 67, 68, 69]


def test_variant_validation():
    with pytest.raises(ValueError):
        variant("V8")
    with pytest.raises(ValueError):
        variant("V1", epsilon=0.5)
    with pytest.raises(ValueError):
        variant("V2", epsilon=1.5)
    assert variant("v1").tag == "V1"
    assert variant("V2", "x-first").mode is UpdateMode.X_FIRST


def test_state_sets_per_variant():
    assert states(variant("V1")) == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    assert states(variant("V4")) == ((0, 0), (0, 1), (1, 0), (1, 1))
    v = variant("V1")
    for i in range(4):
        assert state_index(v, state_from_index(v, i)) == i


def test_increment_form_equals_hold_form_stepwise():
    v4 = variant("V4")
    v7 = variant("V7")
    for r in ALL:
        for s in states(v4):
            assert step(r, v4, s) == step(r, v7, s)
        for order in ("x-first", "y-first"):
            for s in states(v4):
                assert step_async(r, v4, order, s) == step_async(r, v7, order, s)


def test_force_high_and_force_low_classes_agree():
    for r in ALL:
        assert classify(r, variant("V2")).label == classify(r, variant("V3")).label


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.75])
def test_epsilon_shift_matches_zero_case_forms(eps):
    for tag in ("V2", "V3"):
        base = variant(tag)
        shifted = variant(tag, epsilon=eps)
        for r in ALL:
            for s in states(base):
                assert step(r, base, s) == step(r, shifted, s)


def test_sequential_classes_are_order_independent():
    for r in ALL:
        for tag in SYNC_TAGS:
            cx = classify(r, variant(tag, "x-first")).label
            cy = classify(r, variant(tag, "y-first")).label
            assert cx == cy, (r.number, tag)


def test_sequential_step_updates_second_node_with_fresh_value():
    # Rule 8 under V1: from (1, 1), x sees -x - y = -2 -> -1; y then
    # sees the fresh x, so y' = sign(-1) = -1 under x-first but
    # sign(+1) = 1 under y-first ordering.
    r = rule_from_number(8)
    v = variant("V1")
    assert step_async(r, v, "x-first", (1, 1)) == (-1, -1)
    assert step_async(r, v, "y-first", (1, 1)) == (-1, 1)


def test_attractor_set_matches_functional_graph_oracle():
    modes = [UpdateMode.SYNCHRONOUS, UpdateMode.X_FIRST, UpdateMode.Y_FIRST]
    for r, tag, mode in itertools.product(ALL, SYNC_TAGS, modes):
        v = variant(tag, mode)
        aset = attractor_set(r, v)
        succ = successor_indices(r, v)
        cycles, basin, steps = functional_graph_attractors(lambda i: succ[i])
        assert aset.attractors == cycles, (r.number, tag, mode)
        assert aset.basin == basin
        assert aset.steps_to_attractor == steps


def test_transients_never_exceed_bound():
    for r, tag in itertools.product(ALL, SYNC_TAGS):
        assert attractor_set(r, variant(tag)).max_transient <= 4


def test_class_labels_from_cycle_lengths():
    assert class_from_cycle_lengths((1,)).label == "F1"
    assert class_from_cycle_lengths((1, 1, 1, 1)).label == "F4"
    assert class_from_cycle_lengths((2,)).label == "2C"
    assert class_from_cycle_lengths((2, 2)).label == "2C"
    assert class_from_cycle_lengths((4,)).label == "4C"
    assert class_from_cycle_lengths((3,)).label == "3C"
    assert class_from_cycle_lengths((1, 2)).label == "M"
    assert class_from_cycle_lengths((1, 1, 2)).label == "M"
    odd = class_from_cycle_lengths((1, 3))
    assert odd.label == "1+3" and not odd.in_taxonomy
    assert class_from_cycle_lengths((4,)).in_taxonomy


def test_spot_attractors():
    r8 = rule_from_number(8)
    aset = attractor_set(r8, variant("V1"))
    assert aset.attractors == ((0, 2, 3, 1),)
    assert aset.max_transient == 0
    r39 = rule_from_number(39)
    aset = attractor_set(r39, variant("V1"))
    assert aset.attractors == ((0,), (1,), (2,), (3,))


def test_v1_class_census_over_81():
    census: dict[str, int] = {}
    for r in ALL:
        lab = classify(r, variant("V1")).label
        census[lab] = census.get(lab, 0) + 1
    assert census == {"F4": 16, "F2": 32, "M": 8, "2C": 17, "4C": 8}


@pytest.mark.parametrize("number,expected", sorted(t1_expected().items()))
def test_two_input_representative_dynamics(number, expected):
    r = rule_from_number(number)
    assert r.weights == expected["weights"]
    got = {
        "v1": classify(r, variant("V1")).label,
        "v2_v3": classify(r, variant("V2")).label,
        "v1_seq": classify(r, variant("V1", "x-first")).label,
        "v2_v3_seq": classify(r, variant("V2", "x-first")).label,
        "v4_v7": classify(r, variant("V4")).label,
        "v5": classify(r, variant("V5")).label,
        "v6": classify(r, variant("V6")).label,
        "v4_seq": classify(r, variant("V4", "x-first")).label,
        "v5_seq": classify(r, variant("V5", "x-first")).label,
        "v6_seq": classify(r, variant("V6", "x-first")).label,
    }
    for key, want in got.items():
        assert want == expected[key], (number, key)
    # merged columns hold for both named variants
    assert classify(r, variant("V3")).label == expected["v2_v3"]
    assert classify(r, variant("V7")).label == expected["v4_v7"]
    assert classify(r, variant("V3", "x-first")).label == expected["v2_v3_seq"]
    assert classify(r, variant("V7", "x-first")).label == expected["v4_seq"]


@pytest.mark.parametrize("number,expected", sorted(ta1_expected().items()))
def test_low_arity_representative_dynamics(number, expected):
    r = rule_from_number(number)
    assert r.weights == expected["weights"]
    assert classify(r, variant("V1")).label == expected["v1"]
    assert classify(r, variant("V2")).label == expected["v2_v3"]
    assert classify(r, variant("V3")).label == expected["v2_v3"]
    assert classify(r, variant("V4")).label == expected["v4_v7"]
    assert classify(r, variant("V7")).label == expected["v4_v7"]
    assert classify(r, variant("V5")).label == expected["v5"]
    assert classify(r, variant("V6")).label == expected["v6"]


def test_step_function_matches_step():
    for r in (rule_from_number(n) for n in (1, 8, 39, 41, 81)):
        for tag in SYNC_TAGS:
            for mode in ("synchronous", "x-first", "y-first"):
                v = variant(tag, mode)
                f = step_function(r, v)
                for s in states(v):
                    if mode == "synchronous":
                        assert f(s) == step(r, v, s)
                    else:
                        assert f(s) == step_async(r, v, mode, s)
