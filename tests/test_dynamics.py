"""Rule numbering, stepping, attractors, and classification."""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import mpnspace as mp
from mpnspace import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    Variant,
    all_rules,
    attractor_set,
    class_from_cycle_lengths,
    classify,
    rule_from_number,
    state_from_index,
    state_index,
    states,
    step,
    step_async,
    successor_indices,
    variant,
)
from mpnspace import dynamics
from oracles import functional_graph_attractors, joint_states, sweep
from reference_tables import t1_expected, ta1_expected

ALL = all_rules()
SYNC_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")


def test_rule_numbering_round_trip():
    for n in range(1, 82):
        r = rule_from_number(n)
        assert rule_from_number(n) is r
        assert r.number == n


def test_rule_numbering_is_base_three():
    assert rule_from_number(1).weights == (-1, -1, -1, -1)
    assert rule_from_number(41).weights == (0, 0, 0, 0)
    assert rule_from_number(81).weights == (1, 1, 1, 1)
    assert rule_from_number(8).weights == (-1, -1, 1, 0)


def test_rule_number_is_the_base_three_definition_on_all_81_weight_tuples():
    for weights in itertools.product((-1, 0, 1), repeat=4):
        digits = "".join(str(w + 1) for w in weights)
        assert dynamics._rule_number(weights) == 1 + int(digits, 3) == Rule(*weights).number


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
        rule_from_number(True)


def test_state_index_rejects_float_and_bool_values():
    with pytest.raises(ValueError):
        state_index(variant("V1"), (1.0, True))


def test_step_rejects_bool_state():
    with pytest.raises(ValueError):
        step(rule_from_number(5), variant("V4"), (True, False))


@pytest.mark.parametrize("index", [True, 2.0, "1"], ids=repr)
def test_state_from_index_rejects_non_int_index(index):
    with pytest.raises(ValueError):
        state_from_index(variant("V1"), index)


@pytest.mark.parametrize("v", [None, "V1", 8], ids=repr)
def test_state_helpers_reject_a_non_variant(v):
    for call in (lambda: states(v), lambda: state_index(v, (1, 1)),
                 lambda: state_from_index(v, 0)):
        with pytest.raises(ValueError, match="joint states need a variant"):
            call()


@pytest.mark.parametrize("lengths", [(), (0,), (1, -2), (1.0,), (5,), (3, 3), (1, 2, 2),
                                     (1, 1, 1, 1, 1), 5, 2.0, object(), None, "1", {1}],
                         ids=lambda x: "object()" if type(x) is object else repr(x))
def test_class_from_cycle_lengths_rejects_empty_or_non_positive(lengths):
    with pytest.raises(ValueError):
        class_from_cycle_lengths(lengths)


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
    s = list(states(v)[1])
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
    # A variant is its tag and mode; the shifted-threshold form has no
    # epsilon argument, so passing one is a signature error.
    for build in (variant, Variant):
        with pytest.raises(TypeError):
            build("V2", UpdateMode.SYNCHRONOUS, Fraction(1, 2))
        with pytest.raises(TypeError):
            build("V3", epsilon=0.5)
    assert Variant._fields == ("tag", "mode")
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
            expected = sweep(r.weights, "V4", "synchronous", s)
            assert sweep(r.weights, "V7", "synchronous", s) == expected
            assert step(r, v4, s) == step(r, v7, s) == expected
        for order in ("x-first", "y-first"):
            for s in states(v4):
                expected = sweep(r.weights, "V4", order, s)
                assert sweep(r.weights, "V7", order, s) == expected
                assert step_async(r, v4, order, s) == step_async(r, v7, order, s) == expected


def test_force_high_and_force_low_classes_agree():
    for r in ALL:
        assert classify(r, variant("V2")).label == classify(r, variant("V3")).label


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 2), 0.25, 0.5, 0.75, 0.999],
                         ids=str)
def test_epsilon_shift_matches_zero_case_forms(eps):
    """The shifted-threshold form of V2 and V3, which only the oracle
    implements, gives the library's successor state for every rule,
    mode and state."""
    for tag in ("V2", "V3"):
        for mode in UpdateMode:
            v = variant(tag, mode)
            sts = states(v)
            for r in ALL:
                succ = successor_indices(r, v)
                for i, s in enumerate(sts):
                    expected = sweep(r.weights, tag, mode.value, s)
                    assert sweep(r.weights, tag, mode.value, s, eps) == expected
                    assert sts[succ[i]] == expected, (r.number, tag, mode, s)


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
    assert sweep(r.weights, "V1", "x-first", (1, 1)) == (-1, -1)
    assert sweep(r.weights, "V1", "y-first", (1, 1)) == (-1, 1)


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_step_and_step_async_equal_the_oracle_sweep(tag):
    """Every rule, state and mode against ``oracles.sweep``; ``step`` is
    synchronous and ``step_async`` follows ``order``, whatever the
    variant's own mode."""
    for mode in UpdateMode:
        v = variant(tag, mode)
        assert states(v) == tuple(joint_states(tag))
        for r in ALL:
            for s in states(v):
                assert step(r, v, s) == sweep(r.weights, tag, "synchronous", s)
                for order in ("x-first", "y-first"):
                    expected = sweep(r.weights, tag, order, s)
                    assert step_async(r, v, order, s) == expected, (r.number, order, s)
                    assert step_async(r, v, UpdateMode(order), s) == expected


def assert_valid_calls_step_as_the_oracle(rule, v, eps):
    """Beside a rejected call, every valid state steps as the oracle does
    in the zero-case form (``eps`` None) or the shifted-threshold form."""
    for s in states(v):
        assert step(rule, v, s) == sweep(rule.weights, v.tag, "synchronous", s, eps)
        for order in ("x-first", "y-first"):
            assert step_async(rule, v, order, s) == sweep(rule.weights, v.tag, order, s, eps)


# Checked in this order: the order argument, then the state.
@pytest.mark.parametrize(("order", "state", "message"), [
    ("z-first", (2, 2), "'z-first' is not a valid UpdateMode"),
    ("synchronous", (2, 2), "order must be x-first or y-first"),
    (UpdateMode.SYNCHRONOUS, (1, 1), "order must be x-first or y-first"),
    ("x-first", (2, 2), "state (2, 2) is not valid under the {tag} value convention"),
    (UpdateMode.Y_FIRST, (True, 1), "state (True, 1) is not valid under the {tag} value convention"),
    ("y-first", [1, 1], "state [1, 1] is not valid under the {tag} value convention"),
])
@pytest.mark.parametrize("eps", [None, Fraction(1, 2)])
def test_step_async_validation_order_and_messages(order, state, message, eps):
    rule, v = rule_from_number(8), variant("V2", "x-first")
    with pytest.raises(ValueError) as excinfo:
        step_async(rule, v, order, state)
    assert str(excinfo.value) == message.format(tag="V2")
    assert_valid_calls_step_as_the_oracle(rule, v, eps)


@pytest.mark.parametrize("state", [(2, 2), (1.0, 1), (1,), (1, 1, 1), [1, 1], None], ids=repr)
@pytest.mark.parametrize("eps", [None, 0.5])
def test_step_validation_messages(state, eps):
    rule, v = rule_from_number(8), variant("V3", "y-first")
    with pytest.raises(ValueError) as excinfo:
        step(rule, v, state)
    assert str(excinfo.value) == f"state {state!r} is not valid under the V3 value convention"
    assert_valid_calls_step_as_the_oracle(rule, v, eps)


# Every entry that reads the record of one (rule, variant) key, and every
# entry that takes a rule, a variant or both, as a call on (rule, variant).
RECORD_ENTRIES = {
    "classify": mp.classify,
    "attractor_set": mp.attractor_set,
    "successor_indices": mp.successor_indices,
    "step": lambda r, v: mp.step(r, v, (1, 1)),
    "step_async": lambda r, v: mp.step_async(r, v, "x-first", (1, 1)),
    "gate_pair": mp.gate_pair,
    "spectrum": mp.spectrum,
    "transition_matrix": mp.transition_matrix,
    "class_robustness": mp.class_robustness,
    "emit_state_graph": mp.emit_state_graph,
    "class_transition_counts": lambda r, v: mp.class_transition_counts(v),
    "edge_of_chaos": lambda r, v: mp.edge_of_chaos(v),
    "t12": lambda r, v: mp.t12(r),
    "gauge": lambda r, v: mp.gauge(r),
    "sign_predicates": lambda r, v: mp.sign_predicates(r),
    # The rule joins a pool closed under G, reduced under the variant.
    "reduce_rules": lambda r, v: mp.reduce_rules({"G"}, (*mp.all_rules(), r), v),
}
VARIANT_ONLY = ("class_transition_counts", "edge_of_chaos")
RULE_ONLY = ("t12", "gauge", "sign_predicates")
# A variant of None means V1 for these.
DEFAULT_V1 = ("class_robustness", "reduce_rules", *VARIANT_ONLY)


@pytest.mark.parametrize(("name", "slot", "wrong"), [
    (name, slot, wrong) for name in RECORD_ENTRIES for slot in ("rule", "variant")
    for wrong in (None, "V1", 8)
    if not (slot == "rule" and name in VARIANT_ONLY)
    and not (slot == "variant" and name in RULE_ONLY)
    and not (slot == "variant" and wrong is None and name in DEFAULT_V1)
], ids=repr)
def test_a_wrong_record_type_is_a_value_error(name, slot, wrong):
    call, rule, v = RECORD_ENTRIES[name], rule_from_number(8), variant("V1")
    call(rule, v)
    with pytest.raises(ValueError):
        call(wrong, v) if slot == "rule" else call(rule, wrong)


# Entries that take one package record (or, for run_all, a path) in their
# first slot, with a valid argument and the malformed ones each must reject.
ONE_ARGUMENT_ENTRIES = [
    ("spectrum_from_cycles", mp.spectrum_from_cycles,
     lambda tmp: attractor_set(rule_from_number(8), variant("V1")),
     (None, "V1", 8, classify(rule_from_number(8), variant("V1")),
      mp.spectrum(rule_from_number(8), variant("V1")))),
    ("charpoly_from_cycles", mp.charpoly_from_cycles,
     lambda tmp: attractor_set(rule_from_number(8), variant("V1")),
     (None, "V1", 8, classify(rule_from_number(8), variant("V1")),
      mp.spectrum(rule_from_number(8), variant("V1")))),
    # An AttractorSet whose cycles hold more than four states, or whose attractors are no cycles.
    ("spectrum_from_cycles-malformed-set", mp.spectrum_from_cycles,
     lambda tmp: attractor_set(rule_from_number(8), variant("V1")),
     (mp.AttractorSet(((0, 1, 2, 3, 4),), {}, {}), mp.AttractorSet(5, {}, {}))),
    ("charpoly_from_cycles-malformed-set", mp.charpoly_from_cycles,
     lambda tmp: attractor_set(rule_from_number(8), variant("V1")),
     (mp.AttractorSet(((0, 1, 2, 3, 4),), {}, {}), mp.AttractorSet(5, {}, {}))),
    ("render_table", lambda doc: mp.render_table(doc, "csv"),
     lambda tmp: mp.build_table("T3A"), (None, "V1", 8, mp.RuleGraph())),
    ("export_graph", lambda graph: mp.export_graph(graph, "csv"),
     lambda tmp: mp.build_rule_graph(), (None, "V1", 8, mp.build_table("T3A"))),
    ("run_all", mp.run_all, lambda tmp: tmp, (None, 8, [1, 2], b"bundle")),
    ("reduce_rules", lambda rules: mp.reduce_rules({"T12"}, rules),
     lambda tmp: [rule_from_number(8), mp.t12(rule_from_number(8))], (5, 2.5, True)),
]


@pytest.mark.parametrize(("name", "call", "valid", "wrongs"), ONE_ARGUMENT_ENTRIES,
                         ids=[row[0] for row in ONE_ARGUMENT_ENTRIES])
def test_a_malformed_argument_is_a_value_error(name, call, valid, wrongs, tmp_path):
    call(valid(tmp_path))
    for wrong in wrongs:
        with pytest.raises(ValueError):
            call(wrong)


@pytest.mark.parametrize("order", [1, None, ["x-first"]], ids=repr)
@pytest.mark.parametrize("eps", [None, 0.5])
def test_step_async_rejects_an_order_that_is_not_a_mode(order, eps):
    rule, v = rule_from_number(8), variant("V2")
    with pytest.raises(ValueError) as excinfo:
        step_async(rule, v, order, (1, 1))
    assert str(excinfo.value) == f"mode must be an UpdateMode, got {order!r}"
    assert_valid_calls_step_as_the_oracle(rule, v, eps)


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
        cls = classify(r, v)
        assert str(cls) == cls.label


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


def _step_function(rule, v):
    """The one-step map on joint states implied by the variant's mode."""
    if v.mode is UpdateMode.SYNCHRONOUS:
        return lambda s: step(rule, v, s)
    return lambda s: step_async(rule, v, v.mode, s)


def test_step_function_matches_step():
    for r in (rule_from_number(n) for n in (1, 8, 39, 41, 81)):
        for tag in SYNC_TAGS:
            for mode in ("synchronous", "x-first", "y-first"):
                v = variant(tag, mode)
                f = _step_function(r, v)
                sts = states(v)
                for s, succ in zip(sts, successor_indices(r, v)):
                    if mode == "synchronous":
                        assert f(s) == step(r, v, s)
                    else:
                        assert f(s) == step_async(r, v, mode, s)
                    assert f(s) == sts[succ]
