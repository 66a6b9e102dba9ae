"""Per-node Boolean gate identification and canalization structure."""

import itertools

import pytest

from mpnspace import (
    GATE_NAMES,
    GATES_BY_NAME,
    UpdateMode,
    Variant,
    all_rules,
    classify,
    gate_pair,
    identify_gate,
    rule_from_number,
    sign_predicates,
    step,
    step_async,
    variant,
)
from reference_tables import (
    GATE_TABLE_V1,
    GATE_TABLE_V1_CLASS,
    ta2_expected,
)

ALL = all_rules()
GATE_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6")

ZERO_INPUT = {"F", "T"}
ONE_INPUT = {"x", "y", "notx", "noty"}


def test_gate_name_table_order():
    assert GATE_NAMES == (
        "F", "AND", "xANDnoty", "x", "notxANDy", "y", "XOR", "OR",
        "NOR", "NXOR", "noty", "yIMP", "notx", "xIMP", "NAND", "T",
    )


def test_identify_gate_round_trip():
    for name in GATE_NAMES:
        g = GATES_BY_NAME[name]
        assert identify_gate(g.truth).name == name


def test_identify_gate_rejects_bad_truth():
    with pytest.raises(ValueError):
        identify_gate((0, 1, 2, 0))
    with pytest.raises(ValueError):
        identify_gate((0, 1, 0))


@pytest.mark.parametrize("truth", [(True, 0, 0, 0), (1.0, 0, 0, 0), [1, 0, 0, 0]],
                         ids=["bool", "float", "list"])
def test_identify_gate_rejects_non_int_or_non_tuple_truth(truth):
    with pytest.raises(ValueError):
        identify_gate(truth)


def test_truth_table_convention():
    # rule 39 under V4 copies each node: x' = x has truth (0,0,1,1)
    # over inputs (0,0),(0,1),(1,0),(1,1)
    r = rule_from_number(39)
    assert tuple(g.truth for g in gate_pair(r, variant("V4"))) == ((0, 0, 1, 1), (0, 1, 0, 1))


@pytest.mark.parametrize("number,expected", sorted(ta2_expected().items()))
def test_gate_table_for_representatives(number, expected):
    r = rule_from_number(number)
    for tag in GATE_TAGS:
        gx, gy = gate_pair(r, variant(tag))
        assert (gx.name, gy.name) == expected[tag], (number, tag)


def test_v1_gate_assignments_for_all_39_swap_representatives():
    v1 = variant("V1")
    for number, want in sorted(GATE_TABLE_V1.items()):
        gx, gy = gate_pair(rule_from_number(number), v1)
        assert (gx.name, gy.name) == want, number


def test_v1_classes_for_gate_table_rules():
    v1 = variant("V1")
    for number, want in sorted(GATE_TABLE_V1_CLASS.items()):
        assert classify(rule_from_number(number), v1).label == want, number


def test_v1_gates_are_zero_or_one_input_for_all_81():
    v1 = variant("V1")
    for r in ALL:
        for g in gate_pair(r, v1):
            assert g.name in ZERO_INPUT | ONE_INPUT, r.number
            assert g.canalization in ("zero-input", "one-input")


def test_no_parity_gate_under_any_variant():
    for r, tag in itertools.product(ALL, GATE_TAGS + ("V7",)):
        for g in gate_pair(r, variant(tag)):
            assert g.name not in ("XOR", "NXOR"), (r.number, tag)


def test_sequential_gate_pair_builds_no_variant(monkeypatch):
    """Neither ``gate_pair`` nor ``step`` on a sequential variant, nor
    ``step_async``, builds a Variant once the shared ones exist."""
    rule, v = rule_from_number(8), variant("V2", "x-first")
    expected = gate_pair(rule, variant("V2"))
    stepped = step(rule, variant("V2"), (1, -1))
    swept = step_async(rule, variant("V2"), "y-first", (1, -1))
    # First use may build the shared sequential V2 variants.
    gate_pair(rule, v), step(rule, v, (1, -1)), step_async(rule, v, "y-first", (1, -1))
    built = []
    post_init = Variant.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Variant, "__post_init__", counted)
    assert gate_pair(rule, v) == expected
    assert step(rule, v, (1, -1)) == stepped
    assert step_async(rule, v, "y-first", (1, -1)) == swept
    assert step_async(rule, v, UpdateMode.Y_FIRST, (1, -1)) == swept
    assert built == []


def test_canalization_tiers():
    assert GATES_BY_NAME["F"].canalization == "zero-input"
    assert GATES_BY_NAME["x"].canalization == "one-input"
    assert GATES_BY_NAME["noty"].canalization == "one-input"
    assert GATES_BY_NAME["AND"].canalization == "canalizing"
    assert GATES_BY_NAME["xIMP"].canalization == "partially-canalizing"
    assert GATES_BY_NAME["yIMP"].canalization == "partially-canalizing"
    assert GATES_BY_NAME["XOR"].canalization == "non-canalizing"
    assert GATES_BY_NAME["NXOR"].canalization == "non-canalizing"
    # every gate lands in exactly one tier
    for name in GATE_NAMES:
        assert GATES_BY_NAME[name].canalization


def test_a_gate_outside_the_tier_table_has_no_canalization():
    stray = GATES_BY_NAME["AND"]._replace(name="Q")
    with pytest.raises(ValueError) as excinfo:
        stray.canalization  # noqa: B018
    assert str(excinfo.value) == "gate 'Q' missing from the tier table"


def test_cross_weight_sign_predicates():
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


def test_isolated_self_negation_for_two_cycle_representatives():
    for n in (4, 11, 12, 16, 17, 18):
        assert sign_predicates(rule_from_number(n)).isolated_self_negation


def test_sign_predicates_are_mutually_exclusive_on_cross_sign():
    for r in ALL:
        preds = sign_predicates(r)
        assert not (preds.cross_positive and preds.cross_negative)
