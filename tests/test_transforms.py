"""Node-swap and cross-weight sign-flip symmetries."""

import pytest

from mpnspace import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    all_rules,
    classify,
    gauge,
    reduce_rules,
    rule_from_number,
    successor_indices,
    t12,
    variant,
)
from mpnspace.report import _t12_representatives
from mpnspace.transforms import EquivalenceClass, _orbit
from oracles import closure_orbit
from reference_tables import (
    LOW_ARITY_REPRESENTATIVES,
    T12_GAUGE_REPRESENTATIVES,
    T12_REPRESENTATIVES,
)

ALL = all_rules()


def test_node_swap_weights():
    r = rule_from_number(8)
    assert t12(r).weights == (0, 1, -1, -1)
    assert t12(r).number == 46


def test_sign_flip_weights():
    r = rule_from_number(8)
    assert gauge(r).weights == (-1, 1, -1, 0)
    assert gauge(r).number == 20


def test_both_transforms_are_involutions_and_commute():
    for r in ALL:
        assert t12(t12(r)) == r
        assert gauge(gauge(r)) == r
        assert t12(gauge(r)) == gauge(t12(r))


def test_node_swap_preserves_class_under_every_variant():
    for r in ALL:
        for tag in ("V1", "V2", "V3", "V4", "V5", "V6", "V7"):
            v = variant(tag)
            assert classify(r, v).label == classify(t12(r), v).label


def test_node_swap_conjugates_successor_maps_in_every_mode():
    """Swapping the nodes relabels states by sigma (S1 <-> S2) and turns
    x-first updates into y-first ones, so succ' = sigma . succ . sigma."""
    sigma = (0, 2, 1, 3)
    swapped_mode = {UpdateMode.SYNCHRONOUS: UpdateMode.SYNCHRONOUS,
                    UpdateMode.X_FIRST: UpdateMode.Y_FIRST,
                    UpdateMode.Y_FIRST: UpdateMode.X_FIRST}
    for r in ALL:
        for tag in VARIANT_TAGS:
            for mode in UpdateMode:
                succ = successor_indices(r, variant(tag, swapped_mode[mode]))
                got = successor_indices(t12(r), variant(tag, mode))
                assert got == tuple(sigma[succ[sigma[i]]] for i in range(4)), (
                    r.number, tag, mode)


def test_sign_flip_conjugates_v1_successor_maps_only():
    """Flipping the cross-weight signs negates node y under V1, which
    relabels states by tau (S0 <-> S1, S2 <-> S3), so succ' = tau . succ
    . tau in every mode.  Every other tag has a rule that breaks this,
    which is why reduce_rules refuses G there."""
    tau = (1, 0, 3, 2)

    def violations(tag):
        bad = 0
        for r in ALL:
            for mode in UpdateMode:
                succ = successor_indices(r, variant(tag, mode))
                got = successor_indices(gauge(r), variant(tag, mode))
                bad += got != tuple(tau[succ[tau[i]]] for i in range(4))
        return bad

    assert violations("V1") == 0
    for tag in VARIANT_TAGS[1:]:
        assert violations(tag) > 0, tag
        with pytest.raises(ValueError):
            reduce_rules({"G"}, under=variant(tag))


def test_sign_flip_preserves_class_under_v1_only():
    v1 = variant("V1")
    for r in ALL:
        assert classify(r, v1).label == classify(gauge(r), v1).label
    # explicit counterexamples under the force-high variant
    v2 = variant("V2")
    broken = [
        n for n in (1, 3, 5, 9, 21)
        if classify(rule_from_number(n), v2).label
        != classify(gauge(rule_from_number(n)), v2).label
    ]
    assert broken == [1, 3, 5, 9, 21]


def test_two_input_rules_reduce_to_39_swap_classes():
    pool = [r for r in ALL if r.arity == 2]
    classes = reduce_rules({"T12"}, pool)
    assert len(classes) == 39
    assert tuple(c.representative for c in classes) == T12_REPRESENTATIVES
    assert sum(len(c.members) for c in classes) == 72


def test_two_input_rules_reduce_to_21_swap_flip_classes():
    pool = [r for r in ALL if r.arity == 2]
    classes = reduce_rules({"T12", "G"}, pool)
    assert len(classes) == 21
    assert tuple(c.representative for c in classes) == T12_GAUGE_REPRESENTATIVES
    assert sum(len(c.members) for c in classes) == 72
    for c in classes:
        assert c.representative == min(c.members)
        assert len(c.members) in (1, 2, 4)


def test_low_arity_rules_reduce_to_6_swap_classes():
    pool = [r for r in ALL if r.arity < 2]
    classes = reduce_rules({"T12"}, pool)
    assert tuple(c.representative for c in classes) == LOW_ARITY_REPRESENTATIVES


def test_default_pool_is_all_81():
    classes = reduce_rules({"T12"})
    assert sum(len(c.members) for c in classes) == 81
    assert len(classes) == 39 + 6


def test_reduce_rejects_unknown_generator():
    with pytest.raises(ValueError):
        reduce_rules({"T12", "mirror"})
    with pytest.raises(ValueError):
        reduce_rules(None)


def test_reduce_refuses_sign_flip_for_non_v1_dynamics():
    with pytest.raises(ValueError):
        reduce_rules({"G"}, under=variant("V2"))
    # node swap alone is fine for any variant
    assert reduce_rules({"T12"}, under=variant("V5"))


def test_reduce_rejects_non_closed_pool():
    with pytest.raises(ValueError):
        reduce_rules({"T12"}, [rule_from_number(8)])


def test_a_pool_that_is_exactly_one_orbit_reduces_to_it():
    # The pool equals the orbit, so the closure check must accept equality.
    pool = [rule_from_number(8), t12(rule_from_number(8))]
    (cls,) = reduce_rules({"T12"}, pool)
    assert cls.members == (8, 46)
    assert cls.representative == 8


def test_equivalence_class_validates_representative():
    with pytest.raises(ValueError):
        EquivalenceClass(9, (8, 9), frozenset({"T12"}))


def test_orbit_of_rule_8():
    classes = reduce_rules({"T12", "G"}, [r for r in ALL if r.arity == 2])
    by_rep = {c.representative: c for c in classes}
    assert by_rep[8].members == (8, 20, 34, 46)


@pytest.mark.parametrize("generators", [(), ("T12",), ("G",), ("T12", "G")], ids=repr)
def test_orbit_equals_the_closure_oracle(generators):
    for r in ALL:
        expected = {Rule(*w).number for w in closure_orbit(r.weights, generators)}
        assert _orbit(r, generators) == expected


@pytest.mark.parametrize("arities", [(2,), (0, 1)], ids=repr)
def test_swap_representatives_equal_the_reduction(arities):
    pool = [r for r in ALL if r.arity in arities]
    reps = [c.representative for c in reduce_rules({"T12"}, pool)]
    assert [r.number for r in _t12_representatives(arities)] == reps
