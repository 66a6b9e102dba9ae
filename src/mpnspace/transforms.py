"""Symmetries of the rule space and equivalence-class reduction.

Two involutions act on the 81 rules:

* node swap (T12): relabel the two nodes, so the weights transpose as
  (wxx, wxy, wyx, wyy) -> (wyy, wyx, wxy, wxx); it conjugates the
  dynamics by the state relabeling (x, y) -> (y, x) and therefore
  preserves the dynamics class under every variant.
* cross-weight sign flip (G): negate both cross weights,
  (wxx, wxy, wyx, wyy) -> (wxx, -wxy, -wyx, wyy).  On {-1, +1} values
  with the hold-at-zero treatment (variant V1) this is a change of
  variables (negate one node's value), so it preserves V1 dynamics; on
  {0, 1} values no such change of variables exists, and reduction under
  it is refused outside V1.

The two transformations commute, so they generate a group of order at
most 4 and orbits have size 1, 2, or 4, read off with no search.
"""

from collections.abc import Iterable

from .dynamics import (
    _RULES,
    _V1,
    Rule,
    Variant,
    _FrozenRecord,
    _rule_number,
    _setattr,
    all_rules,
)


def t12(rule: Rule) -> Rule:
    """Swap the two node labels."""
    if type(rule) is not Rule:
        raise ValueError(f"node swap needs a Rule, got {rule!r}")
    return _RULES[_rule_number((rule.wyy, rule.wyx, rule.wxy, rule.wxx))]


def gauge(rule: Rule) -> Rule:
    """Flip the signs of both cross weights."""
    if type(rule) is not Rule:
        raise ValueError(f"sign flip needs a Rule, got {rule!r}")
    return _RULES[_rule_number((rule.wxx, -rule.wxy, -rule.wyx, rule.wyy))]


TRANSFORMATIONS = {"T12": t12, "G": gauge}


class EquivalenceClass(_FrozenRecord):
    """An orbit of rules under a set of generating transformations."""

    __slots__ = _fields = __match_args__ = ("representative", "members", "generators")

    def __init__(self, representative: int, members: tuple[int, ...],
                 generators: frozenset[str]):
        if not (type(members) is tuple and type(representative) is int
                and all(type(m) is int and 1 <= m <= 81 for m in members)
                and members[:1] == (representative,) and members == tuple(sorted(set(members)))):
            raise ValueError("members must be distinct rule numbers in 1..81 ascending from the "
                             f"representative, got {representative!r} and {members!r}")
        if type(generators) is not frozenset or any(
                type(g) is not str or g not in TRANSFORMATIONS for g in generators):
            raise ValueError(f"generators must be a frozenset of {sorted(TRANSFORMATIONS)}, "
                             f"got {generators!r}")
        _setattr(self, "representative", representative)
        _setattr(self, "members", members)
        _setattr(self, "generators", generators)


def _orbit(rule: Rule, generators: Iterable[str]) -> frozenset[int]:
    # The generators are commuting involutions, so the orbit holds the rule's images under
    # the products of their subsets; sorted, they apply in an order no hash seed changes.
    images = [rule]
    for g in sorted(generators):
        images += [TRANSFORMATIONS[g](r) for r in images]
    return frozenset(r.number for r in images)


def reduce_rules(generators: Iterable[str],
                 rules: Iterable[Rule] | None = None,
                 under: Variant | None = None) -> list[EquivalenceClass]:
    """Partition rules into orbits of the chosen transformations.

    ``generators`` is a subset of {"T12", "G"}.  ``rules`` defaults to
    all 81; the set must be closed under the generators.  ``under``
    names the variant whose dynamics the reduction is meant to respect
    (default V1); requesting the G generator for any other variant is
    refused, because the cross-weight sign flip is a dynamics symmetry
    only for the hold-at-zero sign variant.
    """
    if isinstance(generators, str):
        raise ValueError(f"generators must be an iterable of names, not the string {generators!r}")
    try:
        generators = frozenset(generators)
    except TypeError:
        raise ValueError(f"generators must be an iterable of names, got {generators!r}") from None
    unknown = [g for g in generators if type(g) is not str or g not in TRANSFORMATIONS]
    if unknown:
        raise ValueError(f"unknown transformations: {sorted(unknown, key=repr)}")
    under = _V1 if under is None else under
    if isinstance(rules, str):
        raise ValueError(f"rules must be an iterable of Rules, not the string {rules!r}")
    try:
        pool = all_rules() if rules is None else tuple(rules)
    except TypeError:
        raise ValueError(f"rules must be an iterable of Rules, got {rules!r}") from None
    if type(under) is not Variant or any(type(r) is not Rule for r in pool):
        raise ValueError(f"reduce_rules needs Rules and a Variant, got {rules!r} and {under!r}")
    if "G" in generators and under.tag != "V1":
        raise ValueError(
            "the cross-weight sign flip preserves dynamics only under V1; "
            f"refusing to reduce {under.tag} with it"
        )
    numbers = {r.number for r in pool}
    classes: dict[int, EquivalenceClass] = {}
    for r in pool:
        orbit = _orbit(r, generators)
        if not orbit <= numbers:
            raise ValueError(
                f"rule set is not closed under {sorted(generators)}: "
                f"orbit of rule {r.number} leaves it"
            )
        rep = min(orbit)
        if rep not in classes:
            classes[rep] = EquivalenceClass(rep, tuple(sorted(orbit)), generators)
    return [classes[rep] for rep in sorted(classes)]
