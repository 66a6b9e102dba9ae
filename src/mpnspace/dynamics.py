"""Core dynamics of two-node threshold networks.

A rule assigns each of the four couplings between two nodes a weight in
{-1, 0, +1}.  One update step feeds each node the weighted sum of the
current node values and thresholds it.  Seven variants cover the two
value conventions ({-1, +1} and {0, 1}) crossed with three treatments of
a zero weighted sum (hold the current value, force high, force low),
plus a difference form on {0, 1} values:

=======  ==========  =====================================
variant  values      zero-sum treatment
=======  ==========  =====================================
V1       {-1, +1}    hold the current value
V2       {-1, +1}    force high
V3       {-1, +1}    force low
V4       {0, 1}      hold the current value
V5       {0, 1}      force high
V6       {0, 1}      force low
V7       {0, 1}      increment form: clip(value + sign(sum))
=======  ==========  =====================================

V2 and V3 also admit shifted-threshold formulations, where a constant
epsilon in (0, 1) is added to (V2) or subtracted from (V3) the weighted
sum and the plain sign is taken with no special zero case.  Both code
paths are implemented independently so their equivalence is a checkable
property rather than an assumption.

Updates are synchronous by default.  The two sequential (asynchronous)
orders update one node first and let the second node see the already
updated value; classification of a sequential scheme uses the composed
one-full-sweep map as the unit step, so both nodes are written exactly
once per time index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping


VARIANT_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")

# Taxonomy labels used by the classification tables.
CLASS_LABELS = ("F1", "F2", "F3", "F4", "M", "2C", "3C", "4C")


class UpdateMode(Enum):
    """How the two nodes are written within one time step."""

    SYNCHRONOUS = "synchronous"
    X_FIRST = "x-first"
    Y_FIRST = "y-first"


class ZeroSum(Enum):
    """Treatment of a zero weighted sum at the threshold."""

    HOLD = "hold"
    HIGH = "high"
    LOW = "low"
    INCREMENT = "increment"


_VARIANT_VALUES = {
    "V1": (-1, 1),
    "V2": (-1, 1),
    "V3": (-1, 1),
    "V4": (0, 1),
    "V5": (0, 1),
    "V6": (0, 1),
    "V7": (0, 1),
}

_VARIANT_ZERO = {
    "V1": ZeroSum.HOLD,
    "V2": ZeroSum.HIGH,
    "V3": ZeroSum.LOW,
    "V4": ZeroSum.HOLD,
    "V5": ZeroSum.HIGH,
    "V6": ZeroSum.LOW,
    "V7": ZeroSum.INCREMENT,
}


@dataclass(frozen=True, order=True)
class Rule:
    """The four coupling weights of a two-node network.

    ``wxx`` weighs node x's own value in the update of x, ``wxy`` weighs
    node y's value in the update of x, and symmetrically ``wyx``/``wyy``
    for the update of y.  Each weight is -1, 0, or +1, giving 81 rules.
    """

    wxx: int
    wxy: int
    wyx: int
    wyy: int

    def __post_init__(self):
        for w in self.weights:
            # type() rather than isinstance: bools and floats hash like
            # ints and would otherwise share memo entries with them.
            if type(w) is not int or w not in (-1, 0, 1):
                raise ValueError(f"weights must be the ints -1, 0, or +1, got {w!r}")

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return (self.wxx, self.wxy, self.wyx, self.wyy)

    @property
    def number(self) -> int:
        """Canonical rule number in 1..81 (base-3 encoding of the weights)."""
        a, b, c, d = self.weights
        return 27 * (a + 1) + 9 * (b + 1) + 3 * (c + 1) + (d + 1) + 1

    @classmethod
    def from_number(cls, r: int) -> "Rule":
        if type(r) is not int or not 1 <= r <= 81:
            raise ValueError(f"rule number must be an integer in 1..81, got {r!r}")
        return _rule_of_number(r)

    @property
    def arity(self) -> int:
        """Number of nodes that actually feed the update.

        0 if all weights vanish, 1 if both cross weights vanish (each
        node sees only itself), 2 otherwise.
        """
        if self.weights == (0, 0, 0, 0):
            return 0
        if self.wxy == 0 and self.wyx == 0:
            return 1
        return 2


@functools.cache
def _rule_of_number(r: int) -> Rule:
    m = r - 1
    return Rule(m // 27 - 1, (m // 9) % 3 - 1, (m // 3) % 3 - 1, m % 3 - 1)


def rule_from_number(r: int) -> Rule:
    """Decode a rule number in 1..81 into its weights."""
    return Rule.from_number(r)


def rule_to_number(rule: Rule) -> int:
    """Inverse of :func:`rule_from_number`."""
    return rule.number


def all_rules() -> tuple[Rule, ...]:
    """All 81 rules in ascending number order."""
    return tuple(_rule_of_number(r) for r in range(1, 82))


@dataclass(frozen=True)
class Variant:
    """One update scheme: a tag V1..V7, an update mode, optional epsilon.

    ``epsilon`` selects the shifted-threshold formulation and is only
    meaningful for V2 (threshold shifted down by epsilon, so zero sums
    fire high) and V3 (shifted up, so zero sums fall low).
    """

    tag: str
    mode: UpdateMode = UpdateMode.SYNCHRONOUS
    epsilon: Fraction | float | None = None

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}")
        if not isinstance(self.mode, UpdateMode):
            raise ValueError(f"mode must be an UpdateMode, got {self.mode!r}")
        if self.epsilon is not None:
            if self.tag not in ("V2", "V3"):
                raise ValueError("epsilon applies only to V2 and V3")
            if not isinstance(self.epsilon, (Fraction, float)) or not 0 < self.epsilon < 1:
                raise ValueError("epsilon must be a Fraction or float strictly "
                                 f"between 0 and 1, got {self.epsilon!r}")

    @property
    def low(self) -> int:
        return _VARIANT_VALUES[self.tag][0]

    @property
    def high(self) -> int:
        return _VARIANT_VALUES[self.tag][1]

    @property
    def zero_sum(self) -> ZeroSum:
        return _VARIANT_ZERO[self.tag]

    def with_mode(self, mode: UpdateMode) -> "Variant":
        return Variant(self.tag, mode, self.epsilon)


def variant(tag: str, mode: UpdateMode | str = UpdateMode.SYNCHRONOUS,
            epsilon: Fraction | float | None = None) -> Variant:
    """Build a :class:`Variant`, accepting lowercase tags and mode strings."""
    if not isinstance(tag, str):
        raise ValueError(f"variant tag must be a string, got {tag!r}")
    if isinstance(mode, str):
        mode = UpdateMode(mode)
    return Variant(tag.upper(), mode, epsilon)


def states(v: Variant) -> tuple[tuple[int, int], ...]:
    """The four joint states in index order S0=(lo,lo), S1=(lo,hi),
    S2=(hi,lo), S3=(hi,hi) under the variant's value convention."""
    lo, hi = v.low, v.high
    return ((lo, lo), (lo, hi), (hi, lo), (hi, hi))


def state_index(v: Variant, s: tuple[int, int]) -> int:
    """Index 0..3 of a joint state; rejects values outside the convention,
    including bools and floats that compare equal to an allowed int."""
    lo, hi = v.low, v.high
    if type(s) is tuple and len(s) == 2 and all(
            type(c) is int and (c == lo or c == hi) for c in s):
        return 2 * (s[0] == hi) + (s[1] == hi)
    raise ValueError(f"state {s!r} is not valid under the {v.tag} value convention")


def state_from_index(v: Variant, i: int) -> tuple[int, int]:
    if not 0 <= i <= 3:
        raise ValueError(f"state index must be 0..3, got {i}")
    return states(v)[i]


def _sign(s) -> int:
    if s > 0:
        return 1
    if s < 0:
        return -1
    return 0


def _threshold(v: Variant, weighted_sum: int, current: int) -> int:
    """One node's new value from its weighted input sum."""
    if v.epsilon is not None:
        # Shifted-threshold formulation: plain sign of the shifted sum,
        # no zero case (the shift keeps integer sums away from zero).
        shifted = weighted_sum + v.epsilon if v.tag == "V2" else weighted_sum - v.epsilon
        return v.high if shifted > 0 else v.low
    zero = v.zero_sum
    if zero is ZeroSum.INCREMENT:
        # Increment form: move the current value by the sign of the sum,
        # then clip to {0, 1} with a step that sends 0 to 0.
        moved = current + _sign(weighted_sum)
        return 1 if moved > 0 else 0
    if weighted_sum > 0:
        return v.high
    if weighted_sum < 0:
        return v.low
    if zero is ZeroSum.HOLD:
        return current
    if zero is ZeroSum.HIGH:
        return v.high
    return v.low


def _sweep(rule: Rule, v: Variant, mode: UpdateMode, x: int, y: int) -> tuple[int, int]:
    """One update of the joint state (x, y) under ``mode``, unvalidated."""
    if mode is UpdateMode.SYNCHRONOUS:
        return (
            _threshold(v, rule.wxx * x + rule.wxy * y, x),
            _threshold(v, rule.wyx * x + rule.wyy * y, y),
        )
    if mode is UpdateMode.X_FIRST:
        x2 = _threshold(v, rule.wxx * x + rule.wxy * y, x)
        return (x2, _threshold(v, rule.wyx * x2 + rule.wyy * y, y))
    y2 = _threshold(v, rule.wyx * x + rule.wyy * y, y)
    return (_threshold(v, rule.wxx * x + rule.wxy * y2, x), y2)


def step(rule: Rule, v: Variant, s: tuple[int, int]) -> tuple[int, int]:
    """Synchronous one-step update of the joint state."""
    state_index(v, s)  # validate the value convention
    return _sweep(rule, v, UpdateMode.SYNCHRONOUS, *s)


def step_async(rule: Rule, v: Variant, order: UpdateMode | str,
               s: tuple[int, int]) -> tuple[int, int]:
    """Sequential one-sweep update: the second node sees the first
    node's already updated value."""
    if isinstance(order, str):
        order = UpdateMode(order)
    if order is UpdateMode.SYNCHRONOUS:
        raise ValueError("order must be x-first or y-first")
    state_index(v, s)
    return _sweep(rule, v, order, *s)


def step_function(rule: Rule, v: Variant):
    """The one-step map on joint states implied by the variant's mode."""
    if v.mode is UpdateMode.SYNCHRONOUS:
        return lambda s: step(rule, v, s)
    return lambda s: step_async(rule, v, v.mode, s)


# The atlas: memo tables filled on first use, never at import.  Every
# (rule, tag, mode) key maps to one of at most 4**4 successor tuples,
# each stored once (``_interned``), and everything downstream of the
# one-step map is keyed by that tuple.  Keys are plain ints, strings and
# enum members, so a lookup runs no dataclass __eq__ and keeps no Rule
# or Variant alive.  Results handed out are immutable.
_successors: dict[tuple, tuple[int, int, int, int]] = {}
_interned: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {}


def _step_map(rule: Rule, v: Variant) -> tuple[int, int, int, int]:
    """Successor indices by stepping each of S0..S3 once, interned."""
    hi = v.high
    succ = tuple(2 * (x2 == hi) + (y2 == hi)
                 for x2, y2 in (_sweep(rule, v, v.mode, *s) for s in states(v)))
    return _interned.setdefault(succ, succ)


def successor_indices(rule: Rule, v: Variant) -> tuple[int, int, int, int]:
    """Successor state index for each of S0..S3 under one step."""
    if v.epsilon is not None:
        # Shifted-threshold variants keep their own stepping path and,
        # with unboundedly many epsilons, are not memoised by key.
        return _step_map(rule, v)
    key = (rule.wxx, rule.wxy, rule.wyx, rule.wyy, v.tag, v.mode)
    succ = _successors.get(key)
    if succ is None:
        succ = _successors[key] = _step_map(rule, v)
    return succ


@dataclass(frozen=True)
class AttractorSet:
    """All recurrent cycles of the one-step map, with basin assignment.

    Attractors are cycles of state indices, rotated so the smallest
    index leads, and listed in ascending order of that leading index.
    ``basin`` maps every state index to the attractor its trajectory
    falls into, and ``steps_to_attractor`` counts how many steps that
    takes (0 for states already on a cycle).  Both are read-only, since
    one memoised instance is shared by every caller.
    """

    attractors: tuple[tuple[int, ...], ...]
    basin: Mapping[int, tuple[int, ...]]
    steps_to_attractor: Mapping[int, int]

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.attractors))

    @property
    def max_transient(self) -> int:
        return max(self.steps_to_attractor.values())

    def attractor_states(self) -> tuple[frozenset[int], ...]:
        """Each attractor as an (unordered) set of state indices."""
        return tuple(frozenset(c) for c in self.attractors)


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


@functools.cache
def _attractors_of(succ: tuple[int, int, int, int]) -> AttractorSet:
    attractors: dict[tuple[int, ...], None] = {}
    basin: dict[int, tuple[int, ...]] = {}
    steps: dict[int, int] = {}
    for start in range(4):
        seen: dict[int, int] = {}
        cur = start
        while cur not in seen:
            seen[cur] = len(seen)
            cur = succ[cur]
        entry = seen[cur]  # walk position where the cycle begins
        walk = sorted(seen, key=seen.get)
        cycle = _canonical_cycle(walk[entry:])
        attractors[cycle] = None
        basin[start] = cycle
        steps[start] = entry
    ordered = tuple(sorted(attractors, key=lambda c: c[0]))
    return AttractorSet(ordered, MappingProxyType(basin), MappingProxyType(steps))


def attractor_set(rule: Rule, v: Variant) -> AttractorSet:
    """Iterate the map from all four states and collect its attractors."""
    return _attractors_of(successor_indices(rule, v))


@dataclass(frozen=True)
class DynamicsClass:
    """Taxonomy label for a rule's limiting behavior under one variant.

    ``label`` is Fk when all attractors are fixed points (k of them),
    pC when all attractors are cycles of one length p >= 2, M when fixed
    points and 2-cycles coexist exclusively, and otherwise a descriptor
    joining the sorted cycle lengths with '+', which keeps the
    classification total.
    """

    label: str
    cycle_lengths: tuple[int, ...]

    @property
    def in_taxonomy(self) -> bool:
        return self.label in CLASS_LABELS

    def __str__(self) -> str:
        return self.label


def class_from_cycle_lengths(lengths: tuple[int, ...]) -> DynamicsClass:
    lengths = tuple(sorted(lengths))
    distinct = set(lengths)
    if distinct == {1}:
        return DynamicsClass(f"F{len(lengths)}", lengths)
    if len(distinct) == 1:
        (p,) = distinct
        return DynamicsClass(f"{p}C", lengths)
    if distinct == {1, 2}:
        return DynamicsClass("M", lengths)
    return DynamicsClass("+".join(str(p) for p in lengths), lengths)


@functools.cache
def _class_of(succ: tuple[int, int, int, int]) -> DynamicsClass:
    return class_from_cycle_lengths(_attractors_of(succ).cycle_lengths)


def classify(rule: Rule, v: Variant) -> DynamicsClass:
    """Classify the limiting behavior of a rule under a variant."""
    return _class_of(successor_indices(rule, v))
