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

V2 and V3 also admit shifted-threshold formulations: add (V2) or
subtract (V3) a constant in (0, 1) and take the plain sign, with no zero
case.  Weighted sums are integers, so the shifted form gives the same
update; the package implements the zero-case form only, and the tests
prove the two equal against an independent shifted-threshold oracle.

Updates are synchronous by default.  The two sequential (asynchronous)
orders update one node first and let the second node see the already
updated value; classification of a sequential scheme uses the composed
one-full-sweep map as the unit step, so both nodes are written exactly
once per time index.  Each map is built from node gates, the truth
tables of one node's next value over its (own, other) inputs: the
synchronous map pairs the gates of x and y, and a sequential map
composes them.  ``step`` and ``step_async`` read these maps, and
``emit_state_graph`` renders one as Graphviz DOT.
"""

import functools
from collections import namedtuple
from enum import Enum
from types import MappingProxyType

VARIANT_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")

# Taxonomy labels used by the classification tables.
CLASS_LABELS = ("F1", "F2", "F3", "F4", "M", "2C", "3C", "4C")


class UpdateMode(Enum):
    """How the two nodes are written within one time step."""

    SYNCHRONOUS = "synchronous"
    X_FIRST = "x-first"
    Y_FIRST = "y-first"

    # Members are singletons that compare by identity, so the identity
    # hash agrees with ==; it runs in C, where Enum.__hash__ is a Python
    # frame in every lookup keyed on a mode.
    __hash__ = object.__hash__


# On the query path a global reads faster than the enum attribute.
_SYNCHRONOUS = UpdateMode.SYNCHRONOUS


# Per tag: the (low, high) node values and the zero-sum treatment.
_VARIANT_CONVENTIONS = {
    "V1": (-1, 1, "hold"),
    "V2": (-1, 1, "high"),
    "V3": (-1, 1, "low"),
    "V4": (0, 1, "hold"),
    "V5": (0, 1, "high"),
    "V6": (0, 1, "low"),
    "V7": (0, 1, "increment"),
}

# Rule numbering: the weights (wxx, wxy, wyx, wyy), each shifted to
# 0..2, are the base-3 digits of the rule number minus one, with these
# place values.  A weight step of +-1 therefore moves the number by the
# weight's place value.
_PLACE_VALUES = (27, 9, 3, 1)


def _rule_number(weights: tuple[int, int, int, int]) -> int:
    wxx, wxy, wyx, wyy = weights
    return 41 + 27 * wxx + 9 * wxy + 3 * wyx + wyy  # 1 + sum(p * (w + 1))


_setattr = object.__setattr__


class _FrozenRecord:
    """A slotted record set once, in ``__init__``: repr, ``==`` (within one
    class) and hash over the values of ``_fields``, unhashable if one is."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Rule(_FrozenRecord):
    """The four coupling weights of a two-node network.

    ``wxx`` weighs node x's own value in the update of x, ``wxy`` weighs
    node y's value in the update of x, and symmetrically ``wyx``/``wyy``
    for the update of y.  Each weight is -1, 0, or +1, giving 81 rules.
    ``weights`` is the tuple of the four, ``number`` the canonical rule
    number in 1..81 (base-3 encoding of the weights), and ``arity`` the
    number of nodes that actually feed the update: 0 if all weights
    vanish, 1 if both cross weights vanish (each node sees only itself),
    2 otherwise.  All three are derived once, at construction.  Rules
    compare, order and hash by their weights alone.
    """

    __slots__ = ("wxx", "wxy", "wyx", "wyy", "weights", "number", "arity")
    _fields = __match_args__ = ("wxx", "wxy", "wyx", "wyy")

    def __init__(self, wxx: int, wxy: int, wyx: int, wyy: int):
        _setattr(self, "weights", (wxx, wxy, wyx, wyy))
        self.__post_init__()  # a hook, so perfbench/tracer.py can count constructions

    def __post_init__(self):
        for name, w in zip(self._fields, self.weights):
            # type() rather than isinstance: bools and floats hash like
            # ints and would otherwise share memo entries with them.
            if type(w) is not int or w not in (-1, 0, 1):
                raise ValueError(f"weights must be the ints -1, 0, or +1, got {w!r}")
            _setattr(self, name, w)
        _setattr(self, "number", _rule_number(self.weights))
        _setattr(self, "arity", 2 if self.wxy or self.wyx else 1 if self.wxx or self.wyy else 0)

    def _values(self) -> tuple[int, int, int, int]:
        return self.weights

    # > and >= reflect to these.
    def __lt__(self, other):
        return self.weights < other.weights if other.__class__ is Rule else NotImplemented

    def __le__(self, other):
        return self.weights <= other.weights if other.__class__ is Rule else NotImplemented


# The 81 shared rules by rule number, built at import (slot 0 unused).
_RULES = (None, *(Rule(*((r - 1) // p % 3 - 1 for p in _PLACE_VALUES))
                  for r in range(1, 82)))


def rule_from_number(r: int) -> Rule:
    """Decode a rule number in 1..81 into its weights."""
    if type(r) is not int or not 1 <= r <= 81:
        raise ValueError(f"rule number must be an integer in 1..81, got {r!r}")
    return _RULES[r]


def all_rules() -> tuple[Rule, ...]:
    """All 81 rules in ascending number order."""
    return _RULES[1:]


class Variant(_FrozenRecord):
    """One update scheme: a tag V1..V7 and an update mode."""

    __slots__ = _fields = __match_args__ = ("tag", "mode")

    def __init__(self, tag: str, mode: UpdateMode = UpdateMode.SYNCHRONOUS):
        _setattr(self, "tag", tag)
        _setattr(self, "mode", mode)
        self.__post_init__()  # a hook, so perfbench/tracer.py can count constructions

    def __post_init__(self):
        if type(self.tag) is not str or self.tag not in VARIANT_TAGS:
            raise ValueError(f"unknown variant tag {self.tag!r}")
        if not isinstance(self.mode, UpdateMode):
            raise ValueError(f"mode must be an UpdateMode, got {self.mode!r}")


def variant(tag: str, mode: UpdateMode | str = UpdateMode.SYNCHRONOUS) -> Variant:
    """The shared :class:`Variant` of a tag and a mode, from a table built at import.

    ``tag`` is a ``str`` in either case and ``mode`` an :class:`UpdateMode`
    member or its ``str`` value, each by exact type: every accepted spelling
    of a pair gets one shared, immutable Variant, and any other argument, a
    ``str`` subclass included, raises ``ValueError`` and builds no Variant.
    """
    if type(tag) is str and type(mode) in (str, UpdateMode):
        try:
            return _VARIANTS[tag, mode]  # keyed by the raw arguments
        except KeyError:
            if mode not in _MODE_FORMS:
                raise ValueError(f"{mode!r} is not a valid UpdateMode") from None
            raise ValueError(f"unknown variant tag {tag.upper()!r}") from None
    if type(tag) is not str:
        raise ValueError(f"variant tag must be a string, got {tag!r}")
    raise ValueError(f"mode must be an UpdateMode, got {mode!r}")


# The 6 accepted mode forms: each UpdateMode member and its string.
_MODE_FORMS = frozenset((*UpdateMode, *(mode.value for mode in UpdateMode)))

# Every accepted (tag, mode) argument pair of ``variant``: 14 tag
# spellings times the 6 mode forms, onto the 21 shared variants.
_VARIANTS = {(spelling, form): v
             for v in (Variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode)
             for spelling in (v.tag, v.tag.lower()) for form in (v.mode, v.mode.value)}
_V1, _V4 = _VARIANTS["V1", _SYNCHRONOUS], _VARIANTS["V4", _SYNCHRONOUS]  # the two defaults


_STATES = {tag: ((lo, lo), (lo, hi), (hi, lo), (hi, hi))
           for tag, (lo, hi, _) in _VARIANT_CONVENTIONS.items()}


def states(v: Variant) -> tuple[tuple[int, int], ...]:
    """The four joint states in index order S0=(lo,lo), S1=(lo,hi),
    S2=(hi,lo), S3=(hi,hi) under the variant's value convention."""
    if type(v) is not Variant:
        raise ValueError(f"joint states need a variant, got {v!r}")
    return _STATES[v.tag]


def state_index(v: Variant, s: tuple[int, int]) -> int:
    """Index 0..3 of a joint state; rejects values outside the convention,
    including bools and floats that compare equal to an allowed int, and a
    non-variant ``v``."""
    if type(v) is not Variant:
        raise ValueError(f"joint states need a variant, got {v!r}")
    lo, hi, _ = _VARIANT_CONVENTIONS[v.tag]
    if type(s) is tuple and len(s) == 2:
        x, y = s
        if (type(x) is int and type(y) is int
                and (x == lo or x == hi) and (y == lo or y == hi)):
            return 2 * (x == hi) + (y == hi)
    raise ValueError(f"state {s!r} is not valid under the {v.tag} value convention")


def state_from_index(v: Variant, i: int) -> tuple[int, int]:
    if type(i) is not int or not 0 <= i <= 3:
        raise ValueError(f"state index must be an int in 0..3, got {i!r}")
    return states(v)[i]


@functools.cache
def _tag_gates(tag: str) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    """Per (w_self, w_other): the node gate, one node's next logical value
    for its logical (own, other) inputs at index 2 * own + other."""
    lo, hi, zero = _VARIANT_CONVENTIONS[tag]

    def update(total: int, current: int) -> int:
        if zero == "increment":
            # Increment form: move the current value by the sign of the
            # sum, then clip to {0, 1} with a step that sends 0 to 0.
            return 1 if current + (total > 0) - (total < 0) > 0 else 0
        if total > 0:
            return hi
        if total < 0:
            return lo
        if zero == "hold":
            return current
        return hi if zero == "high" else lo

    return {(ws, wo): tuple(int(update(ws * own + wo * other, own) == hi)
                            for own in (lo, hi) for other in (lo, hi))
            for ws in (-1, 0, 1) for wo in (-1, 0, 1)}


def _compose(gx: tuple, gy: tuple, mode: UpdateMode) -> tuple[int, int, int, int]:
    """Successor index of each state 2 * x + y; a sequential map feeds
    the first node's new bit to the second node's gate.  A gate is indexed
    by 2 * own + other, so state (x, y) reads gx[2 * x + y] and
    gy[2 * y + x]; each mode is written out for the four states."""
    if mode is UpdateMode.SYNCHRONOUS:
        return 2 * gx[0] + gy[0], 2 * gx[1] + gy[2], 2 * gx[2] + gy[1], 2 * gx[3] + gy[3]
    if mode is UpdateMode.X_FIRST:
        x00, x01, x10, x11 = gx  # x's new bit in states (0, 0), (0, 1), (1, 0), (1, 1)
        return 2 * x00 + gy[x00], 2 * x01 + gy[2 + x01], 2 * x10 + gy[x10], 2 * x11 + gy[2 + x11]
    y00, y10, y01, y11 = gy  # y's new bit in states (0, 0), (1, 0), (0, 1), (1, 1)
    return 2 * gx[y00] + y00, 2 * gx[y01] + y01, 2 * gx[2 + y10] + y10, 2 * gx[2 + y11] + y11


def step(rule: Rule, v: Variant, s: tuple[int, int]) -> tuple[int, int]:
    """Synchronous one-step update of the joint state."""
    succ = _record(rule, v, _SYNCHRONOUS).successors
    return _STATES[v.tag][succ[state_index(v, s)]]  # v checked by _record


def step_async(rule: Rule, v: Variant, order: UpdateMode | str,
               s: tuple[int, int]) -> tuple[int, int]:
    """Sequential one-sweep update: the second node sees the first
    node's already updated value."""
    keyed = _VARIANTS.get(("V1", order)) if type(order) in (str, UpdateMode) else None
    if (keyed or variant("V1", order)).mode is _SYNCHRONOUS:  # variant refuses any other order
        raise ValueError("order must be x-first or y-first")
    succ = _record(rule, v, keyed.mode).successors
    return _STATES[v.tag][succ[state_index(v, s)]]  # v checked by _record


# The atlas: filled on first use, never at import.  Every (rule, tag,
# mode) key of the 1701 maps to one of at most 4**4 successor tuples,
# and each tuple has one _MapRecord, built once by _map_record, which
# shares the class its cycle type fixes.  Keys are plain ints, strings
# and UpdateMode members, all hashed in C, so a lookup enters no Python
# frame and keeps no Rule or Variant alive.  Results are immutable.
@functools.cache
def _keyed_record(number: int, tag: str, mode: UpdateMode) -> "_MapRecord":
    """The map composed from the two node gates of the rule's weights."""
    node = _tag_gates(tag)
    wxx, wxy, wyx, wyy = _RULES[number].weights
    return _map_record(_compose(node[wxx, wxy], node[wyy, wyx], mode))


def _label(number: int, tag: str, mode: UpdateMode = _SYNCHRONOUS) -> str:
    """The class label of a rule's map, read from the atlas by its key."""
    return _keyed_record(number, tag, mode).dynamics_class.label


def _record(rule: Rule, v: Variant, mode: UpdateMode | None = None,
            view=_keyed_record):
    """The record of the rule's map under ``v`` (or its ``mode`` form), or
    what ``view``, a cache keyed like the records, holds at that key."""
    if type(rule) is not Rule or type(v) is not Variant:
        raise ValueError("a successor map needs a variant and a rule, "
                         f"got {v!r} and {rule!r}")
    return view(rule.number, v.tag, mode or v.mode)


def successor_indices(rule: Rule, v: Variant) -> tuple[int, int, int, int]:
    """Successor state index for each of S0..S3 under one step."""
    return _record(rule, v).successors


class AttractorSet(namedtuple("AttractorSet", "attractors basin steps_to_attractor")):
    """All recurrent cycles of the one-step map, with basin assignment.

    Attractors are cycles of state indices, rotated so the smallest
    index leads, and listed in ascending order of that leading index.
    ``basin`` maps every state index to the attractor its trajectory
    falls into, and ``steps_to_attractor`` counts how many steps that
    takes (0 for states already on a cycle).  Both are read-only, since
    one memoised instance is shared by every caller.
    """

    __slots__ = ()

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies: carry plain dicts.
        return _attractor_set, (self.attractors, dict(self.basin), dict(self.steps_to_attractor))

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.attractors))

    @property
    def max_transient(self) -> int:
        return max(self.steps_to_attractor.values())


def _attractor_set(attractors: tuple, basin: dict, steps: dict) -> AttractorSet:
    return AttractorSet(attractors, MappingProxyType(basin), MappingProxyType(steps))


def attractor_set(rule: Rule, v: Variant) -> AttractorSet:
    """Iterate the map from all four states and collect its attractors."""
    return _record(rule, v).attractor_set


class DynamicsClass(namedtuple("DynamicsClass", "label cycle_lengths")):
    """Taxonomy label for a rule's limiting behavior under one variant.

    ``label`` is Fk when all attractors are fixed points (k of them),
    pC when all attractors are cycles of one length p >= 2, M when fixed
    points and 2-cycles coexist exclusively, and otherwise a descriptor
    joining the sorted cycle lengths with '+', which keeps the
    classification total.
    """

    __slots__ = ()

    @property
    def in_taxonomy(self) -> bool:
        return self.label in CLASS_LABELS

    def __str__(self) -> str:
        return self.label


def class_from_cycle_lengths(lengths: tuple[int, ...]) -> DynamicsClass:
    if (type(lengths) not in (tuple, list) or not lengths
            or any(type(p) is not int or p < 1 for p in lengths) or sum(lengths) > 4):
        raise ValueError("cycle lengths of a four-state map must be positive ints summing "
                         f"to at most 4, got {lengths!r}")
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


def classify(rule: Rule, v: Variant) -> DynamicsClass:
    """Classify the limiting behavior of a rule under a variant."""
    return _record(rule, v).dynamics_class


# The 11 cycle types of a map on four states (the partitions of 1 to 4),
# each with the one class every map of that type shares.
_CLASSES = {c.cycle_lengths: c for c in map(class_from_cycle_lengths, (
    (1,), (1, 1), (2,), (1, 1, 1), (1, 2), (3,), (1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)))}


class _MapRecord(namedtuple("_MapRecord",
                            "successors attractor_set dynamics_class matrix landing")):
    """The dynamics of one successor map: its attractors, the class of its cycle
    type, its 0/1 transition matrix and, per start state, the attractor it lands
    in, as a state set."""

    __slots__ = ()


_UNIT_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class _UnitRowMatrix(tuple):
    """A transition matrix equal, hash-equal and repr-equal to its plain tuple of
    unit rows, built, copied and unpickled only from four checked successors."""

    __slots__ = ()

    def __new__(cls, *succ):
        if len(succ) != 4 or any(type(s) is not int or not 0 <= s <= 3 for s in succ):
            raise ValueError(f"a transition matrix needs four ints in 0..3, got {succ!r}")
        return tuple.__new__(cls, map(_UNIT_ROWS.__getitem__, succ))

    def __reduce__(self):
        return type(self), tuple(row.index(1) for row in self)


@functools.cache
def _map_record(succ: tuple[int, int, int, int]) -> _MapRecord:
    cycle_of: dict[int, tuple[int, ...]] = {}  # each cycle state's cycle, smallest state first
    basin: dict[int, tuple[int, ...]] = {}
    steps: dict[int, int] = {}
    for start in range(4):
        s = succ[succ[succ[start]]]  # three steps put any state of a four-state map on its cycle
        cycle = cycle_of.get(s)
        if cycle is None:
            walk = [s]
            while (s := succ[s]) != walk[0]:
                walk.append(s)
            k = walk.index(min(walk))
            cycle = tuple(walk[k:] + walk[:k])
            cycle_of.update(dict.fromkeys(cycle, cycle))
        basin[start] = cycle
        n, s = 0, start
        while s not in cycle_of:  # the only cycle states s can reach are those of its own
            n, s = n + 1, succ[s]
        steps[start] = n
    aset = _attractor_set(tuple(sorted(set(cycle_of.values()))), basin, steps)
    return _MapRecord(succ, aset, _CLASSES[aset.cycle_lengths],
                      _UnitRowMatrix(*succ),
                      tuple(frozenset(basin[i]) for i in range(4)))


def emit_state_graph(rule: Rule, v) -> str:
    """DOT digraph of the one-step map on the four states, rendered once
    per (rule, tag, mode).  The graph name carries the rule and tag but
    not the mode, so the maps of one (rule, tag) under the three modes
    share a name."""
    return _record(rule, v, view=_state_graph)


@functools.cache
def _state_graph(number: int, tag: str, mode: UpdateMode) -> str:
    rec = _keyed_record(number, tag, mode)
    nxt = rec.successors
    on_cycle = {i for cyc in rec.attractor_set.attractors for i in cyc}
    lines = [f"digraph state_space_rule{number}_{tag.lower()} {{"]
    for i, s in enumerate(_STATES[tag]):
        shape = "doublecircle" if i in on_cycle else "circle"
        lines.append(f'  s{i} [label="({s[0]},{s[1]})" shape={shape}];')
    for i in range(4):
        lines.append(f"  s{i} -> s{nxt[i]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
