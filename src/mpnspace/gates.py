"""Boolean-gate view of the one-step update, per node and variant.

Projecting one node's next value over the four input states gives a
two-input truth table, hence one of the 16 two-input Boolean functions.
On {-1, +1} values the low level plays the role of logical 0.  Gate
names use an ASCII canonical form: F and T for the constants, x, y,
notx, noty for the single-input gates, xIMP and yIMP for the two
implications (xIMP outputs y whenever x is high and 1 otherwise; yIMP
symmetrically), and AND, OR, NOR, NAND, XOR, NXOR, xANDnoty, notxANDy
for the rest.

The module also evaluates the sign conditions on the weights that the
attractor taxonomy turns out to require: coexisting fixed points and
2-cycles need positively coupled cross weights, a global 4-cycle needs
negatively coupled ones, and the pure 2-cycle rules with an isolated
self-negating node are picked out by a third flag.
"""

from collections import namedtuple

from .dynamics import _SYNCHRONOUS, Rule, Variant, _record

GATE_NAMES = (
    "F", "AND", "xANDnoty", "x", "notxANDy", "y", "XOR", "OR",
    "NOR", "NXOR", "noty", "yIMP", "notx", "xIMP", "NAND", "T",
)

_CANALIZATION_TIERS = {
    "zero-input": {"F", "T"},
    "one-input": {"x", "y", "notx", "noty"},
    "partially-canalizing": {"xIMP", "yIMP"},
    "canalizing": {"AND", "OR", "NAND", "NOR", "xANDnoty", "notxANDy"},
    "non-canalizing": {"XOR", "NXOR"},
}


class Gate(namedtuple("Gate", "name truth")):
    """One of the 16 two-input Boolean functions.

    ``truth`` lists the output for logical inputs (x, y) in the order
    (0,0), (0,1), (1,0), (1,1).
    """

    __slots__ = ()

    @property
    def canalization(self) -> str:
        for tier, names in _CANALIZATION_TIERS.items():
            if self.name in names:
                return tier
        raise ValueError(f"gate {self.name!r} missing from the tier table")


# Gate i has the truth table of the four bits of i, most significant first.
GATES: tuple[Gate, ...] = tuple(Gate(name, (i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1))
                                for i, name in enumerate(GATE_NAMES))

GATES_BY_NAME = {g.name: g for g in GATES}

# The gate pair of each of the 4**4 successor tuples: state index 2 * x + y
# of the next state holds the outputs of the x gate and the y gate.
_GATE_PAIRS = {tuple(2 * x + y for x, y in zip(gx.truth, gy.truth)): (gx, gy)
               for gx in GATES for gy in GATES}


def identify_gate(truth: tuple[int, int, int, int]) -> Gate:
    """Match a 4-row logical truth table against the 16 gates."""
    if (type(truth) is not tuple or len(truth) != 4
            or any(type(b) is not int or b not in (0, 1) for b in truth)):
        raise ValueError(f"truth table must be a tuple of four 0/1 ints, got {truth!r}")
    i = truth[0] * 8 + truth[1] * 4 + truth[2] * 2 + truth[3]
    return GATES[i]


def gate_pair(rule: Rule, v: Variant) -> tuple[Gate, Gate]:
    """The (x-node, y-node) gates of a rule under a variant, read off the
    successor indices of its synchronous form: state index 2 * x + y holds
    the logical (x, y) bits of the next state."""
    return _GATE_PAIRS[_record(rule, v, _SYNCHRONOUS).successors]


class SignPredicates(namedtuple("SignPredicates",
                                "cross_positive cross_negative isolated_self_negation")):
    """Sign conditions on the weights tied to the attractor taxonomy."""

    __slots__ = ()


def sign_predicates(rule: Rule) -> SignPredicates:
    if type(rule) is not Rule:
        raise ValueError(f"sign predicates need a Rule, got {rule!r}")
    cross = rule.wxy * rule.wyx
    return SignPredicates(
        cross_positive=cross > 0,
        cross_negative=cross < 0,
        isolated_self_negation=(
            (rule.wxx < 0 and rule.wxy == 0) or (rule.wyy < 0 and rule.wyx == 0)
        ),
    )
