"""Three robustness metrics on the rule space, kept as exact fractions.

* class robustness: under V1, the fraction of a rule's Hamming-1
  neighbors sharing its dynamics-class label.
* limiting-state robustness to rule mutation: under V4, over all
  (initial state, neighbor rule) pairs, the fraction where the mutated
  rule reaches the same attractor (compared as a set of states) from
  that initial state.  Two neighbor conventions coexist in the source
  material and both are provided: ``targets="two-input"`` scores only
  mutations landing on rules with two effective inputs (this is the
  convention behind the headline per-rule percentages, the five-bin
  distribution over the 72 two-input rules, and the superstable set),
  while ``targets="all"`` scores every neighbor (the convention behind
  the class-by-robustness count table and the correlation analysis).
* limiting-state robustness to initial-state perturbation: under V4,
  the fraction of the four unordered Hamming-1 state pairs whose two
  members reach the same attractor.

Every score is a rational number stored as numerator/denominator; all three
metrics are invariant under the node-swap transformation.  A variant is its
tag and mode alone, so each score is read by key: class scores are computed
once per (rule number, tag, mode) and mutation scores once per (rule number,
convention), then shared, and the initial-state score, four comparisons on
one shared record, per call.  Only the mutation metric is binned.
"""

import functools
from collections import namedtuple
from fractions import Fraction

from . import rulespace
from .dynamics import (
    _SYNCHRONOUS,
    _V1,
    _V4,
    Rule,
    Variant,
    _keyed_record,
    _label,
    _record,
    all_rules,
)

METRIC_KINDS = (
    "class-vs-rule-mutation",
    "state-vs-rule-mutation",
    "state-vs-init-perturbation",
)

MUTATION_TARGET_CHOICES = ("two-input", "all")

# Bin edges for the five-bin mutation-robustness histograms, frozen as
# exact rationals; a value falls in the first bin whose edge exceeds it
# (strict comparison), and past the last edge in the final bin.  The
# edges sit in gaps of the realized value sets, so any choice within
# the same gaps yields identical counts; these particular edges are
# recorded in emitted metadata.
TWO_INPUT_BIN_EDGES = (
    Fraction(69, 100), Fraction(795, 1000), Fraction(7, 8), Fraction(9, 10),
)
ALL_TARGET_BIN_EDGES = (
    Fraction(71, 100), Fraction(78, 100), Fraction(821, 1000), Fraction(89, 100),
)


class RobustnessScore(namedtuple("RobustnessScore", "rule metric numerator denominator")):
    """One rule's score under one metric, by rule number, kept as an exact
    numerator and denominator."""

    __slots__ = ()

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def class_robustness(rule: Rule, v: Variant | None = None) -> RobustnessScore:
    """Fraction of neighbors with the same dynamics-class label."""
    return _record(rule, _V1 if v is None else v, view=_class_score)


@functools.cache
def _class_score(number: int, tag: str, mode) -> RobustnessScore:
    own = _label(number, tag, mode)
    nbs = rulespace._neighbors(number)
    hits = sum(1 for nb in nbs if _label(nb.number, tag, mode) == own)
    return RobustnessScore(number, "class-vs-rule-mutation", hits, len(nbs))


# Unordered start-state pairs at Hamming distance 1.  State index
# 2 * x + y holds one bit per node, so such a pair differs in one bit.
_HAMMING1_STATE_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4)
                              if i ^ j in (1, 2))


def state_robustness_rule_mutation(rule: Rule,
                                   targets: str = "two-input") -> RobustnessScore:
    """Fraction of (initial state, neighbor) pairs preserving the
    limiting state under V4.  See the module docstring for the two
    neighbor conventions."""
    if type(targets) is not str or targets not in MUTATION_TARGET_CHOICES:
        raise ValueError(f"targets must be one of {MUTATION_TARGET_CHOICES}")
    if type(rule) is not Rule:
        raise ValueError(f"mutation robustness needs a Rule, got {rule!r}")
    return _state_robustness_rule_mutation(rule.number, targets)


@functools.cache
def _state_robustness_rule_mutation(number: int, targets: str) -> RobustnessScore:
    own = _keyed_record(number, "V4", _SYNCHRONOUS).landing  # the attractor set per start state
    eligible = [nb for nb in rulespace._neighbors(number) if targets == "all" or nb.arity == 2]
    hits = 0
    for nb in eligible:
        other = _keyed_record(nb.number, "V4", _SYNCHRONOUS).landing
        hits += sum(1 for i in range(4) if own[i] == other[i])
    return RobustnessScore(number, "state-vs-rule-mutation", hits, 4 * len(eligible))


def state_robustness_init_perturbation(rule: Rule) -> RobustnessScore:
    """Fraction of Hamming-1 initial-state pairs reaching the same attractor under V4."""
    return _record(rule, _V4, view=_init_score)


def _init_score(number: int, tag: str, mode) -> RobustnessScore:
    own = _keyed_record(number, tag, mode).landing
    hits = sum(1 for i, j in _HAMMING1_STATE_PAIRS if own[i] == own[j])
    return RobustnessScore(number, "state-vs-init-perturbation", hits, len(_HAMMING1_STATE_PAIRS))


def score(rule: Rule, metric: str, targets: str = "two-input") -> RobustnessScore:
    """Dispatch on ``metric``, one of ``METRIC_KINDS`` by exact ``str``; ``targets``
    is validated for every metric, for the mutation metric by its own scorer."""
    if type(metric) is not str or metric not in METRIC_KINDS:
        raise ValueError(f"metric must be one of {METRIC_KINDS}")
    if metric == "state-vs-rule-mutation":
        return state_robustness_rule_mutation(rule, targets)
    if type(targets) is not str or targets not in MUTATION_TARGET_CHOICES:
        raise ValueError(f"targets must be one of {MUTATION_TARGET_CHOICES}")
    if metric == "class-vs-rule-mutation":
        return class_robustness(rule)
    return state_robustness_init_perturbation(rule)


class Histogram(namedtuple("Histogram", "edges counts rules_per_bin")):
    """Binned scores; bin i holds values below edges[i] (strictly) and
    at or above edges[i-1], the final bin holds the rest."""

    __slots__ = ()


def _bin_index(numerator: int, denominator: int, edges: tuple[Fraction, ...]) -> int:
    for i, edge in enumerate(edges):
        if numerator * edge.denominator < edge.numerator * denominator:
            return i
    return len(edges)


def robustness_distribution(targets: str = "two-input") -> Histogram:
    """Five-bin histogram of the mutation-robustness scores with the
    frozen edges above: the two-input convention over the 72 two-input
    rules by default, or ``targets="all"``, the all-neighbor convention
    over all 81 rules."""
    if type(targets) is not str or targets not in MUTATION_TARGET_CHOICES:
        raise ValueError(f"targets must be one of {MUTATION_TARGET_CHOICES}")
    edges = TWO_INPUT_BIN_EDGES if targets == "two-input" else ALL_TARGET_BIN_EDGES
    bins: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for r in all_rules():
        if targets == "all" or r.arity == 2:
            sc = _state_robustness_rule_mutation(r.number, targets)
            bins[_bin_index(sc.numerator, sc.denominator, edges)].append(r.number)
    return Histogram(
        edges=edges,
        counts=tuple(len(b) for b in bins),
        rules_per_bin=tuple(tuple(b) for b in bins),
    )


def superstable_rules() -> tuple[int, ...]:
    """Two-input rules whose mutation robustness (two-input convention)
    exceeds the exactly-7/8 bin: the top bin of the distribution."""
    return robustness_distribution("two-input").rules_per_bin[-1]
