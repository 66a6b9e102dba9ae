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

Every score is a rational number stored as numerator/denominator; all
three metrics are invariant under the node-swap transformation.  Each
score is computed once per (rule, convention) and then shared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Rule, Variant, all_rules, attractor_set, classify, states, variant
from .rulespace import neighbors

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


@dataclass(frozen=True)
class RobustnessScore:
    rule: int
    metric: str
    numerator: int
    denominator: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


# Keyed by (rule, tag, mode) rather than by the Variant, so the memo
# retains no Variant objects.
_class_scores: dict[tuple, RobustnessScore] = {}


def class_robustness(rule: Rule, v: Variant | None = None) -> RobustnessScore:
    """Fraction of neighbors with the same dynamics-class label."""
    if v is None:
        v = variant("V1")
    if v.epsilon is not None:
        # Not memoised by key: epsilons are unbounded (classes still are).
        return _class_robustness(rule, v)
    key = (rule, v.tag, v.mode)
    sc = _class_scores.get(key)
    if sc is None:
        sc = _class_scores[key] = _class_robustness(rule, v)
    return sc


def _class_robustness(rule: Rule, v: Variant) -> RobustnessScore:
    own = classify(rule, v).label
    nbs = neighbors(rule)
    hits = sum(1 for nb in nbs if classify(nb, v).label == own)
    return RobustnessScore(rule.number, "class-vs-rule-mutation", hits, len(nbs))


@functools.cache
def _limiting_state_sets(rule: Rule) -> tuple[frozenset[int], ...]:
    """For each start-state index, the attractor reached under V4 as a
    state set."""
    aset = attractor_set(rule, variant("V4"))
    return tuple(frozenset(aset.basin[i]) for i in range(4))


def state_robustness_rule_mutation(rule: Rule,
                                   targets: str = "two-input") -> RobustnessScore:
    """Fraction of (initial state, neighbor) pairs preserving the
    limiting state under V4.  See the module docstring for the two
    neighbor conventions."""
    if targets not in MUTATION_TARGET_CHOICES:
        raise ValueError(f"targets must be one of {MUTATION_TARGET_CHOICES}")
    return _state_robustness_rule_mutation(rule, targets)


@functools.cache
def _state_robustness_rule_mutation(rule: Rule, targets: str) -> RobustnessScore:
    own = _limiting_state_sets(rule)
    eligible = [
        nb for nb in neighbors(rule) if targets == "all" or nb.arity == 2
    ]
    hits = 0
    for nb in eligible:
        other = _limiting_state_sets(nb)
        hits += sum(1 for i in range(4) if own[i] == other[i])
    return RobustnessScore(
        rule.number, "state-vs-rule-mutation", hits, 4 * len(eligible)
    )


def state_robustness_init_perturbation(rule: Rule) -> RobustnessScore:
    """Fraction of Hamming-1 initial-state pairs reaching the same
    attractor under V4."""
    return _state_robustness_init_perturbation(rule)


@functools.cache
def _state_robustness_init_perturbation(rule: Rule) -> RobustnessScore:
    own = _limiting_state_sets(rule)
    sts = states(variant("V4"))
    pairs = [
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if sum(1 for a, b in zip(sts[i], sts[j]) if a != b) == 1
    ]
    hits = sum(1 for i, j in pairs if own[i] == own[j])
    return RobustnessScore(
        rule.number, "state-vs-init-perturbation", hits, len(pairs)
    )


def score(rule: Rule, metric: str, targets: str = "two-input") -> RobustnessScore:
    """Dispatch on the metric kind."""
    if metric == "class-vs-rule-mutation":
        return class_robustness(rule)
    if metric == "state-vs-rule-mutation":
        return state_robustness_rule_mutation(rule, targets)
    if metric == "state-vs-init-perturbation":
        return state_robustness_init_perturbation(rule)
    raise ValueError(f"metric must be one of {METRIC_KINDS}")


@dataclass(frozen=True)
class Histogram:
    """Binned scores; bin i holds values below edges[i] (strictly) and
    at or above edges[i-1], the final bin holds the rest."""

    edges: tuple[Fraction, ...]
    counts: tuple[int, ...]
    rules_per_bin: tuple[tuple[int, ...], ...]


def _bin_index(value: Fraction, edges: tuple[Fraction, ...]) -> int:
    for i, edge in enumerate(edges):
        if value < edge:
            return i
    return len(edges)


def robustness_distribution(metric: str = "state-vs-rule-mutation",
                            targets: str = "two-input",
                            edges: tuple[Fraction, ...] | None = None) -> Histogram:
    """Five-bin histogram of the mutation-robustness scores.

    Defaults to the two-input convention over the 72 two-input rules
    with the frozen edges above; ``targets="all"`` switches to the
    all-neighbor convention over all 81 rules with its own edges.
    Other metrics require explicit ``edges``.
    """
    if metric == "state-vs-rule-mutation":
        if edges is None:
            edges = TWO_INPUT_BIN_EDGES if targets == "two-input" else ALL_TARGET_BIN_EDGES
        pool = [r for r in all_rules() if targets == "all" or r.arity == 2]
    else:
        if edges is None:
            raise ValueError(f"no canonical bin edges for metric {metric!r}")
        pool = all_rules()
    bins: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for r in pool:
        sc = score(r, metric, targets)
        bins[_bin_index(sc.fraction, edges)].append(r.number)
    return Histogram(
        edges=tuple(edges),
        counts=tuple(len(b) for b in bins),
        rules_per_bin=tuple(tuple(b) for b in bins),
    )


def superstable_rules() -> tuple[int, ...]:
    """Two-input rules whose mutation robustness (two-input convention)
    exceeds the exactly-7/8 bin: the top bin of the distribution."""
    hist = robustness_distribution("state-vs-rule-mutation", "two-input")
    return hist.rules_per_bin[-1]
