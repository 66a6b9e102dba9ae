"""The Hamming-1 mutation graph on the 81 rules.

Two rules are neighbors when exactly one weight differs by exactly 1,
so -1 and +1 are never adjacent and a rule's degree is 4 plus its
number of zero weights (between 4 and 8).  On top of the graph sit the
class-transition tallies and edge-of-chaos detection; the graph's
annotated exports live with the other emitters in ``report``.

Transition tallies follow the convention that reproduces the published
count matrix: every ordered neighbor pair over all 81 rules is tallied
by the dynamics-class labels of its two endpoints (rules with fewer
than two effective inputs enter under their own labels), and the tally
is halved so each unordered pair counts once.  The halving is exact
because the node-swap symmetry pairs up the ordered tallies and never
fixes an adjacent ordered pair.  A sidecar records the alternative
tally restricted to edges between two-input rules, which is what the
headline "fraction of mutations preserving the class" figure uses.
"""

import functools
from collections import namedtuple

from .dynamics import (
    _PLACE_VALUES,
    _RULES,
    _V1,
    Rule,
    Variant,
    _label,
    all_rules,
)

FIVE_CLASS_ORDER = ("F4", "F2", "M", "2C", "4C")
THREE_CLASS_ORDER = ("F", "2C+M", "4C")


def neighbors(rule: Rule) -> tuple[Rule, ...]:
    """All rules at Hamming distance 1, ascending by number."""
    if type(rule) is not Rule:
        raise ValueError(f"neighbors needs a Rule, got {rule!r}")
    return _neighbors(rule.number)


@functools.cache
def _neighbors(number: int) -> tuple[Rule, ...]:
    numbers = sorted(number + delta * p
                     for w, p in zip(_RULES[number].weights, _PLACE_VALUES)
                     for delta in (-1, 1) if -1 <= w + delta <= 1)
    return tuple(_RULES[n] for n in numbers)


class TransitionCounts(namedtuple("TransitionCounts", "labels matrix two_input_edges "
                                  "two_input_preserving low_arity_edges")):
    """Class-transition count matrix plus the sidecar tallies
    (``two_input_edges``, ``two_input_preserving``, ``low_arity_edges``):
    the alternative convention restricted to two-input rules."""

    __slots__ = ()

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.matrix)

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.matrix[i][i] for i in range(len(self.labels)))

    @property
    def total(self) -> int:
        return sum(self.row_sums)


def _labels(v: Variant | None) -> list[str]:
    """The class label of each rule under ``v`` (V1 by default), rule
    number n at position n - 1, read by key once ``v`` is checked."""
    if v is None:
        v = _V1
    elif type(v) is not Variant:
        raise ValueError(f"class tallies need a Variant, got {v!r}")
    return [_label(n, v.tag, v.mode) for n in range(1, 82)]


def _three_class_group(label: str) -> str:
    if label.startswith("F"):
        return "F"
    if label in ("M", "2C"):
        return "2C+M"
    return label


def class_transition_counts(v: Variant | None = None,
                            grouping: str = "five-class") -> TransitionCounts:
    """Tally neighbor pairs by the dynamics classes of their endpoints.

    ``grouping`` is "five-class" (per-label identity) or "three-class"
    (all-fixed-point labels merged as F, the 2C and M labels merged).
    """
    if type(grouping) is not str or grouping not in ("five-class", "three-class"):
        raise ValueError(f"unknown grouping {grouping!r}")
    rules = all_rules()  # rule number n sits at position n - 1
    label_of = _labels(v)
    if grouping == "three-class":
        label_of = [_three_class_group(lab) for lab in label_of]
        base_order = THREE_CLASS_ORDER
    else:
        base_order = FIVE_CLASS_ORDER
    observed = set(label_of)
    labels = tuple(lab for lab in base_order if lab in observed) + tuple(
        sorted(observed - set(base_order))
    )
    row_of = [labels.index(lab) for lab in label_of]
    two_input = [r.arity == 2 for r in rules]

    directed = [[0] * len(labels) for _ in labels]
    two_input_edges = 0
    two_input_preserving = 0
    low_arity_edges = 0
    for i, r in enumerate(rules):
        for j in (nb.number - 1 for nb in _neighbors(r.number)):
            directed[row_of[i]][row_of[j]] += 1
            if j > i:  # each undirected edge once
                if two_input[i] and two_input[j]:
                    two_input_edges += 1
                    if row_of[i] == row_of[j]:
                        two_input_preserving += 1
                else:
                    low_arity_edges += 1

    matrix = []
    for row in directed:
        if any(c % 2 for c in row):
            raise AssertionError("ordered tallies are not evenly paired")
        matrix.append(tuple(c // 2 for c in row))
    return TransitionCounts(
        labels=labels,
        matrix=tuple(matrix),
        two_input_edges=two_input_edges,
        two_input_preserving=two_input_preserving,
        low_arity_edges=low_arity_edges,
    )


def edge_of_chaos(v: Variant | None = None) -> tuple[Rule, ...]:
    """Two-input rules with all-fixed-point dynamics sitting one
    mutation away from a rule whose every trajectory is a 4-cycle."""
    label_of = _labels(v)  # an F label is all fixed points
    return tuple(r for r in all_rules()
                 if r.arity == 2 and label_of[r.number - 1][0] == "F"
                 and any(label_of[nb.number - 1] == "4C" for nb in _neighbors(r.number)))
