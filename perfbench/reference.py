"""Expected answers for the query and cli workloads, computed without
the package.

The update rule is rewritten here from its specification (two nodes,
weights in {-1, 0, +1}, seven zero-sum conventions, three update
orders) and attractors come from the independent functional-graph
oracle in ``tests/oracles.py``, so agreement with the package is
evidence rather than an echo.  Answers use JSON shapes (lists, strings,
ints) so that worker output can be compared after a JSON round trip.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import STATE_VALUES, is_wellformed

ZERO_SUM = {"V1": "hold", "V2": "high", "V3": "low", "V4": "hold",
            "V5": "high", "V6": "low", "V7": "increment"}

# The 16 two-input gates, indexed by their truth table read as a 4-bit
# number over logical inputs (0,0), (0,1), (1,0), (1,1).
GATE_NAMES = ("F", "AND", "xANDnoty", "x", "notxANDy", "y", "XOR", "OR",
              "NOR", "NXOR", "noty", "yIMP", "notx", "xIMP", "NAND", "T")

VALUE_ERROR = "ValueError"


def weights(rule: int) -> tuple[int, int, int, int]:
    """(wxx, wxy, wyx, wyy) from the base-3 rule number 1..81."""
    m = rule - 1
    return (m // 27 - 1, (m // 9) % 3 - 1, (m // 3) % 3 - 1, m % 3 - 1)


def number(w) -> int:
    return 27 * (w[0] + 1) + 9 * (w[1] + 1) + 3 * (w[2] + 1) + (w[3] + 1) + 1


def joint_states(tag: str):
    lo, hi = STATE_VALUES[tag]
    return ((lo, lo), (lo, hi), (hi, lo), (hi, hi))


def _node(tag: str, total: int, current: int) -> int:
    lo, hi = STATE_VALUES[tag]
    rule = ZERO_SUM[tag]
    if rule == "increment":
        moved = current + (total > 0) - (total < 0)
        return 1 if moved > 0 else 0
    if total:
        return hi if total > 0 else lo
    return {"hold": current, "high": hi, "low": lo}[rule]


def next_state(rule: int, tag: str, mode: str, s):
    wxx, wxy, wyx, wyy = weights(rule)
    x, y = s
    if mode == "synchronous":
        return (_node(tag, wxx * x + wxy * y, x), _node(tag, wyx * x + wyy * y, y))
    if mode == "x-first":
        x2 = _node(tag, wxx * x + wxy * y, x)
        return (x2, _node(tag, wyx * x2 + wyy * y, y))
    y2 = _node(tag, wyx * x + wyy * y, y)
    return (_node(tag, wxx * x + wxy * y2, x), y2)


def class_label(cycle_lengths) -> str:
    lengths = sorted(cycle_lengths)
    kinds = set(lengths)
    if kinds == {1}:
        return f"F{len(lengths)}"
    if len(kinds) == 1:
        return f"{lengths[0]}C"
    if kinds == {1, 2}:
        return "M"
    return "+".join(map(str, lengths))


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class Reference:
    """Memoized expected answers; ``attractors_of`` is the oracle's
    ``functional_graph_attractors``."""

    def __init__(self, attractors_of):
        self._attractors_of = attractors_of
        self._succ: dict = {}
        self._att: dict = {}

    def successors(self, rule: int, tag: str, mode: str) -> tuple[int, ...]:
        key = (rule, tag, mode)
        if key not in self._succ:
            sts = joint_states(tag)
            self._succ[key] = tuple(
                sts.index(next_state(rule, tag, mode, s)) for s in sts
            )
        return self._succ[key]

    def attractors(self, rule: int, tag: str, mode: str):
        key = (rule, tag, mode)
        if key not in self._att:
            succ = self.successors(rule, tag, mode)
            self._att[key] = self._attractors_of(succ.__getitem__)
        return self._att[key]

    def label(self, rule: int, tag: str, mode: str) -> str:
        cycles, _, _ = self.attractors(rule, tag, mode)
        return class_label(len(c) for c in cycles)

    def state_graph(self, rule: int, tag: str, mode: str) -> str:
        cycles, _, _ = self.attractors(rule, tag, mode)
        on_cycle = {i for c in cycles for i in c}
        lines = [f"digraph state_space_rule{rule}_{tag.lower()} {{"]
        for i, (x, y) in enumerate(joint_states(tag)):
            shape = "doublecircle" if i in on_cycle else "circle"
            lines.append(f'  s{i} [label="({x},{y})" shape={shape}];')
        lines.extend(f"  s{i} -> s{j};"
                     for i, j in enumerate(self.successors(rule, tag, mode)))
        return "\n".join(lines + ["}"]) + "\n"

    def query_answer(self, op: tuple):
        """Expected worker answer for one query op (see query_worker)."""
        kind, rule, tag, mode, state = op
        if not is_wellformed(rule, tag, mode):
            return VALUE_ERROR
        if kind == "classify":
            return self.label(rule, tag, mode)
        if kind == "attractor":
            cycles, _, steps = self.attractors(rule, tag, mode)
            return [[list(c) for c in cycles], max(steps.values())]
        if kind == "step":
            return list(next_state(rule, tag, mode, tuple(state)))
        if kind == "spectrum":
            cycles, _, _ = self.attractors(rule, tag, mode)
            lengths = sorted(len(c) for c in cycles)
            phases = sorted(Fraction(k, p) for p in lengths for k in range(p))
            poly = [1]  # lambda^z * prod(lambda^p - 1), lowest power first
            for p in lengths:
                poly = _poly_mul(poly, [-1] + [0] * (p - 1) + [1])
            poly = [0] * (4 - sum(lengths)) + poly
            return [4 - sum(lengths), [str(f) for f in phases], poly[::-1]]
        if kind == "gates":
            hi = STATE_VALUES[tag][1]
            out = [next_state(rule, tag, "synchronous", s)
                   for s in joint_states(tag)]
            names = []
            for node in (0, 1):
                bits = [1 if o[node] == hi else 0 for o in out]
                names.append(GATE_NAMES[bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]])
            return names
        if kind == "state_graph":
            return self.state_graph(rule, tag, mode)
        if kind == "robustness":
            w = weights(rule)
            nbs = []
            for i in range(4):
                for d in (-1, 1):
                    if -1 <= w[i] + d <= 1:
                        nbs.append(number(w[:i] + (w[i] + d,) + w[i + 1:]))
            own = self.label(rule, tag, mode)
            hits = sum(1 for n in nbs if self.label(n, tag, mode) == own)
            return [hits, len(nbs)]
        raise ValueError(f"unknown query op kind {kind!r}")

