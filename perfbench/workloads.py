"""Seeded input streams for the query and cli workloads.

Both streams are infinite generators driven by ``random.Random(seed)``,
so the same seed always yields the same inputs in the same order and a
run consumes as long a prefix as its time allows.  Inputs are what a
user would type: a rule number and variant/mode strings.  About one op
in twenty is malformed on purpose (rule 0 or 82, an unknown tag or an
unknown mode) and must be rejected at the boundary.

Keys are drawn uniformly from the 81 x 7 x 3 = 1701 (rule, tag, mode)
universe.  No process reuses objects between ops, so any reuse a cache
could exploit comes from repeated keys; ``repeat_share`` measures how
much of a stream that is.
"""

from __future__ import annotations

import random
from typing import Iterator

TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")
MODES = ("synchronous", "x-first", "y-first")
# Value alphabet per tag, used only to write explicit states for step ops.
STATE_VALUES = {"V1": (-1, 1), "V2": (-1, 1), "V3": (-1, 1),
                "V4": (0, 1), "V5": (0, 1), "V6": (0, 1), "V7": (0, 1)}

# Query op mix in percent.  "malformed" picks one of the other kinds
# uniformly and feeds it one bad input.
QUERY_MIX = (
    ("classify", 40),
    ("attractor", 15),
    ("step", 10),
    ("spectrum", 10),
    ("gates", 10),
    ("state_graph", 5),
    ("robustness", 5),
    ("malformed", 5),
)
QUERY_KINDS = tuple(k for k, _ in QUERY_MIX if k != "malformed")

# Cli op mix in percent.
CLI_MIX = (("classify", 60), ("state-graph", 35), ("malformed", 5))

BAD_RULES = (0, 82)
BAD_TAGS = ("V0", "V8", "X1")
BAD_MODES = ("z-first", "parallel")


def _deck(mix) -> tuple[str, ...]:
    return tuple(kind for kind, pct in mix for _ in range(pct))


def is_wellformed(rule: int, tag: str, mode: str) -> bool:
    return 1 <= rule <= 81 and tag in TAGS and mode in MODES


def _malform(rng: random.Random, rule: int, tag: str, mode: str,
             allow_mode: bool = True):
    defect = rng.choice(("rule", "tag", "mode") if allow_mode else ("rule", "tag"))
    if defect == "rule":
        return rng.choice(BAD_RULES), tag, mode
    if defect == "tag":
        return rule, rng.choice(BAD_TAGS), mode
    return rule, tag, rng.choice(BAD_MODES)


def query_ops(seed: int) -> Iterator[tuple]:
    """Ops as ``(kind, rule, tag, mode, state)``; ``state`` is an
    explicit joint state for step ops and None otherwise."""
    rng = random.Random(seed)
    deck = _deck(QUERY_MIX)
    while True:
        kind = rng.choice(deck)
        rule = rng.randint(1, 81)
        tag = rng.choice(TAGS)
        mode = rng.choice(MODES)
        if kind == "malformed":
            kind = rng.choice(QUERY_KINDS)
            rule, tag, mode = _malform(rng, rule, tag, mode)
        state = None
        if kind == "step":
            lo, hi = STATE_VALUES.get(tag, (0, 1))
            state = (rng.choice((lo, hi)), rng.choice((lo, hi)))
        yield (kind, rule, tag, mode, state)


def cli_ops(seed: int) -> Iterator[list[str]]:
    """Argument lists for ``mpnspace``; state-graph has no --mode."""
    rng = random.Random(seed)
    deck = _deck(CLI_MIX)
    while True:
        kind = rng.choice(deck)
        rule = rng.randint(1, 81)
        tag = rng.choice(TAGS)
        mode = rng.choice(MODES)
        if kind == "malformed":
            kind = rng.choice(("classify", "state-graph"))
            rule, tag, mode = _malform(rng, rule, tag, mode,
                                       allow_mode=kind == "classify")
        if kind == "classify":
            yield ["classify", str(rule), tag, "--mode", mode]
        else:
            yield ["state-graph", str(rule), tag]


def repeat_share(ops) -> float:
    """Share of query ops whose (rule, tag, mode) key appeared earlier in
    the stream.  Malformed ops have no key and never count as repeats."""
    seen: set = set()
    repeats = n = 0
    for _, rule, tag, mode, _ in ops:
        n += 1
        if is_wellformed(rule, tag, mode):
            key = (rule, tag, mode)
            repeats += key in seen
            seen.add(key)
    return repeats / n if n else 0.0
