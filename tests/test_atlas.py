"""The memoised atlas against the plain path, over the whole universe.

Successor maps, attractor sets, classes, neighbor lists and robustness
scores all come from memo tables.  Here each one is recomputed without
them, from ``step``/``step_async`` and the independent attractor oracle,
and must be equal on every key.  The tests also bound the work one
``run_all`` does, check that importing the CLI computes nothing, and
check that a shared result cannot be changed by one caller.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import mpnspace
from mpnspace import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    all_rules,
    attractor_set,
    class_from_cycle_lengths,
    class_robustness,
    classify,
    rule_from_number,
    run_all,
    state_robustness_init_perturbation,
    state_robustness_rule_mutation,
    states,
    step,
    step_async,
    successor_indices,
    variant,
)
from mpnspace import dynamics, robustness, rulespace
from oracles import functional_graph_attractors

ALL = all_rules()
UNIVERSE = [variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode]
EPSILON_VARIANTS = [
    variant(tag, mode, eps)
    for tag in ("V2", "V3") for mode in UpdateMode for eps in (Fraction(1, 2), 0.25)
]

# Every memo table of the package, as "module.name": dicts, then
# functools caches.
ATLAS_TABLES = ("dynamics._successors", "dynamics._interned", "robustness._class_scores")
ATLAS_MEMOS = (
    "dynamics._rule_of_number",
    "dynamics._attractors_of",
    "dynamics._class_of",
    "rulespace._neighbors",
    "robustness._limiting_state_sets",
    "robustness._state_robustness_rule_mutation",
    "robustness._state_robustness_init_perturbation",
)
MODULES = {"dynamics": dynamics, "robustness": robustness, "rulespace": rulespace}


def resolve(name):
    module, attr = name.split(".")
    return getattr(MODULES[module], attr)


def clear_atlas():
    for name in ATLAS_TABLES:
        resolve(name).clear()
    for name in ATLAS_MEMOS:
        resolve(name).cache_clear()


def plain_successors(rule, v):
    sts = states(v)

    def nxt(s):
        if v.mode is UpdateMode.SYNCHRONOUS:
            return step(rule, v, s)
        return step_async(rule, v, v.mode, s)

    return tuple(sts.index(nxt(s)) for s in sts)


def plain_attractors(rule, v):
    return functional_graph_attractors(plain_successors(rule, v).__getitem__)


def plain_label(rule, v):
    cycles, _, _ = plain_attractors(rule, v)
    return class_from_cycle_lengths(tuple(len(c) for c in cycles)).label


def plain_neighbors(rule):
    out = []
    for i, w in enumerate(rule.weights):
        for nw in (w - 1, w + 1):
            if -1 <= nw <= 1:
                ws = list(rule.weights)
                ws[i] = nw
                out.append(Rule(*ws))
    return out


def plain_limiting_sets(rule):
    _, basin, _ = plain_attractors(rule, variant("V4"))
    return [frozenset(basin[i]) for i in range(4)]


def _variant_id(v):
    return f"{v.tag}-{v.mode.value}" + ("" if v.epsilon is None else f"-eps{v.epsilon}")


@pytest.mark.parametrize("v", UNIVERSE + EPSILON_VARIANTS, ids=_variant_id)
def test_memoised_dynamics_equal_plain_path(v):
    for rule in ALL:
        succ = plain_successors(rule, v)
        cycles, basin, steps = functional_graph_attractors(succ.__getitem__)
        label = class_from_cycle_lengths(tuple(len(c) for c in cycles))
        # A second lookup with freshly built, equal keys must hit the
        # same entries.
        for r, w in ((rule, v), (Rule(*rule.weights), variant(v.tag, v.mode, v.epsilon))):
            assert successor_indices(r, w) == succ, (rule.number, v)
            aset = attractor_set(r, w)
            assert aset.attractors == cycles
            assert aset.basin == basin
            assert aset.steps_to_attractor == steps
            assert classify(r, w) == label


@pytest.mark.parametrize("number", range(1, 82))
def test_memoised_robustness_equals_plain_recomputation(number):
    rule = rule_from_number(number)
    v1 = variant("V1")
    nbs = plain_neighbors(rule)
    assert rulespace.neighbors(rule) == tuple(sorted(nbs, key=lambda r: r.number))

    own_label = plain_label(rule, v1)
    sc = class_robustness(rule)
    assert (sc.numerator, sc.denominator) == (
        sum(plain_label(nb, v1) == own_label for nb in nbs), len(nbs))

    own = plain_limiting_sets(rule)
    for targets in ("two-input", "all"):
        pool = [nb for nb in nbs if targets == "all" or nb.arity == 2]
        hits = sum(own[i] == plain_limiting_sets(nb)[i] for nb in pool for i in range(4))
        sc = state_robustness_rule_mutation(rule, targets)
        assert (sc.numerator, sc.denominator) == (hits, 4 * len(pool)), targets

    pairs = ((0, 1), (0, 2), (1, 3), (2, 3))  # the Hamming-1 state pairs
    sc = state_robustness_init_perturbation(rule)
    assert (sc.numerator, sc.denominator) == (
        sum(own[i] == own[j] for i, j in pairs), len(pairs))


def test_epsilon_class_robustness_is_not_memoised_by_key():
    rule = rule_from_number(8)
    expected = class_robustness(rule, variant("V2"))
    before = len(robustness._class_scores)
    for eps in (Fraction(1, 3), 0.125, 0.875):
        assert class_robustness(rule, variant("V2", epsilon=eps)) == expected
    assert len(robustness._class_scores) == before


def test_run_all_computes_each_result_once(tmp_path):
    clear_atlas()
    run_all(str(tmp_path))
    assert dynamics._attractors_of.cache_info().misses <= 170
    assert len(dynamics._interned) <= 170
    assert len(dynamics._successors) <= 81 * 7 * 3
    # One class score per rule (V1 only), computed only on a miss.
    assert len(robustness._class_scores) == 81
    for memo, conventions in ((robustness._state_robustness_rule_mutation, 2),
                              (robustness._state_robustness_init_perturbation, 1)):
        info = memo.cache_info()
        assert info.misses == 81 * conventions, memo
        assert info.hits > 0, memo


def test_importing_the_cli_leaves_the_atlas_empty():
    code = (
        "import mpnspace.cli\n"
        "from mpnspace import dynamics, robustness, rulespace\n"
        f"tables = ({', '.join(ATLAS_TABLES)},)\n"
        f"memos = ({', '.join(ATLAS_MEMOS)},)\n"
        "assert not any(tables), tables\n"
        "assert not any(m.cache_info().currsize for m in memos)\n"
    )
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_shared_attractor_set_is_read_only():
    rule, v = rule_from_number(8), variant("V5")
    aset = attractor_set(rule, v)
    basin, steps = dict(aset.basin), dict(aset.steps_to_attractor)
    with pytest.raises(TypeError):
        aset.basin[0] = (3,)
    with pytest.raises(TypeError):
        aset.steps_to_attractor[0] = 9
    again = attractor_set(rule_from_number(8), variant("V5"))
    assert again.basin == basin
    assert again.steps_to_attractor == steps
