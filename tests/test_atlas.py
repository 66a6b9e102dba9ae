"""The memoised atlas against the plain path, over the whole universe.

Successor maps, attractor sets, classes, neighbor lists, robustness
scores, spectra, gates, state graphs and transition tallies all come
from caches, cached records or tables built at import.  Here each one is
recomputed without them, from the independent stepping oracle
``oracles.sweep`` (which imports nothing from the package), the
independent attractor oracle and the cofactor charpoly oracle, and must
be equal on every key.  The V2 and V3 keys are also checked against the
oracle's shifted-threshold form, which the package does not implement.
The class and spectrum tables (one entry per cycle type), the gate-pair
table (one per successor map) and the cycle-route charpoly are checked
for each of the 11 types and on every one of the 256 maps.  The
tests also bound the work one ``run_all`` does, check that every cache
is one the README lists and that importing the CLI fills none, that no
hand-rolled memo exists, and that a shared result cannot be changed by
one caller.
"""

import inspect
import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import mpnspace
import mpnspace.cli
from mpnspace import (
    FIVE_CLASS_ORDER,
    THREE_CLASS_ORDER,
    VARIANT_TAGS,
    Rule,
    Spectrum,
    TransitionCounts,
    UpdateMode,
    Variant,
    all_rules,
    attractor_set,
    charpoly_from_cycles,
    charpoly_oracle,
    class_from_cycle_lengths,
    class_robustness,
    class_transition_counts,
    classify,
    edge_of_chaos,
    emit_state_graph,
    gate_pair,
    gauge,
    identify_gate,
    rule_from_number,
    run_all,
    state_robustness_init_perturbation,
    state_robustness_rule_mutation,
    spectrum,
    spectrum_from_cycles,
    successor_indices,
    t12,
    transition_matrix,
    variant,
)
from mpnspace import dynamics, gates, report, robustness, rulespace, spectral
from oracles import (
    VALUES,
    compose,
    functional_graph_attractors,
    joint_states,
    node_next,
    recursive_charpoly,
    sweep,
)

ALL = all_rules()
UNIVERSE = [variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode]
# (variant, epsilon) keys: the oracle steps V2 and V3 in their
# shifted-threshold form at epsilon, or in the zero-case form at None.
SHIFTED = [(variant(tag, mode), eps)
           for tag in ("V2", "V3") for mode in UpdateMode for eps in (Fraction(1, 2), 0.25)]
CASES = [(v, None) for v in UNIVERSE] + SHIFTED

GROUPINGS = ("five-class", "three-class")
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def package_caches():
    """Every module-level object with ``cache_info`` defined in a loaded
    ``mpnspace`` submodule, by "module.name"."""
    return {f"{name.removeprefix('mpnspace.')}.{attr}": obj
            for name, module in list(sys.modules.items()) if name.startswith("mpnspace.")
            for attr, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == name}


def readme_inventory():
    """The caches the README's memo inventory lists, one bullet each."""
    with open(README, encoding="utf-8") as fh:
        return set(re.findall(r"^\* `(\w+\.\w+)`", fh.read(), re.MULTILINE))


def run_fresh(code):
    """The stdout of ``code`` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def clear_atlas():
    for cache in package_caches().values():
        cache.cache_clear()


def plain_successors(rule, v, eps=None):
    sts = joint_states(v.tag)
    return tuple(sts.index(sweep(rule.weights, v.tag, v.mode.value, s, eps)) for s in sts)


def plain_attractors(rule, v, eps=None):
    return functional_graph_attractors(plain_successors(rule, v, eps).__getitem__)


def plain_label(rule, v, eps=None):
    cycles, _, _ = plain_attractors(rule, v, eps)
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


def plain_truth_table(rule, v, pick, eps=None):
    """Logical outputs of node ``pick`` (0 for x) under synchronous steps."""
    hi = VALUES[v.tag][1]
    return tuple(int(sweep(rule.weights, v.tag, "synchronous", s, eps)[pick] == hi)
                 for s in joint_states(v.tag))


def plain_state_graph(rule, v, eps=None):
    """The DOT text of ``emit_state_graph``, built from the oracles."""
    succ = plain_successors(rule, v, eps)
    cycles, _, _ = functional_graph_attractors(succ.__getitem__)
    on_cycle = {i for cycle in cycles for i in cycle}
    lines = [f"digraph state_space_rule{rule.number}_{v.tag.lower()} {{"]
    for i, (x, y) in enumerate(joint_states(v.tag)):
        shape = "doublecircle" if i in on_cycle else "circle"
        lines.append(f'  s{i} [label="({x},{y})" shape={shape}];')
    lines += [f"  s{i} -> s{j};" for i, j in enumerate(succ)]
    return "\n".join(lines + ["}"]) + "\n"


def plain_spectrum(rule, v, eps=None):
    cycles, _, _ = plain_attractors(rule, v, eps)
    return spectrum_of_cycles(cycles)


def spectrum_of_cycles(cycles):
    """Zeros for the transient states, the p-th roots per p-cycle."""
    lengths = sorted(len(c) for c in cycles)
    return Spectrum(
        zero_count=4 - sum(lengths),
        phases=tuple(sorted(Fraction(k, p) for p in lengths for k in range(p))),
        cycle_lengths=tuple(lengths),
    )


def plain_tally(v, grouping, eps=None):
    """Ordered neighbor pairs tallied by endpoint class, then halved."""
    def group(label):
        if grouping == "five-class":
            return label
        if label.startswith("F"):
            return "F"
        return "2C+M" if label in ("2C", "M") else label

    label = {r.number: group(plain_label(r, v, eps)) for r in ALL}
    order = FIVE_CLASS_ORDER if grouping == "five-class" else THREE_CLASS_ORDER
    seen = set(label.values())
    labels = tuple(lab for lab in order if lab in seen) + tuple(sorted(seen - set(order)))
    ordered = {}
    two_input = preserving = low_arity = 0
    for r in ALL:
        for nb in plain_neighbors(r):
            pair = (label[r.number], label[nb.number])
            ordered[pair] = ordered.get(pair, 0) + 1
            if nb.number < r.number:
                continue
            if r.arity == 2 and nb.arity == 2:
                two_input += 1
                preserving += pair[0] == pair[1]
            else:
                low_arity += 1
    assert all(c % 2 == 0 for c in ordered.values())
    matrix = tuple(tuple(ordered.get((a, b), 0) // 2 for b in labels) for a in labels)
    return TransitionCounts(labels, matrix, two_input, preserving, low_arity)


def _case_ids(cases):
    return [f"{v.tag}-{v.mode.value}" + ("" if eps is None else f"-eps{eps}") for v, eps in cases]


@pytest.mark.parametrize(("v", "eps"), CASES, ids=_case_ids(CASES))
def test_memoised_dynamics_equal_plain_path(v, eps):
    for rule in ALL:
        succ = plain_successors(rule, v, eps)
        cycles, basin, steps = functional_graph_attractors(succ.__getitem__)
        label = class_from_cycle_lengths(tuple(len(c) for c in cycles))
        # A second lookup with freshly built, equal keys must hit the
        # same entries.
        for r, w in ((rule, v), (Rule(*rule.weights), Variant(v.tag, v.mode))):
            assert successor_indices(r, w) == succ, (rule.number, v)
            aset = attractor_set(r, w)
            assert aset.attractors == cycles
            assert aset.basin == basin
            assert aset.steps_to_attractor == steps
            assert classify(r, w) == label


@pytest.mark.parametrize(("v", "eps"), CASES, ids=_case_ids(CASES))
def test_memoised_views_equal_plain_path(v, eps):
    for rule in ALL:
        truths = (plain_truth_table(rule, v, 0, eps), plain_truth_table(rule, v, 1, eps))
        assert gate_pair(rule, v) == tuple(map(identify_gate, truths)), (rule.number, v)
        assert tuple(g.truth for g in gate_pair(rule, v)) == truths
        expected = plain_spectrum(rule, v, eps)
        assert spectrum(rule, v) == expected
        aset = attractor_set(rule, v)
        assert spectrum_from_cycles(aset) == expected
        assert charpoly_from_cycles(aset) == charpoly_oracle(transition_matrix(rule, v))


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize(("v", "eps"), CASES, ids=_case_ids(CASES))
def test_memoised_transition_counts_equal_plain_tally(v, eps, grouping):
    expected = plain_tally(v, grouping, eps)
    assert class_transition_counts(v, grouping) == expected
    # A second lookup with an equal, freshly built variant gives the same.
    assert class_transition_counts(Variant(v.tag, v.mode), grouping) == expected


@pytest.mark.parametrize(("v", "eps"), CASES, ids=_case_ids(CASES))
def test_memoised_class_robustness_and_edge_of_chaos_equal_plain_recomputation(v, eps):
    """Every rule's class score under ``v``, and the edge-of-chaos rules
    under ``v``: two-input, all fixed points, one mutation from a 4C rule."""
    label = {r.number: plain_label(r, v, eps) for r in ALL}
    fixed = {r.number: all(len(c) == 1 for c in plain_attractors(r, v, eps)[0]) for r in ALL}
    edge = []
    for rule in ALL:
        nbs = plain_neighbors(rule)
        same = sum(label[nb.number] == label[rule.number] for nb in nbs)
        sc = class_robustness(rule, v)
        assert (sc.rule, sc.numerator, sc.denominator) == (rule.number, same, len(nbs)), rule.number
        if rule.arity == 2 and fixed[rule.number] and any(label[nb.number] == "4C" for nb in nbs):
            edge.append(rule)
    assert edge_of_chaos(v) == edge_of_chaos(Variant(v.tag, v.mode)) == tuple(edge)


# Logical (x, y) inputs in state-index order 2 * x + y.
BITS = ((0, 0), (0, 1), (1, 0), (1, 1))
TRUTH_TABLES = tuple(itertools.product((0, 1), repeat=4))


def test_composed_maps_equal_the_direct_update_on_every_gate_pair():
    """All 16 x 16 pairs of node truth tables, in every mode: composing
    the node gates gives the update defined directly on the tables."""
    sync_maps = set()
    for tx in TRUTH_TABLES:
        for ty in TRUTH_TABLES:
            # Truth tables over (x, y); a node gate reads (own, other).
            gx, gy = tx, (ty[0], ty[2], ty[1], ty[3])
            sync = tuple(2 * tx[2 * x + y] + ty[2 * x + y] for x, y in BITS)
            x_first, y_first = [], []
            for x, y in BITS:
                x2 = tx[2 * x + y]
                x_first.append(2 * x2 + ty[2 * x2 + y])
                y2 = ty[2 * x + y]
                y_first.append(2 * tx[2 * x + y2] + y2)
            assert dynamics._compose(gx, gy, UpdateMode.SYNCHRONOUS) == sync
            assert dynamics._compose(gx, gy, UpdateMode.X_FIRST) == tuple(x_first)
            assert dynamics._compose(gx, gy, UpdateMode.Y_FIRST) == tuple(y_first)
            sync_maps.add(sync)
    assert len(sync_maps) == 4 ** 4


def test_the_written_out_composition_equals_the_plain_one_over_the_universe():
    """Every (x gate, y gate) pair of the 16 x 16 in each mode, and the
    gates of every one of the 1701 atlas keys."""
    for gx, gy, mode in itertools.product(TRUTH_TABLES, TRUTH_TABLES, UpdateMode):
        assert dynamics._compose(gx, gy, mode) == compose(gx, gy, mode.value), (gx, gy, mode)
    keys = 0
    for rule, tag, mode in itertools.product(ALL, VARIANT_TAGS, UpdateMode):
        node = dynamics._tag_gates(tag)
        wxx, wxy, wyx, wyy = rule.weights
        plain = compose(node[wxx, wxy], node[wyy, wyx], mode.value)
        assert dynamics._keyed_record(rule.number, tag, mode).successors == plain
        keys += 1
    assert keys == 1701


SYNC_CASES = [c for c in CASES if c[0].mode is UpdateMode.SYNCHRONOUS]


@pytest.mark.parametrize(("v", "eps"), SYNC_CASES, ids=_case_ids(SYNC_CASES))
def test_node_gates_equal_the_oracle_node_update(v, eps):
    lo, hi = VALUES[v.tag]
    node = dynamics._tag_gates(v.tag)
    for w_self, w_other in itertools.product((-1, 0, 1), repeat=2):
        expected = tuple(
            int(node_next(v.tag, w_self * own + w_other * other, own, eps) == hi)
            for own in (lo, hi) for other in (lo, hi))
        assert node[w_self, w_other] == expected, (w_self, w_other)
    assert len(node) == 9


@pytest.mark.parametrize(("v", "eps"), CASES, ids=_case_ids(CASES))
def test_memoised_state_graph_equals_a_fresh_render(v, eps):
    for rule in ALL:
        dot = dynamics.emit_state_graph(rule, v)
        fresh = dynamics._state_graph.__wrapped__(rule.number, v.tag, v.mode)
        assert dot == fresh == plain_state_graph(rule, v, eps)
        again = dynamics.emit_state_graph(Rule(*rule.weights), Variant(v.tag, v.mode))
        assert again is dot, (rule.number, v)
    assert dynamics._state_graph.cache_info().currsize <= 81 * 7 * 3


MAPS = list(itertools.product(range(4), repeat=4))


def cycle_type(succ):
    """The sorted cycle lengths of a map, read off the oracle's cycles."""
    cycles, _, _ = functional_graph_attractors(succ.__getitem__)
    return tuple(sorted(len(c) for c in cycles))


# One map of each cycle type (the last in product order), by the oracle.
MAP_OF_TYPE = {cycle_type(succ): succ for succ in MAPS}
CYCLE_TYPES = sorted(MAP_OF_TYPE)


def test_every_successor_map_record_equals_its_references():
    """All 4**4 maps of the four states to themselves, not only the 170
    that the 1701 keys reach: every field of a record, the spectrum of its
    cycle type, its cycle-route charpoly and its gate pair against an
    independent reference, so the atlas is exact on any map the kernel
    could produce."""
    for succ in MAPS:
        rec = dynamics._map_record(succ)
        cycles, basin, steps = functional_graph_attractors(succ.__getitem__)
        assert rec.successors == succ
        assert rec.attractor_set.attractors == cycles, succ
        assert rec.attractor_set.basin == basin, succ
        assert rec.attractor_set.steps_to_attractor == steps, succ
        assert rec.dynamics_class == class_from_cycle_lengths(tuple(len(c) for c in cycles))
        matrix = tuple(tuple(int(j == succ[i]) for j in range(4)) for i in range(4))
        assert rec.matrix == matrix, succ
        charpoly = charpoly_from_cycles(rec.attractor_set)
        assert charpoly == charpoly_oracle(matrix) == recursive_charpoly(matrix), succ
        lengths = rec.dynamics_class.cycle_lengths
        assert spectral._SPECTRA[lengths] == spectrum_of_cycles(cycles), succ
        x_bits = tuple(succ[i] // 2 for i in range(4))
        y_bits = tuple(succ[i] % 2 for i in range(4))
        assert gates._GATE_PAIRS[succ] == (identify_gate(x_bits), identify_gate(y_bits)), succ
        assert rec.landing == tuple(frozenset(basin[i]) for i in range(4)), succ
    assert dynamics._map_record.cache_info().currsize == len(gates._GATE_PAIRS) == 4 ** 4


@pytest.mark.parametrize("lengths", CYCLE_TYPES, ids=repr)
def test_the_shared_parts_of_each_cycle_type_equal_their_references(lengths):
    """The class and spectrum of a cycle type, built once at import, and the
    cycle-route charpoly, against the public builders and the references."""
    rec = dynamics._map_record(MAP_OF_TYPE[lengths])
    aset = rec.attractor_set
    assert aset.cycle_lengths == lengths
    assert dynamics._CLASSES[lengths] == class_from_cycle_lengths(lengths)
    assert spectral._SPECTRA[lengths] == spectrum_from_cycles(aset) == spectrum_of_cycles(
        aset.attractors)
    assert charpoly_from_cycles(aset) == charpoly_oracle(rec.matrix) == recursive_charpoly(
        rec.matrix)


def test_every_map_carries_its_cycle_type_and_shares_its_parts():
    """All 4**4 maps: the cycle type a record carries is the one read off
    the oracle's cycles, and its class is the very object of its type in
    the class table.  The 11 types are the keys of the class and spectrum
    tables."""
    for succ in MAPS:
        lengths, cls = cycle_type(succ), dynamics._map_record(succ).dynamics_class
        assert cls.cycle_lengths == lengths and cls is dynamics._CLASSES[lengths], succ
    assert sorted(dynamics._CLASSES) == sorted(spectral._SPECTRA) == CYCLE_TYPES
    assert len(CYCLE_TYPES) == 11


def test_every_key_reads_the_shared_views_of_its_map():
    """Every (rule, variant) key: its class and spectrum are the very
    objects of its cycle type, and its gate pair the very object of its
    synchronous map.  The keys reach every cycle type but (1, 3)."""
    types = set()
    for rule in ALL:
        for v in UNIVERSE:
            lengths = attractor_set(rule, v).cycle_lengths
            assert classify(rule, v) is dynamics._CLASSES[lengths], (rule.number, v)
            assert spectrum(rule, v) is spectral._SPECTRA[lengths], (rule.number, v)
            sync = successor_indices(rule, variant(v.tag))
            assert gate_pair(rule, v) is gates._GATE_PAIRS[sync], (rule.number, v)
            types.add(lengths)
    assert types == set(CYCLE_TYPES) - {(1, 3)}


def test_transition_matrices_are_shared_per_successor_map():
    shared = {}
    for v in UNIVERSE:
        for rule in ALL:
            matrix = transition_matrix(rule, v)
            assert matrix is shared.setdefault(successor_indices(rule, v), matrix), (rule.number, v)
            assert matrix is transition_matrix(Rule(*rule.weights), Variant(v.tag, v.mode))
    assert dynamics._map_record.cache_info().currsize <= 4 ** 4


def test_charpoly_from_cycles_returns_a_fresh_list():
    aset = attractor_set(rule_from_number(8), variant("V1"))
    first = charpoly_from_cycles(aset)
    expected = list(first)
    first.append(99)
    first[0] = -7
    assert charpoly_from_cycles(aset) == expected


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


def test_transforms_and_neighbors_return_the_shared_rules():
    for rule in ALL:
        for image in (t12(rule), gauge(rule), *rulespace.neighbors(rule)):
            assert image is rule_from_number(image.number), (rule.number, image)


def test_the_rule_table_equals_an_independent_decoding():
    # Weight tuples in base-3 digit order, wxx the most significant.
    decoded = list(itertools.product((-1, 0, 1), repeat=4))
    assert len(dynamics._RULES) == 1 + len(decoded)
    for number, (weights, rule) in enumerate(zip(decoded, all_rules(), strict=True), 1):
        assert rule is dynamics._RULES[number] is rule_from_number(number), number
        assert rule == Rule(*weights) and rule.weights == weights and rule.number == number


# Every input ``variant`` reads from its table: two spellings of each
# tag, and each mode as its string or its UpdateMode member.
TAG_SPELLINGS = (*VARIANT_TAGS, *(tag.lower() for tag in VARIANT_TAGS))
MODE_FORMS = (*(mode.value for mode in UpdateMode), *UpdateMode)


def test_interned_variants_equal_the_plain_constructor():
    assert len(dynamics._VARIANTS) == len(TAG_SPELLINGS) * len(MODE_FORMS)
    for tag in TAG_SPELLINGS:
        for mode in MODE_FORMS:
            v = variant(tag, mode)
            assert v == Variant(tag.upper(), UpdateMode(mode)), (tag, mode)
            assert v is dynamics._VARIANTS[tag, mode], (tag, mode)
            assert variant(tag, mode) is v, (tag, mode)


def test_str_subclass_tags_are_not_interned():
    class Tag(str):
        pass

    before = dict(dynamics._VARIANTS)
    v = variant(Tag("v4"), "x-first")
    assert v == Variant("V4", UpdateMode.X_FIRST)
    assert variant(Tag("v4"), "x-first") is not v
    assert v is not variant("V4", "x-first")
    assert dynamics._VARIANTS == before


class _Str(str):
    """A str subclass, which ``variant`` hands to the constructor."""


# The messages are those of the uninterned constructor, which the
# str-subclass rows reach.
MALFORMED_VARIANT_INPUTS = [
    ("V0", "x-first", "unknown variant tag 'V0'"),
    ("V8", "x-first", "unknown variant tag 'V8'"),
    ("v8", UpdateMode.Y_FIRST, "unknown variant tag 'V8'"),
    ("X1", "synchronous", "unknown variant tag 'X1'"),
    (3, "x-first", "variant tag must be a string, got 3"),
    (None, "x-first", "variant tag must be a string, got None"),
    ("V1", "z-first", "'z-first' is not a valid UpdateMode"),
    ("V1", "parallel", "'parallel' is not a valid UpdateMode"),
    ("V1", ["x-first"], "mode must be an UpdateMode, got ['x-first']"),
    ("V1", 1, "mode must be an UpdateMode, got 1"),
]
STR_SUBCLASS_INPUTS = [
    pytest.param(_Str("V0"), "x-first", "unknown variant tag 'V0'", id="str-subclass-tag"),
    pytest.param("V1", _Str("z-first"), "'z-first' is not a valid UpdateMode",
                 id="str-subclass-mode"),
]


@pytest.mark.parametrize(("tag", "mode", "message"),
                         MALFORMED_VARIANT_INPUTS + STR_SUBCLASS_INPUTS)
def test_malformed_variant_inputs_raise_and_are_not_interned(tag, mode, message):
    before = dict(dynamics._VARIANTS)
    for _ in range(2):
        with pytest.raises(ValueError) as excinfo:
            variant(tag, mode)
        assert str(excinfo.value) == message
    assert dynamics._VARIANTS == before


def test_a_warm_query_enters_no_python_frame_outside_its_entry_points():
    """The table reads and every cache key's hash run in C, so a warm
    query op enters only the package's entry functions and ``_record``."""
    allowed = {"rule_from_number", "variant", "classify", "spectrum", "gate_pair",
               "class_robustness", "emit_state_graph", "_record"}
    package = os.path.dirname(mpnspace.__file__)

    def query():
        for tag, mode in (("V1", "synchronous"), ("v4", UpdateMode.X_FIRST)):
            rule, v = rule_from_number(8), variant(tag, mode)
            classify(rule, v)
            spectrum(rule, v)
            gate_pair(rule, v)
            class_robustness(rule, v)
            emit_state_graph(rule, v)

    query()  # warm every cache the op reads
    entered = []
    sys.setprofile(lambda frame, event, _: event == "call" and entered.append(frame.f_code))
    try:
        query()
    finally:
        sys.setprofile(None)
    stray = {f"{code.co_filename}:{code.co_name}" for code in entered
             if code is not query.__code__
             and not (os.path.dirname(code.co_filename) == package and code.co_name in allowed)}
    assert not stray
    assert {code.co_name for code in entered} == allowed | {"query"}


def test_a_malformed_plain_string_pair_is_rejected_at_the_table_miss():
    """No failed ``UpdateMode`` lookup runs and no ``Variant`` is built:
    ``variant`` is the only Python frame a rejection enters."""
    pairs = [(tag, mode) for tag, mode, _ in MALFORMED_VARIANT_INPUTS
             if type(tag) is str and type(mode) in (str, UpdateMode)]
    assert len(pairs) == 6
    entered, rejected = [], 0
    sys.setprofile(lambda frame, event, _: event == "call" and entered.append(frame.f_code))
    try:
        for tag, mode in pairs:
            try:
                variant(tag, mode)
            except ValueError:
                rejected += 1
    finally:
        sys.setprofile(None)
    assert rejected == len(pairs)
    assert entered == [variant.__code__] * len(pairs)


def test_run_all_computes_each_result_once(tmp_path, monkeypatch):
    calls = {}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapper

    # The two builders of spectral, which the spectra table reads through the module.
    for name in ("spectrum_from_cycles", "charpoly_from_cycles"):
        monkeypatch.setattr(spectral, name, counted(getattr(spectral, name)))
    clear_atlas()
    run_all(str(tmp_path))
    # The spectra are built at import; the spectra table builds the charpoly
    # at most once per cycle type.
    assert "spectrum_from_cycles" not in calls
    assert 0 < calls["charpoly_from_cycles"] <= 11
    # One record per successor map the 1701 keys reach.
    assert dynamics._map_record.cache_info().misses <= 170
    assert dynamics._tag_gates.cache_info().misses <= len(VARIANT_TAGS)
    assert dynamics._keyed_record.cache_info().currsize <= 81 * 7 * 3
    # One class score per rule (V1 only), computed only on a miss.
    assert robustness._class_score.cache_info().currsize == 81
    info = robustness._state_robustness_rule_mutation.cache_info()
    assert info.misses == 81 * 2
    assert info.hits > 0


def test_below_the_public_api_the_atlas_is_read_by_key(tmp_path):
    """One ``run_all`` on an empty atlas classifies through no public
    reader, and takes neighbor lists through ``rulespace.neighbors`` only
    for the rule graph; the bodies of the robustness memos and of the state
    graph memo read the atlas by key alone, on every key."""
    boundary = {fn.__code__: name for name, fn in (
        ("variant", dynamics.variant), ("_record", dynamics._record),
        ("classify", dynamics.classify), ("neighbors", rulespace.neighbors))}

    def entries(run):
        """(boundary function, first caller that is not a comprehension) per entry."""
        entered = []

        def profile(frame, event, _):
            if event == "call" and frame.f_code in boundary:
                caller = frame.f_back
                while caller.f_code.co_name.startswith("<"):
                    caller = caller.f_back
                entered.append((boundary[frame.f_code], caller.f_code.co_name))

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return entered

    clear_atlas()
    entered = entries(lambda: run_all(str(tmp_path)))
    assert not [e for e in entered if e[0] == "classify"]
    assert {caller for name, caller in entered if name == "neighbors"} == {
        report.build_rule_graph.__name__}

    def memo_bodies():
        for rule, tag, mode in itertools.product(ALL, VARIANT_TAGS, UpdateMode):
            robustness._class_score.__wrapped__(rule.number, tag, mode)
            dynamics._state_graph.__wrapped__(rule.number, tag, mode)
        for rule, targets in itertools.product(ALL, ("two-input", "all")):
            robustness._state_robustness_rule_mutation.__wrapped__(rule.number, targets)

    assert entries(memo_bodies) == []


def test_the_readme_inventory_names_every_cache():
    assert set(package_caches()) == readme_inventory()


def test_importing_the_cli_leaves_the_atlas_empty():
    code = (
        "import sys\nimport mpnspace.cli\n"
        f"{inspect.getsource(package_caches)}\n"
        "print(sorted(name for name, cache in package_caches().items()\n"
        "             if cache.cache_info().currsize == 0))\n"
    )
    assert run_fresh(code) == f"{sorted(readme_inventory())}\n"


def test_no_module_level_container_changes_in_use(tmp_path):
    """Every memo is a cache: ``run_all`` and one call of each query kind
    leave every module-level dict, list and set of the package as the
    import left it, in a fresh process.  The import ends with the first
    read of an export, which binds every export in the package namespace."""
    code = (
        "import sys\n"
        "import mpnspace as mp, mpnspace.cli\n"
        "mp.run_all\n"
        "def containers():\n"
        "    return {(name, attr): repr(obj) for name, module in list(sys.modules.items())\n"
        "            if name.startswith('mpnspace') for attr, obj in vars(module).items()\n"
        "            if not attr.startswith('__') and isinstance(obj, (dict, list, set))}\n"
        "before = containers()\n"
        f"mp.run_all({str(tmp_path)!r})\n"
        "r, v = mp.rule_from_number(8), mp.variant('v2', 'x-first')\n"
        "mp.classify(r, v), mp.attractor_set(r, v), mp.step(r, v, (1, -1))\n"
        "mp.step_async(r, v, 'y-first', (1, 1)), mp.spectrum(r, v), mp.gate_pair(r, v)\n"
        "mp.charpoly_oracle(mp.transition_matrix(r, v)), mp.emit_state_graph(r, v)\n"
        "mp.class_robustness(r, v)\n"
        "after = containers()\n"
        "assert after.keys() == before.keys(), after.keys() ^ before.keys()\n"
        "print(sorted(key for key in before if after[key] != before[key]))\n"
    )
    assert run_fresh(code) == "[]\n"


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
