"""Transition matrices, symbolic spectra, and the two charpoly routes."""

import cmath
import itertools
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from mpnspace import (
    VARIANT_TAGS,
    UpdateMode,
    all_rules,
    attractor_set,
    charpoly_from_cycles,
    charpoly_oracle,
    classify,
    is_permutation_matrix,
    is_row_stochastic_01,
    rule_from_number,
    spectrum,
    spectrum_from_cycles,
    successor_indices,
    transition_matrix,
    variant,
)
from mpnspace import dynamics
from mpnspace.spectral import _charpoly_kernel
from oracles import functional_graph_attractors, recursive_charpoly

ALL = all_rules()
SYNC_TAGS = ("V1", "V2", "V3", "V4", "V5", "V6", "V7")


def test_rule8_v1_matrix_bit_exact():
    T = transition_matrix(rule_from_number(8), variant("V1"))
    assert T == ((0, 0, 1, 0),
                 (1, 0, 0, 0),
                 (0, 0, 0, 1),
                 (0, 1, 0, 0))


def test_transition_matrix_equals_per_entry_build():
    keys = [variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode]
    for r, v in itertools.product(ALL, keys):
        succ = successor_indices(r, v)
        want = tuple(tuple(1 if succ[i] == j else 0 for j in range(4)) for i in range(4))
        assert transition_matrix(r, v) == want, (r.number, v)


def test_all_matrices_row_stochastic_01():
    for r, tag in itertools.product(ALL, SYNC_TAGS):
        assert is_row_stochastic_01(transition_matrix(r, variant(tag)))


def test_permutation_matrix_iff_no_transients():
    for r, tag in itertools.product(ALL, SYNC_TAGS):
        v = variant(tag)
        perm = is_permutation_matrix(transition_matrix(r, v))
        assert perm == (attractor_set(r, v).max_transient == 0), (r.number, tag)


def test_charpoly_routes_agree_everywhere():
    for r, tag in itertools.product(ALL, SYNC_TAGS):
        v = variant(tag)
        assert charpoly_oracle(transition_matrix(r, v)) == charpoly_from_cycles(
            attractor_set(r, v)), (r.number, tag)


def test_charpoly_against_symbolic_algebra_v1():
    lam = sympy.Symbol("lam")
    for r in ALL:
        T = transition_matrix(r, variant("V1"))
        M = sympy.Matrix(4, 4, lambda i, j: T[j][i])
        want = sympy.Poly(M.charpoly(lam), lam).all_coeffs()
        assert charpoly_oracle(T) == [int(c) for c in want], r.number


def test_charpoly_kernel_is_the_characteristic_polynomial_of_any_4x4():
    """A polynomial identity in 16 symbolic entries, so it holds for
    every 4x4 matrix over any commutative ring."""
    lam = sympy.Symbol("lam")
    t = sympy.symbols("t0:16")
    M = sympy.Matrix(4, 4, lambda i, j: t[4 * j + i])  # the transpose
    want = sympy.Poly(M.charpoly(lam), lam).all_coeffs()
    got = _charpoly_kernel(t)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert sympy.expand(g - w) == 0


def test_charpoly_oracle_equals_recursive_expansion_on_every_successor_map():
    """All 256 self-maps of the four states, i.e. every matrix that
    transition_matrix can return."""
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for succ in itertools.product(range(4), repeat=4):
        T = tuple(unit[s] for s in succ)
        assert charpoly_oracle(T) == recursive_charpoly(T), succ


def test_charpoly_spot_values():
    v1 = variant("V1")
    assert charpoly_oracle(transition_matrix(rule_from_number(39), v1)) == [
        1, -4, 6, -4, 1]
    assert charpoly_oracle(transition_matrix(rule_from_number(8), v1)) == [
        1, 0, 0, 0, -1]
    assert charpoly_oracle(transition_matrix(rule_from_number(1), v1)) == [
        1, -2, 0, 2, -1]


@pytest.mark.parametrize("matrix", [
    [[1, 0], [0, 1]],
    [[1 if i == j else 0 for j in range(5)] for i in range(5)],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "1000010000100001",
    None,
], ids=["2x2", "5x5", "3_rows", "ragged", "float", "bool", "entry_2", "string", "none"])
def test_charpoly_oracle_rejects_malformed_matrices(matrix):
    with pytest.raises(ValueError):
        charpoly_oracle(matrix)


def test_charpoly_oracle_accepts_lists_and_tuples():
    T = transition_matrix(rule_from_number(8), variant("V1"))
    assert charpoly_oracle([list(row) for row in T]) == charpoly_oracle(T) == [1, 0, 0, 0, -1]


_SEQUENCES = frozenset((list, tuple))
_BITS = frozenset((0, 1))


def reference_accepts(T):
    """The set-based input check ``charpoly_oracle`` made before its
    one-pass check, kept as the reference predicate."""
    shape_ok = (type(T) in _SEQUENCES and len(T) == 4
                and _SEQUENCES.issuperset(map(type, T)) and {*map(len, T)} == {4})
    entries = (*T[0], *T[1], *T[2], *T[3]) if shape_ok else ()
    return bool(entries and {*map(type, entries)} == {int} and _BITS.issuperset(entries))


def assert_oracle_agrees_with_reference(T):
    if reference_accepts(T):
        assert charpoly_oracle(T) == _charpoly_kernel((*T[0], *T[1], *T[2], *T[3])), T
    else:
        with pytest.raises(ValueError) as excinfo:
            charpoly_oracle(T)
        assert str(excinfo.value) == f"matrix must be 4x4 with 0/1 int entries, got {T!r}"


def test_charpoly_oracle_accepts_every_01_matrix_the_reference_accepts():
    rows = list(itertools.product((0, 1), repeat=4))
    list_rows = [list(row) for row in rows]
    for picks in itertools.product(range(16), repeat=4):
        T = tuple(rows[i] for i in picks)
        assert reference_accepts(T)
        assert_oracle_agrees_with_reference(T)
        assert_oracle_agrees_with_reference([list_rows[i] for i in picks])


class _Row(tuple):
    pass


_I = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
MALFORMED_CORPUS = {
    "bool": [[True, 0, 0, 0], *_I[1:]],
    "bool_row": (_I[0], _I[1], _I[2], (False, False, False, True)),
    "float": [[1.0, 0, 0, 0], *_I[1:]],
    "two": (_I[0], _I[1], (0, 0, 2, 0), _I[3]),
    "minus_one": (_I[0], _I[1], _I[2], (0, 0, 0, -1)),
    "str_entry": (_I[0], ("0", 1, 0, 0), _I[2], _I[3]),
    "str_rows": ("1000", "0100", "0010", "0001"),
    "str": "1000010000100001",
    "3x4": _I[:3],
    "4x3": tuple(row[:3] for row in _I),
    "ragged": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "ragged_long": (_I[0], _I[1], _I[2], (0, 0, 0, 1, 0)),
    "5_rows": _I + ((0, 0, 0, 1),),
    "5x5": [[1 if i == j else 0 for j in range(5)] for i in range(5)],
    "dict": dict(enumerate(_I)),
    "dict_rows": tuple(dict(enumerate(row)) for row in _I),
    "none": None,
    "none_row": (_I[0], None, _I[2], _I[3]),
    "generator": (row for row in _I),
    "generator_row": (_I[0], _I[1], (b for b in _I[2]), _I[3]),
    "range_row": (_I[0], _I[1], _I[2], range(4)),
    **{f"tuple_subclass_row_{k}": tuple(_Row(row) if i == k else row for i, row in enumerate(_I))
       for k in range(4)},
    **{f"long_row_{k}": tuple(row + (0,) if i == k else row for i, row in enumerate(_I))
       for k in range(4)},
    "nested": [[list(row) for row in _I]] * 4,
    "nested_entry": ((1, (0,), 0, 0), _I[1], _I[2], _I[3]),
    "empty": (),
    "int": 1,
}


@pytest.mark.parametrize("matrix", MALFORMED_CORPUS.values(), ids=MALFORMED_CORPUS)
def test_charpoly_oracle_rejects_what_the_reference_rejects(matrix):
    assert not reference_accepts(matrix)
    assert_oracle_agrees_with_reference(matrix)


@pytest.mark.parametrize("matrix", [*MALFORMED_CORPUS.values(), [[2]], [[1]]],
                         ids=[*MALFORMED_CORPUS, "1x1_two", "1x1_one"])
def test_matrix_predicates_reject_what_the_oracle_rejects(matrix):
    for predicate in (is_row_stochastic_01, is_permutation_matrix):
        with pytest.raises(ValueError) as excinfo:
            predicate(matrix)
        assert str(excinfo.value) == f"matrix must be 4x4 with 0/1 int entries, got {matrix!r}"


def test_matrix_predicates_on_every_01_matrix():
    rows = list(itertools.product((0, 1), repeat=4))
    for picks in itertools.product(range(16), repeat=4):
        T = tuple(rows[i] for i in picks)
        stochastic = all(sum(row) == 1 for row in T)
        assert is_row_stochastic_01(T) is stochastic, T
        assert is_permutation_matrix(T) is (stochastic and len(set(picks)) == 4), T


def _eigenvalues(sp):
    """Numeric eigenvalues of a symbolic spectrum, zeros first."""
    roots = tuple(cmath.exp(2j * cmath.pi * p) for p in sp.phases)
    return (0j,) * sp.zero_count + roots


def test_spectrum_phases_for_four_cycle():
    sp = spectrum(rule_from_number(8), variant("V1"))
    assert sp.zero_count == 0
    assert sorted(sp.phases) == [Fraction(0), Fraction(1, 4),
                                 Fraction(1, 2), Fraction(3, 4)]
    eig = _eigenvalues(sp)
    for target in (1, -1, 1j, -1j):
        assert any(abs(z - target) < 1e-12 for z in eig), target


def _phase_counter(rule_number: int, tag: str) -> tuple[int, Counter]:
    sp = spectrum(rule_from_number(rule_number), variant(tag))
    return sp.zero_count, Counter(sp.phases)


def test_v1_class_spectrum_dictionary_is_biconditional():
    """Under V1 the five class labels and the five spectrum shapes
    determine each other; checked in both directions over all 81."""
    shapes = {
        "F4": (0, Counter({Fraction(0): 4})),
        "F2": (2, Counter({Fraction(0): 2})),
        "M": (0, Counter({Fraction(0): 3, Fraction(1, 2): 1})),
        "4C": (0, Counter({Fraction(0): 1, Fraction(1, 4): 1,
                           Fraction(1, 2): 1, Fraction(3, 4): 1})),
    }
    two_cycle_shapes = [
        (2, Counter({Fraction(0): 1, Fraction(1, 2): 1})),       # one 2-cycle
        (0, Counter({Fraction(0): 2, Fraction(1, 2): 2})),       # two 2-cycles
    ]
    seen = {}
    for r in ALL:
        label = classify(r, variant("V1")).label
        got = _phase_counter(r.number, "V1")
        if label == "2C":
            assert got in two_cycle_shapes, r.number
        else:
            assert got == shapes[label], r.number
        seen.setdefault(repr(got), set()).add(label)
    for labels in seen.values():
        assert len(labels) == 1  # no spectrum shape is shared by two labels


def test_four_cycle_spectrum_holds_under_every_variant():
    expect = Counter({Fraction(0): 1, Fraction(1, 4): 1,
                      Fraction(1, 2): 1, Fraction(3, 4): 1})
    hits = 0
    for r, tag in itertools.product(ALL, SYNC_TAGS):
        if classify(r, variant(tag)).label == "4C":
            assert _phase_counter(r.number, tag) == (0, expect)
            hits += 1
    assert hits >= 8


def test_mixed_class_spectrum_is_v1_scoped():
    # all eight V1 mixed rules have the four-recurrent-state shape
    for n in (1, 2, 25, 26, 28, 29, 52, 53):
        assert _phase_counter(n, "V1") == (
            0, Counter({Fraction(0): 3, Fraction(1, 2): 1})), n
    # under force-high the mixed label can carry a transient state, so
    # the dictionary deliberately does not extend beyond V1
    assert classify(rule_from_number(2), variant("V2")).label == "M"
    z, phases = _phase_counter(2, "V2")
    assert z == 1 and phases == Counter({Fraction(0): 2, Fraction(1, 2): 1})


def test_cycle_type_phases_and_class_determine_each_other_on_every_map():
    """Over all 256 self-maps of the four states, so under every variant
    and mode, the cycle type (read off the oracle's cycles), the multiset
    of nonzero-eigenvalue phases and the dynamics class correspond one to
    one: 11 of each.  The phases alone fix the label, which names 9."""
    triples = set()
    for succ in itertools.product(range(4), repeat=4):
        rec = dynamics._map_record(succ)
        cycles, _, _ = functional_graph_attractors(succ.__getitem__)
        cycle_type = tuple(sorted(len(c) for c in cycles))
        phases = tuple(sorted(spectrum_from_cycles(rec.attractor_set).phases))  # as a multiset
        triples.add((cycle_type, phases, rec.dynamics_class))
    # Each projection takes 11 values on the 11 triples: all are one to one.
    assert len(triples) == 11
    for k in range(3):
        assert len({t[k] for t in triples}) == 11
    label_of = {phases: cls.label for _, phases, cls in triples}
    assert len(label_of) == 11 and len(set(label_of.values())) == 9


def test_rules_12_and_18_have_double_plus_minus_one_pair():
    expect = Counter({Fraction(0): 2, Fraction(1, 2): 2})
    for n in (12, 18):
        assert _phase_counter(n, "V1") == (0, expect)


def test_single_two_cycle_representatives():
    expect = (2, Counter({Fraction(0): 1, Fraction(1, 2): 1}))
    for n in (4, 11, 16, 17):
        assert _phase_counter(n, "V1") == expect


def test_spectrum_from_cycles_uses_attractors_only():
    aset = attractor_set(rule_from_number(39), variant("V1"))
    sp = spectrum_from_cycles(aset)
    assert sp.zero_count == 0
    assert sp.cycle_lengths == (1, 1, 1, 1)
