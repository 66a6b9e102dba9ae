"""The boundary contract over ``mpnspace.__all__``, table-driven.

Every public function, and the five records that validate at
construction (``Rule``, ``Variant``, ``EquivalenceClass``,
``TableDocument`` and ``RuleGraph``), has one row: a valid call, and
for each parameter the probe values that are valid there.  Each
parameter in turn then takes every value of a fixed probe catalogue in
place of its valid argument.  A probe value valid for the parameter
must be accepted; every other one is a malformed call and must raise
``ValueError``, and must leave no key outside its universe in the memos
keyed by (rule number, tag, mode), (rule number, convention) or atlas
matrix.  A parameter that picks a choice takes an exact ``str``, so a
``str`` subclass is valid only where any string is data.  A public callable
with no row fails, so an addition to the public surface must state its
boundary here.
"""

import copy
import inspect
import itertools
import math
import os
from types import SimpleNamespace

import pytest

import mpnspace as mp
from mpnspace import dynamics, robustness, spectral

# Rule 8's fields, which a look-alike of a record carries.
RULE_8_FIELDS = {"wxx": -1, "wxy": -1, "wyx": 1, "wyy": 0, "weights": (-1, -1, 1, 0), "number": 8}


class EqualsAnything(str):
    """A look-alike of every choice: a str equal to any value, hashing as a
    str, whose ``upper`` and ``lower`` give the valid spellings "V1" and "t1"."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return True

    def upper(self):
        return "V1"

    def lower(self):
        return "t1"


class PlainSubclass(str):
    """A str subclass and nothing more."""


# The probe catalogue: the label of each value, as shown in a failure.
# A look-alike of a Rule or a Variant is no record, whatever its fields,
# and a str subclass is no choice, whatever it spells or equals.
PROBES = {
    "None": None, "True": True, "2.5": 2.5, "nan": math.nan, "'zz'": "zz",
    "10**400": 10 ** 400, "8": 8, "'V1'": "V1", "[1, 2]": [1, 2],
    "''": "",
    "rule 8 V1 look-alike": SimpleNamespace(
        **RULE_8_FIELDS, tag="V1", mode=mp.UpdateMode.SYNCHRONOUS),
    "rule -1 V9 look-alike": SimpleNamespace(
        **{**RULE_8_FIELDS, "number": -1, "wyy": 5}, tag="V9", mode="synchronous"),
    "str equal to anything": EqualsAnything("V9"),
    "str subclass 'all'": PlainSubclass("all"),
}
# The labels of the probes that are any str, valid wherever any str is data.
STRS = {"'zz'", "'V1'", "''", "str equal to anything", "str subclass 'all'"}

# The memos keyed by (rule number, tag, mode), (rule number, convention) or
# atlas matrix, each with its key universe.
VARIANT_KEYS = list(itertools.product(range(1, 82), mp.VARIANT_TAGS, mp.UpdateMode))
MEMOS = ((dynamics._keyed_record, VARIANT_KEYS), (robustness._class_score, VARIANT_KEYS),
         (dynamics._state_graph, VARIANT_KEYS),
         (robustness._state_robustness_rule_mutation,
          list(itertools.product(range(1, 82), mp.MUTATION_TARGET_CHOICES))),
         (spectral._atlas_charpoly, [(dynamics._UnitRowMatrix(*succ),)
                                     for succ in itertools.product(range(4), repeat=4)]))

RULE = mp.rule_from_number(8)
V1 = mp.variant("V1")
MATRIX = mp.transition_matrix(RULE, V1)
ASET = mp.attractor_set(RULE, V1)
TABLE = ((6, 1), (2, 5))
CLASS = mp.reduce_rules({"T12"})[1]

# Per callable: the arguments of one valid call, one per parameter, and per
# parameter position the labels of the probe values valid there.
ROWS = {
    "EquivalenceClass": ((CLASS.representative, CLASS.members, CLASS.generators), {}),
    "Rule": ((-1, 0, 1, 0), {}),
    "RuleGraph": (({8: {"arity": 2}}, ((8, 8),)), {}),
    "TableDocument": (("X", ("a",), [["1"]], {"n": 1}), {0: STRS, 3: {"None"}}),
    "Variant": (("V2", mp.UpdateMode.X_FIRST), {0: {"'V1'"}}),
    "all_rules": ((), {}),
    "attractor_set": ((RULE, V1), {}),
    "build_rule_graph": ((), {}),
    "build_table": (("T3A",), {}),
    "charpoly_from_cycles": ((ASET,), {}),
    "charpoly_oracle": ((MATRIX,), {}),
    "class_from_cycle_lengths": (((1, 2),), {0: {"[1, 2]"}}),
    "class_robustness": ((RULE, V1), {1: {"None"}}),
    "class_transition_counts": ((V1, "three-class"), {0: {"None"}}),
    "classify": ((RULE, V1), {}),
    "edge_of_chaos": ((V1,), {0: {"None"}}),
    "emit_state_graph": ((RULE, V1), {}),
    "emit_table": (("T3A", "tsv"), {}),
    "export_graph": ((mp.build_rule_graph(), "json"), {}),
    "fisher_exact": ((TABLE,), {}),
    "gate_pair": ((RULE, V1), {}),
    "gauge": ((RULE,), {}),
    "identify_gate": (((0, 1, 1, 0),), {}),
    "is_permutation_matrix": ((MATRIX,), {}),
    "is_row_stochastic_01": ((MATRIX,), {}),
    "neighbors": ((RULE,), {}),
    "odds_ratio": ((TABLE,), {}),
    "pearson": (([1, 2, 4, 3], [2, 1, 4, 3]), {}),
    "rankdata": (([3, 1, 2],), {0: {"[1, 2]"}}),
    "reduce_rules": (({"T12"}, mp.all_rules(), V1), {1: {"None"}, 2: {"None"}}),
    "render_table": ((mp.build_table("T3A"), "markdown"), {}),
    "robustness_distribution": (("all",), {}),
    "rule_from_number": ((81,), {0: {"8"}}),
    # Any string is a path; the test runs in a scratch directory.
    "run_all": (("bundle",), {0: STRS - {"''"}}),
    "score": ((RULE, "state-vs-rule-mutation", "all"), {}),
    "sign_predicates": ((RULE,), {}),
    "spearman": (([1, 2, 4, 3], [2, 1, 4, 3]), {}),
    "spectrum": ((RULE, V1), {}),
    "spectrum_from_cycles": ((ASET,), {}),
    "state_from_index": ((V1, 3), {}),
    "state_index": ((V1, (1, -1)), {}),
    "state_robustness_init_perturbation": ((RULE,), {}),
    "state_robustness_rule_mutation": ((RULE, "all"), {}),
    "states": ((V1,), {}),
    "stats_report": ((), {}),
    "step": ((RULE, V1, (1, -1)), {}),
    "step_async": ((RULE, V1, "y-first", (1, -1)), {}),
    "successor_indices": ((RULE, V1), {}),
    "superstable_rules": ((), {}),
    "t12": ((RULE,), {}),
    "transition_matrix": ((RULE, V1), {}),
    "variant": (("v3", "x-first"), {0: {"'V1'"}}),
}

VALIDATING_RECORDS = (mp.Rule, mp.Variant, mp.EquivalenceClass, mp.TableDocument, mp.RuleGraph)
PUBLIC_CALLABLES = [name for name in mp.__all__
                    if inspect.isfunction(getattr(mp, name))
                    or getattr(mp, name) in VALIDATING_RECORDS]


def test_every_row_names_a_public_callable():
    assert ROWS.keys() <= set(PUBLIC_CALLABLES)


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_a_malformed_argument_to_a_public_callable_is_a_value_error(name, tmp_path, monkeypatch):
    assert name in ROWS, f"public callable {name} has no boundary row"
    monkeypatch.chdir(tmp_path)
    call, (args, accepted) = getattr(mp, name), ROWS[name]
    assert len(args) == len(inspect.signature(call).parameters)
    call(*args)
    escapes = []
    for i in range(len(args)):
        for label, probe in PROBES.items():
            probed = (*args[:i], copy.copy(probe), *args[i + 1:])
            if label in accepted.get(i, ()):
                call(*probed)
                continue
            try:
                call(*probed)
            except ValueError:
                continue
            except Exception as exc:  # noqa: BLE001 - any other escape is the failure
                escapes.append(f"argument {i} = {label}: {type(exc).__name__}: {exc}")
            else:
                escapes.append(f"argument {i} = {label}: accepted")
    assert not escapes, escapes
    # With every key of its universe filled, a memo holds no other key.
    for memo, universe in MEMOS:
        for key in universe:
            memo(*key)
        assert memo.cache_info().currsize == len(universe), memo.__name__


@pytest.mark.parametrize("kind", ["devnull", "file", "dangling-symlink"])
def test_run_all_refuses_an_existing_non_directory(kind, tmp_path):
    """Any path that exists and is no directory is a ``ValueError``, raised
    before anything is written."""
    path = tmp_path / "out"
    if kind == "devnull":
        path = os.devnull
    elif kind == "file":
        path.write_text("kept")
    else:
        path.symlink_to(tmp_path / "missing")
    with pytest.raises(ValueError, match="is not a directory"):
        mp.run_all(str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if kind == "devnull" else ["out"])
    if kind == "file":
        assert path.read_text() == "kept"


def test_run_all_refuses_a_path_like_of_bytes(tmp_path):
    """A path-like naming bytes is a ``ValueError``, raised before anything
    is made."""
    class BytesPath:
        def __fspath__(self):
            return os.fsencode(tmp_path / "out")

    with pytest.raises(ValueError, match="must be a non-empty str or a str os.PathLike"):
        mp.run_all(BytesPath())
    assert list(tmp_path.iterdir()) == []
