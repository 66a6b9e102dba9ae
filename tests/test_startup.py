"""What importing the package costs, what it exports, and what its
output records are.

``import mpnspace`` runs no layer module: it registers the seven layers
other than ``dynamics`` to run on first use, and leaves the base layer
``dynamics``, which every command runs, to the first module that imports
from it.  A command runs only the layers it calls: ``classify`` and
``state-graph`` run ``dynamics`` alone, ``table T1`` runs ``dynamics``,
``report`` and ``transforms``, and ``all`` runs all eight.
``dynamics`` imports no other layer, and no layer imports one that
imports it back.  A module imports names from ``dynamics`` alone and
binds every other layer as a module, read on use.  The first read of
an export binds every export in the package namespace, each the very
object of its home module, and removes the module ``__getattr__`` that
did so.  ``import mpnspace.cli`` loads only what every command needs:
the stdlib modules that one command or one export format uses are
imported inside the functions that use them, and neither click nor
dataclasses (with inspect and ast) is loaded at all.  A well-formed
command loads neither the package's ``_argparser`` module nor argparse
(with gettext and locale): only help and usage errors build an argparse
parser.  In a clean interpreter (``python -S``, no ``site``), no
well-formed command imports ``typing`` or ``__future__``, and
``classify`` and ``state-graph`` import no ``re``; ``all`` imports
neither ``json`` nor ``csv``, and a csv or tsv table neither ``csv`` nor
``re``.  The nine frozen
output records are subclasses of ``collections.namedtuple`` classes,
each with its own docstring; across the whole universe they keep the
``Name(field=value, ...)`` repr, compare and hash by field values,
refuse attribute assignment, pickle and deep-copy (an ``AttractorSet``
with its basins read-only again), and behave as the tuples of their fields.
The five other records (``Rule``, ``Variant``,
``EquivalenceClass``, ``TableDocument``, ``RuleGraph``) are not tuples
but keep the same repr, equality and hashing conventions.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from collections.abc import Mapping
from graphlib import TopologicalSorter
from types import ModuleType

import pytest

import mpnspace
from mpnspace import (
    GATES,
    METRIC_KINDS,
    MUTATION_TARGET_CHOICES,
    VARIANT_TAGS,
    AttractorSet,
    DynamicsClass,
    EquivalenceClass,
    Gate,
    Histogram,
    RobustnessScore,
    Rule,
    RuleGraph,
    SignPredicates,
    Spectrum,
    TableDocument,
    TransitionCounts,
    UpdateMode,
    Variant,
    all_rules,
    attractor_set,
    build_rule_graph,
    build_table,
    class_robustness,
    class_transition_counts,
    classify,
    fisher_exact,
    gate_pair,
    odds_ratio,
    pearson,
    reduce_rules,
    robustness_distribution,
    score,
    sign_predicates,
    spearman,
    spectrum,
    variant,
)
from mpnspace.report import TABLE_IDS, quadrant_counts

# Bound by attribute: a test module global named Test* is collected by pytest.
STATS_RESULT = mpnspace.TestResult

LAYERS = ("dynamics", "gates", "report", "robustness", "rulespace", "spectral", "stats",
          "transforms")
# mpnspace.__all__, unchanged by the lazy loading of the layers.
EXPORTS = """
    ALL_TARGET_BIN_EDGES AttractorSet CLASS_LABELS DynamicsClass EquivalenceClass
    FIVE_CLASS_ORDER FORMATS GATES GATES_BY_NAME GATE_NAMES Gate Histogram METRIC_KINDS
    MUTATION_TARGET_CHOICES RobustnessScore Rule RuleGraph SignPredicates Spectrum TABLE_IDS
    THREE_CLASS_ORDER TRANSFORMATIONS TWO_INPUT_BIN_EDGES TableDocument TestResult
    TransitionCounts UpdateMode VARIANT_TAGS Variant all_rules attractor_set build_rule_graph
    build_table charpoly_from_cycles charpoly_oracle class_from_cycle_lengths class_robustness
    class_transition_counts classify edge_of_chaos emit_state_graph emit_table export_graph
    fisher_exact gate_pair gauge identify_gate is_permutation_matrix is_row_stochastic_01
    neighbors odds_ratio pearson rankdata reduce_rules render_table robustness_distribution
    rule_from_number run_all score sign_predicates spearman spectrum spectrum_from_cycles
    state_from_index state_index state_robustness_init_perturbation
    state_robustness_rule_mutation states stats_report step step_async successor_indices
    superstable_rules t12 transition_matrix variant
""".split()
DEFERRED_STDLIB = ("hashlib", "csv", "json", "cmath")
NEVER_LOADED = ("click", "dataclasses", "inspect", "ast", "dis", "tokenize")
# What only help and usage errors load.
PARSER_MODULES = ("mpnspace._argparser", "argparse", "gettext", "locale")

ALL = all_rules()
UNIVERSE = [variant(tag, mode) for tag in VARIANT_TAGS for mode in UpdateMode]

FIELDS = {
    AttractorSet: ("attractors", "basin", "steps_to_attractor"),
    DynamicsClass: ("label", "cycle_lengths"),
    Gate: ("name", "truth"),
    SignPredicates: ("cross_positive", "cross_negative", "isolated_self_negation"),
    TransitionCounts: ("labels", "matrix", "two_input_edges", "two_input_preserving",
                       "low_arity_edges"),
    RobustnessScore: ("rule", "metric", "numerator", "denominator"),
    Histogram: ("edges", "counts", "rules_per_bin"),
    STATS_RESULT: ("statistic", "p_value", "ci_low", "ci_high", "note"),
    Spectrum: ("zero_count", "phases", "cycle_lengths"),
}


def _instances(cls):
    """Every instance of ``cls`` the package hands out over the universe."""
    if cls is AttractorSet:
        return [attractor_set(r, v) for r in ALL for v in UNIVERSE]
    if cls is DynamicsClass:
        return [classify(r, v) for r in ALL for v in UNIVERSE]
    if cls is Gate:
        return list(GATES) + [g for r in ALL for v in UNIVERSE for g in gate_pair(r, v)]
    if cls is SignPredicates:
        return [sign_predicates(r) for r in ALL]
    if cls is TransitionCounts:
        return [class_transition_counts(v, grouping) for v in UNIVERSE
                for grouping in ("five-class", "three-class")]
    if cls is RobustnessScore:
        return ([score(r, metric, targets) for r in ALL for metric in METRIC_KINDS
                 for targets in MUTATION_TARGET_CHOICES]
                + [class_robustness(r, v) for r in ALL for v in UNIVERSE])
    if cls is Histogram:
        return [robustness_distribution(targets) for targets in MUTATION_TARGET_CHOICES]
    if cls is STATS_RESULT:
        quad = quadrant_counts()
        init = [float(score(r, "state-vs-init-perturbation").fraction) for r in ALL]
        mut = [float(score(r, "state-vs-rule-mutation", "all").fraction) for r in ALL]
        return [fisher_exact(quad), odds_ratio(quad), pearson(init, mut), spearman(init, mut),
                fisher_exact(((0, 0), (3, 4))), odds_ratio(((0, 2), (3, 4)))]
    if cls is Spectrum:
        return [spectrum(r, v) for r in ALL for v in UNIVERSE]
    raise AssertionError(cls)


def _values(record):
    return tuple(getattr(record, f) for f in FIELDS[type(record)])


def _value_key(record):
    """The field values in a hashable form (mappings as sorted items)."""
    return tuple(tuple(sorted(v.items())) if isinstance(v, Mapping) else v
                 for v in _values(record))


def _run_fresh(code, *options):
    """The stdout of ``code`` run in a fresh interpreter on this package,
    started with the interpreter ``options``."""
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The layers each command runs, as the README lists them.
COMMAND_LAYERS = {
    "classify": "dynamics",
    "state-graph": "dynamics",
    "table T1": "dynamics report transforms",
    "table T1 --format tsv": "dynamics report transforms",
    "table TA1": "dynamics report transforms",
    "table T2": "dynamics gates report transforms",
    "table TA2": "dynamics gates report transforms",
    "table T3A": "dynamics report rulespace",
    "table T3B": "dynamics report rulespace",
    "table T4": "dynamics report robustness rulespace",
    "table robustness": "dynamics report robustness rulespace",
    "table spectra": "dynamics report spectral",
    "robustness": "dynamics robustness rulespace",
    "robustness --distribution": "dynamics report robustness rulespace",
    "rulespace export": "dynamics report robustness rulespace",
    "stats": "dynamics report robustness rulespace stats",
    "all": " ".join(LAYERS),
}
# The arguments a command needs beyond its name.
REQUIRED_ARGS = {"classify": "8 V1", "state-graph": "8 V1", "all": "--out {tmp}"}
# What no command imports: the records are plain ``collections.namedtuple``
# subclasses and annotations are evaluated where they are defined.
NEVER_IMPORTED = ("typing", "__future__")
# What some commands also never import.  The one-rule commands compile no
# regular expression.  The package joins its JSON and csv/tsv text itself and
# imports ``json`` or ``csv`` (which imports ``re``) only for a string to
# escape or a cell to quote, which no bundle file and no table holds.
ALSO_NEVER_IMPORTED = {"classify": ("re",), "state-graph": ("re",), "all": ("json", "csv"),
                       "table T1": ("csv", "re"), "table T1 --format tsv": ("csv", "re")}


@pytest.mark.parametrize(("command", "executed"), COMMAND_LAYERS.items(),
                         ids=["-".join(c.replace("--", "").split()) for c in COMMAND_LAYERS])
def test_a_command_runs_only_the_layers_it_calls(command, executed, tmp_path):
    """A layer that has not run is still the LazyLoader's module subclass,
    which any attribute read would run, so the check reads only types.
    The process runs without ``site`` (``-S``), whose ``.pth`` files may
    import ``typing`` and ``re`` first, so every module that the command
    imports shows."""
    argv = f"{command} {REQUIRED_ARGS.get(command, '')}".format(tmp=tmp_path).split()
    executed = executed.split()
    never = NEVER_IMPORTED + ALSO_NEVER_IMPORTED.get(command, ())
    code = (
        "import sys, types\n"
        "from mpnspace.cli import main\n"
        f"try:\n    main({argv!r})\nexcept SystemExit as end:\n    assert not end.code\n"
        f"print([m for m in {list(LAYERS)!r}\n"
        "       if type(sys.modules['mpnspace.' + m]) is types.ModuleType])\n"
        "print('fractions' in sys.modules)\n"
        f"print([m for m in {list(PARSER_MODULES)!r} if m in sys.modules])\n"
        f"print([m for m in {list(never)!r} if m in sys.modules])\n"
    )
    *_, ran, imported_fractions, parser_modules, imported = _run_fresh(code, "-S").splitlines()
    assert ran == repr(executed)
    # Only the layers that compute with exact fractions import the module.
    assert imported_fractions == repr(bool({"robustness", "spectral", "stats"} & set(executed)))
    # A well-formed argv is parsed without argparse.
    assert parser_modules == "[]"
    assert imported == "[]"


def test_a_usage_error_still_comes_from_argparse():
    src = os.path.dirname(os.path.dirname(mpnspace.__file__))
    proc = subprocess.run([sys.executable, "-m", "mpnspace", "classify", "99", "V1"],
                          env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "usage: mpnspace classify [-h] [--mode {synchronous,x-first,y-first}]\n"
        "                         RULE VARIANT\n"
        "mpnspace classify: error: argument RULE: '99' is not an integer in 1..81\n")


def test_importing_the_package_alone_runs_no_layer():
    """What the query workload's set-up times: the seven other layers are
    registered and have not run, ``dynamics`` is not imported, and nor is
    ``fractions``."""
    code = (
        "import sys, types\n"
        "import mpnspace\n"
        f"for m in {list(LAYERS)!r}:\n"
        "    module = sys.modules.get('mpnspace.' + m)\n"
        "    print(m, 'absent' if module is None else\n"
        "          'ran' if type(module) is types.ModuleType else 'registered')\n"
        "print('fractions' in sys.modules)\n"
    )
    *states, imported_fractions = _run_fresh(code).splitlines()
    assert states == [f"{m} {'absent' if m == 'dynamics' else 'registered'}" for m in LAYERS]
    assert imported_fractions == "False"


def _parse(module):
    path = os.path.join(os.path.dirname(mpnspace.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _layer_imports(layer):
    """The layers that ``layer`` imports anywhere in its source, read with ast."""
    names = set()
    for node in ast.walk(_parse(layer)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x / from . import x
            names.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.add(node.module.removeprefix("mpnspace."))
        elif isinstance(node, ast.Import):
            names.update(a.name.removeprefix("mpnspace.") for a in node.names)
    return names & set(LAYERS)


def test_dynamics_is_the_base_layer_and_layer_imports_are_acyclic():
    graph = {layer: _layer_imports(layer) for layer in LAYERS}
    assert graph["dynamics"] == set()
    assert graph["gates"] == graph["spectral"] == {"dynamics"}
    order = list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert order[0] == "dynamics" and sorted(order) == sorted(LAYERS)


def test_a_module_imports_names_from_dynamics_only():
    """A from-import of a name runs its layer at once, whether or not the
    command calls it, so ``from .dynamics import f`` is the one kind
    allowed: every other layer is bound as a module (``from . import
    gates``) and read on use (``gates.gate_pair``).  The ``_argparser``
    module is not a layer: ``cli`` binds it as a module too, on the path
    of help and usage errors only."""
    by_name = {}
    for module in (*LAYERS, "cli", "_argparser"):
        for node in ast.walk(_parse(module)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                source = node.module
            elif node.level == 0 and node.module.partition(".")[0] == "mpnspace":
                source = node.module.partition(".")[2]
            else:
                continue
            if source:  # from .x import names
                offending = {source.partition(".")[0]} - {"dynamics"}
            else:  # from . import names: each must be a module, not an export
                offending = {a.name for a in node.names} - {*LAYERS, "_argparser"}
            by_name.setdefault(module, set()).update(offending)
    assert {module: names for module, names in by_name.items() if names} == {}


def test_each_export_is_the_object_of_its_home_layer():
    assert mpnspace.__all__ == EXPORTS
    for name in EXPORTS:
        obj, home = getattr(mpnspace, name), mpnspace._EXPORTS[name]
        assert obj is getattr(sys.modules[f"mpnspace.{home}"], name), name
        assert getattr(obj, "__module__", f"mpnspace.{home}") == f"mpnspace.{home}", name


def test_the_first_export_read_binds_every_export_and_removes_getattr():
    code = (
        "import sys, mpnspace\n"
        "namespace = vars(mpnspace)\n"
        "assert '__getattr__' in namespace and 'classify' not in namespace\n"
        "assert mpnspace.run_all is sys.modules['mpnspace.report'].run_all\n"
        "assert '__getattr__' not in namespace\n"
        "assert set(mpnspace.__all__) <= namespace.keys()\n"
        "print(mpnspace.classify.__module__)\n"
    )
    assert _run_fresh(code) == "mpnspace.dynamics\n"


def _loaded_by_cli_import(names):
    """Those of ``names`` in ``sys.modules`` of a fresh process started
    without ``site`` (whose ``.pth`` files may import anything) after
    ``import mpnspace.cli``."""
    return _run_fresh("import sys\n"
                      "import mpnspace.cli\n"
                      f"print(' '.join(m for m in {list(names)!r} if m in sys.modules))\n",
                      "-S").split()


def test_importing_the_cli_defers_one_command_stdlib_modules():
    assert _loaded_by_cli_import(DEFERRED_STDLIB) == []


def test_importing_the_cli_loads_neither_click_nor_dataclasses():
    assert _loaded_by_cli_import(NEVER_LOADED) == []


def test_all_exports_no_submodule():
    exported = {name: getattr(mpnspace, name) for name in mpnspace.__all__}
    assert not [name for name, obj in exported.items() if isinstance(obj, ModuleType)]
    assert {"classify", "run_all", "TestResult", "neighbors"} <= exported.keys()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_output_record_repr_equality_and_immutability(cls):
    records = _instances(cls)
    assert records and all(type(x) is cls for x in records)
    groups = {}
    for x in records:
        fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[cls])
        assert repr(x) == f"{cls.__name__}({fields})"
        groups.setdefault(_value_key(x), []).append(x)
        for f in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            x.extra = 1
    firsts = [members[0] for members in groups.values()]
    for first, members in zip(firsts, groups.values()):
        rebuilt = cls(**dict(zip(FIELDS[cls], _values(first))))
        assert all(x == rebuilt for x in members)
        assert sum(first == other for other in firsts) == 1
    if cls is AttractorSet:
        # Basins are read-only mappings, which are unhashable.
        with pytest.raises(TypeError):
            hash(records[0])
    else:
        assert len(set(records)) == len(groups)
        for first, members in zip(firsts, groups.values()):
            assert {hash(x) for x in members} == {hash(cls(*_values(first)))}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_output_records_are_tuples_of_their_fields(cls):
    x = _instances(cls)[0]
    assert x._fields == cls.__match_args__ == FIELDS[cls]
    assert tuple(x) == _values(x) and x == _values(x)
    first, *_ = x
    assert first == x[0] == getattr(x, FIELDS[cls][0])
    assert x._asdict() == dict(zip(FIELDS[cls], _values(x)))
    twin = x._replace()
    assert type(twin) is cls and twin == x
    for record in _instances(cls):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is cls
            if any(value != value for value in record):  # a NaN statistic equals no copy
                assert repr(copied) == repr(record)
            else:
                assert copied == record
            # An AttractorSet's basins come back as read-only mappings.
            assert list(map(type, copied)) == list(map(type, record))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_output_records_keep_their_own_docstrings(cls):
    """Not None, which a record gets when a statement precedes its
    docstring, nor the ``Name(field, ...)`` of a bare namedtuple."""
    doc = vars(cls)["__doc__"]
    assert doc and doc.strip()
    assert doc != f"{cls.__name__}({', '.join(FIELDS[cls])})"


def _record_instances():
    """Instances of the five non-tuple records, with their field names."""
    return {
        Rule: (("wxx", "wxy", "wyx", "wyy"), list(ALL)),
        Variant: (("tag", "mode"), UNIVERSE),
        EquivalenceClass: (("representative", "members", "generators"),
                           [c for gens in ({"T12"}, {"G"}, {"T12", "G"})
                            for c in reduce_rules(gens)]),
        TableDocument: (("table_id", "columns", "rows", "metadata"),
                        [build_table(table_id) for table_id in TABLE_IDS]),
        RuleGraph: (("nodes", "edges"), [build_rule_graph()]),
    }


@pytest.mark.parametrize("cls", [Rule, Variant, EquivalenceClass, TableDocument, RuleGraph],
                         ids=lambda cls: cls.__name__)
def test_record_repr_equality_hash_and_mutability(cls):
    fields, records = _record_instances()[cls]
    frozen = cls in (Rule, Variant, EquivalenceClass)
    assert records and all(type(x) is cls for x in records)
    for x in records:
        values = tuple(getattr(x, f) for f in fields)
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(x) == f"{cls.__name__}({shown})"
        twin = cls(*values)
        assert twin == x and twin is not x and not twin != x
        assert cls(**dict(zip(fields, values))) == x
        assert x != values and values != x  # a record is not the tuple of its fields
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)
        if cls is not Rule:  # the only ordered record
            with pytest.raises(TypeError):
                x < x  # noqa: B015
        if frozen:
            assert hash(twin) == hash(x) == hash(values)
            for f in fields:
                with pytest.raises(AttributeError):
                    setattr(x, f, getattr(x, f))
                with pytest.raises(AttributeError):
                    delattr(x, f)
            with pytest.raises(AttributeError):
                x.extra = 1
        else:
            with pytest.raises(TypeError):
                hash(x)
            setattr(twin, fields[0], None)
            assert getattr(twin, fields[0]) is None and twin != x
    if frozen:
        assert len(set(records)) == len(records)


def test_rule_number_is_derived_and_rules_order_by_weights():
    for r in ALL:
        assert Rule(*r.weights).number == r.number and r.weights == (r.wxx, r.wxy, r.wyx, r.wyy)
        with pytest.raises(AttributeError):
            r.number = 1
    assert sorted(reversed(ALL)) == sorted(ALL, key=lambda r: r.weights) == list(ALL)
    low, high = Rule(0, 0, 0, -1), Rule(0, 0, 0, 1)
    assert low < high and low <= high and high > low and high >= low and not high < low
    assert low <= Rule(0, 0, 0, -1) >= low
    with pytest.raises(TypeError):
        low < low.weights  # noqa: B015


def test_mutable_records_default_to_fresh_containers():
    assert TableDocument("T1", (), []).metadata == {}
    assert TableDocument("T1", (), []).metadata is not TableDocument("T1", (), []).metadata
    assert (RuleGraph().nodes, RuleGraph().edges) == ({}, ())
    assert RuleGraph().nodes is not RuleGraph().nodes
    assert Variant("V1") == Variant("V1", UpdateMode.SYNCHRONOUS)


@pytest.mark.parametrize("build", [
    lambda: Rule(2, 0, 0, 0),
    lambda: Rule(1.0, 0, 0, 0),
    lambda: Rule(True, 0, 0, 0),
    lambda: Variant("V9"),
    lambda: Variant("v1"),
    lambda: Variant("V1", "synchronous"),
    lambda: EquivalenceClass(2, (1, 2), frozenset({"T12"})),
    lambda: EquivalenceClass(1, [1, 2], "G"),
    lambda: EquivalenceClass(1, [1, 2], frozenset({"G"})),
    lambda: EquivalenceClass(1, 5, frozenset()),
    lambda: EquivalenceClass(1, (), frozenset()),
    lambda: EquivalenceClass(1, (1, 99), frozenset({"bogus"})),
    lambda: EquivalenceClass(1, (1, 99), frozenset({"T12"})),
    lambda: EquivalenceClass(0, (0, 1), frozenset({"T12"})),
    lambda: EquivalenceClass(1, (1, 2.0), frozenset({"T12"})),
    lambda: EquivalenceClass(True, (True,), frozenset()),
    lambda: EquivalenceClass(1, (1, 1), frozenset({"T12"})),
    lambda: EquivalenceClass(3, (3, 1), frozenset({"T12"})),
    lambda: EquivalenceClass(1, (1, 3), "G"),
    lambda: EquivalenceClass(1, (1, 3), {"G"}),
    lambda: EquivalenceClass(1, (1, 3), frozenset({"bogus"})),
    lambda: EquivalenceClass(1, (1, 3), frozenset({5})),
], ids=["rule-2", "rule-float", "rule-bool", "variant-V9", "variant-lowercase",
        "variant-str-mode", "class-representative", "class-list-members-str-generators",
        "class-list-members", "class-int-members", "class-no-members",
        "class-member-99-unknown-generator", "class-member-99", "class-member-0",
        "class-float-member", "class-bool-representative", "class-repeated-member",
        "class-descending-members", "class-str-generators", "class-set-generators",
        "class-unknown-generator", "class-int-generator"])
def test_records_reject_invalid_fields(build):
    with pytest.raises(ValueError):
        build()
