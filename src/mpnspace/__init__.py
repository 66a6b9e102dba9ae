"""Exhaustive enumeration, simulation, and classification of the 81
two-node threshold network rules under seven update variants, with
table emitters, graph exports, robustness metrics, and exact statistics.

Importing the package runs none of its eight layer modules: each is
registered in ``sys.modules`` and bound here through
``importlib.util.LazyLoader``, and runs on its first attribute access,
so a command loads only the layers it calls.  The first read of any
export binds them all here from their home modules, and the module
``__getattr__`` that did so deletes itself: CPython specialises
attribute reads only on a module without one.
"""

import importlib.util as _util
import sys as _sys

# Every public name, by the layer module that defines it.
_EXPORTS = {name: home for home, names in (
    ("dynamics", "CLASS_LABELS VARIANT_TAGS AttractorSet DynamicsClass Rule UpdateMode "
                 "Variant all_rules attractor_set class_from_cycle_lengths classify "
                 "emit_state_graph rule_from_number state_from_index state_index states "
                 "step step_async successor_indices variant"),
    ("gates", "GATE_NAMES GATES GATES_BY_NAME Gate SignPredicates gate_pair identify_gate "
              "sign_predicates"),
    ("report", "FORMATS TABLE_IDS RuleGraph TableDocument build_rule_graph build_table "
               "emit_table export_graph render_table run_all stats_report"),
    ("robustness", "ALL_TARGET_BIN_EDGES METRIC_KINDS MUTATION_TARGET_CHOICES "
                   "TWO_INPUT_BIN_EDGES Histogram RobustnessScore class_robustness "
                   "robustness_distribution score state_robustness_init_perturbation "
                   "state_robustness_rule_mutation superstable_rules"),
    ("rulespace", "FIVE_CLASS_ORDER THREE_CLASS_ORDER TransitionCounts "
                  "class_transition_counts edge_of_chaos neighbors"),
    ("spectral", "Spectrum charpoly_from_cycles charpoly_oracle is_permutation_matrix "
                 "is_row_stochastic_01 spectrum spectrum_from_cycles transition_matrix"),
    ("stats", "TestResult fisher_exact odds_ratio pearson rankdata spearman"),
    ("transforms", "TRANSFORMATIONS EquivalenceClass gauge reduce_rules t12"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def _lazy(layer: str):
    spec = _util.find_spec(f"{__name__}.{layer}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((layer, _lazy(layer)) for layer in sorted(set(_EXPORTS.values())))


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for export, home in _EXPORTS.items():
        namespace[export] = getattr(namespace[home], export)
    del namespace["__getattr__"]
    return namespace[name]
