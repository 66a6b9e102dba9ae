"""Exhaustive enumeration, simulation, and classification of the 81
two-node threshold network rules under seven update variants, with
table emitters, graph exports, robustness metrics, and exact statistics.
"""

from types import ModuleType as _ModuleType

from .dynamics import (
    CLASS_LABELS,
    VARIANT_TAGS,
    AttractorSet,
    DynamicsClass,
    Rule,
    UpdateMode,
    Variant,
    all_rules,
    attractor_set,
    class_from_cycle_lengths,
    classify,
    rule_from_number,
    state_from_index,
    state_index,
    states,
    step,
    step_async,
    successor_indices,
    variant,
)
from .gates import (
    GATE_NAMES,
    GATES,
    GATES_BY_NAME,
    Gate,
    SignPredicates,
    gate_pair,
    identify_gate,
    sign_predicates,
)
from .report import (
    FORMATS,
    TABLE_IDS,
    RuleGraph,
    TableDocument,
    build_rule_graph,
    build_table,
    emit_state_graph,
    emit_table,
    export_graph,
    render_table,
    run_all,
    stats_report,
)
from .robustness import (
    ALL_TARGET_BIN_EDGES,
    METRIC_KINDS,
    MUTATION_TARGET_CHOICES,
    TWO_INPUT_BIN_EDGES,
    Histogram,
    RobustnessScore,
    class_robustness,
    robustness_distribution,
    score,
    state_robustness_init_perturbation,
    state_robustness_rule_mutation,
    superstable_rules,
)
from .rulespace import (
    FIVE_CLASS_ORDER,
    THREE_CLASS_ORDER,
    TransitionCounts,
    class_transition_counts,
    edge_of_chaos,
    neighbors,
)
from .spectral import (
    Spectrum,
    charpoly_from_cycles,
    charpoly_oracle,
    is_permutation_matrix,
    is_row_stochastic_01,
    spectrum,
    spectrum_from_cycles,
    transition_matrix,
)
from .stats import (
    TestResult,
    fisher_exact,
    odds_ratio,
    pearson,
    rankdata,
    spearman,
)
from .transforms import (
    TRANSFORMATIONS,
    EquivalenceClass,
    gauge,
    reduce_rules,
    t12,
)

__version__ = "0.1.0"

# Public names, without the submodules bound here by the imports above.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
