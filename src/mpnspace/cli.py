"""Command line interface.

Exit codes follow the usual convention: 0 on success, 2 for usage
errors (unknown rule numbers, variants, table ids, formats), and 1 for
unexpected internal failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report
from . import robustness as rb
from .dynamics import (
    VARIANT_TAGS,
    UpdateMode,
    all_rules,
    attractor_set,
    classify,
    emit_state_graph,
    rule_from_number,
    state_from_index,
    variant,
)

MODE_CHOICES = tuple(mode.value for mode in UpdateMode)

GATE_NAME_NOTE = (
    "Gate names are ASCII: negation is spelled 'not' (notx, noty, "
    "xANDnoty, notxANDy, NXOR) and implication 'IMP' (xIMP, yIMP); "
    "F and T are the constant false/true gates."
)


def classify_cmd(ns: argparse.Namespace) -> None:
    """Classify RULE (1..81) under VARIANT (V1..V7)."""
    rule = rule_from_number(ns.rule_number)
    v = variant(ns.variant_tag, ns.mode)
    aset = attractor_set(rule, v)
    cls = classify(rule, v)
    print(f"rule: {rule.number}  weights: {rule.weights}")
    print(f"variant: {v.tag} ({ns.mode})")
    print(f"class: {cls.label}")
    print("cycle lengths: " + ",".join(str(p) for p in aset.cycle_lengths))
    for k, cyc in enumerate(aset.attractors, start=1):
        path = " -> ".join(str(state_from_index(v, i)) for i in cyc)
        print(f"attractor {k}: {path}")
    print(f"longest transient: {aset.max_transient}")


def table_cmd(ns: argparse.Namespace) -> None:
    """Emit table ID (T1, T2, T3A, T3B, T4, TA1, TA2, robustness, spectra)."""
    print(report.emit_table(ns.table_id, ns.fmt), end="")


def state_graph_cmd(ns: argparse.Namespace) -> None:
    """Emit the 4-state one-step map of RULE under VARIANT as DOT."""
    rule = rule_from_number(ns.rule_number)
    print(emit_state_graph(rule, variant(ns.variant_tag)), end="")


def rulespace_export_cmd(ns: argparse.Namespace) -> None:
    """Export the rule graph (nodes annotated with class and robustness)."""
    print(report.export_graph(report.build_rule_graph(), ns.fmt), end="")


def robustness_cmd(ns: argparse.Namespace) -> None:
    """Per-rule robustness scores, or a binned distribution."""
    if ns.distribution:
        if ns.metric != "state-vs-rule-mutation":
            ns.usage_error("--distribution requires --metric state-vs-rule-mutation")
        payload = {"metric": ns.metric, "targets": ns.targets,
                   **report.distribution_payload(ns.targets)}
        print(report._json(payload), end="")
        return
    print("rule,numerator,denominator,value")
    for r in all_rules():
        sc = rb.score(r, ns.metric, ns.targets)
        print(f"{sc.rule},{sc.numerator},{sc.denominator},{float(sc.fraction):.6f}")


def stats_cmd(ns: argparse.Namespace) -> None:
    """Statistics report with reference-value comparison flags."""
    print(report._json(report.stats_report()), end="")


def all_cmd(ns: argparse.Namespace) -> None:
    """Write every table, export, and report into DIR with a manifest."""
    manifest = report.run_all(ns.out_dir)
    print(f"wrote {manifest['file_count']} files to {ns.out_dir} (hashes in manifest.json)")


def _rule_number(text: str) -> int:
    """RULE as ASCII digits alone: ``int`` would also take a sign, spaces,
    underscores and the digits of other scripts."""
    number = text.lstrip("0")
    if text.isascii() and text.isdigit() and len(number) <= 2 and 1 <= int(number or "0") <= 81:
        return int(number)
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer in 1..81")


def _any_case(choices: tuple[str, ...]):
    """Map any spelling of a choice to its canonical one; the parser's
    ``choices`` check rejects anything else."""
    canonical = {c.lower(): c for c in choices}
    return lambda text: canonical.get(text.lower(), text)


def _directory(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the directory name is empty")
    if os.path.lexists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} exists and is not a directory")
    return text


def _parser(prog: str, args: list[str]) -> argparse.ArgumentParser:
    """Every command with its help, but only the one named by the first
    non-option token of ``args`` gets its arguments: the others would
    read constants of layers that this command never runs."""
    named = next((arg for arg in args if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Enumerate, simulate, and classify the 81 two-node threshold "
                    "network rules under seven update variants.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name: str, run, group=commands, **kwargs) -> argparse.ArgumentParser | None:
        """Register ``name``; its parser, to add arguments to, unless another command is named."""
        sub = group.add_parser(name, help=run.__doc__, description=run.__doc__,
                               allow_abbrev=False, **kwargs)
        sub.set_defaults(run=run)
        return sub if group is not commands or name == named else None

    def rule_and_variant(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("rule_number", type=_rule_number, metavar="RULE")
        sub.add_argument("variant_tag", type=_any_case(VARIANT_TAGS), choices=VARIANT_TAGS,
                         metavar="VARIANT")

    if sub := command("classify", classify_cmd):
        rule_and_variant(sub)
        sub.add_argument("--mode", choices=MODE_CHOICES, default="synchronous",
                         help="Update order within one time step (default: %(default)s).")

    if sub := command("table", table_cmd, epilog=GATE_NAME_NOTE):
        sub.add_argument("table_id", type=_any_case(report.TABLE_IDS),
                         choices=report.TABLE_IDS, metavar="ID")
        sub.add_argument("--format", dest="fmt", choices=report.FORMATS, default="csv",
                         help="Output format (default: %(default)s).")

    if sub := command("state-graph", state_graph_cmd):
        rule_and_variant(sub)

    sub = commands.add_parser("rulespace", help="Operations on the 81-node rule graph.",
                              allow_abbrev=False)
    if named == "rulespace":
        actions = sub.add_subparsers(dest="action", metavar="ACTION", required=True)
        command("export", rulespace_export_cmd, actions).add_argument(
            "--format", dest="fmt", choices=("dot", "csv", "json"), default="dot",
            help="Output format (default: %(default)s).")

    if sub := command("robustness", robustness_cmd):
        sub.add_argument("--metric", choices=rb.METRIC_KINDS, default="state-vs-rule-mutation",
                         help="Robustness metric (default: %(default)s).")
        sub.add_argument("--targets", choices=rb.MUTATION_TARGET_CHOICES, default="two-input",
                         help="Mutation pool for the state-vs-rule-mutation metric "
                              "(default: %(default)s).")
        sub.add_argument("--distribution", action="store_true",
                         help="Print the binned distribution (state-vs-rule-mutation only) "
                              "instead of per-rule scores.")
        sub.set_defaults(usage_error=sub.error)

    command("stats", stats_cmd)
    if sub := command("all", all_cmd):
        sub.add_argument("--out", dest="out_dir", required=True, type=_directory,
                         metavar="DIR")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command; always ends by raising ``SystemExit``."""
    args = sys.argv[1:] if args is None else args
    ns = _parser(prog_name or "mpnspace", args).parse_args(args)
    ns.run(ns)
    raise SystemExit(0)


def run() -> None:
    """The process entry point: ``main()``, then ``gc.freeze()``.

    Freezing moves every live object into the permanent generation, which
    the collections of interpreter teardown skip.  Whatever ``main``
    raises, ``SystemExit`` included, propagates untouched, so ``atexit``
    handlers, stream flushing, error output and the exit status are those
    of ``main``.  In-process callers use ``main`` and keep their heap as is.
    """
    try:
        main()
    finally:
        import gc

        gc.freeze()


if __name__ == "__main__":
    run()
