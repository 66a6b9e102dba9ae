"""Command line interface.

Every command is described once, in ``COMMANDS``.  An argv in canonical
form (the command words, then the positionals in order, then each
option at most once, as ``--flag VALUE`` or a bare flag) is parsed
directly from that table.  Any other argv, ``--help`` and every usage
error included, goes to an argparse parser built from the same table by
the ``_argparser`` module, so help and usage messages are argparse's,
and that module and ``argparse`` are imported only then.

Exit codes follow the usual convention: 0 on success, 2 for usage
errors (unknown rule numbers, variants, table ids, formats), and 1 for
unexpected internal failures.
"""

import os
import sys
from collections import namedtuple

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


def classify_cmd(rule_number: int, variant_tag: str, mode: str) -> None:
    """Classify RULE (1..81) under VARIANT (V1..V7)."""
    rule = rule_from_number(rule_number)
    v = variant(variant_tag, mode)
    aset = attractor_set(rule, v)
    cls = classify(rule, v)
    print(f"rule: {rule.number}  weights: {rule.weights}")
    print(f"variant: {v.tag} ({mode})")
    print(f"class: {cls.label}")
    print("cycle lengths: " + ",".join(str(p) for p in aset.cycle_lengths))
    for k, cyc in enumerate(aset.attractors, start=1):
        path = " -> ".join(str(state_from_index(v, i)) for i in cyc)
        print(f"attractor {k}: {path}")
    print(f"longest transient: {aset.max_transient}")


def table_cmd(table_id: str, fmt: str) -> None:
    """Emit table ID (T1, T2, T3A, T3B, T4, TA1, TA2, robustness, spectra)."""
    print(report.emit_table(table_id, fmt), end="")


def state_graph_cmd(rule_number: int, variant_tag: str) -> None:
    """Emit the 4-state one-step map of RULE under VARIANT as DOT."""
    rule = rule_from_number(rule_number)
    print(emit_state_graph(rule, variant(variant_tag)), end="")


def rulespace_export_cmd(fmt: str) -> None:
    """Export the rule graph (nodes annotated with class and robustness)."""
    print(report.export_graph(report.build_rule_graph(), fmt), end="")


def robustness_cmd(metric: str, targets: str, distribution: bool) -> None:
    """Per-rule robustness scores, or a binned distribution."""
    if distribution:
        payload = {"metric": metric, "targets": targets,
                   **report.distribution_payload(targets)}
        print(report._json(payload), end="")
        return
    print("rule,numerator,denominator,value")
    for r in all_rules():
        sc = rb.score(r, metric, targets)
        print(f"{sc.rule},{sc.numerator},{sc.denominator},{float(sc.fraction):.6f}")


def stats_cmd() -> None:
    """Statistics report with reference-value comparison flags."""
    print(report._json(report.stats_report()), end="")


def all_cmd(out_dir: str) -> None:
    """Write every table, export, and report into DIR with a manifest."""
    manifest = report.run_all(out_dir)
    print(f"wrote {manifest['file_count']} files to {out_dir} (hashes in manifest.json)")


def _rule_number(text: str) -> int:
    """RULE as ASCII digits alone: ``int`` would also take a sign, spaces,
    underscores and the digits of other scripts."""
    number = text.lstrip("0")
    if text.isascii() and text.isdigit() and len(number) <= 2 and 1 <= int(number or "0") <= 81:
        return int(number)
    raise ValueError(f"{text!r} is not an integer in 1..81")


def _any_case(choices: tuple[str, ...]):
    """Map any spelling of a choice to its canonical one; the ``choices``
    check rejects anything else."""
    canonical = {c.lower(): c for c in choices}
    return lambda text: canonical.get(text.lower(), text)


def _directory(text: str) -> str:
    if not text:
        raise ValueError("the directory name is empty")
    if os.path.lexists(text) and not os.path.isdir(text):
        raise ValueError(f"{text!r} exists and is not a directory")
    return text


def _distribution_metric(metric: str, targets: str, distribution: bool) -> str | None:
    """The binned distribution exists for one metric only."""
    if distribution and metric != "state-vs-rule-mutation":
        return "--distribution requires --metric state-vs-rule-mutation"
    return None


class Command(namedtuple("Command", "run arguments check epilog",
                         defaults=(tuple, None, None))):
    """What runs a command, given its argument values by ``dest``; its
    arguments, built on use because their choices may read a layer that
    only this command runs; the usage error that a combination of valid
    values makes, if any; and the text that ends its help.  Each argument
    is the name or flag and the keywords of ``add_argument``, of which
    ``type`` raises ``ValueError`` on a malformed value."""

    __slots__ = ()


def _rule_and_variant() -> tuple[tuple[str, dict], ...]:
    return (("rule_number", {"type": _rule_number, "metavar": "RULE"}),
            ("variant_tag", {"type": _any_case(VARIANT_TAGS), "choices": VARIANT_TAGS,
                             "metavar": "VARIANT"}))


def _format(choices: tuple[str, ...], default: str) -> tuple[str, dict]:
    return ("--format", {"dest": "fmt", "choices": choices, "default": default,
                         "help": "Output format (default: %(default)s)."})


# Every command, by its words, in the order the help lists them.
COMMANDS = {
    "classify": Command(classify_cmd, lambda: (
        *_rule_and_variant(),
        ("--mode", {"choices": MODE_CHOICES, "default": "synchronous",
                    "help": "Update order within one time step (default: %(default)s)."}))),
    "table": Command(table_cmd, lambda: (
        ("table_id", {"type": _any_case(report.TABLE_IDS), "choices": report.TABLE_IDS,
                      "metavar": "ID"}),
        _format(report.FORMATS, "csv")), epilog=GATE_NAME_NOTE),
    "state-graph": Command(state_graph_cmd, _rule_and_variant),
    "rulespace export": Command(rulespace_export_cmd,
                                lambda: (_format(("dot", "csv", "json"), "dot"),)),
    "robustness": Command(robustness_cmd, lambda: (
        ("--metric", {"choices": rb.METRIC_KINDS, "default": "state-vs-rule-mutation",
                      "help": "Robustness metric (default: %(default)s)."}),
        ("--targets", {"choices": rb.MUTATION_TARGET_CHOICES, "default": "two-input",
                       "help": "Mutation pool for the state-vs-rule-mutation metric "
                               "(default: %(default)s)."}),
        ("--distribution", {"action": "store_true", "default": False,
                            "help": "Print the binned distribution (state-vs-rule-mutation "
                                    "only) instead of per-rule scores."})),
        check=_distribution_metric),
    "stats": Command(stats_cmd),
    "all": Command(all_cmd, lambda: (
        ("--out", {"dest": "out_dir", "required": True, "type": _directory,
                   "metavar": "DIR"}),)),
}


def _value(keywords: dict, text: str) -> object:
    """``text`` converted and checked as the value of an argument;
    ``ValueError`` if malformed, or if it starts with "-", which argparse
    may read as an option."""
    if text.startswith("-"):
        raise ValueError(f"{text!r} may be an option")
    value = keywords["type"](text) if "type" in keywords else text
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(f"{value!r} is not one of {keywords['choices']}")
    return value


def _parse_canonical(args: list[str]) -> tuple[Command, dict] | None:
    """The command and argument values of an argv in canonical form, each
    value converted and checked as argparse would; None for any other argv."""
    for name, command in COMMANDS.items():
        words = name.split()
        if args[:len(words)] == words:
            break
    else:
        return None
    options, values = {}, {}
    tokens = iter(args[len(words):])
    try:
        for name, keywords in command.arguments():
            if name.startswith("-"):
                dest = keywords.get("dest", name[2:].replace("-", "_"))
                options[name] = dest, keywords
                values[dest] = keywords.get("default")
            else:
                values[name] = _value(keywords, next(tokens))
        for flag in tokens:
            dest, keywords = options.pop(flag)  # KeyError: unknown, or given before
            bare = keywords.get("action") == "store_true"
            values[dest] = True if bare else _value(keywords, next(tokens))
    except (StopIteration, KeyError, ValueError):
        return None
    if any(keywords.get("required") for _, keywords in options.values()):
        return None
    if command.check and command.check(**values):
        return None
    return command, values


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command; always ends by raising ``SystemExit``."""
    args = sys.argv[1:] if args is None else list(args)
    parsed = _parse_canonical(args)
    if parsed is None:
        from . import _argparser

        parsed = _argparser.parser(prog_name or "mpnspace", args, COMMANDS)(args)
    command, values = parsed
    command.run(**values)
    raise SystemExit(0)


def run() -> None:
    """The process entry point: ``main()`` with the cyclic collector off,
    then ``gc.freeze()`` and the collector state found on entry restored.

    A command builds no garbage cycle that it needs freed before it ends,
    so a collection while it runs only costs time.  Freezing moves every
    live object into the permanent generation, which the collections of
    interpreter teardown skip.  Whatever ``main`` raises, ``SystemExit``
    included, propagates untouched, so ``atexit`` handlers, stream
    flushing, error output and the exit status are those of ``main``.
    In-process callers use ``main`` and keep their heap and collector as
    they are.
    """
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    run()
