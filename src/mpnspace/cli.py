"""Command line interface.

Exit codes follow the usual convention: 0 on success, 2 for usage
errors (unknown rule numbers, variants, table ids, formats), and 1 for
unexpected internal failures.
"""

from __future__ import annotations

import click

from . import report
from . import robustness as rb
from .dynamics import (
    VARIANT_TAGS,
    Rule,
    UpdateMode,
    all_rules,
    attractor_set,
    classify,
    state_from_index,
    variant,
)
from .rulespace import build_rule_graph, export_graph

MODE_CHOICES = tuple(mode.value for mode in UpdateMode)

GATE_NAME_NOTE = (
    "Gate names are ASCII: negation is spelled 'not' (notx, noty, "
    "xANDnoty, notxANDy, NXOR) and implication 'IMP' (xIMP, yIMP); "
    "F and T are the constant false/true gates."
)


@click.group()
def main():
    """Enumerate, simulate, and classify the 81 two-node threshold
    network rules under seven update variants."""


@main.command(name="classify")
@click.argument("rule_number", type=click.IntRange(1, 81), metavar="RULE")
@click.argument("variant_tag", type=click.Choice(VARIANT_TAGS, case_sensitive=False),
                metavar="VARIANT")
@click.option("--mode", type=click.Choice(MODE_CHOICES), default="synchronous",
              show_default=True, help="Update order within one time step.")
def classify_cmd(rule_number: int, variant_tag: str, mode: str):
    """Classify RULE (1..81) under VARIANT (V1..V7)."""
    rule = Rule.from_number(rule_number)
    v = variant(variant_tag, mode)
    aset = attractor_set(rule, v)
    cls = classify(rule, v)
    click.echo(f"rule: {rule.number}  weights: {rule.weights}")
    click.echo(f"variant: {v.tag} ({mode})")
    click.echo(f"class: {cls.label}")
    click.echo("cycle lengths: " + ",".join(str(p) for p in aset.cycle_lengths))
    for k, cyc in enumerate(aset.attractors, start=1):
        path = " -> ".join(str(state_from_index(v, i)) for i in cyc)
        click.echo(f"attractor {k}: {path}")
    click.echo(f"longest transient: {aset.max_transient}")


@main.command(name="table", epilog=GATE_NAME_NOTE)
@click.argument("table_id",
                type=click.Choice(report.TABLE_IDS, case_sensitive=False),
                metavar="ID")
@click.option("--format", "fmt", type=click.Choice(report.FORMATS),
              default="csv", show_default=True)
def table_cmd(table_id: str, fmt: str):
    """Emit table ID (T1, T2, T3A, T3B, T4, TA1, TA2, robustness, spectra)."""
    click.echo(report.emit_table(table_id, fmt), nl=False)


@main.command(name="state-graph")
@click.argument("rule_number", type=click.IntRange(1, 81), metavar="RULE")
@click.argument("variant_tag", type=click.Choice(VARIANT_TAGS, case_sensitive=False),
                metavar="VARIANT")
def state_graph_cmd(rule_number: int, variant_tag: str):
    """Emit the 4-state one-step map of RULE under VARIANT as DOT."""
    rule = Rule.from_number(rule_number)
    click.echo(report.emit_state_graph(rule, variant(variant_tag)), nl=False)


@main.group(name="rulespace")
def rulespace_grp():
    """Operations on the 81-node rule graph."""


@rulespace_grp.command(name="export")
@click.option("--format", "fmt", type=click.Choice(("dot", "csv", "json")),
              default="dot", show_default=True)
def rulespace_export_cmd(fmt: str):
    """Export the rule graph (nodes annotated with class and robustness)."""
    click.echo(export_graph(build_rule_graph(), fmt), nl=False)


@main.command(name="robustness")
@click.option("--metric", type=click.Choice(rb.METRIC_KINDS),
              default="state-vs-rule-mutation", show_default=True)
@click.option("--targets", type=click.Choice(rb.MUTATION_TARGET_CHOICES),
              default="two-input", show_default=True,
              help="Mutation pool for the state-vs-rule-mutation metric.")
@click.option("--distribution", is_flag=True,
              help="Print the binned distribution (state-vs-rule-mutation "
                   "only) instead of per-rule scores.")
def robustness_cmd(metric: str, targets: str, distribution: bool):
    """Per-rule robustness scores, or a binned distribution."""
    if distribution:
        if metric != "state-vs-rule-mutation":
            raise click.UsageError(
                "--distribution requires --metric state-vs-rule-mutation"
            )
        import json

        payload = {"metric": metric, "targets": targets, **report.distribution_payload(targets)}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    click.echo("rule,numerator,denominator,value")
    for r in all_rules():
        sc = rb.score(r, metric, targets)
        click.echo(f"{sc.rule},{sc.numerator},{sc.denominator},"
                   f"{float(sc.fraction):.6f}")


@main.command(name="stats")
def stats_cmd():
    """Statistics report with reference-value comparison flags."""
    import json

    click.echo(json.dumps(report.stats_report(), indent=2, sort_keys=True))


@main.command(name="all")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False), metavar="DIR")
def all_cmd(out_dir: str):
    """Write every table, export, and report into DIR with a manifest."""
    manifest = report.run_all(out_dir)
    click.echo(f"wrote {manifest['file_count']} files to {out_dir} "
               f"(hashes in manifest.json)")


if __name__ == "__main__":
    main()
