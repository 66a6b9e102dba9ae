"""The command line, pinned byte for byte.

Every argv runs in-process through ``main(args=..., prog_name=...)``,
which always ends in ``SystemExit``.  For each command, the stdout and
exit code of all its argvs hash into one sha256, so any change to any
output byte of any command shows here; so is the ``--help`` text of the
top level and of every command, at a fixed width of 80 columns.  Malformed argvs must be usage
errors: exit code 2, nothing on stdout and no traceback.
"""

import hashlib
import importlib.util
import itertools
import pathlib

import pytest

from mpnspace import FORMATS, METRIC_KINDS, MUTATION_TARGET_CHOICES, TABLE_IDS, VARIANT_TAGS
from mpnspace.cli import GATE_NAME_NOTE, MODE_CHOICES, main

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _classify_argvs():
    keys = itertools.product(range(1, 82), VARIANT_TAGS, MODE_CHOICES)
    for i, (rule, tag, mode) in enumerate(keys):
        tag = tag.lower() if i % 2 else tag
        if mode == "synchronous" and rule % 2:
            yield ["classify", str(rule), tag]  # the default mode
        else:
            yield ["classify", str(rule), tag, "--mode", mode]


def _state_graph_argvs():
    for rule, tag in itertools.product(range(1, 82), VARIANT_TAGS):
        yield ["state-graph", str(rule), tag.lower() if rule % 2 else tag]


def _table_argvs():
    for table_id, fmt in itertools.product(TABLE_IDS, FORMATS):
        yield ["table", table_id, "--format", fmt]
    yield ["table", "t3a"]  # the default format, any case
    yield ["table", "Robustness", "--format", "json"]


ARGVS = {
    "classify": _classify_argvs,
    "state-graph": _state_graph_argvs,
    "table": _table_argvs,
    "rulespace export": lambda: [["rulespace", "export"]] + [
        ["rulespace", "export", "--format", fmt] for fmt in ("dot", "csv", "json")],
    "robustness": lambda: [["robustness"]] + [
        ["robustness", "--metric", metric, "--targets", targets]
        for metric in METRIC_KINDS for targets in MUTATION_TARGET_CHOICES],
    "robustness --distribution": lambda: [
        ["robustness", "--distribution"],
        ["robustness", "--distribution", "--targets", "all"],
        ["robustness", "--metric", "state-vs-rule-mutation", "--targets", "two-input",
         "--distribution"]],
    "stats": lambda: [["stats"]],
}

# sha256 over (argv, exit code, stdout) of every argv above, in order.
PINNED = {
    "classify": "1f2ae97227b86c0c5bc33e19cac9f595dbfaa6b676c420835324f5441d44e10c",
    "state-graph": "8efaea54a3719d9435d64475195768e0c362e50973259fc1e1b6608381c6ba52",
    "table": "2afaec24abb8661a8bddd0b30ecac84d4da17e696be0b2918c4f4daa69da97ff",
    "rulespace export": "1547c25710c11d3cf0288d816ddbf5b4edaea4c6a77d02d1ffd1ec4bdf442c3d",
    "robustness": "babb9d364a0d2c60c1e7190fc1a947da27ba148e18b40cdd73f7898f8e03ff02",
    "robustness --distribution": "f170fd1cbcaf71a6a657df57fd3c6fc854a194a72df8e3224e9ee51562764d92",
    "stats": "ee6d2bdf77bd37bdf2db68758148f467603f5248fa7a601ba9c56f5b34346b17",
}


def run(capsys, argv):
    """(exit code, stdout, stderr) of ``mpnspace ARGV``."""
    with pytest.raises(SystemExit) as exit_info:
        main(args=argv, prog_name="mpnspace")
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("command", ARGVS)
def test_command_stdout_is_pinned(capsys, command):
    digest = hashlib.sha256()
    for argv in ARGVS[command]():
        code, out, _ = run(capsys, argv)
        assert code == 0, (argv, code)
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0".encode())
    assert digest.hexdigest() == PINNED[command], digest.hexdigest()


def _malformed_argvs():
    workloads = _workloads()
    for rule in workloads.BAD_RULES:
        yield ["classify", str(rule), "V1"]
        yield ["state-graph", str(rule), "V1"]
    for tag in workloads.BAD_TAGS:
        yield ["classify", "8", tag]
        yield ["state-graph", "8", tag]
    for mode in workloads.BAD_MODES:
        yield ["classify", "8", "V1", "--mode", mode]
    yield from (
        ["classify", "abc", "V1"],
        ["classify", "8.0", "V1"],
        ["state-graph", "8.0", "V1"],
        ["classify", "8", "V1", "--mode", "X-first"],  # modes are case-sensitive
        ["classify", "8"],
        ["classify", "8", "V1", "extra"],
        ["state-graph"],
        ["bogus"],
        ["classify", "8", "V1", "--bogus"],
        ["table", "T99"],
        ["table", "T1", "--format", "yaml"],
        ["rulespace"],
        ["rulespace", "export", "--format", "yaml"],
        ["robustness", "--metric", "bogus"],
        ["robustness", "--distribution", "--metric", "class-vs-rule-mutation"],
        ["all"],
        [],
    )


@pytest.mark.parametrize("argv", list(_malformed_argvs()),
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_malformed_argv_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


def test_all_refuses_a_file_as_its_directory(capsys, tmp_path):
    target = tmp_path / "file"
    target.write_text("")
    code, out, err = run(capsys, ["all", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


def test_table_help_lists_the_gate_names(capsys):
    code, out, _ = run(capsys, ["table", "--help"])
    assert code == 0
    assert GATE_NAME_NOTE in " ".join(out.split())  # however the help wraps it


HELP_ARGVS = ([], ["classify"], ["table"], ["state-graph"], ["rulespace"],
              ["rulespace", "export"], ["robustness"], ["stats"], ["all"])
# sha256 over (argv, exit code, stdout) of each ``ARGV --help`` above, in order.
HELP_PINNED = "495f93b7285098660f37d96853113a7147d369e8836e3443393b64b3426b9d7c"


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in HELP_ARGVS:
        code, out, _ = run(capsys, [*argv, "--help"])
        assert code == 0 and out.startswith(f"usage: {' '.join(['mpnspace', *argv])} ")
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0".encode())
    assert digest.hexdigest() == HELP_PINNED, digest.hexdigest()
