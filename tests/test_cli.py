"""The command line, pinned byte for byte.

Every argv runs in-process through ``main(args=..., prog_name=...)``,
which always ends in ``SystemExit``.  For each command, the stdout and
exit code of all its argvs hash into one sha256, so any change to any
output byte of any command shows here; so is the ``--help`` text of the
top level and of every command, at a fixed width of 80 columns.  Malformed argvs must be usage
errors: exit code 2, nothing on stdout and no traceback, and their
stderr hashes into one pinned sha256 at the same width.  The process
entry ``run`` must end a process as ``main`` does, with the heap frozen,
and run ``main`` with the cyclic collector off, then restore it.
An error raised while a layer first runs must reach stderr with its own
line.
"""

import ast
import gc
import hashlib
import importlib.util
import itertools
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from mpnspace import FORMATS, METRIC_KINDS, MUTATION_TARGET_CHOICES, TABLE_IDS, VARIANT_TAGS
from mpnspace import _argparser, cli
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


def test_all_stdout_is_pinned(capsys, tmp_path):
    out_dir = str(tmp_path / "bundle")
    code, out, err = run(capsys, ["all", "--out", out_dir])
    assert (code, err) == (0, "")
    assert out == f"wrote 14 files to {out_dir} (hashes in manifest.json)\n"


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
        # RULE is ASCII digits alone, though int() takes each of these.
        ["classify", "1_0", "V1"],
        ["classify", "+8", "V1"],
        ["classify", " 8", "V1"],
        ["classify", "\u0668", "V1"],  # ARABIC-INDIC DIGIT EIGHT
        ["classify", "\uff18", "V1"],  # FULLWIDTH DIGIT EIGHT
        ["state-graph", "+8", "V1"],
        ["classify", "9" * 5001, "V1"],
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
        ["all", "--out", ""],
        ["all", "--out", os.devnull],  # exists, and is not a directory
        [],
    )


# Spellings that argparse accepts and the direct parse declines, each
# beside its canonical form.
NON_CANONICAL = [
    (["classify", "8", "V1", "--mode=x-first"], ["classify", "8", "V1", "--mode", "x-first"]),
    (["classify", "--mode", "x-first", "8", "V1"], ["classify", "8", "V1", "--mode", "x-first"]),
    (["classify", "8", "--mode", "x-first", "V1"], ["classify", "8", "V1", "--mode", "x-first"]),
    (["classify", "8", "V1", "--mode", "y-first", "--mode", "x-first"],
     ["classify", "8", "V1", "--mode", "x-first"]),
    (["classify", "--", "8", "V1"], ["classify", "8", "V1"]),
    (["classify", "8", "V1", "--"], ["classify", "8", "V1"]),
    (["state-graph", "8", "--", "V1"], ["state-graph", "8", "V1"]),
    (["table", "T1", "--format=json"], ["table", "T1", "--format", "json"]),
    (["rulespace", "export", "--format=csv"], ["rulespace", "export", "--format", "csv"]),
    (["robustness", "--distribution", "--distribution"], ["robustness", "--distribution"]),
    (["robustness", "--targets", "two-input", "--targets", "all"],
     ["robustness", "--targets", "all"]),
]
# Non-canonical argvs that argparse refuses too, beyond the malformed
# argvs above.
REFUSED = [
    ["--", "classify", "8", "V1"],
    ["classify", "8", "V1", "--mode"],
    ["classify", "8", "V1", "--mode", "-x"],
    ["classify", "8", "V1", "--mo", "x-first"],  # no abbreviations
    ["classify", "-8", "V1"],
    ["classify", "8", "V1", "--mode", "x-first", "extra"],
    ["table"],
    ["rulespace", "export", "extra"],
    ["robustness", "--distribution", "yes"],
    ["robustness", "--metric"],
    ["stats", "extra"],
    ["all", "--out"],
    ["all", "--out", "--out"],
    ["all", "--out", "-d"],  # argparse reads "-d" as an option
]


@pytest.mark.parametrize("argv", [*_malformed_argvs(), *REFUSED], ids=lambda argv: " ".join(
    arg if len(arg) <= 80 else f"<{len(arg)} digits>" for arg in argv) or "(none)")
def test_malformed_argv_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


# sha256 over (argv, exit code, stderr) of each argv of ``_malformed_argvs``, in order.
USAGE_ERRORS_PINNED = "5663532c915fcf2ec252d8703d830ee4eff55f0f4d3776d3205b0574faed763d"


def test_usage_error_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in _malformed_argvs():
        code, _, err = run(capsys, argv)
        digest.update(f"{' '.join(argv)}\0{code}\0{err}\0".encode())
    assert digest.hexdigest() == USAGE_ERRORS_PINNED, digest.hexdigest()


def test_all_refuses_a_file_as_its_directory(capsys, tmp_path):
    target = tmp_path / "file"
    target.write_text("")
    code, out, err = run(capsys, ["all", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err


def test_a_rule_number_may_have_leading_zeros(capsys):
    padded, plain = run(capsys, ["classify", "08", "V1"]), run(capsys, ["classify", "8", "V1"])
    assert padded == plain and padded[0] == 0


def test_table_help_lists_the_gate_names(capsys):
    code, out, _ = run(capsys, ["table", "--help"])
    assert code == 0
    assert GATE_NAME_NOTE in " ".join(out.split())  # however the help wraps it


HELP_ARGVS = ([], ["classify"], ["table"], ["state-graph"], ["rulespace"],
              ["rulespace", "export"], ["robustness"], ["stats"], ["all"])
# sha256 over (argv, exit code, stdout) of each ``ARGV --help`` above, in
# order, per Python minor version: the argparse of 3.13 lays out the top-level
# command list differently (a wider name column, other line breaks).
HELP_PINNED = {
    **dict.fromkeys([(3, 10), (3, 11), (3, 12)],
                    "495f93b7285098660f37d96853113a7147d369e8836e3443393b64b3426b9d7c"),
    (3, 13): "8da895a9aa7a0243f56866bd2f7962723f84e3280c6e0530ab71d5c2ff1d0d83",
}


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in HELP_ARGVS:
        code, out, _ = run(capsys, [*argv, "--help"])
        assert code == 0 and out.startswith(f"usage: {' '.join(['mpnspace', *argv])} ")
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0".encode())
    assert digest.hexdigest() == HELP_PINNED.get(sys.version_info[:2]), digest.hexdigest()


def _spellings(word):
    """``word`` as given, in lower and upper case, and capitalised."""
    return sorted({word, word.lower(), word.upper(), word.capitalize()})


def _canonical_argvs(out_dir):
    """Every well-formed argv in canonical form: the command words, the
    positionals in order, then each option at most once.  RULE is
    spelled with and without a leading zero, and VARIANT and ID in each
    case; ``all`` writes to ``out_dir`` and to a new directory in it."""
    for rule, tag in itertools.product(range(1, 82), VARIANT_TAGS):
        for number, spelling in itertools.product((str(rule), f"0{rule}"), _spellings(tag)):
            yield ["classify", number, spelling]
            yield from (["classify", number, spelling, "--mode", mode] for mode in MODE_CHOICES)
            yield ["state-graph", number, spelling]
    for table_id in TABLE_IDS:
        for spelling in _spellings(table_id):
            yield ["table", spelling]
            yield from (["table", spelling, "--format", fmt] for fmt in FORMATS)
    yield ["rulespace", "export"]
    yield from (["rulespace", "export", "--format", fmt] for fmt in ("dot", "csv", "json"))
    values = {"--metric": METRIC_KINDS, "--targets": MUTATION_TARGET_CHOICES,
              "--distribution": (None,)}  # a bare flag
    for flags in itertools.chain.from_iterable(
            itertools.permutations(values, n) for n in range(len(values) + 1)):
        for given in itertools.product(*(values[flag] for flag in flags)):
            options = dict(zip(flags, given))
            if ("--distribution" in options
                    and options.get("--metric", "state-vs-rule-mutation")
                    != "state-vs-rule-mutation"):
                continue
            yield ["robustness", *(token for option in options.items() for token in option
                                   if token is not None)]
    yield ["stats"]
    yield ["all", "--out", out_dir]
    yield ["all", "--out", os.path.join(out_dir, "new")]


def _typed(values):
    return {dest: (type(value), value) for dest, value in values.items()}


def test_the_direct_parse_equals_argparse_over_every_canonical_argv(tmp_path):
    """The direct parse is a fast path of argparse: over the whole universe
    of canonical argvs it gives the command and the argument values,
    types included, that the argparse parser gives."""
    parsers, count = {}, 0
    for argv in _canonical_argvs(str(tmp_path)):
        if argv[0] not in parsers:
            parsers[argv[0]] = _argparser.parser("mpnspace", argv, cli.COMMANDS)
        direct = cli._parse_canonical(argv)
        assert direct is not None, argv
        (command, values), (expected_command, expected) = direct, parsers[argv[0]](argv)
        assert command is expected_command, argv
        assert _typed(values) == _typed(expected), argv
        count += 1
    # classify in four forms and state-graph; 24 table-id spellings in five
    # forms; rulespace export in four; 37 robustness argvs; stats; all twice.
    assert count == 81 * 2 * len(VARIANT_TAGS) * 2 * 5 + 24 * 5 + 4 + 37 + 1 + 2


def test_the_direct_parse_declines_every_other_argv():
    """Help, every usage error and every non-canonical spelling go to argparse."""
    declined = [*_malformed_argvs(), *REFUSED, *(argv for argv, _ in NON_CANONICAL),
                *([*argv, flag] for argv in HELP_ARGVS for flag in ("--help", "-h"))]
    assert [argv for argv in declined if cli._parse_canonical(argv) is not None] == []


@pytest.mark.parametrize(("argv", "canonical"), NON_CANONICAL,
                         ids=[" ".join(argv) for argv, _ in NON_CANONICAL])
def test_a_non_canonical_spelling_runs_as_its_canonical_form(capsys, argv, canonical):
    result = run(capsys, argv)
    assert result == run(capsys, canonical) and result[0] == 0


# An argv that ends ``main`` with each exit status but the internal error's.
ENTRY_EXITS = [pytest.param(["classify", "8", "V1"], 0, id="success"),
               pytest.param(["classify", "99", "V1"], 2, id="usage-error")]


@pytest.fixture
def entry_events(monkeypatch):
    """Each ``main`` call, what it raised and each ``gc.freeze``,
    ``gc.disable`` and ``gc.enable`` call, in order.  The freeze is
    recorded, not made; the collector is switched as called, and left as
    the test found it."""
    events, plain_main, enabled = [], cli.main, gc.isenabled()

    def traced_main():
        events.append("main")
        try:
            plain_main()
        except BaseException as exc:
            events.append(exc)
            raise

    def recorded(name, switch=None):
        def call():
            events.append(name)
            if switch:
                switch()
        return call

    monkeypatch.setattr(cli, "main", traced_main)
    monkeypatch.setattr(gc, "freeze", recorded("freeze"))
    monkeypatch.setattr(gc, "disable", recorded("disable", gc.disable))
    monkeypatch.setattr(gc, "enable", recorded("enable", gc.enable))
    yield events
    monkeypatch.undo()
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(("argv", "code"), ENTRY_EXITS)
def test_run_freezes_the_heap_after_main_and_reraises_its_exit(entry_events, monkeypatch,
                                                              capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["mpnspace", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert entry_events == ["disable", "main", exit_info.value, "freeze", "enable"]
    assert exit_info.value.code == code
    assert gc.isenabled()
    capsys.readouterr()


def test_run_entered_with_the_collector_off_leaves_it_off(entry_events, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mpnspace", "classify", "8", "V1"])
    gc.disable()
    entry_events.clear()  # the switch above is the test's, not run's
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert entry_events == ["disable", "main", exit_info.value, "freeze"]
    assert not gc.isenabled()
    capsys.readouterr()


def test_run_freezes_the_heap_after_an_internal_error_and_reraises_it(entry_events,
                                                                     monkeypatch):
    def fail(number):
        raise RuntimeError("internal")

    monkeypatch.setattr(cli, "rule_from_number", fail)
    monkeypatch.setattr(sys, "argv", ["mpnspace", "classify", "8", "V1"])
    with pytest.raises(RuntimeError) as raised:
        cli.run()
    assert entry_events == ["disable", "main", raised.value, "freeze", "enable"]
    assert gc.isenabled()


@pytest.mark.parametrize(("argv", "code"), ENTRY_EXITS)
def test_main_alone_never_freezes_the_heap(entry_events, capsys, argv, code):
    """Nor does it switch the collector off or on."""
    assert run(capsys, argv)[0] == code
    assert entry_events == []


def _env(unbuffered=False):
    """The environment of a fresh interpreter on this package."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# Runs MODULE as ``python -m MODULE ARGV`` does, after registering an
# ``atexit`` callback that reports on stderr whether the heap is frozen
# and whether the collector is on.
ATEXIT_DRIVER = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"atexit: frozen={gc.get_freeze_count() > 0} "
                              f"enabled={gc.isenabled()}", file=sys.stderr))
runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("module", ["mpnspace.cli", "mpnspace"])
@pytest.mark.parametrize(("argv", "code"), ENTRY_EXITS)
def test_a_process_entry_runs_atexit_once_with_the_heap_frozen(capsys, module, argv, code):
    proc = subprocess.run([sys.executable, "-c", ATEXIT_DRIVER, module, *argv], env=_env(),
                          capture_output=True, text=True, timeout=60)
    expected_code, expected_out, _ = run(capsys, argv)
    assert (proc.returncode, proc.stdout) == (expected_code, expected_out)
    assert proc.returncode == code
    assert proc.stderr.count("atexit:") == 1
    assert proc.stderr.endswith("atexit: frozen=True enabled=True\n"), proc.stderr


def _end_on_a_closed_pipe(command, unbuffered):
    """(exit status, stderr) of ``python COMMAND classify 8 V1`` writing to a
    pipe whose read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *command, "classify", "8", "V1"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_env(unbuffered), text=True, timeout=60)
    finally:
        os.close(write_end)
    # The stack of a traceback names the entry's frames; the rest must match.
    return proc.returncode, [line for line in proc.stderr.splitlines()
                             if not line[:1].isspace()]


@pytest.mark.parametrize(("unbuffered", "code"), [(False, 120), (True, 1)],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_ends_the_process_entry_as_it_ends_main(unbuffered, code):
    entry = _end_on_a_closed_pipe(["-m", "mpnspace.cli"], unbuffered)
    plain = _end_on_a_closed_pipe(["-c", "from mpnspace.cli import main; main()"], unbuffered)
    assert entry == plain
    assert entry[0] == code and entry[1][-1] == "BrokenPipeError: [Errno 32] Broken pipe"


# Per row, the layer left broken and the interpreter arguments of one
# entry path; "{out}" is a scratch directory.
FIRST_RUNS = {
    "dynamics-classify": ("dynamics", ["-m", "mpnspace.cli", "classify", "8", "V1"]),
    "report-table": ("report", ["-m", "mpnspace.cli", "table", "T1"]),
    "dynamics-all": ("dynamics", ["-m", "mpnspace", "all", "--out", "{out}"]),
    "dynamics-from-import": ("dynamics", ["-c", "from mpnspace import classify"]),
    **{f"dynamics-first-read-of-{layer}": (
        "dynamics", ["-c", f"import mpnspace.{layer} as m; m.{name}"])
       for layer, name in (("gates", "identify_gate"), ("report", "emit_table"),
                           ("robustness", "score"), ("rulespace", "neighbors"),
                           ("spectral", "spectrum"), ("transforms", "reduce_rules"))},
}


@pytest.mark.parametrize(("layer", "args"), FIRST_RUNS.values(), ids=FIRST_RUNS)
def test_an_error_while_a_layer_first_runs_shows_its_own_line(tmp_path, layer, args):
    """A name left undefined at the top of a layer, on a copy of the
    package: on every entry path, the NameError and its line reach
    stderr, not an ImportError of a name the layer defines."""
    package = tmp_path / "mpnspace"
    shutil.copytree(pathlib.Path(cli.__file__).resolve().parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = package / f"{layer}.py"
    text = source.read_text(encoding="utf-8")
    line = ast.parse(text).body[0].end_lineno + 1  # the line after the module docstring
    lines = text.splitlines(keepends=True)
    lines.insert(line - 1, "undefined_at_the_top\n")
    source.write_text("".join(lines), encoding="utf-8")
    args = [arg.format(out=tmp_path / "bundle") for arg in args]
    proc = subprocess.run([sys.executable, *args],
                          env=dict(_env(), PYTHONPATH=str(tmp_path)), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert f'File "{source}", line {line}, in <module>\n    undefined_at_the_top\n' in proc.stderr
    assert "ImportError" not in proc.stderr, proc.stderr
    assert proc.stderr.endswith("NameError: name 'undefined_at_the_top' is not defined\n"), \
        proc.stderr
