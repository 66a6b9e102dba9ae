"""The counting half of the layer ledger: exact work counts of the package,
appended as one point to ``BENCH_layers.json`` at the root of this checkout.

Usage, stdlib only:

    python tests/tools/ledger.py [--root DIR] [--label TEXT]

It measures the source tree of the checkout at DIR (default: this one),
running it with ``PYTHONPATH=DIR/src`` in two fresh processes, one after the
other.  A point holds the commit checked out at DIR (read from its ``.git``,
without running git), a free-text label, the Python version, the platform,
and these counts, each the same on every run:

* ``run_all``: the misses and size of every ``functools.cache`` of the
  package after one cold ``run_all``, in a fresh process;
* ``run_all_frames``: the Python frames entered in the package, by
  function, during that cold ``run_all`` (``sys.setprofile``), once every
  layer module has run;
* ``queries``: the same after one call of each query kind on each of the
  1701 (rule, tag, mode) keys, in another fresh process;
* ``warm_query_frames``: per query kind, the Python frames entered in the
  package, by function, while that process runs the kind over the 1701
  keys again with every cache warm;
* ``src_lines``: the lines of each module of ``src/mpnspace``.

A query kind is one of the library calls of the query benchmark, from the
raw rule number, tag and mode, as a library user writes it.  A frame is
counted by module and function name, and only for a named function: a
name that starts with ``<`` (a comprehension, which 3.12 inlines, a
generator expression or a lambda) is left out.
``tests/test_ledger.py`` recomputes the counts and compares them with the
newest point.  pytest does not collect this file.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LEDGER = os.path.join(ROOT, "BENCH_layers.json")
COUNTS = ("run_all", "run_all_frames", "queries", "warm_query_frames", "src_lines")

# Prints, as JSON, the misses and size of every package cache, and counts
# the package frames a call enters.
_CACHES = """
import collections, json, os, sys
import mpnspace as mp

def caches():
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("mpnspace."):
            for attr, obj in sorted(vars(module).items()):
                if hasattr(obj, "cache_info") and obj.__module__ == name:
                    info = obj.cache_info()
                    found[f"{name[len('mpnspace.'):]}.{attr}"] = {
                        "misses": info.misses, "currsize": info.currsize}
    return found

def frames(run, *args):
    package = os.path.dirname(mp.__file__)
    entered = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and not code.co_name.startswith("<")
                and os.path.dirname(code.co_filename) == package):
            entered[f"{os.path.basename(code.co_filename)[:-3]}.{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return dict(sorted(entered.items()))
"""

_RUN_ALL = _CACHES + """
import tempfile

with tempfile.TemporaryDirectory() as out:
    entered = frames(mp.run_all, out)  # reading mp.run_all runs every layer module
print(json.dumps({"caches": caches(), "frames": entered}))
"""

_QUERIES = _CACHES + """
import itertools

def rv(n, tag, mode):
    return mp.rule_from_number(n), mp.variant(tag, mode)

def step(n, tag, mode):
    r, v = rv(n, tag, mode)
    if mode == "synchronous":
        return mp.step(r, v, STATE[tag])
    return mp.step_async(r, v, mode, STATE[tag])

def spectrum(n, tag, mode):
    r, v = rv(n, tag, mode)
    return mp.spectrum(r, v), mp.charpoly_oracle(mp.transition_matrix(r, v))

KINDS = {
    "classify": lambda n, tag, mode: mp.classify(*rv(n, tag, mode)),
    "attractor": lambda n, tag, mode: mp.attractor_set(*rv(n, tag, mode)),
    "step": step,
    "spectrum": spectrum,
    "gates": lambda n, tag, mode: mp.gate_pair(*rv(n, tag, mode)),
    "state_graph": lambda n, tag, mode: mp.emit_state_graph(*rv(n, tag, mode)),
    "robustness": lambda n, tag, mode: mp.class_robustness(*rv(n, tag, mode)),
}
KEYS = list(itertools.product(range(1, 82), mp.VARIANT_TAGS, [m.value for m in mp.UpdateMode]))
STATE = {tag: mp.state_from_index(mp.variant(tag), 0) for tag in mp.VARIANT_TAGS}

for call in KINDS.values():
    for key in KEYS:
        call(*key)
cold = caches()
warm = {kind: frames(lambda: [call(*key) for key in KEYS]) for kind, call in KINDS.items()}
print(json.dumps({"caches": cold, "frames": warm}))
"""


def _child(root: str, program: str):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    if proc.returncode:
        raise RuntimeError(f"the ledger's child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure(root: str = ROOT) -> dict:
    """The counts of the tree at ``root``, keyed as in a point."""
    run_all, queries = _child(root, _RUN_ALL), _child(root, _QUERIES)
    package = os.path.join(root, "src", "mpnspace")
    lines = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return {"run_all": run_all["caches"], "run_all_frames": run_all["frames"],
            "queries": queries["caches"], "warm_query_frames": queries["frames"],
            "src_lines": lines}


def head_commit(root: str) -> str:
    """The commit checked out at ``root``, read from its ``.git``."""
    git = os.path.join(root, ".git")
    with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except FileNotFoundError:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    raise ValueError(f"{ref} is not in {git}")


def load() -> list[dict]:
    """The ledger's points, oldest first."""
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def diff(old: dict, new: dict, path: str = "") -> list[str]:
    """One "path: old -> new" line per count that differs, a missing one as None."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [f"{path}: {old!r} -> {new!r}"]
    return [line for key in sorted(old.keys() | new.keys())
            for line in diff(old.get(key), new.get(key), f"{path}/{key}")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--root", default=ROOT, help="the checkout to measure (default: this one)")
    ap.add_argument("--label", default="", help="a note on the measured tree")
    args = ap.parse_args()
    point = {"commit": head_commit(args.root), "label": args.label,
             "python": platform.python_version(), "platform": platform.platform(),
             **measure(args.root)}
    ledger = {"about": "Exact work counts per point; tests/tools/ledger.py says how "
                       "each is taken.", "points": []}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
    if ledger["points"]:
        print("\n".join(diff({k: ledger["points"][-1].get(k) for k in COUNTS},
                             {k: point[k] for k in COUNTS})) or "no count changed")
    ledger["points"].append(point)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
