#!/bin/sh
# Check the package on each Python interpreter named on the command line:
#
#   tests/tools/other_pythons.sh /path/to/python3.10 /path/to/python3.13 ...
#
# For each interpreter, from the source tree (PYTHONPATH=src):
#   1. `-X dev -W error -m mpnspace all` writes a bundle whose manifest is
#      byte-identical to perfbench/expected_manifest.json (read, never written);
#   2. under `-S`, `classify 8 V1` and `state-graph 8 V1` run the dynamics
#      layer alone, `table T1` runs dynamics, report and transforms, and
#      `table T3A` runs dynamics, report and rulespace; none of the four
#      imports fractions, decimal, argparse, gettext, locale, typing or
#      __future__, and classify and state-graph import no re;
#   3. under `-S`, `all` imports neither json nor csv.
# Prints one PASS or FAIL line per check and exits 1 if any check failed.
# pytest does not collect this file.

if [ "$#" -eq 0 ]; then
    echo "usage: $0 PYTHON [PYTHON ...]" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/../.." && pwd) || exit 2
expected="$root/perfbench/expected_manifest.json"
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
failed=0

report() {  # report STATUS PYTHON CHECK
    if [ "$1" -eq 0 ]; then
        echo "PASS $2: $3"
    else
        echo "FAIL $2: $3"
        failed=1
    fi
}

n=0
for py in "$@"; do
    n=$((n + 1))
    version=$("$py" -c 'import sys; print(sys.version.split()[0])' 2>/dev/null) || {
        report 1 "$py" "the interpreter does not run"
        continue
    }
    name="$py ($version)"

    out="$work/bundle-$n"
    PYTHONPATH="$root/src" "$py" -X dev -W error -m mpnspace all --out "$out" >/dev/null \
        && cmp "$out/manifest.json" "$expected"
    report $? "$name" "-X dev -W error -m mpnspace all matches the expected manifest"

    # Each case is the layers the command runs, a colon, and the command.
    for case in "dynamics:classify 8 V1" "dynamics:state-graph 8 V1" \
                "dynamics,report,transforms:table T1" "dynamics,report,rulespace:table T3A"; do
        # shellcheck disable=SC2086  # the command splits into its words
        PYTHONPATH="$root/src" "$py" -S - "${case%%:*}" ${case#*:} >/dev/null <<'EOF'
import sys
import types

import mpnspace
from mpnspace.cli import main

expected, command = sys.argv[1].split(","), sys.argv[2:]
forbidden = ["fractions", "decimal", "argparse", "gettext", "locale", "typing", "__future__"]
if command[0] in ("classify", "state-graph"):
    forbidden.append("re")
try:
    main(command)
except SystemExit as end:
    if end.code:
        raise
# A layer that has not run is still the LazyLoader's module subclass,
# which any attribute read would run, so only the types are read.
layers = sorted(set(mpnspace._EXPORTS.values()))
ran = [m for m in layers if type(sys.modules[f"mpnspace.{m}"]) is types.ModuleType]
imported = [m for m in forbidden if m in sys.modules]
if ran != expected or imported:
    sys.exit(f"{' '.join(command)} ran {ran} and imported {imported}; expected {expected} and []")
EOF
        report $? "$name" "-S ${case#*:} runs only ${case%%:*} and imports none of the forbidden modules"
    done

    PYTHONPATH="$root/src" "$py" -S - "$work/all-$n" >/dev/null <<'EOF'
import sys

from mpnspace.cli import main

try:
    main(["all", "--out", sys.argv[1]])
except SystemExit as end:
    if end.code:
        raise
imported = [m for m in ("json", "csv") if m in sys.modules]
if imported:
    sys.exit(f"all imported {imported}")
EOF
    report $? "$name" "-S all imports neither json nor csv"
done
exit "$failed"
