#!/bin/sh
# Check the package on each Python interpreter named on the command line:
#
#   tests/tools/other_pythons.sh /path/to/python3.10 /path/to/python3.13 ...
#
# For each interpreter, from the source tree (PYTHONPATH=src):
#   1. `-X dev -W error -m mpnspace all` writes a bundle whose manifest is
#      byte-identical to perfbench/expected_manifest.json (read, never written);
#   2. under `-S`, `classify 8 V1` imports none of typing, __future__, re,
#      argparse and fractions.
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

    PYTHONPATH="$root/src" "$py" -S - >/dev/null <<'EOF'
import sys

from mpnspace.cli import main

forbidden = ("typing", "__future__", "re", "argparse", "fractions")
try:
    main(["classify", "8", "V1"])
except SystemExit as end:
    if end.code:
        raise
imported = [m for m in forbidden if m in sys.modules]
if imported:
    sys.exit(f"classify 8 V1 imported {imported}")
EOF
    report $? "$name" "-S classify 8 V1 imports none of typing, __future__, re, argparse, fractions"
done
exit "$failed"
