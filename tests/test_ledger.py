"""The counting half of the layer ledger against its committed file.

``tests/tools/ledger.py`` counts the package's work exactly: cache misses
and sizes after a cold ``run_all`` and after every query kind on every
key, the frames a warm query kind enters, and the lines per module.  Here
the counts are taken again and must equal the newest point of
``BENCH_layers.json``, so a change that moves one fails with the names of
the counts it moved, and a change that means to move them appends a point.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("ledger", os.path.join(HERE, "tools", "ledger.py"))
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def test_the_counts_equal_the_newest_ledger_point():
    newest = ledger.load()[-1]
    assert ledger.diff({key: newest[key] for key in ledger.COUNTS}, ledger.measure()) == []
