"""Exact 2x2 tests and correlation p-values, checked against scipy."""

import math
import random
from fractions import Fraction

import pytest
import scipy.stats

from mpnspace import fisher_exact, odds_ratio, pearson, rankdata, spearman, stats

QUADRANTS = ((27, 21), (28, 5))


def test_fisher_oracle_case():
    res = fisher_exact(((5, 0), (0, 5)))
    assert res.p_value == Fraction(2, 252)


def test_fisher_on_quadrant_table():
    res = fisher_exact(QUADRANTS)
    assert float(res.p_value) == pytest.approx(0.007966770531733485, rel=1e-12)
    assert abs(float(res.p_value) - 0.00797) / 0.00797 <= 0.05


def test_fisher_symmetric_table_is_certain():
    assert fisher_exact(((3, 3), (3, 3))).p_value == 1


def test_fisher_degenerate_margins():
    res = fisher_exact(((0, 0), (5, 5)))
    assert res.p_value == 1
    assert "degenerate" in (res.note or "")


def test_fisher_rejects_bad_tables():
    with pytest.raises(ValueError):
        fisher_exact(((1, 2), (3,)))
    with pytest.raises(ValueError):
        fisher_exact(((-1, 2), (3, 4)))


@pytest.mark.parametrize("table", [
    ((True, 0), (0, 1)),
    ((1.0, 2), (3, 4)),
    5,
    None,
])
@pytest.mark.parametrize("test", [fisher_exact, odds_ratio])
def test_2x2_tests_reject_anything_but_a_table_of_counts(test, table):
    with pytest.raises(ValueError):
        test(table)


@pytest.mark.parametrize("test", [fisher_exact, odds_ratio])
def test_2x2_tests_check_their_table_once(test, monkeypatch):
    calls = []
    check = stats._check_table
    monkeypatch.setattr(stats, "_check_table", lambda t: calls.append(t) or check(t))
    test(QUADRANTS)
    assert calls == [QUADRANTS]


@pytest.mark.parametrize("table", [
    ((5, 0), (0, 5)),
    ((27, 21), (28, 5)),
    ((1, 9), (11, 3)),
    ((10, 10), (10, 10)),
    ((2, 7), (8, 2)),
    ((12, 5), (29, 2)),
    ((0, 10), (10, 0)),
])
def test_fisher_matches_scipy(table):
    ours = float(fisher_exact(table).p_value)
    theirs = scipy.stats.fisher_exact(table, alternative="two-sided")[1]
    assert ours == pytest.approx(theirs, rel=1e-11)


def test_odds_ratio_woolf_interval():
    res = odds_ratio(QUADRANTS)
    (a, b), (c, d) = QUADRANTS
    sample = (a * d) / (b * c)
    assert res.statistic == pytest.approx(sample)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    z = 1.959963984540054
    assert res.ci_low == pytest.approx(math.exp(math.log(sample) - z * se))
    assert res.ci_high == pytest.approx(math.exp(math.log(sample) + z * se))
    assert res.ci_low < res.statistic < res.ci_high


def test_odds_ratio_zero_cell():
    res = odds_ratio(((5, 0), (3, 4)))
    assert res.ci_low is None and res.ci_high is None
    assert res.note


def test_pearson_matches_scipy():
    rng = random.Random(20260819)
    for n in (10, 45, 81):
        xs = [rng.uniform(0, 1) for _ in range(n)]
        ys = [0.4 * x + rng.uniform(0, 1) for x in xs]
        ours = pearson(xs, ys)
        r, p = scipy.stats.pearsonr(xs, ys)
        assert ours.statistic == pytest.approx(r, rel=1e-9)
        assert ours.p_value == pytest.approx(p, rel=1e-7)


def test_spearman_matches_scipy_with_ties():
    rng = random.Random(7)
    for n in (12, 40, 72):
        xs = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
        ys = [rng.choice([0.375, 0.5, 0.8125, 0.9375]) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        ours = spearman(xs, ys)
        rho, p = scipy.stats.spearmanr(xs, ys)
        assert ours.statistic == pytest.approx(rho, rel=1e-9)
        assert ours.p_value == pytest.approx(p, rel=1e-6)


def test_rankdata_midranks():
    assert rankdata([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert rankdata([5, 5, 5]) == [2.0, 2.0, 2.0]
    got = rankdata([3, 1, 4, 1, 5])
    want = list(scipy.stats.rankdata([3, 1, 4, 1, 5]))
    assert got == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, "1", None],
                         ids=repr)
@pytest.mark.parametrize("fn", [pearson, spearman])
def test_correlations_reject_non_finite_and_non_numeric_entries(fn, bad):
    good = [1, 2.5, Fraction(7, 2), 4]
    for xs, ys in (([bad, 1, 2, 3], good), (good, [1, 2, bad, 3])):
        with pytest.raises(ValueError, match="finite ints, floats or Fractions"):
            fn(xs, ys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1", None], ids=repr)
def test_rankdata_rejects_non_finite_and_non_numeric_entries(bad):
    with pytest.raises(ValueError, match="finite ints, floats or Fractions"):
        rankdata([3, bad, 1])


@pytest.mark.parametrize(("xs", "ys"), [
    (None, [1, 2, 3]),
    (5, [1, 2, 3]),
    ([1, 2, 3], range(3)),
    ([10**400, 1, 2], [1, 2, 3]),
    ([1e154, -1e154, 1.0], [1e154, -1e154, 1.0]),
    ([1e308, -1e308, 1.0], [1, 2, 3]),
    ([1e100, -1e100, 1.0], [1e100, -1e100, 1.0]),
    ([1e-100, 2e-100, 3e-100], [1e-100, 2e-100, 4e-100]),
], ids=["none", "int", "range", "huge-int", "variance-overflow", "square-overflow",
        "variance-product-overflow", "variance-product-underflow"])
def test_pearson_rejects_non_sequences_and_float_range_escapes(xs, ys):
    with pytest.raises(ValueError):
        pearson(xs, ys)


@pytest.mark.parametrize("values", [None, 5, "321", range(3)], ids=repr)
def test_rankdata_rejects_non_sequences(values):
    with pytest.raises(ValueError, match="list or tuple"):
        rankdata(values)


def test_pearson_sums_left_to_right():
    """From Python 3.12 the builtin float ``sum`` is compensated; these
    sums differ from left-to-right ones, and the pinned r is the
    left-to-right one on every interpreter."""
    xs = [0.1, 0.7, 0.3, 0.001, 0.2]
    ys = [0.25, 0.6, 0.75, 0.75, 0.6]
    total = 0.0
    for x in xs:
        total += x
    assert total != math.fsum(xs)
    assert pearson(xs, ys).statistic == 0.10497245230890168


def test_correlation_input_validation():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
