"""The four statistical procedures used by the analysis reports.

Fisher's exact test is computed with exact rational arithmetic: the
two-sided p-value sums the hypergeometric probabilities (margins fixed)
of every table whose probability does not exceed the observed table's,
so no floating-point tie-breaking is involved.  The odds ratio is the
sample estimate with a Woolf (log-scale normal) 95% interval.  Pearson
and Spearman correlations take two-sided p-values from the exact t
transform of r with n-2 degrees of freedom, evaluated through a
continued-fraction regularized incomplete beta function, so the package
needs no numerical library at run time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

Table2x2 = tuple[tuple[int, int], tuple[int, int]]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class TestResult(NamedTuple):
    statistic: float | None
    p_value: Fraction | float | None
    ci_low: float | None = None
    ci_high: float | None = None
    note: str = ""


def _check_table(t: Table2x2) -> tuple[int, int, int, int]:
    """The cells of a 2x2 table row by row, checked once per public call."""
    try:
        (n11, n12), (n21, n22) = t
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 table, got {t!r}") from None
    cells = (n11, n12, n21, n22)
    # type() rather than isinstance: a bool is an int subclass.
    if any(type(c) is not int or c < 0 for c in cells):
        raise ValueError("table cells must be non-negative integers")
    if sum(cells) < 1:
        raise ValueError("table must contain at least one observation")
    return cells


def _hypergeom_pmf(k: int, r1: int, c1: int, n: int) -> Fraction:
    """P(top-left cell = k) with both margins fixed."""
    return Fraction(
        math.comb(c1, k) * math.comb(n - c1, r1 - k), math.comb(n, r1)
    )


def fisher_exact(t: Table2x2) -> TestResult:
    """Two-sided Fisher test; p is an exact Fraction.

    The two-sided p-value is the total probability of tables (same
    margins) at most as probable as the observed one.  Degenerate
    margins (an all-zero row or column) give p = 1 with a note.
    """
    n11, n12, n21, n22 = cells = _check_table(t)
    r1, r2 = n11 + n12, n21 + n22
    c1, c2 = n11 + n21, n12 + n22
    n = r1 + r2
    odds = _sample_odds_ratio(*cells)
    if 0 in (r1, r2, c1, c2):
        return TestResult(odds, Fraction(1), note="degenerate margins")
    k_min = max(0, r1 - c2)
    k_max = min(r1, c1)
    observed = _hypergeom_pmf(n11, r1, c1, n)
    p = Fraction(0)
    for k in range(k_min, k_max + 1):
        q = _hypergeom_pmf(k, r1, c1, n)
        if q <= observed:
            p += q
    return TestResult(odds, p)


def _sample_odds_ratio(n11: int, n12: int, n21: int, n22: int) -> float:
    if n12 * n21 == 0:
        return math.inf if n11 * n22 > 0 else math.nan
    return (n11 * n22) / (n12 * n21)


def odds_ratio(t: Table2x2) -> TestResult:
    """Sample odds ratio with a Woolf 95% confidence interval."""
    n11, n12, n21, n22 = cells = _check_table(t)
    est = _sample_odds_ratio(*cells)
    if 0 in (n11, n12, n21, n22):
        return TestResult(
            est, None, note="zero cell: interval undefined for the sample estimate"
        )
    se = math.sqrt(1 / n11 + 1 / n12 + 1 / n21 + 1 / n22)
    return TestResult(
        est,
        None,
        ci_low=math.exp(math.log(est) - _Z95 * se),
        ci_high=math.exp(math.log(est) + _Z95 * se),
    )


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # One Lentz step for the even term, then one for the odd term.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - math.exp(
        b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)
    ) * _betacf(b, a, 1.0 - x) / b


def _t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom."""
    if math.isinf(t):
        return 0.0
    return _reg_inc_beta(dof / 2.0, 0.5, dof / (dof + t * t))


def _corr_result(r: float, n: int) -> TestResult:
    if abs(r) >= 1.0:
        return TestResult(r, 0.0)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return TestResult(r, _t_two_sided_p(t, n - 2))


def _check_values(values: Sequence[float]) -> None:
    """A list or tuple of finite ints, floats or Fractions, checked once per call."""
    if type(values) not in (list, tuple):
        raise ValueError(f"correlation inputs must be a list or tuple, got {values!r}")
    for x in values:
        # type() rather than isinstance: a bool is an int subclass.
        if type(x) not in (int, float, Fraction) or (type(x) is float and not math.isfinite(x)):
            raise ValueError(f"correlation inputs must be finite ints, floats or "
                             f"Fractions, got {x!r}")


def _sum(values):
    """Left to right, as ``sum`` did before Python 3.12 compensated float sums."""
    total = 0
    for x in values:
        total += x
    return total


def pearson(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Product-moment correlation with the two-sided t-based p-value."""
    _check_values(xs)
    _check_values(ys)
    if len(xs) != len(ys):
        raise ValueError("vectors must have the same length")
    n = len(xs)
    if n < 3:
        raise ValueError("need at least 3 points")
    try:
        mx, my = _sum(xs) / n, _sum(ys) / n
        sxy = _sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx = _sum((x - mx) ** 2 for x in xs)
        syy = _sum((y - my) ** 2 for y in ys)
        if sxx == 0 or syy == 0:
            raise ValueError("correlation undefined for a zero-variance vector")
        r = sxy / (denominator := math.sqrt(sxx * syy))
    except (OverflowError, ZeroDivisionError):  # beyond float range
        denominator = r = math.nan
    if not (0 < denominator < math.inf and math.isfinite(r)):
        raise ValueError("correlation intermediates exceed the float range")
    return _corr_result(r, n)


def rankdata(values: Sequence[float]) -> list[float]:
    """Mid-ranks (ties get the average of their rank range), 1-based."""
    _check_values(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Rank correlation: Pearson on mid-ranks, same p-value transform;
    ``rankdata`` checks each vector before ranking it."""
    return pearson(rankdata(xs), rankdata(ys))
