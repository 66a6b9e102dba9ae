"""Transition matrices on the four-state space and their exact spectra.

A deterministic one-step map on four states is a 0/1 matrix with one 1
per row (T[i][j] = 1 when state i maps to state j).  Its transpose has
an exact eigenvalue multiset readable off the functional graph: each
transient state contributes a zero eigenvalue, and each attractor cycle
of length p contributes all p-th roots of unity.  Eigenvalues are kept
symbolic (a zero count plus root-of-unity phases as reduced fractions
k/p meaning exp(2*pi*i*k/p)).  An independent characteristic-polynomial
oracle cross-checks the combinatorial spectrum: ``charpoly_oracle``
expands det(lambda*I - T^t) over the integers by cofactors, as a Laplace
expansion in principal minors of the matrix's four rows whose sums share
their common products, never reading the cycle structure.  A
``transition_matrix`` result is a private tuple subclass, equal to the
plain tuple of tuples, whose entries were checked once, when the atlas
built it, so its rows are read unchecked here, and its expansion is
computed once per matrix and kept (at most 4^4 = 256 of them); any other
matrix is checked and expanded on every call.
"""

import functools
from collections import namedtuple
from fractions import Fraction

from .dynamics import (_CLASSES, AttractorSet, Rule, Variant, _UnitRowMatrix, _record,
                       class_from_cycle_lengths)

TransitionMatrix = tuple[tuple[int, int, int, int], ...]


def transition_matrix(rule: Rule, v: Variant) -> TransitionMatrix:
    """0/1 one-step matrix, row i marking the successor of state i."""
    return _record(rule, v).matrix


_SEQUENCES = frozenset((list, tuple))


def _matrix_rows(T: TransitionMatrix) -> TransitionMatrix:
    """The four rows of a 4x4 matrix (rows as lists or tuples) of the ints
    0 and 1, as given; any other ``T`` raises ValueError."""
    if type(T) is _UnitRowMatrix:  # the atlas's matrix, checked once when it was built
        return T
    # One pass over rows, then entries: the check costs about as much as the expansion.
    if type(T) in _SEQUENCES and len(T) == 4:
        r0, r1, r2, r3 = T
        if (type(r0) in _SEQUENCES and type(r1) in _SEQUENCES and type(r2) in _SEQUENCES
                and type(r3) in _SEQUENCES and len(r0) == len(r1) == len(r2) == len(r3) == 4):
            for e in (*r0, *r1, *r2, *r3):
                if type(e) is not int or not 0 <= e <= 1:
                    break
            else:
                return T
    raise ValueError(f"matrix must be 4x4 with 0/1 int entries, got {T!r}")


def is_row_stochastic_01(T: TransitionMatrix) -> bool:
    """True when every row of ``T``, a 4x4 matrix of 0/1 ints, holds exactly one 1."""
    return all(sum(row) == 1 for row in _matrix_rows(T))


def is_permutation_matrix(T: TransitionMatrix) -> bool:
    """True when every column, like every row, holds exactly one 1."""
    return is_row_stochastic_01(T) and all(sum(col) == 1 for col in zip(*T))


class Spectrum(namedtuple("Spectrum", "zero_count phases cycle_lengths")):
    """Exact eigenvalue multiset of the transposed transition matrix.

    ``zero_count`` zeros (one per transient state) plus one root of
    unity exp(2*pi*i*phase) per entry of ``phases``.  ``cycle_lengths``
    records the attractor lengths the phases came from.
    """

    __slots__ = ()


def _cycle_lengths(attractors: AttractorSet, what: str) -> tuple[int, ...]:
    """The sorted cycle lengths of an AttractorSet, checked as
    ``class_from_cycle_lengths`` checks them; anything else is a ValueError."""
    if type(attractors) is not AttractorSet:
        raise ValueError(f"a {what} needs an AttractorSet, got {attractors!r}")
    try:
        return class_from_cycle_lengths(attractors.cycle_lengths).cycle_lengths
    except TypeError:
        raise ValueError(f"a {what} needs cycles of states, got {attractors!r}") from None


# The spectrum of each of the 11 cycle types, shared by every map of the type:
# zeros for transients, p-th roots of unity per cycle of length p.
_SPECTRA = {lengths: Spectrum(4 - sum(lengths), tuple(sorted(
    Fraction(k, p) for p in lengths for k in range(p))), lengths) for lengths in _CLASSES}


def spectrum_from_cycles(attractors: AttractorSet) -> Spectrum:
    """Combinatorial spectrum: zeros for transients, p-th roots per cycle;
    the one shared ``Spectrum`` of the attractors' cycle type."""
    return _SPECTRA[_cycle_lengths(attractors, "spectrum")]


def spectrum(rule: Rule, v: Variant) -> Spectrum:
    return _SPECTRA[_record(rule, v).dynamics_class.cycle_lengths]


# Integer polynomials as coefficient lists, lowest power first.

def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _charpoly_kernel(rows):
    """det(lambda*I - T^t) for the four rows of T, in descending powers
    of lambda: the coefficient of lambda^(4-k) is (-1)^k times the sum
    of the k x k principal minors (transposing leaves every principal
    minor unchanged).  The determinant is the Laplace expansion along
    rows 0-1 over the six complementary pairs of 2x2 minors; the 3x3
    principal minors expand over the same minors, and the sums share the
    products of the diagonal halves t00 + t11 and t22 + t33.  Works on
    any ring elements, so tests can run it on symbols.
    """
    (t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23), (t30, t31, t32, t33) = rows
    # 2x2 minors of rows 0-1 (u) and of rows 2-3 (w), by column pair
    u01 = t00 * t11 - t01 * t10
    u02 = t00 * t12 - t02 * t10
    u03 = t00 * t13 - t03 * t10
    u12 = t01 * t12 - t02 * t11
    u13 = t01 * t13 - t03 * t11
    u23 = t02 * t13 - t03 * t12
    w01 = t20 * t31 - t21 * t30
    w02 = t20 * t32 - t22 * t30
    w03 = t20 * t33 - t23 * t30
    w12 = t21 * t32 - t22 * t31
    w13 = t21 * t33 - t23 * t31
    w23 = t22 * t33 - t23 * t32
    top, bottom = t00 + t11, t22 + t33
    minors2 = u01 + w23 + top * bottom - t02 * t20 - t03 * t30 - t12 * t21 - t13 * t31
    minors3 = (t20 * u12 - t21 * u02 + t30 * u13 - t31 * u03 + bottom * u01  # {0,1,2}, {0,1,3}
               + top * w23 - t02 * w03 + t03 * w02 - t12 * w13 + t13 * w12)  # {0,2,3}, {1,2,3}
    det = (u01 * w23 - u02 * w13 + u03 * w12
           + u12 * w03 - u13 * w02 + u23 * w01)
    return [1, -(top + bottom), minors2, -minors3, det]


@functools.cache
def _atlas_charpoly(T: _UnitRowMatrix) -> tuple[int, ...]:
    """The expansion of one atlas matrix's own rows, kept per matrix."""
    return tuple(_charpoly_kernel(T))


def charpoly_oracle(T: TransitionMatrix) -> list[int]:
    """Characteristic polynomial of the transpose of T, exact integers.

    Expands det(lambda*I - T^t) by cofactors (a Laplace expansion in
    principal minors, their sums sharing common products) from the four
    rows of T alone, independent of the cycle route of
    ``charpoly_from_cycles``; returns a new list of the coefficients in
    descending powers of lambda, leading coefficient 1.  ``T`` must be a
    4x4 matrix (rows as lists or tuples) of the ints 0 and 1.  The atlas's
    own matrices, checked once when built, are expanded once each, on
    their first call; any other matrix is checked and expanded on every call.
    """
    if type(T) is _UnitRowMatrix:
        return list(_atlas_charpoly(T))
    return _charpoly_kernel(_matrix_rows(T))


def charpoly_from_cycles(attractors: AttractorSet) -> list[int]:
    """lambda^z times the product over cycles of (lambda^p - 1),
    in descending powers: the spectrum's predicted characteristic
    polynomial, built by a route independent of the matrix oracle.
    Each call returns a new list."""
    lengths = _cycle_lengths(attractors, "charpoly")
    poly = [1]
    for p in lengths:
        poly = _poly_mul(poly, [-1] + [0] * (p - 1) + [1])  # lambda^p - 1, lowest first
    return poly[::-1] + [0] * (4 - sum(lengths))  # times lambda^z
