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
expansion in principal minors of the matrix entries, recomputed on every
call and never reading the cycle structure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dynamics import _CLASSES, AttractorSet, Rule, Variant, _record, class_from_cycle_lengths

TransitionMatrix = tuple[tuple[int, int, int, int], ...]


def transition_matrix(rule: Rule, v: Variant) -> TransitionMatrix:
    """0/1 one-step matrix, row i marking the successor of state i."""
    return _record(rule, v).matrix


_SEQUENCES = frozenset((list, tuple))


def _matrix_entries(T: TransitionMatrix) -> tuple[int, ...]:
    """The 16 row-major entries of a 4x4 matrix (rows as lists or tuples)
    of the ints 0 and 1; any other ``T`` raises ValueError."""
    # One pass over rows, then entries: the check costs about as much as the expansion.
    if type(T) in _SEQUENCES and len(T) == 4:
        r0, r1, r2, r3 = T
        if (type(r0) in _SEQUENCES and type(r1) in _SEQUENCES and type(r2) in _SEQUENCES
                and type(r3) in _SEQUENCES and len(r0) == len(r1) == len(r2) == len(r3) == 4):
            entries = (*r0, *r1, *r2, *r3)
            for e in entries:
                if type(e) is not int or not 0 <= e <= 1:
                    break
            else:
                return entries
    raise ValueError(f"matrix must be 4x4 with 0/1 int entries, got {T!r}")


def is_row_stochastic_01(T: TransitionMatrix) -> bool:
    """True when every row of ``T``, a 4x4 matrix of 0/1 ints, holds exactly one 1."""
    entries = _matrix_entries(T)
    return all(sum(entries[i:i + 4]) == 1 for i in (0, 4, 8, 12))


def is_permutation_matrix(T: TransitionMatrix) -> bool:
    """True when every column, like every row, holds exactly one 1."""
    return is_row_stochastic_01(T) and all(sum(T[i][j] for i in range(4)) == 1 for j in range(4))


class Spectrum(NamedTuple):
    """Exact eigenvalue multiset of the transposed transition matrix.

    ``zero_count`` zeros (one per transient state) plus one root of
    unity exp(2*pi*i*phase) per entry of ``phases``.  ``cycle_lengths``
    records the attractor lengths the phases came from.
    """

    zero_count: int
    phases: tuple[Fraction, ...]
    cycle_lengths: tuple[int, ...]


def _cycle_lengths(attractors: AttractorSet, what: str) -> tuple[int, ...]:
    """The sorted cycle lengths of an AttractorSet, checked as
    ``class_from_cycle_lengths`` checks them; anything else is a ValueError."""
    if type(attractors) is not AttractorSet:
        raise ValueError(f"a {what} needs an AttractorSet, got {attractors!r}")
    try:
        return class_from_cycle_lengths(attractors.cycle_lengths).cycle_lengths
    except TypeError:
        raise ValueError(f"a {what} needs cycles of states, got {attractors!r}") from None


def _spectrum(lengths: tuple[int, ...]) -> Spectrum:
    phases = tuple(sorted(Fraction(k, p) for p in lengths for k in range(p)))
    return Spectrum(zero_count=4 - sum(lengths), phases=phases, cycle_lengths=lengths)


def spectrum_from_cycles(attractors: AttractorSet) -> Spectrum:
    """Combinatorial spectrum: zeros for transients, p-th roots per cycle."""
    return _spectrum(_cycle_lengths(attractors, "spectrum"))


# The spectrum of each of the 11 cycle types, shared by every map of the type.
_SPECTRA = {lengths: _spectrum(lengths) for lengths in _CLASSES}


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


def _charpoly_kernel(t):
    """det(lambda*I - T^t) for the 16 row-major entries of T, in
    descending powers of lambda: the coefficient of lambda^(4-k) is
    (-1)^k times the sum of the k x k principal minors (transposing
    leaves every principal minor unchanged).  The determinant is the
    Laplace expansion along rows 0-1 over the six complementary pairs
    of 2x2 minors, and the 3x3 principal minors expand over the same
    minors.  Works on any ring elements, so tests can run it on symbols.
    """
    t00, t01, t02, t03, t10, t11, t12, t13, t20, t21, t22, t23, t30, t31, t32, t33 = t
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
    trace = t00 + t11 + t22 + t33
    minors2 = (u01 + w23 + t00 * t22 - t02 * t20 + t00 * t33 - t03 * t30
               + t11 * t22 - t12 * t21 + t11 * t33 - t13 * t31)
    minors3 = (t20 * u12 - t21 * u02 + t22 * u01      # states 0, 1, 2
               + t30 * u13 - t31 * u03 + t33 * u01    # states 0, 1, 3
               + t00 * w23 - t02 * w03 + t03 * w02    # states 0, 2, 3
               + t11 * w23 - t12 * w13 + t13 * w12)   # states 1, 2, 3
    det = (u01 * w23 - u02 * w13 + u03 * w12
           + u12 * w03 - u13 * w02 + u23 * w01)
    return [1, -trace, minors2, -minors3, det]


def charpoly_oracle(T: TransitionMatrix) -> list[int]:
    """Characteristic polynomial of the transpose of T, exact integers.

    Expands det(lambda*I - T^t) by cofactors (a Laplace expansion in
    principal minors) from the matrix entries alone, recomputed on every
    call and independent of the cycle route of ``charpoly_from_cycles``;
    returns the coefficients in descending powers of lambda, leading
    coefficient 1.  ``T`` must be a 4x4 matrix (rows as lists or tuples)
    of the ints 0 and 1.
    """
    return _charpoly_kernel(_matrix_entries(T))


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
