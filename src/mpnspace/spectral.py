"""Transition matrices on the four-state space and their exact spectra.

A deterministic one-step map on four states is a 0/1 matrix with one 1
per row (T[i][j] = 1 when state i maps to state j).  Its transpose has
an exact eigenvalue multiset readable off the functional graph: each
transient state contributes a zero eigenvalue, and each attractor cycle
of length p contributes all p-th roots of unity.  Eigenvalues are kept
symbolic (a zero count plus root-of-unity phases as reduced fractions
k/p meaning exp(2*pi*i*k/p)); an independent characteristic-polynomial
oracle over the integers cross-checks the combinatorial spectrum.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .dynamics import AttractorSet, Rule, Variant, attractor_set, successor_indices

TransitionMatrix = tuple[tuple[int, int, int, int], ...]


def transition_matrix(rule: Rule, v: Variant) -> TransitionMatrix:
    """0/1 one-step matrix, row i marking the successor of state i."""
    succ = successor_indices(rule, v)
    return tuple(
        tuple(1 if succ[i] == j else 0 for j in range(4)) for i in range(4)
    )


def is_row_stochastic_01(T: TransitionMatrix) -> bool:
    return all(sum(row) == 1 and set(row) <= {0, 1} for row in T)


def is_permutation_matrix(T: TransitionMatrix) -> bool:
    """True when every column, like every row, holds exactly one 1."""
    return is_row_stochastic_01(T) and all(
        sum(T[i][j] for i in range(4)) == 1 for j in range(4)
    )


class Spectrum(NamedTuple):
    """Exact eigenvalue multiset of the transposed transition matrix.

    ``zero_count`` zeros (one per transient state) plus one root of
    unity exp(2*pi*i*phase) per entry of ``phases``.  ``cycle_lengths``
    records the attractor lengths the phases came from.
    """

    zero_count: int
    phases: tuple[Fraction, ...]
    cycle_lengths: tuple[int, ...]


def spectrum_from_cycles(attractors: AttractorSet) -> Spectrum:
    """Combinatorial spectrum: zeros for transients, p-th roots per cycle."""
    return _spectrum_of(attractors.attractors)


@functools.cache
def _spectrum_of(cycles: tuple[tuple[int, ...], ...]) -> Spectrum:
    phases = []
    lengths = []
    cycle_states = 0
    for cycle in cycles:
        p = len(cycle)
        lengths.append(p)
        cycle_states += p
        phases.extend(Fraction(k, p) for k in range(p))
    return Spectrum(
        zero_count=4 - cycle_states,
        phases=tuple(sorted(phases)),
        cycle_lengths=tuple(sorted(lengths)),
    )


def spectrum(rule: Rule, v: Variant) -> Spectrum:
    return _spectrum_of(attractor_set(rule, v).attractors)


_SEQUENCES = frozenset((list, tuple))
_BITS = frozenset((0, 1))


# Integer polynomials as coefficient lists, lowest power first.

def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_scale(p: list[int], k: int) -> list[int]:
    return [k * a for a in p]


def _det_poly(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer polynomials, by first-row expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = [0]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = _poly_mul(m[0][j], _det_poly(minor))
        acc = _poly_add(acc, _poly_scale(term, (-1) ** j))
    return acc


def charpoly_oracle(T: TransitionMatrix) -> list[int]:
    """Characteristic polynomial of the transpose of T, exact integers.

    Expands det(lambda*I - T^t) by cofactors; returns the coefficients
    in descending powers of lambda, leading coefficient 1.  ``T`` must be
    a 4x4 matrix (rows as lists or tuples) of the ints 0 and 1.
    """
    # Set operations over map() keep this check cheap beside the expansion.
    shape_ok = (type(T) in _SEQUENCES and len(T) == 4
                and _SEQUENCES.issuperset(map(type, T)) and {*map(len, T)} == {4})
    entries = (*T[0], *T[1], *T[2], *T[3]) if shape_ok else ()
    if not (entries and {*map(type, entries)} == {int} and _BITS.issuperset(entries)):
        raise ValueError(f"matrix must be 4x4 with 0/1 int entries, got {T!r}")
    m = [
        [
            # entry (i, j) of lambda*I - T^t is -T[j][i] plus lambda on the diagonal
            [-T[j][i], 1] if i == j else [-T[j][i]]
            for j in range(4)
        ]
        for i in range(4)
    ]
    coeffs = _det_poly(m)
    coeffs += [0] * (5 - len(coeffs))
    return list(reversed(coeffs))


def charpoly_from_cycles(attractors: AttractorSet) -> list[int]:
    """lambda^z times the product over cycles of (lambda^p - 1),
    in descending powers: the spectrum's predicted characteristic
    polynomial, built by a route independent of the matrix oracle.
    Each call returns a new list."""
    return list(_charpoly_of(attractors.attractors))


@functools.cache
def _charpoly_of(cycles: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    sp = _spectrum_of(cycles)
    poly = [1]
    for p in sp.cycle_lengths:
        factor = [-1] + [0] * (p - 1) + [1]  # lambda^p - 1, lowest first
        poly = _poly_mul(poly, factor)
    poly = [0] * sp.zero_count + poly  # multiply by lambda^z
    return tuple(reversed(poly))
