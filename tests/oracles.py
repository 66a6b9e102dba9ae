"""Independent reimplementations used only as test oracles.

The attractor oracle deliberately uses a different algorithm from the
package (advance-then-extract on the functional graph instead of
first-revisit bookkeeping) so that agreement is evidence, not an echo.
Likewise the characteristic-polynomial reference expands recursively
over polynomial entries, where the package writes one straight-line
integer expansion in principal minors, and the stepping reference
updates the joint state as a vector, one weight row per node, where the
package composes per-node truth tables.  The composition reference
loops over the four states with the update rule of each mode, where the
package writes each mode out state by state.  The orbit reference searches
the weight tuples to closure under the symmetries, where the package
reads an orbit off as the images under each subset of its generators.
"""

from __future__ import annotations


# The variant table of the ``dynamics`` module docstring: node values
# (low, high) and what a zero weighted sum does.
VALUES = {"V1": (-1, 1), "V2": (-1, 1), "V3": (-1, 1),
          "V4": (0, 1), "V5": (0, 1), "V6": (0, 1), "V7": (0, 1)}
ZERO_SUM = {"V1": "hold", "V2": "high", "V3": "low",
            "V4": "hold", "V5": "high", "V6": "low", "V7": "increment"}


def joint_states(tag: str):
    """The four joint states in index order: (lo,lo), (lo,hi), (hi,lo), (hi,hi)."""
    lo, hi = VALUES[tag]
    return [(a, b) for a in (lo, hi) for b in (lo, hi)]


def node_next(tag: str, total, current: int, epsilon=None) -> int:
    """One node's next value from its weighted input sum."""
    lo, hi = VALUES[tag]
    if epsilon is not None:
        # Shifted threshold: V2 adds epsilon, V3 subtracts it; plain sign.
        return hi if (total + epsilon if tag == "V2" else total - epsilon) > 0 else lo
    if ZERO_SUM[tag] == "increment":
        sign = (total > 0) - (total < 0)
        return min(max(current + sign, 0), 1)
    if total != 0:
        return hi if total > 0 else lo
    return {"hold": current, "high": hi, "low": lo}[ZERO_SUM[tag]]


def sweep(weights, tag: str, mode: str, state, epsilon=None):
    """One update of the joint state under ``mode`` ("synchronous",
    "x-first" or "y-first").  Node i's input is its weight row
    (weights[2i], weights[2i+1]) dotted with the state vector; a
    sequential mode writes the nodes one at a time into that vector."""
    rows = (weights[0:2], weights[2:4])
    vec = list(state)

    def new_value(i, seen):
        return node_next(tag, rows[i][0] * seen[0] + rows[i][1] * seen[1], seen[i], epsilon)

    if mode == "synchronous":
        return tuple(new_value(i, state) for i in (0, 1))
    orders = {"x-first": (0, 1), "y-first": (1, 0)}
    for i in orders[mode]:
        vec[i] = new_value(i, vec)
    return tuple(vec)


def compose(gx, gy, mode: str) -> tuple[int, int, int, int]:
    """The successor index of each state 2 * x + y under ``mode``, from a
    gate per node indexed by 2 * own + other: synchronous, or with the
    first node's new bit read by the second node's gate."""
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    if mode == "synchronous":
        return tuple(2 * gx[2 * x + y] + gy[2 * y + x] for x, y in bits)
    if mode == "x-first":
        return tuple(2 * (x2 := gx[2 * x + y]) + gy[2 * y + x2] for x, y in bits)
    return tuple(2 * gx[2 * x + (y2 := gy[2 * y + x])] + y2 for x, y in bits)


def _canonical(cycle: list[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def functional_graph_attractors(next_index, n_states: int = 4):
    """Attractors of a self-map on range(n_states) by brute simulation.

    In a functional graph on n states every trajectory is on its cycle
    after at most n - 1 steps, so advancing n steps lands on the cycle;
    the cycle is then read off directly.  Returns (attractors, basin,
    steps) shaped like the package's attractor set: a tuple of
    canonical cycles sorted by leading state, a start -> cycle map, and
    a start -> transient-length map.
    """
    cycles: dict[tuple[int, ...], None] = {}
    basin: dict[int, tuple[int, ...]] = {}
    steps: dict[int, int] = {}
    for start in range(n_states):
        cur = start
        for _ in range(n_states):
            cur = next_index(cur)
        cyc = [cur]
        nxt = next_index(cur)
        while nxt != cur:
            cyc.append(nxt)
            nxt = next_index(nxt)
        canonical = _canonical(cyc)
        cycles[canonical] = None
        basin[start] = canonical
        on_cycle = set(cyc)
        k, walker = 0, start
        while walker not in on_cycle:
            walker = next_index(walker)
            k += 1
        steps[start] = k
    ordered = tuple(sorted(cycles, key=lambda c: c[0]))
    return ordered, basin, steps


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


def recursive_charpoly(T) -> list[int]:
    """det(lambda*I - T^t) of a 4x4 integer matrix by recursive
    first-row cofactor expansion over polynomial entries; coefficients
    in descending powers of lambda.  The reference for the package's
    straight-line expansion in ``spectral.charpoly_oracle``.
    """
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


# The rule-space symmetries on weight tuples (wxx, wxy, wyx, wyy): node
# swap reverses the tuple, and the sign flip negates the cross weights.
SYMMETRIES = {
    "T12": lambda w: w[::-1],
    "G": lambda w: (w[0], -w[1], -w[2], w[3]),
}


def closure_orbit(weights, generators) -> set:
    """The weight tuples reachable from ``weights`` by any sequence of the
    named symmetries, found by frontier search until nothing new appears."""
    orbit = {tuple(weights)}
    frontier = list(orbit)
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = SYMMETRIES[g](cur)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    return orbit
