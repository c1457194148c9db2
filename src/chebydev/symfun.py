"""Symmetric-function and univariate Chebyshev building blocks.

Everything here is exact-rational: elementary symmetric polynomials e_k,
power sums m_k, Chebyshev polynomials of the first kind, and
symmetric-group averaging.
"""

from __future__ import annotations

from itertools import combinations

from .polycore import RATIONAL, Poly, PolyError


def elementary_symmetric(k: int, nvars: int, field: str = RATIONAL) -> Poly:
    """e_k in ``nvars`` variables: the sum of all squarefree degree-k monomials."""
    if not 1 <= k <= nvars:
        raise PolyError(f"elementary symmetric degree k={k} requires 1 <= k <= {nvars}")
    terms = {}
    for subset in combinations(range(nvars), k):
        exp = [0] * nvars
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = 1
    return Poly(nvars, terms, field)


def power_sum(k: int, nvars: int, field: str = RATIONAL) -> Poly:
    """m_k = x_1^k + ... + x_d^k, with m_0 = d as a constant."""
    if k < 0:
        raise PolyError(f"power sum degree must be nonnegative, got {k}")
    if k == 0:
        return Poly.constant(nvars, nvars, field)
    terms = {}
    for i in range(nvars):
        exp = [0] * nvars
        exp[i] = k
        terms[tuple(exp)] = 1
    return Poly(nvars, terms, field)


def chebyshev_t(n: int, field: str = RATIONAL) -> Poly:
    """Univariate Chebyshev polynomial of the first kind, via the recurrence
    T_{n+1} = 2 t T_n - T_{n-1}."""
    if n < 0:
        raise PolyError(f"Chebyshev degree must be nonnegative, got {n}")
    t = Poly.variable(1, 0, field)
    prev = Poly.constant(1, 1, field)   # T_0
    if n == 0:
        return prev
    cur = t                             # T_1
    for _ in range(n - 1):
        prev, cur = cur, 2 * t * cur - prev
    return cur


def chebyshev_t_shifted(n: int, field: str = RATIONAL) -> Poly:
    """T_n(2x - 1), the Chebyshev polynomial mapped from [-1, 1] to [0, 1]."""
    inner = 2 * Poly.variable(1, 0, field) - 1
    return chebyshev_t(n, field).compose([inner])


def distinct_permutations(base) -> list[tuple]:
    """All distinct coordinate permutations of a tuple, canonically ordered.

    Next-permutation on the multiset, stepped on the ranks of the sorted
    coordinates: each distinct arrangement comes once, in lexicographic
    order, which is sorted(set(permutations(base))) without its n! tuples.
    Exponent tuples and points alike; no float result depends on the order,
    since float polynomials sum their terms in graded lexicographic order.
    """
    values = sorted(base)
    distinct = values[:1]
    ranks = [0] * len(values)
    for i, v in enumerate(values[1:], 1):
        if v != distinct[-1]:
            distinct.append(v)
        ranks[i] = len(distinct) - 1
    out = []
    last = len(ranks) - 1
    while True:
        out.append(tuple([distinct[r] for r in ranks]))
        i = last - 1
        while i >= 0 and ranks[i] >= ranks[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = last
        while ranks[j] <= ranks[i]:
            j -= 1
        ranks[i], ranks[j] = ranks[j], ranks[i]
        ranks[i + 1:] = ranks[:i:-1]


def symmetrize(p: Poly) -> Poly:
    """Average of p over all coordinate permutations.

    Computed per exponent orbit (each term spreads uniformly over the distinct
    permutations of its exponent tuple), which avoids enumerating all d! maps.
    """
    out: dict[tuple[int, ...], object] = {}
    for exp, coef in p.terms.items():
        orb = distinct_permutations(exp)
        share = coef / len(orb)
        for e in orb:
            out[e] = out.get(e, 0) + share
    return Poly(p.nvars, out, p.field)


def monomial_symmetric(partition: tuple[int, ...], nvars: int,
                       field: str = RATIONAL) -> Poly:
    """Monomial symmetric polynomial: the sum of distinct permutations of the
    padded partition exponent."""
    if len(partition) > nvars:
        raise PolyError(f"partition {partition} has more parts than nvars={nvars}")
    exp = tuple(partition) + (0,) * (nvars - len(partition))
    return Poly(nvars, {e: 1 for e in distinct_permutations(exp)}, field)


def partitions_upto(max_total: int, max_parts: int) -> list[tuple[int, ...]]:
    """All partitions (weakly decreasing tuples, possibly empty) of every total
    0..max_total into at most max_parts parts, in graded order."""
    out: list[tuple[int, ...]] = []
    def rec(remaining: int, max_part: int, parts: list[int]):
        if remaining == 0:
            out.append(tuple(parts))
            return
        if len(parts) == max_parts:
            return
        for part in range(min(max_part, remaining), 0, -1):
            parts.append(part)
            rec(remaining - part, part, parts)
            parts.pop()
    for total in range(max_total + 1):
        rec(total, total, [])
    return out
