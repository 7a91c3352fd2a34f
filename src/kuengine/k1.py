"""Closed-form k(1)*(K2) dimensions and the exactness audits built on them.

Away from an everywhere-trivial summand, k(1)*(K2) is a direct sum of four
monomial families.  Heights in brackets are v-tower heights; a tower based
in degree d occupies degrees d - 2(p-1)a for 0 <= a < height.

    W family (j >= 1):    w_j y_j^d y_{j+1}^c w_{j+1}^eps lam   [r(j)]
                          0 <= d <= p-2, lam in Lambda_{j+1}
    Z family (j >= k0):   z_j^e y_j^c w_j^eps lam               [r'(j-1)]
                          1 <= e <= p-1, lam in Lambda_{j+1}
    bottom family:        y_0^{p-1} z_0 y_1^c        (all p)    [1]
                          z_1 y_1^c                  (p = 2)    [1]
    q family (j >= k0):   z_j^p y_1^c q^eps lam                 [1]
                          lam in Lambda_{j+1}

The Z and q families start at j = k0 (= 2 when p = 2): at p = 2 the whole
z_1 column is carried by the height-1 classes of the bottom family, and
z_1^2 never appears.  This indexing is forced by the exactness audit below,
which pins every dimension against the chart groups.

The w_j are odd-degree classes with |w_1| = 2p^2 + 1 and
w_{j+2} = y_j^{p-1} w_j z_{j+1}^{p-1} (see padic.w_degree).

Each family, and each cofactor of the splitting families below, is a
factor list walked by monomial.bounded_exponents: a (degree, max exponent)
pair per generator, None for a polynomial y-power, 1 for eps, p-1 for the
z-factors of Lambda, listed only up to the degree that can still reach the
window.  k1_dims counts the towers of each family with
chart.count_family_dots, the counter modules.assoc_graded_dims uses too.

Two audits consume these dimensions:

  * bockstein_audit: the long exact sequence relating k(1)* to
    multiplication by p forces, degree by degree,
        dim k(1)^n = dim coker(p | ku^n) + dim ker(p | ku^{n+1}),
    and both right-hand dimensions equal the number of cyclic summands
    (multiplication by p preserves degree).  Trivial summands are omitted
    on both sides; a free generator contributes one class to each side in
    matching degrees, so the identity restricts cleanly.

  * theorem61_audit (odd p): the same totals, but with the right-hand side
    re-derived from the splitting of the long exact sequence into 4- and
    10-term pieces indexed by the core charts (g_family_dims).  Passing
    means no exotic extension beyond the ones built into the charts can
    exist: an extra one would lower a ker/coker count and break a degree.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .chart import count_family_dots
from .modules import build_A, build_B, build_S, full_chart
from .monomial import (
    Z_prod,
    bounded_exponents,
    k0,
    lambda_factors,
    q_degree,
    y_degree,
    z_degree,
)
from .padic import r, r_prime, w_degree
from .series import degree_rows, report


def _y_pair(p: int, k: int) -> list[tuple[int, int | None]]:
    """The factors of TP_{p-1}[y_k] (x) P[y_{k+1}]."""
    return [(y_degree(p, k), p - 2), (y_degree(p, k + 1), None)]


@lru_cache(maxsize=None)
def k1_dims(p: int, n_max: int) -> tuple[int, ...]:
    """F_p-dimensions of k(1)^n(K2) for 0 <= n <= n_max, trivial summand
    excluded.  Entry [n] is the number of monomial-family classes in
    degree n."""
    w = 2 * (p - 1)
    dims = [0] * (n_max + 1)

    add = partial(count_family_dots, dims, p)  # (base, height, factors, lam)

    # W family.  The lowest reachable degree |w_j| - 2(p-1)(r(j)-1) grows
    # with j, so the loop terminates.
    j = 1
    while w_degree(p, j) - w * (r(p, j) - 1) <= n_max:
        add(w_degree(p, j), r(p, j), [(w_degree(p, j + 1), 1)] + _y_pair(p, j), j + 1)
        j += 1

    # Z family.
    j = k0(p)
    while z_degree(p, j) - w * (r_prime(p, j - 1) - 1) <= n_max:
        cof = [(z_degree(p, j), p - 2), (y_degree(p, j), None), (w_degree(p, j), 1)]
        add(z_degree(p, j), r_prime(p, j - 1), cof, j + 1)
        j += 1

    # Bottom family.
    add(2 * (p - 1) + z_degree(p, 0), 1, [(y_degree(p, 1), None)])
    if p == 2:
        add(z_degree(p, 1), 1, [(y_degree(p, 1), None)])

    # q family.
    j = k0(p)
    while p * z_degree(p, j) <= n_max:
        add(p * z_degree(p, j), 1, [(y_degree(p, 1), None), (q_degree(p), 1)], j + 1)
        j += 1

    return tuple(dims)


def bockstein_audit(p: int, n_max: int) -> dict:
    """Check dim k(1)^n = t(ku^n) + t(ku^{n+1}) for all n <= n_max, where
    t counts cyclic summands (= dim of both coker and ker of multiplication
    by p in that degree)."""
    chart = full_chart(p, n_max + 1)
    t = [len(chart.group_at(n)) for n in range(n_max + 2)]
    rhs = [t[n] + t[n + 1] for n in range(n_max + 1)]
    return report({"p": p, "n_max": n_max}, degree_rows(n_max, k1_dims(p, n_max), rhs))


# ---------------------------------------------------------------------------
# Splitting families (odd p).
#
# The long exact sequence splits into pieces indexed by core charts, and
# each G^i is, degree by degree, a ker or coker of multiplication by p:
#
#   G^1_k = ker(p | A_k),  G^2_k = coker(p | A_k),
#       both tensored with TP_{p-1}[y_k] (x) P[y_{k+1}]
#   G^3_{k,l} = ker(p | y_k B_k Z_k^l)
#   G^4_{k,l} = coker(p | y_k B_k Z_k^l) (+) ker(p | y_1^{p^{k-1}-1} q S_{k,l})
#   G^5_{k,l} = coker(p | y_1^{p^{k-1}-1} q S_{k,l}) (+) ker(p | B_k z_l)
#   G^6_{k,l} = coker(p | B_k z_l)
#       all tensored with TP_{p-1}[y_k] (x) P[y_{k+1}] (x) TP_{p-1}[z_l]
#       (x) Lambda_{l+1}, for 1 <= k < l
#   G^7_{k,e} = ker(p | B_k z_k^e),  G^8_{k,e} = coker(p | B_k z_k^e),
#       tensored with P[y_k] (x) Lambda_{k+1}, for 1 <= e <= p-2
#
# with Z_k^l = (z_k ... z_{l-1})^{p-1}.  A ker class sits one degree below
# its chart class (the connecting map raises degree by 1; e.g. w_1 in
# degree 2p^2+1 maps to the kernel class z_1 in degree 2p^2+2); a coker
# class keeps its degree.  Since multiplication by p preserves degree, both
# ker and coker dimensions in a given degree equal the number of cyclic
# summands there.
# ---------------------------------------------------------------------------

_KER, _COKER = 1, 0  # degree shift applied to the chart lookup


def _odd_only(p: int) -> None:
    if p == 2:
        raise ValueError(
            "splitting families are defined for odd primes only; "
            "use bockstein_audit for p = 2"
        )


@lru_cache(maxsize=None)
def _tcounts(p: int, kind: str, k: int, ell: int = 0) -> dict:
    """degree -> number of cyclic summands, for a core chart."""
    if kind == "A":
        chart = build_A(p, k)
    elif kind == "B":
        chart = build_B(p, k)
    else:
        chart = build_S(p, k, ell)
    counts = (
        (n, len(chart.group_at(n)))
        for n in range(chart.min_dot_degree(), chart.max_dot_degree() + 1)
    )
    return {n: c for n, c in counts if c}


def _cofactor_degrees(factors: list, budget: int) -> list[int]:
    """Degrees of the monomials in the factors, up to budget."""
    return [d for _, d in bounded_exponents(factors, budget)]


def _q_shift(p: int, k: int) -> int:
    """|y_1^{p^{k-1}-1} q|."""
    return 2 * p * (p ** (k - 1) - 1) + q_degree(p)


def _accumulate(
    dims: list[int], t: dict, shift: int, side: int, cofactors: list[int]
) -> None:
    """dims[n] += t[n + side - shift - cof] for every cofactor degree."""
    n_max = len(dims) - 1
    for deg, count in t.items():
        for cof in cofactors:
            n = deg + shift + cof - side
            if 0 <= n <= n_max:
                dims[n] += count


def g_family_dims(p: int, i: int, params: tuple, n_max: int) -> tuple[int, ...]:
    """Per-degree dimensions of G^i with its cofactors, degrees 0..n_max.

    params is (k,) for i in {1, 2}, (k, l) for i in {3..6}, and (k, e)
    for i in {7, 8}.  Odd p only."""
    _odd_only(p)
    if i not in range(1, 9):
        raise ValueError(f"no family G^{i}")
    dims = [0] * (n_max + 1)
    budget = n_max + 1  # ker classes reach one degree below the chart
    if i in (1, 2):
        (k,) = params
        t = _tcounts(p, "A", k)
        side = _KER if i == 1 else _COKER
        _accumulate(dims, t, 0, side, _cofactor_degrees(_y_pair(p, k), budget))
    elif i in (3, 4, 5, 6):
        k, ell = params
        if not 1 <= k < ell:
            raise ValueError("need 1 <= k < l")
        ten = [(z_degree(p, ell), p - 2)] + _y_pair(p, k)
        ten += lambda_factors(p, ell + 1, budget)
        cof = _cofactor_degrees(ten, budget)
        tb = _tcounts(p, "B", k)
        if i == 3:
            _accumulate(dims, tb, 2 * p**k + Z_prod(p, k, ell).degree, _KER, cof)
        elif i == 4:
            _accumulate(dims, tb, 2 * p**k + Z_prod(p, k, ell).degree, _COKER, cof)
            _accumulate(dims, _tcounts(p, "S", k, ell), _q_shift(p, k), _KER, cof)
        elif i == 5:
            _accumulate(dims, _tcounts(p, "S", k, ell), _q_shift(p, k), _COKER, cof)
            _accumulate(dims, tb, z_degree(p, ell), _KER, cof)
        else:
            _accumulate(dims, tb, z_degree(p, ell), _COKER, cof)
    else:
        k, e = params
        if not 1 <= e <= p - 2:
            raise ValueError("need 1 <= e <= p-2")
        t = _tcounts(p, "B", k)
        side = _KER if i == 7 else _COKER
        single = [(y_degree(p, k), None)] + lambda_factors(p, k + 1, budget)
        cof = _cofactor_degrees(single, budget)
        _accumulate(dims, t, e * z_degree(p, k), side, cof)
    return tuple(dims)


def _g_total(p: int, n_max: int) -> list[int]:
    """Sum of g_family_dims over every family instance that can reach the
    window.  All per-instance minimum degrees grow with k and l, so the
    loops terminate."""
    total = [0] * (n_max + 1)

    def fold(vec: tuple[int, ...]) -> None:
        for n, d in enumerate(vec):
            total[n] += d

    k = 1
    while min(_tcounts(p, "A", k)) - 1 <= n_max:
        fold(g_family_dims(p, 1, (k,), n_max))
        fold(g_family_dims(p, 2, (k,), n_max))
        k += 1

    k = 1
    while True:
        min_b = min(_tcounts(p, "B", k))
        if min_b + 2 * p**k + Z_prod(p, k, k + 1).degree - 1 > n_max:
            break
        ell = k + 1
        while True:
            reach = min(
                min_b + 2 * p**k + Z_prod(p, k, ell).degree,
                min(_tcounts(p, "S", k, ell)) + _q_shift(p, k),
                min_b + z_degree(p, ell),
            )
            if reach - 1 > n_max:
                break
            for i in (3, 4, 5, 6):
                fold(g_family_dims(p, i, (k, ell), n_max))
            ell += 1
        k += 1

    k = 1
    while min(_tcounts(p, "B", k)) + z_degree(p, k) - 1 <= n_max:
        for e in range(1, p - 1):
            fold(g_family_dims(p, 7, (k, e), n_max))
            fold(g_family_dims(p, 8, (k, e), n_max))
        k += 1

    return total


def theorem61_audit(p: int, n_max: int) -> dict:
    """Check sum_i sum_params g_family_dims(p, i, params, n_max)[n] =
    k1_dims(p, n_max)[n] for all n <= n_max.  Odd p only."""
    _odd_only(p)
    rows = degree_rows(n_max, _g_total(p, n_max), k1_dims(p, n_max))
    return report({"p": p, "n_max": n_max}, rows)
