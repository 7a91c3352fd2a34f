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

k1_towers lists the families as chart.FamilyRow rows: a base, a height and
the cofactor factors walked by monomial.bounded_exponents.  W, Z and q are
walked by index (chart.walk_family) while a row reaches the window: its
lowest dot, base - 2(p-1)(height - 1), is <= n_max.  k1_dims counts the
rows' dots with chart.count_family_dots, as modules.assoc_graded_dims does.

Two audits consume these dimensions:

  * bockstein_audit: the long exact sequence relating k(1)* to
    multiplication by p forces, degree by degree,
        dim k(1)^n = dim coker(p | ku^n) + dim ker(p | ku^{n+1}),
    and both right-hand dimensions equal the number of cyclic summands
    (multiplication by p preserves degree), read by Chart.summands_at.
    Trivial summands are omitted on both sides; a free generator gives one
    class to each side in matching degrees, so the identity restricts cleanly.

  * theorem61_audit (odd p): the same totals, but with the right-hand side
    re-derived from the splitting of the long exact sequence into 4- and
    10-term pieces indexed by the core charts (g_family_dims: the term table
    _g_terms read through _g_rows as height-1 FamilyRows, walked and counted
    as the k(1) rows are).  Passing means no exotic extension beyond the
    ones built into the charts can exist: an extra one would lower a
    ker/coker count and break a degree.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .chart import FamilyRow, count_family_dots, row_reach, walk_family
from .modules import build_A, build_B, build_S, full_chart
from .monomial import Z_prod, k0, q_degree, y_degree, z_degree
from .padic import r, r_prime, w_degree
from .series import degree_rows, report


def _y_pair(p: int, k: int) -> list[tuple[int, int | None]]:
    """The factors of TP_{p-1}[y_k] (x) P[y_{k+1}]."""
    return [(y_degree(p, k), p - 2), (y_degree(p, k + 1), None)]


def k1_towers(p: int, n_max: int) -> list[tuple[str, FamilyRow]]:
    """The k(1) family rows, each tagged with its family name: the bottom
    rows, then W, Z and q, each walked while its rows reach degree <= n_max."""
    y, z, w = partial(y_degree, p), partial(z_degree, p), partial(w_degree, p)
    y1 = (y(1), None)
    rows = [("bottom", FamilyRow(2 * (p - 1) + z(0), 1, [y1]))]
    if p == 2:
        rows.append(("bottom", FamilyRow(z(1), 1, [y1])))
    families = (
        ("W", 1, lambda j: [FamilyRow(
            w(j), r(p, j), [(w(j + 1), 1)] + _y_pair(p, j), j + 1)]),
        ("Z", k0(p), lambda j: [FamilyRow(
            z(j), r_prime(p, j - 1), [(z(j), p - 2), (y(j), None), (w(j), 1)], j + 1)]),
        ("q", k0(p), lambda j: [FamilyRow(p * z(j), 1, [y1, (q_degree(p), 1)], j + 1)]),
    )
    walk = partial(walk_family, reach=partial(row_reach, p), n_max=n_max)
    for name, start, rows_at in families:
        rows += [(name, row) for row in walk(rows_at, start=start)]
    return rows


@lru_cache(maxsize=None)
def k1_dims(p: int, n_max: int) -> tuple[int, ...]:
    """F_p-dimensions of k(1)^n(K2) for 0 <= n <= n_max, trivial summand
    excluded.  Entry [n] is the number of monomial-family classes in
    degree n."""
    return count_family_dots(p, [row for _, row in k1_towers(p, n_max)], n_max)


def bockstein_audit(p: int, n_max: int) -> dict:
    """Check dim k(1)^n = t(ku^n) + t(ku^{n+1}) for all n <= n_max, where
    t counts cyclic summands (= dim of both coker and ker of multiplication
    by p in that degree)."""
    chart = full_chart(p, n_max + 1)
    t = [chart.summands_at(n) for n in range(n_max + 2)]
    cyclic = [t[n] + t[n + 1] for n in range(n_max + 1)]
    rows = degree_rows(n_max, k1_dims(p, n_max), cyclic, ("k1", "ku_cyclic"))
    return report({"p": p, "n_max": n_max}, rows)


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
# _g_terms holds this table, and _g_rows reads it as height-1 FamilyRows:
# walked and counted as the k(1) rows are, by row_reach and count_family_dots.
# ---------------------------------------------------------------------------

_KER, _COKER = 1, 0  # degree shift applied to the chart lookup


def _odd_only(p: int) -> None:
    if p == 2:
        raise ValueError(
            "splitting families are defined for odd primes only; "
            "use bockstein_audit for p = 2"
        )


@lru_cache(maxsize=None)
def _tcounts(p: int, kind: str, *params: int) -> dict:
    """degree -> number of cyclic summands (Chart.summands_at), for core
    chart A, B or S at params."""
    chart = {"A": build_A, "B": build_B, "S": build_S}[kind](p, *params)
    return {n: c for n in sorted(chart.degree_index()) if (c := chart.summands_at(n))}


def _g_terms(p: int, i: int, params: tuple) -> tuple[list, list, int | None]:
    """G^i at params as data: its terms ((chart kind, *chart params), shift,
    side) and its cofactor, the factors times Lambda_lam (lam None: none).
    The ker of a piece's chart c lies in G^(first + c), its coker in the next."""
    _odd_only(p)
    if i not in range(1, 9):
        raise ValueError(f"no family G^{i}")
    if i <= 2:
        (k,) = params
        first, charts = 1, [(("A", k), 0)]
        factors, lam = _y_pair(p, k), None
    elif i <= 6:
        k, ell = params
        if ell <= k:
            raise ValueError("need 1 <= k < l")
        first = 3
        charts = [  # shifted by |y_k Z_k^l|, |y_1^{p^{k-1}-1} q| and |z_l|
            (("B", k), 2 * p**k + Z_prod(p, k, ell).degree),
            (("S", k, ell), 2 * p * (p ** (k - 1) - 1) + q_degree(p)),
            (("B", k), z_degree(p, ell)),
        ]
        factors, lam = [(z_degree(p, ell), p - 2)] + _y_pair(p, k), ell + 1
    else:
        k, e = params
        if not 1 <= e <= p - 2:
            raise ValueError("need 1 <= e <= p-2")
        first, charts = 7, [(("B", k), e * z_degree(p, k))]
        factors, lam = [(y_degree(p, k), None)], k + 1
    if k < 1:
        raise ValueError("need k >= 1")
    c = i - first  # the coker of chart c - 1 and the ker of chart c
    terms = [(*charts[c - 1], _COKER)] if c > 0 else []
    terms += [(*charts[c], _KER)] if c < len(charts) else []
    return terms, factors, lam


def _g_rows(p: int, i: int, params: tuple) -> list[FamilyRow]:
    """G^i at params as height-1 family rows: one per degree of each term's
    chart, based where its classes land and counting its cyclic summands."""
    terms, factors, lam = _g_terms(p, i, params)
    return [
        FamilyRow(deg + shift - side, 1, factors, lam, count)
        for key, shift, side in terms
        for deg, count in _tcounts(p, *key).items()
    ]


def g_family_dims(p: int, i: int, params: tuple, n_max: int) -> tuple[int, ...]:
    """Per-degree dimensions of G^i with its cofactors, degrees 0..n_max.

    params is (k,) for i in {1, 2}, (k, l) for i in {3..6}, and (k, e)
    for i in {7, 8}, always with k >= 1.  Odd p only."""
    return count_family_dots(p, _g_rows(p, i, params), n_max)


def _g_total(p: int, n_max: int) -> tuple[int, ...]:
    """Dot counts in degrees 0..n_max of the rows of every (i, params)
    instance of the splitting families, each walked by k (G^3..G^6 by l
    within k) while its rows reach degree <= n_max."""
    walk = partial(walk_family, reach=partial(row_reach, p), n_max=n_max)

    def rows(*instances: tuple) -> list[FamilyRow]:
        return [row for i, params in instances for row in _g_rows(p, i, params)]

    def ten_term(k: int, ell: int) -> list[FamilyRow]:
        return rows(*((i, (k, ell)) for i in (3, 4, 5, 6)))

    families = (
        lambda k: rows((1, (k,)), (2, (k,))),
        lambda k: list(walk(partial(ten_term, k), start=k + 1)),
        lambda k: rows(*((i, (k, e)) for e in range(1, p - 1) for i in (7, 8))),
    )
    return count_family_dots(p, [row for f in families for row in walk(f, start=1)], n_max)


def theorem61_audit(p: int, n_max: int) -> dict:
    """Check sum_i sum_params g_family_dims(p, i, params, n_max)[n] =
    k1_dims(p, n_max)[n] for all n <= n_max.  Odd p only."""
    _odd_only(p)
    rows = degree_rows(n_max, _g_total(p, n_max), k1_dims(p, n_max), ("splitting", "k1"))
    return report({"p": p, "n_max": n_max}, rows)
