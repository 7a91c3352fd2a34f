"""T, the non-free model of H*(K(Z/p, 2)), and the closed forms that the
oracles of margolis.py are checked against.

* _N, _L, _M, _R -- the small non-free modules N, L_k, M_j and the
  locally finite sum R that carry all of the Margolis homology, one
  constructor each; E1Module.times, the one product (by a Q-trivial
  monomial module), makes R from the M_j and their cofactors, R + qR as
  R x E[q], and assemble_T the non-free model with the unit class,
  T = P[y_1] x (1 + N + E[q] x R), so that H ~ unit + T + free.  Only N
  and the generator names differ by prime: L_k, M_j, R, both Margolis
  closed forms and T's Poincare series are one formula at every prime,
  indexed by k0 (2 at p = 2, 1 at odd p) with the paper's M_j index kept
  (j >= 2k0).
* q0_homology_closed, q1_homology_closed -- what margolis_homology must
  reproduce on H*(K2).
* free_part_ps -- counts of free E1 summands per generator degree, obtained
  by subtracting the non-free model's Poincare series from the full one.

Only monomial and series are imported at module level.  A function that
builds or reads an E1-module imports it from margolis in its body, so
groups --include-free and ps compile none of the oracle, and an audit
calls whatever wrapper margolis holds when it runs.
"""

from __future__ import annotations

from .monomial import k0, q_degree
from .series import PSeries, degree_rows, report


# ---------------------------------------------------------------------------
# T, the non-free model, and its Margolis homology
# ---------------------------------------------------------------------------


def _L(p: int, k: int, bottom: int) -> E1Module:
    """L_k with its bottom class a0 in degree `bottom`."""
    from .margolis import EXACT, E1Module
    if k < 0:
        raise ValueError("L_k needs k >= 0")
    step = 2 * (p - 1)
    basis = [(f"{x}{i}", bottom + step * i + (x == "b")) for i in range(k + 1) for x in "ab"]
    q0 = {f"a{i}": {f"b{i}": 1} for i in range(k + 1)}
    q1 = {f"a{i}": {f"b{i + 1}": 1} for i in range(k)}
    return E1Module.from_labels(p, EXACT, basis, q0, q1)


def _N(p: int) -> E1Module:
    from .margolis import EXACT, E1Module
    if p == 2:
        basis = [(f"x{d}", d) for d in (5, 7, 8, 9, 10)]
        return E1Module.from_labels(
            p, EXACT, basis, {"x7": {"x8": 1}, "x9": {"x10": 1}}, {"x5": {"x8": 1}, "x7": {"x10": 1}}
        )
    # n1 = y0^{p-1} u0, q = y0^{p-1} u1, and c = Q0 q = Q1 n1
    basis = [("n1", 2 * p + 1), ("q", 4 * p - 1), ("c", 4 * p)]
    return E1Module.from_labels(p, EXACT, basis, {"q": {"c": 1}}, {"n1": {"c": 1}})


def _M(p: int, j: int) -> E1Module:
    """L_{j-2k0} with its bottom at 2p^(j-k0+1) + 1: 2^j + 1 at p = 2 (j >= 4)
    and 2p^j + 1 at odd p (j >= 2)."""
    kk = k0(p)
    if j < 2 * kk:
        raise ValueError(f"M_j at p = {p} needs j >= {2 * kk}")
    return _L(p, j - 2 * kk, 2 * p ** (j - kk + 1) + 1)


def _R_terms(p: int, D: int):
    """(j, i, cofactor) for each M_j in R whose bottom 2p^i + 1 is <= D,
    i = j - k0 + 1: the (degree, exponent cap) factors of its Q-trivial
    cofactor TP_{p-1}[g_i] x TP_p[g_k : k > i], |g_k| = 2(p^k + 1).  At
    p = 2 the g_i factor is TP_1 = 1 and the rest is E[e_k : k >= j]."""
    kk = k0(p)
    i = kk + 1
    while 2 * p**i + 1 <= D:
        cof = [(2 * (p**i + 1), p - 2)]
        k = i + 1
        while 2 * (p**k + 1) <= D:
            cof.append((2 * (p**k + 1), p - 1))
            k += 1
        yield i + kk - 1, i, cof
        i += 1


def _R(p: int, D: int) -> E1Module:
    """Locally finite sum of M_j tensored with its Q-trivial cofactor."""
    from .margolis import E1Module, GenSpec
    if D < 0:
        raise ValueError("R needs a nonnegative cutoff")
    letter = "e" if p == 2 else "g"
    summands = [
        _M(p, j).times([GenSpec(f"{letter}{i + n}", d, top) for n, (d, top) in enumerate(cof)], D)
        for j, i, cof in _R_terms(p, D)
    ]
    return E1Module.direct_sum(summands) if summands else E1Module(p, D)


def assemble_T(p: int, D: int) -> E1Module:
    """The non-free model with the unit class, P[y_1] x (1 + N + E[q] x R),
    y_1 = u_2^2 at p = 2: the same module as 1 + P[y_1] x (<y_1> + N + R +
    qR), built from one R by two products by Q-trivial monomial modules,
    E[q] and P[y_1].  Its Margolis homology is degreewise that of H*K2."""
    from .margolis import EXACT, E1Module, GenSpec
    name = "u2^2" if p == 2 else "y1"  # the generator of degree 2p
    rq = _R(p, D).times([GenSpec("q", q_degree(p), 1)], D)
    inner = E1Module.direct_sum([E1Module(p, EXACT, {0: ["1"]}), _N(p), rq])
    return inner.times([GenSpec(name, 2 * p)], D)


def q0_homology_closed(p: int, D: int) -> PSeries:
    """Known closed form of H(H*K2; Q0): P[u_2^2] x E[x_5] at p = 2,
    P[y_1] x E[y_0^{p-1} u_0] at odd p (unit included); both are
    P[degree 2p] x E[degree 2p + 1]."""
    return PSeries.geometric(D, 2 * p) * (PSeries.one(D) + PSeries.monomial(D, 2 * p + 1))


def q1_homology_closed(p: int, D: int) -> PSeries:
    """Known closed form of H(H*K2; Q1), unit included: P[y_1] x E[q] x
    E[w_1] x TP_p[g_2, g_3, ...] at odd p, one formula at every prime as
        G(2p) (1 + x^|q|) (1 + x^(2p^(k0+1)+1)) prod_{j>k0} TP_p[2(p^j+1)].
    At p = 2 the product is P[u_2^2] x TP_4[x_9] x TP_4[x_17] x
    E[u_{2^j+1}^2 : j >= 5], as TP_4[x9] TP_4[x17] = E[9]E[18] E[17]E[34]."""
    kk = k0(p)
    out = PSeries.geometric(D, 2 * p)
    out = out * (PSeries.one(D) + PSeries.monomial(D, q_degree(p)))
    out = out * (PSeries.one(D) + PSeries.monomial(D, 2 * p ** (kk + 1) + 1))
    j = kk + 1
    while 2 * (p**j + 1) <= D:
        out = out * PSeries.truncated_poly(D, 2 * (p**j + 1), p)
        j += 1
    return out


# ---------------------------------------------------------------------------
# free part generating function
# ---------------------------------------------------------------------------


def free_part_total_ps(p: int, D: int) -> PSeries:
    """Poincare series of the free complement of unit + T inside H*K2.

    Only H*K2's product and N's degrees are written per prime; T's series
    G(2p) (1 + N + (1 + x^|q|) R) is one formula, R the sum over j >= 2k0
    of M_j's series times its cofactor's (_R_terms), M_j being L_k with
    k = j - 2k0, whose series is (1 + x) TP_(k+1)[x^(2p-2)]."""
    one = PSeries.one(D)
    if p == 2:
        full = one
        j = 0
        while 2**j + 1 <= D:
            full = full * PSeries.geometric(D, 2**j + 1)
            j += 1
        ps_n = PSeries.from_degrees(D, (5, 7, 8, 9, 10))
    else:
        full = PSeries.geometric(D, 2)
        j = 1
        while 2 * (p**j + 1) <= D:
            full = full * PSeries.geometric(D, 2 * (p**j + 1))
            j += 1
        i = 0
        while 2 * p**i + 1 <= D:
            full = full * (one + PSeries.monomial(D, 2 * p**i + 1))
            i += 1
        ps_n = PSeries.from_degrees(D, (2 * p + 1, 4 * p - 1, 4 * p))
    tail = PSeries(D)
    for j, i, cof in _R_terms(p, D):
        body = PSeries.truncated_poly(D, 2 * (p - 1), j - 2 * k0(p) + 1)
        term = ((one + PSeries.monomial(D, 1)) * body).shift(2 * p**i + 1)
        for d, top in cof:
            term = term * PSeries.truncated_poly(D, d, top + 1)
        tail = tail + term
    return full - PSeries.geometric(D, 2 * p) * (
        one + ps_n + (one + PSeries.monomial(D, q_degree(p))) * tail
    )


def free_part_ps(p: int, D: int) -> PSeries:
    """Per-degree counts of free E1 summands (generator degrees).

    A free summand on a generator in degree d spans classes in degrees
    d, d+1, d+2p-1, d+2p, so the total series divides exactly by
    (1+x)(1+x^{2p-1}); a negative coefficient anywhere signals a
    transcription bug in the subtraction and raises."""
    total = free_part_total_ps(p, D)
    one = PSeries.one(D)
    gens = total.divide_exact(
        (one + PSeries.monomial(D, 1)) * (one + PSeries.monomial(D, 2 * p - 1))
    )
    for series, tag in ((total, "total"), (gens, "generator")):
        for d, c in enumerate(series.c):
            if c < 0:
                raise ArithmeticError(f"negative free-part {tag} count {c} at degree {d}")
    return gens


def trivial_summand_counts(p: int, D: int) -> PSeries:
    """Counts of trivial ku*-module summands by codegree: each free E1
    summand on a degree-d generator leaves one Z/p class at codegree d+2p
    (the socle position)."""
    return free_part_ps(p, D).shift(2 * p)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def margolis_audit(p: int, n_max: int) -> dict:
    """Compare Q0- and Q1-homology of H*(K2), computed by rank counting,
    against the known closed-form answers, degree by degree.  The free
    summands carry no Margolis homology, so the ranks are taken on H*(K2)
    with them split off (strip_free)."""
    from .margolis import build_HK2, margolis_homology, strip_free
    mod, _ = strip_free(build_HK2(p, n_max + 2 * p - 1))
    rows = []
    for which, closed in (("Q0", q0_homology_closed), ("Q1", q1_homology_closed)):
        oracle = margolis_homology(mod, which, n_max)
        rows += degree_rows(n_max, oracle, closed(p, n_max), ("oracle", "closed"), which=which)
    return report({"p": p, "n_max": n_max}, rows)


def ps_audit(p: int, n_max: int) -> dict:
    """Two-path check on the free-part Poincare series: the generating-
    function subtraction (free_part_total_ps) must equal H*K2's monomial
    count minus the dimensions of the explicit non-free model, degree by
    degree.  The monomials are counted as the product of one series per
    entry of hk2_generators' table, so no Q-map of H*K2 is built.  At p = 2
    the degree-79 generator count is pinned to its documented value 245
    whenever the window reaches it."""
    from .margolis import hk2_generators
    by_series = free_part_total_ps(p, n_max)
    full = PSeries.one(n_max)
    for g in hk2_generators(p, n_max)[0]:
        height = n_max // g.degree if g.top is None else g.top
        full = full * PSeries.truncated_poly(n_max, g.degree, height + 1)
    by_modules = full - assemble_T(p, n_max).ps()
    rows = degree_rows(n_max, by_series, by_modules, ("series", "model"))
    golden_ok = p != 2 or n_max < 79 or free_part_ps(2, n_max)[79] == 245
    head = {"p": p, "n_max": n_max, "golden_79_ok": golden_ok}
    return report(head, rows, ok=golden_ok)
