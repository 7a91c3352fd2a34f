"""k(1)-dimension closed form, the Bockstein exactness audit, and the
splitting-family accounting.

Spot dimensions below were verified against ker/coker counts of
multiplication by p read off the chart groups, which the exact sequence
pins degree by degree.
"""

import pytest

from kuengine import k1
from kuengine.chart import count_family_dots, row_reach, tower_dots
from kuengine.k1 import (
    _g_rows,
    _g_terms,
    _g_total,
    _tcounts,
    bockstein_audit,
    k1_dims,
    k1_towers,
    theorem61_audit,
)
from kuengine.modules import build_A, build_B, build_S
from kuengine.monomial import Monomial, bounded_exponents, k0, lambda_factors, q_degree, z_degree
from kuengine.padic import r, r_prime, w_degree
from test_monomial import ref_lambda_exponents

PRIMES = (2, 3, 5, 7)


def g_family_dims(p, i, params, n_max):
    """Per-degree dimensions of G^i with its cofactors, degrees 0..n_max:
    one (i, params) instance of the splitting families that _g_total walks.
    params is (k,) for i in {1, 2}, (k, l) for i in {3..6}, and (k, e) for
    i in {7, 8}, always with k >= 1.  Odd p only."""
    return count_family_dots(p, _g_rows(p, i, params), n_max)


# -- w-class degrees -------------------------------------------------------


def test_w_recurrence_matches_direct_monomial_degree():
    for p in (2, 3, 5):
        for j in range(1, 9):
            bump = Monomial.gen(p, "y", j, p - 1) * Monomial.gen(p, "z", j + 1, p - 1)
            assert w_degree(p, j + 2) == w_degree(p, j) + bump.degree


# -- k1_dims ---------------------------------------------------------------


def test_w1_column_p2():
    # w_1 sits in degree 9 with v-height r(1) = 2: classes in 9 and 7.
    assert r(2, 1) == 2
    dims = k1_dims(2, 9)
    assert (dims[9], dims[7], dims[5]) == (1, 1, 0)


def test_low_even_degrees_vanish():
    # Every family carries a mandatory factor; the first even-degree class
    # is y_0^{p-1} z_0 in degree 4p.
    for p in (2, 3):
        dims = k1_dims(p, 4 * p)
        for n in range(0, 2 * p + 2, 2):
            assert dims[n] == 0
        assert dims[4 * p] == 1


def test_z1_column_is_height_one_at_p2():
    # At p = 2 the z_1 column belongs to the bottom family: one class in
    # each degree 10 + 4c and nothing one v-step below it.
    dims = k1_dims(2, 10)
    assert dims[10] == 1
    assert dims[8] == 1  # y_0 z_0 only
    assert dims[:7] == k1_dims(2, 6) == (0,) * 7


def test_zj_column_heights_p3():
    # z_1 has height r'(0) = 2 at p = 3: classes in 20 and 16.
    assert r_prime(3, 0) == 2
    dims = k1_dims(3, 20)
    assert dims[20] == dims[16] == 1


def test_negative_degree_is_zero():
    # a window below degree 0 holds no degree, and no family reaches it
    assert k1_dims(3, -1) == ()
    assert g_family_dims(3, 2, (1,), -1) == ()


# -- bockstein_audit -------------------------------------------------------


def test_bockstein_row_shape_and_trivial_degrees():
    rep = bockstein_audit(2, 30)
    assert rep["ok"]
    assert rep["checked"] == 31
    row = rep["rows"][9]
    assert row == {"degree": 9, "k1": 1, "ku_cyclic": 1, "pass": True}
    # degrees where both theories vanish
    assert rep["rows"][3] == {"degree": 3, "k1": 0, "ku_cyclic": 0, "pass": True}


def test_bockstein_windows():
    assert bockstein_audit(2, 80)["ok"]
    assert bockstein_audit(3, 80)["ok"]
    assert bockstein_audit(5, 80)["ok"]


# -- splitting families ----------------------------------------------------


def test_g_families_reject_p2():
    with pytest.raises(ValueError):
        g_family_dims(2, 1, (1,), 10)
    with pytest.raises(ValueError):
        theorem61_audit(2, 10)


def test_g_family_validation():
    with pytest.raises(ValueError):
        g_family_dims(3, 9, (1,), 10)
    with pytest.raises(ValueError):
        g_family_dims(3, 3, (2, 2), 10)  # need k < l
    with pytest.raises(ValueError):
        g_family_dims(3, 7, (1, 2), 10)  # need e <= p-2
    # G^1_0 is no family (A_0 would lend it classes), and B_0 is empty
    for p, i, params in ((3, 1, (0,)), (3, 2, (0,)), (3, 3, (0, 1)), (3, 6, (-1, 2)),
                         (3, 7, (0, 1)), (5, 8, (0, 3))):
        with pytest.raises(ValueError, match="need k >= 1"):
            g_family_dims(p, i, params, 40)


def test_g1_g2_low_degrees_p3():
    # A_1 has cyclic summands in degrees 20, 16, 12; the kernel classes sit
    # one degree lower (w_1's column: 19, 15, 11 matching r(1) = 3) and the
    # cokernel classes keep their degree.  The y_1 cofactor repeats both
    # columns six degrees up.
    g1 = g_family_dims(3, 1, (1,), 21)
    g2 = g_family_dims(3, 2, (1,), 21)
    assert [n for n, d in enumerate(g1) if d] == [11, 15, 17, 19, 21]
    assert [n for n, d in enumerate(g2) if d] == [12, 16, 18, 20]
    assert r(3, 1) == 3


def test_g2_matches_k1_below_z1_degree():
    # Below |z_1| = 20 (p = 3) the only even-degree classes are the bottom
    # family ones, and they are carried by cokernels (degree preserved).
    dims = k1_dims(3, 18)
    g2 = [g_family_dims(3, 2, (k,), 18) for k in (1, 2)]
    for n in (12, 18):
        assert dims[n] == 1
        assert g2[0][n] + g2[1][n] >= 1


def test_theorem61_windows():
    rep = theorem61_audit(3, 150)
    assert rep["ok"]
    assert rep["rows"][19] == {"degree": 19, "splitting": 1, "k1": 1, "pass": True}
    assert theorem61_audit(5, 120)["ok"]


# -- the family walks against the hand-written loops they replaced ----------


def ref_k1_dims(p, n_max):
    """Reference: the four families walked by explicit loops, one per
    exponent (y-powers by while loops), over the doubling-loop Lambda."""
    w = 2 * (p - 1)
    dims = [0] * (n_max + 1)

    def add(base, height):
        for a in tower_dots(base, height, w, 0, n_max):
            dims[base - w * a] += 1

    j = 1
    while w_degree(p, j) - w * (r(p, j) - 1) <= n_max:
        height = r(p, j)
        pad = w * (height - 1)
        for _, lam_deg in ref_lambda_exponents(p, j + 1, n_max + pad - w_degree(p, j)):
            for eps in (0, 1):
                base0 = w_degree(p, j) + lam_deg + eps * w_degree(p, j + 1)
                for d in range(p - 1):
                    base1 = base0 + d * 2 * p**j
                    if base1 - pad > n_max:
                        break
                    c = 0
                    while base1 + c * 2 * p ** (j + 1) - pad <= n_max:
                        add(base1 + c * 2 * p ** (j + 1), height)
                        c += 1
        j += 1
    j = k0(p)
    while z_degree(p, j) - w * (r_prime(p, j - 1) - 1) <= n_max:
        height = r_prime(p, j - 1)
        pad = w * (height - 1)
        for _, lam_deg in ref_lambda_exponents(p, j + 1, n_max + pad - z_degree(p, j)):
            for eps in (0, 1):
                for e in range(1, p):
                    base1 = e * z_degree(p, j) + lam_deg + eps * w_degree(p, j)
                    if base1 - pad > n_max:
                        break
                    c = 0
                    while base1 + c * 2 * p**j - pad <= n_max:
                        add(base1 + c * 2 * p**j, height)
                        c += 1
        j += 1
    bottoms = [2 * (p - 1) + z_degree(p, 0)]
    if p == 2:
        bottoms.append(z_degree(p, 1))
    for base0 in bottoms:
        c = 0
        while base0 + 2 * p * c <= n_max:
            add(base0 + 2 * p * c, 1)
            c += 1
    j = k0(p)
    while p * z_degree(p, j) <= n_max:
        for _, lam_deg in ref_lambda_exponents(p, j + 1, n_max - p * z_degree(p, j)):
            for eps in (0, 1):
                base1 = p * z_degree(p, j) + lam_deg + eps * q_degree(p)
                c = 0
                while base1 + 2 * p * c <= n_max:
                    add(base1 + 2 * p * c, 1)
                    c += 1
        j += 1
    return tuple(dims)


@pytest.mark.parametrize("p", PRIMES)
def test_k1_dims_match_the_loop_reference(p):
    for n_max in (0, 1, 37, 250, 600):
        assert k1_dims(p, n_max) == ref_k1_dims(p, n_max), n_max


def ref_pair_cofactors(p, k, budget):
    out = []
    for d in range(p - 1):
        base = d * 2 * p**k
        if base > budget:
            break
        c = 0
        while base + c * 2 * p ** (k + 1) <= budget:
            out.append(base + c * 2 * p ** (k + 1))
            c += 1
    return out


def ref_ten_term_cofactors(p, k, ell, budget):
    out = []
    for _, lam_deg in ref_lambda_exponents(p, ell + 1, budget):
        for f in range(p - 1):
            base = lam_deg + f * z_degree(p, ell)
            if base > budget:
                break
            out.extend(base + d for d in ref_pair_cofactors(p, k, budget - base))
    return out


def ref_single_cofactors(p, k, budget):
    out = []
    for _, lam_deg in ref_lambda_exponents(p, k + 1, budget):
        c = 0
        while lam_deg + c * 2 * p**k <= budget:
            out.append(lam_deg + c * 2 * p**k)
            c += 1
    return out


@pytest.mark.parametrize("p", (3, 5, 7))
def test_g_family_cofactors_match_the_loop_reference(p):
    # each G^i instance's dimensions against its terms' cyclic-summand counts
    # times the cofactor degrees of the loops
    for n_max in (0, 60, 400):
        budget = n_max + 1
        for k in (1, 2):
            cases = [(i, (k,), ref_pair_cofactors(p, k, budget)) for i in (1, 2)]
            for ell in (k + 1, k + 2):
                cof = ref_ten_term_cofactors(p, k, ell, budget)
                cases += [(i, (k, ell), cof) for i in (3, 4, 5, 6)]
            cof = ref_single_cofactors(p, k, budget)
            cases += [(i, (k, e), cof) for i in (7, 8) for e in range(1, p - 1)]
            for i, params, cof in cases:
                want = [0] * (n_max + 1)
                for key, shift, side in _g_terms(p, i, params)[0]:
                    for deg, count in _tcounts(p, *key).items():
                        for n in (deg + shift + c - side for c in cof):
                            if 0 <= n <= n_max:
                                want[n] += count
                assert g_family_dims(p, i, params, n_max) == tuple(want), (i, params)


def ref_tcounts(p, kind, *params):
    """degree -> number of cyclic summands, read off the Smith form of each
    degree's group."""
    chart = {"A": build_A, "B": build_B, "S": build_S}[kind](p, *params)
    degrees = range(chart.min_dot_degree(), chart.max_dot_degree() + 1)
    return {n: c for n in degrees if (c := len(chart.group_at(n)))}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_tcounts_match_the_group_reference(p):
    # _tcounts counts dim M/pM as dots less an F_p rank, with no Smith form
    keys = [("A", k) for k in range(5)] + [("B", k) for k in range(1, 5)]
    keys += [("S", k, ell) for ell in range(2, 6) for k in range(1, ell)]
    for key in keys:
        assert _tcounts(p, *key) == ref_tcounts(p, *key), key


# -- the walks stop where their rows say ------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_k1_walks_stop_at_the_first_row_past_the_window(p):
    far = k1_towers(p, 10**6)
    for n_max in (0, 60, 400):
        walked = k1_towers(p, n_max)
        for name in ("W", "Z", "q"):
            rows = [row for f, row in walked if f == name]
            more = [row for f, row in far if f == name]
            assert more[: len(rows)] == rows, (name, n_max)
            past = more[len(rows)]  # the first index past the walk
            assert row_reach(p, past) > n_max
            assert not any(count_family_dots(p, [past], n_max)), (name, n_max)
            # the reach is the row's lowest dot, not just a bound below it
            assert count_family_dots(p, [past], row_reach(p, past))[-1] == 1


# the first k whose A_k and B_k lie wholly above degree 401
G_GRID = {3: 5, 5: 4, 7: 3}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_g_walks_drop_no_instance(p):
    top = G_GRID[p]
    ks = range(1, top + 1)
    grid = [(i, (k,)) for k in ks for i in (1, 2)]
    grid += [(i, (k, ell)) for k in ks for ell in range(k + 1, top + 2) for i in (3, 4, 5, 6)]
    grid += [(i, (k, e)) for k in ks for e in range(1, p - 1) for i in (7, 8)]
    # the grid's far edges: k = top, or l = top + 1
    edge = [(i, ps) for i, ps in grid if ps[0] == top or (3 <= i <= 6 and ps[1] == top + 1)]

    def g_reach(i, ps):
        return min(row_reach(p, row) for row in _g_rows(p, i, ps))

    for i, ps in grid:
        # the reach is the instance's lowest class, not just a bound below it
        reach = g_reach(i, ps)
        if reach <= 1000:
            dims = g_family_dims(p, i, ps, reach)
            assert dims[-1] and not any(dims[:-1]), (i, ps)
    for n_max in (0, 60, 400):
        assert all(g_reach(i, ps) > n_max for i, ps in edge), n_max
        brute = [0] * (n_max + 1)
        for i, ps in grid:
            for n, d in enumerate(g_family_dims(p, i, ps, n_max)):
                brute[n] += d
        assert _g_total(p, n_max) == tuple(brute), n_max


def ref_count_family_dots(p, rows, n_max):
    """The per-row count that count_family_dots replaced: one walk of each
    row's cofactor monomials, at the row's own cap."""
    dims = [0] * (n_max + 1)
    w = 2 * (p - 1)
    for base, height, factors, lam, sign in rows:
        cap = n_max + w * (height - 1) - base
        if lam is not None:
            factors = factors + lambda_factors(p, lam, cap)
        for _, d in bounded_exponents(factors, cap):
            for a in tower_dots(base + d, height, w, 0, n_max):
                dims[base + d - w * a] += sign
    return tuple(dims)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_shared_cofactor_walks_match_the_per_row_walk(p):
    # the height-1 rows of one G^i instance share one cofactor, and the k(1)
    # rows of one family level share theirs, across many bases and caps
    instances = [(i, (k,)) for k in (1, 2) for i in (1, 2)]
    instances += [(i, (k, ell)) for k in (1, 2) for ell in (k + 1, k + 2) for i in (3, 4, 5, 6)]
    instances += [(i, (k, e)) for k in (1, 2) for e in range(1, p - 1) for i in (7, 8)]
    g_tables = [_g_rows(p, i, params) for i, params in instances]
    for n_max in (0, 60, 400, 1500):
        tables = [[row for _, row in k1_towers(p, n_max)], sum(g_tables, []), *g_tables]
        for rows in tables:
            assert count_family_dots(p, rows, n_max) == ref_count_family_dots(p, rows, n_max)


# -- the tables carry the audits ---------------------------------------------


@pytest.fixture
def fresh_caches():
    """Empty the k(1) caches around a test that mutates a table."""
    k1.k1_dims.cache_clear()
    k1._tcounts.cache_clear()
    yield
    k1.k1_dims.cache_clear()
    k1._tcounts.cache_clear()


def test_a_lower_z_row_fails_both_audits(monkeypatch, fresh_caches):
    towers = k1.k1_towers

    def lowered(p, n_max):
        rows = towers(p, n_max)
        at = next(t for t, (name, _) in enumerate(rows) if name == "Z")
        row = rows[at][1]
        rows[at] = ("Z", row._replace(height=row.height - 1))
        return rows

    monkeypatch.setattr(k1, "k1_towers", lowered)
    assert not bockstein_audit(3, 300)["ok"]
    assert not theorem61_audit(3, 300)["ok"]


def test_dropping_g4s_s_term_fails_theorem61_only(monkeypatch, fresh_caches):
    terms = k1._g_terms

    def without_s(p, i, params):
        got, factors, lam = terms(p, i, params)
        if i == 4:
            got = [term for term in got if term[0][0] != "S"]
        return got, factors, lam

    monkeypatch.setattr(k1, "_g_terms", without_s)
    assert bockstein_audit(3, 300)["ok"]
    assert not theorem61_audit(3, 300)["ok"]
