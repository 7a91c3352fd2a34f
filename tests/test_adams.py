"""Spectral sequence engine: E2 window, differential families, replay, audits."""

import pytest

from kuengine.adams import (
    BigradedPage,
    _z_runs,
    ETower,
    Fate,
    WindowError,
    classify,
    dot_label,
    e2_dims,
    e2_window,
    einfty_audit,
    ext_audit,
    matching_audit,
    run_differentials,
    tower,
)
from kuengine import margolis
from kuengine.margolis import build_HK2, ext_bruteforce, free_part_ps
from kuengine.modules import full_chart
from kuengine.monomial import (
    Monomial,
    k0,
    q_degree,
    z_comp,
    z_decompose_dict,
    z_degree,
)
from kuengine.padic import nu
from test_monomial import ref_lambda_exponents


def main_key(p, b, eps, **kw):
    m = Monomial(p, **kw)
    return ("main", b, eps, *z_decompose_dict(p, m.z_dict()))


# -- first differentials and the four families --------------------------------


def test_d2_on_y1():
    f = classify(2, ("h0", 0, 1, 0))
    assert (f.role, f.family, f.r, f.e0) == ("source", "F1", 2, 0)
    assert f.partner == ("h0", 0, 0, 1)  # v^2 q


def test_d3_on_y1_squared():
    f = classify(2, ("h0", 0, 2, 0))
    assert (f.family, f.r) == ("F1", 3)
    assert f.partner == ("h0", 1, 1, 1)  # h0 v^2 q y1


def test_d2_on_y1_odd():
    f = classify(3, ("h0", 0, 1, 0))
    assert (f.family, f.r) == ("F1", 2)
    assert f.partner == ("h0", 1, 0, 1)  # h0 v q


def test_bare_z2_truncated_to_its_chart_height():
    f = classify(2, main_key(2, 0, 0, zs=((2, 1),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F3", 2, 4)
    assert f.partner == ("h0", 0, 1, 1)  # v^2 q y1


def test_z2_squared_is_an_f4_target():
    f = classify(2, main_key(2, 0, 0, zs=((2, 2),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F4", 2, 2)
    assert f.partner == main_key(2, 1, 1, zs=((2, 1),))  # q y1 z2


def test_q_z2_killed_from_y1_z2():
    f = classify(2, main_key(2, 0, 1, zs=((2, 1),)))
    assert (f.role, f.family, f.r, f.e0) == ("target", "F2", 2, 2)
    assert f.partner == main_key(2, 1, 0, zs=((2, 1),))


def test_bare_z3_truncated_at_eight():
    f = classify(2, main_key(2, 0, 0, zs=((3, 1),)))
    assert (f.family, f.r, f.e0) == ("F3", 5, 8)
    assert f.partner == ("h0", 1, 3, 1)  # h0 v^2 q y1^3


def test_bare_z1_truncated_at_p_for_odd_primes():
    f = classify(3, main_key(3, 0, 0, zs=((1, 1),)))
    assert (f.family, f.r, f.e0) == ("F3", 2, 3)
    assert f.partner == ("h0", 0, 0, 1)  # v q


def test_special_towers_are_permanent_cycles():
    assert classify(2, ("sp", "x8", 3)).role == "survives"
    assert classify(2, ("sp", "x10", 0)).role == "survives"
    assert classify(3, ("sp", "yz", 2)).role == "survives"


def test_z_monomial_towers_are_never_sources():
    for p, n_hi in ((2, 80), (3, 80)):
        page = e2_window(p, 0, n_hi, 8)
        for key in page.towers:
            if key[0] == "main" and key[1] == 0 and key[2] == 0:
                assert classify(p, key).role == "target"


# -- window contents -----------------------------------------------------------


def scanned_dots_at(page, n, s):
    """Reference: the (key, a) at bidegree (n, s), found by scanning every
    tower of the page (window_runs is the walker the package uses)."""
    out = []
    for key, tw in page.towers.items():
        a = s - tw.s0
        h = page.heights[key]
        if a >= 0 and (h is None or a < h) and tw.n0 - page.w * a == n:
            out.append((key, a))
    return out


def scanned_basis_at(page, n, s):
    return [dot_label(page.p, key, a) for key, a in scanned_dots_at(page, n, s)]


def test_reduced_e2_q_ladder_bidegrees():
    page = e2_window(2, 0, 40, 10)
    assert scanned_basis_at(page, 5, 2) == ["v^2 q"]
    assert scanned_basis_at(page, 5, 3) == ["h0 v^2 q"]
    # reduced page: no class under the q ladder
    assert scanned_basis_at(page, 9, 0) == []
    page3 = e2_window(3, 0, 40, 8)
    assert scanned_basis_at(page3, 7, 1) == ["v q"]
    assert scanned_basis_at(page3, 7, 2) == ["h0 v q"]
    assert scanned_basis_at(page3, 9, 2) == ["v^2 q y1"]


def test_window_is_deterministic():
    a = e2_window(2, 0, 50, 8)
    b = e2_window(2, 0, 50, 8)
    assert list(a.towers) == list(b.towers)
    assert run_differentials(a)[1] == run_differentials(b)[1]


def test_h0_and_v_operators():
    page = e2_window(2, 0, 60, 10)
    # W-chain: h0 . z_comp(3,3) = v . z_comp(2,3), bottoming out at i = k0
    top = main_key(2, 0, 0, zs=((3, 1),))
    mid = main_key(2, 0, 0, zs=((2, 2),))
    assert page.h0_op(top, 0) == (mid, 1)
    assert page.h0_op(mid, 1) is None
    # h0 raises the coset level at fixed v-exponent
    assert page.h0_op(("h0", 0, 1, 0), 2) == (("h0", 1, 1, 0), 2)
    # the exotic corner: h0 . (y1^b y0 z0) = v . (y1^b z1), once per b
    assert page.h0_op(("sp", "x8", 2), 0) == (("sp", "x10", 2), 1)
    assert page.h0_op(("sp", "x10", 2), 0) is None
    assert page.v_op(("sp", "x10", 2), 0) == (("sp", "x10", 2), 1)
    assert page.v_op(("sp", "x10", 2), 1) is None  # height 2
    assert page.v_op(("sp", "x8", 2), 0) is None  # height 1
    assert page.v_op(top, 30) == (top, 31)  # E2 towers are v-free


def test_applied_list_reproduces_closed_forms():
    page = e2_window(2, 0, 40, 8)
    _, applied = run_differentials(page)
    recs = {(d["source_label"], d["r"]): d["target_label"] for d in applied}
    assert recs[("y1", 2)] == "v^2 q"
    assert recs[("y1 z2", 2)] == "v^2 q z2"
    assert recs[("v^2 q y1", 2)] == "v^4 z2"
    assert recs[("y1^2", 3)] == "h0 v^2 q y1"
    for d in applied:
        assert set(d) == {"r", "source_label", "target_label"} and d["r"] >= 2


def test_missing_target_is_a_hard_error():
    page = e2_window(2, 0, 40, 8)
    bad = dict(page.towers)
    gone = main_key(2, 0, 1, zs=((2, 1),))  # q z2, target of y1 z2
    del bad[gone]
    crippled = BigradedPage(
        2, 0, 40, 8, page.n_pad, bad, {k: t.height for k, t in bad.items()}
    )
    with pytest.raises(WindowError, match="missing"):
        run_differentials(crippled)


def test_missing_source_is_a_hard_error():
    page = e2_window(2, 0, 40, 8)
    bad = dict(page.towers)
    del bad[("h0", 0, 1, 1)]  # v^2 q y1, the source under the z2 tower
    crippled = BigradedPage(
        2, 0, 40, 8, page.n_pad, bad, {k: t.height for k, t in bad.items()}
    )
    with pytest.raises(WindowError):
        run_differentials(crippled)


# -- audits --------------------------------------------------------------------


def test_matching_audit_is_a_perfect_matching():
    for p, n_hi, s_max in ((2, 120, 35), (3, 150, 30)):
        rep = matching_audit(p, 0, n_hi, s_max)
        assert rep["ok"], rep
        assert rep["orphans"] == [] and rep["double_hits"] == []
        assert rep["mismatches"] == []
        n_sp = sum(1 for k in e2_window(p, 0, n_hi, s_max).towers if k[0] == "sp")
        assert rep["survivors"] == n_sp


def test_einfty_matches_chart_small():
    for p in (2, 3):
        rep = einfty_audit(p, 60)
        assert rep["ok"], rep


def test_truncation_heights_reproduce_chart_heights():
    # every bounded chart tower is the E-infinity shadow of a page tower:
    # same generator, height = the e0 of the differential that truncates it
    # (SP towers carry their height outright).
    for p, n_hi in ((2, 80), (3, 80)):
        kk = k0(p)
        ch = full_chart(p, n_hi)
        for t in ch.towers:
            g = t.gen
            y_weight = sum(e * p**i for i, e in g.ys)  # y_i counts p^i y_0's
            zmin = min(j for j, _ in g.zs)
            if zmin < kk:
                zs = dict(g.zs)
                ys = dict(g.ys)
                if p == 2 and zs == {1: 1} and set(ys) <= {1, 2, 3, 4, 5, 6}:
                    kind, expect = "x10", 2
                elif zs == {0: 1} and ys.get(0) == p - 1:
                    kind, expect = "yz" if p > 2 else "x8", 1
                else:
                    raise AssertionError(f"unexpected low tower {g.render()}")
                b = (y_weight - (0 if kind == "x10" else (p - 1))) // p
                assert tower(p, ("sp", kind, b)).height == expect == t.height
                continue
            assert y_weight % p == 0
            key = ("main", y_weight // p, g.q, *z_decompose_dict(p, g.z_dict()))
            f = classify(p, key)
            assert f.role == "target", g.render()
            assert f.e0 == t.height, (g.render(), f.e0, t.height)


def test_e2_dims_match_ext_bruteforce_window():
    # closed-form reduced E2 + free socles + unit == brute-force Ext
    p, n1, s1 = 2, 24, 5
    need = max((n1 - s) + (2 * p - 1) * (s + 1) for s in range(s1 + 1))
    oracle = ext_bruteforce(build_HK2(p, need), (0, n1), s1)
    closed = e2_dims(p, 0, n1, s1)
    G = free_part_ps(p, need)
    for n in range(n1 + 1):
        for s in range(s1 + 1):
            want = closed.get((n, s), 0)
            if s == 0 and n >= 2 * p:
                want += G[n - 2 * p]
            if n == 0:
                want += 1
            assert oracle.get((n, s), 0) == want, (n, s)


@pytest.mark.parametrize("p,n1,s1", [(2, 36, 8), (3, 48, 6)])
def test_ext_audit_fails_when_the_strip_keeps_a_dependent_generator(p, n1, s1, monkeypatch):
    # the oracle's own free-generator count meets free_part_ps in the (n, 0)
    # rows: one generator whose Q0Q1 image depends on the others spans no
    # free summand, and must show there
    assert ext_audit(p, n1, s1)["ok"]
    real = margolis._free_generators
    picked = []

    def one_too_many(p, socles):
        gens = real(p, socles)
        d, s = min((d, s) for d in gens for s in socles[d] if s not in gens[d])
        picked.append(d)
        return {**gens, d: gens[d] + [s]}

    monkeypatch.setattr(margolis, "_free_generators", one_too_many)
    report = ext_audit(p, n1, s1)
    assert not report["ok"]
    row = next(m for m in report["mismatches"] if (m["n"], m["s"]) == (picked[0] + 2 * p, 0))
    assert row["oracle"] == row["closed_plus_free"] + 1


def test_geometry_of_every_applied_differential():
    # d_r raises codegree by 1 and filtration by r: source base dot lands on
    # the first killed dot of the target tower.
    for p in (2, 3):
        page = e2_window(p, 0, 60, 12)
        for key in page.towers:
            f = classify(p, key)
            if f.role != "source":
                continue
            st, tt = tower(p, key), tower(p, f.partner)
            w = 2 * (p - 1)
            assert tt.n0 - w * f.e0 == st.n0 + 1
            assert tt.s0 + f.e0 == st.s0 + f.r


@pytest.mark.parametrize("p", (2, 3))
def test_e2_dims_match_the_per_bidegree_scan(p):
    n_lo, n_hi, s_max = 0, 60, 12
    page = e2_window(p, n_lo, n_hi, s_max)
    want = {}
    for n in range(n_lo, n_hi + 1):
        for s in range(s_max + 1):
            if scanned_dots_at(page, n, s):
                want[(n, s)] = len(scanned_dots_at(page, n, s))
    assert e2_dims(p, n_lo, n_hi, s_max) == want
    assert page.dims(page.heights) == want


# -- key arithmetic against the Monomial-built reference ------------------------
#
# The reference below builds every tower and fate from Monomial products,
# degrees and render(); the integer key arithmetic of adams.py must agree
# with it exactly, labels included.  Both share monomial's spelling and
# canonical decomposition, so this checks the z-part products, quotients and
# degrees; test_monomial checks the spelling.


def _ref_zpart(p, key):
    _, _, _, i1, j2, e, lam = key
    m = z_comp(p, i1, j2)
    if e:
        m = m * Monomial.gen(p, "z", j2, e)
    if lam:
        m = m * Monomial(p, zs=lam)
    return m


def _ref_main_key(p, b, eps, zmono):
    return ("main", b, eps, *z_decompose_dict(p, zmono.z_dict()))


def _ref_z_quot(m, d):
    c = m.z_dict()
    for j, e in d.zs:
        c[j] = c.get(j, 0) - e
        if c[j] < 0:
            raise ValueError(f"{d.render()} does not divide {m.render()}")
    return Monomial(m.p, zs=tuple(sorted((j, e) for j, e in c.items() if e)))


def ref_tower(p, key):
    kk = k0(p)
    if key[0] == "main":
        _, b, eps, *_ = key
        mono = _ref_zpart(p, key)
        if b:
            mono = mono * Monomial.gen(p, "y", 1, b)
        if eps:
            mono = mono * Monomial.gen(p, "q")
        return ETower(key, mono.degree, 0, None, mono.render())
    if key[0] == "h0":
        _, c, b, eps = key
        n0 = 2 * p * b + eps * (q_degree(p) - 2 * (p - 1) * kk)
        return ETower(key, n0, c + kk * eps, None, dot_label(p, key, 0))
    _, kind, b = key
    ys = ((1, b),) if b else ()
    if kind == "x8":
        mono, height = Monomial(p, ys=((0, 1),) + ys, zs=((0, 1),)), 1
    elif kind == "x10":
        mono, height = Monomial(p, ys=ys, zs=((1, 1),)), 2
    else:
        mono, height = Monomial(p, ys=((0, p - 1),) + ys, zs=((0, 1),)), 1
    return ETower(key, mono.degree, 0, height, mono.render())


def ref_classify(p, key):
    kk = k0(p)
    odd = 0 if p == 2 else 1
    if key[0] == "sp":
        return Fate("survives", None, None, None, None)
    if key[0] == "h0":
        _, c, b, eps = key
        if eps == 0:
            d = nu(p, b)
            return Fate("source", "F1", d + 2, 0, ("h0", c + d + odd, b - 1, 1))
        thr = nu(p, b + 1) + odd
        if c >= thr:
            return Fate("target", "F1", nu(p, b + 1) + 2, 0, ("h0", c - thr, b + 1, 0))
        t = c + kk
        zt = Monomial.gen(p, "z", t)
        return Fate(
            "source", "F3", p**t - t, p**t, _ref_main_key(p, b + 1 - p ** (t - 1), 0, zt)
        )
    _, b, eps, i1, j2, e, lam = key
    zm = _ref_zpart(p, key)
    if eps == 0:
        if b >= 1 and i1 >= nu(p, b) + 2:
            d = nu(p, b)
            zt = _ref_z_quot(zm, Monomial.gen(p, "z", i1)) * z_comp(p, i1 - d - odd, i1)
            return Fate("source", "F2", d + 2, d + 2, _ref_main_key(p, b - 1, 1, zt))
        t = i1
        if i1 == j2 and e == 0 and not lam:
            return Fate(
                "target", "F3", p**t - t, p**t, ("h0", t - kk, b + p ** (t - 1) - 1, 1)
            )
        j = t if (j2 > i1 or e >= 1) else lam[0][0]
        div = Monomial.gen(p, "z", t) * Monomial.gen(p, "z", j)
        zs = _ref_z_quot(zm, div) * z_comp(p, j - t + kk, j)
        return Fate(
            "target", "F4", p**t - t, p**t - t,
            _ref_main_key(p, b + p ** (t - 1) - 1, 1, zs),
        )
    t = j2 - i1 + kk
    if nu(p, b + 1) >= t - 1:
        mul = Monomial.gen(p, "z", t) * Monomial.gen(p, "z", j2)
        zt = _ref_z_quot(zm, z_comp(p, i1, j2)) * mul
        return Fate(
            "source", "F4", p**t - t, p**t - t,
            _ref_main_key(p, b + 1 - p ** (t - 1), 0, zt),
        )
    d = nu(p, b + 1)
    isrc = i1 + d + odd
    zs = _ref_z_quot(zm, z_comp(p, i1, isrc)) * Monomial.gen(p, "z", isrc)
    return Fate("target", "F2", d + 2, d + 2, _ref_main_key(p, b + 1, 0, zs))


@pytest.mark.parametrize(
    "p, n_hi, s_max", ((2, 120, 30), (3, 200, 20), (5, 300, 10), (7, 400, 8))
)
def test_key_arithmetic_matches_the_monomial_reference(p, n_hi, s_max):
    page = e2_window(p, 0, n_hi, s_max)
    keys = set(page.towers)
    keys |= {classify(p, k).partner for k in page.towers} - {None}
    assert len(keys) > len(page.towers)  # partners outside the window count too
    for key in keys:
        assert tower(p, key) == ref_tower(p, key), key
        assert classify(p, key) == ref_classify(p, key), key


def ref_z_runs(p, budget):
    """Reference: the canonical MAIN z-parts by the nested loop the one walk
    replaced: i1, then e <= p-2, then Lambda_{j2+1} by degree."""
    kk = k0(p)
    out = []
    j2 = kk
    while z_degree(p, j2) <= budget:
        lams = ref_lambda_exponents(p, j2 + 1, budget - z_degree(p, j2))
        for i1 in range(kk, j2 + 1):
            base = z_comp(p, i1, j2).degree
            for e in range(p - 1):
                d0 = base + e * z_degree(p, j2)
                if d0 > budget:
                    break
                for lam, deg in lams:
                    if d0 + deg > budget:
                        break
                    out.append((i1, j2, e, lam, d0 + deg))
        j2 += 1
    return out


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_z_runs_match_the_nested_loop(p):
    # the walk's order differs; e2_window keys its towers, so compare sets
    sizes = []
    for budget in (0, 57, 200, 611, 2000):
        got = _z_runs(p, budget)
        want = ref_z_runs(p, budget)
        assert len(got) == len(set(got)) == len(want), budget
        assert set(got) == set(want), budget
        sizes.append(len(got))
    assert sizes[-1] > 5


@pytest.mark.parametrize(
    "p, z", ((2, {2: 3}), (3, {1: 3, 2: 3}), (3, {1: 1, 3: 3}))
)
def test_a_non_canonical_z_part_raises(p, z):
    with pytest.raises(ValueError, match="canonical"):
        z_decompose_dict(p, z)


def test_a_non_canonical_key_has_no_partner():
    # q z1 z2^3 at p = 3: its F4 partner keeps the z2^3 outside Lambda
    with pytest.raises(ValueError, match="canonical"):
        classify(3, ("main", 0, 1, 1, 1, 0, ((2, 3),)))
