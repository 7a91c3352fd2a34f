"""Core chart recursion, assemblies, and their frozen small cases; the
one-pass assembly against the per-summand builder it replaced.

Expected groups below were computed by hand from the recursive description
(tower generators/heights plus the two glue rules) before the code existed.
"""

import copy
from dataclasses import replace
from functools import lru_cache

import pytest

from kuengine.chart import Chart, PEdge, RealizedWindow, Tower
from kuengine.modules import (
    _even_parts,
    _odd_parts,
    assoc_graded_dims,
    build_A,
    build_B,
    build_S,
    even_part,
    full_chart,
    ku_group_at,
    ku_homology_group_at,
    odd_part,
)
from kuengine.monomial import (
    Monomial,
    enumerate_family,
    k0,
    q_degree,
    y_degree,
    z_comp,
    z_decompose,
    z_degree,
)

PRIMES = (2, 3, 5, 7)


def towers_by_gen(chart):
    return {t.gen.render(): t for t in chart.towers}


# -- B_k ------------------------------------------------------------------


def test_B2_p2_single_tower():
    b2 = build_B(2, 2)
    assert len(b2.towers) == 1
    (t,) = b2.towers
    assert t.gen.render() == "z2"
    assert t.gen_degree == 18
    assert t.height == 2
    assert b2.edges == []


def test_B_empty_below_k0():
    assert build_B(2, 1).towers == []
    assert build_B(3, 0).towers == []
    with pytest.raises(ValueError):
        build_B(3, -1)


def test_B3_p2_structure_and_groups():
    b3 = build_B(2, 3)
    gens = towers_by_gen(b3)
    assert set(gens) == {"z[2,3]", "z3", "y2 z2"}
    assert gens["z[2,3]"].height == 2 and gens["z[2,3]"].gen_degree == 36
    assert gens["z3"].height == 5 and gens["z3"].gen_degree == 34
    assert gens["y2 z2"].height == 2 and gens["y2 z2"].gen_degree == 26
    # p . z3 = v z[2,3] (h0), p . y2z2 = v^4 z3 (exotic), nothing else
    assert len(b3.edges) == 2
    expected = {
        36: [1],
        34: [2],
        32: [1],
        30: [1],
        28: [1],
        26: [2],
        24: [1],
    }
    for n, exps in expected.items():
        assert b3.group_at(n) == exps, n
    assert b3.group_at(22) == []
    assert b3.group_at(38) == []


def test_two_target_edge_in_B5_and_A5():
    # the dot y3 z3 z4 at degree 116 supports p . x = v y3 z2^2 z4 + v^8 z4^2
    for chart in (build_B(2, 5), build_A(2, 5)):
        gens = towers_by_gen(chart)
        src = gens["y3 z3 z4"]
        assert src.gen_degree == 116
        e = chart.edge_at((src.id, 0))
        assert e is not None and e.kind == "exotic"
        tgt = {(chart.tower(tid).gen.render(), a) for tid, a in e.dst}
        assert tgt == {("y3 z2^2 z4", 1), ("z[4,5]", 8)}


# -- A_k ------------------------------------------------------------------


def test_A1_p2():
    a1 = build_A(2, 1)
    dots = set()
    for n in range(0, 20):
        for tid, a in a1.dots_at(n):
            dots.add((n, a1.dot_filtration((tid, a))))
    assert dots == {(8, 0), (10, 0), (8, 1)}
    assert len(a1.edges) == 1
    assert a1.group_at(8) == [2]
    assert a1.group_at(10) == [1]


def test_A1_p3_exotic_jump():
    a1 = build_A(3, 1)
    gens = towers_by_gen(a1)
    assert gens["z1"].height == 3
    assert gens["y0^2 z0"].gen_degree == 12
    e = a1.edge_at((gens["y0^2 z0"].id, 0))
    assert e is not None
    assert {(a1.tower(t).gen.render(), a) for t, a in e.dst} == {("z1", 2)}
    assert a1.group_at(12) == [2]  # Z/9


def test_A2_p2_z8_chain():
    a2 = build_A(2, 2)
    # y1y0z0 -> v y1z1 -> v^3 z2 gives Z/8 in degree 12
    assert a2.group_at(12) == [3]
    assert a2.group_at(18) == [1]
    assert a2.group_at(16) == [1]
    assert a2.group_at(14) == [2]


def test_A5_p2_criterion_group():
    a5 = build_A(2, 5)
    assert a5.group_at(82) == [3, 1]


def test_height_law():
    # every tower is controlled by the leading index i of its z-part:
    # height p^i - i along the B-branches, p^i for the single-z towers of A_k
    for p in (2, 3):
        for k in range(1, 7):
            for t in build_B(p, k).towers:
                i = z_decompose(t.gen)[0]
                assert t.height == p**i - i, (p, k, t.gen.render())
            for t in build_A(p, k).towers:
                i = z_decompose(t.gen)[0]
                total = sum(e for _, e in t.gen.zs)
                want = p**i if total == 1 else p**i - i
                assert t.height == want, (p, k, t.gen.render())


# -- S_{k,l} --------------------------------------------------------------


def test_S58_p2():
    s = build_S(2, 5, 8)
    assert [t.gen_degree for t in s.towers] == [1038, 1036, 1034]
    assert all(t.height == 6 for t in s.towers)
    assert s.group_at(1038) == [1]
    assert s.group_at(1036) == [2]
    assert s.group_at(1034) == [3]
    assert s.group_at(1032) == [3]  # chain saturates at three towers


def test_S_bounds():
    with pytest.raises(ValueError):
        build_S(2, 3, 3)
    s = build_S(3, 1, 2)
    assert len(s.towers) == 1 and s.towers[0].height == 2


# -- assemblies -----------------------------------------------------------


def test_even_part_small_window_p2():
    ch = even_part(2, 18)
    by_deg = {}
    for n in range(0, 19, 2):
        for tid, a in ch.dots_at(n):
            by_deg.setdefault(n, []).append((ch.tower(tid).gen.render(), a))
    assert ("y0 z0", 0) in by_deg[8]
    assert ("z1", 0) in by_deg[10]
    assert ("y0 y1 z0", 0) in by_deg[12]
    assert ("z2", 0) in by_deg[18]  # the height-4 core tower
    assert ("y2 z1", 0) in by_deg[18]
    assert by_deg.get(2) is None and by_deg.get(4) is None and by_deg.get(6) is None


def test_ku_groups_p2_low_degrees():
    assert ku_group_at(2, 0) == []
    for n in range(1, 8):
        assert ku_group_at(2, n) == []
    assert ku_group_at(2, 8) == [2]
    assert ku_group_at(2, 10) == [1]
    assert ku_group_at(2, 12) == [3]
    assert ku_group_at(2, 18) == [1, 1]
    # odd degrees are empty until v q z2 at 25
    for n in range(1, 25, 2):
        assert ku_group_at(2, n) == []
    assert ku_group_at(2, 25) == [1]
    assert ku_group_at(2, 27) == [1]


def test_odd_part_towers_p2():
    ch = odd_part(2, 30)
    gens = towers_by_gen(ch)
    assert "q z2" in gens
    t = gens["q z2"]
    assert t.gen_degree == 27 and t.height == 2
    assert all(t.gen_degree % 2 == 1 for t in ch.towers)


def test_ku_homology_shift():
    for n in (4, 8, 10, 23):
        assert ku_homology_group_at(2, n) == ku_group_at(2, n + 4)
    assert ku_homology_group_at(2, 4) == [2]


def test_cutoff_independence():
    for n in (8, 12, 18, 25, 34):
        assert ku_group_at(2, n, cutoff=60) == ku_group_at(2, n, cutoff=200)
    with pytest.raises(ValueError):
        ku_group_at(2, 80, cutoff=60)


def test_assoc_graded_matches_dot_count():
    for p in (2, 3):
        big = full_chart(p, 60)
        for n in range(0, 61):
            assert assoc_graded_dims(p, n, cutoff=60) == big.dims_at(n), (p, n)


def test_B2_B3_self_duality_palindrome():
    # Sigma^D dual(B_k) has the same rank invariants as B_k itself,
    # D = 2(p^{k+1} + p^k + (k+1)p - k + 1)
    p = 2
    for k, dd in ((2, 34), (3, 60)):
        chart = build_B(p, k)
        lo, hi = chart.min_dot_degree(), chart.max_dot_degree()
        pad = 2 * (p - 1) * p**k
        win = RealizedWindow(chart, lo - pad, hi + pad)
        for m in range(lo, hi + 1):
            for a in range(0, k + 2):
                for b in range(0, p**k + 1):
                    m2 = dd + 2 * (p - 1) * b - m
                    assert win.rank_invariant(m, a, b) == win.rank_invariant(
                        m2, a, b
                    ), (k, m, a, b)


# -- one-pass assembly against the per-summand reference ---------------------


def ref_tensor_monomial(chart, m):
    """Reference: m . chart as its own validated chart."""
    if m.p != chart.p:
        raise ValueError("mixed primes")
    return Chart(
        chart.p, [replace(t, gen=t.gen * m) for t in chart.towers], list(chart.edges)
    )


def ref_direct_sum(charts):
    """Reference: the sum of whole charts, tower ids renumbered in order."""
    charts = list(charts)
    p = charts[0].p
    towers, edges = [], []
    offset = 0
    for c in charts:
        if c.p != p:
            raise ValueError("mixed primes")
        remap = {}
        for t in c.towers:
            remap[t.id] = offset
            towers.append(replace(t, id=offset))
            offset += 1
        for e in c.edges:
            edges.append(
                PEdge(
                    (remap[e.src[0]], e.src[1]),
                    tuple((remap[d[0]], d[1]) for d in e.dst),
                    e.kind,
                )
            )
    return Chart(p, towers, edges)


def ref_glue(p, k, zcopy, new_height, ycopy):
    """Reference core step on whole charts: (chart, handle) copies already
    multiplied, summed around the new z_k tower, then glued."""
    parts = [] if zcopy is None else [zcopy[0]]
    parts.append(Chart(p, [Tower(0, Monomial.gen(p, "z", k), 0, new_height)]))
    if ycopy is not None:
        parts.append(ycopy[0])
    summed = ref_direct_sum(parts)
    offsets = [0]
    for part in parts[:-1]:
        offsets.append(offsets[-1] + len(part.towers))
    new_id = offsets[0] if zcopy is None else offsets[1]
    edge_by_src = {e.src: e for e in summed.edges}
    if zcopy is not None and zcopy[1] is not None and k >= 2:
        handle_id = offsets[0] + zcopy[1]
        handle_h = summed.tower(handle_id).height
        for a in range(new_height):
            if handle_h is not None and a + 1 >= handle_h:
                break
            edge_by_src[(new_id, a)] = PEdge((new_id, a), ((handle_id, a + 1),), "h0")
    if ycopy is not None and ycopy[1] is not None:
        yh_id = offsets[-1] + ycopy[1]
        shift = p ** (k - 1) * (p - 1)
        for a in range(summed.tower(yh_id).height):
            if shift + a >= new_height:
                continue
            old = edge_by_src.get((yh_id, a))
            dst = (old.dst if old else ()) + ((new_id, shift + a),)
            edge_by_src[(yh_id, a)] = PEdge((yh_id, a), dst, "exotic")
    edges = sorted(edge_by_src.values(), key=lambda e: e.src)
    return Chart(p, summed.towers, edges), new_id


@lru_cache(maxsize=None)
def ref_B(p, k):
    if k < k0(p):
        return Chart(p, []), None
    sub, handle = ref_B(p, k - 1)
    if handle is None:
        return ref_glue(p, k, None, p**k - k, None)
    zc = (ref_tensor_monomial(sub, Monomial.gen(p, "z", k - 1, p - 1)), handle)
    yc = (ref_tensor_monomial(sub, Monomial.gen(p, "y", k - 1, p - 1)), handle)
    return ref_glue(p, k, zc, p**k - k, yc)


@lru_cache(maxsize=None)
def ref_A(p, k):
    if k == 0:
        return Chart(p, [Tower(0, Monomial.gen(p, "z", 0), 0, 1)]), 0
    subB, hb = ref_B(p, k - 1)
    zc = None
    if hb is not None:
        zc = (ref_tensor_monomial(subB, Monomial.gen(p, "z", k - 1, p - 1)), hb)
    subA, ha = ref_A(p, k - 1)
    yc = (ref_tensor_monomial(subA, Monomial.gen(p, "y", k - 1, p - 1)), ha)
    return ref_glue(p, k, zc, p**k, yc)


def shape(chart):
    return (
        chart.p,
        [(t.id, t.gen, t.gen_degree, t.base_s, t.height) for t in chart.towers],
        [(e.src, e.dst, e.kind) for e in chart.edges],
    )


def ref_sum_of_parts(p, parts):
    if not parts:
        return Chart(p, [])
    return ref_direct_sum(ref_tensor_monomial(c, m) for c, m in parts)


def test_cores_match_the_reference_assembly():
    assert shape(build_A(2, 8)) == shape(ref_A(2, 8)[0])
    assert shape(build_B(3, 4)) == shape(ref_B(3, 4)[0])


def test_parts_match_the_reference_assembly():
    assert shape(even_part(2, 18)) == shape(ref_sum_of_parts(2, _even_parts(2, 18)))
    assert shape(odd_part(2, 30)) == shape(ref_sum_of_parts(2, _odd_parts(2, 30)))


@pytest.mark.parametrize("p", PRIMES)
def test_full_chart_matches_the_reference_assembly(p):
    cutoff = 300
    even, odd = _even_parts(p, cutoff), _odd_parts(p, cutoff)
    # the even summands multiply A_k and B_k cores equal to the reference's
    used = {id(c) for c, _ in even}
    cores = set()
    k = 1
    while build_A(p, k).min_dot_degree() <= cutoff:
        for built, ref in ((build_A(p, k), ref_A), (build_B(p, k), ref_B)):
            if id(built) in used:
                assert shape(built) == shape(ref(p, k)[0]), (p, k)
                cores.add(id(built))
        k += 1
    assert used == cores
    want = ref_direct_sum([ref_sum_of_parts(p, even), ref_sum_of_parts(p, odd)])
    assert shape(full_chart(p, cutoff)) == shape(want)


def exponent_degree(m):
    p = m.p
    return (
        m.q * q_degree(p)
        + sum(e * y_degree(p, i) for i, e in m.ys)
        + sum(e * z_degree(p, j) for j, e in m.zs)
    )


@pytest.mark.parametrize("p", PRIMES)
def test_stored_degree_is_the_exponent_sum(p):
    parts = _even_parts(p, 300) + _odd_parts(p, 300)
    gens = [m for _, m in parts] + [t.gen for t in full_chart(p, 300).towers]
    for m in gens:
        assert m.degree == exponent_degree(m), m
    for tag, param in (("Lambda", 1), ("LambdaBar", 2), ("MkA", 1), ("MkB", 2)):
        for m in enumerate_family(p, tag, param, 300):
            assert m.degree == exponent_degree(m), m


def test_equality_and_hash_ignore_the_stored_degree():
    m = Monomial.gen(3, "q") * Monomial.gen(3, "y", 1, 2) * z_comp(3, 1, 3)
    twin = copy.copy(m)
    object.__setattr__(twin, "degree", m.degree + 1)
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert {m: 1}[twin] == 1
