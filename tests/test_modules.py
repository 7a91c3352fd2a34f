"""Core chart recursion, assemblies, and their frozen small cases; the
one-pass assembly against the per-summand builder it replaced.

Expected groups below were computed by hand from the recursive description
(tower generators/heights plus the two glue rules) before the code existed.
"""

import copy
import importlib
import pkgutil
from functools import lru_cache

import pytest

import kuengine
from kuengine import modules
from kuengine.chart import Chart, PEdge, RealizedWindow, Tower
from kuengine.cli import RunConfig, cmd_groups
from kuengine.margolis import GenSpec
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
    odd_part,
)
from kuengine.monomial import (
    Monomial,
    enumerate_family,
    k0,
    q_degree,
    y_degree,
    z_comp,
    z_decompose_dict,
    z_degree,
)
from kuengine.padic import nu
from kuengine.series import report
from test_monomial import ref_lambda_exponents

PRIMES = (2, 3, 5, 7)


def towers_by_gen(chart):
    return {t.gen.render(): t for t in chart.towers}


def position_of(chart, gen):
    """The position (tower id) of the one tower on the named generator."""
    (tid,) = [i for i, t in enumerate(chart.towers) if t.gen.render() == gen]
    return tid


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
        src = position_of(chart, "y3 z3 z4")
        assert chart.towers[src].gen_degree == 116
        e = chart.edge_at((src, 0))
        assert e is not None and e.kind == "exotic"
        tgt = {(chart.towers[tid].gen.render(), a) for tid, a in e.dst}
        assert tgt == {("y3 z2^2 z4", 1), ("z[4,5]", 8)}


# -- A_k ------------------------------------------------------------------


def test_A1_p2():
    a1 = build_A(2, 1)
    dots = set()
    for n in range(0, 20):
        for _, a in a1.dots_at(n):
            dots.add((n, a))
    assert dots == {(8, 0), (10, 0), (8, 1)}
    assert len(a1.edges) == 1
    assert a1.group_at(8) == [2]
    assert a1.group_at(10) == [1]


def test_A1_p3_exotic_jump():
    a1 = build_A(3, 1)
    gens = towers_by_gen(a1)
    assert gens["z1"].height == 3
    assert gens["y0^2 z0"].gen_degree == 12
    e = a1.edge_at((position_of(a1, "y0^2 z0"), 0))
    assert e is not None
    assert {(a1.towers[t].gen.render(), a) for t, a in e.dst} == {("z1", 2)}
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
                i = z_decompose_dict(p, t.gen.z_dict())[0]
                assert t.height == p**i - i, (p, k, t.gen.render())
            for t in build_A(p, k).towers:
                i = z_decompose_dict(p, t.gen.z_dict())[0]
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
            by_deg.setdefault(n, []).append((ch.towers[tid].gen.render(), a))
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
    # ku_n is dual to ku^(n+2p), and finite groups are self-dual
    rows = cmd_groups(RunConfig(2, window=(0, 23), homology=True))
    for n in (4, 8, 10, 23):
        assert rows[n]["group"] == [2**e for e in ku_group_at(2, n + 4)]
    assert rows[4]["group"] == [4]


def test_cutoff_independence():
    for n in (8, 12, 18, 25, 34):
        assert ku_group_at(2, n, cutoff=60) == ku_group_at(2, n, cutoff=200)
    with pytest.raises(ValueError):
        ku_group_at(2, 80, cutoff=60)


def test_assoc_graded_matches_dot_count():
    for p in (2, 3):
        big = full_chart(p, 60)
        dims = assoc_graded_dims(p, 60)
        assert len(dims) == 61
        for n in range(0, 61):
            assert dims[n] == big.dims_at(n), (p, n)


def ref_lambda(p, j, cutoff):
    return [Monomial(p, zs=zs) for zs, _ in ref_lambda_exponents(p, j, cutoff)]


def ref_assoc_graded_chart(p, cutoff):
    """Reference: the edge-free chart of the three associated-graded lines,
    built tower by tower with y-powers in while loops, as assoc_graded_dims
    counted them before it shared k1_dims' counter."""
    towers = []

    def add(gen, height):
        if gen.degree - 2 * (p - 1) * (height - 1) <= cutoff:
            towers.append(Tower(gen, height))

    step = 2 * (p - 1)
    b = 0
    while 4 * p + 2 * p * b <= cutoff:
        y = Monomial.gen(p, "y", 1, b) * Monomial.gen(p, "y", 0, p - 1)
        add(y * Monomial.gen(p, "z", 0), 1)
        b += 1
    t = 1
    while z_degree(p, t) - step * (p**t - 1) <= cutoff:
        h = p**t
        e = 0
        while z_degree(p, t) + y_degree(p, t) * e - step * (h - 1) <= cutoff:
            add(Monomial.gen(p, "y", t, e) * Monomial.gen(p, "z", t), h)
            e += 1
        t += 1
    t = k0(p)
    while 2 * z_degree(p, t) - step * (p**t - t - 1) <= cutoff:
        h = p**t - t
        slack = step * (h - 1)
        for lam in ref_lambda(p, t, cutoff + slack - z_degree(p, t))[1:]:  # LambdaBar
            e = 0
            while z_degree(p, t) + lam.degree + y_degree(p, t) * e - slack <= cutoff:
                add(Monomial.gen(p, "y", t, e) * Monomial.gen(p, "z", t) * lam, h)
                e += 1
        t += 1
    i = 1
    while q_degree(p) + y_degree(p, 1) * (i - 1) <= cutoff:
        h = nu(p, i) + 2
        slack = step * (h - 1)
        base = Monomial.gen(p, "q") * Monomial.gen(p, "y", 1, i - 1)
        ell = 0
        while True:
            comp = z_comp(p, k0(p) + ell, ell + h)
            if base.degree + comp.degree - slack > cutoff:
                break
            room = cutoff + slack - base.degree - comp.degree
            for lam in ref_lambda(p, ell + h, room):
                add(base * comp * lam, h)
            ell += 1
        i += 1
    return Chart(p, towers, [])


@pytest.mark.parametrize("p", PRIMES)
def test_assoc_graded_dims_match_the_tower_reference(p):
    ref = ref_assoc_graded_chart(p, 400)
    assert assoc_graded_dims(p, 400) == tuple(ref.dims_at(n) for n in range(401))
    assert assoc_graded_dims(p, 0) == (0,)


def ref_odd_parts(p, cutoff):
    """Reference: the odd-part summands by the nested loop the one walk
    replaced (z_l^e, e <= p-2, then Lambda_{l+1} by degree), each with the
    (i, l) of its block."""
    parts = []
    i = 1
    while q_degree(p) + y_degree(p, 1) * (i - 1) <= cutoff:
        v = nu(p, i)
        ell = v + 2
        while True:
            s_core = build_S(p, v + 1, ell)
            base = Monomial.gen(p, "q") * Monomial.gen(p, "y", 1, i - 1)
            head = base.degree + s_core.min_dot_degree()
            if head > cutoff:
                break
            room = cutoff - head
            for e in range(p - 1):
                ze = Monomial.gen(p, "z", ell, e)
                if ze.degree > room:
                    break
                for lam in ref_lambda(p, ell + 1, room - ze.degree):
                    parts.append((i, ell, s_core, base * ze * lam))
            ell += 1
        i += 1
    return parts


def walk_order(part):
    """The order of the one walk: blocks by (v, l, c) for i = p^v (c + p m),
    then m, and for each m the multipliers in lexicographic order of their
    exponent vectors (z_l, z_{l+1}, ...)."""
    i, ell, _, mult = part
    v = nu(mult.p, i)
    m, c = divmod(i // mult.p**v, mult.p)
    z = mult.z_dict()
    assert all(ell <= j < ell + 12 for j in z)
    return (v, ell, c, m, [z.get(j, 0) for j in range(ell, ell + 12)])


@pytest.mark.parametrize("p", PRIMES)
def test_odd_parts_match_the_nested_loop(p):
    # the same summands; the reference re-pinned to the walk's order, which
    # fixes the tower ids of odd_part
    for cutoff in (0, 40, 160, 400):
        got = _odd_parts(p, cutoff)
        want = sorted(ref_odd_parts(p, cutoff), key=walk_order)
        assert [m for _, m in got] == [m for *_, m in want], cutoff
        assert [shape(c) for c, _ in got] == [shape(c) for _, _, c, _ in want]
        if cutoff <= 160:
            parts = [(c, m) for _, _, c, m in want]
            assert shape(odd_part(p, cutoff)) == shape(ref_sum_of_parts(p, parts))


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


def ref_duality_visits(p, k):
    """The per-(n, a, b) loop the one-pass duality audit replaced, on B_k:
    its window and, in visiting order (n over the support band, then b, then
    a), each (n, m, a, b) it compares, m the mirror of n."""
    c = modules.build_B(p, k)
    step = 2 * (p - 1)
    sigma = 2 * (p ** (k + 1) + p**k + (k + 1) * p - k + 1)
    lo, hi = c.min_dot_degree(), c.max_dot_degree()
    pad = step * p**k
    win = RealizedWindow(
        c, min(lo, sigma - hi - pad) - pad, max(hi, sigma - lo + pad) + pad
    )
    visits = (
        (n, m, a, b)
        for n in range(lo, hi + 1)
        for b in range(p**k + 1)
        for m in [sigma - n + step * b]
        if c.dims_at(n) or c.dims_at(m)
        for a in range(k + 3)
    )
    return win, sigma, visits


def ref_duality_audit(p, k_max):
    """The duality report from RealizedWindow.rank_invariant, one call per
    side of each visited (n, a, b)."""
    rows = []
    for k in range(k0(p), k_max + 1):
        win, sigma, visits = ref_duality_visits(p, k)
        rank = lru_cache(maxsize=None)(win.rank_invariant)
        checked = 0
        mismatches = []
        for n, m, a, b in visits:
            lhs, rhs = rank(n, a, b), rank(m, a, b)
            checked += 1
            if lhs != rhs:
                mismatches.append({"n": n, "a": a, "b": b, "lhs": lhs, "rhs": rhs})
        rows.append(
            {
                "k": k,
                "sigma": sigma,
                "support": [win.chart.min_dot_degree(), win.chart.max_dot_degree()],
                "checked": checked,
                "mismatches": mismatches,
                "pass": not mismatches,
            }
        )
    return report({"p": p, "k_max": k_max}, rows)


@pytest.mark.parametrize("p, k_max", ((2, 5), (3, 4), (5, 3), (7, 2)))
def test_duality_audit_matches_the_per_call_reference(p, k_max):
    got = modules.duality_audit(p, k_max)
    assert got["ok"]
    assert got == ref_duality_audit(p, k_max)


def drop_first_edge(chart):
    return Chart(chart.p, chart.towers, chart.edges[1:])


def shorten_last_tower(chart):
    """The last tower one dot shorter, with the edges that touched its top
    dot."""
    *rest, last = chart.towers
    top = (len(rest), last.height - 1)
    edges = [e for e in chart.edges if e.src != top and top not in e.dst]
    return Chart(chart.p, rest + [last._replace(height=top[1])], edges)


@pytest.mark.parametrize(
    "mutate, p, k_max, entries",
    (
        (drop_first_edge, 2, 4, 4),
        (drop_first_edge, 3, 3, 4),
        (drop_first_edge, 5, 2, 2),
        (shorten_last_tower, 2, 4, 7),
        (shorten_last_tower, 3, 3, 7),
        (shorten_last_tower, 5, 2, 12),
    ),
)
def test_duality_audit_catches_a_broken_block(mutate, p, k_max, entries, monkeypatch):
    # a B_k with an edge dropped or a tower one dot short is no longer
    # self-dual: both audits fail with the same mismatches in the same order
    build = modules.build_B
    monkeypatch.setattr(modules, "build_B", lambda p, k: mutate(build(p, k)))
    got = modules.duality_audit(p, k_max)
    assert not got["ok"]
    assert got == ref_duality_audit(p, k_max)
    assert sum(len(row["mismatches"]) for row in got["rows"]) == entries


# -- one-pass assembly against the per-summand reference ---------------------


def ref_tensor_monomial(chart, m):
    """Reference: m . chart as its own validated chart."""
    if m.p != chart.p:
        raise ValueError("mixed primes")
    return Chart(
        chart.p, [t._replace(gen=t.gen * m) for t in chart.towers], list(chart.edges)
    )


def ref_direct_sum(charts):
    """Reference: the sum of whole charts, tower positions renumbered in
    order."""
    charts = list(charts)
    p = charts[0].p
    towers, edges = [], []
    offset = 0
    for c in charts:
        if c.p != p:
            raise ValueError("mixed primes")
        remap = {}
        for i, t in enumerate(c.towers):
            remap[i] = offset
            towers.append(t)
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
    parts.append(Chart(p, [Tower(Monomial.gen(p, "z", k), new_height)]))
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
        handle_h = summed.towers[handle_id].height
        for a in range(new_height):
            if a + 1 >= handle_h:
                break
            edge_by_src[(new_id, a)] = PEdge((new_id, a), ((handle_id, a + 1),), "h0")
    if ycopy is not None and ycopy[1] is not None:
        yh_id = offsets[-1] + ycopy[1]
        shift = p ** (k - 1) * (p - 1)
        for a in range(summed.towers[yh_id].height):
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
        return Chart(p, [Tower(Monomial.gen(p, "z", 0), 1)]), 0
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
        [(i, t.gen, t.gen_degree, t.height) for i, t in enumerate(chart.towers)],
        [(e.src, e.dst, e.kind) for e in chart.edges],
    )


def ref_sum_of_parts(p, parts):
    if not parts:
        return Chart(p, [])
    return ref_direct_sum(ref_tensor_monomial(c, m) for c, m in parts)


def test_cores_match_the_reference_assembly():
    assert shape(build_A(2, 8)) == shape(ref_A(2, 8)[0])
    assert shape(build_B(3, 4)) == shape(ref_B(3, 4)[0])
    assert shape(build_B(2, 8)) == shape(ref_B(2, 8)[0])
    assert shape(build_A(3, 4)) == shape(ref_A(3, 4)[0])


def test_each_walk_glues_only_the_levels_it_reads(monkeypatch):
    glued = []
    real = modules._glue

    def counted(p, k, zsub, height, ysub):
        glued.append((k, height))
        return real(p, k, zsub, height, ysub)

    monkeypatch.setattr(modules, "_glue", counted)
    build_B(2, 5)  # B_2..B_5 and no A
    assert glued == [(k, 2**k - k) for k in range(2, 6)]
    glued.clear()
    build_A(2, 5)  # A_1..A_5 and B_2..B_4, each once
    assert sorted(glued) == sorted(
        [(k, 2**k) for k in range(1, 6)] + [(k, 2**k - k) for k in range(2, 5)]
    )
    glued.clear()
    build_A(3, 0)
    assert glued == []


@pytest.mark.parametrize("p", (2, 3, 5))
def test_the_odd_walk_glues_each_s_core_once(p, monkeypatch):
    built = []
    real = modules.build_S

    def recorded(p, k, ell):
        built.append(((k, ell), real(p, k, ell)))
        return built[-1][1]

    monkeypatch.setattr(modules, "build_S", recorded)
    for cutoff in (0, 160, 400):
        built.clear()
        used = {id(c) for c, _ in _odd_parts(p, cutoff)}
        keys = [key for key, _ in built]
        assert len(set(keys)) == len(keys), cutoff
        # level v = k - 1 walks l up from k + 1; every S_{k,l} it glues
        # carries a summand but the last, whose lowest block (c = 1, m = 0)
        # lies above the cutoff; the last level glues only that one
        ks = sorted({k for k, _ in keys})
        assert ks == list(range(1, len(ks) + 1)), cutoff
        for k in ks:
            level = [(ell, c) for (kk, ell), c in built if kk == k]
            *inner, (top, last) = level
            assert [ell for ell, _ in level] == list(range(k + 1, top + 1)), (cutoff, k)
            assert all(id(c) in used for _, c in inner), (cutoff, k)
            lowest = q_degree(p) + y_degree(p, 1) * (p ** (k - 1) - 1) + last.min_dot_degree()
            assert id(last) not in used and lowest > cutoff, (cutoff, k, top)
        assert [key for key in keys if key[0] == ks[-1]] == [(ks[-1], ks[-1] + 1)]


def test_parts_match_the_reference_assembly():
    assert shape(even_part(2, 18)) == shape(ref_sum_of_parts(2, _even_parts(2, 18)))
    assert shape(odd_part(2, 30)) == shape(ref_sum_of_parts(2, _odd_parts(2, 30)))


@pytest.mark.parametrize("p", PRIMES)
def test_full_chart_matches_the_reference_assembly(p):
    cutoff = 300
    even, odd = _even_parts(p, cutoff), _odd_parts(p, cutoff)
    # the even summands multiply A_k and B_k cores equal to the reference's
    # levels, in the order A_1, B_1, A_2, B_2, ...
    cores = []
    for c, _ in even:
        if not cores or c is not cores[-1]:
            cores.append(c)
    levels = []
    k = 1
    while ref_A(p, k)[0].min_dot_degree() <= cutoff:
        levels += [shape(ref_A(p, k)[0]), shape(ref_B(p, k)[0])]
        k += 1
    rest = iter(levels)
    assert all(any(shape(c) == level for level in rest) for c in cores), p
    want = ref_direct_sum([ref_sum_of_parts(p, even), ref_sum_of_parts(p, odd)])
    assert shape(full_chart(p, cutoff)) == shape(want)


def test_the_caches_are_the_pinned_seven():
    # one cache policy: every other level is rebuilt or owned by its caller
    cached = set()
    for info in pkgutil.iter_modules(kuengine.__path__):
        mod = importlib.import_module(f"kuengine.{info.name}")
        found = list(vars(mod).values())
        found += [v for c in found if isinstance(c, type) for v in vars(c).values()]
        for obj in found:
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                cached.add(f"{info.name}.{obj.__qualname__}")
    assert cached == {
        "adams.tower",
        "adams.classify",
        "k1.k1_dims",
        "k1._tcounts",
        "margolis.build_HK2",
        "modules.full_chart",
        "monomial._cached_family",
    }


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
    for tag, param in (("MkA", 1), ("MkA", 2), ("MkB", 1), ("MkB", 2)):
        for m in enumerate_family(p, tag, param, 300):
            assert m.degree == exponent_degree(m), m


def test_equality_and_hash_ignore_the_stored_degree():
    m = Monomial.gen(3, "q") * Monomial.gen(3, "y", 1, 2) * z_comp(3, 1, 3)
    twin = copy.copy(m)
    object.__setattr__(twin, "degree", m.degree + 1)
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert {m: 1}[twin] == 1


def test_value_records_cannot_be_assigned():
    m = Monomial.gen(3, "q") * Monomial.gen(3, "y", 1, 2)
    records = (
        (m, ("p", "q", "ys", "zs", "degree")),
        (Tower(m, 2), ("gen", "height")),
        (PEdge((0, 0), ((1, 1),)), ("src", "dst", "kind")),
        (GenSpec("q", 11, 1), ("name", "degree", "top")),
    )
    for record, names in records:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        del m.q
    twin = copy.copy(m)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert twin.degree == m.degree
