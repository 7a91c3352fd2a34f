import random

import pytest

from kuengine.chart import (
    Chart,
    PEdge,
    RealizedWindow,
    Tower,
    direct_sum,
    tower_dots,
)
from kuengine.linalg import cokernel_exponents
from kuengine.modules import duality_audit, full_chart
from kuengine.monomial import Monomial, z_comp


def chain_chart(p, length):
    """A Z/p^length chain: towers of heights 1..length whose top dots share
    one degree, so the chain's dots (i, i) sit in filtrations 0, 1, 2, ..."""
    g = Monomial.gen(p, "z", 2)  # any generator; degree only matters
    # |y0| = 2, so tower i's generator sits 2(p-1)i above |g|, and its dot
    # a = i back in degree |g|
    towers = [Tower(g * Monomial.gen(p, "y", 0, (p - 1) * i), i + 1) for i in range(length)]
    edges = [PEdge((i, i), ((i + 1, i + 1),)) for i in range(length - 1)]
    return Chart(p, towers, edges)


def test_group_chain():
    c = chain_chart(2, 3)
    n = c.towers[0].gen_degree
    assert c.dots_at(n) == [(0, 0), (1, 1), (2, 2)]
    assert c.group_at(n) == [3]  # Z/p^3
    assert c.dims_at(n) == 3
    c2 = Chart(2, [Tower(Monomial.gen(2, "z", 2), 1), Tower(Monomial.gen(2, "z", 2), 1)])
    assert c2.group_at(c2.towers[0].gen_degree) == [1, 1]


def test_tower_dots_and_length():
    p = 3
    t = Tower(Monomial.gen(p, "z", 1), 3)  # degree 20, height 3
    c = Chart(p, [t])
    assert c.dots_at(20) == [(0, 0)]
    assert c.dots_at(16) == [(0, 1)]
    assert c.dots_at(12) == [(0, 2)]
    assert c.dots_at(8) == []
    assert c.group_at(16) == [1]
    # total F_p length equals dot count
    assert sum(c.group_at(16)) == len(c.dots_at(16))


def test_edge_validation():
    p = 2
    g = Monomial.gen(p, "z", 2)
    g2 = Monomial.gen(p, "z", 3)
    gy = g * Monomial.gen(p, "y", 0)  # |g| + 2: its v-dot sits at (|g|, 1)
    # dots (0, 0) at (|g|, 0); (1, 0) at (|g| + 2, 0), (1, 1) at (|g|, 1)
    tall = [Tower(g, 1), Tower(gy, 2)]
    cases = [
        ("1 or 2 targets", tall, [PEdge((0, 0), ())]),
        ("1 or 2 targets", tall, [PEdge((0, 0), ((1, 1),) * 3)]),
        ("source dot missing", tall, [PEdge((0, 1), ((1, 1),))]),
        ("source dot missing", tall, [PEdge((0, -1), ((1, 1),))]),
        ("target dot missing", tall, [PEdge((0, 0), ((1, 2),))]),
        ("target dot missing", tall, [PEdge((0, 0), ((1, 1), (0, -1)))]),
        ("source names no tower", [Tower(g, 1)], [PEdge((5, 0), ((0, 0),))]),
        ("source names no tower", tall, [PEdge((-1, 1), ((1, 1),))]),
        ("target names no tower", tall, [PEdge((0, 0), ((2, 1),))]),
        ("target names no tower", tall, [PEdge((0, 0), ((-1, 1),))]),
        ("changes degree", [Tower(g, 1), Tower(g2, 2)], [PEdge((0, 0), ((1, 1),))]),
        ("must raise filtration", [Tower(g, 1), Tower(g, 1)], [PEdge((0, 0), ((1, 0),))]),
        ("must raise filtration", [Tower(gy, 3), Tower(g, 2)], [PEdge((0, 2), ((1, 1),))]),
    ]
    for message, towers, edges in cases:
        with pytest.raises(ValueError, match=message) as err:
            Chart(p, towers, edges)
        if "names no tower" in message:
            assert str(edges[0]) in str(err.value)
    # the legal edge they all perturb
    assert Chart(p, tall, [PEdge((0, 0), ((1, 1),))]).group_at(g.degree) == [2]


def test_tensor_and_sum():
    p = 2
    c = chain_chart(p, 2)
    m = Monomial.gen(p, "y", 2)
    shifted = direct_sum([(c, m)])
    assert shifted.towers[0].gen_degree == c.towers[0].gen_degree + 8
    assert len(shifted.edges) == len(c.edges)
    s = direct_sum([(c, Monomial(p)), (shifted, Monomial(p))])
    assert len(s.towers) == 4
    n = c.towers[0].gen_degree
    assert s.dims_at(n) == c.dims_at(n) + shifted.dims_at(n)


def test_render_grammar():
    p = 2

    def g(*args):
        return Monomial.gen(p, *args)

    cases = {
        "1": Monomial(p),
        "q": g("q"),
        "y1^3": g("y", 1, 3),
        "y3 z3 z4": g("y", 3) * g("z", 3) * g("z", 4),
        "q y1^3 z[2,5]": g("q") * g("y", 1, 3) * z_comp(p, 2, 5),
        "z2^2 z5": g("z", 2, 2) * g("z", 5),
    }
    for text, m in cases.items():
        assert m.render() == text


def test_rank_invariant():
    p = 2
    # single tower of height 3: groups Z/2 at deg, deg-2, deg-4
    t = Tower(Monomial.gen(p, "z", 2, 2), 3)  # degree 36
    c = Chart(p, [t])
    w = RealizedWindow(c, 28, 40)
    assert c.group_at(36) == [1]
    assert w.rank_invariant(36, 0, 0) == 1
    assert w.rank_invariant(36, 1, 0) == 0  # p kills Z/p
    assert w.rank_invariant(36, 0, 1) == 1  # v: dot -> dot is onto Z/p
    assert w.rank_invariant(32, 0, 1) == 0  # falls off the tower top


def naive_rank_invariant(w, n, a, b):
    """Reference: log_p |im p^a v^b| as log_p |G_tgt| minus log_p of the
    cokernel of the relations plus the images, two eliminations per call."""
    c = w.chart
    tgt_dots = c.dots_at(n - 2 * (c.p - 1) * b)
    index = {d: i for i, d in enumerate(tgt_dots)}
    rel = c.relation_rows(tgt_dots)
    images = []
    for t, alpha in c.dots_at(n):
        shifted = (t, alpha + b)
        images.append({index[shifted]: c.p**a} if shifted in index else {})
    full = sum(cokernel_exponents(rel, len(tgt_dots), c.p))
    quot = sum(cokernel_exponents(rel + images, len(tgt_dots), c.p))
    return full - quot


@pytest.mark.parametrize("p, k_max", ((2, 4), (3, 2), (5, 1)))
def test_rank_invariant_matches_the_naive_reference(p, k_max, monkeypatch):
    # every (n, a, b) the duality audit visits on B_k0 .. B_k_max
    visited = {}
    fast = RealizedWindow.rank_invariant

    def record(w, n, a, b):
        visited[(w, n, a, b)] = None
        return fast(w, n, a, b)

    monkeypatch.setattr(RealizedWindow, "rank_invariant", record)
    assert duality_audit(p, k_max)["ok"]
    zero_image = killed = 0
    for w, n, a, b in visited:
        assert fast(w, n, a, b) == naive_rank_invariant(w, n, a, b), (p, n, a, b)
        c = w.chart
        tgt = n - 2 * (p - 1) * b
        if not {(t, al + b) for t, al in c.dots_at(n)} & set(c.dots_at(tgt)):
            zero_image += 1
        elif a >= max(c.group_at(tgt), default=0):
            killed += 1
    # both short cuts of rank_invariant are among the compared cases
    assert zero_image and killed and len(visited) > zero_image + killed


def test_dual_window_bounds():
    p = 2
    c = chain_chart(p, 2)
    w = RealizedWindow(c, 0, 10)
    with pytest.raises(ValueError):
        w.rank_invariant(50, 0, 0)


# -- the tower walker and the degree index --------------------------------------


def naive_tower_dots(top, height, step, lo, hi):
    # 200 dots reach below every window the test draws
    a_max = 200 if height is None else height
    return [a for a in range(a_max) if lo <= top - step * a <= hi]


def test_tower_dots_matches_a_naive_walk():
    rng = random.Random(20221007)
    cases = 0
    for _ in range(3000):
        top = rng.randrange(-60, 200)
        height = rng.choice([None] + list(range(13)))
        step = rng.choice((2, 4, 8, 12))
        span = step * (height if height else 12)
        where = rng.choice(("above", "below", "across"))
        if where == "above":  # whole window over the tower top
            lo = top + rng.randrange(1, 40)
        elif where == "below":  # whole window under the tower bottom
            lo = top - span - rng.randrange(40, 80)
        else:
            lo = top - rng.randrange(0, span + 20)
        hi = lo + rng.randrange(0, 60)
        got = tower_dots(top, height, step, lo, hi)
        assert isinstance(got, range)
        assert list(got) == naive_tower_dots(top, height, step, lo, hi), (
            top, height, step, lo, hi,
        )
        cases += bool(got)
    assert cases > 500  # the windows meet the towers often enough


def scanned_dots_at(chart, n):
    """The per-degree scan the degree index replaced."""
    out = []
    step = 2 * (chart.p - 1)
    for tid, t in enumerate(chart.towers):
        diff = t.gen_degree - n
        if diff < 0 or diff % step:
            continue
        a = diff // step
        if a < t.height:
            out.append((tid, a))
    return out


@pytest.mark.parametrize("p", (2, 3))
def test_dots_at_matches_the_per_degree_scan(p):
    ch = full_chart(p, 120)
    lo, hi = ch.min_dot_degree(), ch.max_dot_degree()
    seen = 0
    for n in range(lo - 3, hi + 4):
        want = scanned_dots_at(ch, n)
        assert ch.dots_at(n) == want, n
        assert ch.dims_at(n) == len(want)
        seen += len(want)
    assert seen == sum(t.height for t in ch.towers)


def test_dots_at_hands_out_copies():
    c = chain_chart(2, 3)
    n = c.towers[0].gen_degree
    c.dots_at(n).clear()
    assert len(c.dots_at(n)) == 3

