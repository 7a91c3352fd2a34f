import itertools
import random

import pytest

from kuengine.monomial import (
    Monomial,
    Z_prod,
    _composite,
    bounded_exponents,
    enumerate_family,
    k0,
    lambda_factors,
    q_degree,
    y_degree,
    z_comp,
    z_decompose_dict,
    z_degree,
)

PRIMES = (2, 3, 5, 7)


def test_degrees():
    assert Monomial.gen(2, "z", 5).degree == 130
    y2z2z3z4 = (
        Monomial.gen(2, "y", 2)
        * Monomial.gen(2, "z", 2)
        * Monomial.gen(2, "z", 3)
        * Monomial.gen(2, "z", 4)
    )
    assert y2z2z3z4.degree == 126
    assert Monomial.gen(3, "z", 1).degree == 20
    assert q_degree(2) == 9 and q_degree(3) == 11 and q_degree(5) == 19
    assert k0(2) == 2 and k0(3) == 1


def test_z_comp():
    m = z_comp(2, 2, 5)
    assert m.z_dict() == {2: 2, 3: 1, 4: 1}
    assert m.degree == 136
    assert z_comp(2, 5, 5).z_dict() == {5: 1}
    assert z_comp(2, 5, 5).degree == 130
    assert z_comp(3, 1, 2).z_dict() == {1: 3}
    assert z_comp(3, 1, 2).degree == 60
    for p in (2, 3, 5):
        lo = k0(p)
        for j in range(lo, 9):
            for i in range(lo, j + 1):
                assert z_comp(p, i, j).degree == 2 * (
                    p ** (j + 1) + 1 + (p - 1) * (j - i)
                )
    with pytest.raises(ValueError):
        z_comp(2, 5, 4)


def test_Z_prod():
    assert Z_prod(5, 4, 4).degree == 0
    assert Z_prod(2, 2, 4).z_dict() == {2: 1, 3: 1}
    assert Z_prod(3, 1, 3).z_dict() == {1: 2, 2: 2}
    with pytest.raises(ValueError):
        Z_prod(2, 4, 2)


def test_render():
    m = Monomial.gen(2, "y", 3) * Monomial.gen(2, "z", 3) * Monomial.gen(2, "z", 4)
    assert m.render() == "y3 z3 z4"
    m2 = Monomial.gen(2, "q") * Monomial.gen(2, "y", 1, 3) * z_comp(2, 2, 5)
    assert m2.render() == "q y1^3 z[2,5]"
    assert Monomial(3).render() == "1"


def test_composite_detection():
    assert _composite(2, z_comp(2, 2, 5).z_dict()) == (2, 5)
    assert _composite(3, z_comp(3, 1, 4).z_dict()) == (1, 4)
    assert _composite(2, {3: 1}) is None
    mixed = z_comp(2, 2, 5) * Monomial.gen(2, "z", 6)
    assert _composite(2, mixed.z_dict()) is None
    assert mixed.render() == "z2^2 z3 z4 z6"


def test_z_decompose():
    p = 2
    assert z_decompose_dict(p, z_comp(p, 2, 5).z_dict()) == (2, 5, 0, ())
    assert z_decompose_dict(p, {3: 1, 5: 1}) == (3, 3, 0, ((5, 1),))
    # greedy run extension: z_2^2 z_3 at p=2 is the composite z_comp(2,4)
    assert z_decompose_dict(p, {2: 2, 3: 1})[:3] == (2, 4, 0)
    p = 3
    m = z_comp(p, 1, 3) * Monomial.gen(p, "z", 3, 1)
    assert z_decompose_dict(p, m.z_dict()) == (1, 3, 1, ())
    assert z_decompose_dict(p, {2: 2})[:3] == (2, 2, 1)
    with pytest.raises(ValueError):
        z_decompose_dict(2, {})


def lambda_walk(p, j, cutoff):
    """Lambda_j up to the cutoff as (z-part pairs, degree), from the one
    walk every caller makes: position t of lambda_factors is z_{j+t}."""
    walk = bounded_exponents(lambda_factors(p, j, cutoff), cutoff)
    return [(tuple((j + t, e) for t, e in pairs), d) for pairs, d in walk]


def test_lambda_family():
    assert lambda_walk(2, 3, 40) == [((), 0), (((3, 1),), 34)]
    # 1, z_1 (20), z_1^2 (40), z_2 (56); z_1^3 excluded by the exponent cap
    assert sorted(d for _, d in lambda_walk(3, 1, 60)) == [0, 20, 40, 56]


def test_script_m():
    fam = enumerate_family(2, "MkB", 2, 30)
    assert [m.render() for m in fam] == ["y2 z2"]
    famA = enumerate_family(2, "MkA", 2, 30)
    assert famA[0].degree == 0  # contains 1
    assert all(not m.zs for m in famA)
    # at p=2 the level-k factor only allows 1 and z_k y_k
    for tag in ("MkA", "MkB"):
        for m in enumerate_family(2, tag, 2, 60):
            ez = m.z_dict().get(2, 0)
            ey = dict(m.ys).get(2, 0)
            assert (ez, ey) not in ((1, 0), (0, 1))


# -- the one bounded-product enumerator -----------------------------------------


def product_reference(factors, cap):
    """Reference: every vector of itertools.product over the exponent ranges
    a factor allows on its own, kept when its total degree is <= cap, as
    its (position, exponent) pairs of nonzero exponents."""
    ranges = [
        range((cap // deg if top is None else min(top, cap // deg)) + 1)
        for deg, top in factors
    ]
    out = []
    for exps in itertools.product(*ranges):
        d = sum(e * deg for e, (deg, _) in zip(exps, factors))
        if d <= cap:
            out.append((tuple((i, e) for i, e in enumerate(exps) if e), d))
    return out


def test_bounded_exponents_matches_the_product_reference():
    rng = random.Random(9090)
    cases = above_cap = 0
    while cases < 400:
        p = rng.choice(PRIMES)
        cap = rng.randint(0, 200)
        factors = [
            (rng.randint(3, 260), rng.choice((None, 0, 1, p - 1)))
            for _ in range(rng.randint(0, 6))
        ]
        size = 1
        for deg, top in factors:
            size *= (cap // deg if top is None else min(top, cap // deg)) + 1
        if size > 20000:  # keep the naive product small
            continue
        got = bounded_exponents(factors, cap)
        assert got == product_reference(factors, cap), (factors, cap)
        cases += 1
        above_cap += any(deg > cap for deg, _ in factors)
    assert above_cap > 50


def test_bounded_exponents_edges():
    assert bounded_exponents([], 0) == [((), 0)]
    assert bounded_exponents([(3, None)], -1) == []
    assert bounded_exponents([(3, 0), (5, 1)], 5) == [((), 0), (((1, 1),), 5)]
    want = [((), 0), (((0, 1),), 4), (((0, 2),), 8)]
    assert bounded_exponents([(4, None)], 9) == want
    assert bounded_exponents([(2, 1), (3, None)], 5) == [
        ((), 0),
        (((1, 1),), 3),
        (((0, 1),), 2),
        (((0, 1), (1, 1)), 5),
    ]
    for bad in (0, -2):
        with pytest.raises(ValueError):
            bounded_exponents([(bad, 1)], 10)


# The walks bounded_exponents replaced, kept as references: products built
# one Monomial multiplication at a time, and Lambda by a doubling loop.


def ref_bounded_products(p, gens, cap):
    def rec(idx, acc):
        if idx == len(gens):
            yield acc
            return
        g, emax = gens[idx]
        cur = acc
        for e in range(emax + 1):
            if e > 0:
                cur = cur * g
                if cur.degree > cap:
                    return
            yield from rec(idx + 1, cur)

    yield from rec(0, Monomial(p))


def ref_lambda_exponents(p, j, cutoff):
    out = [((), 0)]
    t = j
    while z_degree(p, t) <= cutoff:
        zd = z_degree(p, t)
        out += [
            (zs + ((t, e),), d + e * zd)
            for zs, d in out
            for e in range(1, p)
            if d + e * zd <= cutoff
        ]
        t += 1
    out.sort(key=lambda x: (x[1], x[0]))
    return out


def ref_script_m_family(p, k, cutoff, part):
    gens = []
    i = k
    while y_degree(p, i) <= cutoff:
        gens.append((Monomial.gen(p, "y", i), p - 1))
        i += 1
    if part == "B":
        t = k
        while z_degree(p, t) <= cutoff:
            gens.append((Monomial.gen(p, "z", t), p - 1))
            t += 1
    out = []
    for m in ref_bounded_products(p, gens, cutoff):
        ez = m.z_dict().get(k, 0)
        ey = dict(m.ys).get(k, 0)
        if (ez, ey) in ((p - 1, 0), (0, p - 1)):
            continue
        if part == "B" and not m.zs:
            continue
        out.append(m)
    out.sort(key=Monomial.sort_key)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_families_match_the_replaced_enumerators(p):
    compared = 0
    for tag in ("MkA", "MkB"):
        for param in (1, 2, 3):
            for cutoff in (0, 1, 13, 37, 150, 300):
                got = enumerate_family(p, tag, param, cutoff)
                want = ref_script_m_family(p, param, cutoff, tag[-1])
                assert got == want, (tag, param, cutoff)  # order included
                assert [m.degree for m in got] == [m.degree for m in want]
                compared += len(want)
    for j in (0, 1, 2, 3):
        for cutoff in (0, 5, 56, 199, 400):
            got = sorted(lambda_walk(p, j, cutoff), key=lambda x: (x[1], x[0]))
            assert got == ref_lambda_exponents(p, j, cutoff), (j, cutoff)
            compared += len(got)
    assert compared > 100
