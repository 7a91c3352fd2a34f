import pytest

from kuengine.monomial import (
    Monomial,
    Z_prod,
    composite_of,
    enumerate_family,
    k0,
    q_degree,
    z_comp,
    z_decompose,
)


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
    assert Monomial.one(3).render() == "1"


def test_composite_detection():
    assert composite_of(z_comp(2, 2, 5)) == (2, 5)
    assert composite_of(z_comp(3, 1, 4)) == (1, 4)
    assert composite_of(Monomial.gen(2, "z", 3)) is None
    mixed = z_comp(2, 2, 5) * Monomial.gen(2, "z", 6)
    assert composite_of(mixed) is None


def test_z_decompose():
    p = 2
    i, j, e, lam = z_decompose(z_comp(p, 2, 5))
    assert (i, j, e) == (2, 5, 0) and lam.degree == 0
    i, j, e, lam = z_decompose(Monomial.gen(p, "z", 3) * Monomial.gen(p, "z", 5))
    assert (i, j, e) == (3, 3, 0) and lam.z_dict() == {5: 1}
    # greedy run extension: z_2^2 z_3 at p=2 is the composite z_comp(2,4)
    m = Monomial.gen(p, "z", 2, 2) * Monomial.gen(p, "z", 3)
    assert z_decompose(m)[:3] == (2, 4, 0)
    p = 3
    i, j, e, lam = z_decompose(z_comp(p, 1, 3) * Monomial.gen(p, "z", 3, 1))
    assert (i, j, e) == (1, 3, 1) and not lam.zs
    i, j, e, lam = z_decompose(Monomial.gen(p, "z", 2, 2))
    assert (i, j, e) == (2, 2, 1)
    with pytest.raises(ValueError):
        z_decompose(Monomial.one(2))


def test_lambda_family():
    fam = enumerate_family(2, "Lambda", 3, 40)
    assert [m.render() for m in fam] == ["1", "z3"]
    assert len(enumerate_family(2, "LambdaBar", 3, 40)) == 1
    fam3 = enumerate_family(3, "Lambda", 1, 60)
    # 1, z_1 (20), z_1^2 (40), z_2 (56); z_1^3 excluded by the exponent cap
    assert sorted(m.degree for m in fam3) == [0, 20, 40, 56]


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
