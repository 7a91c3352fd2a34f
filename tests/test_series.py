from kuengine.series import PSeries


def test_basic_arithmetic():
    top = 30
    geo = PSeries.geometric(top, 3)
    assert [geo[d] for d in (0, 3, 6, 7)] == [1, 1, 1, 0]
    tp = PSeries.truncated_poly(top, 4, 3)
    assert [tp[d] for d in (0, 4, 8, 12)] == [1, 1, 1, 0]
    prod = geo * tp
    # coefficient at 12: 12=3a+4b with b<=2: (4,0),(0,3)x - b<=2: (4,0),(0,3)
    # b=0: a=4; b=1: 8=3a no; b=2: 4=3a no -> 1
    assert prod[12] == 1


def test_divide_exact_roundtrip():
    top = 40
    a = PSeries.geometric(top, 2) * PSeries.truncated_poly(top, 5, 4)
    b = PSeries.truncated_poly(top, 3, 2)
    assert (a * b).divide_exact(b) == a


def test_product_and_shift():
    top = 20
    s = PSeries.truncated_poly(top, 2, 2) * PSeries.truncated_poly(top, 3, 2)
    assert [s[d] for d in range(7)] == [1, 0, 1, 1, 0, 1, 0]
    assert s.shift(2)[4] == s[2]
