from kuengine.series import PSeries, degree_rows, report


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


def test_report_counts_rows_and_lists_failures():
    rows = degree_rows(2, [1, 2, 3], [1, 0, 3], ("oracle", "closed"), which="Q0")
    assert rows[1] == {"which": "Q0", "degree": 1, "oracle": 2, "closed": 0, "pass": False}
    rep = report({"p": 3}, rows)
    assert (rep["p"], rep["checked"], rep["failures"], rep["ok"]) == (3, 3, [rows[1]], False)
    # a row carrying its own count, and a verdict condition outside the rows
    counted = [{"checked": 5, "pass": True}, {"checked": 2, "pass": True}]
    assert report({}, counted)["checked"] == 7
    assert report({}, counted, ok=False)["ok"] is False
    assert report({}, counted)["ok"] is True
