"""The exact linear algebra kernel: F_p ranks from entry lists and dense
rows and the Echelon span's pivots and reductions, checked against a naive
dense elimination written here, and the p-local cokernel exponents on cases whose group is known by hand and
against the dense p-local elimination the sparse one replaced."""

import copy
import random

import pytest

from kuengine.linalg import (
    Echelon,
    cokernel_exponents,
    gf_rank,
    gf_rank_sparse,
    group_exponents,
)
from kuengine.modules import full_chart

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is an optional test extra
    given = None

PRIMES = (2, 3, 5, 7)


def naive_rank(entries, nrows, ncols, p):
    """Plain dense Gaussian elimination mod p."""
    a = [[0] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        a[r][c] = (a[r][c] + v) % p
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def dense(entries, nrows, ncols):
    mat = [[0] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        mat[r][c] += v
    return mat


def random_entries(rng, nrows, ncols, density, p):
    """Random entries with repeats and coefficients well outside 0..p-1."""
    count = int(density * nrows * ncols)
    return [
        (rng.randrange(nrows), rng.randrange(ncols), rng.randint(-2 * p, 2 * p))
        for _ in range(count)
    ]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("density", (0.05, 0.3, 1.5))
def test_random_matrices_match_the_naive_rank(p, density):
    rng = random.Random(1000 * p + int(100 * density))
    for _ in range(40):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        entries = random_entries(rng, nrows, ncols, density, p)
        want = naive_rank(entries, nrows, ncols, p)
        assert gf_rank_sparse(entries, nrows, ncols, p) == want
        assert gf_rank(dense(entries, nrows, ncols), p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_rank_of_a_matrix_equals_rank_of_its_transpose(p):
    rng = random.Random(p)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        entries = random_entries(rng, nrows, ncols, 0.2, p)
        flipped = [(c, r, v) for r, c, v in entries]
        assert gf_rank_sparse(entries, nrows, ncols, p) == gf_rank_sparse(
            flipped, ncols, nrows, p
        )


@pytest.mark.parametrize("p", PRIMES)
def test_duplicate_entries_accumulate(p):
    # 1 + 1 + ... (p times) is 0 mod p; one more makes it a unit again
    assert gf_rank_sparse([(0, 0, 1)] * p, 1, 1, p) == 0
    assert gf_rank_sparse([(0, 0, 1)] * (p + 1), 1, 1, p) == 1
    # a second row equal to the first only once its duplicates are summed
    entries = [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 1), (1, 1, 1)]
    assert gf_rank_sparse(entries, 2, 2, p) == naive_rank(entries, 2, 2, p) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_entries_that_cancel_mod_p(p):
    assert gf_rank_sparse([(0, 0, p)], 1, 1, p) == 0
    assert gf_rank_sparse([(0, 0, -p), (1, 1, 3 * p)], 2, 2, p) == 0
    assert gf_rank_sparse([(0, 0, 1), (0, 0, -1)], 1, 1, p) == 0
    assert gf_rank([[p, 0], [0, -p]], p) == 0
    # a cancelled entry must not be mistaken for a pivot of its column
    entries = [(0, 0, 1), (0, 0, -1), (0, 1, 1), (1, 1, 1)]
    assert gf_rank_sparse(entries, 2, 2, p) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_negative_coefficients(p):
    assert gf_rank_sparse([(0, 0, -1)], 1, 1, p) == 1
    # rows (1, -1) and (-1, 1) are dependent over every F_p
    assert gf_rank([[1, -1], [-1, 1]], p) == 1
    assert gf_rank([[-1, -1], [-1, 1]], p) == (1 if p == 2 else 2)


@pytest.mark.parametrize("p", PRIMES)
def test_empty_shapes_rows_and_columns(p):
    assert gf_rank_sparse([], 0, 0, p) == 0
    assert gf_rank_sparse([], 5, 0, p) == 0
    assert gf_rank_sparse([], 0, 5, p) == 0
    assert gf_rank_sparse([], 4, 4, p) == 0
    assert gf_rank([], p) == 0
    assert gf_rank([[], []], p) == 0
    assert gf_rank([[0, 0, 0]] * 3, p) == 0
    # zero rows and zero columns around a 2x2 core of determinant 1 - 6 = -5
    mat = [[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 0, 1], [0, 0, 0, 0]]
    entries = [(r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v]
    want = naive_rank(entries, 5, 4, p)
    assert want == (1 if p == 5 else 2)
    assert gf_rank(mat, p) == gf_rank_sparse(entries, 5, 4, p) == want


@pytest.mark.parametrize("p", PRIMES)
def test_full_rank_square_matrices(p):
    n = 40
    assert gf_rank([[int(i == j) for j in range(n)] for i in range(n)], p) == n
    # unit upper-triangular with random entries above the diagonal
    rng = random.Random(7 * p)
    entries = [(i, i, rng.randrange(1, p)) for i in range(n)]
    entries += [(i, j, rng.randrange(p)) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(entries)
    assert gf_rank_sparse(entries, n, n, p) == n
    # the anti-diagonal: every pivot is found out of row order
    assert gf_rank_sparse([(i, n - 1 - i, 1) for i in range(n)], n, n, p) == n


def as_entries(vectors):
    """(row, col, coeff) entries of a list of (col, coeff) vectors."""
    return [(r, c, v) for r, vec in enumerate(vectors) for c, v in vec]


def in_span(vec, vectors, ncols, p):
    """vec lies in the span of vectors, by naive ranks."""
    return naive_rank(as_entries(vectors + [vec]), len(vectors) + 1, ncols, p) == naive_rank(
        as_entries(vectors), len(vectors), ncols, p
    )


def random_vector(rng, ncols, density, p):
    """(col, coeff) pairs with repeats, coefficients outside 0..p-1, and
    now and then no pairs at all."""
    count = int(density * ncols) if rng.random() > 0.1 else 0
    return [(rng.randrange(ncols), rng.randint(-2 * p, 2 * p)) for _ in range(count)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("density", (0.1, 0.4, 1.5))
def test_echelon_matches_the_naive_elimination(p, density):
    rng = random.Random(2000 * p + int(100 * density))
    for _ in range(15):
        ncols = rng.randint(1, 25)
        vectors = [random_vector(rng, ncols, density, p) for _ in range(rng.randint(0, 25))]
        span, added = Echelon(p), []
        for vec in vectors:
            # add is True exactly when the vector is independent of those before
            assert span.add(vec) == (not in_span(vec, added, ncols, p))
            added.append(vec)
        assert len(span) == naive_rank(as_entries(vectors), len(vectors), ncols, p)
        for _ in range(10):
            # half the probes are combinations of the rows, so they lie in the span
            vec = random_vector(rng, ncols, density, p)
            if vectors and rng.random() < 0.5:
                vec = [(c, v * rng.randrange(p)) for row in vectors for c, v in row]
            got = span.reduce(vec)
            assert (not got) == in_span(vec, vectors, ncols, p)
            assert [c for c, _ in got] == sorted({c for c, _ in got})
            assert all(c not in span.rows and 0 < v < p for c, v in got)
            # vec minus its reduction lies in the span
            diff = vec + [(c, -v) for c, v in got]
            assert in_span(diff, vectors, ncols, p)


@pytest.mark.parametrize("p", PRIMES)
def test_echelon_empty_vectors_and_cancellation(p):
    span = Echelon(p)
    assert not span.add([])
    assert not span.add([(3, p), (5, -p)])  # zero mod p
    assert not span.add([(2, 1)] * p)  # p repeats of one column cancel
    assert len(span) == 0 and span.reduce([(4, 2 * p + 1)]) == [(4, 1)]
    assert span.add([(0, 1), (1, 1)])
    assert span.add([(1, 1), (2, p + 1)])
    # the sum of the two rows, spelled with multiples of p added
    assert not span.add([(0, 1 + p), (1, 2), (2, 1)])
    assert span.reduce([(0, 1), (2, -1)]) == []
    assert span.add([(2, 1)]) and len(span) == 3
    assert span.reduce([(c, 1) for c in range(3)]) == []
    assert span.reduce([(3, -1)]) == [(3, p - 1)]


def sparse_rows(rows):
    """The {col: value} rows the kernel takes, from dense rows."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, ncols):
    """Dense rows of width ncols, from {col: value} rows."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize("p", PRIMES)
def test_cokernel_of_diagonal_matrices(p):
    # Z/p^3 + Z/p + 0 + 0: a unit (p + 1 is prime to p) kills its column
    rows = sparse_rows(
        [[p**3, 0, 0, 0], [0, p, 0, 0], [0, 0, 1, 0], [0, 0, 0, p + 1]]
    )
    assert cokernel_exponents(rows, 4, p) == [3, 1, 0, 0]
    assert group_exponents(rows, 4, p) == [3, 1]
    assert cokernel_exponents([{0: -p}], 1, p) == [1]
    assert cokernel_exponents([], 0, p) == []


@pytest.mark.parametrize("p", PRIMES)
def test_cokernel_of_triangular_matrices(p):
    # upper-triangular: the order, p^sum(exps), is the p-part of the
    # diagonal product
    rows = [[p, 1], [0, p]]  # Smith form diag(1, p^2): cyclic of order p^2
    assert cokernel_exponents(sparse_rows(rows), 2, p) == [2, 0]

    rows = [[p**2, p, 1], [0, p, p], [0, 0, p**2]]
    exps = cokernel_exponents(sparse_rows(rows), 3, p)
    assert sum(exps) == 2 + 1 + 2
    # Smith form: the entries have gcd 1, the 2x2 minors gcd p (p^2 - p from
    # rows 1-2, columns 2-3), and the determinant is p^5: diag(1, p, p^4)
    assert exps == [4, 1, 0]

    # lower-triangular with p-multiples off the diagonal: diag(p, p, p)
    rows = [[p, 0, 0], [p, p, 0], [-p, p, p]]
    assert cokernel_exponents(sparse_rows(rows), 3, p) == [1, 1, 1]


def test_infinite_cokernel_raises():
    with pytest.raises(ArithmeticError):
        cokernel_exponents([{0: 1}], 2, 2)
    with pytest.raises(ArithmeticError):
        cokernel_exponents([], 1, 3)


# -- the sparse p-local kernel against the dense one it replaced ---------------


def dense_cokernel_exponents(rows, ncols, p):
    """Reference: dense rows mod p^(ncols+2), the first unit in row-major
    order as pivot, and one factor of p stripped when no unit is left."""
    if ncols == 0:
        return []
    budget = ncols + 2
    mod = p**budget
    work = [[x % mod for x in row] for row in rows if any(x % mod for x in row)]
    exps = []
    offset = 0
    cols = ncols
    while cols:
        piv = None
        for ri, row in enumerate(work):
            for ci, x in enumerate(row):
                if x % p:
                    piv = (ri, ci)
                    break
            if piv:
                break
        if piv is None:
            if not work:
                raise ArithmeticError("infinite cokernel: relations ran out")
            offset += 1
            mod //= p
            if mod <= 1:
                raise ArithmeticError("valuation budget exhausted")
            work = [
                [(x // p) % mod for x in row]
                for row in work
                if any((x // p) % mod for x in row)
            ]
            continue
        ri, ci = piv
        prow = work.pop(ri)
        uinv = pow(prow[ci], -1, mod)
        prow = [(x * uinv) % mod for x in prow]
        for row in work:
            f = row[ci]
            if f:
                for j in range(cols):
                    row[j] = (row[j] - f * prow[j]) % mod
        for row in work:
            del row[ci]
        work = [row for row in work if any(row)]
        exps.append(offset)
        cols -= 1
    return sorted(exps, reverse=True)


def outcome(kernel, rows, ncols, p):
    """The exponents, or the ArithmeticError message for an infinite
    cokernel; the kernel must leave its input rows as they were."""
    before = copy.deepcopy(rows)
    try:
        result = kernel(rows, ncols, p)
    except ArithmeticError as exc:
        result = str(exc)
    assert rows == before
    return result


@pytest.mark.parametrize("p", PRIMES)
def test_cokernel_matches_the_dense_reference_on_random_matrices(p):
    rng = random.Random(4200 + p)
    values = (0, 0, 0, 1, -1, p, -p, p * p)
    finite = infinite = 0
    for _ in range(300):
        ncols = rng.randint(0, 9)
        nrows = rng.randint(0, ncols + 4)
        rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        want = outcome(dense_cokernel_exponents, rows, ncols, p)
        got = outcome(cokernel_exponents, sparse_rows(rows), ncols, p)
        assert got == want, rows
        finite += isinstance(want, list)
        infinite += isinstance(want, str)
    # both branches are among the compared cases
    assert finite > 50 and infinite > 50


@pytest.mark.parametrize("p", PRIMES)
def test_cokernel_matches_the_dense_reference_on_chart_relations(p):
    """Every degree's relations of full_chart(p, 200), alone and with the
    images of p^a v^b that RealizedWindow.rank_invariant appends."""
    chart = full_chart(p, 200)
    step = 2 * (p - 1)
    calls = 0
    for tgt in range(201):
        tgt_dots = chart.dots_at(tgt)
        rel = chart.relation_rows(tgt_dots)
        ncols = len(tgt_dots)
        assert cokernel_exponents(rel, ncols, p) == dense_cokernel_exponents(
            dense_rows(rel, ncols), ncols, p
        ), tgt
        index = {d: i for i, d in enumerate(tgt_dots)}
        for b in range(3):
            src = [(t, al + b) for t, al in chart.dots_at(tgt + step * b)]
            for a in range(3):
                images = [{index[dot]: p**a} for dot in src if dot in index]
                if not images:
                    continue
                got = cokernel_exponents(rel + images, ncols, p)
                dense = dense_rows(rel + images, ncols)
                want = dense_cokernel_exponents(dense, ncols, p)
                assert got == want
                calls += 1
    assert calls > 100


if given is not None:

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from(PRIMES),
        shape=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        data=st.data(),
    )
    def test_property_sparse_rank_matches_naive(p, shape, data):
        nrows, ncols = shape
        entry = st.tuples(
            st.integers(0, max(nrows - 1, 0)),
            st.integers(0, max(ncols - 1, 0)),
            st.integers(-3 * p, 3 * p),
        )
        entries = data.draw(st.lists(entry, max_size=60)) if nrows and ncols else []
        want = naive_rank(entries, nrows, ncols, p)
        assert gf_rank_sparse(entries, nrows, ncols, p) == want
        assert want <= min(nrows, ncols)

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_property_sparse_rank_matches_naive():
        pass
