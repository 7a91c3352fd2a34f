"""Exact linear algebra over F_p and over the p-local integers, in pure
Python.

Two jobs:

* gf_rank_sparse: the rank over F_p of a matrix given as a
  (row, col, coeff) entry list.  This is the one elimination kernel; it
  serves the Margolis-homology and brute-force Ext oracles, whose
  boundary matrices are large but very sparse.  For p = 2 each row is a
  Python int used as a bitset and reduced by XOR against pivots keyed by
  leading bit; for odd p each row is a {col: coeff} dict reduced against
  monic pivots keyed by lowest column.  No dense nrows x ncols array is
  ever built.  gf_rank is a thin adapter for a dense list of rows.

* cokernel_exponents: the p-exponents e_i of a finite cokernel
  Z_(p)^ncols / rowspan, used to turn chart presentations into explicit
  abelian p-groups.  Entries are tiny ({0, +-1, +-p} in practice), so the
  elimination tracks valuations by repeatedly stripping unit pivots and
  dividing the remainder by p; arithmetic runs modulo a power of p large
  enough that no information is lost for a finite cokernel.  Rows come
  and are reduced as sparse {col: value} dicts: a chart relation has at
  most three nonzeros, and the exponents are Smith invariants, so the
  pivot order does not change them.
"""

from __future__ import annotations


def gf_rank(mat: list[list[int]], p: int) -> int:
    """Rank over F_p of a dense integer matrix given as a list of equal-length
    rows (entries reduced mod p here)."""
    entries = [(r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v]
    return gf_rank_sparse(entries, len(mat), len(mat[0]) if mat else 0, p)


def gf_rank_sparse(
    entries: list[tuple[int, int, int]], nrows: int, ncols: int, p: int
) -> int:
    """Rank over F_p of the nrows x ncols matrix with the given
    (row, col, coeff) entries (duplicates accumulate)."""
    if nrows == 0 or ncols == 0 or not entries:
        return 0
    if p == 2:
        bits = [0] * nrows
        for r, c, v in entries:
            if v & 1:
                bits[r] ^= 1 << c
        lead_pivots: dict[int, int] = {}
        for row in bits:
            while row:
                lead = row.bit_length() - 1
                piv = lead_pivots.get(lead)
                if piv is None:
                    lead_pivots[lead] = row
                    break
                row ^= piv
        return len(lead_pivots)
    acc: list[dict[int, int]] = [{} for _ in range(nrows)]
    for r, c, v in entries:
        acc[r][c] = acc[r].get(c, 0) + v
    pivots: dict[int, dict[int, int]] = {}
    for raw in acc:
        row = {c: v % p for c, v in raw.items() if v % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:  # c is in row: f and v are units, so x != 0 otherwise
                    del row[c]
    return len(pivots)


def cokernel_exponents(rows: list[dict[int, int]], ncols: int, p: int) -> list[int]:
    """Exponents e >= 0 (one per column) with coker = direct sum of Z/p^e,
    sorted descending, for {col: value} rows over columns 0..ncols-1 (the
    rows are not modified).  Raises ArithmeticError if the cokernel is
    infinite (some column never meets a pivot)."""
    if ncols == 0:
        return []
    budget = ncols + 2
    mod = p**budget
    work = []
    for row in rows:
        sparse = {c: y for c, x in row.items() if (y := x % mod)}
        if sparse:
            work.append(sparse)
    exps: list[int] = []
    offset = 0
    cols = ncols
    while cols:
        # one pass pivots out every unit entry: subtracting a multiple of p
        # times a pivot row keeps a row that had no unit free of units
        i = 0
        while i < len(work):
            prow = work[i]
            ci = next((c for c, x in prow.items() if x % p), None)
            if ci is None:
                i += 1
                continue
            del work[i]
            uinv = pow(prow.pop(ci), -1, mod)
            prow = {c: (x * uinv) % mod for c, x in prow.items()}
            for row in work:
                f = row.pop(ci, 0)
                if f:
                    for c, x in prow.items():
                        y = (row.get(c, 0) - f * x) % mod
                        if y:
                            row[c] = y
                        else:
                            row.pop(c, None)
            exps.append(offset)
            cols -= 1
        if not cols:
            break
        work = [row for row in work if row]
        if not work:
            raise ArithmeticError("infinite cokernel: relations ran out")
        # every entry divisible by p: strip one factor from the matrix (an
        # entry in p..mod-1 stays nonzero modulo mod / p)
        offset += 1
        mod //= p
        if mod <= 1:
            raise ArithmeticError("valuation budget exhausted")
        for row in work:
            for c in row:
                row[c] //= p
    return sorted(exps, reverse=True)


def group_exponents(rows: list[dict[int, int]], ncols: int, p: int) -> list[int]:
    """Like cokernel_exponents but dropping the trivial (e = 0) factors:
    the canonical descending exponent list of a finite abelian p-group."""
    return [e for e in cokernel_exponents(rows, ncols, p) if e > 0]
