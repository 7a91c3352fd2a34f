"""Exact linear algebra over F_p and over the p-local integers, in pure
Python.

Two jobs:

* Echelon: the one F_p elimination kernel.  It grows a subspace one
  vector at a time, reports whether each new vector was independent, and
  reduces any vector modulo the span.  For p = 2 each row is a Python int
  used as a bitset and reduced by XOR against pivots keyed by leading
  bit; for odd p each row is a {col: coeff} dict reduced against monic
  pivots keyed by lowest column.  No dense array is ever built.
  gf_rank_sparse is its rank-only mode, for a matrix given as a
  (row, col, coeff) entry list; it serves the Margolis-homology and
  brute-force Ext oracles, whose boundary matrices are large but very
  sparse.  gf_rank is a thin adapter for a dense list of rows.

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

import heapq
from collections.abc import Iterable


class Echelon:
    """A subspace of F_p^n held as rows in echelon form, one per lead
    column, grown one vector at a time.

    A vector is given as (col, coeff) pairs; coefficients are any integers
    and a repeated column accumulates.  Every stored row is reduced against
    the rows stored before it, so a vector reduced against all of them in
    turn has no entry left at any lead column, and it is zero exactly when
    it lies in the span.
    """

    def __init__(self, p: int):
        self.p = p
        # lead column -> row: an int bitset (lead = highest bit) at p = 2,
        # else a {col: coeff} dict, monic at its lead = lowest column
        self.rows: dict = {}
        self._leads = 0  # p = 2: the lead columns as one bitset

    def __len__(self) -> int:
        return len(self.rows)

    def _reduced(self, vec: Iterable[tuple[int, int]]):
        """vec in the row format, minus the combination of stored rows that
        clears every lead column."""
        rows = self.rows
        if self.p == 2:
            row = 0
            for c, v in vec:
                if v & 1:
                    row ^= 1 << c
            hit = row & self._leads
            while hit:
                # a row's other bits lie below its lead: clear from the top
                row ^= rows[hit.bit_length() - 1]
                hit = row & self._leads
            return row
        p = self.p
        acc: dict[int, int] = {}
        for c, v in vec:
            acc[c] = acc.get(c, 0) + v
        row = {c: x for c, v in acc.items() if (x := v % p)}
        # a row's other columns lie above its lead: clear from the bottom
        todo = [c for c in row if c in rows]
        heapq.heapify(todo)
        while todo:
            lead = heapq.heappop(todo)
            f = row.get(lead)
            if f is None:  # pushed twice, already cleared
                continue
            for c, v in rows[lead].items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    if c not in row and c in rows:
                        heapq.heappush(todo, c)
                    row[c] = x
                else:  # c is in row: f and v are units, so x != 0 otherwise
                    del row[c]
        return row

    def add(self, vec: Iterable[tuple[int, int]]) -> bool:
        """Adjoin vec to the span; True when it was independent of it."""
        row = self._reduced(vec)
        if not row:
            return False
        if self.p == 2:
            lead = row.bit_length() - 1
            self._leads |= 1 << lead
        else:
            lead = min(row)
            inv = pow(row[lead], self.p - 2, self.p)
            row = {c: v * inv % self.p for c, v in row.items()}
        self.rows[lead] = row
        return True

    def reduce(self, vec: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """vec modulo the span as (col, coeff) pairs, coeff in 1..p-1, by
        ascending column, none at a lead column."""
        row = self._reduced(vec)
        if self.p != 2:
            return sorted(row.items())
        out = []
        while row:
            low = row & -row
            out.append((low.bit_length() - 1, 1))
            row ^= low
        return out


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
    rows: list[list[tuple[int, int]]] = [[] for _ in range(nrows)]
    for r, c, v in entries:
        rows[r].append((c, v))
    span = Echelon(p)
    for row in rows:
        span.add(row)
    return len(span)


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
