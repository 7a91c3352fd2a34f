"""Chart data structure: towers of v-divided classes joined by p-action
edges, plus the machinery that turns a degree slice of a chart into an
explicit finite abelian p-group with v-action.

Conventions (cohomological):
  * a tower is a generator monomial g and a finite height h; its id is its
    position in Chart.towers;
  * tower t has dots (t, a) for 0 <= a < h; dot degree = |g| - 2(p-1)a, dot
    filtration = a (every tower is based at filtration 0); v sends (t, a) to
    (t, a+1) (0 at the top);
  * a p-edge says p.(source dot) = sum of its target dots (all unit
    coefficients; targets share the source's degree and sit in strictly
    higher filtration);
  * dots without an edge satisfy p.(dot) = 0.

group_at never reads filtrations: they are chart metadata for rendering and
for E-infinity comparison.

Sums of monomial multiples m . C of charts are assembled in one pass:
append_shifted copies the towers (generators multiplied by m) and edges
(tower positions shifted by the list's length) of one (C, m) part onto lists
under construction, and direct_sum builds a single Chart from all parts, so
the edge-source and validate checks run once, over the finished chart.

A monomial family of towers is a table of FamilyRow rows, counted dot by dot
by count_family_dots; walk_family walks an indexed family while the lowest
reach among its rows, row_reach = base - 2(p-1)(height - 1), is in the window.
The one counter also counts the Theorem 6.1 terms (k1._g_rows), and
walk_family also walks the chart's odd blocks (modules._odd_parts).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .linalg import group_exponents, cokernel_exponents
from .monomial import Monomial, bounded_exponents, lambda_factors


def tower_dots(
    top: int, height: int | None, step: int, lo: int, hi: int
) -> range:
    """The a >= 0 below height (None = unbounded) whose dot degree
    top - step*a lies in [lo, hi]: the one place that walks a tower."""
    first = max(0, -((hi - top) // step))
    stop = (top - lo) // step + 1
    if height is not None:
        stop = min(stop, height)
    return range(first, stop)


# Towers of one height based in degree base + |m|, m a monomial in the (degree,
# max exponent) factors times Lambda_lam (none if lam is None); a dot counts sign.
FamilyRow = namedtuple("FamilyRow", "base height factors lam sign", defaults=(None, 1))


def row_reach(p: int, row: FamilyRow) -> int:
    """The bottom degree of the row's tower on the unit monomial."""
    return row.base - 2 * (p - 1) * (row.height - 1)


def walk_family(rows_at: Callable, reach: Callable, n_max: int, start: int) -> Iterator:
    """Yield rows_at(j) for j = start, start + 1, ... while the lowest reach
    among them is <= n_max (an index with no rows ends the walk too): each
    family's reach grows with its index, so its own rows say where it ends."""
    j = start
    while (rows := rows_at(j)) and min(map(reach, rows)) <= n_max:
        yield from rows
        j += 1


def count_family_dots(p: int, rows: Iterable[FamilyRow], n_max: int) -> tuple[int, ...]:
    """Dot counts in degrees 0..n_max of the towers of the rows."""
    dims = [0] * (n_max + 1)
    w = 2 * (p - 1)
    for base, height, factors, lam, sign in rows:
        cap = n_max + w * (height - 1) - base
        if lam is not None:
            factors = factors + lambda_factors(p, lam, cap)
        for _, d in bounded_exponents(factors, cap):
            for a in tower_dots(base + d, height, w, 0, n_max):
                dims[base + d - w * a] += sign
    return tuple(dims)


def v_label(gen: str, a: int) -> str:
    """Display name of the dot v^a . gen: the one spelling of that label."""
    if a == 0:
        return gen
    return f"v {gen}" if a == 1 else f"v^{a} {gen}"


class Tower(NamedTuple):
    gen: Monomial
    height: int

    @property
    def gen_degree(self) -> int:
        return self.gen.degree


class PEdge(NamedTuple):
    src: tuple[int, int]  # (tower position, a)
    dst: tuple[tuple[int, int], ...]  # 1 or 2 targets
    kind: str = "h0"  # {"h0", "exotic"}: rendering annotation only


class Chart:
    def __init__(self, p: int, towers: list | None = None, edges: list | None = None):
        self.p = p
        self.towers = [] if towers is None else towers
        self.edges = [] if edges is None else edges
        self._edge_by_src = {}
        for e in self.edges:
            if e.src in self._edge_by_src:
                raise ValueError(f"two edges from the same dot {e.src}")
            self._edge_by_src[e.src] = e
        self._by_degree: dict[int, list[tuple[int, int]]] | None = None
        self.validate()

    # -- basic access --------------------------------------------------------
    def edge_at(self, dot: tuple[int, int]) -> PEdge | None:
        return self._edge_by_src.get(dot)

    def validate(self) -> None:
        step = 2 * (self.p - 1)
        towers = self.towers

        def dot_degree(dot: tuple[int, int], role: str, e: PEdge) -> int:
            tid, a = dot
            if not 0 <= tid < len(towers):
                raise ValueError(f"edge {role} names no tower: {e}")
            t = towers[tid]
            if not 0 <= a < t.height:
                raise ValueError(f"edge {role} dot missing: {e}")
            return t.gen.degree - step * a

        for e in self.edges:
            if not (1 <= len(e.dst) <= 2):
                raise ValueError("edges carry 1 or 2 targets")
            sdeg = dot_degree(e.src, "source", e)
            for dst in e.dst:
                if dot_degree(dst, "target", e) != sdeg:
                    raise ValueError(f"edge changes degree: {e}")
                if dst[1] <= e.src[1]:
                    raise ValueError(f"edge target must raise filtration: {e}")

    # -- dots and groups ------------------------------------------------------
    def degree_index(self) -> dict[int, list[tuple[int, int]]]:
        """degree -> dots in tower order, built on the first query (shared,
        not copied: callers must not mutate it)."""
        if self._by_degree is None:
            step = 2 * (self.p - 1)
            index: dict[int, list[tuple[int, int]]] = {}
            for tid, t in enumerate(self.towers):
                top = t.gen_degree
                for a in range(t.height):
                    index.setdefault(top - step * a, []).append((tid, a))
            self._by_degree = index
        return self._by_degree

    def dots_at(self, n: int) -> list[tuple[int, int]]:
        return list(self.degree_index().get(n, ()))

    def min_dot_degree(self) -> int | None:
        """Smallest degree carrying a dot (None for an empty chart)."""
        best = None
        step = 2 * (self.p - 1)
        for t in self.towers:
            d = t.gen_degree - step * (t.height - 1)
            best = d if best is None else min(best, d)
        return best

    def max_dot_degree(self) -> int | None:
        """Largest degree carrying a dot (None for an empty chart)."""
        return max((t.gen_degree for t in self.towers), default=None)

    def relation_rows(
        self, dots: Sequence[tuple[int, int]]
    ) -> list[dict[int, int]]:
        """One relation per dot, p.dot - sum(edge targets), as a sparse
        {column: value} row over the given dots."""
        index = {d: i for i, d in enumerate(dots)}
        rows = []
        for i, d in enumerate(dots):
            row = {i: self.p}
            e = self.edge_at(d)
            if e is not None:
                for tgt in e.dst:
                    j = index[tgt]
                    row[j] = row.get(j, 0) - 1
            rows.append(row)
        return rows

    def group_at(self, n: int) -> list[int]:
        """Canonical exponent list [e_1 >= e_2 >= ...] with the degree-n
        component isomorphic to the direct sum of Z/p^{e_i}."""
        dots = self.dots_at(n)
        return group_exponents(self.relation_rows(dots), len(dots), self.p)

    def dims_at(self, n: int) -> int:
        """F_p-dimension of dots in degree n (composition length)."""
        return len(self.degree_index().get(n, ()))


def append_shifted(
    towers: list[Tower], edges: list[PEdge], chart: Chart, m: Monomial
) -> None:
    """Append m . chart to a tower and edge list under construction: every
    generator multiplied by m, and the edges carried along with their tower
    positions shifted by len(towers)."""
    if chart.p != m.p:
        raise ValueError("mixed primes")
    offset = len(towers)
    towers += [Tower(t.gen * m, t.height) for t in chart.towers]
    for e in chart.edges:
        edges.append(
            PEdge(
                (offset + e.src[0], e.src[1]),
                tuple((offset + tid, b) for tid, b in e.dst),
                e.kind,
            )
        )


def direct_sum(p: int, parts: Iterable[tuple[Chart, Monomial]]) -> Chart:
    """The chart of the direct sum of the multiples m . chart over the given
    (chart, m) parts at prime p (the empty chart for no parts), built in one
    pass and validated once."""
    towers: list[Tower] = []
    edges: list[PEdge] = []
    for c, m in parts:
        if c.p != p:
            raise ValueError("mixed primes")
        append_shifted(towers, edges, c, m)
    return Chart(p, towers, edges)


# -- realized windows ---------------------------------------------------------


class RealizedWindow:
    """A degree-window slice of a chart, exposing explicit groups and the
    rank invariants of the maps x -> p^a v^b x, one (n, a, b) per call: the
    per-call reference that tests compare modules.duality_audit's one-pass
    walk with.  Only the groups of the target degrees are kept between
    calls."""

    def __init__(self, chart: Chart, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty window")
        self.chart = chart
        self.lo = lo
        self.hi = hi
        self._groups: dict[int, list[int]] = {}

    def _check(self, n: int) -> None:
        if not (self.lo <= n <= self.hi):
            raise ValueError(f"degree {n} outside window [{self.lo}, {self.hi}]")

    # -- rank invariant -------------------------------------------------------
    def rank_invariant(self, n: int, a: int, b: int) -> int:
        """log_p of the order of the image of p^a v^b from degree n to
        degree n - 2(p-1)b of the realized module."""
        c = self.chart
        tgt_n = n - 2 * (c.p - 1) * b
        self._check(n)
        self._check(tgt_n)
        group = self._groups.get(tgt_n)
        if group is None:
            group = self._groups[tgt_n] = c.group_at(tgt_n)
        tgt_dots = c.dots_at(tgt_n)
        index = {d: i for i, d in enumerate(tgt_dots)}
        images = []
        for t, alpha in c.dots_at(n):
            shifted = (t, alpha + b)
            if shifted in index:
                images.append({index[shifted]: c.p**a})
        if not images or a >= max(group, default=0):
            # the image is zero, or p^a kills the whole target group
            return 0
        rel = c.relation_rows(tgt_dots)
        return sum(group) - sum(cokernel_exponents(rel + images, len(tgt_dots), c.p))
