"""Chart data structure: towers of v-divided classes joined by p-action
edges, plus the machinery that turns a degree slice of a chart into an
explicit finite abelian p-group with v-action.

Conventions (cohomological):
  * a tower with generator monomial g, base filtration s0 and height h has
    dots (tower, a) for 0 <= a < h; dot degree = |g| - 2(p-1)a, dot
    filtration = s0 + a; v sends (tower, a) to (tower, a+1) (0 at the top);
  * a p-edge says p.(source dot) = sum of its target dots (all unit
    coefficients; targets share the source's degree and sit in strictly
    higher filtration);
  * dots without an edge satisfy p.(dot) = 0.

group_at never reads filtrations: they are chart metadata for rendering and
for E-infinity comparison.

Sums of monomial multiples m . C of charts are assembled in one pass:
append_shifted copies the towers (generators multiplied by m, ids
renumbered) and edges of one (C, m) part onto lists under construction, and
direct_sum builds a single Chart from all parts, so the id, edge-source and
validate checks run once, over the finished chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .linalg import group_exponents, cokernel_exponents
from .monomial import Monomial


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


def v_label(gen: str, a: int) -> str:
    """Display name of the dot v^a . gen: the one spelling of that label."""
    if a == 0:
        return gen
    return f"v {gen}" if a == 1 else f"v^{a} {gen}"


@dataclass(frozen=True, slots=True)
class Tower:
    id: int
    gen: Monomial
    base_s: int = 0
    height: int | None = 1  # None = unbounded

    @property
    def gen_degree(self) -> int:
        return self.gen.degree


@dataclass(frozen=True, slots=True)
class PEdge:
    src: tuple[int, int]  # (tower id, a)
    dst: tuple[tuple[int, int], ...]  # 1 or 2 targets
    kind: str = "h0"  # {"h0", "exotic"}: rendering annotation only


@dataclass
class Chart:
    p: int
    towers: list[Tower] = field(default_factory=list)
    edges: list[PEdge] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {t.id: t for t in self.towers}
        if len(self._by_id) != len(self.towers):
            raise ValueError("duplicate tower ids")
        self._edge_by_src = {}
        for e in self.edges:
            if e.src in self._edge_by_src:
                raise ValueError(f"two edges from the same dot {e.src}")
            self._edge_by_src[e.src] = e
        self._by_degree: dict[int, list[tuple[int, int]]] | None = None
        self.validate()

    # -- basic access --------------------------------------------------------
    def tower(self, tid: int) -> Tower:
        return self._by_id[tid]

    def edge_at(self, dot: tuple[int, int]) -> PEdge | None:
        return self._edge_by_src.get(dot)

    def dot_degree(self, dot: tuple[int, int]) -> int:
        t = self.tower(dot[0])
        return t.gen_degree - 2 * (self.p - 1) * dot[1]

    def dot_filtration(self, dot: tuple[int, int]) -> int:
        t = self.tower(dot[0])
        return t.base_s + dot[1]

    def validate(self) -> None:
        step = 2 * (self.p - 1)
        shape = {t.id: (t.gen.degree, t.base_s, t.height) for t in self.towers}
        for e in self.edges:
            if not (1 <= len(e.dst) <= 2):
                raise ValueError("edges carry 1 or 2 targets")
            deg, s0, height = shape[e.src[0]]
            a = e.src[1]
            if a < 0 or (height is not None and a >= height):
                raise ValueError(f"edge source dot missing: {e}")
            sdeg = deg - step * a
            sfil = s0 + a
            for tid, b in e.dst:
                deg, s0, height = shape[tid]
                if b < 0 or (height is not None and b >= height):
                    raise ValueError(f"edge target dot missing: {e}")
                if deg - step * b != sdeg:
                    raise ValueError(f"edge changes degree: {e}")
                if s0 + b <= sfil:
                    raise ValueError(f"edge target must raise filtration: {e}")

    # -- dots and groups ------------------------------------------------------
    def _degree_index(self) -> dict[int, list[tuple[int, int]]]:
        """degree -> dots in tower order, built on the first query."""
        if self._by_degree is None:
            step = 2 * (self.p - 1)
            index: dict[int, list[tuple[int, int]]] = {}
            for t in self.towers:
                if t.height is None:
                    raise ValueError(f"tower {t.gen.render()} is unbounded")
                top = t.gen_degree
                for a in range(t.height):
                    index.setdefault(top - step * a, []).append((t.id, a))
            self._by_degree = index
        return self._by_degree

    def dots_at(self, n: int) -> list[tuple[int, int]]:
        return list(self._degree_index().get(n, ()))

    def min_dot_degree(self) -> int | None:
        """Smallest degree carrying a dot (None for an empty chart)."""
        best = None
        step = 2 * (self.p - 1)
        for t in self.towers:
            if t.height is None:
                raise ValueError("unbounded tower has no minimal dot degree")
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
        return len(self._degree_index().get(n, ()))


def append_shifted(
    towers: list[Tower], edges: list[PEdge], chart: Chart, m: Monomial
) -> None:
    """Append m . chart to a tower and edge list under construction: every
    generator multiplied by m, tower ids renumbered from len(towers) in
    tower order, and the edges carried along."""
    if chart.p != m.p:
        raise ValueError("mixed primes")
    offset = len(towers)
    pos = {}
    for t in chart.towers:
        pos[t.id] = tid = offset + len(pos)
        towers.append(Tower(tid, t.gen * m, t.base_s, t.height))
    for e in chart.edges:
        edges.append(
            PEdge(
                (pos[e.src[0]], e.src[1]),
                tuple((pos[tid], b) for tid, b in e.dst),
                e.kind,
            )
        )


def direct_sum(parts: Iterable[tuple[Chart, Monomial]]) -> Chart:
    """The chart of the direct sum of the multiples m . chart over the given
    (chart, m) parts, built in one pass and validated once."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct_sum needs at least one chart (prime unknown)")
    p = parts[0][0].p
    towers: list[Tower] = []
    edges: list[PEdge] = []
    for c, m in parts:
        if c.p != p:
            raise ValueError("mixed primes")
        append_shifted(towers, edges, c, m)
    return Chart(p, towers, edges)


def empty_chart(p: int) -> Chart:
    return Chart(p, [], [])


# -- realized windows ---------------------------------------------------------


class RealizedWindow:
    """A degree-window slice of a chart, exposing explicit groups and the
    rank invariants of the maps x -> p^a v^b x."""

    def __init__(self, chart: Chart, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty window")
        self.chart = chart
        self.lo = lo
        self.hi = hi
        self._order_cache: dict[tuple, int] = {}
        self._groups: dict[int, list[int]] = {}

    def _check(self, n: int) -> None:
        if not (self.lo <= n <= self.hi):
            raise ValueError(f"degree {n} outside window [{self.lo}, {self.hi}]")

    def group_at(self, n: int) -> list[int]:
        self._check(n)
        return self.chart.group_at(n)

    # -- rank invariant -------------------------------------------------------
    def rank_invariant(self, n: int, a: int, b: int) -> int:
        """log_p of the order of the image of p^a v^b from degree n to
        degree n - 2(p-1)b of the realized module."""
        c = self.chart
        tgt_n = n - 2 * (c.p - 1) * b
        self._check(n)
        self._check(tgt_n)
        key = (n, a, b)
        if key in self._order_cache:
            return self._order_cache[key]
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
            val = 0
        else:
            rel = c.relation_rows(tgt_dots)
            quot = cokernel_exponents(rel + images, len(tgt_dots), c.p)
            val = sum(group) - sum(quot)
        self._order_cache[key] = val
        return val
