"""Closed-form construction of the answer charts.

Core charts (level by level):

    B_k  built from  z_{k-1}^{p-1} B_{k-1},  TP_{p^k-k}[v] z_k,  y_{k-1}^{p-1} B_{k-1}
    A_k  built from  z_{k-1}^{p-1} B_{k-1},  TP_{p^k}[v]   z_k,  y_{k-1}^{p-1} A_{k-1}

with B_{k0-1} = 0 (k0 = 2 at p = 2, else 1) and A_0 = <z_0>, glued by

    rule1 (k >= 2):  p . v^a z_k      = v^(a+1) (z_{k-1}^p ...)   [h0 edges]
    rule2 (k >= 1):  p . (y-copy top) = v^(p^(k-1)(p-1)) z_k      [exotic]

rule2 targets are appended to whatever edge the y-copy's top tower already
inherited, which is how the two-target extensions arise.  The cores are
glued in one upward walk with no memo: a generator glues B_k from B_{k-1},
and the A walk glues A_k from B_{k-1} and A_{k-1} on top of it, so build_A,
build_B and even_part each glue from the bottom only the levels they read.
S_{k,l} is the finite chain chart of composite classes z[i,l].

even_part / odd_part assemble the full even- and odd-degree answer as a
direct sum of monomial multiples of the cores, now built in one pass from
(core, multiplier) pairs with no chart per summand (full_chart sums both
pair lists at once); ku_group_at slices it into explicit groups.
assoc_graded_dims is an independent associated-graded dimension count: its
three lines are chart.FamilyRow tables, counted by the counter k1.k1_dims
uses and walked while their rows reach the window; acceptance check 13 and
tests/test_modules.py compare it with the assembled chart, and no audit
or CLI command reaches it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import count, islice
from typing import Iterator, NamedTuple

from .chart import (
    Chart,
    FamilyRow,
    PEdge,
    Tower,
    append_shifted,
    count_family_dots,
    direct_sum,
    row_reach,
    walk_family,
)
from .linalg import cokernel_exponents
from .monomial import (
    Monomial,
    bounded_exponents,
    enumerate_family,
    k0,
    lambda_factors,
    q_degree,
    y_degree,
    z_comp,
    z_degree,
)
from .padic import nu
from .series import report


class CoreChart(NamedTuple):
    """A chart together with its handle: the position of the level-k z-tower
    that glue edges attach to (None for an empty chart)."""

    chart: Chart
    handle: int | None


def _glue(
    p: int, k: int, zsub: CoreChart, new_height: int, ysub: CoreChart
) -> CoreChart:
    """One core step: [z_{k-1}^(p-1) . zsub] + new z_k tower +
    [y_{k-1}^(p-1) . ysub] with rule1/rule2 edges (an empty core adds
    nothing)."""
    towers: list[Tower] = []
    edges: list[PEdge] = []
    append_shifted(towers, edges, zsub.chart, Monomial.gen(p, "z", k - 1, p - 1))
    new_id = len(towers)
    towers.append(Tower(Monomial.gen(p, "z", k), new_height))
    yoffset = len(towers)
    append_shifted(towers, edges, ysub.chart, Monomial.gen(p, "y", k - 1, p - 1))
    edge_by_src = {e.src: e for e in edges}

    # rule1: p . v^a z_k = v^(a+1) on the z-copy's handle tower (a z-copy
    # B_{k-1} is nonempty only for k - 1 >= k0, so k >= 2)
    if zsub.handle is not None:
        handle_id = zsub.handle
        handle_h = towers[handle_id].height
        for a in range(new_height):
            if a + 1 >= handle_h:
                break
            edge_by_src[(new_id, a)] = PEdge((new_id, a), ((handle_id, a + 1),), "h0")

    # rule2: p . (y-copy handle dot a) gains target v^(p^(k-1)(p-1)+a) z_k
    if ysub.handle is not None:
        yh_id = yoffset + ysub.handle
        yh_height = towers[yh_id].height
        shift = p ** (k - 1) * (p - 1)
        for a in range(yh_height):
            tgt_a = shift + a
            if tgt_a >= new_height:
                continue
            src = (yh_id, a)
            old = edge_by_src.get(src)
            dst = (old.dst if old else ()) + ((new_id, tgt_a),)
            edge_by_src[src] = PEdge(src, dst, "exotic")

    edges = sorted(edge_by_src.values(), key=lambda e: e.src)
    return CoreChart(Chart(p, towers, edges), new_id)


def _b_walk(p: int) -> Iterator[CoreChart]:
    """B_{-1}, B_0, B_1, ...: empty below k0, then each glued from the one
    before.  A level is glued only when the walk is asked for it."""
    b = CoreChart(Chart(p), None)
    for k in count():
        yield b
        if k >= k0(p):
            b = _glue(p, k, b, p**k - k, b)


def _a_walk(p: int) -> Iterator[tuple[CoreChart, CoreChart]]:
    """(B_{k-1}, A_k) for k = 0, 1, 2, ...: A_0 = <z_0>, then A_k glued
    from B_{k-1} and A_{k-1} on top of the B walk, which is never asked for
    the B_k that A_k does not read."""
    a = CoreChart(Chart(p, [Tower(Monomial.gen(p, "z", 0), 1)]), 0)
    for k, b in enumerate(_b_walk(p)):
        if k:
            a = _glue(p, k, b, p**k, a)
        yield b, a


def build_B(p: int, k: int) -> Chart:
    """The chart B_k (empty for k < k0; B_2 at p=2 is a single height-2
    tower on z_2)."""
    if k < k0(p) - 1:
        raise ValueError(f"B_k defined for k >= {k0(p) - 1}")
    return next(islice(_b_walk(p), k + 1, None)).chart


def build_A(p: int, k: int) -> Chart:
    """The chart A_k (A_0 is the single dot z_0)."""
    if k < 0:
        raise ValueError("A_k needs k >= 0")
    return next(islice(_a_walk(p), k, None))[1].chart


def build_S(p: int, k: int, ell: int) -> Chart:
    """S_{k,l}: towers of height k+1 on the composite classes z[i,l] for
    k0 <= i <= l-k-1+k0, chained by p . z[i,l] = v z[i-1,l], with the
    bottom class z[k0,l] satisfying p . z[k0,l] = 0."""
    if not (1 <= k < ell):
        raise ValueError("build_S needs 1 <= k < ell")
    lo = k0(p)
    hi = ell - k - 1 + lo
    towers = [Tower(z_comp(p, i, ell), k + 1) for i in range(lo, hi + 1)]
    edges = []
    for t, i in enumerate(range(lo, hi + 1)):
        if i == lo:
            continue
        for a in range(k + 1):
            if a + 1 < k + 1:
                edges.append(PEdge((t, a), ((t - 1, a + 1),), "h0"))
    return Chart(p, towers, edges)


# -- assemblies ----------------------------------------------------------------


def _multiples(
    p: int, core: Chart, family: str, k: int, cutoff: int
) -> list[tuple[Chart, Monomial]]:
    """The (core, M) summands with M in the family whose lowest dot is <=
    cutoff (none for an empty core)."""
    low = core.min_dot_degree()
    if low is None or low > cutoff:
        return []
    return [(core, m) for m in enumerate_family(p, family, k, cutoff - low)]


def _even_parts(p: int, cutoff: int) -> list[tuple[Chart, Monomial]]:
    """The (core, multiplier) summands of even_part, in chart order: A_1,
    B_1, A_2, B_2, ... while A_k reaches the cutoff."""
    parts: list[tuple[Chart, Monomial]] = []
    for k, (b, a) in islice(enumerate(_a_walk(p)), 1, None):
        parts += _multiples(p, b.chart, "MkB", k - 1, cutoff)  # B_{k-1} follows A_{k-1}
        if a.chart.min_dot_degree() > cutoff:
            return parts
        parts += _multiples(p, a.chart, "MkA", k, cutoff)


def _odd_parts(p: int, cutoff: int) -> list[tuple[Chart, Monomial]]:
    """The (core, multiplier) summands of odd_part, in chart order."""
    parts: list[tuple[Chart, Monomial]] = []
    cores: dict[tuple[int, int], Chart] = {}  # S_{k,l} recurs across i
    qd = q_degree(p)
    i = 1
    while qd + y_degree(p, 1) * (i - 1) <= cutoff:
        v = nu(p, i)
        k = v + 1
        ell = v + 2
        base = Monomial.gen(p, "q") * Monomial.gen(p, "y", 1, i - 1)
        while True:
            if (k, ell) not in cores:
                cores[k, ell] = build_S(p, k, ell)
            s_core = cores[k, ell]
            s_min = s_core.min_dot_degree()
            head = base.degree + s_min
            if head > cutoff:
                break
            room = cutoff - head
            # m runs over TP_{p-1}[z_l] (x) Lambda_{l+1}: position t is z_{l+t}
            factors = [(z_degree(p, ell), p - 2)] + lambda_factors(p, ell + 1, room)
            for pairs, _ in bounded_exponents(factors, room):
                m = Monomial(p, zs=tuple((ell + t, x) for t, x in pairs))
                parts.append((s_core, base * m))
            ell += 1
        i += 1
    return parts


def even_part(p: int, cutoff: int) -> Chart:
    """Direct sum over k >= 1 and multiplier monomials M of M.A_k (M with no
    z-factors) and M.B_k (M with z-factors), keeping summands whose minimum
    dot degree is <= cutoff."""
    return direct_sum(p, _even_parts(p, cutoff))


def odd_part(p: int, cutoff: int) -> Chart:
    """Direct sum over i >= 1, l >= nu(i)+2 of q y_1^(i-1) m . S_{nu(i)+1, l}
    with m running over TP_{p-1}[z_l] x Lambda_{l+1}, keeping summands whose
    minimum dot degree is <= cutoff."""
    return direct_sum(p, _odd_parts(p, cutoff))


def _round_up(n: int, step: int = 50) -> int:
    return max(step, ((n + step - 1) // step) * step)


@lru_cache(maxsize=None)
def full_chart(p: int, cutoff: int) -> Chart:
    """even_part followed by odd_part, assembled as one direct sum."""
    return direct_sum(p, _even_parts(p, cutoff) + _odd_parts(p, cutoff))


def ku_group_at(p: int, n: int, cutoff: int | None = None) -> list[int]:
    """Exponents of ku^n as a finite abelian p-group (trivial/free summand
    excluded; see the Margolis oracle for its per-degree count).  Any cutoff
    >= n gives the same answer: summands built later have no dots this low."""
    if n < 0:
        return []
    d = cutoff if cutoff is not None else _round_up(n)
    if d < n:
        raise ValueError("cutoff below requested degree")
    return full_chart(p, d).group_at(n)


# -- associated-graded cross-check ----------------------------------------------


def assoc_graded_dims(p: int, n_max: int) -> tuple[int, ...]:
    """Dot counts per degree 0..n_max of the three associated-graded lines:

      (line 1)  P[y_1] y_0^{p-1} z_0  and  TP_{p^t}[v] P[y_t] z_t   (t >= 1)
      (line 2)  TP_{p^t-t}[v] P[y_t] z_t LambdaBar_t               (t >= k0)
      (line 3)  TP_{nu(i)+2}[v] q y_1^{i-1} z[k0+l, l+nu(i)+2] Lambda_{l+nu(i)+2}
                                                                    (i >= 1, l >= 0)

    as FamilyRow tables walked while they reach the window.  LambdaBar_t is
    a Lambda_t row plus a sign -1 unit row.  Line 3 is walked by v = nu(i),
    as its reach is not monotone in i: i = p^v (c + p m), 1 <= c <= p-1, so
    q y_1^{i-1} = q y_1^{p^v c - 1} (y_1^{p^(v+1)})^m, of degree |y_{v+2}| m more."""
    y, z = partial(y_degree, p), partial(z_degree, p)
    walk = partial(walk_family, reach=partial(row_reach, p), n_max=n_max)

    def line2(t: int) -> list[FamilyRow]:
        row = FamilyRow(z(t), p**t - t, [(y(t), None)], t)
        return [row, row._replace(lam=None, sign=-1)]

    def line3(v: int) -> list[FamilyRow]:
        def at_l(ell: int) -> list[FamilyRow]:
            base = q_degree(p) - y(1) + z_comp(p, k0(p) + ell, ell + v + 2).degree
            row = FamilyRow(base, v + 2, [(y(v + 2), None)], ell + v + 2)
            return [row._replace(base=base + c * y(v + 1)) for c in range(1, p)]

        return list(walk(at_l, start=0))

    rows = [FamilyRow(2 * (p - 1) + z(0), 1, [(y(1), None)])]
    rows += walk(lambda t: [FamilyRow(z(t), p**t, [(y(t), None)])], start=1)
    rows += walk(line2, start=k0(p))
    rows += walk(line3, start=0)
    return count_family_dots(p, rows, n_max)


# -- self-duality of the B_k ------------------------------------------------------


def _image_orders(
    c: Chart, reach: dict[int, int], groups: dict, n: int, b: int, a_max: int
) -> list[int]:
    """[log_p |im(p^a v^b : C^n -> C^{n-2(p-1)b})| for a = 0..a_max].

    Zero with no work when b > reach(n); past the first zero, and from
    a = max(target group) on, every value is zero.  Where v^b maps onto
    every target dot the image of p^a v^b is p^a times the target group,
    of order sum max(e_i - a, 0); elsewhere each value takes one
    elimination.  groups memoises the target groups by degree."""
    out = [0] * (a_max + 1)
    if reach.get(n, -1) < b:
        return out
    p, index = c.p, c.degree_index()
    tgt_n = n - 2 * (p - 1) * b
    tgt = index[tgt_n]
    if tgt_n not in groups:
        groups[tgt_n] = c.group_at(tgt_n)
    group = groups[tgt_n]
    hit = [(t, alpha + b) for t, alpha in index[n] if alpha + b < c.towers[t].height]
    a_stop = min(max(group), a_max + 1)
    if len(hit) == len(tgt):  # v^b is onto: the image is p^a . group
        out[:a_stop] = (sum(e - a for e in group if e > a) for a in range(a_stop))
        return out
    pos = {d: i for i, d in enumerate(tgt)}
    rel = c.relation_rows(tgt)
    for a in range(a_stop):
        images = [{pos[d]: p**a} for d in hit]
        out[a] = sum(group) - sum(cokernel_exponents(rel + images, len(tgt), p))
        if not out[a]:
            break
    return out


def duality_audit(p: int, k_max: int = 4) -> dict:
    """Check the self-duality of each B_k through its rank invariants.

    The Pontryagin dual of B_k is a regraded copy of B_k itself: negating
    degrees and suspending by sigma = 2(p^{k+1} + p^k + (k+1)p - k + 1)
    carries one onto the other.  Taking orders of images of p^a v^b on both
    sides turns this into a palindrome identity on the primal module,

        rank(n, a, b) = rank(sigma - n + 2(p-1)b, a, b),

    where rank(n, a, b) = log_p |im(p^a v^b : B_k^n -> B_k^{n-2(p-1)b})|.
    (Dualizing transposes the action, so the image orders of p^a v^b out of
    the dual's degree n match those into the primal's degree -n; regrading
    by n -> sigma - n turns that matching into the reflection above.)

    Checked for k0 <= k <= k_max over every degree n of the support band
    [lo, hi], with 0 <= a <= k+2 and 0 <= b <= p^k; `checked` counts the
    (n, a, b) with a dot in degree n or in its mirror m.  Each B_k is one
    walk over b off the chart's degree index.  A side is zero when b
    exceeds reach(n), the largest height(t) - alpha - 1 over the dots
    (t, alpha) in degree n, so for each b only the pairs {n, m} with a side
    in reach are computed, each once, as a vector over a; the pairs with
    both sides zero are counted, not visited.  A mismatch is listed at each
    end that lies in [lo, hi], in (n, b, a) order.  Target groups are kept
    for one k only.  Raises ValueError when k_max < k0, which would check
    nothing.  (chart.RealizedWindow.rank_invariant is the per-call
    reference the tests compare this walk with.)
    """
    if k_max < k0(p):
        raise ValueError(f"duality needs k_max >= {k0(p)} at p = {p}")
    step = 2 * (p - 1)
    rows = []
    for k in range(k0(p), k_max + 1):
        c = build_B(p, k)
        sigma = 2 * (p ** (k + 1) + p**k + (k + 1) * p - k + 1)
        lo, hi = c.min_dot_degree(), c.max_dot_degree()
        a_max, b_max = k + 2, p**k
        index = c.degree_index()
        reach = {
            n: max(c.towers[t].height - alpha for t, alpha in dots) - 1
            for n, dots in index.items()
        }
        groups: dict[int, list[int]] = {}
        # bit n - lo of dotted, and bit hi - n of mirror, for each dotted n
        bits = "".join("1" if n in index else "0" for n in range(lo, hi + 1))
        dotted, mirror, band = int(bits[::-1], 2), int(bits, 2), (1 << len(bits)) - 1
        live = sorted(reach, key=reach.get, reverse=True)  # popped past their reach
        checked = 0
        mismatches = []
        for b in range(b_max + 1):
            s = sigma + step * b  # n and m = s - n are mirrors
            shift = s - lo - hi  # mirror << shift has bit n - lo where s - n is dotted
            near = mirror << shift if shift >= 0 else mirror >> -shift
            checked += (a_max + 1) * ((dotted | near) & band).bit_count()
            while live and reach[live[-1]] < b:
                live.pop()
            for n in {min(n, s - n) for n in live}:
                lhs = _image_orders(c, reach, groups, n, b, a_max)
                rhs = _image_orders(c, reach, groups, s - n, b, a_max)
                if lhs == rhs:
                    continue
                for x, left, right in ((n, lhs, rhs), (s - n, rhs, lhs)):
                    if lo <= x <= hi:
                        mismatches += (
                            {"n": x, "a": a, "b": b, "lhs": u, "rhs": v}
                            for a, (u, v) in enumerate(zip(left, right))
                            if u != v
                        )
        mismatches.sort(key=lambda e: (e["n"], e["b"], e["a"]))
        rows.append(
            {
                "k": k,
                "sigma": sigma,
                "support": [lo, hi],
                "checked": checked,
                "mismatches": mismatches,
                "pass": not mismatches,
            }
        )
    return report({"p": p, "k_max": k_max}, rows)
