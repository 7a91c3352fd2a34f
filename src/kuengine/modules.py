"""Closed-form construction of the answer charts.

Core charts (recursive):

    B_k  built from  z_{k-1}^{p-1} B_{k-1},  TP_{p^k-k}[v] z_k,  y_{k-1}^{p-1} B_{k-1}
    A_k  built from  z_{k-1}^{p-1} B_{k-1},  TP_{p^k}[v]   z_k,  y_{k-1}^{p-1} A_{k-1}

with B_{k0-1} = 0 (k0 = 2 at p = 2, else 1) and A_0 = <z_0>, glued by

    rule1 (k >= 2):  p . v^a z_k      = v^(a+1) (z_{k-1}^p ...)   [h0 edges]
    rule2 (k >= 1):  p . (y-copy top) = v^(p^(k-1)(p-1)) z_k      [exotic]

rule2 targets are appended to whatever edge the y-copy's top tower already
inherited, which is how the two-target extensions arise.  S_{k,l} is the
finite chain chart of composite classes z[i,l].

even_part / odd_part assemble the full even- and odd-degree answer as a
direct sum of monomial multiples of the cores, now built in one pass from
(core, multiplier) pairs with no chart per summand (full_chart sums both
pair lists at once); ku_group_at slices it into explicit groups.
assoc_graded_dims is an independent associated-graded dimension count,
by the tower counter k1.k1_dims uses; acceptance check 13 and
tests/test_modules.py compare it with the assembled chart, and no audit
or CLI command reaches it.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .chart import (
    Chart,
    PEdge,
    RealizedWindow,
    Tower,
    append_shifted,
    count_family_dots,
    direct_sum,
)
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


class CoreChart:
    """A chart together with its handle: the id of the level-k z-tower that
    glue edges attach to (None for an empty chart)."""

    def __init__(self, chart: Chart, handle: int | None):
        self.chart = chart
        self.handle = handle


def _glue(
    p: int,
    k: int,
    zsub: CoreChart | None,
    new_height: int,
    ysub: CoreChart | None,
) -> CoreChart:
    """Shared assembly for build_A/build_B: [z_{k-1}^(p-1) . zsub] + new z_k
    tower + [y_{k-1}^(p-1) . ysub] with rule1/rule2 edges."""
    towers: list[Tower] = []
    edges: list[PEdge] = []
    if zsub is not None:
        append_shifted(towers, edges, zsub.chart, Monomial.gen(p, "z", k - 1, p - 1))
    new_id = len(towers)
    towers.append(Tower(Monomial.gen(p, "z", k), new_height))
    yoffset = len(towers)
    if ysub is not None:
        append_shifted(towers, edges, ysub.chart, Monomial.gen(p, "y", k - 1, p - 1))
    edge_by_src = {e.src: e for e in edges}

    # rule1: p . v^a z_k = v^(a+1) on the z-copy's handle tower (k >= 2)
    if zsub is not None and zsub.handle is not None and k >= 2:
        handle_id = zsub.handle
        handle_h = towers[handle_id].height
        for a in range(new_height):
            if a + 1 >= handle_h:
                break
            edge_by_src[(new_id, a)] = PEdge((new_id, a), ((handle_id, a + 1),), "h0")

    # rule2: p . (y-copy handle dot a) gains target v^(p^(k-1)(p-1)+a) z_k
    if ysub is not None and ysub.handle is not None:
        yh_id = yoffset + ysub.handle
        yh_height = towers[yh_id].height
        shift = p ** (k - 1) * (p - 1)
        for a in range(yh_height):
            tgt_a = shift + a
            if tgt_a >= new_height:
                continue
            src = (yh_id, a)
            old = edge_by_src.get(src)
            if old is None:
                edge_by_src[src] = PEdge(src, ((new_id, tgt_a),), "exotic")
            else:
                edge_by_src[src] = PEdge(
                    src, old.dst + ((new_id, tgt_a),), "exotic"
                )

    edges = sorted(edge_by_src.values(), key=lambda e: e.src)
    return CoreChart(Chart(p, towers, edges), new_id)


@lru_cache(maxsize=None)
def _build_B(p: int, k: int) -> CoreChart:
    if k < k0(p):
        return CoreChart(Chart(p), None)
    sub = _build_B(p, k - 1)
    sub = sub if sub.handle is not None else None
    return _glue(p, k, sub, p**k - k, sub)


@lru_cache(maxsize=None)
def _build_A(p: int, k: int) -> CoreChart:
    if k < 0:
        raise ValueError("A_k needs k >= 0")
    if k == 0:
        c = Chart(p, [Tower(Monomial.gen(p, "z", 0), 1)])
        return CoreChart(c, 0)
    subB = _build_B(p, k - 1)
    zsub = subB if subB.handle is not None else None
    return _glue(p, k, zsub, p**k, _build_A(p, k - 1))


def build_B(p: int, k: int) -> Chart:
    """The chart B_k (empty for k < k0; B_2 at p=2 is a single height-2
    tower on z_2)."""
    if k < k0(p) - 1:
        raise ValueError(f"B_k defined for k >= {k0(p) - 1}")
    return _build_B(p, k).chart

def build_A(p: int, k: int) -> Chart:
    """The chart A_k (A_0 is the single dot z_0)."""
    return _build_A(p, k).chart


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


def _even_parts(p: int, cutoff: int) -> list[tuple[Chart, Monomial]]:
    """The (core, multiplier) summands of even_part, in chart order."""
    parts: list[tuple[Chart, Monomial]] = []
    k = 1
    while True:
        core_a = _build_A(p, k).chart
        min_a = core_a.min_dot_degree()
        if min_a is None or min_a > cutoff:
            break
        parts += [(core_a, m) for m in enumerate_family(p, "MkA", k, cutoff - min_a)]
        core_b = _build_B(p, k).chart
        min_b = core_b.min_dot_degree()
        if min_b is not None and min_b <= cutoff:
            parts += [
                (core_b, m) for m in enumerate_family(p, "MkB", k, cutoff - min_b)
            ]
        k += 1
    return parts


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
        while True:
            if (k, ell) not in cores:
                cores[k, ell] = build_S(p, k, ell)
            s_core = cores[k, ell]
            s_min = s_core.min_dot_degree()
            base = Monomial.gen(p, "q") * Monomial.gen(p, "y", 1, i - 1)
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


def _assemble(p: int, parts: list[tuple[Chart, Monomial]]) -> Chart:
    return direct_sum(parts) if parts else Chart(p)


def even_part(p: int, cutoff: int) -> Chart:
    """Direct sum over k >= 1 and multiplier monomials M of M.A_k (M with no
    z-factors) and M.B_k (M with z-factors), keeping summands whose minimum
    dot degree is <= cutoff."""
    return _assemble(p, _even_parts(p, cutoff))


def odd_part(p: int, cutoff: int) -> Chart:
    """Direct sum over i >= 1, l >= nu(i)+2 of q y_1^(i-1) m . S_{nu(i)+1, l}
    with m running over TP_{p-1}[z_l] x Lambda_{l+1}, keeping summands whose
    minimum dot degree is <= cutoff."""
    return _assemble(p, _odd_parts(p, cutoff))


def _round_up(n: int, step: int = 50) -> int:
    return max(step, ((n + step - 1) // step) * step)


@lru_cache(maxsize=None)
def full_chart(p: int, cutoff: int) -> Chart:
    """even_part followed by odd_part, assembled as one direct sum."""
    return _assemble(p, _even_parts(p, cutoff) + _odd_parts(p, cutoff))


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

    counted by the same tower counter as k1.k1_dims; LambdaBar_t is
    Lambda_t without its unit."""
    w = 2 * (p - 1)
    dims = [0] * (n_max + 1)
    add = partial(count_family_dots, dims, p)  # (base, height, factors, lam, sign)
    # line 1
    add(2 * (p - 1) + z_degree(p, 0), 1, [(y_degree(p, 1), None)])
    t = 1
    while z_degree(p, t) - w * (p**t - 1) <= n_max:
        add(z_degree(p, t), p**t, [(y_degree(p, t), None)])
        t += 1
    # line 2
    t = k0(p)
    while 2 * z_degree(p, t) - w * (p**t - t - 1) <= n_max:
        add(z_degree(p, t), p**t - t, [(y_degree(p, t), None)], t)
        add(z_degree(p, t), p**t - t, [(y_degree(p, t), None)], None, -1)
        t += 1
    # line 3
    i = 1
    while q_degree(p) + y_degree(p, 1) * (i - 1) <= n_max:
        h = nu(p, i) + 2
        ell = 0
        while True:
            comp = z_comp(p, k0(p) + ell, ell + h)
            base = q_degree(p) + y_degree(p, 1) * (i - 1) + comp.degree
            if base - w * (h - 1) > n_max:
                break
            add(base, h, [], ell + h)
            ell += 1
        i += 1
    return tuple(dims)


# -- self-duality of the B_k ------------------------------------------------------


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

    Checked for k0 <= k <= k_max over every degree in the support band,
    with 0 <= a <= k+2 and 0 <= b <= p^k.  Raises ValueError when
    k_max < k0, which would check nothing.
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
        pad = step * b_max
        win = RealizedWindow(
            c, min(lo, sigma - hi - pad) - pad, max(hi, sigma - lo + pad) + pad
        )
        dims = {n: c.dims_at(n) for n in range(win.lo, win.hi + 1)}
        checked = 0
        mismatches = []
        for n in range(lo, hi + 1):
            for b in range(b_max + 1):
                m = sigma - n + step * b
                if not (dims.get(n, 0) or dims.get(m, 0)):
                    continue
                for a in range(a_max + 1):
                    lhs = win.rank_invariant(n, a, b)
                    rhs = win.rank_invariant(m, a, b)
                    checked += 1
                    if lhs != rhs:
                        mismatches.append(
                            {"n": n, "a": a, "b": b, "lhs": lhs, "rhs": rhs}
                        )
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
    failures = [row for row in rows if not row["pass"]]
    return {
        "p": p,
        "k_max": k_max,
        "checked": sum(row["checked"] for row in rows),
        "rows": rows,
        "failures": failures,
        "ok": not failures,
    }
