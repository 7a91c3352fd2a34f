"""Adams spectral sequence engine for ku^*(K(Z/p, 2)): closed-form E2 page,
the four differential families, replay to E-infinity, and the source/target
matching audit.

Conventions (cohomological, shared with chart.py):
  * bidegrees are (codegree n, filtration s); a v-tower with base (n0, s0)
    has dots (n0 - 2(p-1)a, s0 + a) for a >= 0 (below its height);
  * d_r moves (n, s) -> (n+1, s+r);
  * the page is reduced: the unit's P[h0, v] corner is omitted.

The E2 page is a direct sum of v-towers in three families; every basis
element lies in exactly one tower:

  MAIN  ("main", b, eps, i1, j2, e, lam)
        q^eps y1^b Z with Z = z_comp(i1, j2) z_{j2}^e lam in canonical
        form (lam supported above j2, exponents <= p-1, e <= p-2);
        base (2p b + eps |q| + |Z|, 0), v-free.
  H0    ("h0", c, b, eps), (b, eps) != (0, 0)
        the coset h0^c (v^k0 q)^eps y1^b P[v];
        base (2p b + eps (|q| - 2(p-1) k0), c + k0 eps), v-free.
  SP    ("sp", kind, b): bounded permanent cycles.
        p = 2: y1^b y0 z0 (height 1) and y1^b z1 (height 2, with
        v.(y1^b z1) = h0.(y1^b y0 z0) counted once, on the z1 tower);
        p odd: y1^b y0^(p-1) z0 (height 1).

Keys are plain integers.  Base bidegrees, fates and partner keys are key
arithmetic, with z-parts as {index: exponent} dicts and |z_comp(i, j)| =
2(p^(j+1) + 1 + (p-1)(j-i)); labels are spelled from the key by
monomial.render_exponents, the spelling of Monomial.render.  No Monomial is
built here.

Differentials come in four closed families (nu = nu(p, -), t >= k0, target
truncation height e0 listed last):

  F1  r = nu(b)+2    y1^b  ->  h0^(nu(b)+odd) v^k0 q y1^(b-1)          e0 = 0
  F2  r = nu(b)+2    y1^b Z (i1 >= nu(b)+2)
                           ->  v^r q y1^(b-1) (Z/z_i1) z_comp(i1-nu(b)-odd, i1)
                                                                       e0 = r
  F3  r = p^t - t    h0^(t-k0) v^k0 q y1^b (p^(t-1) | b+1)
                           ->  v^(p^t) y1^(b+1-p^(t-1)) z_t            e0 = p^t
  F4  r = p^t - t    q y1^b Z (t = j2-i1+k0, p^(t-1) | b+1)
                           ->  v^r y1^(b+1-p^(t-1)) z_t z_j2 (Z/z_comp(i1,j2))
                                                                       e0 = r

(odd = 0 at p = 2 and 1 at odd primes.)  Sources die entirely; targets
survive truncated to e0 dots; every H0 tower is an F1 source, an F1 target,
or an F3 source, so E-infinity consists of the truncated MAIN targets and
the SP towers.  The truncation heights reproduce the v-heights of the
ku-chart towers (p^t for bare z_t monomials, p^t - t for composite-led
monomials, nu(b)+2 for the q-towers), which is what einfty_audit checks
degree by degree against the chart built by modules.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .chart import tower_dots, v_label
from .modules import full_chart
from .monomial import (
    bounded_exponents,
    k0,
    lambda_factors,
    q_degree,
    render_exponents,
    z_comp_exponents,
    z_decompose_dict,
    z_degree,
)
from .padic import nu

Key = tuple


class WindowError(RuntimeError):
    """A basis element needed by the replay is missing from the window."""


@dataclass(frozen=True)
class ETower:
    key: Key
    n0: int  # base codegree (the a = 0 dot)
    s0: int  # base filtration
    height: int | None  # E2 height (None = v-free)
    label: str


@dataclass(frozen=True)
class Fate:
    role: str  # "source" | "target" | "survives"
    family: str | None  # "F1" .. "F4"
    r: int | None
    e0: int | None  # dots left on the target after the hit
    partner: Key | None


# -- key arithmetic -------------------------------------------------------------


def _z_of(p: int, key: Key) -> dict[int, int]:
    """The z-part z_comp(i1, j2) z_j2^e lam of a MAIN key, ascending."""
    _, _, _, i1, j2, e, lam = key
    z = z_comp_exponents(p, i1, j2)
    if e:
        z[j2] = z.get(j2, 0) + e
    z.update(lam)
    return z


def _swap(z: dict[int, int], out, into) -> dict[int, int]:
    """z / out * into for (index, exponent) pairs; the division must be exact."""
    res = dict(z)
    for j, x in out:
        if res.get(j, 0) < x:
            raise ValueError(f"z-part {dict(out)} does not divide {z}")
        res[j] -= x
    for j, x in into:
        res[j] = res.get(j, 0) + x
    return {j: x for j, x in res.items() if x}


def _key(p: int, b: int, eps: int, z: dict[int, int]) -> Key:
    return ("main", b, eps, *z_decompose_dict(p, z))


def dot_label(p: int, key: Key, a: int) -> str:
    """Display name of the dot v^a . (tower generator), v-powers merged."""
    if key[0] == "h0":
        _, c, b, eps = key
        v = k0(p) * eps + a
        parts = []
        if c:
            parts.append("h0" if c == 1 else f"h0^{c}")
        if v:
            parts.append("v" if v == 1 else f"v^{v}")
        if eps:
            parts.append("q")
        if b:
            parts.append("y1" if b == 1 else f"y1^{b}")
        return " ".join(parts)
    return v_label(tower(p, key).label, a)


@lru_cache(maxsize=None)
def tower(p: int, key: Key) -> ETower:
    """Base bidegree, height and display label of a tower key."""
    kk = k0(p)
    if key[0] == "main":
        _, b, eps, *_ = key
        zs = tuple(_z_of(p, key).items())
        n0 = eps * q_degree(p) + 2 * p * b + sum(x * z_degree(p, j) for j, x in zs)
        ys = ((1, b),) if b else ()
        return ETower(key, n0, 0, None, render_exponents(p, eps, ys, zs))
    if key[0] == "h0":
        _, c, b, eps = key
        if (b, eps) == (0, 0) or c < 0:
            raise ValueError(f"bad h0 key {key}")
        n0 = 2 * p * b + eps * (q_degree(p) - 2 * (p - 1) * kk)
        return ETower(key, n0, c + kk * eps, None, dot_label(p, key, 0))
    if key[0] == "sp":
        _, kind, b = key
        if p == 2 and kind == "x8":
            y0, zj, height = 1, 0, 1
        elif p == 2 and kind == "x10":
            y0, zj, height = 0, 1, 2
        elif p > 2 and kind == "yz":
            y0, zj, height = p - 1, 0, 1
        else:
            raise ValueError(f"bad sp key {key}")
        n0 = 2 * y0 + 2 * p * b + z_degree(p, zj)
        ys = tuple((i, x) for i, x in ((0, y0), (1, b)) if x)
        return ETower(key, n0, 0, height, render_exponents(p, 0, ys, ((zj, 1),)))
    raise ValueError(f"unknown tower family {key!r}")


# -- intrinsic fate of a tower ------------------------------------------------


@lru_cache(maxsize=None)
def classify(p: int, key: Key) -> Fate:
    """Which differential family a tower belongs to, with its partner key.

    The fate is a function of the tower's own coordinates; classify(partner)
    always inverts to the tower itself (matching_audit checks this), so the
    differential pairing is a perfect matching on MAIN + H0 and the SP
    towers are permanent cycles.
    """
    kk = k0(p)
    odd = 0 if p == 2 else 1
    if key[0] == "sp":
        return Fate("survives", None, None, None, None)

    if key[0] == "h0":
        _, c, b, eps = key
        if eps == 0:
            d = nu(p, b)
            return Fate("source", "F1", d + 2, 0, ("h0", c + d + odd, b - 1, 1))
        thr = nu(p, b + 1) + odd
        if c >= thr:
            return Fate("target", "F1", nu(p, b + 1) + 2, 0, ("h0", c - thr, b + 1, 0))
        t = c + kk
        bare = ("main", b + 1 - p ** (t - 1), 0, t, t, 0, ())  # y1^(b+1-p^(t-1)) z_t
        return Fate("source", "F3", p**t - t, p**t, bare)

    _, b, eps, i1, j2, e, lam = key
    z = _z_of(p, key)
    if eps == 0:
        if b >= 1 and i1 >= nu(p, b) + 2:
            d = nu(p, b)
            zt = _swap(z, ((i1, 1),), z_comp_exponents(p, i1 - d - odd, i1).items())
            return Fate("source", "F2", d + 2, d + 2, _key(p, b - 1, 1, zt))
        # not an F2 source forces nu(b) >= i1 - 1, i.e. y1^b in P[y_t]
        t = i1
        if i1 == j2 and e == 0 and not lam:
            return Fate(
                "target", "F3", p**t - t, p**t, ("h0", t - kk, b + p ** (t - 1) - 1, 1)
            )
        j = t if (j2 > i1 or e >= 1) else lam[0][0]
        zs = _swap(z, ((t, 1), (j, 1)), z_comp_exponents(p, j - t + kk, j).items())
        r = p**t - t
        return Fate("target", "F4", r, r, _key(p, b + p ** (t - 1) - 1, 1, zs))

    t = j2 - i1 + kk
    if nu(p, b + 1) >= t - 1:
        zt = _swap(z, z_comp_exponents(p, i1, j2).items(), ((t, 1), (j2, 1)))
        r = p**t - t
        return Fate("source", "F4", r, r, _key(p, b + 1 - p ** (t - 1), 0, zt))
    d = nu(p, b + 1)
    isrc = i1 + d + odd
    zs = _swap(z, z_comp_exponents(p, i1, isrc).items(), ((isrc, 1),))
    return Fate("target", "F2", d + 2, d + 2, _key(p, b + 1, 0, zs))


# -- E2 window ----------------------------------------------------------------


def _z_runs(p: int, budget: int) -> list[tuple[int, int, int, tuple, int]]:
    """Canonical MAIN z-parts (i1, j2, e, lam, degree) up to the budget:
    z_comp(i1, j2) times one walk over TP_{p-1}[z_j2] (x) Lambda_{j2+1},
    whose factor at position t is z_{j2+t}."""
    kk = k0(p)
    out = []
    j2 = kk
    while z_degree(p, j2) <= budget:
        for i1 in range(kk, j2 + 1):
            base = 2 * (p ** (j2 + 1) + 1 + (p - 1) * (j2 - i1))  # |z_comp(i1, j2)|
            room = budget - base
            factors = [(z_degree(p, j2), p - 2)] + lambda_factors(p, j2 + 1, room)
            for pairs, deg in bounded_exponents(factors, room):
                e = pairs[0][1] if pairs and pairs[0][0] == 0 else 0
                lam = tuple((j2 + t, x) for t, x in pairs if t)
                out.append((i1, j2, e, lam, base + deg))
        j2 += 1
    return out


@dataclass
class BigradedPage:
    """A rectangular window onto the E2 page.

    Towers are complete out to codegree n_pad = n_hi + 2(p-1) s_max (and
    h0-cosets out to filtration s_max), which is enough to see every dot
    with n_lo <= n <= n_hi and s <= s_max: a tower based beyond n_pad has
    all its window-codegree dots above filtration s_max.
    """

    p: int
    n_lo: int
    n_hi: int
    s_max: int
    n_pad: int
    towers: dict[Key, ETower]
    heights: dict[Key, int | None]

    @property
    def w(self) -> int:
        return 2 * (self.p - 1)

    def _alive(self, key: Key, a: int) -> bool:
        h = self.heights[key]
        return a >= 0 and (h is None or a < h)

    def window_runs(self, heights: dict[Key, int | None]):
        """(key, range of a) of every tower with a dot inside the window,
        each tower cut to its height in heights (None = v-free) and at
        filtration s_max: the one place that cuts the page to its window."""
        for key, tw in self.towers.items():
            h = heights[key]
            cap = self.s_max - tw.s0 + 1
            cap = cap if h is None else min(h, cap)
            run = tower_dots(tw.n0, cap, self.w, self.n_lo, self.n_hi)
            if run:
                yield key, run

    def window_dots(self, heights: dict[Key, int | None]):
        """Every (key, a) inside the window (see window_runs)."""
        for key, run in self.window_runs(heights):
            for a in run:
                yield key, a

    def dims(self, heights: dict[Key, int | None]) -> dict[tuple[int, int], int]:
        """(n, s) -> number of window dots, towers cut to heights."""
        out: dict[tuple[int, int], int] = {}
        for key, a in self.window_dots(heights):
            tw = self.towers[key]
            ns = (tw.n0 - self.w * a, tw.s0 + a)
            out[ns] = out.get(ns, 0) + 1
        return out

    def v_op(self, key: Key, a: int) -> tuple[Key, int] | None:
        nxt = (key, a + 1)
        return nxt if self._alive(key, a + 1) else None

    def h0_op(self, key: Key, a: int) -> tuple[Key, int] | None:
        """h0 on tower bases: the W-chain h0 . z_comp(i,j) = v . z_comp(i-1,j),
        h0 on h0-cosets, and h0 . (y1^b y0 z0) = v . (y1^b z1) at p = 2."""
        if key[0] == "main":
            _, b, eps, i1, j2, e, lam = key
            if i1 <= k0(self.p):
                return None
            mate, a2 = ("main", b, eps, i1 - 1, j2, e, lam), a + 1
        elif key[0] == "h0":
            mate, a2 = ("h0", key[1] + 1, key[2], key[3]), a
        elif key[0] == "sp" and key[1] == "x8":
            mate, a2 = ("sp", "x10", key[2]), a + 1
        else:
            return None
        if mate in self.towers and self._alive(mate, a2):
            return (mate, a2)
        return None


def e2_window(p: int, n_lo: int, n_hi: int, s_max: int) -> BigradedPage:
    """The reduced E2 page over a rectangular window (see BigradedPage)."""
    if p < 2 or n_hi < n_lo or s_max < 0:
        raise ValueError("bad window")
    kk = k0(p)
    w = 2 * (p - 1)
    pad = n_hi + w * s_max
    towers: dict[Key, ETower] = {}

    def add(key: Key) -> None:
        tw = tower(p, key)
        if key in towers:
            raise ValueError(f"duplicate tower {key}")
        towers[key] = tw

    for i1, j2, e, lam, zdeg in _z_runs(p, pad):
        for eps in (0, 1):
            base = eps * q_degree(p) + zdeg
            b = 0
            while base + 2 * p * b <= pad:
                add(("main", b, eps, i1, j2, e, lam))
                b += 1
    for eps in (0, 1):
        for c in range(s_max + 1):
            b = 1 - eps
            while 2 * p * b + eps * (q_degree(p) - w * kk) <= pad:
                add(("h0", c, b, eps))
                b += 1
    kinds = ("x8", "x10") if p == 2 else ("yz",)
    for kind in kinds:
        b = 0
        while tower(p, ("sp", kind, b)).n0 <= pad:
            add(("sp", kind, b))
            b += 1

    labels = [t.label for t in towers.values()]
    if len(set(labels)) != len(labels):
        raise ValueError("tower labels are not unique")
    heights = {k: t.height for k, t in towers.items()}
    return BigradedPage(p, n_lo, n_hi, s_max, pad, towers, heights)


# -- replay -------------------------------------------------------------------


def _absence_ok(page: BigradedPage, key: Key) -> bool:
    tw = tower(page.p, key)
    if tw.n0 > page.n_pad:
        return True
    return key[0] == "h0" and key[1] > page.s_max


def run_differentials(page: BigradedPage):
    """Replay every differential over the window.

    Returns (einf, applied): einf maps (n, s) inside the window to its
    E-infinity dimension; applied lists the replayed differentials as
    {"r", "source_label", "target_label"} records, ordered by (r, source
    base codegree, source label).  Raises WindowError if a partner that the
    window should contain is missing (window too small -- cannot happen for
    windows built by e2_window, but guards hand-edited pages).
    """
    p = page.p
    fates = {k: classify(p, k) for k in page.towers}
    heights = dict(page.heights)
    records: list[tuple[int, int, str, str]] = []
    hit_by: dict[Key, Key] = {}

    sources = [k for k, f in fates.items() if f.role == "source"]
    sources.sort(key=lambda k: (fates[k].r, page.towers[k].n0, page.towers[k].label))
    for k in sources:
        f = fates[k]
        if heights[k] is not None:
            raise WindowError(f"source {page.towers[k].label} is not v-free")
        if f.partner in hit_by:
            other = tower(p, hit_by[f.partner]).label
            raise WindowError(
                f"{page.towers[k].label} and {other} both hit {f.partner}"
            )
        hit_by[f.partner] = k
        mate = page.towers.get(f.partner)
        if mate is None:
            if not _absence_ok(page, f.partner):
                miss = tower(p, f.partner)
                raise WindowError(
                    f"target {miss.label} at ({miss.n0}, {miss.s0}) missing "
                    f"from window (pad {page.n_pad}): window too small"
                )
        else:
            if heights[f.partner] is not None:
                raise WindowError(f"target {mate.label} already truncated")
            heights[f.partner] = f.e0
        heights[k] = 0
        records.append(
            (
                f.r,
                page.towers[k].n0,
                page.towers[k].label,
                dot_label(p, f.partner, f.e0),
            )
        )

    # targets of sources that sit outside the window still truncate
    for k, f in fates.items():
        if f.role != "target" or heights[k] is not None:
            continue
        if f.partner in page.towers:
            raise WindowError(
                f"matched source {tower(p, f.partner).label} never fired"
            )
        if not _absence_ok(page, f.partner):
            miss = tower(p, f.partner)
            raise WindowError(
                f"source {miss.label} at ({miss.n0}, {miss.s0}) missing "
                f"from window: window too small"
            )
        heights[k] = f.e0
        src = tower(p, f.partner)
        records.append((f.r, src.n0, src.label, dot_label(p, k, f.e0)))

    einf = page.dims(heights)
    records.sort()
    applied = [
        {"r": r, "source_label": sl, "target_label": tl} for r, _, sl, tl in records
    ]
    return einf, applied


# -- audits -------------------------------------------------------------------


def matching_audit(p: int, n_lo: int, n_hi: int, s_max: int) -> dict:
    """Pair every window tower with its differential partner and verify the
    pairing is a perfect matching with consistent geometry.

    Orphans (partner missing without a window excuse), double hits and
    geometry mismatches are report entries, not exceptions.  A window with
    no tower raises ValueError: it would pass without checking anything.
    """
    page = e2_window(p, n_lo, n_hi, s_max)
    if not page.towers:
        raise ValueError(f"the window {n_lo}..{n_hi}, s <= {s_max} holds no tower")
    w = page.w
    by_family: Counter = Counter()
    orphans: list[dict] = []
    double_hits: list[dict] = []
    mismatches: list[dict] = []
    hits: dict[Key, list[Key]] = {}
    survivors = 0

    for key, tw in page.towers.items():
        f = classify(p, key)
        if f.role == "survives":
            survivors += 1
            continue
        by_family[(f.family, f.role)] += 1
        back = classify(p, f.partner)
        if (
            back.partner != key
            or back.r != f.r
            or back.e0 != f.e0
            or back.family != f.family
            or back.role == f.role
        ):
            mismatches.append(
                {"kind": "round-trip", "tower": tw.label, "partner": f.partner}
            )
            continue
        src, tgt = (key, f.partner) if f.role == "source" else (f.partner, key)
        st, tt = tower(p, src), tower(p, tgt)
        if tt.n0 != st.n0 + 1 + w * f.e0 or tt.s0 != st.s0 + f.r - f.e0:
            mismatches.append(
                {
                    "kind": "geometry",
                    "source": st.label,
                    "target": tt.label,
                    "r": f.r,
                    "e0": f.e0,
                }
            )
        if f.role == "source":
            hits.setdefault(f.partner, []).append(key)
        if f.partner not in page.towers and not _absence_ok(page, f.partner):
            orphans.append(
                {
                    "kind": f"missing-{back.role}",
                    "tower": tw.label,
                    "partner": tower(p, f.partner).label,
                }
            )
    for tgt_key, srcs in hits.items():
        if len(srcs) > 1:
            double_hits.append(
                {
                    "target": tower(p, tgt_key).label,
                    "sources": [tower(p, s).label for s in srcs],
                }
            )

    report = {
        "p": p,
        "window": {"n_lo": n_lo, "n_hi": n_hi, "s_max": s_max, "n_pad": page.n_pad},
        "towers": len(page.towers),
        "survivors": survivors,
        "by_family": {f"{fam}-{role}": c for (fam, role), c in sorted(by_family.items())},
        "orphans": orphans,
        "double_hits": double_hits,
        "mismatches": mismatches,
    }
    report["ok"] = not (orphans or double_hits or mismatches)
    return report


def e2_dims(p: int, n_lo: int, n_hi: int, s_max: int) -> dict[tuple[int, int], int]:
    """Closed-form reduced E2 dimensions over the window (no differentials)."""
    page = e2_window(p, n_lo, n_hi, s_max)
    return page.dims(page.heights)


def einfty_audit(p: int, n_hi: int, s_max: int | None = None) -> dict:
    """Replay the spectral sequence and compare E-infinity with the chart.

    Checks, for every 0 <= n <= n_hi: the (n, s)-dimensions of E-infinity
    against the chart dots of modules.full_chart (same filtrations), and
    the per-degree totals against the F_p-length of ku^n.  s_max defaults
    to the chart's top filtration plus 4; a cap below that top filtration
    would cut E-infinity short of the chart and raises ValueError.
    """
    ch = full_chart(p, n_hi)
    chart_counts = Counter(
        (n, a) for n in range(n_hi + 1) for _, a in ch.dots_at(n)
    )
    top = max((s for _, s in chart_counts), default=0)
    if s_max is None:
        s_max = top + 4
    elif s_max < top:
        raise ValueError(
            f"s_max {s_max} cuts E-infinity below the chart's top filtration "
            f"{top} through n = {n_hi}: the smallest accepted cap is {top}"
        )
    page = e2_window(p, 0, n_hi, s_max)
    einf, applied = run_differentials(page)

    mismatches = []
    for key in sorted(set(einf) | set(chart_counts)):
        a, b = einf.get(key, 0), chart_counts.get(key, 0)
        if a != b:
            mismatches.append({"n": key[0], "s": key[1], "einfty": a, "chart": b})
    totals: Counter = Counter()
    for (n, _), v in einf.items():
        totals[n] += v
    length_mismatches = []
    for n in range(n_hi + 1):
        total = totals[n]
        length = sum(ch.group_at(n))
        if total != length:
            length_mismatches.append({"n": n, "einfty": total, "ku_length": length})

    return {
        "p": p,
        "n_hi": n_hi,
        "s_max": s_max,
        "towers": len(page.towers),
        "differentials": len(applied),
        "bidegree_mismatches": mismatches,
        "length_mismatches": length_mismatches,
        "ok": not (mismatches or length_mismatches),
    }


def ext_audit(p: int, n_max: int, s_max: int) -> dict:
    """Compare the closed-form E2 page against brute-force Ext over E1.

    The oracle resolves F_p over E1 and computes Ext into the full cohomology
    model, so it sees two layers the reduced page omits: the unit, whose
    Ext is P[h0, v] and meets the window in one class at (0, s) for every s,
    and the free-summand socles, one filtration-0 class at n = d + 2p per
    free generator in degree d.  The oracle counts its own free generators:
    it splits them off the model (margolis.strip_free), ranks only the
    rest, and adds one class per generator at (d + 2p, 0).  The closed side
    takes the counts from free_part_ps instead, so the (n, 0) rows check
    the two counts against each other.  Equality with those two
    corrections, dot for dot, is the check.
    """
    from .margolis import build_HK2, ext_bruteforce, free_part_ps, strip_free

    need = max((n_max - s) + (2 * p - 1) * (s + 1) for s in range(s_max + 1))
    stripped, free = strip_free(build_HK2(p, need))
    oracle = ext_bruteforce(stripped, (0, n_max), s_max)
    closed = e2_dims(p, 0, n_max, s_max)
    gens = free_part_ps(p, need)
    mismatches = []
    checked = 0
    for n in range(n_max + 1):
        for s in range(s_max + 1):
            want = closed.get((n, s), 0)
            got = oracle.get((n, s), 0)
            if s == 0 and n >= 2 * p:
                want += gens[n - 2 * p]
                got += free.get(n - 2 * p, 0)
            if n == 0:
                want += 1
            checked += 1
            if got != want:
                mismatches.append(
                    {"n": n, "s": s, "oracle": got, "closed_plus_free": want}
                )
    return {
        "p": p,
        "n_max": n_max,
        "s_max": s_max,
        "module_cutoff": need,
        "checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
