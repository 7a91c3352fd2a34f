"""Adams spectral sequence engine for ku^*(K(Z/p, 2)): closed-form E2 page,
the four differential families, one source/target pairing pass shared by the
replay to E-infinity, the matching audit and the E-infinity audit.

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

Keys are tuples of a family tag and integers.  Base bidegrees, fates and
partner keys are closed formulas in those integers (see classify), with
|z_comp(i, j)| = 2(p^(j+1) + 1 + (p-1)(j-i)); labels are spelled from the
key by monomial.render_exponents, the spelling of Monomial.render.  No
Monomial is built here.

What the page holds per key and what it holds as a block.  The MAIN and SP
towers are per-key towers: each sits at s = 0 with its base codegree in
page.towers, its height in page.heights and a classify fate.  The H0 cosets
form the h0 block: one column per (b, eps), each over c = 0..s_max, with no
entry, Fate or label per coset.
h0_segments lists a column's fates as runs of c: an eps = 0 column is one
F1 source run; an eps = 1 column is nu(b+1) + odd F3 sources, one coset
each, then one F1 target run with e0 = 0.  So every coset dies and the
block shares one height entry, heights[BLOCK]: None on E2, 0 on
E-infinity.  h0_base and h0_fate give one coset's base and fate (tower and
classify take no h0 key; fate reads either), and run_labels spells every
label from its key, once per run of dots.

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

import sys
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

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
BLOCK: Key = ("h0",)  # the heights entry every coset of the h0 block shares


class WindowError(RuntimeError):
    """The window's tower pairing is broken (see pair_towers)."""


class Fate(NamedTuple):
    role: str  # "source" | "target" | "survives"
    family: str | None  # "F1" .. "F4"
    r: int | None
    e0: int | None  # dots left on the target after the hit
    partner: Key | None


class Segment(NamedTuple):
    """A run of cosets of one h0 column that share a fate."""

    cs: range  # the levels c it covers; the column's last run is unbounded
    role: str
    family: str
    r: int
    e0: int
    partner: tuple  # F1: the partner column (b, eps); F3: the MAIN target key
    offset: int | None  # F1: partner level c' - c; None for an F3 source


OPEN = sys.maxsize  # the stop of a column's last run, which has no top


# -- key arithmetic -------------------------------------------------------------


def _z_of(p: int, i1: int, j2: int, e: int, lam: tuple) -> dict[int, int]:
    """The z-part z_comp(i1, j2) z_j2^e lam of a MAIN key, ascending."""
    z = z_comp_exponents(p, i1, j2)
    if e:
        z[j2] = z.get(j2, 0) + e
    z.update(lam)
    return z


def _sp_shape(p: int, key: Key) -> tuple[int, int, int]:
    """(y0 exponent, z index, height) of an SP key: y1^b y0^x z_j."""
    shapes = {"x8": (1, 0, 1), "x10": (0, 1, 2)} if p == 2 else {"yz": (p - 1, 0, 1)}
    if key[1] not in shapes:
        raise ValueError(f"bad sp key {key}")
    return shapes[key[1]]


def h0_base(p: int, c: int, b: int, eps: int) -> tuple[int, int]:
    """Base bidegree (n0, s0) of the coset h0^c (v^k0 q)^eps y1^b, with
    |q| - 2(p-1) k0 = 2p + 1 at every prime."""
    return 2 * p * (b + eps) + eps, c + k0(p) * eps


def run_labels(p: int, key: Key, run: range) -> list[str]:
    """Display names of the dots v^a . (tower generator), a in run, v-powers
    merged: the one spelling of every label on the page, from the key
    alone.  A coset h0^c (v^k0 q)^eps y1^b spells its h0^c head and q y1^b
    tail once per run; only its v-power changes along the run."""
    if key[0] == "h0":
        _, c, b, eps = key
        head = "" if not c else "h0 " if c == 1 else f"h0^{c} "
        tail = render_exponents(p, eps, ((1, b),) if b else (), ())
        v0 = k0(p) * eps
        return [head + v_label(tail, v0 + a) for a in run]
    if key[0] == "main":
        _, b, eps, *z = key
        gen = render_exponents(p, eps, ((1, b),) if b else (), tuple(_z_of(p, *z).items()))
    elif key[0] == "sp":
        y0, zj, _ = _sp_shape(p, key)
        ys = tuple((i, x) for i, x in ((0, y0), (1, key[2])) if x)
        gen = render_exponents(p, 0, ys, ((zj, 1),))
    else:
        raise ValueError(f"unknown tower family {key!r}")
    return [v_label(gen, a) for a in run]


def dot_label(p: int, key: Key, a: int) -> str:
    """Display name of the dot v^a . (tower generator) (see run_labels)."""
    return run_labels(p, key, range(a, a + 1))[0]


@lru_cache(maxsize=None)
def tower(p: int, key: Key) -> tuple[int, int | None]:
    """(base codegree n0, E2 height) of a MAIN or SP key, whose base sits at
    s = 0; the height is None for a v-free tower (an h0 coset has h0_base
    instead)."""
    if key[0] == "main":
        _, b, eps, *z = key
        zdeg = sum(x * z_degree(p, j) for j, x in _z_of(p, *z).items())
        return eps * q_degree(p) + 2 * p * b + zdeg, None
    if key[0] == "sp":
        y0, zj, height = _sp_shape(p, key)
        return 2 * y0 + 2 * p * key[2] + z_degree(p, zj), height
    raise ValueError(f"unknown tower family {key!r}")


# -- intrinsic fate of a tower ------------------------------------------------


def h0_segments(p: int, b: int, eps: int) -> list[Segment]:
    """The fates of the column h0^c (v^k0 q)^eps y1^b, c >= 0, as runs of c
    in order: the one definition of the h0 block's differentials.

    An eps = 0 column is one F1 source run into column (b - 1, 1) at
    c + nu(b) + odd.  An eps = 1 column is nu(b+1) + odd F3 sources, one
    coset each (the source h0^(t-k0) v^k0 q y1^b of y1^(b+1-p^(t-1)) z_t),
    then one F1 target run from column (b + 1, 0)."""
    odd = 0 if p == 2 else 1
    if eps == 0:
        d = nu(p, b)
        return [Segment(range(OPEN), "source", "F1", d + 2, 0, (b - 1, 1), d + odd)]
    d = nu(p, b + 1)
    out = []
    for c in range(d + odd):
        t = c + k0(p)
        bare = ("main", b + 1 - p ** (t - 1), 0, t, t, 0, ())  # y1^(b+1-p^(t-1)) z_t
        out.append(Segment(range(c, c + 1), "source", "F3", p**t - t, p**t, bare, None))
    out.append(Segment(range(d + odd, OPEN), "target", "F1", d + 2, 0, (b + 1, 0), -d - odd))
    return out


def _mate(seg: Segment, c: int) -> Key:
    """The partner key of the coset at level c of a segment."""
    return seg.partner if seg.offset is None else ("h0", c + seg.offset, *seg.partner)


def h0_fate(p: int, c: int, b: int, eps: int) -> Fate:
    """The fate of the coset h0^c (v^k0 q)^eps y1^b, read off h0_segments."""
    for seg in h0_segments(p, b, eps):
        if c in seg.cs:
            return Fate(*seg[1:5], _mate(seg, c))
    raise ValueError(f"no coset h0^{c} in column {(b, eps)}")


def fate(p: int, key: Key) -> Fate:
    """The fate of any key: classify's, or h0_fate's for an h0 coset."""
    if key[0] == "h0":
        return h0_fate(p, key[1], key[2], key[3])
    return classify(p, key)


@lru_cache(maxsize=None)
def classify(p: int, key: Key) -> Fate:
    """Which differential family a MAIN or SP tower belongs to, with its
    partner key (an h0 coset's fate is h0_fate's), read off the integers of
    ("main", b, eps, i1, j2, e, lam); b' is the partner's y1-exponent:

      eps = 0, d = nu(b), i1 >= d+2  F2 source of (b-1, 1, i1-d-odd, j2, e, lam)
      eps = 0 otherwise, t = i1, b' = b + p^(t-1) - 1:
        z_t bare                     F3 target of the coset h0^(t-k0) (v^k0 q) y1^b'
        j2 > t                       F4 target of (b', 1, k0, t, p-2, run + lam)
        j2 = t, e >= 1               F4 target of (b', 1, k0, t, e-1, lam)
        j2 = t, e = 0, lam = ((j, x), *rest)
                                     F4 target of (b', 1, j-t+k0, j, x-1, rest)
      eps = 1, d = nu(b+1), t = j2-i1+k0, d < t-1
                                     F2 target of (b+1, 0, i1+d+odd, j2, e, lam)
      eps = 1 otherwise, b' = b + 1 - p^(t-1):
        t < j2                       F4 source of (b', 0, t, t, 0, ((j2, e+1),) + lam)
        t = j2, e < p-2              F4 source of (b', 0, t, t, e+1, lam)
        t = j2, e = p-2              F4 source of z_t^p lam (z_decompose_dict)

    where run is (t+1, p-1) .. (j2-1, p-1), then (j2, e) if e > 0.
    fate(partner) always inverts to the tower itself (pair_towers checks
    this), so the pairing is a perfect matching on MAIN + H0 and the SP
    towers are permanent cycles.  A MAIN key with e > p-2 or a lam exponent
    above p-1 raises ValueError.
    """
    kk = k0(p)
    odd = 0 if p == 2 else 1
    if key[0] == "sp":
        return Fate("survives", None, None, None, None)
    if key[0] != "main":
        raise ValueError(f"classify takes MAIN and SP keys, not {key!r}")

    _, b, eps, i1, j2, e, lam = key
    if e > p - 2 or any(x > p - 1 for _, x in lam):
        raise ValueError(f"key {key!r} is not in canonical family form")
    if eps == 0:
        if b >= 1 and i1 >= nu(p, b) + 2:
            d = nu(p, b)
            return Fate("source", "F2", d + 2, d + 2, ("main", b - 1, 1, i1 - d - odd, j2, e, lam))
        # not an F2 source forces nu(b) >= i1 - 1, i.e. y1^b in P[y_t]
        t = i1
        r = p**t - t
        if j2 == t and e == 0 and not lam:
            return Fate("target", "F3", r, p**t, ("h0", t - kk, b + p ** (t - 1) - 1, 1))
        if j2 > t:
            run = tuple((j, p - 1) for j in range(t + 1, j2)) + (((j2, e),) if e else ())
            z = (kk, t, p - 2, run + lam)
        elif e:
            z = (kk, t, e - 1, lam)
        else:
            j, x = lam[0]
            z = (j - t + kk, j, x - 1, lam[1:])
        return Fate("target", "F4", r, r, ("main", b + p ** (t - 1) - 1, 1, *z))

    t = j2 - i1 + kk
    d = nu(p, b + 1)
    if d < t - 1:
        return Fate("target", "F2", d + 2, d + 2, ("main", b + 1, 0, i1 + d + odd, j2, e, lam))
    if t < j2:
        z = (t, t, 0, ((j2, e + 1),) + lam)
    elif e < p - 2:
        z = (t, t, e + 1, lam)
    else:
        z = z_decompose_dict(p, {t: p, **dict(lam)})
    r = p**t - t
    return Fate("source", "F4", r, r, ("main", b + 1 - p ** (t - 1), 0, *z))


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


class BigradedPage:
    """A rectangular window onto the E2 page.

    Towers are complete out to codegree n_pad = n_hi + 2(p-1) s_max (and
    h0-cosets out to filtration s_max), which is enough to see every dot
    with n_lo <= n <= n_hi and s <= s_max: a tower based beyond n_pad has
    all its window-codegree dots above filtration s_max.  towers maps each
    MAIN and SP key to its base codegree (every one is based at s = 0) and
    columns holds the h0 block, (b, eps) -> range(s_max + 1) over c (see the
    module docstring); `key in page`, len(page) and iter(page), towers
    first, cover both.
    """

    def __init__(self, p: int, n_lo: int, n_hi: int, s_max: int, towers, heights, columns):
        self.p, self.n_lo, self.n_hi, self.s_max = p, n_lo, n_hi, s_max
        self.towers: dict[Key, int] = towers  # MAIN and SP key -> n0
        self.heights: dict[Key, int | None] = heights  # MAIN and SP towers, and BLOCK for the block
        self.columns: dict[tuple[int, int], range] = columns

    @property
    def w(self) -> int:
        return 2 * (self.p - 1)

    @property
    def n_pad(self) -> int:
        return self.n_hi + self.w * self.s_max

    def __contains__(self, key: Key) -> bool:
        if key[0] == "h0":
            return len(key) == 4 and key[1] in self.columns.get(key[2:], ())
        return key in self.towers

    def __len__(self) -> int:
        return len(self.towers) + sum(map(len, self.columns.values()))

    def __iter__(self):
        yield from self.towers
        for (b, eps), cs in self.columns.items():
            for c in cs:
                yield ("h0", c, b, eps)

    def block_runs(self):
        """(b, eps, seg, run) for each h0_segments segment that meets its
        column, run the levels they share: the one walk over the h0 block."""
        for (b, eps), cs in self.columns.items():
            for seg in h0_segments(self.p, b, eps):
                run = _cut(seg.cs, cs)
                if run:
                    yield b, eps, seg, run

    def _alive(self, key: Key, a: int) -> bool:
        h = self.heights[BLOCK if key[0] == "h0" else key]
        return a >= 0 and (h is None or a < h)

    def window_runs(self, heights: dict[Key, int | None]):
        """(key, n0, s0, range of a) of every tower and block coset with a
        dot inside the window, each cut to its height in heights (None =
        v-free; heights[BLOCK] for every coset of the block) and at
        filtration s_max: the one place that cuts the page to its window."""
        w, lo, hi, top = self.w, self.n_lo, self.n_hi, self.s_max + 1
        for key, n0 in self.towers.items():
            h = heights[key]
            run = tower_dots(n0, top if h is None else min(h, top), w, lo, hi)
            if run:
                yield key, n0, 0, run
        h = heights[BLOCK]
        for (b, eps), cs in self.columns.items():
            n0, s0 = h0_base(self.p, 0, b, eps)
            full = tower_dots(n0, h, w, lo, hi)
            for c in cs:
                stop = min(full.stop, top - s0 - c)
                if stop <= full.start:
                    break  # the cosets above c start higher still
                yield ("h0", c, b, eps), n0, s0 + c, range(full.start, stop)

    def dims(self, heights: dict[Key, int | None]) -> dict[tuple[int, int], int]:
        """(n, s) -> number of window dots, towers cut to heights."""
        out: dict[tuple[int, int], int] = {}
        w = self.w
        for _, n0, s0, run in self.window_runs(heights):
            for a in run:
                ns = (n0 - w * a, s0 + a)
                out[ns] = out.get(ns, 0) + 1
        return out

    def v_op(self, key: Key, a: int) -> tuple[Key, int] | None:
        nxt = (key, a + 1)
        return nxt if self._alive(key, a + 1) else None

    def h0_op(self, key: Key, a: int) -> tuple[Key, int] | None:
        """h0 on the dot (key, a), when its image is a dot of the page (see
        h0_mate)."""
        m = h0_mate(self.p, key)
        if m is not None and m[0] in self and self._alive(m[0], a + m[1]):
            return m[0], a + m[1]
        return None


def h0_mate(p: int, key: Key) -> tuple[Key, int] | None:
    """h0 on tower bases, as (mate, shift): h0 . v^a (key) = v^(a + shift)
    (mate).  The W-chain h0 . z_comp(i,j) = v . z_comp(i-1,j), h0 on
    h0-cosets, and h0 . (y1^b y0 z0) = v . (y1^b z1) at p = 2; None for a
    tower h0 annihilates."""
    if key[0] == "main":
        _, b, eps, i1, j2, e, lam = key
        return None if i1 <= k0(p) else (("main", b, eps, i1 - 1, j2, e, lam), 1)
    if key[0] == "h0":
        return ("h0", key[1] + 1, key[2], key[3]), 0
    if key[0] == "sp" and key[1] == "x8":
        return ("sp", "x10", key[2]), 1
    return None


def e2_window(p: int, n_lo: int, n_hi: int, s_max: int) -> BigradedPage:
    """The reduced E2 page over a rectangular window (see BigradedPage).

    Raises ValueError if two of its towers would spell one label.  A MAIN
    label spells (eps, b, z-part) one to one, and an SP label spells its
    key, with a z-part z0 or z1 below k0; so the labels are unique exactly
    when the canonical z-parts of _z_runs are pairwise distinct and none
    reaches below k0, which is what is checked, with no label spelled."""
    if p < 2 or n_hi < n_lo or s_max < 0:
        raise ValueError("bad window")
    page = BigradedPage(p, n_lo, n_hi, s_max, {}, {}, {})
    towers, heights, columns, pad = page.towers, page.heights, page.columns, page.n_pad
    runs = _z_runs(p, pad)
    zparts = [_z_of(p, *run[:4]) for run in runs]
    if len({frozenset(z.items()) for z in zparts}) != len(runs) or any(
        min(z) < k0(p) for z in zparts
    ):
        raise ValueError("tower labels are not unique")
    for i1, j2, e, lam, zdeg in runs:
        for eps in (0, 1):
            base = eps * q_degree(p) + zdeg
            b = 0
            while base + 2 * p * b <= pad:
                towers[("main", b, eps, i1, j2, e, lam)] = base + 2 * p * b
                b += 1
    heights.update(dict.fromkeys(towers))  # MAIN towers are v-free
    for eps in (0, 1):
        b = 1 - eps
        while h0_base(p, 0, b, eps)[0] <= pad:
            columns[(b, eps)] = range(s_max + 1)
            b += 1
    kinds = ("x8", "x10") if p == 2 else ("yz",)
    for kind in kinds:
        key = ("sp", kind, 0)
        while (n0_height := tower(p, key))[0] <= pad:
            towers[key], heights[key] = n0_height
            key = ("sp", kind, key[2] + 1)
    heights[BLOCK] = None
    return page


# -- pairing and replay -------------------------------------------------------


def _base(page: BigradedPage, key: Key) -> tuple[int, int]:
    """Base bidegree (n0, s0) of any key: a window tower's from the page,
    a coset's from its integers."""
    if key[0] == "h0":
        return h0_base(page.p, key[1], key[2], key[3])
    n0 = page.towers.get(key)
    return (tower(page.p, key)[0] if n0 is None else n0), 0


class Pairing(NamedTuple):
    pairs: list[tuple[Key, Key, int, int]]  # (source, target, r, e0), a per-key end
    block_pairs: int  # differentials with both ends in the h0 block (F1)
    problems: dict[str, list[dict]]


def pair_towers(page: BigradedPage) -> Pairing:
    """Pair every window tower with its differential partner, in one pass.

    Every per-key tower goes through _pair, then the h0 block through
    _walk_block.  Returns a Pairing: (source, target, r, e0) of each
    differential with a per-key end (the F3 pairs, sourced in the block,
    included) and an end in the window; the count of the block's own; and
    the problems: "orphans" (partners missing without a window excuse),
    "double_hits" and "mismatches" ("round-trip": the partner's fate does
    not invert the tower's; "geometry", once per pair: n0(target) !=
    n0(source) + 1 + w e0 or s0(target) != s0(source) + r - e0; "block": a
    coset of a block run that is neither a source nor a target with e0 = 0).
    Only per-key targets keep a hit list: a second source on a block target
    fails its round trip.
    """
    p = page.p
    pairs: list[tuple[Key, Key, int, int]] = []
    orphans: list[dict] = []
    mismatches: list[dict] = []
    hits: dict[Key, list[Key]] = {}
    for key, n0 in page.towers.items():
        own = fate(p, key)
        if own.partner is None:
            continue  # survives
        if own.role == "source":
            hits.setdefault(own.partner, []).append(key)
        pair = _pair(page, key, own, n0, 0, orphans, mismatches)
        if pair:
            pairs.append(pair)
    block_pairs = _walk_block(page, pairs, hits, orphans, mismatches)
    double_hits = [
        {"target": dot_label(p, t, 0), "sources": [dot_label(p, s, 0) for s in srcs]}
        for t, srcs in hits.items()
        if len(srcs) > 1
    ]
    problems = dict(orphans=orphans, double_hits=double_hits, mismatches=mismatches)
    return Pairing(pairs, block_pairs, problems)


def _pair(
    page: BigradedPage, key: Key, own: Fate, n0: int, s0: int, orphans: list, mismatches: list
):
    """Check one tower or coset (fate own, base (n0, s0)) against its
    partner: the round trip, then, once per pair (from its source, or from
    a target whose source is missing), the geometry and the partner's
    presence or excuse.  Returns that pair as (source, target, r, e0), or
    None if the round trip fails or the source lists the pair.  A label is
    spelled only for a problem."""
    p = page.p
    role, family, r, e0, mate = own
    back = fate(p, mate)
    if back[4] != key or back[0] == role or back[1] != family or back[2:4] != (r, e0):
        mismatches.append({"kind": "round-trip", "tower": dot_label(p, key, 0), "partner": mate})
        return None
    inside = mate in page
    if inside and role == "target":
        return None  # listed by its source
    mn0, ms0 = _base(page, mate)
    if role == "source":
        src, tgt, dn, ds = key, mate, mn0 - n0, ms0 - s0
    else:
        src, tgt, dn, ds = mate, key, n0 - mn0, s0 - ms0
    if dn != 1 + 2 * (p - 1) * e0 or ds != r - e0:
        mismatches.append(
            {
                "kind": "geometry",
                "source": dot_label(p, src, 0),
                "target": dot_label(p, tgt, 0),
                "r": r,
                "e0": e0,
            }
        )
    # a partner may be missing beyond the pad, or as an h0 coset above s_max
    if not inside and not (mn0 > page.n_pad or (mate[0] == "h0" and mate[1] > page.s_max)):
        orphans.append(
            {
                "kind": f"missing-{back[0]}",
                "tower": dot_label(p, key, 0),
                "partner": dot_label(p, mate, 0),
            }
        )
    return src, tgt, r, e0


def _cut(a: range, b: range) -> range:
    """The levels c two runs share."""
    return range(max(a.start, b.start), min(a.stop, b.stop))


def _run_checks(page: BigradedPage, b: int, eps: int, seg: Segment, run: range) -> int | None:
    """_pair's checks on every coset of the F1 run `run` of column (b, eps),
    source or target, made once against the segments of the partner column,
    the geometry's sign read from the run's role.  Returns the number of
    pairs the run lists (a source run all of them; a target run those whose
    source is missing with an excuse), or None if some coset of the run
    fails a check, which only _pair, coset by coset, spells."""
    p, off, col = page.p, seg.offset, seg.partner
    image = range(run.start + off, run.stop + off)
    covered = 0  # partners whose fate inverts their coset's
    for back in h0_segments(p, *col):
        part = _cut(back.cs, image)
        if not part:
            continue
        if back.role == seg.role or (back.partner, back.offset, *back[2:5]) != (
            (b, eps), -off, *seg[2:5]
        ):
            return None
        covered += len(part)
    (n0, s0), (mn0, ms0) = h0_base(p, 0, b, eps), h0_base(p, off, *col)
    sign = 1 if seg.role == "source" else -1
    dn, ds = sign * (mn0 - n0), sign * (ms0 - s0)
    if covered != len(image) or dn != 1 + page.w * seg.e0 or ds != seg.r - seg.e0:
        return None
    # a partner at or below s_max is in the page unless its column is past the pad
    present = page.columns.get(col, range(0))
    low = _cut(image, range(page.s_max + 1))
    if mn0 <= page.n_pad and len(_cut(low, present)) != len(low):
        return None
    return len(run) if seg.role == "source" else len(run) - len(_cut(image, present))


def _walk_block(
    page: BigradedPage, pairs: list, hits: dict, orphans: list, mismatches: list
) -> int:
    """pair_towers on the h0 block, by h0_segments, with no object per coset.

    One walk over block_runs.  Every F1 run, source or target, is checked
    once against its partner column's segments (_run_checks); a run that
    fails there, and each F3 source (its target a MAIN tower: the pair joins
    pairs and the hit list), goes through _pair coset by coset, which
    spells the problems.  A run that is neither a source nor a target with
    e0 = 0 is a "block" mismatch, coset by coset.  Returns the block pairs
    listed."""
    p, kk = page.p, k0(page.p)
    listed = 0
    for b, eps, seg, run in page.block_runs():
        if seg.role != "source" and (seg.role != "target" or seg.e0):
            for c in run:
                label = dot_label(p, ("h0", c, b, eps), 0)
                mismatches.append({"kind": "block", "tower": label, "fate": list(seg[1:5])})
            continue
        count = None if seg.offset is None else _run_checks(page, b, eps, seg, run)
        if count is not None:
            listed += count
            continue
        n0 = h0_base(p, 0, b, eps)[0]
        for c in run:
            key, mate = ("h0", c, b, eps), _mate(seg, c)
            pair = _pair(page, key, Fate(*seg[1:5], mate), n0, c + kk * eps, orphans, mismatches)
            if mate[0] != "h0":
                hits.setdefault(mate, []).append(key)
                if pair:
                    pairs.append(pair)
            elif pair:
                listed += 1
    return listed


def _einfty_heights(page: BigradedPage, pairs) -> dict[Key, int | None]:
    """The page's heights after the replay: sources die, targets keep e0
    dots, and the whole block dies (every coset a source or a target with
    e0 = 0)."""
    heights = dict(page.heights)
    heights[BLOCK] = 0
    for src, tgt, _, e0 in pairs:
        for key, h in ((src, 0), (tgt, e0)):
            if key in heights:
                if heights[key] is not None:
                    raise WindowError(f"paired tower {dot_label(page.p, key, 0)} is height-bounded")
                heights[key] = h
    return heights


def run_differentials(page: BigradedPage):
    """Replay every differential over the window.

    Returns (einf, applied): einf maps (n, s) inside the window to its
    E-infinity dimension; applied lists the replayed differentials as
    {"r", "source_label", "target_label"} records, ordered by (r, source
    base codegree, source label, target label).  Raises WindowError, naming
    the kind and the towers, on the first problem pair_towers finds or on a
    paired window tower that is already height-bounded: never for pages
    built by e2_window, but it guards hand-edited ones.
    """
    pairing = pair_towers(page)
    for kind, found in pairing.problems.items():
        if found:
            raise WindowError(f"{kind}: {found[0]}")
    p = page.p
    einf = page.dims(_einfty_heights(page, pairing.pairs))
    pairs = list(pairing.pairs)
    for b, eps, seg, run in page.block_runs():
        if seg.role == "source" and seg.offset is not None:
            pairs += [(("h0", c, b, eps), _mate(seg, c), seg.r, seg.e0) for c in run]
    records = sorted(
        (r, _base(page, src)[0], dot_label(p, src, 0), dot_label(p, tgt, e0))
        for src, tgt, r, e0 in pairs
    )
    applied = [{"r": r, "source_label": sl, "target_label": tl} for r, _, sl, tl in records]
    return einf, applied


# -- audits -------------------------------------------------------------------


def matching_audit(p: int, n_lo: int, n_hi: int, s_max: int) -> dict:
    """Pair every window tower with its differential partner (pair_towers)
    and verify the pairing is a perfect matching with consistent geometry.

    Orphans, double hits and mismatches are report entries, not
    exceptions.  A window with no tower raises ValueError: it would pass
    without checking anything.
    """
    page = e2_window(p, n_lo, n_hi, s_max)
    if not len(page):
        raise ValueError(f"the window {n_lo}..{n_hi}, s <= {s_max} holds no tower")
    problems = pair_towers(page).problems
    families = Counter((f.family, f.role) for f in (classify(p, key) for key in page.towers))
    for _, _, seg, run in page.block_runs():
        families[seg.family, seg.role] += len(run)
    survivors = families.pop((None, "survives"), 0)
    report = {
        "p": p,
        "window": {"n_lo": n_lo, "n_hi": n_hi, "s_max": s_max, "n_pad": page.n_pad},
        "towers": len(page),
        "survivors": survivors,
        "by_family": {f"{fam}-{role}": c for (fam, role), c in sorted(families.items())},
        **problems,
    }
    report["ok"] = not any(problems.values())
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
    would cut E-infinity short of the chart and raises ValueError, and so
    does a window with no tower, which would pass without checking
    anything.  The replay is run_differentials' without its records; a
    broken tower pairing fails the audit, its problems listed under
    matching_audit's keys.
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
    if not len(page):
        raise ValueError(f"the window 0..{n_hi}, s <= {s_max} holds no tower")
    pairs, block_pairs, problems = pair_towers(page)
    einf = page.dims(_einfty_heights(page, pairs))
    problems = {kind: found for kind, found in problems.items() if found}

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
        "towers": len(page),
        "differentials": len(pairs) + block_pairs,
        "bidegree_mismatches": mismatches,
        "length_mismatches": length_mismatches,
        **problems,
        "ok": not (mismatches or length_mismatches or problems),
    }


def ext_audit(p: int, n_max: int, s_max: int) -> dict:
    """Compare the closed-form E2 page against brute-force Ext over E1.

    The oracle resolves F_p over E1 and computes Ext into the whole of
    H*(K2), so it sees two layers the reduced page omits: the unit, whose
    Ext is P[h0, v] and meets the window in one class at (0, s) for every s,
    and the free-summand socles, one filtration-0 class at n = d + 2p per
    free generator in degree d.  The oracle counts its own free generators:
    it splits them off H*(K2) (margolis.strip_free), ranks only the rest,
    and adds one class per generator at (d + 2p, 0).  The closed side
    takes the counts from model.free_part_ps instead, so the (n, 0) rows check
    the two counts against each other.  Equality with those two
    corrections, dot for dot, is the check.
    """
    from .margolis import build_HK2, ext_bruteforce, ext_cutoff, strip_free
    from .model import free_part_ps

    need = ext_cutoff(p, n_max, s_max)
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
