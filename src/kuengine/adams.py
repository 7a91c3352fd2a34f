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
partner keys are closed formulas in those integers (see main_segments),
with |z_comp(i, j)| = 2(p^(j+1) + 1 + (p-1)(j-i)); labels are spelled from
the key by monomial.render_exponents, the spelling of Monomial.render.  No
Monomial is built here.

What the page holds: columns, never one entry per tower.  A MAIN column
is one (eps, i1, j2, e, lam) over b, an SP column one kind over b: each
is its base codegree at b = 0 (every such tower sits at s = 0, based 2pb
higher at b) and its range of b up to the pad, in page.mains and
page.sps; page.towers reads them as a mapping key -> base codegree.  The
H0 cosets form the h0 block: one column per (b, eps), each over
c = 0..s_max.  No tower or coset has an entry, Fate or label of its own.
main_segments lists a MAIN column's fates as residue classes of b: an
eps = 0 column is its F2 sources, one class per nu(b) = d <= i1 - 2, then
its one F3 or F4 target class p^(i1-1) | b; an eps = 1 column is its F2
targets, one class per nu(b+1) = d <= t - 2, then its one F4 source class
p^(t-1) | b+1.  h0_segments lists an h0 column's fates as runs of c: an
eps = 0 column is one F1 source run; an eps = 1 column is nu(b+1) + odd
F3 sources, one coset each, then one F1 target run with e0 = 0.  So every
coset dies: v-free on E2, height 0 on E-infinity, by BigradedPage.height,
which reads every height off a key and its fate (the page stores none).
classify and h0_fate read one tower's or coset's fate off those lists
(fate reads either), tower and h0_base give one base, and run_labels
spells every label from its key, once per run of dots.

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
from collections.abc import Mapping
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


class WindowError(RuntimeError):
    """The window's tower pairing is broken (see pair_towers)."""


class Fate(NamedTuple):
    role: str  # "source" | "target" | "survives"
    family: str | None  # "F1" .. "F4"
    r: int | None
    e0: int | None  # dots left on the target after the hit
    partner: Key | None


SURVIVES = Fate("survives", None, None, None, None)


class Segment(NamedTuple):
    """A run of cosets of one h0 column that share a fate."""

    cs: range  # the levels c it covers; the column's last run is unbounded
    role: str
    family: str
    r: int
    e0: int
    partner: tuple  # F1: the partner column (b, eps); F3: the MAIN target key
    offset: int | None  # F1: partner level c' - c; None for an F3 source


class Residue(NamedTuple):
    """The exponents b of one MAIN column that share a fate: a residue class."""

    bs: range  # b = start, start + step, ...; the stop is OPEN
    role: str
    family: str
    r: int
    e0: int
    partner: tuple  # the partner column (eps, i1, j2, e, lam); ("h0", c) for an F3 target
    offset: int  # the partner's b minus b


OPEN = sys.maxsize  # the stop of a run or class that has no top


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
def tower(p: int, key: Key) -> int:
    """Base codegree n0 of a MAIN or SP key, whose base sits at s = 0 (an
    h0 coset has h0_base instead; heights are BigradedPage.height's)."""
    if key[0] == "main":
        _, b, eps, *z = key
        zdeg = sum(x * z_degree(p, j) for j, x in _z_of(p, *z).items())
        return eps * q_degree(p) + 2 * p * b + zdeg
    if key[0] == "sp":
        y0, zj, _ = _sp_shape(p, key)
        return 2 * y0 + 2 * p * key[2] + z_degree(p, zj)
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


def main_segments(p: int, eps: int, i1: int, j2: int, e: int, lam: tuple) -> list[Residue]:
    """The fates of the MAIN column q^eps y1^b z_comp(i1, j2) z_j2^e lam,
    b >= 0, as residue classes of b: the one definition of the MAIN
    differentials.  b' is the partner's y1-exponent:

      eps = 0, nu(b) = d <= i1-2     F2 source of (1, i1-d-odd, j2, e, lam)
                                     at b' = b-1, r = e0 = d+2
      eps = 0, p^(t-1) | b, t = i1, b' = b + p^(t-1) - 1:
        z_t bare                     F3 target of the coset h0^(t-k0) (v^k0 q) y1^b'
        j2 > t                       F4 target of (1, k0, t, p-2, run + lam)
        j2 = t, e >= 1               F4 target of (1, k0, t, e-1, lam)
        j2 = t, e = 0, lam = ((j, x), *rest)
                                     F4 target of (1, j-t+k0, j, x-1, rest)
      eps = 1, t = j2-i1+k0, nu(b+1) = d <= t-2
                                     F2 target of (0, i1+d+odd, j2, e, lam)
                                     at b' = b+1, r = e0 = d+2
      eps = 1, p^(t-1) | b+1, b' = b + 1 - p^(t-1):
        t < j2                       F4 source of (0, t, t, 0, ((j2, e+1),) + lam)
        t = j2, e < p-2              F4 source of (0, t, t, e+1, lam)
        t = j2, e = p-2              F4 source of z_t^p lam (z_decompose_dict)

    where run is (t+1, p-1) .. (j2-1, p-1), then (j2, e) if e > 0; F3 and
    F4 have r = p^t - t, and e0 = p^t (F3) or r (F4).  A class nu = d is
    p-1 residues mod p^(d+1), one Residue per unit; the column's last
    Residue, its one F3 or F4 class, is the one residue mod p^(t-1) that
    holds b = 0 (eps = 0) or b = p^(t-1) - 1 (eps = 1).  The classes tile
    b >= 0, and the partner's class maps each tower back to itself
    (pair_towers checks this), so the pairing is a perfect matching on
    MAIN + H0 and the SP towers are permanent cycles.  A column with
    e > p-2 or a lam exponent above p-1 raises ValueError.
    """
    if e > p - 2 or any(x > p - 1 for _, x in lam):
        raise ValueError(f"column {(eps, i1, j2, e, lam)!r} is not in canonical family form")
    kk = k0(p)
    odd = 0 if p == 2 else 1
    out = []
    if eps == 0:
        for d in range(i1 - 1):
            pd, mate = p**d, (1, i1 - d - odd, j2, e, lam)
            out += [
                Residue(range(m * pd, OPEN, p * pd), "source", "F2", d + 2, d + 2, mate, -1)
                for m in range(1, p)
            ]
        t = i1
        r, step = p**t - t, p ** (t - 1)
        if j2 == t and e == 0 and not lam:
            last = ("target", "F3", r, p**t, ("h0", t - kk))
        else:
            if j2 > t:
                run = tuple((j, p - 1) for j in range(t + 1, j2)) + (((j2, e),) if e else ())
                z = (kk, t, p - 2, run + lam)
            elif e:
                z = (kk, t, e - 1, lam)
            else:
                j, x = lam[0]
                z = (j - t + kk, j, x - 1, lam[1:])
            last = ("target", "F4", r, r, (1, *z))
        out.append(Residue(range(0, OPEN, step), *last, step - 1))
        return out

    t = j2 - i1 + kk
    for d in range(t - 1):
        pd, mate = p**d, (0, i1 + d + odd, j2, e, lam)
        out += [
            Residue(range(m * pd - 1, OPEN, p * pd), "target", "F2", d + 2, d + 2, mate, 1)
            for m in range(1, p)
        ]
    if t < j2:
        z = (t, t, 0, ((j2, e + 1),) + lam)
    elif e < p - 2:
        z = (t, t, e + 1, lam)
    else:
        z = z_decompose_dict(p, {t: p, **dict(lam)})
    r, step = p**t - t, p ** (t - 1)
    out.append(Residue(range(step - 1, OPEN, step), "source", "F4", r, r, (0, *z), 1 - step))
    return out


def _main_mate(res: Residue, b: int) -> Key:
    """The partner key of the tower at b of a MAIN class."""
    col, b2 = res.partner, b + res.offset
    return ("h0", col[1], b2, 1) if col[0] == "h0" else ("main", b2, *col)


def _fate(p: int, key: Key, segments) -> Fate:
    """The fate of any key, read off its column's segments: h0_fate's for a
    coset, its class for a MAIN tower (the first class in segments(col),
    the column's main_segments, that holds b), survives for an SP tower."""
    if key[0] == "h0":
        return h0_fate(p, key[1], key[2], key[3])
    if key[0] == "sp":
        return SURVIVES
    if key[0] != "main":
        raise ValueError(f"unknown tower family {key!r}")
    _, b, *col = key
    for res in segments(tuple(col)):
        if b in res.bs:
            return Fate(*res[1:5], _main_mate(res, b))
    raise ValueError(f"no class of column {tuple(col)!r} holds b = {b}")


def fate(p: int, key: Key) -> Fate:
    """The fate of any key: classify's, or h0_fate's for an h0 coset."""
    if key[0] == "h0":
        return h0_fate(p, key[1], key[2], key[3])
    return classify(p, key)


@lru_cache(maxsize=None)
def classify(p: int, key: Key) -> Fate:
    """The fate of a MAIN or SP tower (an h0 coset's is h0_fate's): a MAIN
    tower's is its class in main_segments, and an SP tower survives."""
    if key[0] not in ("main", "sp"):
        raise ValueError(f"classify takes MAIN and SP keys, not {key!r}")
    return _fate(p, key, lambda col: main_segments(p, *col))


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


class Towers(Mapping):
    """The MAIN and SP towers of a page as a read-only mapping key -> base
    codegree, n0 + 2pb for the tower at b of a column based at n0: read off
    the columns, with no entry per key.  It iterates column by column, b
    rising; items() is a generator."""

    def __init__(self, p: int, mains: dict, sps: dict):
        self._step, self._mains, self._sps = 2 * p, mains, sps

    def __getitem__(self, key: Key) -> int:
        col = None
        if key[0] == "main" and len(key) == 7:
            col, b = self._mains.get(key[2:]), key[1]
        elif key[0] == "sp" and len(key) == 3:
            col, b = self._sps.get(key[1]), key[2]
        if col is None or b not in col[1]:
            raise KeyError(key)
        return col[0] + self._step * b

    def __len__(self) -> int:
        return sum(len(bs) for _, bs in (*self._mains.values(), *self._sps.values()))

    def __iter__(self):
        return (key for key, _ in self.items())

    def items(self):
        step = self._step
        for col, (n0, bs) in self._mains.items():
            for b in bs:
                yield ("main", b, *col), n0 + step * b
        for kind, (n0, bs) in self._sps.items():
            for b in bs:
                yield ("sp", kind, b), n0 + step * b


class BigradedPage:
    """A rectangular window onto the E2 page.

    Towers are complete out to codegree n_pad = n_hi + 2(p-1) s_max (and
    h0-cosets out to filtration s_max), which is enough to see every dot
    with n_lo <= n <= n_hi and s <= s_max: a tower based beyond n_pad has
    all its window-codegree dots above filtration s_max.  The page holds
    columns, not towers: mains maps each MAIN column (eps, i1, j2, e, lam)
    and sps each SP kind to (n0, bs), the base codegree of its tower at
    b = 0 and the range of b it holds (every such tower sits at s = 0);
    columns holds the h0 block, (b, eps) -> range(s_max + 1) over c (see the
    module docstring).  towers reads the MAIN and SP towers off their
    columns (Towers); `key in page`, len(page) and iter(page), towers
    first, cover both parts.  Heights are read off keys and fates (height).
    """

    def __init__(self, p: int, n_lo: int, n_hi: int, s_max: int, mains, sps, columns):
        self.p, self.n_lo, self.n_hi, self.s_max = p, n_lo, n_hi, s_max
        self.mains: dict[tuple, tuple[int, range]] = mains
        self.sps: dict[str, tuple[int, range]] = sps
        self.columns: dict[tuple[int, int], range] = columns
        self.towers = Towers(p, mains, sps)
        self._segments: dict[tuple, list[Residue]] = {}

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

    def segments(self, col: tuple) -> list[Residue]:
        """main_segments of the MAIN column col, in or out of the page,
        built once per page."""
        segs = self._segments.get(col)
        if segs is None:
            segs = self._segments[col] = main_segments(self.p, *col)
        return segs

    def fate(self, key: Key) -> Fate:
        """_fate, a MAIN tower's class read off the page's segments."""
        return _fate(self.p, key, self.segments)

    def main_runs(self):
        """(col, n0, res, run) for each main_segments class that meets its
        column, run the exponents b they share: the one walk over the MAIN
        columns by class.  Raises ValueError for a column whose classes do
        not hold its towers once each, in all."""
        for col, (n0, bs) in self.mains.items():
            runs = [(res, _cut(res.bs, bs)) for res in self.segments(col)]
            if sum(len(run) for _, run in runs) != len(bs):
                raise ValueError(f"the classes of column {col!r} do not tile its b")
            for res, run in runs:
                if run:
                    yield col, n0, res, run

    def height(self, key: Key, einfty: bool = False) -> int | None:
        """The height of a tower or block coset (None = v-free): the one
        rule.  On E2 an SP tower has _sp_shape's height and every other
        tower and coset is v-free.  On E-infinity (einfty) a source has
        height 0, a target its e0 and a survivor its E2 height; every coset
        of the block is a source or a target with e0 = 0, so it has 0."""
        if key[0] == "h0":
            return 0 if einfty else None
        if einfty:
            role, _, _, e0, _ = classify(self.p, key)
            if role != "survives":
                return 0 if role == "source" else e0
        return _sp_shape(self.p, key)[2] if key[0] == "sp" else None

    def _alive(self, key: Key, a: int) -> bool:
        h = self.height(key)
        return a >= 0 and (h is None or a < h)

    def window_runs(self, einfty: bool = False):
        """(key, n0, s0, range of a) of every tower and block coset with a
        dot inside the window, each cut to its height on E2, or on
        E-infinity with einfty, and at filtration s_max: the one place that
        cuts the page to its window.  They come in page order, but on
        E-infinity a MAIN column's come class by class (main_runs): a source
        class has no dot, and a target class, all its towers of height e0,
        is cut to the b whose tower reaches the window."""
        p, w, lo, hi, top = self.p, self.w, self.n_lo, self.n_hi, self.s_max + 1
        step = 2 * p
        if einfty:
            mains = (
                (col, n0, min(res.e0, top), run)
                for col, n0, res, run in self.main_runs()
                if res.role != "source"
            )
        else:
            mains = ((col, n0, top, bs) for col, (n0, bs) in self.mains.items())
        for col, n0, h, bs in mains:
            last = (hi + w * (h - 1) - n0) // step  # the last b whose tower reaches hi
            for b in _cut(bs, range(bs.start, last + 1)):
                run = tower_dots(n0 + step * b, h, w, lo, hi)
                if run:
                    yield ("main", b, *col), n0 + step * b, 0, run
        for kind, (n0, bs) in self.sps.items():
            h = min(_sp_shape(p, ("sp", kind, 0))[2], top)
            for b in bs:
                run = tower_dots(n0 + step * b, h, w, lo, hi)
                if run:
                    yield ("sp", kind, b), n0 + step * b, 0, run
        for (b, eps), cs in self.columns.items():
            n0, s0 = h0_base(p, 0, b, eps)
            full = tower_dots(n0, self.height(("h0", cs.start, b, eps), einfty), w, lo, hi)
            for c in cs:
                stop = min(full.stop, top - s0 - c)
                if stop <= full.start:
                    break  # the cosets above c start higher still
                yield ("h0", c, b, eps), n0, s0 + c, range(full.start, stop)

    def dims(self, einfty: bool = False) -> dict[tuple[int, int], int]:
        """(n, s) -> number of window dots on E2, or on E-infinity with
        einfty."""
        out: dict[tuple[int, int], int] = {}
        w = self.w
        for _, n0, s0, run in self.window_runs(einfty):
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
    """The reduced E2 page over a rectangular window (see BigradedPage):
    one entry per MAIN column, SP kind and h0 column, none per tower.

    Raises ValueError if two of its towers would spell one label.  A MAIN
    label spells (eps, b, z-part) one to one, and an SP label spells its
    key, with a z-part z0 or z1 below k0; so the labels are unique exactly
    when the canonical z-parts of _z_runs are pairwise distinct and none
    reaches below k0, which is what is checked, with no label spelled."""
    if p < 2 or n_hi < n_lo or s_max < 0:
        raise ValueError("bad window")
    page = BigradedPage(p, n_lo, n_hi, s_max, {}, {}, {})
    mains, sps, columns, pad = page.mains, page.sps, page.columns, page.n_pad
    runs = _z_runs(p, pad)
    zparts = [_z_of(p, *run[:4]) for run in runs]
    if len({frozenset(z.items()) for z in zparts}) != len(runs) or any(
        min(z) < k0(p) for z in zparts
    ):
        raise ValueError("tower labels are not unique")
    step = 2 * p
    for i1, j2, e, lam, zdeg in runs:
        for eps in (0, 1):
            n0 = eps * q_degree(p) + zdeg
            if n0 <= pad:
                mains[(eps, i1, j2, e, lam)] = n0, range((pad - n0) // step + 1)
    for eps in (0, 1):
        b = 1 - eps
        while h0_base(p, 0, b, eps)[0] <= pad:
            columns[(b, eps)] = range(s_max + 1)
            b += 1
    for kind in ("x8", "x10") if p == 2 else ("yz",):
        n0 = tower(p, ("sp", kind, 0))
        if n0 <= pad:
            sps[kind] = n0, range((pad - n0) // step + 1)
    return page


# -- pairing and replay -------------------------------------------------------


def _base(page: BigradedPage, key: Key) -> tuple[int, int]:
    """Base bidegree (n0, s0) of any key: a window tower's from the page,
    a coset's from its integers."""
    if key[0] == "h0":
        return h0_base(page.p, key[1], key[2], key[3])
    n0 = page.towers.get(key)
    return (tower(page.p, key) if n0 is None else n0), 0


def _lands(page: BigradedPage, role: str, r: int, e0: int, base: tuple, mate_base: tuple) -> bool:
    """The geometry of a pair, from either end: the target's base sits
    1 + w e0 codegrees and r - e0 filtrations above the source's."""
    sign = 1 if role == "source" else -1
    dn, ds = sign * (mate_base[0] - base[0]), sign * (mate_base[1] - base[1])
    return dn == 1 + page.w * e0 and ds == r - e0


class Pairing(NamedTuple):
    differentials: int  # pairs listed: from the source, or a target whose source is excused
    problems: dict[str, list[dict]]


def pair_towers(page: BigradedPage) -> Pairing:
    """Pair every window tower with its differential partner, in one pass.

    The MAIN columns go class by class (_walk_mains), then the h0 block
    run by run (_walk_block): each class or run is checked once against
    its partner's, by arithmetic, and only where that check fails do its
    towers or cosets go through _pair one at a time, in page order, which
    spells the problems.  Returns a Pairing: the number of differentials
    listed, each once (from its source, or from a target whose source is
    missing with a window excuse), and the problems: "orphans" (partners
    missing without a window excuse), "double_hits" and "mismatches"
    ("round-trip": the partner's fate does not invert the tower's;
    "geometry", once per pair: n0(target) != n0(source) + 1 + w e0 or
    s0(target) != s0(source) + r - e0; "block": a coset of a block run that
    is neither a source nor a target with e0 = 0).  Only a page where some
    round trip fails is searched for double hits (_double_hits).
    """
    orphans: list[dict] = []
    mismatches: list[dict] = []
    listed = _walk_mains(page, orphans, mismatches) + _walk_block(page, orphans, mismatches)
    # two sources can share a target only if one of them fails its round trip
    failed = any(m["kind"] == "round-trip" for m in mismatches)
    double_hits = _double_hits(page) if failed else []
    return Pairing(listed, dict(orphans=orphans, double_hits=double_hits, mismatches=mismatches))


def _pair(
    page: BigradedPage, key: Key, own: Fate, n0: int, s0: int, orphans: list, mismatches: list
) -> bool:
    """Check one tower or coset (fate own, base (n0, s0)) against its
    partner: the round trip, then, once per pair (from its source, or from
    a target whose source is missing), the geometry and the partner's
    presence or excuse.  Returns whether this end lists the pair: False if
    the round trip fails or the source lists the pair.  A label is spelled
    only for a problem."""
    p = page.p
    role, family, r, e0, mate = own
    back = page.fate(mate)
    if back[4] != key or back[0] == role or back[1] != family or back[2:4] != (r, e0):
        mismatches.append({"kind": "round-trip", "tower": dot_label(p, key, 0), "partner": mate})
        return False
    inside = mate in page
    if inside and role == "target":
        return False  # listed by its source
    mn0, ms0 = _base(page, mate)
    if not _lands(page, role, r, e0, (n0, s0), (mn0, ms0)):
        src, tgt = (key, mate) if role == "source" else (mate, key)
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
    return True


def _cut(a: range, b: range) -> range:
    """The members of a (any step) inside b (step 1): the levels c, or the
    exponents b, two runs share."""
    start = a.start if a.start >= b.start else b.start + (a.start - b.start) % a.step
    return range(start, min(a.stop, b.stop), a.step)


def _class_checks(page: BigradedPage, col: tuple, n0: int, res: Residue, run: range) -> int | None:
    """_pair's checks on the towers at b in run, the page's part of class
    res of MAIN column col (based at n0), made once against the partner
    column's class: the image b + offset must lie in one class that maps
    it back, the geometry, which does not depend on b, must hold at the
    first b, and every partner outside the page must lie past the pad.
    Returns the number of pairs the class lists (a source class all of
    them, a target class those whose source is missing), or None if some
    tower fails a check, which only _pair, tower by tower, spells."""
    p, off, mate_col = page.p, res.offset, res.partner
    image = range(run.start + off, run.stop + off, run.step)
    mate_base = _base(page, _main_mate(res, run.start))
    back = next((s for s in page.segments(mate_col) if image.start in s.bs), None)
    if (
        back is None
        or (len(image) > 1 and image.step % back.bs.step)
        or image[-1] not in back.bs
        or back.role == res.role
        or back[2:] != (*res[2:5], col, -off)
        or not _lands(page, res.role, res.r, res.e0, (n0 + 2 * p * run.start, 0), mate_base)
    ):
        return None
    present = page.mains.get(mate_col, (0, range(0)))[1]
    last = (page.n_pad - mate_base[0]) // (2 * p) + image.start  # the last b' within the pad
    low = _cut(image, range(image.start, last + 1))
    if len(_cut(low, present)) != len(low):
        return None
    return len(run) if res.role == "source" else len(run) - len(_cut(image, present))


def _walk_mains(page: BigradedPage, orphans: list, mismatches: list) -> int:
    """pair_towers on the MAIN columns, class by class (main_runs), with no
    object per tower.  Every class with a MAIN partner is checked once
    against the partner's class (_class_checks); a class that fails there,
    and each F3 target class (its partners block cosets, each checked from
    its own end too), goes through _pair tower by tower, a column's towers
    in b order, which spells the problems.  Returns the pairs listed."""
    p = page.p
    listed = 0
    failed: dict[tuple, list[Residue]] = {}
    for col, n0, res, run in page.main_runs():
        count = None if res.partner[0] == "h0" else _class_checks(page, col, n0, res, run)
        if count is None:
            failed.setdefault(col, []).append(res)
        else:
            listed += count
    for col, classes in failed.items():
        n0, bs = page.mains[col]
        for b, res in sorted((b, res) for res in classes for b in _cut(res.bs, bs)):
            own = Fate(*res[1:5], _main_mate(res, b))
            listed += _pair(page, ("main", b, *col), own, n0 + 2 * p * b, 0, orphans, mismatches)
    return listed


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
    base, mate_base = h0_base(p, 0, b, eps), h0_base(p, off, *col)
    if covered != len(image) or not _lands(page, seg.role, seg.r, seg.e0, base, mate_base):
        return None
    # a partner at or below s_max is in the page unless its column is past the pad
    present = page.columns.get(col, range(0))
    low = _cut(image, range(page.s_max + 1))
    if mate_base[0] <= page.n_pad and len(_cut(low, present)) != len(low):
        return None
    return len(run) if seg.role == "source" else len(run) - len(_cut(image, present))


def _walk_block(page: BigradedPage, orphans: list, mismatches: list) -> int:
    """pair_towers on the h0 block, by h0_segments, with no object per coset.

    One walk over block_runs.  Every F1 run, source or target, is checked
    once against its partner column's segments (_run_checks); a run that
    fails there, and each F3 source (its target a MAIN tower), goes through
    _pair coset by coset, which spells the problems.  A run that is neither
    a source nor a target with e0 = 0 is a "block" mismatch, coset by coset.
    Returns the block pairs listed."""
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
            own = Fate(*seg[1:5], _mate(seg, c))
            listed += _pair(page, ("h0", c, b, eps), own, n0, c + kk * eps, orphans, mismatches)
    return listed


def _double_hits(page: BigradedPage) -> list[dict]:
    """Every target named by two sources or more, with its sources, in
    page order: one pass over every tower and coset of the page.  A block
    source whose partner is a block coset is left out: a second source on
    a block target fails its round trip instead."""
    p, hits = page.p, {}
    for key in page:
        own = page.fate(key)
        if own.role == "source" and (key[0] != "h0" or own.partner[0] != "h0"):
            hits.setdefault(own.partner, []).append(key)
    return [
        {"target": dot_label(p, t, 0), "sources": [dot_label(p, s, 0) for s in srcs]}
        for t, srcs in hits.items()
        if len(srcs) > 1
    ]


def run_differentials(page: BigradedPage):
    """Replay every differential over the window.

    Returns (einf, applied): einf maps (n, s) inside the window to its
    E-infinity dimension; applied lists the replayed differentials as
    {"r", "source_label", "target_label"} records, ordered by (r, source
    base codegree, source label, target label): every pair with its source
    in the page, and every MAIN target's whose source is not.  Raises
    WindowError, naming the kind and the towers, on the first problem
    pair_towers finds: never for pages built by e2_window, but it guards
    hand-edited ones.  Then E-infinity is page.dims(einfty=True), each
    tower cut by its fate.
    """
    pairing = pair_towers(page)
    for kind, found in pairing.problems.items():
        if found:
            raise WindowError(f"{kind}: {found[0]}")
    p = page.p
    einf = page.dims(einfty=True)
    pairs = []
    for col, _, res, run in page.main_runs():
        for b in run:
            key, mate = ("main", b, *col), _main_mate(res, b)
            if res.role == "source":
                pairs.append((key, mate, res.r, res.e0))
            elif mate not in page:
                pairs.append((mate, key, res.r, res.e0))
    for b, eps, seg, run in page.block_runs():
        if seg.role == "source":
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
    exceptions.  The family counts are read class by class and run by
    run.  A window with no tower raises ValueError: it would pass without
    checking anything.
    """
    page = e2_window(p, n_lo, n_hi, s_max)
    if not len(page):
        raise ValueError(f"the window {n_lo}..{n_hi}, s <= {s_max} holds no tower")
    problems = pair_towers(page).problems
    families: Counter = Counter()
    for _, _, res, run in page.main_runs():
        families[res.family, res.role] += len(run)
    for _, _, seg, run in page.block_runs():
        families[seg.family, seg.role] += len(run)
    report = {
        "p": p,
        "window": {"n_lo": n_lo, "n_hi": n_hi, "s_max": s_max, "n_pad": page.n_pad},
        "towers": len(page),
        "survivors": sum(len(bs) for _, bs in page.sps.values()),
        "by_family": {f"{fam}-{role}": c for (fam, role), c in sorted(families.items())},
        **problems,
    }
    report["ok"] = not any(problems.values())
    return report


def e2_dims(p: int, n_lo: int, n_hi: int, s_max: int) -> dict[tuple[int, int], int]:
    """Closed-form reduced E2 dimensions over the window (no differentials)."""
    return e2_window(p, n_lo, n_hi, s_max).dims()


def einfty_audit(p: int, n_hi: int, s_max: int | None = None) -> dict:
    """Replay the spectral sequence and compare E-infinity with the chart.

    Checks, for every 0 <= n <= n_hi: the (n, s)-dimensions of E-infinity
    against the chart dots of modules.full_chart (same filtrations), and
    the per-degree totals against the F_p-length of ku^n, its dot count
    (each chart relation is p . dot minus dots of higher filtration: a
    triangular matrix of determinant p^dots).  Both chart counts come from
    one walk over the chart's towers.  s_max defaults
    to the chart's top filtration plus 4; a cap below that top filtration
    would cut E-infinity short of the chart and raises ValueError, and so
    does a window with no tower, which would pass without checking
    anything.  The replay is run_differentials' without its records:
    E-infinity is page.dims(einfty=True), every tower cut by its fate, and
    the differential count is pair_towers'.  A broken tower pairing fails
    the audit, its problems listed under matching_audit's keys.
    """
    ch = full_chart(p, n_hi)
    w = 2 * (p - 1)
    chart_counts: Counter = Counter()
    lengths: Counter = Counter()
    for t in ch.towers:
        n0 = t.gen_degree
        for a in tower_dots(n0, t.height, w, 0, n_hi):
            chart_counts[n0 - w * a, a] += 1
            lengths[n0 - w * a] += 1
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
    differentials, problems = pair_towers(page)
    einf = page.dims(einfty=True)
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
        total, length = totals[n], lengths[n]
        if total != length:
            length_mismatches.append({"n": n, "einfty": total, "ku_length": length})

    return {
        "p": p,
        "n_hi": n_hi,
        "s_max": s_max,
        "towers": len(page),
        "differentials": differentials,
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
