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
partner keys are closed formulas in those integers (see segments), with
|z_comp(i, j)| = 2(p^(j+1) + 1 + (p-1)(j-i)); labels are spelled from the
key by monomial.render_exponents, the spelling of Monomial.render.  No
Monomial is built here.

Every key is a column and an axis value (_column, _key): the tower at b
of the MAIN column ("main", eps, i1, j2, e, lam) or the SP column ("sp",
kind), the coset at c of the h0 column ("h0", b, eps).  An axis step moves
a MAIN or SP tower 2p codegrees at s = 0, a coset one filtration (_step).
The page holds columns, never an entry, Fate or label per tower (see
BigradedPage).  segments(p, col) lists a column's fates as Runs, the one
record: a span of axis values, a role, family, r and e0, and the partner,
a key with one coordinate moving with the axis.  A page builds each
column's list once (BigradedPage.segments); fate, the one fate reader,
reads a key's Fate off its column's runs, for BigradedPage.fate and the
cached classify; BigradedPage.height reads every height off a key and its
fate.  One walk, BigradedPage.runs, visits each run of each column with
the part the page holds: window_runs cuts it to the window on E-infinity,
pair_towers checks each run once against its partner column,
run_differentials lists its pairs and matching_audit counts its families.
run_labels spells every label from its key, once per run of dots.

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
from operator import itemgetter
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
Col = tuple  # a key less its axis value (_column)


class WindowError(RuntimeError):
    """The window's tower pairing is broken (see pair_towers)."""


class Fate(NamedTuple):
    role: str  # "source" | "target" | "survives"
    family: str | None  # "F1" .. "F4"
    r: int | None
    e0: int | None  # dots left on the target after the hit
    partner: Key | None


SURVIVES = Fate("survives", None, None, None, None)


class Run(NamedTuple):
    """The axis values of one column that share a fate: a residue class of
    b of a MAIN column, every b of an SP column, an interval of c of an h0
    column.  The partner of the tower or coset at x is the key partner with
    x added to its coordinate at: its own axis value, except on an F3
    target class, whose partner cosets move along b at one level c."""

    span: range  # the stop is OPEN
    role: str
    family: str | None
    r: int | None
    e0: int | None
    partner: Key | None
    at: int = 1


OPEN = sys.maxsize  # the stop of a run that has no top


# -- key arithmetic -------------------------------------------------------------


def _column(key: Key) -> tuple[Col, int]:
    """(column, axis value) of a key: b of a MAIN or SP tower, c of a coset."""
    if key[0] == "sp":
        return key[:2], key[2]
    return (key[0], *key[2:]), key[1]


def _key(col: Col, x: int) -> Key:
    """The key at axis value x of column col (inverts _column)."""
    return (*col, x) if col[0] == "sp" else (col[0], x, *col[1:])


def _step(p: int, col: Col) -> tuple[int, int]:
    """(codegree, filtration) that one axis step moves the base of col."""
    return (0, 1) if col[0] == "h0" else (2 * p, 0)


def _partner(run: Run, x: int) -> Key | None:
    """The partner key of the tower or coset at x of a run."""
    key, i = run.partner, run.at
    return None if key is None else (*key[:i], key[i] + x, *key[i + 1 :])


def _z_of(p: int, i1: int, j2: int, e: int, lam: tuple) -> dict[int, int]:
    """The z-part z_comp(i1, j2) z_j2^e lam of a MAIN key, ascending."""
    z = z_comp_exponents(p, i1, j2)
    if e:
        z[j2] = z.get(j2, 0) + e
    z.update(lam)
    return z


def _sp_shape(p: int, key: Key) -> tuple[int, int, int]:
    """(y0 exponent, z index, height) of an SP key (or column): y1^b y0^x z_j."""
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


# -- the fates of a column ------------------------------------------------------


def segments(p: int, col: Col) -> list[Run]:
    """The fates of column col as Runs of its axis values, in order: the one
    definition of the differentials.  b' is a MAIN partner's y1-exponent.
    An eps = 0 MAIN column is its F2 sources, one residue class of b per
    nu(b) = d and unit, then its one F3 or F4 target class; an eps = 1 MAIN
    column its F2 targets, then its one F4 source class:

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
    p-1 residues mod p^(d+1); the last class is the one residue mod
    p^(t-1) that holds b = 0 (eps = 0) or b = p^(t-1) - 1 (eps = 1).

    An eps = 0 h0 column is one F1 source run into column (b - 1, 1) at
    c + nu(b) + odd; an eps = 1 h0 column is nu(b+1) + odd F3 sources, one
    coset each (the source h0^(t-k0) v^k0 q y1^b of y1^(b+1-p^(t-1)) z_t,
    whose b' the partner holds less c), then one F1 target run from column
    (b + 1, 0) with e0 = 0, so every coset dies.  An SP column is one
    survives run.  The runs tile the axis, and the partner's run maps each
    tower back to itself (pair_towers checks this), so the pairing is a
    perfect matching on MAIN + H0 and the SP towers are permanent cycles.
    A MAIN column with e > p-2 or a lam exponent above p-1 raises
    ValueError, as does a column of no family."""
    kk, odd = k0(p), p % 2
    if col[0] == "sp":
        _sp_shape(p, col)
        return [Run(range(OPEN), "survives", None, None, None, None)]
    if col[0] == "h0":
        _, b, eps = col
        if eps == 0:
            d = nu(p, b)
            return [Run(range(OPEN), "source", "F1", d + 2, 0, ("h0", d + odd, b - 1, 1))]
        d = nu(p, b + 1)
        out = []
        for c in range(d + odd):
            t = c + kk
            bare = ("main", b + 1 - p ** (t - 1) - c, 0, t, t, 0, ())
            out.append(Run(range(c, c + 1), "source", "F3", p**t - t, p**t, bare))
        out.append(Run(range(d + odd, OPEN), "target", "F1", d + 2, 0, ("h0", -d - odd, b + 1, 0)))
        return out
    if col[0] != "main":
        raise ValueError(f"unknown tower family {col!r}")
    _, eps, i1, j2, e, lam = col
    if e > p - 2 or any(x > p - 1 for _, x in lam):
        raise ValueError(f"column {col!r} is not in canonical family form")
    t, sign = (j2 - i1 + kk, 1) if eps else (i1, -1)  # sign: an F2 partner's b' - b
    out = [
        Run(range(m * p**d - eps, OPEN, p ** (d + 1)), ("source", "target")[eps], "F2", d + 2,
            d + 2, ("main", sign, 1 - eps, i1 + sign * (d + odd), j2, e, lam))
        for d in range(t - 1)
        for m in range(1, p)
    ]
    r, step = p**t - t, p ** (t - 1)
    if eps:
        if t < j2:
            z = (t, t, 0, ((j2, e + 1),) + lam)
        elif e < p - 2:
            z = (t, t, e + 1, lam)
        else:
            z = z_decompose_dict(p, {t: p, **dict(lam)})
        mate = ("main", 1 - step, 0, *z)
        return out + [Run(range(step - 1, OPEN, step), "source", "F4", r, r, mate)]
    if j2 == t and e == 0 and not lam:  # its partner cosets move along b
        coset = ("h0", t - kk, step - 1, 1)
        return out + [Run(range(0, OPEN, step), "target", "F3", r, p**t, coset, 2)]
    if j2 > t:
        run = tuple((j, p - 1) for j in range(t + 1, j2)) + (((j2, e),) if e else ())
        z = (kk, t, p - 2, run + lam)
    elif e:
        z = (kk, t, e - 1, lam)
    else:
        j, x = lam[0]
        z = (j - t + kk, j, x - 1, lam[1:])
    return out + [Run(range(0, OPEN, step), "target", "F4", r, r, ("main", step - 1, 1, *z))]


def fate(p: int, key: Key, runs_of=None) -> Fate:
    """The fate of any key, read off the run of its column that holds its
    axis value: the one fate reader.  runs_of(col) gives a column's runs:
    segments(p, col) by default, the page's own lists from
    BigradedPage.fate."""
    col, x = _column(key)
    for run in runs_of(col) if runs_of else segments(p, col):
        if x in run.span:
            return Fate(*run[1:5], _partner(run, x))
    raise ValueError(f"the runs of column {col!r} do not tile it: none holds {x}")


@lru_cache(maxsize=None)
def classify(p: int, key: Key) -> Fate:
    """The fate of a MAIN or SP tower, cached key by key (a page reads its
    fates off its own runs instead)."""
    if key[0] not in ("main", "sp"):
        raise ValueError(f"classify takes MAIN and SP keys, not {key!r}")
    return fate(p, key)


def _height(p: int, key: Key, own) -> int | None:
    """The height of the tower or coset key, or of any of column key's, with
    fate own (a Fate or a Run; None = v-free): the one rule.  On E2 (own
    SURVIVES) an SP tower has _sp_shape's height and every other tower and
    coset is v-free; on E-infinity a source has height 0, a target its e0
    and a survivor its E2 height."""
    if own.role != "survives":
        return 0 if own.role == "source" else own.e0
    return _sp_shape(p, key)[2] if key[0] == "sp" else None


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
    rising."""

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
        for col, (_, bs) in self._mains.items():
            for b in bs:
                yield ("main", b, *col)
        for kind, (_, bs) in self._sps.items():
            for b in bs:
                yield ("sp", kind, b)


class BigradedPage:
    """A rectangular window onto the E2 page.

    Towers are complete out to codegree n_pad = n_hi + 2(p-1) s_max (and
    h0-cosets out to filtration s_max), which is enough to see every dot
    with n_lo <= n <= n_hi and s <= s_max: a tower based beyond n_pad has
    all its window-codegree dots above filtration s_max.  The page holds
    columns, not towers: mains maps each MAIN column (eps, i1, j2, e, lam)
    and sps each SP kind to (n0, bs), its base codegree at b = 0 and the
    range of b it holds, and columns each h0 column (b, eps) to range(s_max
    + 1) over c.  towers reads the MAIN and SP towers off them (Towers);
    `key in page`, len(page) and iter(page), towers first, cover both."""

    def __init__(self, p: int, n_lo: int, n_hi: int, s_max: int, mains, sps, columns):
        self.p, self.n_lo, self.n_hi, self.s_max = p, n_lo, n_hi, s_max
        self.mains: dict[tuple, tuple[int, range]] = mains
        self.sps: dict[str, tuple[int, range]] = sps
        self.columns: dict[tuple[int, int], range] = columns
        self.towers = Towers(p, mains, sps)
        self._segments: dict[Col, list[Run]] = {}

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

    def _columns(self):
        """(col, n0, s0, held) of every column of the page, MAIN, then SP,
        then h0: its base at axis value 0 and the axis values it holds."""
        for col, (n0, bs) in self.mains.items():
            yield ("main", *col), n0, 0, bs
        for kind, (n0, bs) in self.sps.items():
            yield ("sp", kind), n0, 0, bs
        for (b, eps), cs in self.columns.items():
            yield ("h0", b, eps), *h0_base(self.p, 0, b, eps), cs

    def column(self, col: Col) -> tuple[int, int, range]:
        """(n0, s0, held) of any column, in or out of the page, as
        _columns gives them (a column off the page holds nothing)."""
        if col[0] == "h0":
            return (*h0_base(self.p, 0, *col[1:]), self.columns.get(col[1:], range(0)))
        got = self.mains.get(col[1:]) if col[0] == "main" else self.sps.get(col[-1])
        return (got[0], 0, got[1]) if got else (tower(self.p, _key(col, 0)), 0, range(0))

    def segments(self, col: Col) -> list[Run]:
        """segments(p, col) of any column, in or out of the page, built once
        per page: the one cache."""
        runs = self._segments.get(col)
        if runs is None:
            runs = self._segments[col] = segments(self.p, col)
        return runs

    def fate(self, key: Key) -> Fate:
        """fate, read off the page's own runs."""
        return fate(self.p, key, self.segments)

    def runs(self):
        """(col, n0, s0, pieces) for each column of the page (_columns),
        pieces the (run, part) of each of its runs that meets the axis
        values the column holds, part the ones they share: the one walk over
        the page by run.  Raises ValueError for a column whose runs do not
        hold each of those once, in all."""
        for col, n0, s0, held in self._columns():
            pieces, covered = [], 0
            for run in self.segments(col):
                part = _cut(run.span, held)
                if part:
                    pieces.append((run, part))
                    covered += len(part)
            if covered != len(held):
                raise ValueError(f"the runs of column {col!r} do not tile it")
            yield col, n0, s0, pieces

    def height(self, key: Key, einfty: bool = False) -> int | None:
        """The height of a tower or coset (None = v-free) on E2, or on
        E-infinity with einfty, where every coset has 0 (see _height)."""
        return _height(self.p, key, self.fate(key) if einfty else SURVIVES)

    def _alive(self, key: Key, a: int) -> bool:
        h = self.height(key)
        return a >= 0 and (h is None or a < h)

    def window_runs(self, einfty: bool = False):
        """(key, n0, s0, range of a) of every tower and coset with a dot
        inside the window, each cut to its height on E2, or on E-infinity
        with einfty, and at filtration s_max: the one place that cuts the
        page to its window.  They come column by column in page order, up
        each column's axis, but on E-infinity run by run (runs): a source
        run has no dot, and a target run's towers have e0 dots."""
        p, w, lo, hi, top = self.p, self.w, self.n_lo, self.n_hi, self.s_max + 1
        whole = ((col, n0, s0, [(SURVIVES, held)]) for col, n0, s0, held in self._columns())
        for col, n0, s0, pieces in self.runs() if einfty else whole:
            dn, ds = _step(p, col)
            for own, xs in pieces:
                h = _height(p, col, own)
                if h == 0:
                    continue  # a source run
                for x in xs:
                    n, s = n0 + dn * x, s0 + ds * x
                    cap = top - s if h is None or h > top - s else h
                    run = tower_dots(n, cap, w, lo, hi)
                    if run.start >= cap:
                        break  # no dot of this tower, nor of one further up the axis, is in it
                    if run:
                        yield _key(col, x), n, s, run

    def dims(self, einfty: bool = False) -> dict[tuple[int, int], int]:
        """(n, s) -> number of window dots on E2, or on E-infinity with
        einfty."""
        w = self.w
        runs = self.window_runs(einfty)
        return Counter((n0 - w * a, s0 + a) for _, n0, s0, run in runs for a in run)

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
    """Base bidegree (n0, s0) of any key, off its column's."""
    col, x = _column(key)
    n0, s0, _ = page.column(col)
    dn, ds = _step(page.p, col)
    return n0 + dn * x, s0 + ds * x


def _lands(page: BigradedPage, role: str, r: int, e0: int, base: tuple, mate_base: tuple) -> bool:
    """The geometry of a pair, from either end: the target's base sits
    1 + w e0 codegrees and r - e0 filtrations above the source's."""
    sign = 1 if role == "source" else -1
    dn, ds = sign * (mate_base[0] - base[0]), sign * (mate_base[1] - base[1])
    return dn == 1 + page.w * e0 and ds == r - e0


def _due(page: BigradedPage, col: Col, y: int, base: tuple) -> range:
    """The axis values from y up of column col, whose key at y is based at
    base, that a whole page holds: towers based up to the pad, and cosets
    up to s_max in a column based within it.  A partner outside the page
    is excused if it is not due."""
    if col[0] == "h0":
        return range(y, page.s_max + 1 if base[0] <= page.n_pad else y)
    return range(y, y + (page.n_pad - base[0]) // (2 * page.p) + 1)


class Pairing(NamedTuple):
    differentials: int  # pairs listed: from the source, or a target whose source is excused
    problems: dict[str, list[dict]]


def pair_towers(page: BigradedPage) -> Pairing:
    """Pair every window tower and coset with its differential partner, in
    one walk over the page's runs (BigradedPage.runs).

    Each run is checked once against its partner column (_partner_checks); the
    towers or cosets of a run that fails there, or of an F3 run, go through
    _pair one at a time, a column's in axis order, which spells the
    problems, and an h0 run that is neither a source nor a target with
    e0 = 0 is a "block" mismatch, coset by coset.  Returns a Pairing: the
    differentials listed, each once (from its source, or from a target
    whose source is missing with a window excuse), and the problems:
    "orphans" (partners missing without an excuse), "double_hits" and
    "mismatches" ("round-trip": the partner's fate does not invert the
    tower's; "geometry", once per pair: n0(target) != n0(source) + 1 + w e0
    or s0(target) != s0(source) + r - e0; "block").  Only a page where some
    round trip fails is searched for double hits (_double_hits)."""
    p = page.p
    orphans: list[dict] = []
    mismatches: list[dict] = []
    listed = 0
    for col, n0, s0, pieces in page.runs():
        left = []  # (x, run, whether it breaks the block) to go one at a time
        for run, part in pieces:
            broken = col[0] == "h0" and run.role != "source" and (run.role != "target" or run.e0)
            count = None if broken else _partner_checks(page, col, n0, s0, run, part)
            if count is None:
                left += [(x, run, broken) for x in part]
            else:
                listed += count
        dn, ds = _step(p, col)
        for x, run, broken in sorted(left, key=itemgetter(0)):
            key = _key(col, x)
            if broken:
                label = dot_label(p, key, 0)
                mismatches.append({"kind": "block", "tower": label, "fate": list(run[1:5])})
                continue
            own = Fate(*run[1:5], _partner(run, x))
            listed += _pair(page, key, own, n0 + dn * x, s0 + ds * x, orphans, mismatches)
    # two sources can share a target only if one of them fails its round trip
    failed = any(m["kind"] == "round-trip" for m in mismatches)
    double_hits = _double_hits(page) if failed else []
    return Pairing(listed, dict(orphans=orphans, double_hits=double_hits, mismatches=mismatches))


def _pair(page: BigradedPage, key: Key, own: Fate, n0: int, s0: int, orphans, mismatches) -> bool:
    """Check one tower or coset (fate own, base (n0, s0)) against its
    partner: the round trip, then, once per pair (from its source, or from
    a target whose source is missing), the geometry and the partner's
    presence or excuse (_due).  Returns whether this end lists the pair:
    False if the round trip fails or the source lists the pair.  A label is
    spelled only for a problem."""
    p = page.p
    role, family, r, e0, mate = own
    back = page.fate(mate)
    if back[4] != key or back[0] == role or back[1] != family or back[2:4] != (r, e0):
        mismatches.append({"kind": "round-trip", "tower": dot_label(p, key, 0), "partner": mate})
        return False
    inside = mate in page
    if inside and role == "target":
        return False  # listed by its source
    mate_base = _base(page, mate)
    if not _lands(page, role, r, e0, (n0, s0), mate_base):
        src, tgt = (dot_label(p, k, 0) for k in ((key, mate) if role == "source" else (mate, key)))
        mismatches.append({"kind": "geometry", "source": src, "target": tgt, "r": r, "e0": e0})
    mate_col, y = _column(mate)
    if not inside and y in _due(page, mate_col, y, mate_base):
        names = {"tower": dot_label(p, key, 0), "partner": dot_label(p, mate, 0)}
        orphans.append({"kind": f"missing-{back[0]}", **names})
    return True


def _cut(a: range, b: range) -> range:
    """The members of a (any step) inside b (step 1): the axis values two
    runs share."""
    start = a.start if a.start >= b.start else b.start + (a.start - b.start) % a.step
    return range(start, min(a.stop, b.stop), a.step)


def _partner_checks(page: BigradedPage, col: Col, n0: int, s0: int, run: Run, part: range):
    """_pair's checks on the towers or cosets at x in part, the page's part
    of run in column col (based at (n0, s0) at x = 0), made once against
    the partner column: the image x + offset must lie in one of its runs
    that maps it back, the geometry, which does not depend on x, must hold
    at the first x, and every partner due (_due) must be in the page.
    Returns the pairs the run lists (a source run all, a target run those
    whose source is missing, a survives run none), or None if some tower
    fails a check or the run is F3's, for _pair to spell one at a time."""
    if run.partner is None:
        return 0
    if run.at != 1 or run.partner[0] != col[0]:
        return None  # an F3 pair, across the block and the MAIN columns
    mate_col, off = _column(run.partner)  # the partner of x sits at x + off
    y = part.start + off
    image = range(y, part.stop + off, part.step)
    for back in page.segments(mate_col):
        if y in back.span:
            break
    else:
        return None
    dn, ds = _step(page.p, col)
    mn0, ms0, held = page.column(mate_col)
    base, mate_base = (n0 + dn * part.start, s0 + ds * part.start), (mn0 + dn * y, ms0 + ds * y)
    if (
        (len(image) > 1 and image.step % back.span.step)
        or image[-1] not in back.span
        or back.role == run.role
        or back[2:] != (*run[2:5], _key(col, -off), 1)
        or not _lands(page, run.role, run.r, run.e0, base, mate_base)
    ):
        return None
    due = _cut(image, _due(page, mate_col, y, mate_base))
    if len(_cut(due, held)) != len(due):
        return None
    return len(part) if run.role == "source" else len(part) - len(_cut(image, held))


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
    E-infinity dimension, page.dims(einfty=True); applied lists the
    differentials as {"r", "source_label", "target_label"} records, ordered
    by (r, source base codegree, source label, target label): every pair
    with its source in the page, and every target's whose source is not.
    Raises WindowError, naming the kind and the towers, on the first
    problem pair_towers finds: never for pages built by e2_window, but it
    guards hand-edited ones."""
    pairing = pair_towers(page)
    for kind, found in pairing.problems.items():
        if found:
            raise WindowError(f"{kind}: {found[0]}")
    p = page.p
    einf = page.dims(einfty=True)
    pairs = []
    for col, _, _, pieces in page.runs():
        for run, part in pieces:
            for x in part if run.partner else ():
                key, mate = _key(col, x), _partner(run, x)
                if run.role == "source":
                    pairs.append((key, mate, run.r, run.e0))
                elif mate not in page:
                    pairs.append((mate, key, run.r, run.e0))
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
    exceptions.  The family counts are read run by run.  A window with no
    tower raises ValueError: it would pass without checking anything.
    """
    page = e2_window(p, n_lo, n_hi, s_max)
    if not len(page):
        raise ValueError(f"the window {n_lo}..{n_hi}, s <= {s_max} holds no tower")
    problems = pair_towers(page).problems
    families: Counter = Counter()
    for *_, pieces in page.runs():
        for run, part in pieces:
            if run.family:
                families[run.family, run.role] += len(part)
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
    anything.  The replay spells no record: E-infinity is
    page.dims(einfty=True), every tower cut by its fate, and the
    differential count is pair_towers'.  A broken tower pairing fails the
    audit, its problems listed under matching_audit's keys.
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
    mismatches = [
        {"n": n, "s": s, "einfty": einf.get((n, s), 0), "chart": chart_counts[n, s]}
        for n, s in sorted(set(einf) | set(chart_counts))
        if einf.get((n, s), 0) != chart_counts[n, s]
    ]
    totals: Counter = Counter()
    for (n, _), v in einf.items():
        totals[n] += v
    length_mismatches = [
        {"n": n, "einfty": totals[n], "ku_length": lengths[n]}
        for n in range(n_hi + 1)
        if totals[n] != lengths[n]
    ]

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
    for n in range(n_max + 1):
        for s in range(s_max + 1):
            want = closed.get((n, s), 0)
            got = oracle.get((n, s), 0)
            if s == 0 and n >= 2 * p:
                want += gens[n - 2 * p]
                got += free.get(n - 2 * p, 0)
            if n == 0:
                want += 1
            if got != want:
                mismatches.append({"n": n, "s": s, "oracle": got, "closed_plus_free": want})
    return {
        "p": p,
        "n_max": n_max,
        "s_max": s_max,
        "module_cutoff": need,
        "checked": (n_max + 1) * (s_max + 1),
        "mismatches": mismatches,
        "ok": not mismatches,
    }
