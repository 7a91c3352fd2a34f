"""E1-module oracles for the mod-p cohomology of K(Z/p, 2).

E1 = E[Q0, Q1] is the exterior algebra on the first two Milnor primitives
(|Q0| = 1, |Q1| = 2p-1).  Everything the chart modules assert is, at bottom,
a statement about Ext over E1, so this file carries the independent
verification side of the package, and imports none of model.py's closed forms:

* build_HK2 -- H*(K(Z/p,2); F_p) as an explicit E1-module: monomial basis,
  Q0 and Q1 extended by the Leibniz rule (with Koszul signs at odd primes)
  from hk2_generators' table of generator images, each product found by
  key arithmetic.
* margolis_homology -- per-degree dims of H(M; Q0) or H(M; Q1), by ranks.
* strip_free -- M / F for the free summand F spanned by the basis elements
  whose Q0Q1 images are independent, with F's generator count per degree,
  in one pass up the degrees that holds about 2(2p-1) degrees at a time.
  A free summand has no Margolis homology and one Ext class, so the
  Margolis and Ext audits rank only M / F, which keeps 5-20% of H*(K2).
* ext_bruteforce -- Ext_{E1}(F_p, M) dimensions computed literally from the
  standard Koszul-type resolution of the ground field, its boundary
  matrices laid out straight from the stored Q-maps.

Module layout: per degree, a list of basis entries, and Q0, Q1 as (source
position, target position, coeff) triples that every consumer reads as
stored.  Hand-written modules list their labels, spelled once in
from_labels; a monomial module lists the integer keys of its monomials
and spells a label from its key only when something reads it (labels).

Monomial bases: each generator (GenSpec) carries an exponent cap `top`
(None for a polynomial generator, 1 for an exterior one, p-1 or p-2 for
the truncated cofactors of R), and a basis is every exponent vector under
the degree cutoff, from monomial.bounded_exponents.  A product whose
exponent passes its cap is zero.

Degree-truncation discipline: every E1Module records the cutoff through
which its basis is complete.  Q-images landing above the cutoff are not
stored, so consumers must (and do) check the margin they need instead of
silently reading truncated maps.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

# gf_rank is not called here, but perfbench/tracer.py wraps it at this lookup site
from .linalg import Echelon, gf_rank, gf_rank_sparse  # noqa: F401
from .monomial import bounded_exponents
from .series import PSeries

# Cutoff sentinel for modules that are finite (complete in all degrees).
EXACT = 10**9

Mono = tuple[tuple[int, int], ...]  # ((generator index, exponent), ...), sorted


# ---------------------------------------------------------------------------
# graded-commutative monomial algebra with a derivation action
# ---------------------------------------------------------------------------


class GenSpec(NamedTuple):
    name: str
    degree: int
    top: int | None = None  # exponent cap: 1 for exterior, None for polynomial


def _mono_label(m: Mono, gens) -> str:
    if not m:
        return "1"
    return " ".join(
        g_.name if e == 1 else f"{g_.name}^{e}" for g_, e in ((gens[g], e) for g, e in m)
    )


# ---------------------------------------------------------------------------
# E1-modules
# ---------------------------------------------------------------------------


class E1Module:
    """Degreewise F_p vector space with Q0 (degree +1) and Q1 (degree +2p-1).

    `by_degree[d]` lists the basis of degree d (complete through `cutoff`);
    a basis element is addressed by its degree and its position in that
    list.  The entries are the labels themselves, or, when `spell` is set,
    keys that `spell` turns into labels: a monomial module keys its basis
    by exponent integers and spells a label only when one is read
    (labels).  `q0[d]`/`q1[d]` give the action on degree d as (source
    position, target position, coeff) triples, the target read in degree
    d+1 or d+2p-1, recorded only when that degree is <= cutoff.
    """

    def __init__(self, p: int, cutoff: int, by_degree: dict[int, list] | None = None, spell=None):
        self.p, self.cutoff, self.q0, self.q1, self.spell = p, cutoff, {}, {}, spell
        self.by_degree = {} if by_degree is None else by_degree

    @staticmethod
    def from_labels(p: int, cutoff: int, basis, q0, q1) -> "E1Module":
        """The module on `basis` ([(label, degree), ...], listed in basis
        order) whose Q-maps are spelled by label: {label: {label: coeff}}."""
        mod = E1Module(p, cutoff)
        where: dict[str, tuple[int, int]] = {}
        for label, d in basis:
            if label in where:
                raise ValueError(f"duplicate basis label {label!r}")
            labels = mod.by_degree.setdefault(d, [])
            where[label] = (d, len(labels))
            labels.append(label)
        for name, qmap, out, shift in (("q0", q0, mod.q0, 1), ("q1", q1, mod.q1, 2 * p - 1)):
            for label, img in qmap.items():
                d, s = where[label]
                for t, c in img.items():
                    dt, pos = where[t]
                    if dt != d + shift:
                        raise ValueError(f"{name}[{label}] is not degree +{shift}")
                    out.setdefault(d, []).append((s, pos, c))
        return mod

    def dim_at(self, n: int) -> int:
        return len(self.by_degree.get(n, ()))

    def labels(self, n: int) -> list[str]:
        """The labels of degree n's basis, in basis order."""
        basis = self.by_degree.get(n, [])
        return list(basis) if self.spell is None else [self.spell(k) for k in basis]

    def ps(self) -> PSeries:
        """Dimensions through the cutoff (through the top degree of a finite
        module)."""
        top = self.cutoff if self.cutoff < EXACT else max(self.by_degree, default=0)
        return PSeries(top, [self.dim_at(d) for d in range(top + 1)])

    # -- constructions -----------------------------------------------------

    @staticmethod
    def direct_sum(mods: list["E1Module"]) -> "E1Module":
        """Summand i's labels get the prefix "i:" and follow summands
        0..i-1 in every degree."""
        p = mods[0].p
        if any(m.p != p for m in mods):
            raise ValueError("direct_sum across different primes")
        out = E1Module(p, min(m.cutoff for m in mods))
        for i, m in enumerate(mods):
            # where summand i starts in each degree of the sum
            start = {d: out.dim_at(d) for d in m.by_degree}
            for d in sorted(m.by_degree):
                out.by_degree.setdefault(d, []).extend(f"{i}:{lbl}" for lbl in m.labels(d))
            for q, qo, shift in ((m.q0, out.q0, 1), (m.q1, out.q1, 2 * p - 1)):
                for d, triples in q.items():
                    a, b = start[d], start[d + shift]
                    qo.setdefault(d, []).extend((s + a, t + b, c) for s, t, c in triples)
        return out

    def times(self, gens: list[GenSpec], D: int) -> "E1Module":
        """self times the Q-trivial monomial module on `gens` through D:
        a*m sits in degree |a| + |m| and Q(a*m) = (Qa)*m, with no sign, as
        Q kills m and m stands on the right.  Degree n lists the products
        block by block, |a| ascending, each block a-major: a at position i
        of degree da times the monomial at position j of degree n - da sits
        at start[n, da] + i * w + j, w the monomial count of degree n - da."""
        factors = [(g.degree, g.top) for g in gens]
        monos: dict[int, list[str]] = {}
        for d, m in sorted((d, m) for m, d in bounded_exponents(factors, D)):
            monos.setdefault(d, []).append(_mono_label(m, gens))
        out = E1Module(self.p, min(self.cutoff, D))
        start: dict[tuple[int, int], int] = {}
        for da in sorted(self.by_degree):
            left = self.labels(da)
            for dm in sorted(monos):
                if da + dm > out.cutoff:
                    break
                basis = out.by_degree.setdefault(da + dm, [])
                start[da + dm, da] = len(basis)
                basis += [f"{a}*{m}" for a in left for m in monos[dm]]
        for q, qo, shift in ((self.q0, out.q0, 1), (self.q1, out.q1, 2 * self.p - 1)):
            for (n, da), s0 in start.items():
                if da in q and n + shift <= out.cutoff:
                    t0, w = start[n + shift, da + shift], len(monos[n - da])
                    qo.setdefault(n, []).extend(
                        (s0 + i * w + j, t0 + t * w + j, c) for i, t, c in q[da] for j in range(w)
                    )
        return out

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Targets inside the basis with nonzero coefficients, and Q0^2 =
        Q1^2 = 0 and Q0Q1 + Q1Q0 = 0 on every basis element far enough
        below the cutoff; an error names the first bad label."""
        p, w = self.p, 2 * self.p - 1
        for name, q, shift in (("q0", self.q0, 1), ("q1", self.q1, w)):
            for d, triples in q.items():
                for s, t, c in triples:
                    if t >= self.dim_at(d + shift):
                        raise ValueError(f"{name}[{self.labels(d)[s]}] is not degree +{shift}")
                    if c % p == 0:
                        raise ValueError(f"{name}[{self.labels(d)[s]}] stores a zero coefficient")

        def compose(first, d, second, e) -> dict[tuple[int, int], int]:
            """{(source, target): coeff} of `second` (read at degree e)
            after `first` (read at degree d)."""
            after = _by_source(second.get(e, ()))
            out: dict[tuple[int, int], int] = {}
            for s, m, c in first.get(d, ()):
                for t, c2 in after.get(m, ()):
                    out[s, t] = (out.get((s, t), 0) + c * c2) % p
            return out

        for d in self.by_degree:
            checks = []
            if d + 2 <= self.cutoff:
                checks.append(("Q0^2 != 0", compose(self.q0, d, self.q0, d + 1)))
            if d + 2 * w <= self.cutoff:
                checks.append(("Q1^2 != 0", compose(self.q1, d, self.q1, d + w)))
            if d + w + 1 <= self.cutoff:
                anti = compose(self.q1, d, self.q0, d + w)
                for k, c in compose(self.q0, d, self.q1, d + 1).items():
                    anti[k] = (anti.get(k, 0) + c) % p
                checks.append(("Q0Q1 + Q1Q0 != 0", anti))
            bad = [(s, i) for i, (_, prod) in enumerate(checks) for (s, _), c in prod.items() if c]
            if bad:
                s, i = min(bad)
                raise ValueError(f"{checks[i][0]} on {self.labels(d)[s]}")


def _module_from_monomials(p: int, gens: list[GenSpec], D: int, images0, images1) -> E1Module:
    """The monomial module with Q0, Q1 extended from the generator images
    ({generator: (h, f, c)}, meaning Q(gen) = c gen_h^f) by the Leibniz
    rule.  A monomial is keyed by its exponent vector read in mixed radix,
    the exponent of g being key // weight[g] % radix[g], and the basis
    holds those keys, sorted by degree, then by the (generator, exponent)
    pairs, and spelled on read.  Each generator's rule is worked out once
    per map: m / g * gen_h^f is key + f * weight[h] - weight[g] (radix[h]
    holds every exponent of degree <= D, so nothing carries), and it is
    not a basis key exactly when the product passes h's cap.  Two rules
    move different exponents, so they never reach one target from one
    source, and with c a unit no stored coefficient is zero."""
    weight, radix, w = [], [], 1
    for g in gens:
        weight.append(w)
        radix.append(D // g.degree + 1)
        w *= radix[-1]
    found: dict[int, list[Mono]] = {}
    for m, d in bounded_exponents([(g.degree, g.top) for g in gens], D):
        found.setdefault(d, []).append(m)

    def spell(key: int) -> str:
        m = [(g, e) for g, w in enumerate(weight) if (e := key // w % radix[g])]
        return _mono_label(m, gens)

    mod = E1Module(p, D, spell=spell)
    for d in sorted(found):
        mod.by_degree[d] = [sum([e * weight[g] for g, e in m]) for m in sorted(found.pop(d))]
    at = {key: i for keys in mod.by_degree.values() for i, key in enumerate(keys)}.get
    # a Koszul sign: Q crosses the odd factors left of an odd g, the odd
    # image of an even g those left of its generator h
    odd = [(1 << g, weight[g], radix[g]) for g, gen in enumerate(gens) if p != 2 and gen.degree & 1]
    maps = [
        (qmap, shift, [
            (weight[g], radix[g], f * weight[h] - weight[g],
             (1 << (g if gens[g].degree & 1 else h)) - 1, (c % p, -c % p))
            for g, (h, f, c) in sorted(images.items())
        ])
        for images, qmap, shift in ((images0, mod.q0, 1), (images1, mod.q1, 2 * p - 1))
    ]
    for d, keys in mod.by_degree.items():
        # each monomial's odd factors of odd exponent as a bitmask
        masks = [sum([bit for bit, w, r in odd if key // w % r & 1]) for key in keys]
        for qmap, shift, rules in maps:
            if d + shift > D:
                continue
            triples: list[tuple[int, int, int]] = []
            for wg, rg, delta, crossed, coeff in rules:
                triples += [
                    (s, t, e * coeff[(masks[s] & crossed).bit_count() & 1] % p)
                    for s, key in enumerate(keys)
                    if (e := key // wg % rg) % p and (t := at(key + delta)) is not None
                ]
            if triples:
                triples.sort(key=itemgetter(0))  # by source, rules in generator order
                qmap[d] = triples
    return mod


# ---------------------------------------------------------------------------
# H*(K(Z/p,2)) and its Margolis homology
# ---------------------------------------------------------------------------


def hk2_generators(p: int, D: int) -> tuple[list[GenSpec], dict, dict]:
    """H*(K(Z/p, 2))'s generators through degree D and its Q0, Q1 images,
    as (gens, images0, images1), images {generator: (h, f, c)} as
    _module_from_monomials reads them.

    p = 2: polynomial on u_{2^j+1} (u_2 the fundamental class, each next
    generator its iterated Sq), with
        Q0: u_2 -> u_3,  u_{2^j+1} -> u_{2^{j-1}+1}^2   (j >= 2)
        Q1: u_2 -> u_5,  u_3 -> u_3^2,  u_{2^j+1} -> u_{2^{j-2}+1}^4  (j >= 3)
    p odd: P[y_0] x P[g_1, g_2, ...] x E[u_0, u_1, ...] with |y_0| = 2,
    |g_j| = 2(p^j+1), |u_i| = 2p^i+1, and
        Q0: y_0 -> u_0,  u_i -> g_i            (i >= 1)
        Q1: y_0 -> u_1,  u_0 -> -g_1,  u_i -> g_{i-1}^p  (i >= 2)
    (the sign on Q1 u_0 is forced by Q0Q1 + Q1Q0 = 0 on y_0).  Each rule
    (source, target, exponent, coeff) reads Q(source) = coeff target^exponent
    and applies when both generators lie in the cutoff.
    """
    if D < 0:
        raise ValueError("cutoff must be nonnegative")
    js = range(D.bit_length())  # p^j <= D needs j < D.bit_length()
    if p == 2:
        gens = [GenSpec(f"u{2**j + 1}", 2**j + 1) for j in js if 2**j + 1 <= D]
        u = [g.name for g in gens]
        rules = (
            [("u2", "u3", 1, 1)] + [(u[j], u[j - 1], 2, 1) for j in range(2, len(u))],
            [("u2", "u5", 1, 1), ("u3", "u3", 2, 1)]
            + [(u[j], u[j - 2], 4, 1) for j in range(3, len(u))],
        )
    else:
        u = [f"u{i}" for i in js if 2 * p**i + 1 <= D]
        gens = [GenSpec("y0", 2)]
        gens += [GenSpec(f"g{j}", 2 * (p**j + 1)) for j in js if j and 2 * (p**j + 1) <= D]
        gens += [GenSpec(name, 2 * p**i + 1, top=1) for i, name in enumerate(u)]
        rules = (
            [("y0", "u0", 1, 1)] + [(u[i], f"g{i}", 1, 1) for i in range(1, len(u))],
            [("y0", "u1", 1, 1), ("u0", "g1", 1, p - 1)]
            + [(u[i], f"g{i - 1}", p, 1) for i in range(2, len(u))],
        )
    at = {g.name: i for i, g in enumerate(gens)}
    images0, images1 = (
        {at[s]: (at[t], f, c) for s, t, f, c in table if s in at and t in at} for table in rules
    )
    return gens, images0, images1


@lru_cache(maxsize=None)
def build_HK2(p: int, D: int) -> E1Module:
    """The full mod-p cohomology of K(Z/p, 2) through degree D: the monomials
    on hk2_generators' generators, Q0 and Q1 by the Leibniz rule."""
    gens, images0, images1 = hk2_generators(p, D)
    return _module_from_monomials(p, gens, D, images0, images1)


def margolis_homology(M: E1Module, which: str, D: int) -> list[int]:
    """dims of H(M; Q) in degrees 0..D for Q in {"Q0", "Q1"}."""
    if which not in ("Q0", "Q1"):
        raise ValueError("which must be 'Q0' or 'Q1'")
    shift = 1 if which == "Q0" else 2 * M.p - 1
    if M.cutoff < D + shift:
        raise ValueError(
            f"module cutoff {M.cutoff} too small: H(Q) at degree {D} needs {D + shift}"
        )
    qmap = M.q0 if which == "Q0" else M.q1
    ranks = [
        gf_rank_sparse(qmap.get(n, []), M.dim_at(n), M.dim_at(n + shift), M.p)
        for n in range(D + 1)
    ]
    return [
        M.dim_at(n) - ranks[n] - (ranks[n - shift] if n >= shift else 0) for n in range(D + 1)
    ]


# ---------------------------------------------------------------------------
# the free summands
# ---------------------------------------------------------------------------


def _by_source(triples) -> dict[int, list[tuple[int, int]]]:
    """{source position: [(target position, coeff), ...]} of one degree."""
    out: dict[int, list[tuple[int, int]]] = {}
    for s, t, c in triples:
        if s in out:
            out[s].append((t, c))
        else:
            out[s] = [(t, c)]
    return out


def _free_generators(p: int, q0: dict, q1: dict, d: int) -> tuple[dict, list[int]]:
    """Degree d's Q0Q1 images ({position: (target, coeff) pairs}, read off
    the by-source maps q1[d] and q0[d + 2p - 1]) and the positions whose
    images are linearly independent, taken greedily in basis order.  Q0Q1
    vanishes on every E1-module without a free summand, so their count is
    the number of free summands generated in degree d, and E1 times them
    is a free submodule."""
    after = q0[d + 2 * p - 1]
    socle = {
        s: [(t, c1 * c0) for m, c1 in img for t, c0 in after.get(m, ())]
        for s, img in q1[d].items()
    }
    span = Echelon(p)
    return socle, [s for s, vec in socle.items() if span.add(vec)]


def strip_free(M: E1Module) -> tuple[E1Module, dict[int, int]]:
    """M' = M / F for a free summand F, and the number of free generators of
    F in each degree (zeros omitted).

    F is E1 times the generators of _free_generators, so it holds every free
    summand generated in a degree d <= cutoff - 2p; one generated higher is
    not complete below the cutoff and stays in M'.  E1 is a Frobenius
    algebra, so the free submodule F is injective and M = F + M'; a free
    summand has no Margolis homology and adds to Ext one class, at (d + 2p,
    0).  M' keeps the cutoff and the basis entries of M: its basis in degree
    d is the basis elements of M outside the lead columns of F_d in echelon
    form, and its Q-images are those of M reduced modulo F.

    One pass up the degrees e: degree e's Q-maps are grouped by source,
    degree e - w (w = 2p - 1) gets its socle, its generators and F in
    echelon form, and degree e - 2w, whose images reduce against echelons
    now complete, is written out; then what no later degree reads is
    dropped, so the pass holds about 2w degrees of M's maps at a time."""
    p, w = M.p, 2 * M.p - 1
    out, counts = E1Module(p, M.cutoff, spell=M.spell), {}
    q0, q1, socles, gens, spans, kept = {}, {}, {}, {}, {}, {}
    lo, hi = min(M.by_degree, default=0), max(M.by_degree, default=0)
    for e in range(lo, hi + 2 * w + 1):
        q0[e], q1[e] = _by_source(M.q0.get(e, ())), _by_source(M.q1.get(e, ()))
        x = e - w  # Q0Q1 on degree x lands in degree e + 1
        if q1.get(x) and x + 2 * p <= M.cutoff:
            socles[x], gens[x] = _free_generators(p, q0, q1, x)
            if gens[x]:
                counts[x] = len(gens[x])
        if x in M.by_degree:
            # F_x = span(S_x, Q0 S_{x-1}, Q1 S_{x-w}, Q0Q1 S_{x-2p}) in echelon form
            span = spans[x] = Echelon(p)
            for s in gens.get(x, ()):
                span.add([(s, 1)])
            for img, x0 in ((q0, x - 1), (q1, x - w), (socles, x - 2 * p)):
                for s in gens.get(x0, ()):
                    span.add(img[x0].get(s, ()))
            keep = [i for i in range(M.dim_at(x)) if i not in span.rows]
            if keep:
                kept[x] = {i: j for j, i in enumerate(keep)}
                out.by_degree[x] = [M.by_degree[x][i] for i in keep]
        d = e - 2 * w
        for q, qo, shift in ((q0, out.q0, 1), (q1, out.q1, w)):
            new, target, img = kept.get(d), kept.get(d + shift), q.get(d)
            if new and target and img:
                reduce = spans[d + shift].reduce
                triples = [
                    (j, target[t], c) for i, j in new.items() if i in img for t, c in reduce(img[i])
                ]
                if triples:
                    qo[d] = triples
        for held in (q0, q1, spans, kept):
            held.pop(d, None)
        socles.pop(d - 1, None)
        gens.pop(d - 1, None)
    return out, counts


# ---------------------------------------------------------------------------
# brute-force Ext over E1
# ---------------------------------------------------------------------------


def ext_cutoff(p: int, n_max: int, s_max: int) -> int:
    """The top module degree the Ext window n <= n_max, s <= s_max reads:
    C^s at chart position (n, s) reaches M_{(n-s)+(2p-1)s}, and its
    coboundary one Q1 step higher."""
    return max((n_max - s) + (2 * p - 1) * (s + 1) for s in range(s_max + 1))


def ext_bruteforce(
    M: E1Module, n_range: tuple[int, int], s_max: int
) -> dict[tuple[int, int], int]:
    """dim Ext_{E1}^{s}(F_p, M) by chart position, from the Koszul-type
    resolution of the ground field.

    The resolution's rank-(s+1) stage has generators x0^a x1^b (a+b = s) in
    internal degree a + (2p-1)b; dualizing, the cochain complex in internal
    slope t' is C^s = sum over a+b=s of M_{t'+a+(2p-1)b} with boundary
    (m,a,b) -> (Q0 m, a+1, b) + (Q1 m, a, b+1) and no extra signs (the
    squares and the anticommutator of Q0, Q1 vanish, so d^2 = 0).  A class
    in C^s over slope t' sits at chart position (n, s) = (t'+s, s): module
    socle classes land at (|m|, 0), h0 preserves n, v drops it by 2p-2.

    Returns {(n, s): dim} for n_range[0] <= n <= n_range[1], 0 <= s <= s_max,
    omitting zero entries.  Raises when the window needs degrees beyond the
    module's cutoff.
    """
    n0, n1 = n_range
    p, w = M.p, 2 * M.p - 1
    need = ext_cutoff(p, n1, s_max)
    if need > M.cutoff:
        raise ValueError(
            f"window needs module degrees through {need}, cutoff is {M.cutoff}"
        )

    ranks: dict[tuple[int, int], int] = {}

    def rank_delta(tp: int, sigma: int) -> int:
        """Rank of C^sigma -> C^(sigma+1), one row per source basis element;
        block b of C^sigma sits in degree tp + sigma + (w-1)b."""
        if sigma < 0:
            return 0
        if (tp, sigma) not in ranks:
            off = [0]
            for b in range(sigma + 2):
                off.append(off[-1] + M.dim_at(tp + sigma + 1 + (w - 1) * b))
            entries: list[tuple[int, int, int]] = []
            row = 0
            for b in range(sigma + 1):
                d = tp + sigma + (w - 1) * b
                entries += [(row + j, off[b] + i, c) for j, i, c in M.q0.get(d, ())]
                entries += [(row + j, off[b + 1] + i, c) for j, i, c in M.q1.get(d, ())]
                row += M.dim_at(d)
            ranks[(tp, sigma)] = gf_rank_sparse(entries, row, off[-1], p)
        return ranks[(tp, sigma)]

    out: dict[tuple[int, int], int] = {}
    for n in range(n0, n1 + 1):
        for s in range(s_max + 1):
            tp = n - s
            dim = sum(M.dim_at(n + (w - 1) * b) for b in range(s + 1))
            dim -= rank_delta(tp, s) + rank_delta(tp, s - 1)
            if dim < 0:
                raise ArithmeticError(f"negative Ext dimension at {(n, s)}")
            if dim:
                out[(n, s)] = dim
    return out
