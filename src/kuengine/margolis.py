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
  whose Q0Q1 images are independent, with F's generator count per degree.
  A free summand has no Margolis homology and one Ext class, so the
  Margolis and Ext audits rank only M / F, which keeps 5-20% of H*(K2).
* ext_bruteforce -- Ext_{E1}(F_p, M) dimensions computed literally from the
  standard Koszul-type resolution of the ground field, its boundary
  matrices laid out straight from the stored Q-maps.

Module layout: per degree, a list of basis labels, and Q0, Q1 as (source
position, target position, coeff) triples that every consumer reads as
stored.  Hand-written modules spell their labels once, in from_labels.

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

    `by_degree[d]` lists the basis labels of degree d (complete through
    `cutoff`); a basis element is addressed by its degree and its position
    in that list.  `q0[d]`/`q1[d]` give the action on degree d as
    (source position, target position, coeff) triples, the target read in
    degree d+1 or d+2p-1, recorded only when that degree is <= cutoff.
    """

    def __init__(self, p: int, cutoff: int, by_degree: dict[int, list[str]] | None = None):
        self.p, self.cutoff, self.q0, self.q1 = p, cutoff, {}, {}
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

    def ps(self) -> PSeries:
        """Dimensions through the cutoff (through the top degree of a finite
        module)."""
        top = self.cutoff if self.cutoff < EXACT else max(self.by_degree, default=0)
        return PSeries.from_degrees(
            top, (d for d, ls in self.by_degree.items() for _ in ls)
        )

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
                out.by_degree.setdefault(d, []).extend(f"{i}:{lbl}" for lbl in m.by_degree[d])
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
            for dm in sorted(monos):
                if da + dm > out.cutoff:
                    break
                basis = out.by_degree.setdefault(da + dm, [])
                start[da + dm, da] = len(basis)
                basis += [f"{a}*{m}" for a in self.by_degree[da] for m in monos[dm]]
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
                        raise ValueError(f"{name}[{self.by_degree[d][s]}] is not degree +{shift}")
                    if c % p == 0:
                        raise ValueError(f"{name}[{self.by_degree[d][s]}] stores a zero coefficient")

        def compose(first, d, second, e) -> dict[tuple[int, int], int]:
            """{(source, target): coeff} of `second` (read at degree e)
            after `first` (read at degree d)."""
            after = _by_source(second.get(e, ()))
            out: dict[tuple[int, int], int] = {}
            for s, m, c in first.get(d, ()):
                for t, c2 in after.get(m, ()):
                    out[s, t] = (out.get((s, t), 0) + c * c2) % p
            return out

        for d, basis in self.by_degree.items():
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
                raise ValueError(f"{checks[i][0]} on {basis[s]}")


def _module_from_monomials(p: int, gens: list[GenSpec], D: int, images0, images1) -> E1Module:
    """The monomial module with Q0, Q1 extended from the generator images
    ({generator: (h, f, c)}, meaning Q(gen) = c gen_h^f) by the Leibniz
    rule.  A monomial is keyed by its exponent vector read in mixed radix,
    so m / g * gen_h^f is key - weight[g] + f * weight[h]."""
    mod = E1Module(p, D)
    found = bounded_exponents([(g.degree, g.top) for g in gens], D)
    monos = sorted((d, m) for m, d in found)
    weight, radix = [], 1
    for g in gens:
        weight.append(radix)
        radix *= (D // g.degree if g.top is None else g.top) + 1
    position: dict[int, int] = {}  # key -> position in its degree
    for d, m in monos:
        basis = mod.by_degree.setdefault(d, [])
        position[sum(e * weight[g] for g, e in m)] = len(basis)
        basis.append(_mono_label(m, gens))
    odd = [p != 2 and g.degree & 1 for g in gens]
    for (d, m), (key, s) in zip(monos, position.items()):
        # odd factors of m as a bitmask: Q crosses those left of an odd g,
        # the odd image of an even g crosses those left of its generator h
        mask = sum(1 << g for g, e in m if odd[g] and e & 1)
        for images, qmap, shift in ((images0, mod.q0, 1), (images1, mod.q1, 2 * p - 1)):
            if d + shift > D:
                continue
            img: dict[int, int] = {}
            for g, e in m:
                if g not in images or not e % p:
                    continue
                h, f, c = images[g]
                top = gens[h].top
                if top is not None and key // weight[h] % (top + 1) - (h == g) + f > top:
                    continue  # the product passes h's cap
                if (mask & ((1 << (g if odd[g] else h)) - 1)).bit_count() & 1:
                    c = -c
                t = position[key - weight[g] + f * weight[h]]
                img[t] = (img.get(t, 0) + e * c) % p
            triples = [(s, t, c) for t, c in img.items() if c]
            if triples:
                qmap.setdefault(d, []).extend(triples)
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


def _free_generators(p: int, socles: dict[int, dict[int, list]]) -> dict[int, list[int]]:
    """Positions in each degree d whose Q0Q1 images (socles[d]: {position:
    (target, coeff) pairs}) are linearly independent, taken greedily in
    basis order.  Q0Q1 vanishes on every E1-module without a free summand,
    so their count is the number of free summands generated in degree d,
    and E1 times them is a free submodule."""
    out: dict[int, list[int]] = {}
    for d in sorted(socles):
        span = Echelon(p)
        gens = [s for s, vec in socles[d].items() if span.add(vec)]
        if gens:
            out[d] = gens
    return out


def strip_free(M: E1Module) -> tuple[E1Module, dict[int, int]]:
    """M' = M / F for a free summand F, and the number of free generators of
    F in each degree (zeros omitted).

    F is E1 times the generators of _free_generators, so it holds every free
    summand generated in a degree d <= cutoff - 2p; one generated higher is
    not complete below the cutoff and stays in M'.  E1 is a Frobenius
    algebra, so the free submodule F is injective and M = F + M'; a free
    summand has no Margolis homology and adds to Ext one class, at (d + 2p,
    0).  M' keeps the cutoff and the labels of M: its basis in degree d is
    the basis elements of M outside the lead columns of F_d in echelon form,
    and its Q-images are those of M reduced modulo F."""
    p, w = M.p, 2 * M.p - 1
    q0, q1 = ({d: _by_source(t) for d, t in q.items()} for q in (M.q0, M.q1))
    socles: dict[int, dict[int, list[tuple[int, int]]]] = {}  # Q0Q1, as q0 and q1
    for d, images in q1.items():
        if d + 2 * p <= M.cutoff:
            after = q0.get(d + w, {})
            socles[d] = {
                s: [(t, c1 * c0) for m, c1 in img for t, c0 in after.get(m, ())]
                for s, img in images.items()
            }
    gens = _free_generators(p, socles)
    # F_d = span(S_d, Q0 S_{d-1}, Q1 S_{d-w}, Q0Q1 S_{d-2p}) in echelon form
    spans: dict[int, Echelon] = {}
    for d in M.by_degree:
        span = spans[d] = Echelon(p)
        for s in gens.get(d, ()):
            span.add([(s, 1)])
        for img, d0 in ((q0, d - 1), (q1, d - w), (socles, d - 2 * p)):
            for s in gens.get(d0, ()):
                span.add(img[d0].get(s, ()))
    out = E1Module(p, M.cutoff)
    kept: dict[int, dict[int, int]] = {}  # degree -> {old position: new}
    for d, labels in M.by_degree.items():
        keep = [i for i in range(len(labels)) if i not in spans[d].rows]
        if keep:
            kept[d] = {i: j for j, i in enumerate(keep)}
            out.by_degree[d] = [labels[i] for i in keep]
    for q, qo, shift in ((q0, out.q0, 1), (q1, out.q1, w)):
        for d, new in kept.items():
            if d + shift not in kept or d not in q:
                continue
            img, span, target = q[d], spans[d + shift], kept[d + shift]
            triples = [
                (j, target[t], c) for i, j in new.items() for t, c in span.reduce(img.get(i, ()))
            ]
            if triples:
                qo[d] = triples
    return out, {d: len(s) for d, s in gens.items()}


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
