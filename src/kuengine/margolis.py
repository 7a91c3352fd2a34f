"""E1-module oracles for the mod-p cohomology of K(Z/p, 2).

E1 = E[Q0, Q1] is the exterior algebra on the first two Milnor primitives
(|Q0| = 1, |Q1| = 2p-1).  Everything the chart modules assert is, at bottom,
a statement about Ext over E1, so this file carries the independent
verification side of the package:

* build_HK2 -- H*(K(Z/p,2); F_p) as an explicit E1-module: monomial basis,
  Q0 and Q1 extended by the Leibniz rule (with Koszul signs at odd primes)
  from hk2_generators' table of generator images, each product found by
  key arithmetic.
* margolis_homology -- per-degree dims of H(M; Q0) or H(M; Q1), plus the
  known closed forms they must reproduce (q0_homology_closed, ...).
* _N, _L, _M, _R, _S -- the small non-free modules N, L_k, M_j and the
  locally finite sums R, S = qR that carry all of the Margolis homology,
  one constructor each; E1Module.times, the one product (by a Q-trivial
  monomial module), makes R from the M_j and their cofactors, and
  assemble_T the non-free model with the unit class, P[y_1] x (1 + N + R
  + qR), so that H ~ unit + T + free.  Only N and the
  generator names differ by prime: L_k, M_j, R, S, both Margolis closed
  forms and T's Poincare series are one formula at every prime, indexed by
  k0 (2 at p = 2, 1 at odd p) with the paper's M_j index kept (j >= 2k0).
* free_part_ps -- counts of free E1 summands per generator degree, obtained
  by subtracting the non-free model's Poincare series from the full one.
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

from dataclasses import dataclass, field
from functools import lru_cache

# gf_rank is not called here, but perfbench/tracer.py wraps it at this lookup site
from .linalg import Echelon, gf_rank, gf_rank_sparse  # noqa: F401
from .monomial import bounded_exponents, k0, q_degree
from .series import PSeries, degree_rows, report

# Cutoff sentinel for modules that are finite (complete in all degrees).
EXACT = 10**9

Mono = tuple[tuple[int, int], ...]  # ((generator index, exponent), ...), sorted


# ---------------------------------------------------------------------------
# graded-commutative monomial algebra with a derivation action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
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


@dataclass
class E1Module:
    """Degreewise F_p vector space with Q0 (degree +1) and Q1 (degree +2p-1).

    `by_degree[d]` lists the basis labels of degree d (complete through
    `cutoff`); a basis element is addressed by its degree and its position
    in that list.  `q0[d]`/`q1[d]` give the action on degree d as
    (source position, target position, coeff) triples, the target read in
    degree d+1 or d+2p-1, recorded only when that degree is <= cutoff.
    """

    p: int
    cutoff: int
    by_degree: dict[int, list[str]] = field(default_factory=dict)
    q0: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    q1: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)

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

    def suspend(self, d: int) -> "E1Module":
        out = E1Module(self.p, min(self.cutoff + d, EXACT))
        out.by_degree = {deg + d: list(ls) for deg, ls in self.by_degree.items()}
        out.q0 = {deg + d: list(ts) for deg, ts in self.q0.items()}
        out.q1 = {deg + d: list(ts) for deg, ts in self.q1.items()}
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


def q0_homology_closed(p: int, D: int) -> PSeries:
    """Known closed form of H(H*K2; Q0): P[u_2^2] x E[x_5] at p = 2,
    P[y_1] x E[y_0^{p-1} u_0] at odd p (unit included); both are
    P[degree 2p] x E[degree 2p + 1]."""
    return PSeries.geometric(D, 2 * p) * (PSeries.one(D) + PSeries.monomial(D, 2 * p + 1))


def q1_homology_closed(p: int, D: int) -> PSeries:
    """Known closed form of H(H*K2; Q1), unit included: P[y_1] x E[q] x
    E[w_1] x TP_p[g_2, g_3, ...] at odd p, one formula at every prime as
        G(2p) (1 + x^|q|) (1 + x^(2p^(k0+1)+1)) prod_{j>k0} TP_p[2(p^j+1)].
    At p = 2 the product is P[u_2^2] x TP_4[x_9] x TP_4[x_17] x
    E[u_{2^j+1}^2 : j >= 5], as TP_4[x9] TP_4[x17] = E[9]E[18] E[17]E[34]."""
    kk = k0(p)
    out = PSeries.geometric(D, 2 * p)
    out = out * (PSeries.one(D) + PSeries.monomial(D, q_degree(p)))
    out = out * (PSeries.one(D) + PSeries.monomial(D, 2 * p ** (kk + 1) + 1))
    j = kk + 1
    while 2 * (p**j + 1) <= D:
        out = out * PSeries.truncated_poly(D, 2 * (p**j + 1), p)
        j += 1
    return out


# ---------------------------------------------------------------------------
# the non-free pieces
# ---------------------------------------------------------------------------


def _L(p: int, k: int) -> E1Module:
    if k < 0:
        raise ValueError("L_k needs k >= 0")
    step = 2 * (p - 1)
    basis = [(f"{x}{i}", step * i + (x == "b")) for i in range(k + 1) for x in "ab"]
    q0 = {f"a{i}": {f"b{i}": 1} for i in range(k + 1)}
    q1 = {f"a{i}": {f"b{i + 1}": 1} for i in range(k)}
    return E1Module.from_labels(p, EXACT, basis, q0, q1)


def _N(p: int) -> E1Module:
    if p == 2:
        basis = [(f"x{d}", d) for d in (5, 7, 8, 9, 10)]
        return E1Module.from_labels(
            p, EXACT, basis, {"x7": {"x8": 1}, "x9": {"x10": 1}}, {"x5": {"x8": 1}, "x7": {"x10": 1}}
        )
    # n1 = y0^{p-1} u0, q = y0^{p-1} u1, and c = Q0 q = Q1 n1
    basis = [("n1", 2 * p + 1), ("q", 4 * p - 1), ("c", 4 * p)]
    return E1Module.from_labels(p, EXACT, basis, {"q": {"c": 1}}, {"n1": {"c": 1}})


def _M(p: int, j: int) -> E1Module:
    """L_{j-2k0} with its bottom at 2p^(j-k0+1) + 1: 2^j + 1 at p = 2 (j >= 4)
    and 2p^j + 1 at odd p (j >= 2)."""
    kk = k0(p)
    if j < 2 * kk:
        raise ValueError(f"M_j at p = {p} needs j >= {2 * kk}")
    return _L(p, j - 2 * kk).suspend(2 * p ** (j - kk + 1) + 1)


def _R_terms(p: int, D: int):
    """(j, i, cofactor) for each M_j in R whose bottom 2p^i + 1 is <= D,
    i = j - k0 + 1: the (degree, exponent cap) factors of its Q-trivial
    cofactor TP_{p-1}[g_i] x TP_p[g_k : k > i], |g_k| = 2(p^k + 1).  At
    p = 2 the g_i factor is TP_1 = 1 and the rest is E[e_k : k >= j]."""
    kk = k0(p)
    i = kk + 1
    while 2 * p**i + 1 <= D:
        cof = [(2 * (p**i + 1), p - 2)]
        k = i + 1
        while 2 * (p**k + 1) <= D:
            cof.append((2 * (p**k + 1), p - 1))
            k += 1
        yield i + kk - 1, i, cof
        i += 1


def _R(p: int, D: int) -> E1Module:
    """Locally finite sum of M_j tensored with its Q-trivial cofactor."""
    if D < 0:
        raise ValueError("R needs a nonnegative cutoff")
    letter = "e" if p == 2 else "g"
    summands = [
        _M(p, j).times([GenSpec(f"{letter}{i + n}", d, top) for n, (d, top) in enumerate(cof)], D)
        for j, i, cof in _R_terms(p, D)
    ]
    return E1Module.direct_sum(summands) if summands else E1Module(p, D)


def _S(p: int, D: int) -> E1Module:
    """qR: R suspended by |q|, truncated at D."""
    q = q_degree(p)
    if D < q:  # the suspension starts above the cutoff: nothing survives
        return E1Module(p, D)
    return _R(p, D - q).suspend(q)


def assemble_T(p: int, D: int) -> E1Module:
    """The non-free model with the unit class, P[y_1] x (1 + N + R + qR),
    y_1 = u_2^2 at p = 2: the same module as 1 + P[y_1] x (<y_1> + N + R +
    qR), built as one product by the Q-trivial P[y_1].  Its Margolis
    homology is degreewise that of H*K2."""
    name = "u2^2" if p == 2 else "y1"  # the generator of degree 2p
    inner = E1Module.direct_sum([E1Module(p, EXACT, {0: ["1"]}), _N(p), _R(p, D), _S(p, D)])
    return inner.times([GenSpec(name, 2 * p)], D)


# ---------------------------------------------------------------------------
# free part generating function
# ---------------------------------------------------------------------------


def _ps_L(p: int, k: int, top: int) -> PSeries:
    step = 2 * (p - 1)
    body = PSeries(top)
    for i in range(k + 1):
        if step * i > top:
            break
        body.c[step * i] = 1
    return (PSeries.one(top) + PSeries.monomial(top, 1)) * body


def free_part_total_ps(p: int, D: int) -> PSeries:
    """Poincare series of the free complement of unit + T inside H*K2.

    Only H*K2's product and N's degrees are written per prime; T's series
    G(2p) (1 + N + (1 + x^|q|) R) is one formula, R the sum over j >= 2k0
    of M_j's series times its cofactor's (_R_terms)."""
    one = PSeries.one(D)
    if p == 2:
        full = one
        j = 0
        while 2**j + 1 <= D:
            full = full * PSeries.geometric(D, 2**j + 1)
            j += 1
        ps_n = PSeries.from_degrees(D, (5, 7, 8, 9, 10))
    else:
        full = PSeries.geometric(D, 2)
        j = 1
        while 2 * (p**j + 1) <= D:
            full = full * PSeries.geometric(D, 2 * (p**j + 1))
            j += 1
        i = 0
        while 2 * p**i + 1 <= D:
            full = full * (one + PSeries.monomial(D, 2 * p**i + 1))
            i += 1
        ps_n = PSeries.from_degrees(D, (2 * p + 1, 4 * p - 1, 4 * p))
    tail = PSeries(D)
    for j, i, cof in _R_terms(p, D):
        term = _ps_L(p, j - 2 * k0(p), D).shift(2 * p**i + 1)
        for d, top in cof:
            term = term * PSeries.truncated_poly(D, d, top + 1)
        tail = tail + term
    return full - PSeries.geometric(D, 2 * p) * (
        one + ps_n + (one + PSeries.monomial(D, q_degree(p))) * tail
    )


def free_part_ps(p: int, D: int) -> PSeries:
    """Per-degree counts of free E1 summands (generator degrees).

    A free summand on a generator in degree d spans classes in degrees
    d, d+1, d+2p-1, d+2p, so the total series divides exactly by
    (1+x)(1+x^{2p-1}); a negative coefficient anywhere signals a
    transcription bug in the subtraction and raises."""
    total = free_part_total_ps(p, D)
    one = PSeries.one(D)
    gens = total.divide_exact(
        (one + PSeries.monomial(D, 1)) * (one + PSeries.monomial(D, 2 * p - 1))
    )
    for series, tag in ((total, "total"), (gens, "generator")):
        for d, c in enumerate(series.c):
            if c < 0:
                raise ArithmeticError(f"negative free-part {tag} count {c} at degree {d}")
    return gens


def trivial_summand_counts(p: int, D: int) -> PSeries:
    """Counts of trivial ku*-module summands by codegree: each free E1
    summand on a degree-d generator leaves one Z/p class at codegree d+2p
    (the socle position)."""
    return free_part_ps(p, D).shift(2 * p)


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


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def margolis_audit(p: int, n_max: int) -> dict:
    """Compare Q0- and Q1-homology of the cohomology model, computed by rank
    counting, against the known closed-form answers, degree by degree.  The
    free summands carry no Margolis homology, so the ranks are taken on the
    model with them split off (strip_free)."""
    mod, _ = strip_free(build_HK2(p, n_max + 2 * p - 1))
    rows = []
    for which, closed in (("Q0", q0_homology_closed), ("Q1", q1_homology_closed)):
        oracle = margolis_homology(mod, which, n_max)
        rows += degree_rows(n_max, oracle, closed(p, n_max), ("oracle", "closed"), which=which)
    return report({"p": p, "n_max": n_max}, rows)


def ps_audit(p: int, n_max: int) -> dict:
    """Two-path check on the free-part Poincare series: the generating-
    function subtraction (free_part_total_ps) must equal H*K2's monomial
    count minus the dimensions of the explicit non-free model, degree by
    degree.  The monomials are counted as the product of one series per
    entry of hk2_generators' table, so no Q-map of H*K2 is built.  At p = 2
    the degree-79 generator count is pinned to its documented value 245
    whenever the window reaches it."""
    by_series = free_part_total_ps(p, n_max)
    full = PSeries.one(n_max)
    for g in hk2_generators(p, n_max)[0]:
        height = n_max // g.degree if g.top is None else g.top
        full = full * PSeries.truncated_poly(n_max, g.degree, height + 1)
    by_modules = full - assemble_T(p, n_max).ps()
    rows = degree_rows(n_max, by_series, by_modules, ("series", "model"))
    golden_ok = p != 2 or n_max < 79 or free_part_ps(2, n_max)[79] == 245
    head = {"p": p, "n_max": n_max, "golden_79_ok": golden_ok}
    return report(head, rows, ok=golden_ok)
