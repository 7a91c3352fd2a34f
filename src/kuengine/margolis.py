"""E1-module oracles for the mod-p cohomology of K(Z/p, 2).

E1 = E[Q0, Q1] is the exterior algebra on the first two Milnor primitives
(|Q0| = 1, |Q1| = 2p-1).  Everything the chart modules assert is, at bottom,
a statement about Ext over E1, so this file carries the independent
verification side of the package:

* build_HK2 -- H*(K(Z/p,2); F_p) as an explicit E1-module: monomial basis,
  Q0 and Q1 extended by the Leibniz rule (with Koszul signs at odd primes)
  from a table of generator images, each product found by key arithmetic.
* margolis_homology -- per-degree dims of H(M; Q0) or H(M; Q1), plus the
  known closed forms they must reproduce (q0_homology_closed, ...).
* build_piece -- the small non-free modules N, L_k, M_j and the locally
  finite sums R, S that carry all of the Margolis homology; assemble_T
  glues them into the full non-free model, so that H ~ unit + T + free.
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
from .monomial import bounded_exponents, q_degree
from .series import PSeries

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

    def ps(self, top: int | None = None) -> PSeries:
        if top is None:
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

    def tensor(self, other: "E1Module") -> "E1Module":
        """Graded tensor product; Q(a x b) = Qa x b + (-1)^|a| a x Qb.

        Degree n lists the products a*b block by block, |a| ascending, each
        block a-major: a at position i of degree da times b at position j
        sits at start[n, da] + i * dim_at(n - da) + j."""
        if self.p != other.p:
            raise ValueError("tensor across different primes")
        p = self.p
        out = E1Module(p, min(self.cutoff, other.cutoff))
        start: dict[tuple[int, int], int] = {}
        for da in sorted(self.by_degree):
            for db in sorted(other.by_degree):
                if da + db > out.cutoff:
                    break
                basis = out.by_degree.setdefault(da + db, [])
                start[da + db, da] = len(basis)
                basis += [f"{la}*{lb}" for la in self.by_degree[da] for lb in other.by_degree[db]]
        for qa, qb, qo, shift in (
            (self.q0, other.q0, out.q0, 1),
            (self.q1, other.q1, out.q1, 2 * p - 1),
        ):
            for (n, da), s0 in start.items():
                if n + shift > out.cutoff:
                    continue
                db = n - da
                wa, wb = self.dim_at(da), other.dim_at(db)
                img: dict[tuple[int, int], int] = {}
                if da in qa:
                    t0 = start[n + shift, da + shift]
                    for i, t, c in qa[da]:
                        for j in range(wb):
                            img[s0 + i * wb + j, t0 + t * wb + j] = c % p
                if db in qb:
                    t0, wt = start[n + shift, da], other.dim_at(db + shift)
                    sign = -1 if (p != 2 and da & 1) else 1
                    for j, t, c in qb[db]:
                        for i in range(wa):
                            key = (s0 + i * wb + j, t0 + i * wt + t)
                            img[key] = (img.get(key, 0) + sign * c) % p
                triples = [(s, t, c) for (s, t), c in img.items() if c]
                if triples:
                    qo.setdefault(n, []).extend(triples)
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


@lru_cache(maxsize=None)
def build_HK2(p: int, D: int) -> E1Module:
    """The full mod-p cohomology of K(Z/p, 2) through degree D.

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
    P[y_1] x E[y_0^{p-1} u_0] at odd p (unit included)."""
    if p == 2:
        return PSeries.geometric(D, 4) * (PSeries.one(D) + PSeries.monomial(D, 5))
    return PSeries.geometric(D, 2 * p) * (PSeries.one(D) + PSeries.monomial(D, 2 * p + 1))


def q1_homology_closed(p: int, D: int) -> PSeries:
    """Known closed form of H(H*K2; Q1): at p = 2
    P[u_2^2] x TP_4[x_9] x TP_4[x_17] x E[u_{2^j+1}^2 : j >= 5]; at odd p
    P[y_1] x E[q] x E[w_1] x TP_p[g_2, g_3, ...] (unit included)."""
    if p == 2:
        out = PSeries.geometric(D, 4)
        out = out * PSeries.truncated_poly(D, 9, 4)
        out = out * PSeries.truncated_poly(D, 17, 4)
        j = 5
        while 2 * (2**j + 1) <= D:
            out = out * (PSeries.one(D) + PSeries.monomial(D, 2 * (2**j + 1)))
            j += 1
        return out
    out = PSeries.geometric(D, 2 * p)
    out = out * (PSeries.one(D) + PSeries.monomial(D, 4 * p - 1))
    out = out * (PSeries.one(D) + PSeries.monomial(D, 2 * p**2 + 1))
    j = 2
    while 2 * (p**j + 1) <= D:
        out = out * PSeries.truncated_poly(D, 2 * (p**j + 1), p)
        j += 1
    return out


# ---------------------------------------------------------------------------
# the non-free pieces
# ---------------------------------------------------------------------------


def _single(p: int, label: str, degree: int) -> E1Module:
    return E1Module.from_labels(p, EXACT, [(label, degree)], {}, {})


def _trivial_polynomial(p: int, gens: list[GenSpec], D: int) -> E1Module:
    """Q-trivial monomial module (all primitives act by zero)."""
    return _module_from_monomials(p, gens, D, {}, {})


def _L(p: int, k: int) -> E1Module:
    if k < 0:
        raise ValueError("L_k needs k >= 0")
    step = 2 if p == 2 else 2 * (p - 1)
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
    if p == 2:
        if j < 4:
            raise ValueError("M_j at p = 2 needs j >= 4")
        return _L(2, j - 4).suspend(2**j + 1)
    if j < 2:
        raise ValueError("M_j at odd p needs j >= 2")
    return _L(p, j - 2).suspend(2 * p**j + 1)


def _R(p: int, D: int) -> E1Module:
    """Locally finite sum of M_j tensored with its Q-trivial cofactor."""
    if D < 0:
        raise ValueError("R needs a nonnegative cutoff")
    summands: list[E1Module] = []
    if p == 2:
        j = 4
        while 2**j + 1 <= D:
            gens = []
            k = j
            while 2 * (2**k + 1) <= D:
                gens.append(GenSpec(f"e{k}", 2 * (2**k + 1), top=1))
                k += 1
            summands.append(_M(2, j).tensor(_trivial_polynomial(2, gens, D)))
            j += 1
    else:
        j = 2
        while 2 * p**j + 1 <= D:
            # TP_{p-1}[g_j] x TP_p[g_k : k > j]
            gens = [GenSpec(f"g{j}", 2 * (p**j + 1), top=p - 2)]
            k = j + 1
            while 2 * (p**k + 1) <= D:
                gens.append(GenSpec(f"g{k}", 2 * (p**k + 1), top=p - 1))
                k += 1
            summands.append(_M(p, j).tensor(_trivial_polynomial(p, gens, D)))
            j += 1
    if not summands:
        return E1Module(p, D)
    out = E1Module.direct_sum(summands)
    out.cutoff = D
    return out


def build_piece(p: int, kind: str, param: int | None = None, D: int | None = None) -> E1Module:
    """The named non-free building block.

    kind: "N" | "L" (param = k) | "M" (param = j) | "R" (needs D) | "S"
    (needs D).  R and S are infinite direct sums and come back truncated at
    D; the others are finite and exact in every degree.
    """
    if kind == "N":
        return _N(p)
    if kind == "L":
        if param is None:
            raise ValueError("L needs its index")
        return _L(p, param)
    if kind == "M":
        if param is None:
            raise ValueError("M needs its index")
        return _M(p, param)
    if kind == "R":
        if D is None:
            raise ValueError("R needs a cutoff")
        return _R(p, D)
    if kind == "S":
        if D is None:
            raise ValueError("S needs a cutoff")
        q = q_degree(p)
        if D < q:  # the suspension starts above the cutoff: nothing survives
            return E1Module(p, D)
        return _R(p, D - q).suspend(q)
    raise ValueError(f"unknown piece kind {kind!r}")


def assemble_T(p: int, D: int, with_unit: bool = False) -> E1Module:
    """The non-free model: P[u_2^2] x (<u_2^2> + N + R + S) at p = 2, and
    P[y_1] x (<y_1> + N + R + qR) at odd p.  Optionally with the unit class,
    which makes its Margolis homology degreewise equal to that of H*K2."""
    if p == 2:
        outer = _trivial_polynomial(2, [GenSpec("u2^2", 4)], D)
        lead = _single(2, "u2^2", 4)
    else:
        outer = _trivial_polynomial(p, [GenSpec("y1", 2 * p)], D)
        lead = _single(p, "y1", 2 * p)
    inner = E1Module.direct_sum(
        [lead, _N(p), build_piece(p, "R", D=D), build_piece(p, "S", D=D)]
    )
    inner.cutoff = D
    t = outer.tensor(inner)
    if with_unit:
        t = E1Module.direct_sum([_single(p, "1", 0), t])
        t.cutoff = D
    return t


# ---------------------------------------------------------------------------
# free part generating function
# ---------------------------------------------------------------------------


def _ps_L(p: int, k: int, top: int) -> PSeries:
    step = 2 if p == 2 else 2 * (p - 1)
    body = PSeries(top)
    for i in range(k + 1):
        if step * i > top:
            break
        body.c[step * i] = 1
    return (PSeries.one(top) + PSeries.monomial(top, 1)) * body


def free_part_total_ps(p: int, D: int) -> PSeries:
    """Poincare series of the free complement of unit + T inside H*K2."""
    one = PSeries.one(D)
    if p == 2:
        full = one
        j = 0
        while 2**j + 1 <= D:
            full = full * PSeries.geometric(D, 2**j + 1)
            j += 1
        ps_n = PSeries.from_degrees(D, (5, 7, 8, 9, 10))
        sub = PSeries.geometric(D, 4) * (one + ps_n)
        tail = PSeries(D)
        j = 4
        while 2**j + 1 <= D:
            cof = one
            k = j
            while 2 * (2**k + 1) <= D:
                cof = cof * (one + PSeries.monomial(D, 2 * (2**k + 1)))
                k += 1
            tail = tail + _ps_L(2, j - 4, D).shift(2**j + 1) * cof
            j += 1
        sub = sub + PSeries.geometric(D, 4) * (one + PSeries.monomial(D, 9)) * tail
        return full - sub
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
    j = 2
    while 2 * p**j + 1 <= D:
        cof = PSeries.truncated_poly(D, 2 * (p**j + 1), p - 1)
        k = j + 1
        while 2 * (p**k + 1) <= D:
            cof = cof * PSeries.truncated_poly(D, 2 * (p**k + 1), p)
            k += 1
        tail = tail + _ps_L(p, j - 2, D).shift(2 * p**j + 1) * cof
        j += 1
    sub = PSeries.geometric(D, 2 * p) * (
        one + ps_n + (one + PSeries.monomial(D, 4 * p - 1)) * tail
    )
    return full - sub


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
    need = max((n1 - s) + w * (s + 1) for s in range(s_max + 1))
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
    for which, closed in (
        ("Q0", q0_homology_closed(p, n_max)),
        ("Q1", q1_homology_closed(p, n_max)),
    ):
        oracle = margolis_homology(mod, which, n_max)
        for n in range(n_max + 1):
            rows.append(
                {
                    "which": which,
                    "degree": n,
                    "oracle": oracle[n],
                    "closed": closed[n],
                    "pass": oracle[n] == closed[n],
                }
            )
    failures = [row for row in rows if not row["pass"]]
    return {
        "p": p,
        "n_max": n_max,
        "checked": len(rows),
        "rows": rows,
        "failures": failures,
        "ok": not failures,
    }


def ps_audit(p: int, n_max: int) -> dict:
    """Two-path check on the free-part Poincare series: the generating-
    function subtraction (free_part_total_ps) must equal the dimension count
    of the explicit model minus the explicit non-free submodule, degree by
    degree.  At p = 2 the degree-79 generator count is pinned to its
    documented value 245 whenever the window reaches it."""
    by_series = free_part_total_ps(p, n_max)
    by_modules = build_HK2(p, n_max).ps() - assemble_T(p, n_max, with_unit=True).ps(n_max)
    rows = []
    for n in range(n_max + 1):
        rows.append(
            {
                "degree": n,
                "series": by_series[n],
                "model": by_modules[n],
                "pass": by_series[n] == by_modules[n],
            }
        )
    failures = [row for row in rows if not row["pass"]]
    golden_ok = True
    if p == 2 and n_max >= 79:
        golden_ok = free_part_ps(2, n_max)[79] == 245
    return {
        "p": p,
        "n_max": n_max,
        "checked": len(rows),
        "rows": rows,
        "failures": failures,
        "golden_79_ok": golden_ok,
        "ok": golden_ok and not failures,
    }
