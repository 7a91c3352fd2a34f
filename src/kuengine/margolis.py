"""E1-module oracles for the mod-p cohomology of K(Z/p, 2).

E1 = E[Q0, Q1] is the exterior algebra on the first two Milnor primitives
(|Q0| = 1, |Q1| = 2p-1).  Everything the chart modules assert is, at bottom,
a statement about Ext over E1, so this file carries the independent
verification side of the package:

* build_HK2 -- H*(K(Z/p,2); F_p) as an explicit E1-module: monomial basis,
  Q0 and Q1 extended from the generator images by the Leibniz rule (with
  Koszul signs at odd primes), each product found by key arithmetic.
* margolis_homology -- per-degree dims of H(M; Q0) or H(M; Q1), plus the
  known closed forms they must reproduce (q0_homology_closed, ...).
* build_piece -- the small non-free modules N, L_k, M_j and the locally
  finite sums R, S that carry all of the Margolis homology; assemble_T
  glues them into the full non-free model, so that H ~ unit + T + free.
* free_part_ps -- counts of free E1 summands per generator degree, obtained
  by subtracting the non-free model's Poincare series from the full one.
* ext_bruteforce -- Ext_{E1}(F_p, M) dimensions computed literally from the
  standard Koszul-type resolution of the ground field, its boundary
  matrices laid out from per-degree tables of Q-image positions.

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

from .linalg import gf_rank, gf_rank_sparse
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

    `by_degree` lists basis labels per degree (complete through `cutoff`);
    `q0`/`q1` give the action on each basis element as {target: coeff},
    recorded only when the target degree is still <= cutoff.
    """

    p: int
    cutoff: int
    degree_of: dict[str, int] = field(default_factory=dict)
    by_degree: dict[int, list[str]] = field(default_factory=dict)
    q0: dict[str, dict[str, int]] = field(default_factory=dict)
    q1: dict[str, dict[str, int]] = field(default_factory=dict)

    def add(self, label: str, degree: int) -> None:
        if label in self.degree_of:
            raise ValueError(f"duplicate basis label {label!r}")
        self.degree_of[label] = degree
        self.by_degree.setdefault(degree, []).append(label)

    def dim_at(self, n: int) -> int:
        return len(self.by_degree.get(n, ()))

    def basis_at(self, n: int) -> list[str]:
        return self.by_degree.get(n, [])

    def ps(self, top: int | None = None) -> PSeries:
        if top is None:
            top = self.cutoff if self.cutoff < EXACT else max(self.by_degree, default=0)
        return PSeries.from_degrees(
            top, (d for d, ls in self.by_degree.items() for _ in ls)
        )

    # -- constructions -----------------------------------------------------

    @staticmethod
    def direct_sum(mods: list["E1Module"]) -> "E1Module":
        p = mods[0].p
        if any(m.p != p for m in mods):
            raise ValueError("direct_sum across different primes")
        out = E1Module(p, min(m.cutoff for m in mods))
        for i, m in enumerate(mods):
            for d in sorted(m.by_degree):
                for lbl in m.by_degree[d]:
                    out.add(f"{i}:{lbl}", d)
            for src, qmap in (("q0", m.q0), ("q1", m.q1)):
                tgt = getattr(out, src)
                for lbl, img in qmap.items():
                    tgt[f"{i}:{lbl}"] = {f"{i}:{t}": c for t, c in img.items()}
        return out

    def tensor(self, other: "E1Module") -> "E1Module":
        """Graded tensor product; Q(a x b) = Qa x b + (-1)^|a| a x Qb."""
        if self.p != other.p:
            raise ValueError("tensor across different primes")
        p = self.p
        out = E1Module(p, min(self.cutoff, other.cutoff))
        pairs: list[tuple[str, str, int, int]] = []
        for da in sorted(self.by_degree):
            for la in self.by_degree[da]:
                for db in sorted(other.by_degree):
                    if da + db > out.cutoff:
                        break
                    for lb in other.by_degree[db]:
                        pairs.append((la, lb, da, db))
        pairs.sort(key=lambda t: t[2] + t[3])  # stable: keeps factor order
        for la, lb, da, db in pairs:
            out.add(f"{la}*{lb}", da + db)
        shifts = {"q0": 1, "q1": 2 * p - 1}
        for attr, shift in shifts.items():
            qa, qb, qo = getattr(self, attr), getattr(other, attr), getattr(out, attr)
            for la, lb, da, db in pairs:
                if da + db + shift > out.cutoff:
                    continue
                img: dict[str, int] = {}
                for t, c in qa.get(la, {}).items():
                    img[f"{t}*{lb}"] = c % p
                sign = -1 if (p != 2 and da & 1) else 1
                for t, c in qb.get(lb, {}).items():
                    key = f"{la}*{t}"
                    img[key] = (img.get(key, 0) + sign * c) % p
                img = {k: v for k, v in img.items() if v}
                if img:
                    qo[f"{la}*{lb}"] = img
        return out

    def suspend(self, d: int) -> "E1Module":
        out = E1Module(self.p, min(self.cutoff + d, EXACT))
        for deg in sorted(self.by_degree):
            for lbl in self.by_degree[deg]:
                out.add(lbl, deg + d)
        out.q0 = {k: dict(v) for k, v in self.q0.items()}
        out.q1 = {k: dict(v) for k, v in self.q1.items()}
        return out

    # -- integrity ---------------------------------------------------------

    def _apply(self, qmap: dict[str, dict[str, int]], vec: dict[str, int]) -> dict[str, int]:
        out: dict[str, int] = {}
        for lbl, c in vec.items():
            for t, c2 in qmap.get(lbl, {}).items():
                out[t] = (out.get(t, 0) + c * c2) % self.p
        return {k: v for k, v in out.items() if v}

    def validate(self) -> None:
        """Degree homogeneity, Q0^2 = Q1^2 = 0, and Q0Q1 + Q1Q0 = 0,
        checked on every basis element far enough below the cutoff."""
        p, w = self.p, 2 * self.p - 1
        for attr, shift in (("q0", 1), ("q1", w)):
            for lbl, img in getattr(self, attr).items():
                d = self.degree_of[lbl]
                for t, c in img.items():
                    if self.degree_of[t] != d + shift:
                        raise ValueError(f"{attr}[{lbl}] is not degree +{shift}")
                    if c % p == 0:
                        raise ValueError(f"{attr}[{lbl}] stores a zero coefficient")
        for lbl, d in self.degree_of.items():
            start = {lbl: 1}
            if d + 2 <= self.cutoff and self._apply(self.q0, self._apply(self.q0, start)):
                raise ValueError(f"Q0^2 != 0 on {lbl}")
            if d + 2 * w <= self.cutoff and self._apply(self.q1, self._apply(self.q1, start)):
                raise ValueError(f"Q1^2 != 0 on {lbl}")
            if d + w + 1 <= self.cutoff:
                anti = self._apply(self.q0, self._apply(self.q1, start))
                for t, c in self._apply(self.q1, self._apply(self.q0, start)).items():
                    anti[t] = (anti.get(t, 0) + c) % p
                if any(v % p for v in anti.values()):
                    raise ValueError(f"Q0Q1 + Q1Q0 != 0 on {lbl}")


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
    keys = [sum(e * weight[g] for g, e in m) for _, m in monos]
    labels = [_mono_label(m, gens) for _, m in monos]
    label_of = dict(zip(keys, labels))
    for (d, _), label in zip(monos, labels):
        mod.add(label, d)
    odd = [p != 2 and g.degree & 1 for g in gens]
    for (d, m), key, label in zip(monos, keys, labels):
        # odd factors of m as a bitmask: Q crosses those left of an odd g,
        # the odd image of an even g crosses those left of its generator h
        mask = sum(1 << g for g, e in m if odd[g] and e & 1)
        for images, qmap, shift in ((images0, mod.q0, 1), (images1, mod.q1, 2 * p - 1)):
            if d + shift > D:
                continue
            img: dict[str, int] = {}
            for g, e in m:
                if g not in images or not e % p:
                    continue
                h, f, c = images[g]
                top = gens[h].top
                if top is not None and key // weight[h] % (top + 1) - (h == g) + f > top:
                    continue  # the product passes h's cap
                if (mask & ((1 << (g if odd[g] else h)) - 1)).bit_count() & 1:
                    c = -c
                t = label_of[key - weight[g] + f * weight[h]]
                img[t] = (img.get(t, 0) + e * c) % p
            img = {t: c for t, c in img.items() if c}
            if img:
                qmap[label] = img
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
    (the sign on Q1 u_0 is forced by Q0Q1 + Q1Q0 = 0 on y_0).
    """
    if D < 0:
        raise ValueError("cutoff must be nonnegative")
    if p == 2:
        degs = []
        j = 0
        while 2**j + 1 <= D:
            degs.append(2**j + 1)
            j += 1
        gens = [GenSpec(f"u{d}", d) for d in degs]
        idx = {g.degree: i for i, g in enumerate(gens)}

        def power(deg: int, e: int) -> tuple[int, int, int]:
            return (idx[deg], e, 1)

        images0: dict[int, tuple[int, int, int]] = {}
        images1: dict[int, tuple[int, int, int]] = {}
        for j, d in enumerate(degs):
            if j == 1:
                images1[j] = power(3, 2)  # u_3 -> u_3^2
                continue
            lower0 = 2 ** (j - 1) + 1 if j >= 1 else None
            lower1 = 2 ** (j - 2) + 1 if j >= 2 else None
            if j == 0:
                if 3 in idx:
                    images0[j] = power(3, 1)
                if 5 in idx:
                    images1[j] = power(5, 1)
            else:
                if lower0 in idx and 2 * lower0 <= D:
                    images0[j] = power(lower0, 2)
                if j >= 3 and lower1 in idx and 4 * lower1 <= D:
                    images1[j] = power(lower1, 4)
        return _module_from_monomials(2, gens, D, images0, images1)

    gens = [GenSpec("y0", 2)]
    gidx: dict[int, int] = {}
    j = 1
    while 2 * (p**j + 1) <= D:
        gidx[j] = len(gens)
        gens.append(GenSpec(f"g{j}", 2 * (p**j + 1)))
        j += 1
    uidx: dict[int, int] = {}
    i = 0
    while 2 * p**i + 1 <= D:
        uidx[i] = len(gens)
        gens.append(GenSpec(f"u{i}", 2 * p**i + 1, top=1))
        i += 1
    images0 = {}
    images1 = {}
    if 0 in uidx:
        images0[0] = (uidx[0], 1, 1)  # y0 -> u0
    if 1 in uidx:
        images1[0] = (uidx[1], 1, 1)  # y0 -> u1
    for i, ui in uidx.items():
        if i == 0:
            if 1 in gidx:
                images1[ui] = (gidx[1], 1, p - 1)  # u0 -> -g1
        else:
            if i in gidx:
                images0[ui] = (gidx[i], 1, 1)  # u_i -> g_i
            if i >= 2 and (i - 1) in gidx and 2 * p * (p ** (i - 1) + 1) <= D:
                images1[ui] = (gidx[i - 1], p, 1)  # u_i -> g_{i-1}^p
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

    @lru_cache(maxsize=None)
    def rank_at(n: int) -> int:
        src = M.basis_at(n)
        tgt = M.basis_at(n + shift)
        if not src or not tgt:
            return 0
        tpos = {l: i for i, l in enumerate(tgt)}
        mat = [[0] * len(src) for _ in tgt]
        for j, lbl in enumerate(src):
            for t, c in qmap.get(lbl, {}).items():
                mat[tpos[t]][j] = c
        return gf_rank(mat, M.p)

    out = []
    for n in range(D + 1):
        ker = M.dim_at(n) - rank_at(n)
        out.append(ker - (rank_at(n - shift) if n - shift >= 0 else 0))
    return out


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
    mod = E1Module(p, EXACT)
    mod.add(label, degree)
    return mod


def _trivial_polynomial(p: int, gens: list[GenSpec], D: int) -> E1Module:
    """Q-trivial monomial module (all primitives act by zero)."""
    return _module_from_monomials(p, gens, D, {}, {})


def _L(p: int, k: int) -> E1Module:
    if k < 0:
        raise ValueError("L_k needs k >= 0")
    step = 2 if p == 2 else 2 * (p - 1)
    mod = E1Module(p, EXACT)
    for i in range(k + 1):
        mod.add(f"a{i}", step * i)
        mod.add(f"b{i}", step * i + 1)
    for i in range(k + 1):
        mod.q0[f"a{i}"] = {f"b{i}": 1}
        if i < k:
            mod.q1[f"a{i}"] = {f"b{i+1}": 1}
    return mod


def _N(p: int) -> E1Module:
    mod = E1Module(p, EXACT)
    if p == 2:
        for d in (5, 7, 8, 9, 10):
            mod.add(f"x{d}", d)
        mod.q0 = {"x7": {"x8": 1}, "x9": {"x10": 1}}
        mod.q1 = {"x5": {"x8": 1}, "x7": {"x10": 1}}
    else:
        mod.add("n1", 2 * p + 1)  # y0^{p-1} u0
        mod.add("q", 4 * p - 1)  # y0^{p-1} u1
        mod.add("c", 4 * p)  # Q0 q = Q1 n1
        mod.q0 = {"q": {"c": 1}}
        mod.q1 = {"n1": {"c": 1}}
    return mod


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
        out = E1Module(p, D)
        return out
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

    # M_d's Q0 and Q1 images as (basis element, position in M_{d+1} or
    # M_{d+w}, coeff) triples, one table per degree, built on first use
    index = {lbl: i for basis in M.by_degree.values() for i, lbl in enumerate(basis)}
    tables: dict[int, list[list[tuple[int, int, int]]]] = {}
    ranks: dict[tuple[int, int], int] = {}

    def table(d: int) -> list[list[tuple[int, int, int]]]:
        if d not in tables:
            basis = list(enumerate(M.basis_at(d)))
            tables[d] = [
                [(j, index[t], c) for j, lbl in basis for t, c in q.get(lbl, {}).items()]
                for q in (M.q0, M.q1)
            ]
        return tables[d]

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
                img0, img1 = table(d)
                entries += [(row + j, off[b] + i, c) for j, i, c in img0]
                entries += [(row + j, off[b + 1] + i, c) for j, i, c in img1]
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
    counting, against the known closed-form answers, degree by degree."""
    mod = build_HK2(p, n_max + 2 * p - 1)
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
