"""Generator symbols, monomials, degree bookkeeping, and the monomial
families that index chart summands.

Generators (prime p fixed per call):
    y_i (i >= 0)    degree 2 p^i          (y_i = y_0^(p^i) as elements)
    z_j (j >= 0)    degree 2 (p^(j+1)+1)
    q               degree 9 for p = 2, 4p-1 for p odd (exponent <= 1)

Composite z-classes:
    z_comp(i, j) = z_i (z_i ... z_{j-1})^(p-1)    ("z[i,j]", z_comp(j,j)=z_j)
    Z_prod(i, j) = (z_i ... z_{j-1})^(p-1)        (Z_prod(i,i) = 1)

Monomials are immutable; exponent vectors are stored plainly (composites are
expanded).  Identity is structural, which is what every enumeration here
needs: within each family distinct exponent vectors are distinct elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


def k0(p: int) -> int:
    """Smallest index whose z-class generates a core chart: 2 at p=2, else 1."""
    return 2 if p == 2 else 1


def q_degree(p: int) -> int:
    return 9 if p == 2 else 4 * p - 1


def y_degree(p: int, i: int) -> int:
    return 2 * p**i


def z_degree(p: int, j: int) -> int:
    return 2 * (p ** (j + 1) + 1)


@dataclass(frozen=True)
class Monomial:
    """q^q_flag * prod y_i^{e_i} * prod z_j^{c_j} at a fixed prime."""

    p: int
    q: int = 0
    ys: tuple[tuple[int, int], ...] = ()
    zs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.q not in (0, 1):
            raise ValueError("q exponent must be 0 or 1")
        for pairs in (self.ys, self.zs):
            idxs = [i for i, _ in pairs]
            if idxs != sorted(idxs) or len(set(idxs)) != len(idxs):
                raise ValueError("exponent tuples must be sorted and keyed once")
            if any(e <= 0 for _, e in pairs):
                raise ValueError("exponents must be positive")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def one(p: int) -> "Monomial":
        return Monomial(p)

    @staticmethod
    def gen(p: int, kind: str, index: int = 0, exp: int = 1) -> "Monomial":
        if exp == 0:
            return Monomial(p)
        if kind == "y":
            return Monomial(p, ys=((index, exp),))
        if kind == "z":
            return Monomial(p, zs=((index, exp),))
        if kind == "q":
            return Monomial(p, q=exp)
        raise ValueError(f"unknown generator kind {kind!r}")

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.p != other.p:
            raise ValueError("mixed primes")
        ys = dict(self.ys)
        for i, e in other.ys:
            ys[i] = ys.get(i, 0) + e
        zs = dict(self.zs)
        for j, e in other.zs:
            zs[j] = zs.get(j, 0) + e
        return Monomial(
            self.p,
            q=self.q + other.q,
            ys=tuple(sorted(ys.items())),
            zs=tuple(sorted(zs.items())),
        )

    # -- degree and keys -----------------------------------------------------
    @property
    def degree(self) -> int:
        p = self.p
        d = self.q * q_degree(p)
        for i, e in self.ys:
            d += e * y_degree(p, i)
        for j, e in self.zs:
            d += e * z_degree(p, j)
        return d

    @property
    def y_weight(self) -> int:
        """Total y_0-exponent: y_i counts p^i."""
        return sum(e * self.p**i for i, e in self.ys)

    def z_dict(self) -> dict[int, int]:
        return dict(self.zs)

    def sort_key(self):
        return (
            self.degree,
            tuple((0, j, e) for j, e in self.zs),
            tuple((1, i, e) for i, e in self.ys),
            self.q,
        )

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        """Canonical text form: q first, then y factors, then z factors,
        ascending index; exponent 1 omitted; a z-part that is exactly one
        composite class z_comp(i,j) with i < j prints as "z[i,j]"."""
        parts: list[str] = []
        if self.q:
            parts.append("q")
        for i, e in self.ys:
            parts.append(f"y{i}" + (f"^{e}" if e > 1 else ""))
        zpart = self._render_z()
        if zpart:
            parts.append(zpart)
        return " ".join(parts) if parts else "1"

    def _render_z(self) -> str:
        if not self.zs:
            return ""
        comp = composite_of(self)
        if comp is not None:
            i, j = comp
            return f"z[{i},{j}]"
        return " ".join(f"z{j}" + (f"^{e}" if e > 1 else "") for j, e in self.zs)

    def __repr__(self) -> str:
        return f"<{self.render()}>"


def z_comp(p: int, i: int, j: int) -> Monomial:
    """The composite class z_comp(i,j) = z_i (z_i ... z_{j-1})^(p-1), which
    equals z_j when i = j; degree 2(p^(j+1) + 1 + (p-1)(j-i))."""
    if i > j:
        raise ValueError("need i <= j")
    if i < 0:
        raise ValueError("need i >= 0")
    if i == j:
        return Monomial.gen(p, "z", j)
    zs = {i: p}
    for t in range(i + 1, j):
        zs[t] = p - 1
    return Monomial(p, zs=tuple(sorted(zs.items())))


def Z_prod(p: int, i: int, j: int) -> Monomial:
    """(z_i ... z_{j-1})^(p-1); the empty product 1 when i = j."""
    if j < i:
        raise ValueError("need j >= i")
    zs = tuple((t, p - 1) for t in range(i, j))
    return Monomial(p, zs=zs)


def composite_of(m: Monomial) -> tuple[int, int] | None:
    """If the z-part of m is exactly z_comp(i,j) for some i < j, return
    (i, j); otherwise None."""
    if not m.zs:
        return None
    p = m.p
    c = m.z_dict()
    i = min(c)
    if c[i] != p:
        return None
    t = i + 1
    while t in c and c[t] == p - 1:
        t += 1
    if any(k >= t for k in c):
        return None
    return (i, t)


def z_decompose(m: Monomial) -> tuple[int, int, int, Monomial]:
    """Canonical reading of a z-monomial as z_comp(i,j) * z_j^e * lam with
    lam supported on indices > j with exponents <= p-1, and e <= p-2 when
    i < j (when i = j the leading exponent is 1+e <= p-1).  Returns
    (i, j, e, lam).  Raises ValueError when the z-part has no such reading.
    """
    if not m.zs:
        raise ValueError("no z-part to decompose")
    p = m.p
    c = m.z_dict()
    i = min(c)
    if c[i] < p:
        j = i
        e = c[i] - 1
    elif c[i] == p:
        t = i + 1
        while c.get(t, 0) == p - 1:
            t += 1
        j = t
        if c.get(j, 0) > p - 2:
            raise ValueError(f"z-part of {m!r} is not in canonical family form")
        e = c.get(j, 0)
    else:
        raise ValueError(f"z-part of {m!r} is not in canonical family form")
    lam = {k: v for k, v in c.items() if k > j}
    if any(v > p - 1 for v in lam.values()):
        raise ValueError(f"z-part of {m!r} is not in canonical family form")
    return (i, j, e, Monomial(m.p, zs=tuple(sorted(lam.items()))))


# -- family enumerators ------------------------------------------------------


def _bounded_products(
    p: int, gens: list[tuple[Monomial, int]], cap: int
) -> Iterator[Monomial]:
    """All products of the given (generator, max exponent) factors with total
    degree <= cap."""

    def rec(idx: int, acc: Monomial) -> Iterator[Monomial]:
        if idx == len(gens):
            yield acc
            return
        g, emax = gens[idx]
        cur = acc
        for e in range(emax + 1):
            if e > 0:
                cur = cur * g
                if cur.degree > cap:
                    return
            yield from rec(idx + 1, cur)

    yield from rec(0, Monomial.one(p))


def lambda_family(p: int, j: int, cutoff: int) -> list[Monomial]:
    """Lambda_j = TP_p[z_i : i >= j]: exponents <= p-1, degree <= cutoff."""
    gens: list[tuple[Monomial, int]] = []
    t = j
    while z_degree(p, t) <= cutoff:
        gens.append((Monomial.gen(p, "z", t), p - 1))
        t += 1
    out = list(_bounded_products(p, gens, cutoff))
    out.sort(key=Monomial.sort_key)
    return out


def lambda_bar_family(p: int, j: int, cutoff: int) -> list[Monomial]:
    """Augmentation ideal of Lambda_j: the same family without 1."""
    return [m for m in lambda_family(p, j, cutoff) if m.zs]


def script_m_family(p: int, k: int, cutoff: int, part: str) -> list[Monomial]:
    """The level-k multiplier family: monomials in {z_i, y_i : i >= k} with
    all exponents <= p-1, excluding those whose (z_k, y_k)-exponent pair is
    exactly (p-1, 0) or (0, p-1).  part selects "A" (no z-factors) or "B"
    (at least one z-factor)."""
    if part not in ("A", "B"):
        raise ValueError("part must be 'A' or 'B'")
    gens: list[tuple[Monomial, int]] = []
    i = k
    while y_degree(p, i) <= cutoff:
        gens.append((Monomial.gen(p, "y", i), p - 1))
        i += 1
    if part == "B":
        t = k
        while z_degree(p, t) <= cutoff:
            gens.append((Monomial.gen(p, "z", t), p - 1))
            t += 1
    out = []
    for m in _bounded_products(p, gens, cutoff):
        ez = m.z_dict().get(k, 0)
        ey = dict(m.ys).get(k, 0)
        if (ez, ey) in ((p - 1, 0), (0, p - 1)):
            continue
        if part == "B" and not m.zs:
            continue
        out.append(m)
    out.sort(key=Monomial.sort_key)
    return out


@lru_cache(maxsize=None)
def _cached_family(p: int, tag: str, param: int, cutoff: int) -> tuple[Monomial, ...]:
    if tag == "Lambda":
        return tuple(lambda_family(p, param, cutoff))
    if tag == "LambdaBar":
        return tuple(lambda_bar_family(p, param, cutoff))
    if tag == "MkA":
        return tuple(script_m_family(p, param, cutoff, "A"))
    if tag == "MkB":
        return tuple(script_m_family(p, param, cutoff, "B"))
    raise ValueError(f"unknown family tag {tag!r}")


def enumerate_family(p: int, tag: str, param: int, cutoff: int) -> list[Monomial]:
    """Stable, duplicate-free listing of a monomial family up to a degree
    cutoff, sorted by (degree, z-part, y-part)."""
    return list(_cached_family(p, tag, param, cutoff))
