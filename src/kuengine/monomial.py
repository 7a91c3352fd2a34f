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
expanded), and the degree is computed once, when the exponents are checked.  Identity is structural, which is what every enumeration here
needs: within each family distinct exponent vectors are distinct elements.

Families: bounded_exponents walks every bounded product of generators.
Lambda_j = TP_p[z_j, z_{j+1}, ...] is the factor list lambda_factors, walked
where it is used; enumerate_family lists the multiplier families MkA/MkB.
"""

from __future__ import annotations

from functools import lru_cache


def k0(p: int) -> int:
    """Smallest index whose z-class generates a core chart: 2 at p=2, else 1."""
    return 2 if p == 2 else 1


def q_degree(p: int) -> int:
    return 9 if p == 2 else 4 * p - 1


def y_degree(p: int, i: int) -> int:
    return 2 * p**i


def z_degree(p: int, j: int) -> int:
    return 2 * (p ** (j + 1) + 1)


_set = object.__setattr__  # how Monomial.__init__ fills its read-only slots


class Monomial:
    """q^q_flag * prod y_i^{e_i} * prod z_j^{c_j} at a fixed prime.  Fields
    cannot be assigned; the degree is derived from the exponents, so ==,
    hash and repr leave it out."""

    __slots__ = ("p", "q", "ys", "zs", "degree")

    def __init__(self, p: int, q: int = 0, ys: tuple = (), zs: tuple = ()):
        if q not in (0, 1):
            raise ValueError("q exponent must be 0 or 1")
        d = q * q_degree(p)
        # one pass per tuple: strictly rising indices, positive exponents, and
        # the degree
        for pairs, gen_degree in ((ys, y_degree), (zs, z_degree)):
            prev = None
            positive = True
            for i, e in pairs:
                if prev is not None and i <= prev:
                    raise ValueError("exponent tuples must be sorted and keyed once")
                prev = i
                positive = positive and e > 0
                d += e * gen_degree(p, i)
            if not positive:
                raise ValueError("exponents must be positive")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "ys", ys)
        _set(self, "zs", zs)
        _set(self, "degree", d)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Monomial field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not Monomial:
            return NotImplemented
        return (self.p, self.q, self.ys, self.zs) == (other.p, other.q, other.ys, other.zs)

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.ys, self.zs))

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Monomial, (self.p, self.q, self.ys, self.zs)

    # -- constructors -------------------------------------------------------
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
        return Monomial(
            self.p,
            q=self.q + other.q,
            ys=_add_exponents(self.ys, other.ys),
            zs=_add_exponents(self.zs, other.zs),
        )

    # -- keys ----------------------------------------------------------------
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
        """Canonical text form (see render_exponents)."""
        return render_exponents(self.p, self.q, self.ys, self.zs)

    def __repr__(self) -> str:
        return f"<{self.render()}>"


def _add_exponents(a: tuple, b: tuple) -> tuple:
    """Sum of two ascending (index, exponent) tuples, ascending."""
    if not (a and b):
        return a or b
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def z_comp(p: int, i: int, j: int) -> Monomial:
    """The composite class z_comp(i,j) = z_i (z_i ... z_{j-1})^(p-1), which
    equals z_j when i = j; degree 2(p^(j+1) + 1 + (p-1)(j-i))."""
    if i > j:
        raise ValueError("need i <= j")
    if i < 0:
        raise ValueError("need i >= 0")
    return Monomial(p, zs=tuple(z_comp_exponents(p, i, j).items()))


def z_comp_exponents(p: int, i: int, j: int) -> dict[int, int]:
    """The z-part {index: exponent} of z_comp(i, j), ascending (i <= j)."""
    return {j: 1} if i == j else {i: p, **{t: p - 1 for t in range(i + 1, j)}}


def Z_prod(p: int, i: int, j: int) -> Monomial:
    """(z_i ... z_{j-1})^(p-1); the empty product 1 when i = j."""
    if j < i:
        raise ValueError("need j >= i")
    zs = tuple((t, p - 1) for t in range(i, j))
    return Monomial(p, zs=zs)


def render_exponents(p: int, q: int, ys: tuple, zs: tuple) -> str:
    """Canonical text form of q^q prod y_i^e prod z_j^c from ascending
    (index, exponent) pairs: q first, then y factors, then z factors;
    exponent 1 omitted; a z-part that is exactly one composite class
    z_comp(i,j) with i < j prints as "z[i,j]"."""
    parts = ["q"] if q else []
    parts += [f"y{i}" + (f"^{e}" if e > 1 else "") for i, e in ys]
    comp = _composite(p, dict(zs)) if zs else None
    if comp is not None:
        parts.append(f"z[{comp[0]},{comp[1]}]")
    else:
        parts += [f"z{j}" + (f"^{e}" if e > 1 else "") for j, e in zs]
    return " ".join(parts) if parts else "1"


def _composite(p: int, c: dict[int, int]) -> tuple[int, int] | None:
    i = min(c)
    if c[i] != p:
        return None
    t = i + 1
    while c.get(t) == p - 1:
        t += 1
    return None if max(c) >= t else (i, t)


def z_decompose_dict(p: int, c: dict[int, int]) -> tuple[int, int, int, tuple]:
    """Canonical reading (i, j, e, lam) of a z-part {index: exponent} as
    z_comp(i,j) z_j^e lam: lam ascending (index, exponent) pairs on indices
    > j with exponents <= p-1, and e <= p-2 (the leading exponent 1+e when
    i = j).  Raises ValueError when the z-part has no such reading."""
    if not c:
        raise ValueError("no z-part to decompose")
    i = min(c)
    j, e = i, c[i] - 1
    if c[i] == p:
        j = i + 1
        while c.get(j, 0) == p - 1:
            j += 1
        e = c.get(j, 0)
    lam = tuple(sorted((k, v) for k, v in c.items() if k > j))
    # a leading exponent above p leaves e = c[i] - 1 > p - 2 as well
    if e > p - 2 or any(v > p - 1 for _, v in lam):
        raise ValueError(f"z-part {c} is not in canonical family form")
    return (i, j, e, lam)


# -- family enumerators ------------------------------------------------------


def bounded_exponents(
    factors: list[tuple[int, int | None]], cap: int
) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Every monomial in the given (degree, max exponent or None) factors
    whose total degree is <= cap, as (ascending (factor position, exponent)
    pairs of its nonzero exponents, degree), in lexicographic order of the
    exponent vectors: the one walk over a bounded product of polynomial
    (None), truncated and exterior (max exponent 1) generators.  A factor
    whose degree exceeds what is left of the cap contributes exponent 0
    only, so callers should list generators just up to the cap."""
    out: list = [((), 0)] if cap >= 0 else []
    for i, (deg, top) in enumerate(factors):
        if deg <= 0:
            raise ValueError("factor degrees must be positive")
        nxt = []
        for item in out:
            nxt.append(item)  # exponent 0 keeps the pairs tuple as it is
            pairs, d = item
            most = (cap - d) // deg
            if top is not None and top < most:
                most = top
            if most > 0:
                nxt += [(pairs + ((i, e),), d + e * deg) for e in range(1, most + 1)]
        out = nxt
    return out


def lambda_factors(p: int, j: int, cap: int) -> list[tuple[int, int]]:
    """The factors z_t (t >= j, exponent <= p-1) of Lambda_j with degree
    <= cap."""
    out = []
    while z_degree(p, j) <= cap:
        out.append((z_degree(p, j), p - 1))
        j += 1
    return out


@lru_cache(maxsize=None)
def _cached_family(p: int, tag: str, k: int, cutoff: int) -> tuple[Monomial, ...]:
    """The level-k multiplier family: monomials in {z_i, y_i : i >= k} with
    all exponents <= p-1, excluding those whose (z_k, y_k)-exponent pair is
    exactly (p-1, 0) or (0, p-1).  tag selects "MkA" (no z-factors) or "MkB"
    (at least one z-factor)."""
    if tag not in ("MkA", "MkB"):
        raise ValueError(f"unknown family tag {tag!r}")
    ys = []
    while y_degree(p, k + len(ys)) <= cutoff:
        ys.append((y_degree(p, k + len(ys)), p - 1))
    zs = lambda_factors(p, k, cutoff) if tag == "MkB" else []
    out = []
    n_y = len(ys)
    for pairs, _ in bounded_exponents(ys + zs, cutoff):
        m = Monomial(
            p,
            ys=tuple((k + i, e) for i, e in pairs if i < n_y),
            zs=tuple((k + i - n_y, e) for i, e in pairs if i >= n_y),
        )
        ez = m.z_dict().get(k, 0)
        ey = dict(m.ys).get(k, 0)
        if (ez, ey) in ((p - 1, 0), (0, p - 1)):
            continue
        if tag == "MkB" and not m.zs:
            continue
        out.append(m)
    out.sort(key=Monomial.sort_key)
    return tuple(out)


def enumerate_family(p: int, tag: str, param: int, cutoff: int) -> list[Monomial]:
    """Stable, duplicate-free listing of the multiplier family "MkA" or
    "MkB" at level param up to a degree cutoff, sorted by (degree, z-part,
    y-part)."""
    return list(_cached_family(p, tag, param, cutoff))
