"""Truncated integer power series in one variable x.

Used for Poincare-series bookkeeping: counting monomials of graded tensor
factors, the free-summand generating function, and the per-degree audits
that compare dimension counts, whose rows and report degree_rows and
report build.  Coefficients are exact Python ints; every series carries an
inclusive truncation bound `top` and all arithmetic is performed modulo
x^(top+1).
"""

from __future__ import annotations

from typing import Iterable, Sequence


class PSeries:
    __slots__ = ("top", "c")

    def __init__(self, top: int, coeffs: Sequence[int] | None = None):
        self.top = top
        c = [0] * (top + 1)
        if coeffs is not None:
            for i, a in enumerate(coeffs[: top + 1]):
                c[i] = a
        self.c = c

    # -- constructors ------------------------------------------------------
    @staticmethod
    def one(top: int) -> "PSeries":
        s = PSeries(top)
        s.c[0] = 1
        return s

    @staticmethod
    def monomial(top: int, d: int, coeff: int = 1) -> "PSeries":
        s = PSeries(top)
        if 0 <= d <= top:
            s.c[d] = coeff
        return s

    @staticmethod
    def from_degrees(top: int, degrees: Iterable[int]) -> "PSeries":
        """Sum of x^d over an iterable of degrees (with multiplicity)."""
        s = PSeries(top)
        for d in degrees:
            if 0 <= d <= top:
                s.c[d] += 1
        return s

    @staticmethod
    def geometric(top: int, d: int) -> "PSeries":
        """1 / (1 - x^d) truncated: the series of P[x_d] for a degree-d
        polynomial generator."""
        if d <= 0:
            raise ValueError("geometric ratio degree must be positive")
        s = PSeries(top)
        for k in range(0, top + 1, d):
            s.c[k] = 1
        return s

    @staticmethod
    def truncated_poly(top: int, d: int, height: int) -> "PSeries":
        """Series of TP_height[x_d] = 1 + x^d + ... + x^((height-1)d)."""
        if height < 1:
            raise ValueError("truncation height must be >= 1")
        s = PSeries(top)
        for e in range(height):
            k = e * d
            if k > top:
                break
            s.c[k] = 1
        return s

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "PSeries") -> "PSeries":
        top = min(self.top, other.top)
        out = PSeries(top)
        for i in range(top + 1):
            out.c[i] = self.c[i] + other.c[i]
        return out

    def __sub__(self, other: "PSeries") -> "PSeries":
        top = min(self.top, other.top)
        out = PSeries(top)
        for i in range(top + 1):
            out.c[i] = self.c[i] - other.c[i]
        return out

    def __mul__(self, other: "PSeries") -> "PSeries":
        top = min(self.top, other.top)
        out = PSeries(top)
        oc = out.c
        # the other factor's nonzero terms, listed once in ascending degree
        terms = [(j, b) for j, b in enumerate(other.c[: top + 1]) if b]
        for i, a in enumerate(self.c[: top + 1]):
            if a == 0:
                continue
            lim = top - i
            for j, b in terms:
                if j > lim:
                    break
                oc[i + j] += a * b
        return out

    def shift(self, d: int) -> "PSeries":
        """Multiply by x^d (d >= 0)."""
        out = PSeries(self.top)
        for i, a in enumerate(self.c):
            if a and i + d <= self.top:
                out.c[i + d] = a
        return out

    def divide_exact(self, other: "PSeries") -> "PSeries":
        """Quotient self/other assuming other has unit constant term and the
        division is exact as far as the truncation reaches."""
        if other.c[0] not in (1, -1):
            raise ValueError("divisor must have unit constant term")
        top = min(self.top, other.top)
        inv0 = other.c[0]
        q = PSeries(top)
        rem = list(self.c[: top + 1])
        for i in range(top + 1):
            coeff = rem[i] * inv0
            q.c[i] = coeff
            if coeff:
                for j in range(1, top - i + 1):
                    b = other.c[j]
                    if b:
                        rem[i + j] -= coeff * b
        return q

    def __getitem__(self, d: int) -> int:
        if 0 <= d <= self.top:
            return self.c[d]
        raise IndexError(f"degree {d} beyond series truncation {self.top}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PSeries):
            return NotImplemented
        top = min(self.top, other.top)
        return self.c[: top + 1] == other.c[: top + 1]

    def __repr__(self) -> str:
        terms = [f"{a}*x^{i}" for i, a in enumerate(self.c) if a]
        return "PSeries(" + " + ".join(terms[:8]) + (" + ..." if len(terms) > 8 else "") + ")"


# -- per-degree audit reports ------------------------------------------------


def degree_rows(n_max: int, left, right, names: tuple[str, str], **fixed) -> list[dict]:
    """One row per degree 0 <= n <= n_max comparing left[n] with right[n],
    under the keys `names`, with the `fixed` fields on every row."""
    a, b = names
    return [
        {**fixed, "degree": n, a: left[n], b: right[n], "pass": left[n] == right[n]}
        for n in range(n_max + 1)
    ]


def report(head: dict, rows: list[dict], ok: bool = True) -> dict:
    """The audit report shared by the row audits: `head`, the number of
    checks (one per row, unless a row counts its own under "checked"), the
    rows, the rows that did not pass, and the verdict; `ok` is a further
    condition the verdict needs."""
    failures = [row for row in rows if not row["pass"]]
    return {
        **head,
        "checked": sum(row.get("checked", 1) for row in rows),
        "rows": rows,
        "failures": failures,
        "ok": ok and not failures,
    }
