"""p-adic counting helpers: valuations, the r/r' truncation heights, degree
bookkeeping for the w-generators of the mod-p theory, and the p=5 sample
table of tower/differential gradings.

Everything here is elementary integer arithmetic; the functions are tiny but
they pin down the numerology every other module leans on, so they get their
own home and their own direct tests.  Python ints keep everything exact
(values pass 64 bits around j ~ 25 for p = 5).
"""

from __future__ import annotations


def nu(p: int, n: int) -> int:
    """p-adic valuation of n.  nu(p, 0) raises: callers never need it."""
    if n == 0:
        raise ValueError("valuation of 0 requested")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def r(p: int, j: int) -> int:
    """First truncation-height sequence:

    r(0) = 1, r(1) = p, r(j+2) = r(j) + p^(j+1)(p-1) + 1.
    """
    if j < 0:
        raise ValueError("r is defined for j >= 0")
    if j == 0:
        return 1
    if j == 1:
        return p
    return r(p, j - 2) + p ** (j - 1) * (p - 1) + 1


def r_prime(p: int, j: int) -> int:
    """Companion height sequence:

    r'(0) = p-1, r'(1) = p^2-p, r'(j+2) = r'(j) + p^(j+2)(p-1) - 1.
    """
    if j < 0:
        raise ValueError("r' is defined for j >= 0")
    if j == 0:
        return p - 1
    if j == 1:
        return p * p - p
    return r_prime(p, j - 2) + p ** j * (p - 1) - 1


def w_degree(p: int, j: int) -> int:
    """Degree of the mod-p class w_j (j >= 1).

    |w_1| = 2p^2+1, |w_2| = 2p^3-2p^2+6p-3, and w_{j+2} = y_j^{p-1} w_j
    z_{j+1}^{p-1} so |w_{j+2}| = |w_j| + 2(p-1)(p^j + p^{j+2} + 1).
    """
    if j < 1:
        raise ValueError("w_j is defined for j >= 1")
    if j == 1:
        return 2 * p * p + 1
    if j == 2:
        return 2 * p ** 3 - 2 * p * p + 6 * p - 3
    jj = j - 2
    return w_degree(p, jj) + 2 * (p - 1) * (p ** jj + p ** j + 1)


def table35_row(ell: int, t: int) -> tuple[int, int, int]:
    """Half-grading bookkeeping for the tower/differential cases at p = 5,
    i = 4*ell: returns (|T|, |M|, M') with

        |T| = 5^t(4 ell + 1) + 1,   |M| = 5^t(4 ell + 5) + 1,
        M'  = |M| - 4 r'(t-1).

    Only this congruence class is tabulated; others behave the same way.
    """
    if ell < 0 or t < 1:
        raise ValueError("need ell >= 0 and t >= 1")
    p = 5
    t_abs = p ** t * (4 * ell + 1) + 1
    m_abs = p ** t * (4 * ell + 5) + 1
    m_prime = m_abs - 4 * r_prime(p, t - 1)
    return (t_abs, m_abs, m_prime)
