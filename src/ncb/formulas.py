"""Closed-form counts for the non-crossing posets, in exact arithmetic.

Every function returns plain ints.  Sums walk their binomials by exact term
ratios instead of recomputing each term, and every division is checked to
land on an integer.
"""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple


def binom(a: int, b: int) -> int:
    """C(a, b) with the convention 0 for b < 0 or b > a (a must be >= 0)."""
    if a < 0:
        raise ValueError("upper argument must be nonnegative; use gbinom")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _exact_div(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"division by {den} is not exact")
    return value


def _binom_row(a: int, k: int) -> list[int]:
    """[C(a, 0), ..., C(a, k)] for any integer a, by C(a, t+1) = C(a, t)(a-t)/(t+1)."""
    row = [1]
    for t in range(k):
        row.append(_exact_div(row[-1] * (a - t), t + 1))
    return row


def gbinom(a: int, k: int) -> int:
    """C(a, k) for any integer a, as the degree-k polynomial a(a-1)...(a-k+1)/k!."""
    if k < 0:
        return 0
    return _binom_row(a, k)[k]


def catalan(n: int) -> int:
    """Number of non-crossing partitions of {1..n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Rank-k count in the non-crossing partitions of {1..n}: C(n,k)C(n,k+1)/n."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"rank {k} out of range 0..{n - 1}")
    return _exact_div(binom(n, k) * binom(n, k + 1), n)


class DiscCounts(NamedTuple):
    """Headline numbers for the one-circle type B poset on 2n points."""

    rank_counts: tuple[int, ...]
    total: int
    mobius_a: int
    mobius_b: int


def disc_counts(n: int) -> DiscCounts:
    """Rank counts C(n,k)^2, total C(2n,n), and both Moebius values."""
    if n < 1:
        raise ValueError("n must be positive")
    rank_counts = tuple(binom(n, k) ** 2 for k in range(n + 1))
    total = binom(2 * n, n)
    mobius_a = (-1) ** (n + 1) * factorial(2 * n - 2) // (factorial(n - 1) * factorial(n))
    mobius_b = (-1) ** n * binom(2 * n - 1, n)
    return DiscCounts(rank_counts, total, mobius_a, mobius_b)


def annulus_cell_count(p: int, q: int, c: int, e: int, i: int) -> int:
    """Partitions of the (p, q) poset with c connecting, e exterior and
    i interior block pairs; out-of-range statistics give 0."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    if c < 1 or e < 0 or i < 0:
        return 0
    return 2 * c * binom(p, e) * binom(p, e + c) * binom(q, i) * binom(q, i + c)


def annulus_connectivity_count(p: int, q: int, c: int) -> int:
    """Partitions of the (p, q) poset with exactly c connecting pairs."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    if c < 0:
        return 0
    if c == 0:
        return binom(2 * p, p) * binom(2 * q, q)
    return 2 * c * binom(2 * p, p - c) * binom(2 * q, q - c)


def annulus_positive_total(p: int, q: int) -> int:
    """Partitions of the (p, q) poset with at least one connecting pair."""
    return _exact_div(p * q * binom(2 * p, p) * binom(2 * q, q), p + q)


def annulus_total(p: int, q: int) -> int:
    """Size of the (p, q) poset: (p+q+pq)/(p+q) * C(2p,p) * C(2q,q)."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    return _exact_div((p + q + p * q) * binom(2 * p, p) * binom(2 * q, q), p + q)


class IntPolynomial:
    """Dense integer polynomial, stored low degree first without trailing zeros."""

    def __init__(self, coefficients=()):
        coefficients = [int(c) for c in coefficients]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        self.coefficients = tuple(coefficients)

    @classmethod
    def from_dict(cls, terms: dict[int, int]) -> "IntPolynomial":
        if not terms:
            return cls()
        coeffs = [0] * (max(terms) + 1)
        for k, c in terms.items():
            coeffs[k] += c
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coefficients or not other.coefficients:
            return IntPolynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __eq__(self, other):
        return (
            isinstance(other, IntPolynomial)
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(self.coefficients)

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coefficients)})"


def rank_gen_cells(p: int, q: int) -> IntPolynomial:
    """Rank generating polynomial of the (p, q) poset, summed cell by cell.

    Cubic in the circle sizes; kept as the independent oracle for `rank_gen`.
    """
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    terms: dict[int, int] = {}
    for i in range(p + 1):
        for j in range(q + 1):
            terms[i + j] = terms.get(i + j, 0) + binom(p, i) ** 2 * binom(q, j) ** 2
    for c in range(1, min(p, q) + 1):
        for e in range(p - c + 1):
            for i in range(q - c + 1):
                k = p + q - e - i - c
                terms[k] = terms.get(k, 0) + annulus_cell_count(p, q, c, e, i)
    return IntPolynomial.from_dict(terms)


def _circle_factors(n: int) -> tuple[list[int], list[int], list[int]]:
    """One circle's rows in the compact rank sum: C(n, k)^2 for k = 0..n, then
    C(n, k)C(n-1, k) and C(n, k+1)C(n-1, k) for k = 0..n-1."""
    row, inner = _binom_row(n, n), _binom_row(n - 1, n - 1)
    return (
        [c * c for c in row],
        [a * b for a, b in zip(row, inner)],
        [a * b for a, b in zip(row[1:], inner)],
    )


def rank_gen_compact(p: int, q: int) -> IntPolynomial:
    """Rank generating polynomial of the (p, q) poset, with the connected part
    folded into a single double sum.

    The disconnected part is sum C(p,i)^2 C(q,j)^2 x^(i+j); the connected part
    is 2pq/(p+q) times sum (hi_p[i] lo_q[j] + lo_p[i] hi_q[j]) x^(i+j+1) over
    the rows of `_circle_factors`.
    """
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    sq_p, lo_p, hi_p = _circle_factors(p)
    sq_q, lo_q, hi_q = _circle_factors(q)
    coeffs = list((IntPolynomial(sq_p) * IntPolynomial(sq_q)).coefficients)
    linked = (
        IntPolynomial(hi_p) * IntPolynomial(lo_q)
        + IntPolynomial(lo_p) * IntPolynomial(hi_q)
    )
    for k, weight in enumerate(linked.coefficients, start=1):
        coeffs[k] += _exact_div(2 * p * q * weight, p + q)
    return IntPolynomial(coeffs)


# The CLI and the README call the fast form by this name.
rank_gen = rank_gen_compact


def rank_coefficient(p: int, q: int, k: int) -> int:
    """Rank-k count of the (p, q) poset, 0 for k outside 0..p+q.

    This is the x^k coefficient of `rank_gen_compact`, walked along its two
    diagonals only: the disconnected terms (C(p, i) C(q, j))^2 with
    i + j = k, and the connected terms u_i ((p-i)/(i+1) + (q-j)/(j+1)) with
    u_i = C(p, i) C(p-1, i) C(q, j) C(q-1, j) and i + j = k - 1.  Each term
    comes from the one before by its ratio, so a step costs only products by
    small factors and exact divisions by small divisors.
    """
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    if not 0 <= k <= p + q:
        return 0
    low, high = max(0, k - q), min(p, k)
    term = (comb(p, low) * comb(q, k - low)) ** 2
    plain = term
    for i in range(low, high):
        term = _exact_div(
            term * ((p - i) * (k - i)) ** 2, ((i + 1) * (q - k + i + 1)) ** 2
        )
        plain += term
    linked = 0
    j = k - 1 - low
    u = binom(p, low) * binom(p - 1, low) * binom(q, j) * binom(q - 1, j)
    for i in range(low, high):
        j = k - 1 - i
        linked += _exact_div(
            u * ((p - i) * (j + 1) + (q - j) * (i + 1)), (i + 1) * (j + 1)
        )
        u = _exact_div(
            u * (p - i) * (p - 1 - i) * j * j, (i + 1) ** 2 * (q - j + 1) * (q - j)
        )
    return plain + _exact_div(2 * p * q * linked, p + q)


def zeta_poly(p: int, q: int, m: int) -> int:
    """Multichain-count polynomial of the (p, q) poset at any integer m."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    outer = _binom_row(m * p, p)  # C(mp, p - c) is outer[p - c]
    inner = _binom_row(m * q, p + q)  # C(mq, q + c) is inner[q + c]
    total = outer[p] * inner[q]
    for c in range(1, p + 1):
        total += 2 * c * outer[p - c] * inner[q + c]
    return total


def zeta_poly_q1(n: int, m: int) -> int:
    """Multichain counts for shape (n-1, 1): (2 + mn/((m-1)(n-1))) C(m(n-1), n).

    Written with the factor (m-1)(n-1) cancelled against the falling
    factorial so that m = 1 is fine too.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    partial = 1
    for t in range(n - 1):
        partial *= m * (n - 1) - t
    # partial == (m(n-1))_(n-1); full falling factorial = partial * (m-1)(n-1)
    full = partial * ((n - 1) * (m - 1))
    return _exact_div(2 * full + m * n * partial, factorial(n))


def max_chains(p: int, q: int) -> int:
    """Maximal chain count of the (p, q) poset."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    # Horner form in p of sum_c w_c C(p+q, p-c) p^(p-c) q^c, w_0 = 1, w_c = 2c
    row = _binom_row(p + q, p)  # C(p+q, p - c) is row[p - c]
    acc, q_power = row[p], 1
    for c in range(1, p + 1):
        q_power *= q
        acc = acc * p + 2 * c * row[p - c] * q_power
    return acc * q**q


def mobius_annulus(p: int, q: int) -> int:
    """Moebius value between bottom and top of the (p, q) poset."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    outer = binom(2 * p - 1, p - 1)  # C(2p-c-1, p-1) at c = 0
    inner = binom(2 * q - 1, q - 1)  # C(2q+c-1, q-1) at c = 0
    total = outer * inner
    for c in range(1, p + 1):
        outer = _exact_div(outer * (p - c + 1), 2 * p - c)
        inner = _exact_div(inner * (2 * q + c - 1), q + c)
        total += 2 * c * outer * inner
    return (-1) ** (p + q) * total


def mobius_q1(n: int) -> int:
    """Moebius value for shape (n-1, 1): (-1)^n C(2n-1, n) (5n-4)/(4n-2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return (-1) ** n * _exact_div(binom(2 * n - 1, n) * (5 * n - 4), 4 * n - 2)


def multi3_total(n1: int, n2: int, n3: int) -> int:
    """Size of the three-circle poset, symmetric in the circle sizes."""
    if min(n1, n2, n3) < 1:
        raise ValueError("circle sizes must be positive")
    # factor 1 + n1n2/(n1+n2) + n1n3/(n1+n3) + n2n3/(n2+n3) over one denominator
    d12, d13, d23 = n1 + n2, n1 + n3, n2 + n3
    numerator = (
        d12 * d13 * d23
        + n1 * n2 * d13 * d23
        + n1 * n3 * d12 * d23
        + n2 * n3 * d12 * d13
    )
    product = binom(2 * n1, n1) * binom(2 * n2, n2) * binom(2 * n3, n3)
    return _exact_div(numerator * product, d12 * d13 * d23)
