"""Closed-form counts for the non-crossing posets, in exact arithmetic.

Every function returns plain ints.  Zeta, Moebius and maximal chain counts
are the paper's products of binomials, not sums over the connectivity, and
every division is checked to land on an integer.

Every closed form takes its binomials from `binom`: `math.comb` for small
ones and, past a measured crossover (`_by_primes`), the prime powers of
C(a, b), with Legendre's exponents, multiplied as a balanced tree.  The
primes come from one table per process (`_primes_to`), sieved on the first
factored binomial and grown when a larger one arrives.

`IntPolynomial.__mul__` and the two-circle rank polynomial's packed pass
(`rank_gen_compact`) are two-point Kronecker substitutions (D. Harvey,
2009): the factors are evaluated at x = y and x = -y, y half a byte slot
(`_at_plus_minus_y`), so each product is two half-length ones, and the
even and odd coefficients are read off their sum and difference (`_recombine`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import comb, isqrt
from typing import Callable, Iterable, NamedTuple, Sequence


def _by_primes(a: int, k: int) -> bool:
    """Whether C(a, k), k <= a/2, is faster from its prime factors than from
    `math.comb`.  With the prime table built, the factor path costs about a
    step per prime up to a, while `math.comb` grows faster than k.  Timed on
    a 2-core host with Python 3.11 for a from 800 to 409,600 and a/k from 2
    to 256, the factor path wins from about k = 440 at a = 1200, k = 600 at
    a = 3200, k = 1000 at a = 12,800 and k = 1700 at a = 51,200.  The rule
    takes it where it was faster by about a fifth or more: k >= 512,
    k * k >= 160 a and a <= 8k.  Past a = 8k a process that factors one
    binomial loses: building the table first (about 26 ns per odd number
    below the power of two past a) made C(a, a/16) take 1.3 to 2.7 times
    `math.comb`'s time for a from 12,800 to 51,200."""
    return k >= 512 and k * k >= 160 * a and a <= 8 * k


# With k <= a/2, k >= 512 needs a >= 1024: `_by_primes` takes no row below this.
_COMB_ROWS = 1024

# (limit, every prime up to limit), limit a power of two.  Only the seed
# prime until the first factored binomial; `_primes_to` replaces the pair
# whole, so a reader holding the old one still sees a complete table.
_prime_table: tuple[int, array] = (2, array("I", [2]))


def _primes_to(a: int) -> array:
    """A table of the primes in increasing order that holds every prime up
    to a, grown to the power of two past a if a is past its limit.  A limit
    past 2^32 raises ValueError before anything is allocated."""
    global _prime_table
    limit, primes = _prime_table
    if a > limit:
        start, limit = limit, 1 << a.bit_length()
        if limit > 1 << 32:  # past what the table's array("I") holds
            raise ValueError(f"C({a}, k) is too large: its prime sieve needs {limit >> 1} bytes")
        odd = bytearray([1]) * (limit >> 1)  # odd[i] stands for 2i + 1
        for i in range(3, isqrt(limit) + 1, 2):
            if odd[i >> 1]:
                first = i * i >> 1
                odd[first::i] = bytes((len(odd) - 1 - first) // i + 1)
        # Sieving is cheap next to reading primes off the sieve, one int
        # per odd number: only the odd numbers past the old limit are read.
        fresh = compress(range(start + 1, limit, 2), odd[start >> 1 :])
        primes = primes + array("I", fresh)
        _prime_table = limit, primes
    return primes


def _prime_factor_binom(a: int, b: int) -> int:
    """C(a, b) as the product of its prime powers p^e, multiplied pairwise."""
    primes = _primes_to(a)
    c, root = a - b, isqrt(a)
    # Past the root e is 0 or 1, and 1 exactly when adding b and c carries
    # in base p: a % p < b % p.  Every prime in (max(b, c), a] divides C(a, b)
    # once; max(b, c) >= a/2 is never below the root.
    low, middle, high = (bisect_right(primes, x) for x in (root, max(b, c), a))
    factors = []
    for p in primes[:low]:
        e, power = 0, p  # Legendre: e = sum over j of a//p^j - b//p^j - c//p^j
        while power <= a:
            e += a // power - b // power - c // power
            power *= p
        factors.append(p**e)
    factors += [p for p in primes[low:middle] if a % p < b % p]
    factors += primes[middle:high]
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [x * y for x, y in zip(factors[::2], factors[1::2])] + odd
    return factors[0] if factors else 1


def binom(a: int, b: int) -> int:
    """C(a, b) with the convention 0 for b < 0 or b > a (a must be >= 0)."""
    if 0 <= b <= a < _COMB_ROWS:
        return comb(a, b)
    if a < 0:
        raise ValueError("upper argument must be nonnegative; use gbinom")
    if b < 0 or b > a:
        return 0
    if _by_primes(a, min(b, a - b)):
        return _prime_factor_binom(a, b)
    return comb(a, b)


def _exact_div(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"division by {den} is not exact")
    return value


def _binom_row(n: int) -> list[int]:
    """[C(n, 0), ..., C(n, n)] for n >= 0: half the row by C(n, t+1) =
    C(n, t)(n-t)/(t+1), the other half mirrored."""
    row = [1]
    for t in range(n // 2):
        row.append(_exact_div(row[-1] * (n - t), t + 1))
    return row + row[-2 + n % 2 :: -1]


def _pack(values: Iterable[int], size: int) -> int:
    """Ints in [0, 2^(8 size)) as one int, the k-th in byte slot k of `size` bytes."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def _exact_slots(packed: int, divisor: int, size: int, count: int) -> list[int]:
    """The `count` slots of `size` bytes of packed / divisor.  Each quotient
    slot times the divisor must fit a slot: then those products are packed's
    slots, so each slot divided exactly, not only the total.  A negative or
    too long quotient raises OverflowError, which is an ArithmeticError."""
    raw = _exact_div(packed, divisor).to_bytes(size * count, "little")
    slots = [int.from_bytes(raw[k : k + size], "little") for k in range(0, len(raw), size)]
    if max(slots, default=0) > ((1 << 8 * size) - 1) // divisor:
        raise ArithmeticError(f"a slot is not a multiple of {divisor}")
    return slots


def _at_plus_minus_y(pack: Callable, values: Sequence[int], size: int) -> tuple[int, int]:
    """The polynomial with these coefficients at x = y and x = -y, y = 2^(4 size):
    `pack` puts its even and its odd coefficients apart into `size`-byte
    slots, at x = y^2, and the odd pack times y is added or taken away."""
    even, odd = pack(values[::2]), pack(values[1::2]) << 4 * size
    return even + odd, even - odd


def _recombine(plus: int, minus: int, size: int, count: int, divisor: int, bias: int) -> list[int]:
    """The `count` coefficients of h from plus = h(y) and minus = h(-y): the
    even ones are the slots of (plus + minus)/2 and the odd ones those of
    (plus - minus)/2y, both exact.  Side by side, plus `bias`, they are read
    once by `_exact_slots` with `divisor`, then interleaved."""
    evens = (count + 1) // 2
    even, odd = (plus + minus) >> 1, (plus - minus) >> (4 * size + 1)
    slots = _exact_slots(even + (odd << 8 * size * evens) + bias, divisor, size, count)
    slots[::2], slots[1::2] = slots[:evens], slots[evens:]
    return slots


def gbinom(a: int, k: int) -> int:
    """C(a, k) = a(a-1)...(a-k+1)/k! for any integer a, by upper negation."""
    if k < 0:
        return 0
    if a >= 0:
        return binom(a, k)
    return (-1) ** k * binom(k - a - 1, k)


def mobius_disc(n: int) -> int:
    """Moebius value of the one-circle poset on 2n points: (-1)^n C(2n-1, n)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (-1) ** n * binom(2 * n - 1, n)


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
        coefficients = list(coefficients)
        if not {int}.issuperset(map(type, coefficients)):
            bad = next(c for c in coefficients if type(c) is not int)
            raise ValueError(f"coefficient {bad!r} is not an int")
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        self.coefficients = tuple(coefficients)

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

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(-c for c in other.coefficients)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """Two-point Kronecker substitution: evaluate both factors at x = y and
        x = -y, y = 2^(4 size), multiply twice at half the length of one
        product at y^2, and read each product coefficient plus `half` from
        its slot of the recombined pack."""
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial()
        bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
        size = (bits + min(len(a), len(b)).bit_length()) // 8 + 1
        half = 1 << (8 * size - 1)  # above every |coefficient| of the product
        bias = lambda m: int.from_bytes(half.to_bytes(size, "little") * m, "little")
        pack = lambda cs: _pack([c + half for c in cs], size) - bias(len(cs))
        at = lambda cs: _at_plus_minus_y(pack, cs, size)
        plus, minus = (x * y for x, y in zip(at(a), at(b)))
        n = len(a) + len(b) - 1
        out = _recombine(plus, minus, size, n, 1, bias(n))  # a plain read
        return IntPolynomial([c - half for c in out])

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

    Cubic in the circle sizes; kept as the independent oracle for `rank_gen`:
    each circle's row is read once through `binom`, and each cell's count
    (`annulus_cell_count`) is added with its outer factor out of the i loop.
    """
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    outer, inner = ([binom(n, k) for k in range(n + 1)] for n in (p, q))
    terms = [0] * (p + q + 1)
    for i, a in enumerate(outer):
        for j, b in enumerate(inner):
            terms[i + j] += a * a * b * b
    for c in range(1, min(p, q) + 1):
        for e in range(p - c + 1):
            pairs = 2 * c * outer[e] * outer[e + c]
            for i in range(q - c + 1):
                terms[p + q - e - i - c] += pairs * inner[i] * inner[i + c]
    return IntPolynomial(terms)


def rank_gen_compact(p: int, q: int) -> IntPolynomial:
    """Rank generating polynomial R(x) of the (p, q) poset in one packed pass.

    R(x) is sum C(p,i)^2 C(q,j)^2 x^(i+j) (the disconnected part) plus
    2pq/(p+q) times sum (H_p[i] L_q[j] + L_p[i] H_q[j]) x^(i+j+1) (the
    connected part), with L_n[k] = C(n, k)C(n-1, k) and H_n[k] =
    C(n, k+1)C(n-1, k).  Pascal's rule gives C(n, k)^2 = L_n[k] + H_n[k-1],
    so with d = p+q and u = d+2pq,
    d^2 R(x) = (d L_p + u x H_p)(d L_q + u x H_q) - 4pq(pq+d) x^2 H_p H_q.
    """
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    d = p + q
    u = d + 2 * p * q

    def circle(n: int) -> tuple[list[int], list[int]]:
        """d L_n + u x H_n, and H_n, from C(n-1, .) and by Pascal C(n, .)."""
        inner = _binom_row(n - 1)
        row = [1, *map(int.__add__, inner, inner[1:]), 1]
        mixed = [c * (d * a + u * b) for c, a, b in zip(row[1:], inner[1:], inner)]
        return [d, *mixed, u], [a * b for a, b in zip(row[1:], inner)]

    (mixed_p, high_p), (mixed_q, high_q) = circle(p), circle(q)
    bits = max(mixed_p).bit_length() + max(mixed_q).bit_length()
    size = (bits + (min(p, q) + 1).bit_length()) // 8 + 1  # as `__mul__` sizes it
    pack = lambda cs: _pack(cs, size)
    at = lambda cs: _at_plus_minus_y(pack, cs, size)
    linked = 4 * p * q * (p * q + d)
    # The right side at x = y and at x = -y, four half-length products: x^2 is
    # y^2 = 2^(8 size) at both.  No bias: every coefficient is >= 0.  Each
    # slot of the recombined pack, d^2 R_k, lies in [0, coefficient k of
    # M_p M_q], so no slot borrows or carries.
    plus, minus = (
        m_p * m_q - (linked * h_p * h_q << 8 * size)
        for m_p, m_q, h_p, h_q in zip(at(mixed_p), at(mixed_q), at(high_p), at(high_q))
    )
    return IntPolynomial(_recombine(plus, minus, size, p + q + 1, d * d, 0))


# The CLI and the README call the fast form by this name.
rank_gen = rank_gen_compact


def rank_gen_disc(n: int) -> IntPolynomial:
    """Rank generating polynomial of the one-circle poset on 2n points:
    C(n, k)^2 at x^k."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPolynomial([c * c for c in _binom_row(n)])


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
    term = (binom(p, low) * binom(q, k - low)) ** 2
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
    """Multichain counts of the (p, q) poset, (1 + 2(m-1)pq/(m(p+q))) C(mp, p)
    C(mq, q), with C(mp, p) = m C(mp-1, p-1) so that any integer m works."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    factor = m * (p + q) + 2 * (m - 1) * p * q
    return _exact_div(gbinom(m * p - 1, p - 1) * gbinom(m * q, q) * factor, p + q)


def zeta_poly_q1(n: int, m: int) -> int:
    """Multichain counts for shape (n-1, 1): (2 + mn/((m-1)(n-1))) C(m(n-1), n),
    with C(m(n-1), n) = C(m(n-1), n-1) (m-1)(n-1)/n so that m = 1 works too."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return _exact_div(gbinom(m * (n - 1), n - 1) * (2 * (m - 1) * (n - 1) + m * n), n)


def max_chains(p: int, q: int) -> int:
    """Maximal chain count of the (p, q) poset: (p+q)! times the leading
    coefficient of `zeta_poly`, C(p+q, p) p^p q^q (p+q+2pq)/(p+q)."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    return _exact_div(binom(p + q, p) * p**p * q**q * (p + q + 2 * p * q), p + q)


class GradedChains(NamedTuple):
    """The maximal chains of a graded poset of the given rank.  In a
    product of posets the chains of the factors shuffle: ranks add and
    counts multiply with C(r + s, r).  Sums take posets of one rank."""

    rank: int
    count: int

    def __mul__(self, other: "GradedChains") -> "GradedChains":
        rank = self.rank + other.rank
        return GradedChains(rank, binom(rank, self.rank) * self.count * other.count)

    def __add__(self, other: "GradedChains") -> "GradedChains":
        return GradedChains(self.rank, self.count + other.count)

    def __sub__(self, other: "GradedChains") -> "GradedChains":
        return GradedChains(self.rank, self.count - other.count)


def mobius_annulus(p: int, q: int) -> int:
    """Moebius value between bottom and top of the (p, q) poset:
    (-1)^(p+q) C(2p-1, p) C(2q-1, q) (p+q+4pq)/(p+q)."""
    if min(p, q) < 1:
        raise ValueError("circle sizes must be positive")
    total = binom(2 * p - 1, p) * binom(2 * q - 1, q) * (p + q + 4 * p * q)
    return (-1) ** (p + q) * _exact_div(total, p + q)


def mobius_q1(n: int) -> int:
    """Moebius value for shape (n-1, 1): (-1)^n C(2n-1, n) (5n-4)/(4n-2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return (-1) ** n * _exact_div(binom(2 * n - 1, n) * (5 * n - 4), 4 * n - 2)


def over_matchings(sizes, disc, annulus):
    """The sum, over the matchings M of the circles, of the product of
    annulus(a, b) - disc(a) * disc(b) over the pairs of M and of disc(a)
    over the circles M leaves out.  Every joint orbit meets at most two
    circles, so this lifts a closed form from the disc and the annulus to
    any shape; one circle gives disc(n), two give annulus(p, q) itself.
    Partial sums are kept per sorted tuple of the circles left, so the
    cost grows exponentially only in the number of distinct sizes.
    """

    @lru_cache(maxsize=None)
    def total(left: tuple[int, ...]):
        if len(left) <= 2:
            return disc(*left) if len(left) == 1 else annulus(*left)
        first, rest = left[0], left[1:]
        value = total((first,)) * total(rest)
        for b in dict.fromkeys(rest):  # the size of first's partner
            linked = total((first, b)) - total((first,)) * total((b,))
            i = rest.index(b)
            term = linked * total(rest[:i] + rest[i + 1 :])
            value = sum([term] * rest.count(b), value)  # once per circle of size b
        return value

    sizes = tuple(sizes)
    return total(sizes if len(sizes) <= 2 else tuple(sorted(sizes)))


def poset_size(sizes) -> int:
    """Elements of the shape's poset: over_matchings of C(2n, n) and annulus_total."""
    return over_matchings(sizes, lambda n: binom(2 * n, n), annulus_total)
