"""Reference values the benchmark checks the program's outputs against.

Everything here is written from the paper's formulas with ``math.comb``
only; nothing imports ``ncb``, so a wrong answer from the program cannot
also be the reference it is compared with.
"""

from __future__ import annotations

from math import comb


def gbinom(a: int, k: int) -> int:
    """C(a, k) for any integer a, by the upper-negation rule for a < 0."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k) if k <= a else 0
    return (-1) ** k * comb(k - a - 1, k)


def zeta(p: int, q: int, m: int) -> int:
    """Multichain count of the (p, q) poset, summed by connectivity c, for
    m = -1 (the Moebius value between bottom and top) or m >= 2 (m = 2
    gives the poset size).

    Consecutive binomials come from term ratios, so the sum costs O(p)
    big-integer steps; the divisions are exact.
    """
    if m != -1 and m < 2:
        raise ValueError(f"no reference for m = {m}")
    a, b = m * p, m * q
    outer, inner = gbinom(a, p), gbinom(b, q)  # C(a, p - c), C(b, q + c) at c = 0
    total = outer * inner
    for c in range(1, p + 1):
        j = p - c
        outer = outer * (j + 1) // (a - j)
        inner = inner * (b - q - c + 1) // (q + c)
        total += 2 * c * outer * inner
    return total


def rank_count(p: int, q: int, k: int) -> int:
    """Rank-k count of the (p, q) poset from the compact double sum,
    walking only the diagonals i + j = k and i + j = k + 1."""
    plain = sum(
        comb(p, i) ** 2 * comb(q, k - i) ** 2 for i in range(max(0, k - q), min(p, k) + 1)
    )
    weight = 0
    for i in range(max(1, k + 1 - q), min(p, k) + 1):
        j = k + 1 - i
        weight += (
            (comb(p, i) * comb(q, j - 1) + comb(p, i - 1) * comb(q, j))
            * comb(p - 1, i - 1)
            * comb(q - 1, j - 1)
        )
    connected, rest = divmod(2 * p * q * weight, p + q)
    if rest:
        raise ArithmeticError(f"rank {k} of ({p}, {q}) is not an integer")
    return plain + connected


def max_chains(p: int, q: int) -> int:
    """Maximal chain count of the (p, q) poset."""
    total = comb(p + q, p) * p**p * q**q
    for c in range(1, p + 1):
        total += 2 * c * comb(p + q, p - c) * p ** (p - c) * q ** (q + c)
    return total


def multi3_size(a: int, b: int, c: int) -> int:
    """Size of the three-circle poset."""
    scaled = (a + b) * (a + c) * (b + c) + a * b * (a + c) * (b + c)
    scaled += a * c * (a + b) * (b + c) + b * c * (a + b) * (a + c)
    size, rest = divmod(scaled * comb(2 * a, a) * comb(2 * b, b) * comb(2 * c, c),
                        (a + b) * (a + c) * (b + c))
    if rest:
        raise ArithmeticError(f"size of ({a}, {b}, {c}) is not an integer")
    return size


def parse_polynomial(text: str) -> list[int]:
    """Coefficients, low degree first, of text like ``1 + 9*x + x^3``."""
    coefficients: dict[int, int] = {}
    for term in text.split(" + "):
        head, sep, power = term.partition("x")
        head = head.rstrip("*")
        value = int(head) if head else 1
        if not sep:
            degree = 0
        elif power.startswith("^"):
            degree = int(power[1:])
        elif power:
            raise ValueError(f"bad term {term!r}")
        else:
            degree = 1
        if degree in coefficients:
            raise ValueError(f"repeated degree {degree}")
        coefficients[degree] = value
    return [coefficients.get(k, 0) for k in range(max(coefficients) + 1)]


def check_query(argv: list[str], output: str) -> str | None:
    """None when a closed-form query printed the right answer, else why not."""
    verb = argv[0]
    sizes = [int(x) for x in argv[argv.index("--shape") + 1].split(",")]
    if len(sizes) != 2:
        raise ValueError(f"benchmark queries use two-circle shapes, got {sizes}")
    p, q = sizes
    text = output.strip()
    try:
        if verb == "rank-poly":
            got = parse_polynomial(text)
            if len(got) != p + q + 1:
                return f"degree {len(got) - 1}, expected {p + q}"
            if sum(got) != zeta(p, q, 2):
                return "coefficients do not sum to the poset size"
            for k in (0, (p + q) // 3, (p + q) // 2, p + q):
                if got[k] != rank_count(p, q, k):
                    return f"rank {k} coefficient differs"
            return None
        value = int(text)
    except ValueError as exc:
        return f"unparseable output ({exc})"
    if verb == "count" and "--rank" in argv:
        expected = rank_count(p, q, int(argv[argv.index("--rank") + 1]))
    elif verb == "count":
        expected = zeta(p, q, 2)
    elif verb == "zeta":
        expected = zeta(p, q, int(argv[argv.index("-m") + 1]))
    elif verb == "mobius":
        expected = zeta(p, q, -1)
    elif verb == "max-chains":
        expected = max_chains(p, q)
    else:
        raise ValueError(f"no reference for verb {verb!r}")
    return None if value == expected else f"{verb} value differs from the reference"


def check_poset(sizes: tuple[int, ...], r: dict) -> str | None:
    """None when a poset worker's numbers match the closed forms, else why not.

    Cover counts have no closed form; they are checked for agreement with
    the DOT output and for gradedness.  Kreweras images are checked for
    rank n - r, membership and injectivity on the sample.
    """
    n = sum(sizes)
    size = r["size"]
    if len(sizes) == 1:
        expected_size = comb(2 * n, n)
        ranks = [comb(n, k) ** 2 for k in range(n + 1)]
        mobius = (-1) ** n * comb(2 * n - 1, n)
        zetas = {m: comb(m * n, n) for m in (2, 3, 4)}
        chains = n**n
    elif len(sizes) == 2:
        p, q = sizes
        expected_size = zeta(p, q, 2)
        ranks = [rank_count(p, q, k) for k in range(n + 1)]
        mobius = zeta(p, q, -1)
        zetas = {m: zeta(p, q, m) for m in (2, 3, 4)}
        chains = max_chains(p, q)
    elif len(sizes) == 3:
        expected_size = multi3_size(*sizes)
        ranks = mobius = chains = None
        zetas = {2: expected_size}
    else:
        expected_size = ranks = mobius = chains = None
        zetas = {2: size}
    checks = [
        ("size", size, expected_size),
        ("interval size", r["interval"], size),
        ("distinct adjusted orbits", r["orbit_images"], size),
        ("adjusted orbits cover the poset", r["orbit_images_are_poset"], True),
        ("rank vector sum", sum(r["rank_vector"]), size),
        ("rank vector", r["rank_vector"], ranks),
        ("bottom <= top", r["bottom_le_top"], True),
        ("covers graded", r["covers_graded"], True),
        ("DOT nodes", r["dot_nodes"], size),
        ("DOT edges", r["dot_edges"], r["covers"]),
        ("Moebius", r["mobius"], mobius),
        ("maximal chains", r["maximal_chains"], chains),
    ]
    checks += [(f"zeta({m})", r["zeta"][str(m)], v) for m, v in zetas.items()]
    for name, got, expected in checks:
        if expected is not None and got != expected:
            return f"{name}: got {got}, expected {expected}"
    kreweras = r["kreweras"]
    if not kreweras:
        return "empty Kreweras sample"
    for rank_in, rank_out, member in kreweras:
        if rank_out != n - rank_in or not member:
            return "Kreweras image has the wrong rank or lies outside the poset"
    if r["kreweras_distinct"] != len(kreweras):
        return "Kreweras is not injective on the sample"
    return None
