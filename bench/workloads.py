"""Seeded inputs for the four workloads, at full size and at smoke size.

Every choice comes from ``random.Random(seed)``, so one seed always gives
the same inputs.  Sizes are drawn from narrow ranges, poset shapes from
pools of near-equal cost and codec set sizes from a fixed generator, so
that the work per run hardly depends on the seed and runs with different
seeds can be compared.
"""

from __future__ import annotations

import random

# Each closed-form query is a (verb, extra arguments, p range, q range) slot.
# Heavy verbs are sized to about a quarter of a second each, in process, on
# a 2-core Xeon with Python 3.11.
# `count` and `max-chains` stay small: their answers must print in at most
# 4300 decimal digits, Python's default int-to-str limit, or the CLI exits 2.
_QUERIES_FULL = [
    ("rank-poly", (), (80, 82), (69, 71)),
    ("count-rank", (), (80, 82), (69, 71)),
    ("zeta", ("-m", "3"), (575, 585), (565, 575)),
    ("mobius", (), (1090, 1110), (890, 910)),
    ("max-chains", (), (640, 660), (540, 560)),
    ("count", (), (2900, 3100), (2400, 2600)),
]
_QUERIES_SMOKE = [
    ("rank-poly", (), (5, 6), (3, 4)),
    ("count-rank", (), (5, 6), (3, 4)),
    ("zeta", ("-m", "3"), (8, 9), (6, 7)),
    ("mobius", (), (8, 9), (6, 7)),
    ("max-chains", (), (7, 8), (5, 6)),
    ("count", (), (10, 11), (8, 9)),
]


def closed_form_queries(rng: random.Random, smoke: bool) -> list[list[str]]:
    """CLI argument lists: two queries per verb (one at smoke size), shuffled."""
    out = []
    for verb, extra, (p_lo, p_hi), (q_lo, q_hi) in (
        _QUERIES_SMOKE if smoke else _QUERIES_FULL * 2
    ):
        p, q = rng.randint(p_lo, p_hi), rng.randint(q_lo, q_hi)
        argv = ["count" if verb == "count-rank" else verb, "--shape", f"{p},{q}"]
        if verb == "count-rank":
            argv += ["--rank", str(rng.randint((p + q) // 3, 2 * (p + q) // 3))]
        out.append(argv + list(extra))
    rng.shuffle(out)
    return out


# Every poset has total size 6, which takes the filter-all-of-B_6 interval
# path (1-2 s a shape on a 2-vCPU Xeon).  A pass holds one shape from each
# pool, in a seeded circle order.  Size-7 shapes, which take the
# breadth-first path, cost 6-10 s each there, and one run's best time for
# one of them moved by up to a third from run to run, so they are left out.
_POOLS = [[(3, 3), (4, 2), (5, 1)], [(6,)], [(2, 2, 2), (3, 2, 1), (4, 1, 1), (2, 2, 1, 1)]]
_POOL_SMOKE = [(2, 1), (1, 1, 1)]


def poset_shapes(rng: random.Random, smoke: bool) -> list[tuple[tuple[int, ...], int]]:
    """(shape, sample seed) pairs: a two-circle shape, the disc and a shape
    with three or more circles, each circle order drawn at random."""
    picks = list(_POOL_SMOKE) if smoke else [rng.choice(pool) for pool in _POOLS]
    out = []
    for sizes in picks:
        sizes = list(sizes)
        rng.shuffle(sizes)
        out.append((tuple(sizes), rng.randrange(2**32)))
    rng.shuffle(out)
    return out


KREWERAS_SAMPLE = 24


def _annulus_tuple_text(sizes: random.Random, labels: random.Random, p: int, q: int, m: int) -> str:
    """A random valid tuple in the CLI's text form.

    `sizes` draws c and how many labels each set holds, following the
    domain's rules |LE| = sum |RE_k| + c and |LI| = sum |RI_k| - c;
    `labels` draws which labels they are, and d in 1..2c.
    """
    outer = list(range(1, p + 1))
    inner = list(range(p + 1, p + q + 1))
    levels = m - 1
    c = sizes.randint(1, min(p, q * levels))
    outer_total = sizes.randint(0, p - c)
    inner_total = sizes.randint(c, min(q * levels, q + c))
    rights_outer = [labels.sample(outer, k) for k in _split(sizes, outer_total, levels, p)]
    rights_inner = [labels.sample(inner, k) for k in _split(sizes, inner_total, levels, q)]
    left_outer = labels.sample(outer, outer_total + c)
    left_inner = labels.sample(inner, inner_total - c)
    d = labels.randint(1, 2 * c)

    def fmt(values):
        return ",".join(map(str, sorted(values)))

    parts = [f"c={c}", f"d={d}", f"LE={fmt(left_outer)}"]
    parts += [f"RE{k}={fmt(r)}" for k, r in enumerate(rights_outer, 1)]
    parts.append(f"LI={fmt(left_inner)}")
    parts += [f"RI{k}={fmt(r)}" for k, r in enumerate(rights_inner, 1)]
    return " ".join(parts)


def _split(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    """Random sizes, each at most cap, summing to total."""
    sizes = []
    for left in range(parts, 0, -1):
        low = max(0, total - cap * (left - 1))
        size = rng.randint(low, min(cap, total))
        sizes.append(size)
        total -= size
    return sizes


def codec_tuples(rng: random.Random, smoke: bool) -> list[tuple[int, int, int, str]]:
    """(p, q, m, tuple text): many m = 2 tuples with p + q in 20..40 and a
    few dozen m = 3 tuples with p + q = 6, generated without enumeration.

    Decoding an m = 3 chain searches level splits, so its cost ranges over
    two decades with the set sizes.  The sizes therefore come from a fixed
    generator and the seed draws the labels, d and the order: the seed
    changes every tuple but not the work of a pass.
    """
    n2, total2, n3, total3 = (8, (6, 8), 3, 4) if smoke else (300, (20, 40), 40, 6)
    sizes = random.Random(0)
    out = []
    for _ in range(n2):
        total = sizes.randint(*total2)
        p = sizes.randint(total // 3, total - total // 3)
        out.append((p, total - p, 2, _annulus_tuple_text(sizes, rng, p, total - p, 2)))
    for _ in range(n3):
        p = sizes.randint(1, total3 - 1)
        out.append((p, total3 - p, 3, _annulus_tuple_text(sizes, rng, p, total3 - p, 3)))
    rng.shuffle(out)
    return out


# `--max-n` for `verify`, full size and smoke size alike: the smallest
# bound at which every family runs checks.  At 3 a suite takes under a
# second, so a run holds some thirty of them; at 5 one family took nine
# tenths of a ten-second suite, and a run held only two suites, whose times
# differed by up to a quarter.
VERIFY_MAX_N = 3

# Nominal seconds per full-size pass on the 2-vCPU Xeon above.  A run makes
# --seconds // PASS_SECONDS passes (at least one), so the work per run is
# fixed by the benchmark and not by how fast the program happens to be.
PASS_SECONDS = {"closed-forms": 3, "posets": 4, "codec": 2.5, "verify": 0.8}

# `ncb verify --all` families in the order the suite runs them.
VERIFY_FAMILIES = [
    "rank-vector-q1",
    "rank-vector-disc",
    "annulus-total",
    "connectivity-count",
    "cell-count",
    "rank-gen",
    "rank-gen-compact",
    "hasse-edges",
    "mobius-annulus",
    "mobius-disc",
    "mobius-q1",
    "mobius-via-zeta",
    "zeta",
    "zeta-disc",
    "zeta-q1",
    "max-chains",
    "zeta-leading",
    "roundtrip-annulus",
    "roundtrip-multichain",
    "multi-split",
    "multi-total",
    "genus-defect",
    "chu-vandermonde",
    "hypersum",
    "dixon",
]
