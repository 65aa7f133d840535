"""Command-line front end for counting, listing, codecs, and checks."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import bijection, enumeration, formulas
from .formulas import binom, gbinom
from .partition import BPartition, connectivity, pair_stats
from .signed_perm import (
    AnnulusShape,
    SignedPermutation,
    boundary_permutation,
    genus_defect,
    joint_orbits,
)


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("shape needs positive comma-separated sizes")
    return sizes


def _parse_cell(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("cell must be c,e,i")
    try:
        c, e, i = (int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cell {text!r}") from None
    return c, e, i


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as handle:
            handle.write(text + "\n")


def _poset_for_shape(sizes: tuple[int, ...]):
    if len(sizes) == 1:
        return enumeration.nc_b_disc(sizes[0])
    if len(sizes) == 2:
        return enumeration.nc_b_annulus(*sizes)
    return enumeration.nc_b_multi(sizes)


def _cmd_count(args) -> int:
    sizes = args.shape
    filters = [
        name
        for name, value in (
            ("rank", args.rank),
            ("connectivity", args.connectivity),
            ("cell", args.cell),
        )
        if value is not None
    ]
    if len(filters) > 1:
        raise ValueError("at most one of --rank/--connectivity/--cell")
    if len(sizes) == 1:
        (n,) = sizes
        if filters and filters != ["rank"]:
            raise ValueError("one-circle shapes only support --rank")
        value = binom(n, args.rank) ** 2 if args.rank is not None else formulas.disc_counts(n).total
    elif len(sizes) == 2:
        p, q = sizes
        if args.cell is not None:
            value = formulas.annulus_cell_count(p, q, *args.cell)
        elif args.connectivity is not None:
            value = formulas.annulus_connectivity_count(p, q, args.connectivity)
        elif args.rank is not None:
            value = formulas.rank_coefficient(p, q, args.rank)
        else:
            value = formulas.annulus_total(p, q)
    elif filters:
        raise ValueError("filters need a one- or two-circle shape")
    elif len(sizes) == 3:
        value = formulas.multi3_total(*sizes)
    else:
        value = len(_poset_for_shape(sizes))
    _emit(str(value), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    sizes = args.shape
    if args.connectivity is not None and len(sizes) != 2:
        raise ValueError("--connectivity needs a two-circle shape")
    poset = _poset_for_shape(sizes)
    shape = AnnulusShape(sizes)
    lines = []
    for pi in poset:
        if args.rank is not None and pi.rank() != args.rank:
            continue
        if args.connectivity is not None and connectivity(pi, shape) != args.connectivity:
            continue
        lines.append(pi.to_json() if args.json else pi.block_string())
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_rank_poly(args) -> int:
    sizes = args.shape
    if len(sizes) == 1:
        (n,) = sizes
        poly = formulas.IntPolynomial(binom(n, k) ** 2 for k in range(n + 1))
    elif len(sizes) == 2:
        poly = formulas.rank_gen(*sizes)
    else:
        raise ValueError("rank polynomial needs a one- or two-circle shape")
    _emit(str(poly), args.out)
    return 0


def _cmd_zeta(args) -> int:
    sizes = args.shape
    if len(sizes) == 1:
        value = gbinom(args.m * sizes[0], sizes[0])
    elif len(sizes) == 2:
        value = formulas.zeta_poly(sizes[0], sizes[1], args.m)
    else:
        raise ValueError("zeta needs a one- or two-circle shape")
    _emit(str(value), args.out)
    return 0


def _cmd_mobius(args) -> int:
    sizes = args.shape
    if len(sizes) == 1:
        value = formulas.disc_counts(sizes[0]).mobius_b
    elif len(sizes) == 2:
        value = formulas.mobius_annulus(*sizes)
    else:
        raise ValueError("mobius needs a one- or two-circle shape")
    _emit(str(value), args.out)
    return 0


def _cmd_max_chains(args) -> int:
    if len(args.shape) != 2:
        raise ValueError("max-chains needs a two-circle shape")
    _emit(str(formulas.max_chains(*args.shape)), args.out)
    return 0


def _read_lines(path: str | None) -> list[str]:
    if path is None:
        return sys.stdin.read().splitlines()
    with open(path) as handle:
        return handle.read().splitlines()


def _cmd_encode(args) -> int:
    if len(args.shape) != 2:
        raise ValueError("encode needs a two-circle shape")
    p, q = args.shape
    lines = []
    for number, line in enumerate(_read_lines(args.infile), start=1):
        if not line.strip():
            continue
        try:
            t = bijection.AnnulusTuple.from_text(line)
        except ValueError as exc:
            raise ValueError(
                f"line {number} is not a tuple: "
                f"{line.strip()} ({type(exc).__name__}: {exc})"
            ) from None
        chain = bijection.encode_multichain(t, p, q)
        if len(chain) == 1:
            lines.append(chain[0].to_json())
        else:
            lines.append(
                json.dumps([pi.to_dict() for pi in chain], separators=(",", ":"))
            )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_decode(args) -> int:
    if len(args.shape) != 2:
        raise ValueError("decode needs a two-circle shape")
    p, q = args.shape
    lines = []
    for number, line in enumerate(_read_lines(args.infile), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if isinstance(data, dict):
                chain = [BPartition.from_dict(data)]
            else:
                chain = [BPartition.from_dict(d) for d in data]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"line {number} is not a partition or a list of them: "
                f"{line.strip()} ({type(exc).__name__}: {exc})"
            ) from None
        t = bijection.decode_multichain(chain, p, q)
        lines.append(t.to_text())
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_hasse_dot(args) -> int:
    poset = _poset_for_shape(args.shape)
    _emit(poset.to_dot(name="ncb"), args.out)
    return 0


@dataclass
class Check:
    name: str
    params: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _annulus_pairs(max_total: int) -> list[tuple[int, int]]:
    """(p, q) with p >= q >= 1 and p + q <= max_total."""
    return [
        (p, total - p)
        for total in range(2, max_total + 1)
        for p in range((total + 1) // 2, total)
    ]


def _size_tuples(max_total: int, min_circles: int = 3) -> list[tuple[int, ...]]:
    """Nonincreasing size tuples with at least min_circles entries."""
    out = []

    def grow(prefix, remaining, cap):
        if len(prefix) >= min_circles:
            out.append(tuple(prefix))
        for s in range(min(cap, remaining), 0, -1):
            grow(prefix + [s], remaining - s, s)

    grow([], max_total, max_total)
    return sorted(out, key=lambda t: (sum(t), t))


def verify_suite(max_n: int = 6, only: str | None = None) -> list[Check]:
    """Formula-versus-oracle checks, one Check record per line of output."""
    checks: list[Check] = []

    def wanted(name: str) -> bool:
        return only is None or name == only

    def add(name: str, params: str, expected, actual) -> None:
        checks.append(Check(name, params, expected, actual))

    pairs = _annulus_pairs(max_n)
    small_pairs = _annulus_pairs(min(max_n, 5))

    if wanted("rank-vector-q1"):
        for n in range(2, max_n + 1):
            add(
                "rank-vector-q1",
                f"p={n - 1} q=1",
                tuple(binom(n, k) ** 2 for k in range(n + 1)),
                enumeration.nc_b_annulus(n - 1, 1).rank_vector(),
            )
    if wanted("rank-vector-disc"):
        for n in range(1, min(max_n, 6) + 1):
            add(
                "rank-vector-disc",
                f"n={n}",
                formulas.disc_counts(n).rank_counts,
                enumeration.nc_b_disc(n).rank_vector(),
            )
    if wanted("annulus-total"):
        for p, q in pairs:
            add(
                "annulus-total",
                f"p={p} q={q}",
                formulas.annulus_total(p, q),
                len(enumeration.nc_b_annulus(p, q)),
            )
    if wanted("connectivity-count") or wanted("cell-count"):
        for p, q in pairs:
            shape = AnnulusShape(p, q)
            by_c: Counter = Counter()
            by_cell: Counter = Counter()
            for pi in enumeration.nc_b_annulus(p, q):
                stats = pair_stats(pi, shape)
                by_c[stats.connecting] += 1
                if stats.connecting:
                    by_cell[tuple(stats)] += 1
            if wanted("connectivity-count"):
                add(
                    "connectivity-count",
                    f"p={p} q={q}",
                    {
                        c: formulas.annulus_connectivity_count(p, q, c)
                        for c in range(min(p, q) + 1)
                    },
                    dict(by_c),
                )
            if wanted("cell-count"):
                expected = {}
                for c in range(1, min(p, q) + 1):
                    for e in range(p - c + 1):
                        for i in range(q - c + 1):
                            expected[(c, e, i)] = formulas.annulus_cell_count(
                                p, q, c, e, i
                            )
                add("cell-count", f"p={p} q={q}", expected, dict(by_cell))
    if wanted("rank-gen"):
        for p, q in pairs:
            add(
                "rank-gen",
                f"p={p} q={q}",
                tuple(formulas.rank_gen(p, q).coefficients),
                enumeration.nc_b_annulus(p, q).rank_vector(),
            )
    if wanted("rank-gen-compact"):
        bad = 0
        for p in range(1, 7):
            for q in range(1, 7):
                poly = formulas.rank_gen_cells(p, q)
                bad += (
                    poly != formulas.rank_gen_compact(p, q)
                    or poly(1) != formulas.annulus_total(p, q)
                    or any(
                        formulas.rank_coefficient(p, q, k) != poly.coefficient(k)
                        for k in range(p + q + 1)
                    )
                )
        add("rank-gen-compact", "p,q<=6", 0, bad)
    if wanted("hasse-edges") and max_n >= 3:
        add(
            "hasse-edges",
            "p=2 q=1",
            46,
            len(enumeration.nc_b_annulus(2, 1).hasse_edges()),
        )
        # graded poset: covers are exactly the order pairs one rank apart
        disc = enumeration.nc_b_disc(3)
        graded = sum(
            1
            for x in disc.elements
            for y in disc.elements
            if x.rank() + 1 == y.rank() and disc.le(x, y)
        )
        add("hasse-edges", "n=3", graded, len(disc.hasse_edges()))
    if wanted("mobius-annulus"):
        for p, q in pairs:
            poset = enumeration.nc_b_annulus(p, q)
            add(
                "mobius-annulus",
                f"p={p} q={q}",
                formulas.mobius_annulus(p, q),
                poset.mobius(poset.bottom(), poset.top()),
            )
    if wanted("mobius-disc"):
        for n in range(2, min(max_n, 6) + 1):
            poset = enumeration.nc_b_disc(n)
            add(
                "mobius-disc",
                f"n={n}",
                formulas.disc_counts(n).mobius_b,
                poset.mobius(poset.bottom(), poset.top()),
            )
    if wanted("mobius-q1"):
        for n in range(2, max_n + 1):
            add(
                "mobius-q1",
                f"n={n}",
                formulas.mobius_annulus(n - 1, 1),
                formulas.mobius_q1(n),
            )
    if wanted("mobius-via-zeta"):
        for p, q in pairs:
            add(
                "mobius-via-zeta",
                f"p={p} q={q}",
                formulas.mobius_annulus(p, q),
                formulas.zeta_poly(p, q, -1),
            )
        for p, q in small_pairs:
            poset = enumeration.nc_b_annulus(p, q)
            add(
                "mobius-via-zeta",
                f"p={p} q={q} interpolated",
                poset.mobius(poset.bottom(), poset.top()),
                poset.zeta_interpolated(-1),
            )
    if wanted("zeta"):
        for p, q in small_pairs:
            poset = enumeration.nc_b_annulus(p, q)
            add(
                "zeta",
                f"p={p} q={q} m=2..4",
                {m: formulas.zeta_poly(p, q, m) for m in range(2, 5)},
                {m: poset.zeta(m) for m in range(2, 5)},
            )
    if wanted("zeta-disc"):
        for n in range(1, min(max_n, 5) + 1):
            poset = enumeration.nc_b_disc(n)
            add(
                "zeta-disc",
                f"n={n} m=2..4",
                {m: binom(m * n, n) for m in range(2, 5)},
                {m: poset.zeta(m) for m in range(2, 5)},
            )
    if wanted("zeta-q1"):
        for n in range(2, max_n + 1):
            add(
                "zeta-q1",
                f"n={n} m=-1..4",
                {m: formulas.zeta_poly(n - 1, 1, m) for m in range(-1, 5)},
                {m: formulas.zeta_poly_q1(n, m) for m in range(-1, 5)},
            )
    if wanted("max-chains"):
        for p, q in small_pairs:
            add(
                "max-chains",
                f"p={p} q={q}",
                formulas.max_chains(p, q),
                enumeration.nc_b_annulus(p, q).maximal_chains(),
            )
    if wanted("zeta-leading"):
        for p, q in pairs:
            d = p + q
            diff = sum(
                (-1) ** (d - j) * binom(d, j) * formulas.zeta_poly(p, q, j)
                for j in range(d + 1)
            )
            add("zeta-leading", f"p={p} q={q}", formulas.max_chains(p, q), diff)
    if wanted("roundtrip-annulus"):
        for p, q in small_pairs:
            domain = list(bijection.annulus_tuples(p, q))
            image = set()
            good = 0
            for t in domain:
                pi = bijection.encode_annulus(t, p, q)
                image.add(pi)
                if bijection.decode_annulus(pi, p, q) == t:
                    good += 1
            positives = {
                pi
                for pi in enumeration.nc_b_annulus(p, q)
                if connectivity(pi, AnnulusShape(p, q)) >= 1
            }
            add(
                "roundtrip-annulus",
                f"p={p} q={q}",
                (len(domain), True),
                (good, image == positives),
            )
    if wanted("roundtrip-multichain"):
        for p, q in _annulus_pairs(min(max_n, 4)):
            for m in (3, 4):
                poset = enumeration.nc_b_annulus(p, q)
                formula = sum(
                    2 * c * binom(m * p, p - c) * binom(m * q, q + c)
                    for c in range(1, p + 1)
                )
                chains = set()
                good = 0
                for t in bijection.annulus_tuples(p, q, m):
                    chain = bijection.encode_multichain(t, p, q)
                    chains.add(chain)
                    in_poset = all(pi in poset for pi in chain)
                    ascending = all(
                        a.le(b) for a, b in zip(chain, chain[1:])
                    )
                    positive = any(
                        connectivity(pi, AnnulusShape(p, q)) >= 1 for pi in chain
                    )
                    if (
                        in_poset
                        and ascending
                        and positive
                        and bijection.decode_multichain(chain, p, q) == t
                    ):
                        good += 1
                add(
                    "roundtrip-multichain",
                    f"p={p} q={q} m={m}",
                    (formula, formula),
                    (len(chains), good),
                )
    if wanted("multi-split"):
        for sizes in _size_tuples(min(max_n, enumeration.DESK_BOUND_MANY_CIRCLES)):
            shape = AnnulusShape(sizes)
            gamma = boundary_permutation(shape)
            circle = {x: j for j in range(shape.k) for x in shape.labels(j)}
            circle.update({-x: j for x, j in list(circle.items())})
            bad = sum(
                1
                for tau in enumeration.interval_perms(gamma)
                if any(
                    len({circle[x] for x in orbit}) > 2
                    for orbit in joint_orbits(tau, gamma)
                )
            )
            add("multi-split", f"sizes={','.join(map(str, sizes))}", 0, bad)
    if wanted("multi-total"):
        for sizes in _size_tuples(min(max_n, enumeration.DESK_BOUND_MANY_CIRCLES)):
            if len(sizes) != 3:
                continue
            add(
                "multi-total",
                f"sizes={','.join(map(str, sizes))}",
                formulas.multi3_total(*sizes),
                len(enumeration.nc_b_multi(sizes)),
            )
    if wanted("genus-defect"):
        for n in (2, 3):
            perms = [
                SignedPermutation(img) for img in enumeration._all_b_images(n)
            ]
            bad = sum(
                1
                for a in perms
                for b in perms
                if (d := genus_defect(a, b)) < 0 or d % 2
            )
            add("genus-defect", f"n={n}", 0, bad)
    if wanted("chu-vandermonde"):
        bad = sum(
            1
            for n in range(13)
            for r in range(n + 1)
            if sum(binom(n, k) * binom(n, k + r) for k in range(n + 1))
            != binom(2 * n, n - r)
        )
        add("chu-vandermonde", "n<=12", 0, bad)
    if wanted("hypersum"):
        bad = 0
        count = 0
        for k in (1, 2, 3):
            for caps in product(range(11), repeat=k + 1):
                if sum(caps) > 10:
                    continue
                *heads, last = caps
                for b in range(last + 1):
                    lhs = sum(
                        binom(last, sum(a) + b)
                        * _product(binom(A, x) for A, x in zip(heads, a))
                        for a in product(*(range(A + 1) for A in heads))
                    )
                    count += 1
                    if lhs != binom(sum(caps), last - b):
                        bad += 1
        add("hypersum", f"sum<=10 ({count} cases)", 0, bad)
    if wanted("dixon"):
        bad = 0
        for p in range(1, 9):
            for q in range(1, 9):
                lhs = sum(
                    2 * c * binom(2 * p, p - c) * binom(2 * q, q - c)
                    for c in range(1, p + 1)
                )
                rhs = (
                    2
                    * binom(2 * p, p - 1)
                    * binom(2 * q, q - 1)
                    * Fraction((p + 1) * (q + 1), 2 * (p + q))
                )
                if lhs != rhs or lhs != formulas.annulus_positive_total(p, q):
                    bad += 1
        add("dixon", "p,q<=8", 0, bad)
    return checks


def _product(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def _cmd_verify(args) -> int:
    checks = verify_suite(max_n=args.max_n, only=args.only)
    if not checks:
        print(f"error: no checks match {args.only!r}", file=sys.stderr)
        return 2
    lines = []
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        lines.append(
            f"{status} {check.name} [{check.params}] "
            f"formula={check.expected} oracle={check.actual}"
        )
    failures = sum(not check.ok for check in checks)
    lines.append(f"{len(checks)} checks, {failures} failed")
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncb",
        description="Exact enumeration of annular non-crossing partitions of type B.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def command(name, func, helptext, shape=True):
        cmd = sub.add_parser(name, help=helptext)
        if shape:
            cmd.add_argument(
                "--shape",
                type=_parse_shape,
                required=True,
                help="comma-separated circle sizes, e.g. 4,2",
            )
        cmd.add_argument("--out", metavar="FILE", help="write output to FILE")
        cmd.set_defaults(func=func)
        return cmd

    cmd = command("count", _cmd_count, "count partitions")
    cmd.add_argument("--rank", type=int, help="count a single rank")
    cmd.add_argument("--connectivity", type=int, help="count a single connectivity")
    cmd.add_argument("--cell", type=_parse_cell, help="count one c,e,i cell")

    cmd = command("enumerate", _cmd_enumerate, "list partitions")
    cmd.add_argument("--rank", type=int)
    cmd.add_argument("--connectivity", type=int)
    cmd.add_argument("--json", action="store_true", help="one JSON object per line")

    command("rank-poly", _cmd_rank_poly, "rank generating polynomial")

    cmd = command("zeta", _cmd_zeta, "zeta polynomial value")
    cmd.add_argument("-m", type=int, required=True, help="multichain parameter")

    command("mobius", _cmd_mobius, "Mobius function between bottom and top")
    command("max-chains", _cmd_max_chains, "number of maximal chains")

    cmd = command("encode", _cmd_encode, "tuples (text lines) to partitions (JSON)")
    cmd.add_argument("--in", dest="infile", metavar="FILE", help="read from FILE")

    cmd = command("decode", _cmd_decode, "partitions (JSON lines) to tuple text")
    cmd.add_argument("--in", dest="infile", metavar="FILE", help="read from FILE")

    cmd = command("verify", _cmd_verify, "run formula-vs-oracle checks", shape=False)
    cmd.add_argument("--all", action="store_true", help="run the full suite (default)")
    cmd.add_argument("--max-n", type=int, default=6, help="size bound for sweeps")
    cmd.add_argument("--only", metavar="NAME", help="run a single named check")

    command("hasse-dot", _cmd_hasse_dot, "Hasse diagram in DOT form")
    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # closed forms print at any size
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
