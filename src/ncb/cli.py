"""Command-line front end for counting, listing, codecs, and checks."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bijection, enumeration, formulas
from .checks import Check, verify_suite
from .formulas import binom, gbinom
from .partition import BPartition, connectivity
from .signed_perm import AnnulusShape


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("shape needs positive comma-separated sizes")
    if len(sizes) > enumeration.MAX_CIRCLES:
        raise argparse.ArgumentTypeError(f"at most {enumeration.MAX_CIRCLES} circles")
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
    """Write text as a line, or nothing at all for an empty result."""
    text = text + "\n" if text else ""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _decimal(value: int) -> str:
    """The decimal digits of value.  str is quadratic in the digit count
    before Python 3.12.  Past 4,000 bits value is split on the power of ten
    10^k with about half its bits, value = high 10^k + low, and the halves
    are converted the same way, the low one padded to k digits: each half
    costs about a quarter of the whole.  On a 2-core host with Python 3.11
    a 12,279-bit value prints in 0.12 ms against str's 0.20 ms.  Past
    100,000 bits, where the divisions add up to more, the bits are split in
    halves, each converted to an exact Decimal, and recombined through a
    power of two, at libmpdec's subquadratic multiplication speed."""
    bits = value.bit_length()
    if bits <= 4_000:
        return str(value)
    if value < 0:
        return "-" + _decimal(-value)
    if bits <= 100_000:
        k = bits * 3 // 20  # 10^k has about bits/2 bits
        # value >> k is high 5^k + (low >> k), and low keeps value's last k bits.
        high, rest = divmod(value >> k, 5**k)
        low = rest << k | value & ((1 << k) - 1)
        return _decimal(high) + _decimal(low).zfill(k)
    import decimal

    power = functools.cache(lambda bits: decimal.Decimal(2) ** bits)

    def convert(x: int, bits: int) -> decimal.Decimal:  # 0 <= x < 2**bits
        if bits <= 1024:
            return decimal.Decimal(x)
        half = bits >> 1
        low = convert(x & ((1 << half) - 1), half)
        return convert(x >> half, bits - half) * power(half) + low

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, bits))


def _cmd_count(args) -> int:
    sizes, rank = args.shape, args.rank
    filters = [f for f in (rank, args.connectivity, args.cell) if f is not None]
    if len(filters) > 1:
        raise ValueError("at most one of --rank/--connectivity/--cell")
    if filters and rank is None and len(sizes) != 2:
        raise ValueError("--connectivity and --cell need a two-circle shape")
    if args.cell is not None:
        value = formulas.annulus_cell_count(*sizes, *args.cell)
    elif args.connectivity is not None:
        value = formulas.annulus_connectivity_count(*sizes, args.connectivity)
    elif rank is None:
        value = formulas.poset_size(sizes)
    elif len(sizes) == 1:
        value = binom(sizes[0], rank) ** 2
    elif len(sizes) == 2:
        value = formulas.rank_coefficient(*sizes, rank)
    else:
        value = _rank_poly(sizes).coefficient(rank)
    _emit(_decimal(value), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    sizes = args.shape
    if args.connectivity is not None and len(sizes) != 2:
        raise ValueError("--connectivity needs a two-circle shape")
    poset = enumeration.nc_b_multi(sizes)
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


def _rank_poly(sizes: tuple[int, ...]) -> formulas.IntPolynomial:
    return formulas.over_matchings(sizes, formulas.rank_gen_disc, formulas.rank_gen)


def _cmd_rank_poly(args) -> int:
    _emit(str(_rank_poly(args.shape)), args.out)
    return 0


def _cmd_zeta(args) -> int:
    disc = lambda n: gbinom(args.m * n, n)
    annulus = lambda p, q: formulas.zeta_poly(p, q, args.m)
    _emit(_decimal(formulas.over_matchings(args.shape, disc, annulus)), args.out)
    return 0


def _cmd_mobius(args) -> int:
    disc, annulus = formulas.mobius_disc, formulas.mobius_annulus
    _emit(_decimal(formulas.over_matchings(args.shape, disc, annulus)), args.out)
    return 0


def _cmd_max_chains(args) -> int:
    disc = lambda n: formulas.GradedChains(n, n**n)
    annulus = lambda p, q: formulas.GradedChains(p + q, formulas.max_chains(p, q))
    _emit(_decimal(formulas.over_matchings(args.shape, disc, annulus).count), args.out)
    return 0


def _read_lines(path: str | None) -> list[str]:
    if path is None:
        return sys.stdin.read().splitlines()
    with open(path) as handle:
        return handle.read().splitlines()


def _read_chain(line: str) -> list[BPartition]:
    data = json.loads(line)
    if isinstance(data, dict):
        return [BPartition.from_dict(data)]
    return [BPartition.from_dict(d) for d in data]


def _chain_json(chain: tuple[BPartition, ...]) -> str:
    if len(chain) == 1:
        return chain[0].to_json()
    return "[" + ",".join(pi.to_json() for pi in chain) + "]"


# verb: (what each line must be, its reader, the codec, the writer)
_CODECS = {
    "encode": (
        "a tuple",
        bijection.AnnulusTuple.from_text,
        bijection.encode_multichain,
        _chain_json,
    ),
    "decode": (
        "a partition or a list of them",
        _read_chain,
        bijection.decode_multichain,
        bijection.AnnulusTuple.to_text,
    ),
}


def _cmd_codec(args) -> int:
    """The encode and decode verbs: one line in, one line out, and an
    error naming the first line that cannot be read or coded."""
    if len(args.shape) != 2:
        raise ValueError(f"{args.verb} needs a two-circle shape")
    p, q = args.shape
    what, read, code, write = _CODECS[args.verb]
    lines = []
    for number, line in enumerate(_read_lines(args.infile), start=1):
        if not line.strip():
            continue
        try:
            value = read(line)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(
                f"line {number} is not {what}: "
                f"{line.strip()} ({type(exc).__name__}: {exc})"
            ) from None
        try:
            lines.append(write(code(value, p, q)))
        except ValueError as exc:
            raise ValueError(
                f"line {number} does not {args.verb}: {line.strip()} ({exc})"
            ) from None
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_hasse_dot(args) -> int:
    poset = enumeration.nc_b_multi(args.shape)
    _emit(poset.to_dot(name="ncb"), args.out)
    return 0


def _cmd_verify(args) -> int:
    checks: list[Check] = verify_suite(max_n=args.max_n, only=args.only)
    if not checks:
        raise ValueError(f"no checks match {args.only!r}")
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


@functools.cache  # built on the first call, reused by every later one
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

    cmd = command("encode", _cmd_codec, "tuples (text lines) to partitions (JSON)")
    cmd.add_argument("--in", dest="infile", metavar="FILE", help="read from FILE")

    cmd = command("decode", _cmd_codec, "partitions (JSON lines) to tuple text")
    cmd.add_argument("--in", dest="infile", metavar="FILE", help="read from FILE")

    cmd = command("verify", _cmd_verify, "run formula-vs-oracle checks", shape=False)
    cmd.add_argument("--all", action="store_true", help="run the full suite (default)")
    cmd.add_argument("--max-n", type=int, default=6, help="size bound for sweeps")
    cmd.add_argument("--only", metavar="NAME", help="run a single named check")

    command("hasse-dot", _cmd_hasse_dot, "Hasse diagram in DOT form")
    return parser


def main(argv=None) -> int:
    lift = hasattr(sys, "set_int_max_str_digits")  # absent before Python 3.10.7
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # closed forms print at any size
    try:
        return _run(argv)
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
