"""Command-line front end for counting, listing, codecs, and checks."""

from __future__ import annotations

import argparse
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
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as handle:
            handle.write(text + "\n")


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
        central = lambda n: binom(2 * n, n)
        value = formulas.over_matchings(sizes, central, formulas.annulus_total)
    elif len(sizes) == 1:
        value = binom(sizes[0], rank) ** 2
    elif len(sizes) == 2:
        value = formulas.rank_coefficient(*sizes, rank)
    else:
        value = _rank_poly(sizes).coefficient(rank)
    _emit(str(value), args.out)
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
    disc = lambda n: formulas.IntPolynomial(formulas.disc_counts(n).rank_counts)
    return formulas.over_matchings(sizes, disc, formulas.rank_gen)


def _cmd_rank_poly(args) -> int:
    _emit(str(_rank_poly(args.shape)), args.out)
    return 0


def _cmd_zeta(args) -> int:
    disc = lambda n: gbinom(args.m * n, n)
    annulus = lambda p, q: formulas.zeta_poly(p, q, args.m)
    _emit(str(formulas.over_matchings(args.shape, disc, annulus)), args.out)
    return 0


def _cmd_mobius(args) -> int:
    disc, annulus = formulas.mobius_disc, formulas.mobius_annulus
    _emit(str(formulas.over_matchings(args.shape, disc, annulus)), args.out)
    return 0


def _cmd_max_chains(args) -> int:
    disc = lambda n: formulas.GradedChains(n, n**n)
    annulus = lambda p, q: formulas.GradedChains(p + q, formulas.max_chains(p, q))
    _emit(str(formulas.over_matchings(args.shape, disc, annulus).count), args.out)
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
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(
                f"line {number} is not a partition or a list of them: "
                f"{line.strip()} ({type(exc).__name__}: {exc})"
            ) from None
        try:
            t = bijection.decode_multichain(chain, p, q)
        except ValueError as exc:
            raise ValueError(
                f"line {number} does not decode: {line.strip()} ({exc})"
            ) from None
        lines.append(t.to_text())
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
