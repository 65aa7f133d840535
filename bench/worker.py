"""Child-process side of the benchmark: one fresh interpreter per call.

    python bench/worker.py poset SPANS '{"sizes": [5, 2], "sample_seed": 7, "sample": 24}'
    python bench/worker.py codec SPANS < tuples.txt
    python bench/worker.py verify SPANS MAX_N FAMILY...
    python bench/worker.py queries SPANS < argv-lists.json

SPANS is a file to write the traced run's spans to, or ``-`` for an
untraced call.  Each mode prints one JSON document, ``{"results": ...,
"ref_s": [...]}``: its results, which run.py checks, and the times of
the reference loop (``reference.py``) it ran before, between and after
its operations.  `poset` also reports ``check_s``, the time it
spent summarising its outputs for those checks, which run.py takes off
the operation's latency.  `queries` runs ``ncb.cli.main`` on each
argument list and returns what it printed.  Spans sit in this file, around
the calls into each ``ncb`` module; for `queries` the closed forms in
``ncb.formulas`` are wrapped so that ``cli.main`` calls them through spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import sys
import time
import tracemalloc

from reference import Gauge
from spans import NullTracer, Tracer


def poset(tracer, spec: dict) -> dict:
    """Build one poset cold and run every oracle on it, as a CLI user would."""
    from ncb import enumeration, partition
    from ncb.signed_perm import AnnulusShape, boundary_permutation

    sizes = tuple(spec["sizes"])
    shape = AnnulusShape(sizes)
    with tracer.span("enumeration.interval_perms"):
        interval = enumeration.interval_perms(boundary_permutation(shape))
    tracer.count("enumeration.interval_perms.n", len(interval))
    with tracer.span("partition.adjusted_orbits"):
        images = [partition.adjusted_orbits(t) for t in interval]
    with tracer.span("enumeration.nc_b_multi"):
        poset = enumeration.nc_b_multi(sizes)
    bottom, top = poset.bottom(), poset.top()
    with tracer.span("enumeration.order"):
        bottom_le_top = poset.le(bottom, top)
    if isinstance(tracer, Tracer):
        tracer.peak("enumeration.order.peak_mb", _order_peak_mb(poset, bottom, top))
    with tracer.span("enumeration.hasse_edges"):
        edges = poset.hasse_edges()
    tracer.count("enumeration.hasse_edges.n", len(edges))
    with tracer.span("enumeration.mobius"):
        mobius = poset.mobius(bottom, top)
    with tracer.span("enumeration.zeta"):
        zeta = {m: poset.zeta(m) for m in (2, 3, 4)}
    with tracer.span("enumeration.maximal_chains"):
        chains = poset.maximal_chains()
    with tracer.span("enumeration.to_dot"):
        dot = poset.to_dot()
    elements = poset.elements
    sample = random.Random(spec["sample_seed"]).sample(
        elements, min(spec["sample"], len(elements))
    )
    with tracer.span("partition.kreweras"):
        kreweras = [partition.kreweras(x, shape) for x in sample]
    check_start = time.perf_counter()
    dot_lines = dot.splitlines()
    return {
        "size": len(poset),
        "interval": len(interval),
        "orbit_images": len(set(images)),
        "orbit_images_are_poset": set(images) == set(elements),
        "rank_vector": list(poset.rank_vector()),
        "bottom_le_top": bottom_le_top,
        "covers": len(edges),
        "covers_graded": all(b.rank() == a.rank() + 1 for a, b in edges),
        "dot_nodes": sum("[label=" in line for line in dot_lines),
        "dot_edges": sum("->" in line for line in dot_lines),
        "mobius": mobius,
        "zeta": zeta,
        "maximal_chains": chains,
        "kreweras": [[x.rank(), k.rank(), k in poset] for x, k in zip(sample, kreweras)],
        "kreweras_distinct": len(set(kreweras)),
        "check_s": time.perf_counter() - check_start,
    }


def _order_peak_mb(poset, bottom, top) -> float:
    """tracemalloc peak of the first `le` call on a fresh copy of the poset.

    This repeats the order build outside its span: tracemalloc makes that
    build some ten times slower, which would swamp `enumeration.order.s`.
    """
    from ncb.enumeration import FinitePoset

    masks = [pi.pair_mask for pi in poset.elements]
    copy = FinitePoset(poset.elements, poset.ranks, masks=masks)
    tracemalloc.start()
    try:
        copy.le(bottom, top)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def codec(tracer, gauge, lines: list[str]) -> list[dict]:
    """Round-trip each tuple through the calls the encode/decode verbs make."""
    from ncb.bijection import AnnulusTuple, decode_multichain, encode_multichain
    from ncb.partition import BPartition

    out = []
    for line in lines:
        gauge.between()
        p, q, m, text = line.split(" ", 3)
        p, q = int(p), int(q)
        tag = f"m{m}"
        t = AnnulusTuple.from_text(text)
        start = time.perf_counter()
        try:
            with tracer.span("bijection.encode_multichain", tag):
                chain = encode_multichain(t, p, q)
            with tracer.span("partition.json"):
                wire = [pi.to_json() for pi in chain]
            with tracer.span("partition.json"):
                back = [BPartition.from_json(s) for s in wire]
            with tracer.span("bijection.decode_multichain", tag):
                decoded = decode_multichain(back, p, q)
        except Exception as exc:  # one bad round trip must not hide the others
            out.append({"ms": None, "error": repr(exc)})
            continue
        ms = (time.perf_counter() - start) * 1000
        tracer.count("bijection.encode_multichain.n", 1)
        tracer.count("bijection.decode_multichain.n", 1)
        out.append({"ms": ms, "text": decoded.to_text(), "chain": len(wire)})
    return out


def verify(tracer, gauge, max_n: int, families: list[str]) -> list[dict]:
    """Each check family of the suite in turn, in one process, as
    ``ncb verify --all`` runs them: posets stay cached from one to the next."""
    from ncb import cli

    out = []
    for name in families:
        gauge.between()
        start = time.perf_counter()
        with tracer.span(f"cli.verify_suite.{name}"):
            checks = cli.verify_suite(max_n=max_n, only=name)
        ms = (time.perf_counter() - start) * 1000
        out.append({"name": name, "ms": ms, "checks": len(checks),
                    "failed": sum(not c.ok for c in checks)})
    return out


_CLOSED_FORMS = ("rank_gen", "zeta_poly", "mobius_annulus", "max_chains", "annulus_total")


def _result_bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    return sum(abs(c).bit_length() for c in value.coefficients)


def queries(tracer, gauge, argvs: list[list[str]]) -> list[dict]:
    """Answer each query with ``ncb.cli.main(argv)``, capturing what it prints.

    A query is timed from the call to its return, which covers argument
    parsing, the closed form and printing; interpreter start and import are
    ``setup_s``.  Traced, each closed form ``cli.main`` calls gets a span.
    """
    with tracer.span("cli.import"):
        from ncb import cli, formulas

    if isinstance(tracer, Tracer):

        def wrap(name, func):
            @functools.wraps(func)
            def traced(*args):
                with tracer.span(f"formulas.{name}"):
                    value = func(*args)
                tracer.count("formulas.result_bits", _result_bits(value))
                return value

            return traced

        for name in _CLOSED_FORMS:
            setattr(formulas, name, wrap(name, getattr(formulas, name)))
    out = []
    for argv in argvs:
        gauge.between()
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with tracer.span("cli.main"):
                code = cli.main(argv)
        ms = (time.perf_counter() - start) * 1000
        out.append({"ms": ms, "code": code, "out": stdout.getvalue(),
                    "err": stderr.getvalue()[-300:]})
    return out


def main(argv: list[str]) -> int:
    mode, spans_path, *rest = argv
    tracer = NullTracer() if spans_path == "-" else Tracer()
    gauge = Gauge()
    gauge.sample(3)
    if mode == "poset":
        result = poset(tracer, json.loads(rest[0]))
    elif mode == "codec":
        result = codec(tracer, gauge, sys.stdin.read().splitlines())
    elif mode == "queries":
        result = queries(tracer, gauge, json.loads(sys.stdin.read()))
    elif mode == "verify":
        result = verify(tracer, gauge, int(rest[0]), rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    gauge.sample(3)
    json.dump({"results": result, "ref_s": gauge.samples}, sys.stdout)
    sys.stdout.flush()
    if spans_path != "-":
        with open(spans_path, "w") as handle:
            json.dump(tracer.dump(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
