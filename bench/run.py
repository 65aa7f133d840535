"""Benchmark for the ncb library and CLI (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (inputs drawn from ``--seed``; ncb sees only those inputs):

  closed-forms  `ncb` CLI queries (count, count --rank, rank-poly,
                zeta -m 3, mobius, max-chains) through ``ncb.cli.main``,
                in one process per pass
  codec         encode_multichain -> to_json -> from_json ->
                decode_multichain round trips in one process per pass
  verify        the suite `ncb verify --all --max-n 3` runs, family by
                family through ``ncb.cli.verify_suite``, in one process
                per pass
  posets        one fresh process per desk shape: build the poset, then
                covers, DOT, Moebius, zeta(2..4), maximal chains, Kreweras

BENCHMARK.json lists the first three.  Timed end to end, posets moved by a
sixth to a quarter from run to run on a shared 2-vCPU host, against a few
percent for the others, so it runs in every traced run as a layer pass
instead (and can still be run by hand).

One parent process (this file) runs one child at a time (a closed loop with one
client).  A pass is the workload's seeded operation list; a run makes
``--seconds // PASS_SECONDS`` passes (``workloads.py``), each in fresh
processes.  Every output is checked after its timed call against
``oracle.py``; a wrong answer, a non-zero exit or a timeout counts as a
failed operation.  This process and its children stay on one CPU.

Every time reported, end to end and per layer, is scaled to a reference
CPU: the children time a fixed piece of Python work between operations
and this process times it around each ``setup_s`` probe (``reference.py``).
On a shared host the CPU's speed moves by a third from minute to minute;
unscaled, the same code read a quarter slower or faster from one run to
the next.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time for
a fresh process to answer ``ncb count --shape 1``), ``wall_s`` (time of a
pass, each operation at its median over the run's passes), ``op_ms.p50``
and ``op_ms.p90`` (percentiles over operations of each operation's median
latency; on verify the operation is the whole suite) and ``peak_rss_mb``
(largest child resident set, from ``os.wait4``).

``--trace 1`` runs one untraced and one traced pass of the workload, then
one traced pass of each other workload, at smoke size except for posets,
so that every per-layer metric is printed on every workload.  Per-layer
``.s`` metrics are busy times summed over spans (``cli.import.s`` is the
median per process), ``.n`` and ``result_bits`` are work counts, and
``trace.overhead_s`` is the traced pass time minus the untraced one.  All spans, with per-name self
time, go to ``.bench_out/`` at the repository root.

``--smoke`` uses each workload's smallest inputs; ``bench/smoke.py`` runs
every workload that way.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import oracle
import reference
import workloads
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = str(BENCH / "worker.py")

RUN_LIMIT_S = 165  # a run must exit within 180 s
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "enumeration.interval_perms.s": "s",
    "enumeration.interval_perms.n": "count",
    "partition.adjusted_orbits.s": "s",
    "enumeration.nc_b_multi.s": "s",
    "enumeration.order.s": "s",
    "enumeration.order.peak_mb": "MB",
    "enumeration.hasse_edges.s": "s",
    "enumeration.hasse_edges.n": "count",
    "enumeration.mobius.s": "s",
    "enumeration.zeta.s": "s",
    "enumeration.maximal_chains.s": "s",
    "enumeration.to_dot.s": "s",
    "partition.kreweras.s": "s",
    "formulas.rank_gen.s": "s",
    "formulas.zeta_poly.s": "s",
    "formulas.mobius_annulus.s": "s",
    "formulas.max_chains.s": "s",
    "formulas.annulus_total.s": "s",
    "formulas.result_bits": "count",
    "bijection.encode_multichain.s": "s",
    "bijection.encode_multichain.m2.s": "s",
    "bijection.encode_multichain.m3.s": "s",
    "bijection.encode_multichain.n": "count",
    "bijection.decode_multichain.s": "s",
    "bijection.decode_multichain.m2.s": "s",
    "bijection.decode_multichain.m3.s": "s",
    "bijection.decode_multichain.n": "count",
    "partition.json.s": "s",
    **{f"cli.verify_suite.{name}.s": "s" for name in workloads.VERIFY_FAMILIES},
    "cli.import.s": "s",
    "cli.main.s": "s",
    "trace.overhead_s": "s",
}


class Child(NamedTuple):
    out: str
    wall_s: float
    error: str | None  # non-zero exit, timeout or deadline


class Op(NamedTuple):
    ms: float | None
    error: str | None


class Runner:
    """Starts one child at a time, under a per-child timeout and a run
    deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.peak_rss_mb = 0.0
        self.scales: list[float] = []  # reference.scale of each timed child
        self.traces: list[dict] = []  # one entry per traced child process
        self._spans_files = 0

    def child(self, args: list[str], timeout: float, stdin: str = "") -> Child:
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Child("", 0.0, "not started: run deadline passed")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        killed = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=env,
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            try:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read().decode(errors="replace")
            proc.stdout.close()
            # wait4, not RUSAGE_CHILDREN: that keeps a maximum over all children
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if killed.is_set():
            return Child(out, wall, f"timed out after {timeout:.0f} s")
        if proc.returncode:
            return Child(out, wall, f"exit code {proc.returncode}: {out[-300:]!r}")
        return Child(out, wall, None)

    def spans_file(self) -> str:
        self._spans_files += 1
        return str(OUT / f"spans-{os.getpid()}-{self._spans_files}.json")

    def collect(self, path: str, workload: str, op: int, op_start: float, scale: float) -> None:
        """File a traced child's spans under the operation that started it;
        the parent-side span of that operation runs from op_start to now,
        and scale is the child's ``reference.scale``."""
        op_end = time.perf_counter()
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return  # the child failed; that is already a failed operation
        finally:
            Path(path).unlink(missing_ok=True)
        data.update(workload=workload, op=op, op_start=op_start, op_end=op_end, scale=scale)
        self.traces.append(data)


class Worked(NamedTuple):
    """What one worker child returned, with its times scaled to the
    reference CPU (``reference.py``)."""

    results: list | dict | None  # None when the child failed
    error: str | None
    scale: float
    work_s: float  # the child's wall time less its reference loops, scaled


def run_worker(runner: Runner, workload: str, op: int, traced: bool, mode: str, *args: str,
               stdin: str = "", timeout: float = 120) -> Worked:
    spans = runner.spans_file() if traced else "-"
    start = time.perf_counter()
    child = runner.child([WORKER, mode, spans, *args], timeout=timeout, stdin=stdin)
    data, error = None, child.error
    if not error:
        try:
            data = json.loads(child.out)
        except ValueError:
            error = f"unparseable output {child.out[-300:]!r}"
    if data is None:
        if traced:
            Path(spans).unlink(missing_ok=True)
        return Worked(None, error, 1.0, child.wall_s)
    scale = reference.scale(data["ref_s"])
    runner.scales.append(scale)
    if traced:
        runner.collect(spans, workload, op, start, scale)
    return Worked(data["results"], None, scale, (child.wall_s - sum(data["ref_s"])) * scale)


def closed_forms_pass(runner: Runner, queries, traced: bool):
    w = run_worker(runner, "closed-forms", 0, traced, "queries", stdin=json.dumps(queries))
    if w.results is None or len(w.results) != len(queries):
        return [Op(None, w.error or "wrong number of results") for _ in queries], w.work_s
    ops = []
    for argv, r in zip(queries, w.results):
        if r["code"]:
            error = f"exit code {r['code']}: {r['err']!r}"
        else:
            error = oracle.check_query(argv, r["out"])
        ops.append(Op(r["ms"] * w.scale, error and f"{' '.join(argv)}: {error}"))
    return ops, w.work_s


def posets_pass(runner: Runner, shapes, traced: bool):
    ops = []
    for i, (sizes, sample_seed) in enumerate(shapes):
        spec = {"sizes": sizes, "sample_seed": sample_seed, "sample": workloads.KREWERAS_SAMPLE}
        w = run_worker(runner, "posets", i, traced, "poset", json.dumps(spec))
        work_s, error = w.work_s, w.error
        if w.results is not None:
            error = oracle.check_poset(sizes, w.results)
            work_s -= w.results["check_s"] * w.scale
        ops.append(Op(work_s * 1000, error and f"{sizes}: {error}"))
    return ops, sum(op.ms for op in ops) / 1000


def codec_pass(runner: Runner, tuples, traced: bool):
    stdin = "".join(f"{p} {q} {m} {text}\n" for p, q, m, text in tuples)
    w = run_worker(runner, "codec", 0, traced, "codec", stdin=stdin)
    if w.results is None or len(w.results) != len(tuples):
        return [Op(None, w.error or "wrong number of results") for _ in tuples], w.work_s
    ops = []
    for (p, q, m, text), r in zip(tuples, w.results):
        if "error" in r:
            error = r["error"]
        elif r["text"] != text or r["chain"] != m - 1:
            error = "round trip changed the tuple"
        else:
            error = None
        ops.append(Op(r["ms"] and r["ms"] * w.scale, error and f"({p},{q}) {text}: {error}"))
    return ops, w.work_s


def verify_pass(runner: Runner, max_n: int, traced: bool):
    """The suite ``ncb verify --all --max-n max_n`` runs, family by family in
    one process; the operation is the whole suite."""
    w = run_worker(runner, "verify", 0, traced, "verify", str(max_n),
                   *workloads.VERIFY_FAMILIES, timeout=170)
    if w.results is None:
        return [Op(None, w.error)], w.work_s
    bad = [r["name"] for r in w.results if not r["checks"] or r["failed"]]
    error = f"families failed or ran no checks: {bad}" if bad else None
    return [Op(sum(r["ms"] for r in w.results) * w.scale, error)], w.work_s


def make_pass(workload: str, seed: int, smoke: bool):
    """A function (runner, traced) -> (ops, pass wall seconds) for one pass."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closed-forms":
        queries = workloads.closed_form_queries(rng, smoke)
        return lambda runner, traced: closed_forms_pass(runner, queries, traced)
    if workload == "posets":
        shapes = workloads.poset_shapes(rng, smoke)
        return lambda runner, traced: posets_pass(runner, shapes, traced)
    if workload == "codec":
        tuples = workloads.codec_tuples(rng, smoke)
        return lambda runner, traced: codec_pass(runner, tuples, traced)
    return lambda runner, traced: verify_pass(runner, workloads.VERIFY_MAX_N, traced)


WORKLOADS = ["closed-forms", "codec", "verify", "posets"]


def setup_probes(runner: Runner) -> tuple[list[float], list[Op]]:
    """Fresh `ncb count --shape 1` processes, each timed between reference
    loops run here, on the CPU the run is pinned to; the first probe also
    compiles bytecode and is left out of the timing."""
    walls, ops = [], []
    for i in range(SETUP_PROBES + 1):
        before = [reference.loop_seconds() for _ in range(2)]
        child = runner.child(["-m", "ncb.cli", "count", "--shape", "1"], timeout=30)
        after = [reference.loop_seconds() for _ in range(2)]
        runner.scales.append(reference.scale(before + after))
        wall = child.wall_s * runner.scales[-1]
        error = child.error or (None if child.out == "2\n" else f"printed {child.out!r}")
        ops.append(Op(wall * 1000, error))
        if i:
            walls.append(wall)
    return walls, ops


def percentile(values: list[float], k: int) -> float:
    """The k-th percentile, interpolated; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def end_to_end(runner: Runner, run_pass, passes: int) -> tuple[dict, list[Op]]:
    """Run the passes and time each operation by its median over them.

    Scaling to the reference CPU takes out most of the host's drift but
    not all of it, and a pass now and then runs at a moment the reference
    misses; the median over passes spread across the run ignores those.
    ``wall_s`` is a pass assembled from the median latencies plus the
    median time a pass spent outside its operations (process start-up and
    import).
    """
    probe_walls, probe_ops = setup_probes(runner)
    passes_ops: list[list[Op]] = []
    outside: list[float] = []
    for _ in range(passes):
        pass_ops, wall = run_pass(runner, False)
        passes_ops.append(pass_ops)
        outside.append(wall - sum(op.ms or 0.0 for op in pass_ops) / 1000)
        if time.perf_counter() > runner.deadline:
            break
    typical = [
        statistics.median(ms) if (ms := [op.ms for op in column if op.ms is not None]) else None
        for column in zip(*passes_ops)
    ]
    latencies = [ms for ms in typical if ms is not None] or [0.0]
    metrics = {
        "setup_s": statistics.median(probe_walls) if probe_walls else 0.0,
        "wall_s": sum(latencies) / 1000 + statistics.median(outside),
        "op_ms.p50": percentile(latencies, 50),
        "op_ms.p90": percentile(latencies, 90),
        "peak_rss_mb": runner.peak_rss_mb,
    }
    return metrics, probe_ops + [op for pass_ops in passes_ops for op in pass_ops]


def per_layer(runner: Runner, workload: str, seed: int, smoke: bool) -> tuple[dict, list[Op]]:
    run_pass = make_pass(workload, seed, smoke)
    ops, untraced = run_pass(runner, False)
    traced_ops, traced = run_pass(runner, True)
    ops += traced_ops
    for other in WORKLOADS:
        if other != workload:
            ops += make_pass(other, seed, smoke or other != "posets")(runner, True)[0]
    busy: dict[str, float] = {}
    imports = []
    for trace in runner.traces:
        for s in trace["spans"]:
            duration = (s["end"] - s["start"]) * trace["scale"]
            if s["name"] == "cli.import":
                imports.append(duration)
                continue
            for key in (s["name"], f"{s['name']}.{s['tag']}" if s["tag"] else None):
                if key:
                    busy[key + ".s"] = busy.get(key + ".s", 0.0) + duration
        for name, value in trace["counts"].items():
            busy[name] = busy.get(name, 0) + value
        for name, value in trace["peaks"].items():
            busy[name] = max(busy.get(name, value), value)
    busy["cli.import.s"] = statistics.median(imports) if imports else 0.0
    busy["trace.overhead_s"] = traced - untraced
    missing = [name for name in PER_LAYER if name not in busy]
    if missing:
        ops.append(Op(None, f"no spans for {missing}"))
    return {name: busy.get(name, 0.0) for name in PER_LAYER}, ops


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def write_trace(path: Path, runner: Runner, machine: dict) -> None:
    """Every span of the traced run as measured, with self time per span name
    and per layer (the module a name starts with) scaled to the reference
    CPU, as one JSON file."""
    self_s: dict[str, float] = {}
    layer_self_s: dict[str, float] = {}
    for trace in runner.traces:
        for name, value in self_times(trace["spans"]).items():
            value *= trace["scale"]
            self_s[name] = self_s.get(name, 0.0) + value
            layer = name.split(".")[0]
            layer_self_s[layer] = layer_self_s.get(layer, 0.0) + value
    with open(path, "w") as handle:
        json.dump({"machine": machine, "layer_self_s": layer_self_s, "self_s": self_s,
                   "processes": runner.traces}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs")
    args = parser.parse_args(argv)
    if not (SRC / "ncb" / "cli.py").is_file():
        print(f"error: no ncb sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child, so that reference loops timed
    # here and in the children gauge the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(deadline=started + RUN_LIMIT_S)
    if args.trace:
        metrics, ops = per_layer(runner, args.workload, args.seed, args.smoke)
        units = PER_LAYER
    else:
        run_pass = make_pass(args.workload, args.seed, args.smoke)
        passes = max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))
        metrics, ops = end_to_end(runner, run_pass, passes)
        units = END_TO_END
    failures = [op.error for op in ops if op.error]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_trace(OUT / f"{stem}-spans.json", runner, machine)
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump({"args": vars(args), "machine": machine, "metrics": metrics,
                   "ops": [op._asdict() for op in ops], "scales": runner.scales}, handle)
    print(f"machine: {json.dumps(machine)}")
    for error in failures[:20]:
        print(f"FAILED {error}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(f"{'fail_ratio':40s} {len(failures) / len(ops):>16.6f} ({len(failures)}/{len(ops)})")
    print(f"{'reference scale (median)':40s} {statistics.median(runner.scales):>16.6f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
