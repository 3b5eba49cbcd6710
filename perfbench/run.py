"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory.  One process, one thread, one workload.  Set-up
(generation, spec files, one warm-up call) runs five times and the median
counts.  Then the inputs are decided in a closed loop, one after another,
pass after pass, while the next pass is expected to end within
``--seconds``; every result is checked against its known answer.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by traced passes, and the last
line carries the per-layer metrics.  The line before it holds details:
fingerprints of the inputs and outputs, the tail percentile and its sample
count, and the reason for each failed input.  The exit code is 1 when any
input failed and 2 on a usage or set-up error.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# Per input.  The slowest input of any workload takes about 1 s untraced and
# about 3 times that traced; an input past this limit counts as failed.
DEADLINE_S = 30.0
# No new input starts after this much measuring, so a run ends within 180 s.
HARD_LIMIT_S = 120.0


# The CPUs this process may run on.  On a shared host each core is slowed
# by its own neighbours, in phases of seconds, mostly independently of the
# other cores.  Before each input a short probe times every CPU and the
# input runs pinned to the fastest, so the figures follow the program
# rather than whichever core the scheduler left it on.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
PROBE_LOOPS = 2_000  # about 0.4 ms of dict and integer work


def _probe() -> float:
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        table[i & 63] = table.get(i & 63, 0) + i * i
    return perf_counter() - start


def pin_fastest_cpu() -> None:
    """Pin this process to the allowed CPU where the probe runs fastest."""
    if len(CPUS) < 2:
        return
    speeds = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_probe(), _probe()), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def unpin() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside the timed call; not an Exception, so library
    handlers for ValueError and the like cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples above it, by nearest rank.  With 20 samples or fewer that
    percentile is at or below the median, so the maximum stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Measurement:
    """Closed-loop passes over one workload's inputs."""

    def __init__(self, workload, items, tracer=None):
        self.workload = workload
        # outputs and the poly-check ratio come from the first untraced pass
        self.record_outputs = tracer is None
        self.items = items
        self.tracer = tracer
        self.walls: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in items]
        self.attempted = 0
        self.failures: list[str] = []
        self.poly_checked: list[bool] = []
        self.outputs = hashlib.sha256()

    def decide(self, index: int, want_output: bool) -> float:
        """Run one input under the deadline, check it; return its latency."""
        item = self.items[index]
        if self.tracer is not None:
            self.tracer.request = index
        self.attempted += 1
        pin_fastest_cpu()
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                raw = self.workload.run(item)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            verdict = self.workload.check(item, raw, want_output)
        except DeadlineExceeded:
            self.failures.append(f"{item.name}: over the {DEADLINE_S:g} s deadline")
            return perf_counter() - start
        except Exception as exc:  # any error is a failed input, not a crash
            self.failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
            return perf_counter() - start
        if not verdict.ok:
            self.failures.append(f"{item.name}: {verdict.reason}")
        if want_output:
            self.outputs.update(verdict.output.encode() + b"\0")
            if verdict.poly_checked is not None:
                self.poly_checked.append(verdict.poly_checked)
        return elapsed

    def one_pass(self, start_of_run: float) -> float:
        want_output = self.record_outputs and not self.walls
        total = 0.0
        for i, item in enumerate(self.items):
            if perf_counter() - start_of_run > HARD_LIMIT_S:
                self.attempted += 1
                self.failures.append(f"{item.name}: not started, run over {HARD_LIMIT_S:g} s")
                continue
            latency = self.decide(i, want_output)
            self.latencies[i].append(latency)
            total += latency
        self.walls.append(total)
        return total

    def fastest(self) -> list[float]:
        """Each input's fastest time over the passes.  On a shared core a
        neighbour slows most samples of a slow phase but rarely all of them,
        so the minimum moves far less from run to run than the median."""
        return [min(lat) for lat in self.latencies if lat]

    def wall(self) -> float:
        """Time to decide every input once: the per-input fastest, summed."""
        return sum(self.fastest())


def measure_untraced(workload, items, seconds, start_of_run) -> Measurement:
    """Passes while the next one is expected to end within ``seconds``."""
    measurement = Measurement(workload, items)
    begin = perf_counter()
    while True:
        measurement.one_pass(start_of_run)
        if perf_counter() - begin + statistics.fmean(measurement.walls) > seconds:
            return measurement


def measure_traced(workload, items, seconds, start_of_run):
    """Untraced and traced passes in turn, so the tracing overhead is taken
    between neighbouring passes; per-layer figures of every traced pass."""
    untraced = Measurement(workload, items)
    tracer = Tracer()
    traced = Measurement(workload, items, tracer)
    layer_runs, spans = [], None
    begin = perf_counter()
    while True:
        untraced.one_pass(start_of_run)
        tracer.reset()
        tracer.install()
        try:
            traced.one_pass(start_of_run)
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.metrics())
        if spans is None:
            spans = tracer.span_records()
        pair = statistics.fmean(untraced.walls) + statistics.fmean(traced.walls)
        if perf_counter() - begin + pair > seconds:
            return untraced, traced, layer_runs, spans


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "galois_trees" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import galois_trees

    if Path(galois_trees.__file__).resolve().parent != (src / "galois_trees").resolve():
        print(f"error: imported galois_trees from {galois_trees.__file__}", file=sys.stderr)
        return 2
    from workloads import make_workloads

    import_s = perf_counter() - PROCESS_START
    workloads = make_workloads(ROOT)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads[args.workload]

    workdir = HERE / "_work" / f"{args.workload}-seed{args.seed}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            items = workload.generate(args.seed)
            workload.materialize(items, workdir)
            workload.run(min(items, key=lambda item: item.size))
            setup_times.append(perf_counter() - start)
        start = perf_counter()
        workload.expect(items)
        expect_s = perf_counter() - start

        signal.signal(signal.SIGALRM, _on_alarm)
        start_of_run = perf_counter()
        if args.trace:
            untraced, traced, layer_runs, spans = measure_traced(
                workload, items, args.seconds, start_of_run
            )
            (workdir.parent / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, "spans": spans}),
                encoding="utf-8",
            )
        else:
            untraced, traced = measure_untraced(workload, items, args.seconds, start_of_run), None
    finally:
        unpin()
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    # one sample per input, its fastest pass, so the samples do not depend on
    # how many passes the machine's speed allowed
    per_input = untraced.fastest()
    tail, tail_pct, tail_n = tail_latency(per_input)
    checked = untraced.poly_checked
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": len(items),
        "pass_walls_s": untraced.walls,
        "input_sha256": workload.input_fingerprint(items),
        "output_sha256": untraced.outputs.hexdigest(),
        "latency_tail_percentile": tail_pct,
        "latency_tail_n": tail_n,
        "failed_ratio": len(failures) / attempted,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "expect_s": expect_s,
        "failures": failures[:20],
    }
    if args.trace:
        layer = {}
        for name, value in layer_runs[0].items():
            if name.endswith("_s"):
                value = statistics.median(run[name] for run in layer_runs)
            layer[name] = value
        layer["trace.overhead_s"] = traced.wall() - untraced.wall()
        detail["traced_pass_walls_s"] = traced.walls
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: _metric(layer[name], units[name]) for name, _, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": _metric(untraced.wall(), "s"),
            "latency_p50_s": _metric(statistics.median(per_input), "s"),
            "latency_tail_s": _metric(tail, "s"),
            "setup_s": _metric(import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            # a workload with no verify input has none decided below exact
            "poly_checked_ratio": _metric(sum(checked) / len(checked) if checked else 1.0, "ratio"),
        }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
