"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They use small populations so that the whole file runs in well under a
minute; the full workloads run only through ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import KERNEL_TARGETS, PER_LAYER, Tracer  # noqa: E402
from workloads import VerifyRandom, ZetaFree  # noqa: E402


def prepared(workload, workdir, seed=3):
    items = workload.generate(seed)
    workload.materialize(items, workdir)
    workload.expect(items)
    return items


def package_bindings() -> dict:
    """Every function, method and CLI callback a tracer could rebind."""
    import galois_trees.cli

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "galois_trees" or name.startswith("galois_trees."):
            for key, value in vars(module).items():
                if callable(value):
                    out[(name, key)] = value
    for modname, clsname, _, _ in KERNEL_TARGETS:
        cls = getattr(sys.modules[modname], clsname)
        for key, value in vars(cls).items():
            out[(clsname, key)] = value
    for name, command in galois_trees.cli.main.commands.items():
        out[("cli", name)] = command.callback
    return out


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail_latency([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    samples = [float(x) for x in reversed(range(30))]
    value, percentile, n = run.tail_latency(samples)
    assert (value, n) == (19.0, 30)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_of_twenty_or_fewer_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail_latency([float(x) for x in range(20)]) == (19.0, 100.0, 20)
    assert run.tail_latency([float(x) for x in range(21)])[:2] == (10.0, 100 * 11 / 21)


def test_wall_sums_each_inputs_fastest_pass():
    measurement = run.Measurement(None, [object(), object()])
    measurement.latencies = [[0.3, 0.1, 0.2], [2.0, 3.0, 1.0]]
    assert measurement.fastest() == [0.1, 1.0]
    assert measurement.wall() == pytest.approx(1.1)


def test_each_input_runs_pinned_to_one_allowed_cpu():
    try:
        run.pin_fastest_cpu()
        pinned = run.os.sched_getaffinity(0)
        assert len(pinned) == 1 or len(run.CPUS) < 2
        assert pinned <= set(run.CPUS)
    finally:
        run.unpin()
    assert run.os.sched_getaffinity(0) == set(run.CPUS)


def test_planted_wrong_answer_is_counted_as_failed(tmp_path):
    workload = VerifyRandom(count=4)
    items = prepared(workload, tmp_path)
    items[1].expected["trees"] += 1
    measurement = run.Measurement(workload, items)
    measurement.one_pass(time.perf_counter())
    assert measurement.attempted == 4
    assert len(measurement.failures) == 1
    assert measurement.failures[0].startswith(items[1].name + ":")


def test_input_past_the_deadline_is_failed_not_waited_for(tmp_path, monkeypatch):
    class Sleeper(ZetaFree):
        def run(self, item):
            time.sleep(5)

    workload = Sleeper(count=1)
    items = prepared(workload, tmp_path)
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        start = time.perf_counter()
        measurement = run.Measurement(workload, items)
        measurement.one_pass(start)
        assert time.perf_counter() - start < 2
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert measurement.attempted == 1
    assert "deadline" in measurement.failures[0]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    workload = VerifyRandom(count=3)
    first = workload.input_fingerprint(prepared(workload, tmp_path, seed=5))
    again = workload.input_fingerprint(prepared(workload, tmp_path, seed=5))
    other = workload.input_fingerprint(prepared(workload, tmp_path, seed=6))
    assert first == again != other


def test_two_traced_runs_count_the_same_and_restore_the_package(tmp_path):
    workload = VerifyRandom(count=4)
    before = package_bindings()
    counts = []
    for _ in range(2):
        items = prepared(workload, tmp_path)
        tracer = Tracer()
        measurement = run.Measurement(workload, items, tracer)
        tracer.install()
        try:
            measurement.one_pass(time.perf_counter())
        finally:
            tracer.uninstall()
        assert not measurement.failures
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["jacobians.tree_poly_calls"] > 0
    assert counts[0]["matroids.bases_calls"] > 0
    assert counts[0]["algebra.cycint_mul_calls"] > 0
    assert package_bindings() == before


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    before = package_bindings()
    code = run.main(
        ["--workload", "verify-cyclic", "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert package_bindings() == before


def test_per_layer_metrics_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)
    produced = set(Tracer().metrics()) | {"trace.overhead_s"}
    assert produced == {name for name, _, _ in PER_LAYER}


def test_refuses_to_run_without_the_package_source(tmp_path):
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
