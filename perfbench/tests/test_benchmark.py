"""The benchmark's own tests, at a tiny input size for every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LayerTracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = "0.05"


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as handle:
        return json.load(handle)


def test_benchmark_json_names_and_units():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_end_to_end_metrics_printed_and_correct(workload, seed):
    done = run_bench(workload, seed, trace=0)
    result = result_of(done)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name  # end-to-end metrics are never 0
        assert f"{name} = " in done.stdout and done.stdout.count(metric["unit"]) >= 1
    record = record_of(workload, seed, 0)
    assert record["host"]["cores"] >= 1 and record["host"]["python"]
    assert record["host"]["cpu_model"] and record["host"]["source_sha"]
    assert all(record["checks"].values()), record["checks"]
    if workload == "experiment-suite":
        assert record["checks"]["all_within_tolerance"]
    else:
        assert record["checks"]["conservation"]
    assert all(re.match(r"^[0-9a-f]{64}$", c["digest"]) for c in record["cells"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_traced_digest(workload):
    result = result_of(run_bench(workload, 0, trace=1))
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = record_of(workload, 0, 1)
    assert record["checks"]["traced_digest_matches"]
    # Another process, untraced: the same cell gives the same digest.
    result_of(run_bench(workload, 0, trace=0))
    assert record_of(workload, 0, 0)["cells"][0]["digest"] == record["digest"]
    metrics = result["metrics"]
    shares = [v["value"] for k, v in metrics.items() if k.endswith("self_share")]
    assert all(0.0 <= s <= 1.0 for s in shares)
    assert sum(record["layers_self_s"].values()) == pytest.approx(
        metrics["traced_wall_s"]["value"], rel=1e-6
    )
    with open(os.path.join(ROOT, record["spans_file"])) as handle:
        spans = json.load(handle)
    assert spans["run_id"] and spans["spans"]
    assert all(s[3] <= s[4] for s in spans["spans"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("request-path", 0, trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class _Toy:
    def work(self, n):
        return n * 2

    def steps(self, n):
        total = 0
        for i in range(n):
            got = yield i
            total += got or 0
        return total


def test_layer_tracer_preserves_generators_and_sums_to_wall():
    tracer = LayerTracer("test")
    tracer.wrap(_Toy, "work", "plain")
    tracer.wrap(_Toy, "steps", "gen")

    def body():
        toy = _Toy()
        gen = toy.steps(3)
        assert gen.__name__ == "steps"
        sent = [next(gen)]
        try:
            while True:
                sent.append(gen.send(toy.work(1)))
        except StopIteration as stop:
            return sent, stop.value

    try:
        sent, total = tracer.run(body)
    finally:
        tracer.uninstall()
    assert (sent, total) == ([0, 1, 2], 6)
    assert "work" in _Toy.__dict__ and not hasattr(_Toy.work, "__wrapped__")
    layers = tracer.attribution()
    assert sum(layers.values()) == pytest.approx(tracer.wall_s, rel=1e-9)
    assert tracer.calls == {"_Toy.work": 3, "_Toy.steps": 1}
    assert len(tracer.spans) == 4


def test_layer_tracer_forwards_exceptions_into_generators():
    class Boom(Exception):
        pass

    class Host:
        def guarded(self):
            try:
                yield "waiting"
            except Boom:
                return "caught"

    tracer = LayerTracer("test")
    tracer.wrap(Host, "guarded", "gen")

    def body():
        gen = Host().guarded()
        assert next(gen) == "waiting"
        try:
            gen.throw(Boom())
        except StopIteration as stop:
            return stop.value

    try:
        assert tracer.run(body) == "caught"
    finally:
        tracer.uninstall()
    tracer.attribution()
