"""End-to-end benchmark of the SODA simulator, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload request-path --seed 0 --seconds 20 --trace 0

``--trace 0`` times set-up in several fresh interpreters, then runs the
workload's cells in one measured process and prints every end-to-end
metric, host times scaled to a reference host speed (``reference.py``).  ``--trace 1`` runs one cell untraced and once more with every
layer's entry points wrapped, and prints the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the host fingerprint, each metric with its unit, the simulated
digests and the correctness checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from measure import OUT_DIR
from reference import REFERENCE_S, ReferenceClock, current_cpu
from workloads import WORKLOADS, usable_cores

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MEASURE = os.path.join(HERE, "measure.py")
#: Fresh interpreters that only set up; ``setup_s`` is their median.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_args(args: argparse.Namespace) -> List[str]:
    return [
        sys.executable, MEASURE, "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale),
    ]


def run_child(argv: List[str], cpu: Optional[int] = None) -> Tuple[int, str]:
    """Run one benchmark process in its own process group, on core ``cpu``
    if one is given.

    Returns the exit code and the process's output (standard error
    included).  After ``CHILD_TIMEOUT_S`` the whole group is killed (the
    federation's worker processes too) and reaped.
    """
    child = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    return child.returncode, out


def time_setup(args: argparse.Namespace, probes: int) -> Tuple[List[float], List[float]]:
    """Seconds from starting a fresh interpreter to inputs built, per probe.

    Each probe runs on one core, bracketed by reference timings on that
    core.  Returns the samples scaled by those timings and the samples
    as measured.
    """
    scaled, measured = [], []
    cpu = current_cpu()
    with ReferenceClock() as clock:
        before = clock.seconds(cpu)
        for _ in range(probes):
            began = time.monotonic()
            code, out = run_child(measure_args(args) + ["--setup-only"], cpu)
            if code != 0:
                raise RuntimeError(f"set-up probe failed:\n{out}")
            ready = json.loads(out.strip().splitlines()[-1])["setup_done_monotonic"]
            after = clock.seconds(cpu)
            measured.append(ready - began)
            scaled.append(measured[-1] * 2 * REFERENCE_S / (before + after))
            before = after
    return scaled, measured


def run_measured(args: argparse.Namespace) -> Dict[str, Any]:
    code, out = run_child(
        measure_args(args) + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    )
    if code != 0:
        raise RuntimeError(f"measured run failed:\n{out}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha() -> str:
    """SHA-256 over every file under ``src/``: the code measured, exactly."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fingerprint() -> Dict[str, Any]:
    return {
        "cores": usable_cores(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha": source_sha(),
    }


def declared_metrics(trace: int) -> Optional[List[str]]:
    """Metric names ``BENCHMARK.json`` expects for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size relative to the benchmark's (the tests use a small one)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 0 or not 0 < args.scale <= 1.0:
        return fail("--seconds must be >= 0 and --scale in (0, 1]")
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no simulator sources under {SRC}; run from a full checkout")

    try:
        setup, setup_measured = ([], []) if args.trace else time_setup(args, SETUP_PROBES)
        result = run_measured(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["unscaled"]["setup_s"] = statistics.median(setup_measured)
    expected = declared_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        return fail(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}"
        )

    checks = result["checks"]
    correct = all(checks.values())
    attempted = max(1, int(result["attempted"]))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": fingerprint(),
        "checks": checks,
        "setup_samples_s": setup,
        "setup_samples_unscaled_s": setup_measured,
        **{k: v for k, v in result.items() if k not in ("checks", "metrics")},
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)

    host = record["host"]
    print(
        f"host: cores={host['cores']} cpu={host['cpu_model']!r} python={host['python']} "
        f"commit={host['commit']} source_sha={host['source_sha'][:16]}"
    )
    for cell in result.get("cells", []):
        print(f"cell seed={cell['seed']} digest={cell['digest']}")
    if "digest" in result:
        print(f"digest={result['digest']}")
    for name in sorted(checks):
        print(f"check {name}: {'ok' if checks[name] else 'FAILED'}")
    for name, value in sorted(result.get("unscaled", {}).items()):
        print(f"unscaled {name} = {value:.6g} (as measured, before reference scaling)")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
