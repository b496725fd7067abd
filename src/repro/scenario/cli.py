"""The ``soda-scenarios`` CLI: inspect, compile, and replay scenarios.

* ``soda-scenarios list`` — the library catalogue, one line per family.
* ``soda-scenarios describe <name>`` — the spec as its YAML-ish dict.
* ``soda-scenarios compile <name> [--seed N] [--duration S]`` — realise
  the seeded traces and print per-tenant arrival counts, burst windows,
  and the exact-float digest fingerprint (pure in ``(spec, seed)``).
* ``soda-scenarios replay <name> [--seed N] [--policy P] [--duration S]
  [--background-hosts H]`` — run it on the simulated HUP and print the
  per-tenant outcome table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.metrics.report import render_table
from repro.scenario.compile import compile_scenario
from repro.scenario.library import LIBRARY, get_scenario
from repro.scenario.run import POLICIES, run_scenario

__all__ = ["main"]


def _cmd_list() -> int:
    rows = []
    for name, builder in LIBRARY.items():
        spec = builder()
        shapes = ", ".join(
            sorted({type(load.arrivals).__name__.replace("Arrivals", "").lower()
                    for load in spec.loads})
        )
        rows.append([
            name, str(len(spec.loads)), f"{spec.duration_s:g}s",
            shapes + (" +bursts" if spec.bursts else ""),
        ])
    print(render_table(["scenario", "loads", "horizon", "shapes"], rows))
    return 0


def _cmd_describe(name: str) -> int:
    spec = get_scenario(name)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_compile(name: str, seed: int, duration_s: Optional[float]) -> int:
    spec = get_scenario(name, duration_s)
    compiled = compile_scenario(spec, seed)
    rows = []
    for tenant, trace in compiled.traces:
        mbs = [mb for _t, mb in trace.arrivals]
        rows.append([
            tenant, str(len(trace)),
            f"{trace.duration:.2f}s",
            f"{(len(trace) / spec.duration_s):.2f}",
            f"{max(mbs):.3f}" if mbs else "-",
        ])
    print(render_table(
        ["tenant", "arrivals", "last arrival", "mean rps", "max MB"], rows
    ))
    if compiled.windows:
        windows = ", ".join(f"[{a:.1f}, {b:.1f})" for a, b in compiled.windows)
        print(f"burst windows: {windows}")
    print(f"digest: {compiled.digest_sha()}  (pure in (spec, seed={seed}))")
    return 0


def _cmd_replay(
    name: str, seed: int, policy: str, duration_s: Optional[float],
    background_hosts: int,
) -> int:
    spec = get_scenario(name, duration_s)
    report = run_scenario(
        spec, seed=seed, policy=policy, background_hosts=background_hosts
    )
    rows = []
    for load in spec.loads:
        stats = report.stats[load.tenant]
        rows.append([
            load.tenant, load.sla_class, load.kind,
            str(stats.issued), str(stats.served), str(stats.failed),
            str(stats.shed), f"{report.mean_response_s(load.tenant) * 1e3:.1f}",
        ])
    print(render_table(
        ["tenant", "class", "kind", "issued", "served", "failed", "shed",
         "mean ms"],
        rows,
    ))
    if report.price_history:
        rates = [rate for _t, _u, rate in report.price_history]
        print(
            f"spot rate: {min(rates):.2f}-{max(rates):.2f} over "
            f"{len(rates)} ticks; {report.priced_out} requests priced out"
        )
    conserved = "holds" if report.conservation_holds() else "VIOLATED"
    print(
        f"conservation (served+failed+shed == issued): {conserved}; "
        f"digest {report.compiled_sha}; finished at {report.finished_at:.2f}s"
    )
    return 0 if report.conservation_holds() else 1


def _host_count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="soda-scenarios",
        description="Declarative workload scenarios for the SODA platform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the scenario library")
    describe = sub.add_parser("describe", help="print a spec as a plain dict")
    describe.add_argument("name")
    compile_p = sub.add_parser("compile", help="realise the seeded traces")
    compile_p.add_argument("name")
    compile_p.add_argument("--seed", type=int, default=0)
    compile_p.add_argument("--duration", type=float, default=None, metavar="S")
    replay = sub.add_parser("replay", help="run a scenario on the platform")
    replay.add_argument("name")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--policy", choices=POLICIES, default="fcfs")
    replay.add_argument("--duration", type=float, default=None, metavar="S")
    replay.add_argument(
        "--background-hosts", type=_host_count, default=0, metavar="H",
        help="attach an aggregated fluid background fleet of H hosts",
    )

    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args.name)
    if args.command == "compile":
        return _cmd_compile(args.name, args.seed, args.duration)
    return _cmd_replay(
        args.name, args.seed, args.policy, args.duration, args.background_hosts
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
