"""Collect, print and compare benchmark result sets.

    python3 perfbench/report.py collect OUT.json [--seed N] [--seconds S]
    python3 perfbench/report.py show RESULTS.json
    python3 perfbench/report.py compare PARENT.json CHANGE.json

``collect`` runs every workload of BENCHMARK.json twice, untraced and
traced, prints every metric by name with its unit and writes the result
set.  ``show`` prints a saved set the same way, with each layer's
predicted end-to-end effect.  ``compare`` prints two sets side by side:
the end-to-end metrics against their bounds, then the per-layer metrics,
one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def collect(out: str, seed: int, seconds: float) -> dict:
    results = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        results[workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            results[workload][key] = json.loads(
                run.stdout.strip().splitlines()[-1])
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    return results


def show(results: dict) -> None:
    for workload, sets in results.items():
        print(f"== {workload}")
        for key, result in sets.items():
            ratio = result["failed"] / result["attempted"]
            print(f"  [{key}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" failed_ratio={ratio:.4g}")
            for name, metric in result["metrics"].items():
                print(f"    {name:30s} {metric['value']:14.6g} "
                      f"{metric['unit']}")
    print("== layer predictions")
    for layer, (calls, metrics, moves) in layers.LAYERS.items():
        names = ", ".join(name for name, _unit in metrics)
        print(f"  {layer}: {names}\n      times {calls}\n      moves {moves}")


def _change(parent: float, change: float) -> str:
    if parent == 0:
        return "  n/a" if change == 0 else "  new"
    return f"{(change - parent) / parent:+6.1%}"


def compare(parent: dict, change: dict) -> None:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    print("end-to-end (parent -> change; bound = allowed worsening)")
    for workload in parent:
        p = parent[workload]["end_to_end"]["metrics"]
        c = change.get(workload, {}).get("end_to_end", {}).get("metrics", {})
        print(f"  {workload}")
        for name, spec in bounds.items():
            if name not in p or name not in c:
                continue
            pv, cv = p[name]["value"], c[name]["value"]
            worse = (cv - pv) / pv * (1 if spec["better"] == "lower" else -1)
            flag = "  REGRESSED" if worse > spec["bound"] else ""
            print(f"    {name:16s} {pv:12.5g} -> {cv:12.5g} "
                  f"{spec['unit']:5s} {_change(pv, cv)} "
                  f"(bound {spec['bound']:.0%}){flag}")
    print("per-layer, per request (parent -> change)")
    for workload in parent:
        p = parent[workload]["per_layer"]["metrics"]
        c = change.get(workload, {}).get("per_layer", {}).get("metrics", {})
        cells = [f"{name} {p[name]['value']:.4g}->{c[name]['value']:.4g} "
                 f"{_change(p[name]['value'], c[name]['value']).strip()}"
                 for name in p if name in c
                 and (p[name]["value"] or c[name]["value"])]
        print(f"  {workload:18s} " + " | ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect", help="run every workload and save")
    run.add_argument("out")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float,
                     default=None, help="default: BENCHMARK.json run_seconds")
    saved = sub.add_parser("show", help="print a saved result set")
    saved.add_argument("results")
    pair = sub.add_parser("compare", help="parent vs change, side by side")
    pair.add_argument("parent")
    pair.add_argument("change")
    args = parser.parse_args()

    def load(path: str) -> dict:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    if args.command == "collect":
        seconds = args.seconds or _spec()["run_seconds"]
        show(collect(args.out, args.seed, seconds))
    elif args.command == "show":
        show(load(args.results))
    else:
        compare(load(args.parent), load(args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
