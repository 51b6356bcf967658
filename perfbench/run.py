"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload check_cold --seed 1 --seconds 20

Run from the root of a checkout.  The seed selects the generated inputs
(the same seed gives the same inputs); the program under test only sees
those inputs.  With ``--trace 0`` the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
carries every per-layer metric instead.  See perfbench/README.md for the
workloads, the metrics and the layer-to-end-to-end predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-up is measured in this many fresh interpreters besides the one
#: that runs the timed phase; ``setup_s`` is the median of all of them.
SETUP_PROBES = 4
#: Whole-run budget; a child still running past it is killed.
BUDGET_S = 170
#: Fewest steady requests that leave ten samples beyond p95.
P95_SAMPLES = 200
#: Median time of ``worker.probe`` on an uncontended core of the machine
#: the bounds were set on.  Every reported time is scaled to that speed:
#: a time taken while the probe reads twice this counts half.
PROBE_REF_NS = 350_000

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def _worker(workload: str, mode: str, inputs: str, cache_dir: str,
            seconds: float, trace: int, out: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("REPRO_TRACE", None)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--mode", mode, "--inputs", inputs,
               "--cache-dir", cache_dir, "--seconds", str(seconds),
               "--trace", str(trace), "--out", out]
    subprocess.run(command, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(deadline - time.monotonic(), 1))
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed(probe_ns) -> float:
    """The factor that scales a time taken while the speed probe read
    ``probe_ns`` to the reference speed PROBE_REF_NS."""
    return PROBE_REF_NS / statistics.median(probe_ns)


def steady(phase: dict, block: int, probes):
    """The requests of the quietest quarter of the timed phase's blocks,
    or of as many of the quietest blocks as hold P95_SAMPLES requests,
    each scaled to the reference speed.

    A block is ``block`` consecutive requests: one pass over the program
    corpus, or a fixed slice of a stationary input stream, so every block
    carries the same kind of work.  ``probes`` are the speed probe's
    (end, duration, wall time spent) triples; those taken between a
    block's requests give its speed, and their wall time is left out of
    its own.  Other tenants of the shared cores slow this process by up
    to 1.8x, for seconds or for whole runs, and the program's code slows
    less than the probe does.  So the kept blocks are those the probe
    found quietest, not those that read fastest, and scaling them to the
    reference speed corrects only what slowdown is left.  Returns the
    kept latencies and the wall time of the kept blocks.
    """
    ends, latencies = phase["ends_ns"], phase["latencies_ns"]
    everywhere = [ns for _, ns, _ in probes]
    blocks = []
    for stop in range(block, len(ends) + 1, block):
        first = stop - block
        # From the first request's start: set-up between blocks (a fresh
        # session, a restored cache) is not part of any request.
        start, end = ends[first] - latencies[first], ends[stop - 1]
        inside = [(ns, spent) for at, ns, spent in probes
                  if start <= at <= end]
        factor = speed([ns for ns, _ in inside] or everywhere)
        wall = end - start - sum(spent for _, spent in inside)
        blocks.append((factor, wall * factor, first, stop))
    if not blocks:
        factor = speed(everywhere)
        return ([ns * factor for ns in latencies],
                (phase["wall_ns"] - sum(s for _, _, s in probes)) * factor)
    keep = max(len(blocks) // 4, -(-P95_SAMPLES // block))
    # The quietest blocks have the largest factors.
    kept = sorted(blocks, reverse=True)[:keep]
    return ([ns * factor for factor, _, first, stop in kept
             for ns in latencies[first:stop]],
            sum(wall for _, wall, _, _ in kept))


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        inputs = os.path.join(work, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as handle:
            json.dump(workloads.generate(workload, seed, seconds), handle)

        def worker(mode: str, tag: str) -> dict:
            return _worker(workload, mode, inputs,
                           os.path.join(work, f"cache-{tag}"), seconds,
                           trace, os.path.join(work, f"{tag}.json"),
                           deadline)

        probes = [] if trace else \
            [worker("setup", f"probe{i}") for i in range(SETUP_PROBES)]
        main = worker("run", "main")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    phases = main["phases"]
    attempted = sum(len(p["latencies_ns"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    for failure in failures[:5]:
        print(f"perfbench: failed request: {failure}", file=sys.stderr)
    problems = main.get("self_check", [])
    for problem in problems:
        print(f"perfbench: span self-check: {problem}", file=sys.stderr)
    result = {"correct": not failures and not problems and attempted > 0,
              "attempted": attempted, "failed": len(failures)}

    if trace:
        untraced, traced = phases
        rate = [len(p["latencies_ns"]) / (p["wall_ns"] / 1e9)
                for p in phases]
        values = dict(main["layers"])
        values["startup.import_ms"] = main["import_ms"]
        values["startup.session_ms"] = main["session_ms"]
        values["bench.trace_overhead_ratio"] = rate[1] / rate[0]
        values["bench.failed_ratio"] = len(failures) / max(attempted, 1)
        result["metrics"] = {name: _metric(values[name], unit)
                             for name, unit in layers.PER_LAYER_UNITS.items()}
        return result

    (phase,) = phases
    latencies, wall_ns = steady(phase, main["block"], main["probes"])
    latencies.sort()
    raw = sorted(phase["latencies_ns"])
    print(f"perfbench: latencies over {len(latencies)} steady requests of "
          f"{attempted}; unscaled p50 over all "
          f"{statistics.median(raw) / 1e6:.4f} ms, probe median "
          f"{statistics.median(ns for _, ns, _ in main['probes']):.0f} ns "
          f"(reference {PROBE_REF_NS} ns)", file=sys.stderr)
    if len(latencies) < P95_SAMPLES:
        print("perfbench: p95 has fewer than ten samples beyond it",
              file=sys.stderr)
    values = {
        "setup_s": statistics.median(
            p["setup_s"] * speed(p["setup_probes_ns"])
            for p in probes + [main]),
        "throughput_rps": len(latencies) * (1 - len(failures) / attempted)
        / (wall_ns / 1e9),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p95_ms": statistics.quantiles(latencies, n=20)[18] / 1e6
        if len(latencies) > 1 else latencies[0] / 1e6,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    result["metrics"] = {name: _metric(values[name], unit)
                         for name, unit in END_TO_END.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro", "driver")):
        print(f"perfbench: no program under test at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {args.workload} did not complete: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
