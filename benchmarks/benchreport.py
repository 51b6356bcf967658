"""Benchmark reporting: paper-vs-measured tables plus a machine-readable
wall-clock record (``BENCH_perf.json``).

Two layers:

* :func:`emit` — the original human-readable aligned table, unchanged.
* :func:`record_timing` / :func:`time_op` / :func:`record_counter` — collect
  ``time.perf_counter`` wall-clock timings and solver op counters into a
  process-global registry.  ``benchmarks/conftest.py`` flushes the registry
  to ``BENCH_perf.json`` at the end of the pytest session via
  :func:`write_perf_json`.

Speedups are reported two ways:

* **in-run pairs** — a benchmark that measures both the legacy and the
  production implementation of the same workload records them under
  ``<key>.legacy`` / ``<key>.current``; :func:`write_perf_json` pairs them
  up into a ``speedups`` section;
* **recorded baseline** — if ``benchmarks/BENCH_baseline.json`` exists
  (a committed snapshot of an earlier run), every timing key present in
  both files gets a ``vs_baseline`` speedup, provided the two entries'
  ``meta`` agree on every key but ``repeats``; a key whose ``meta``
  differ measures another workload and is listed in ``baseline_mismatch``
  instead.

Report-only mode: when the environment variable ``BENCH_REPORT_ONLY`` is
set (as the CI workflow does), benchmarks should record timings but skip
hard wall-clock assertions — shared runners are too noisy to gate on.
Use :func:`report_only` to query the flag.
"""

import json
import os
import platform
import time

#: Where the JSON artefacts live, relative to this file.
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(_BENCH_DIR)
PERF_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_perf.json")
BASELINE_JSON_PATH = os.path.join(_BENCH_DIR, "BENCH_baseline.json")

#: Process-global registry of this run's measurements.
_TIMINGS = {}
_COUNTERS = {}


def report_only():
    """True when hard wall-clock assertions should be skipped (noisy CI)."""
    return bool(os.environ.get("BENCH_REPORT_ONLY"))


def emit(title, rows):
    """Print a small aligned table of (label, paper, measured) rows."""
    print(f"\n=== {title} ===")
    width = max(len(str(r[0])) for r in rows) + 2
    print(f"{'metric':<{width}} {'paper':>20} {'measured':>20}")
    for label, paper, measured in rows:
        print(f"{str(label):<{width}} {str(paper):>20} {str(measured):>20}")


def record_timing(key, seconds, **meta):
    """Record one wall-clock measurement under a dotted key, e.g.
    ``"e11.deep_chain.current"``."""
    entry = {"seconds": seconds}
    if meta:
        entry["meta"] = meta
    _TIMINGS[key] = entry


def record_counter(key, value):
    """Record a non-timing metric (op counts, sizes, computed ratios)."""
    _COUNTERS[key] = value


def drain_registry(key=None):
    """Snapshot-and-reset the process-global telemetry registry.

    The benchmarks share one Python process (one pytest session), and the
    :data:`repro.telemetry.REGISTRY` counters are process-global — without
    a reset between E-sections, section N's solver/cache/runtime counts
    would leak into section N+1's report.  Every benchmark that reads the
    registry should go through this helper: it returns the snapshot and
    zeroes the registry **in place** (metric identities survive, so hot
    code holding a ``Counter`` reference keeps working).

    When ``key`` is given the snapshot's counters are also recorded under
    that key via :func:`record_counter`, which is how registry-backed
    counts reach ``BENCH_perf.json`` instead of benchmarks reaching into
    module internals.
    """
    from repro.telemetry import REGISTRY

    snapshot = REGISTRY.snapshot()
    REGISTRY.reset()
    if key is not None:
        record_counter(key, snapshot["counters"])
    return snapshot


def time_op(key, fn, *args, repeats=3, meta=None):
    """Run ``fn(*args)`` ``repeats`` times, record the best wall-clock time.

    Returns the result of the final call, so benchmarks can keep asserting
    on it.  Best-of-N is the standard defence against scheduler noise for
    sub-second operations.  ``meta`` is an explicit dict of descriptive
    metadata for the JSON record — deliberately not ``**kwargs``, so
    workload parameters cannot be silently recorded without being passed
    to ``fn``.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    record_timing(key, best, repeats=repeats, **(meta or {}))
    return result


def _load_baseline(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _pair_speedups(timings):
    """Pair ``<key>.legacy`` with ``<key>.current`` measured in this run."""
    speedups = {}
    for key, entry in timings.items():
        if not key.endswith(".legacy"):
            continue
        stem = key[: -len(".legacy")]
        current = timings.get(stem + ".current")
        if current and current["seconds"] > 0:
            speedups[stem] = {
                "legacy_seconds": entry["seconds"],
                "current_seconds": current["seconds"],
                "speedup": entry["seconds"] / current["seconds"],
            }
    return speedups


def _workload(entry):
    """A timing's ``meta`` without ``repeats``: what was measured."""
    return {key: value for key, value in entry.get("meta", {}).items()
            if key != "repeats"}


def _baseline_speedups(timings, baseline):
    """Compare this run's timings against a recorded baseline snapshot.

    Returns the speedups and the sorted keys that both hold but whose
    workloads (see :func:`_workload`) differ, which are not compared.
    """
    out = {}
    mismatch = []
    base_timings = (baseline or {}).get("timings", {})
    for key, entry in timings.items():
        base = base_timings.get(key)
        if not base:
            continue
        if _workload(entry) != _workload(base):
            mismatch.append(key)
        elif entry["seconds"] > 0:
            out[key] = {
                "baseline_seconds": base["seconds"],
                "current_seconds": entry["seconds"],
                "speedup": base["seconds"] / entry["seconds"],
            }
    return out, sorted(mismatch)


def write_perf_json(path=PERF_JSON_PATH, baseline_path=BASELINE_JSON_PATH):
    """Flush the registry to ``path``; returns the report dict (or None).

    Called by ``benchmarks/conftest.py`` at session end.  No-op when nothing
    was recorded (e.g. a test run that deselected the benchmarks).
    """
    if not _TIMINGS and not _COUNTERS:
        return None
    report = {
        "schema": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timings": dict(sorted(_TIMINGS.items())),
        "counters": dict(sorted(_COUNTERS.items())),
        "speedups": _pair_speedups(_TIMINGS),
    }
    baseline = _load_baseline(baseline_path)
    if baseline is not None:
        report["baseline_file"] = os.path.relpath(baseline_path, _REPO_ROOT)
        (report["vs_baseline"],
         report["baseline_mismatch"]) = _baseline_speedups(_TIMINGS, baseline)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return report
