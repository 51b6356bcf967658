"""E17: telemetry must be near-free when off (the ISSUE-7 tentpole gate).

The :mod:`repro.telemetry` layer threads one ``if tracer.enabled`` /
``if registry.enabled`` guard through the pipeline's hot paths — the
unifier-driven check path and the compiled evaluator's call/trampoline
path.  This benchmark re-runs the two hottest existing workloads with
telemetry **disabled** and gates them against the committed pre-PR
baseline (``BENCH_baseline.json``):

* ``e17.deep_chain.disabled`` — the E11 union-find stress chain
  (:func:`bench_e11_unifier_stress._deep_chain`);
* ``e17.compiled_loop.disabled`` — the E16 compiled unboxed ``sumTo#``
  loop (:func:`bench_e16_compiled_eval._run_loop`).

Gate: each disabled timing must be within :data:`OVERHEAD_CEILING`
(2%) of its baseline, padded by the measured in-run jitter (two
interleaved best-of-N groups; shared machines drift more than 2% on
their own, and the pad keeps the gate about *telemetry* overhead rather
than scheduler luck).  ``BENCH_REPORT_ONLY`` skips the hard gate.

The telemetry-enabled timings are recorded too (``e17.*.enabled`` plus
the overhead ratios) — informative, not gated: tracing is opt-in and
allowed to cost what it costs.
"""

import sys

import pytest

from bench_e11_unifier_stress import DEEP_CHAIN_N, _deep_chain
from bench_e16_compiled_eval import N_UNBOXED, _run_loop
from benchreport import (
    drain_registry,
    emit,
    record_counter,
    record_timing,
    report_only,
)
from repro.infer.unify import UnifierState
from repro.runtime.programs import SUM_TO_UNBOXED_SOURCE
from repro.telemetry import REGISTRY, TRACER

#: The tentpole gate: disabled-telemetry wall clock vs the pre-PR
#: baseline committed in BENCH_baseline.json.
OVERHEAD_CEILING = 1.02

#: Best-of-N per measurement group; two interleaved groups estimate the
#: in-run jitter that pads the gate.
GROUP_REPEATS = 5

BASELINE_KEYS = {
    "deep_chain": "e17.deep_chain.disabled",
    "compiled_loop": "e17.compiled_loop.disabled",
}


def _workload_deep_chain():
    _deep_chain(UnifierState, DEEP_CHAIN_N)


def _workload_compiled_loop():
    expected = N_UNBOXED * (N_UNBOXED + 1) // 2
    result = _run_loop(SUM_TO_UNBOXED_SOURCE, "sumTo#", N_UNBOXED, True)
    assert result == expected


def _best_of(fn, repeats):
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_with_jitter(fn):
    """Two interleaved best-of-N groups: (best, |group spread|)."""
    first = _best_of(fn, GROUP_REPEATS)
    second = _best_of(fn, GROUP_REPEATS)
    return min(first, second), abs(first - second)


def test_report_telemetry_overhead():
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 50 * N_UNBOXED))
    workloads = {
        "deep_chain": _workload_deep_chain,
        "compiled_loop": _workload_compiled_loop,
    }

    # -- disabled: the gated configuration -----------------------------------
    TRACER.disable()
    REGISTRY.enabled = False
    assert not TRACER.enabled and not REGISTRY.enabled
    disabled = {}
    jitter = {}
    for name, fn in workloads.items():
        fn()  # warm-up (codegen, caches) outside the timed groups
        disabled[name], jitter[name] = _measure_with_jitter(fn)
        record_timing(f"e17.{name}.disabled", disabled[name],
                      repeats=2 * GROUP_REPEATS)
        record_counter(f"e17.{name}.jitter_seconds", round(jitter[name], 6))

    # -- enabled: informative, not gated -------------------------------------
    drain_registry()
    TRACER.enable()
    REGISTRY.enable()
    enabled = {}
    for name, fn in workloads.items():
        enabled[name], _ = _measure_with_jitter(fn)
        record_timing(f"e17.{name}.enabled", enabled[name],
                      repeats=2 * GROUP_REPEATS)
        TRACER.drain()  # keep the span buffer bounded between workloads
    TRACER.disable()
    TRACER.drain()
    REGISTRY.enabled = False
    counters = drain_registry("e17.enabled_registry")["counters"]
    assert counters.get("runtime.trampoline_bounces", 0) > 0, \
        "enabled run should have metered the compiled trampoline"

    from benchreport import _load_baseline, BASELINE_JSON_PATH
    baseline = (_load_baseline(BASELINE_JSON_PATH) or {}).get("timings", {})

    rows = []
    for name in workloads:
        ratio = enabled[name] / disabled[name]
        record_counter(f"e17.{name}.enabled_over_disabled", round(ratio, 3))
        base = baseline.get(BASELINE_KEYS[name], {}).get("seconds")
        vs_base = (disabled[name] / base) if base else None
        rows.append((f"{name} disabled",
                     f"baseline {base * 1000:.1f}ms" if base else "no baseline",
                     f"{disabled[name] * 1000:.1f}ms"))
        rows.append((f"{name} enabled", f"{ratio:.2f}x of disabled",
                     f"{enabled[name] * 1000:.1f}ms"))
        if vs_base is not None:
            record_counter(f"e17.{name}.disabled_vs_baseline",
                           round(vs_base, 3))
    emit("E17: telemetry overhead (disabled must stay near the pre-PR "
         "baseline)", rows)

    if report_only():
        pytest.skip("BENCH_REPORT_ONLY set: timings recorded, gate skipped")
    for name in workloads:
        base = baseline.get(BASELINE_KEYS[name], {}).get("seconds")
        assert base is not None, \
            f"missing {BASELINE_KEYS[name]} in BENCH_baseline.json"
        ceiling = base * OVERHEAD_CEILING + jitter[name]
        assert disabled[name] <= ceiling, (
            f"{name} with telemetry disabled took {disabled[name]:.6f}s — "
            f"over the {OVERHEAD_CEILING:.0%} ceiling on the "
            f"{base:.6f}s baseline even after the {jitter[name]:.6f}s "
            f"in-run jitter pad")
