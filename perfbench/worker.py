"""One workload in a fresh interpreter: set up, then a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process imports
``repro.driver`` itself, so ``setup_s`` includes the import.  Every
workload is one client issuing serial requests with ``jobs=1``.

``--mode setup`` stops after set-up and reports its timings.
``--mode run`` then runs the timed phase for ``--seconds``; with
``--trace 1`` half of it runs untraced and half with the layer spans of
``layers.py`` installed, in alternating one-second segments.  The result
is written as JSON to ``--out``.

The process also times the speed probe (:func:`probe`) around set-up and,
in the untraced timed phase, between requests; ``run.py`` scales every
reported time by it.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (benchmark-side; imports no repro module)
import workloads  # noqa: E402

clock = time.perf_counter_ns

#: In the untraced timed phase the probe runs between requests once per
#: this much wall time (about 4% of it).
PROBE_EVERY_NS = 20_000_000
#: Probe samples taken before set-up and again after it.
SETUP_PROBES = 15

_PROBE_KEYS = tuple(f"probe{i}" for i in range(1024))
_PROBE_TABLE = {key: (i, key.upper()) for i, key in enumerate(_PROBE_KEYS)}


def _probe_task() -> int:
    keys, table, total = _PROBE_KEYS, _PROBE_TABLE, 0
    for step in range(2000):
        index, text = table[keys[step * 613 % 1024]]
        total += index + len(text.lower())
    return total


def probe() -> int:
    """Nanoseconds one fixed interpreter-bound task takes: tuple and dict
    lookups, method calls and short-lived strings over a small prebuilt
    table.  It runs no code under test, so its time moves only with the
    speed the shared machine gives this process at that moment.  Only
    its second run is timed, so what the program left in the caches
    stays out of it, and the garbage collector is off meanwhile, so the
    program's heap stays out of it too."""
    enabled = gc.isenabled()
    gc.disable()
    _probe_task()
    start = clock()
    _probe_task()
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


class CheckCold:
    """One ``Session.check`` per never-seen file, no cache.  Each block of
    requests gets a fresh session: a long-lived one keeps every parsed
    declaration block in its memo, and its memory would then grow with
    the number of requests a run completes."""

    #: Requests per block (see ``run.steady``).
    block = workloads.CHECK_BLOCK

    def __init__(self, driver, session, inputs, cache_dir) -> None:
        self.driver = driver
        self.session = session
        self.pending = iter(inputs["requests"])
        self.count = 0

    def warm_up(self) -> None:
        pass

    def request(self):
        req = next(self.pending)
        if self.count and self.count % self.block == 0:
            self.session = self.driver.Session()
        self.count += 1
        start = clock()
        result = self.session.check(req["source"], req["filename"])
        elapsed = clock() - start
        if not result.ok:
            return elapsed, f"{req['filename']} did not check"
        got = {b.name: b.rendered for b in result.bindings}
        for name, want in req["expect"].items():
            if got.get(name) != want:
                return elapsed, (f"{req['filename']}: {name} rendered "
                                 f"{got.get(name)!r}, expected {want!r}")
        return elapsed, None


class EditRebuild:
    """Cold build in set-up, then one seeded edit + rebuild per request,
    each rebuild in a fresh ``Session`` against the on-disk cache:
    ``check_project`` for the modules, ``check_many`` for ``big.lev``.

    Each block of edits starts from the cold build again: the sources and
    the cache directory are restored before its first request.  Otherwise
    every edit would leave entries in shards that later rebuilds read and
    rewrite, and the work per request would grow with the number of
    requests a run completes."""

    block = workloads.EDIT_BLOCK

    def __init__(self, driver, session, inputs, cache_dir) -> None:
        self.driver = driver
        self.session = session
        self.cache = cache_dir
        self.cold = cache_dir + ".cold"
        self.initial = inputs["bindings"]
        self.files = inputs["files"]
        self.file_of = {name: f for f in self.files for name in f["names"]}
        self.edits = iter(inputs["edits"])
        self.count = 0
        #: Path -> bytes of every file of the cold cache, once copied.
        self.cold_files = None
        self._restore_sources()

    def _restore_sources(self) -> None:
        self.state = copy.deepcopy(self.initial)
        self.texts = {f["filename"]: workloads.module_source(f, self.state)
                      for f in self.files}

    def _build(self, session, group, cache, stats):
        items = [(f["filename"], self.texts[f["filename"]])
                 for f in self.files if f["group"] == group]
        if group == "project":
            build = session.check_project(items, cache=cache, stats=stats)
            return build.ok, build.results
        results = session.check_many(items, cache=cache, stats=stats)
        return all(r.ok for r in results), results

    def _verify(self, ok, results):
        if not ok:
            return "rebuild reported errors"
        for result in results:
            for b in result.bindings:
                want = workloads.expected_rendering(self.state[b.name])
                if b.rendered != want:
                    return (f"{b.name} rendered {b.rendered!r}, declared "
                            f"{want!r}")
        return None

    def warm_up(self) -> None:
        for group in ("project", "big"):
            problem = self._verify(
                *self._build(self.session, group, self.cold, None))
            if problem:
                raise RuntimeError(f"cold build: {problem}")

    @staticmethod
    def _files(root):
        files = {}
        for folder, _dirs, names in os.walk(root):
            for name in names:
                path = os.path.join(folder, name)
                with open(path, "rb") as handle:
                    files[path] = handle.read()
        return files

    def _restore_cache(self) -> None:
        """Put the cache directory back to the cold build, rewriting only
        the files a block changed: copying the whole tree for every block
        made enough file system work to slow the requests after it by a
        varying amount.  The first call makes the copy, outside set-up."""
        if self.cold_files is None:
            shutil.copytree(self.cold, self.cache)
            self.cold_files = self._files(self.cache)
            return
        for path, data in self._files(self.cache).items():
            if path not in self.cold_files:
                os.remove(path)
            elif data != self.cold_files[path]:
                with open(path, "wb") as handle:
                    handle.write(self.cold_files[path])
        for path, data in self.cold_files.items():
            if not os.path.exists(path):
                with open(path, "wb") as handle:
                    handle.write(data)

    def request(self):
        edit = next(self.edits)
        if self.count % self.block == 0:
            self._restore_sources()
            self._restore_cache()
        self.count += 1
        if edit["kind"] != "noop":
            binding = self.state[edit["name"]]
            field = "lit" if edit["kind"] == "body" else "sig"
            binding[field] = edit[field]
            source_file = self.file_of[edit["name"]]
            self.texts[source_file["filename"]] = \
                workloads.module_source(source_file, self.state)
        stats = self.driver.CheckStats()
        start = clock()
        with self.driver.Session() as session:
            ok, results = self._build(session, edit["group"], self.cache,
                                      stats)
        elapsed = clock() - start
        problem = self._verify(ok, results)
        if problem is None and stats.checked != edit["predicted"]:
            problem = (f"{edit['kind']} edit re-checked {stats.checked} "
                       f"unit(s), predicted {edit['predicted']}")
        return elapsed, problem


class _Programs:
    """Programs checked in set-up; requests cycle over them."""

    def __init__(self, driver, session, inputs, cache_dir) -> None:
        self.driver = driver
        self.session = session
        self.programs = inputs["programs"]
        self.checks = []
        self.index = 0
        #: One pass over the corpus per block.
        self.block = len(self.programs)

    def warm_up(self) -> None:
        for program in self.programs:
            check = self.session.check(program["source"],
                                       program["filename"])
            if not check.ok:
                raise RuntimeError(f"{program['filename']} did not check")
            self.checks.append(check)


class RunPrograms(_Programs):
    """One request per program: ``run_from_check`` on the tree-walker,
    then on ``compiled=True``.  The two engines share one request because
    their times are far apart: with one request per engine, half of the
    requests would sit in each mode and the median would fall in the gap
    between them, where a few programs more or less on either side of it
    move it far."""

    def warm_up(self) -> None:
        super().warm_up()
        self.engines = (("tree", self.session),
                        ("compiled", self.driver.Session(
                            self.driver.DriverOptions(compiled=True))))

    def request(self):
        slot = self.index % len(self.programs)
        self.index += 1
        program, check = self.programs[slot], self.checks[slot]
        elapsed, problem = 0, None
        for engine, session in self.engines:
            notes = len(check.diagnostics)
            start = clock()
            run = session.run_from_check(check)
            elapsed += clock() - start
            # run_from_check appends cross-check notes to the shared check.
            del check.diagnostics[notes:]
            problem = problem or self._problem(
                f"{program['filename']} ({engine})", program, run)
        return elapsed, problem

    @staticmethod
    def _problem(name, program, run):
        if not run.ok:
            return f"{name} did not run"
        if program["expected"] is not None \
                and run.value != program["expected"]:
            return f"{name} = {run.value!r}, expected " \
                   f"{program['expected']!r}"
        if run.machine_agrees is False:
            return f"{name}: the M machine disagrees"
        if program["fragment"] and run.machine_value is None:
            return f"{name}: fragment program skipped the machine"
        return None


class ValidatePrograms(_Programs):
    """One ``validate_check`` per machine-engaging program."""

    def warm_up(self) -> None:
        super().warm_up()
        from repro.validate import validate_check

        self.validate_check = validate_check

    def request(self):
        slot = self.index % len(self.programs)
        self.index += 1
        check = self.checks[slot]
        start = clock()
        report = self.validate_check(self.session, check)
        elapsed = clock() - start
        if not (report.engaged and report.ok):
            return elapsed, f"{check.filename}: {report.pretty()}"
        return elapsed, None


WORKLOADS = {
    "check_cold": CheckCold,
    "edit_rebuild": EditRebuild,
    "run_programs": RunPrograms,
    "validate_programs": ValidatePrograms,
}


def closed_loop(workload, seconds: float, probes=None) -> dict:
    """Serial requests until ``seconds`` pass or the inputs run out.  Given
    a ``probes`` list, the speed probe runs between requests once per
    PROBE_EVERY_NS, and each sample is appended as (end, duration, wall
    time the probe took in all)."""
    latencies = []
    ends = []
    failures = []
    start = now = last_probe = clock()
    deadline = start + int(seconds * 1e9)
    while now < deadline:
        if probes is not None and now - last_probe >= PROBE_EVERY_NS:
            duration = probe()
            last_probe = clock()
            probes.append((last_probe - start, duration, last_probe - now))
        try:
            elapsed, problem = workload.request()
        except StopIteration:
            print("perfbench: inputs ran out before the deadline",
                  file=sys.stderr)
            break
        except Exception:  # a raising request is a failed request
            elapsed, problem = 0, traceback.format_exc()
        now = clock()
        latencies.append(elapsed)
        ends.append(now - start)
        if problem is not None:
            failures.append(problem)
    return {"latencies_ns": latencies, "failures": failures,
            "ends_ns": ends,
            "wall_ns": clock() - start}


def _merge(phases) -> dict:
    """Segments joined into one phase (without per-request timestamps)."""
    return {"latencies_ns": [ns for p in phases for ns in p["latencies_ns"]],
            "failures": [f for p in phases for f in p["failures"]],
            "wall_ns": sum(p["wall_ns"] for p in phases)}


def traced_run(workload, name: str, seconds: float) -> dict:
    """Untraced and traced segments, alternating so that drift over the
    run affects both sides alike; the layer spans record only the traced
    ones.  Returns both merged phases, the layer metrics and the span
    self-check."""
    recorder = layers.Recorder()
    pairs = max(1, round(seconds / 2))
    untraced, traced = [], []
    deltas = dict.fromkeys(layers.registry_counts(), 0)
    for _ in range(pairs):
        untraced.append(closed_loop(workload, seconds / (2 * pairs)))
        uninstall = layers.install(recorder)
        before = layers.registry_counts()
        try:
            traced.append(closed_loop(workload, seconds / (2 * pairs)))
        finally:
            uninstall()
        after = layers.registry_counts()
        for key in deltas:
            deltas[key] += after[key] - before[key]
    untraced, traced = _merge(untraced), _merge(traced)
    return {"phases": [untraced, traced],
            "layers": layers.layer_metrics(
                recorder, deltas, len(traced["latencies_ns"]),
                traced["wall_ns"]),
            "self_check": layers.self_check(name, recorder)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)

    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = clock()
    import repro.driver as driver
    t1 = clock()
    session = driver.Session()
    t2 = clock()
    workload = WORKLOADS[args.workload](driver, session, inputs,
                                        args.cache_dir)
    workload.warm_up()
    t3 = clock()
    setup_probes += [probe() for _ in range(SETUP_PROBES)]
    out = {"setup_s": (t3 - t0) / 1e9, "import_ms": (t1 - t0) / 1e6,
           "session_ms": (t2 - t1) / 1e6, "block": workload.block,
           "setup_probes_ns": setup_probes}

    if args.mode == "run":
        if args.trace:
            out.update(traced_run(workload, args.workload, args.seconds))
        else:
            out["probes"] = []
            out["phases"] = [closed_loop(workload, args.seconds,
                                         out["probes"])]
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
