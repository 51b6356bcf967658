"""``python -m repro`` — the command-line driver for ``.lev`` programs.

Subcommands:

* ``check file.lev [...]`` — run parse → infer → levity-check → defaulting
  over one or more files; print each binding's scheme (GHCi-style rep
  defaulting unless ``--explicit-reps``) and any diagnostics with source
  spans plus GHC-style caret snippets.  Exit status 1 when any file
  fails.  ``--cache PATH`` re-uses results per binding (keyed by the
  binding's source slice and the schemes of the bindings it uses, so one
  edit re-checks only its dependents); ``--stats`` prints per-binding
  timings and cache hit/miss counts.
* ``build DIR|file.lev [...]`` — check a multi-module project: files name
  themselves with ``module M where`` headers and see each other's exports
  through ``import N`` declarations.  The module DAG is walked level by
  level (import cycles are rejected with source spans); with ``--cache``
  the build is incremental across module boundaries — editing a function
  body without changing its exported scheme re-checks exactly one
  binding, and no importing module is even re-parsed.  ``--run`` then
  evaluates ``--entry`` over the merged project.  See docs/PROJECTS.md.
* ``run file.lev [...]`` — check, then evaluate ``--entry`` (default
  ``main``) on the cost-model machine; when the entry fits the L fragment
  it is also compiled via Figure 7 and cross-checked on the M machine.
  ``--compiled`` evaluates through the closure-compilation backend
  instead of the tree-walker, compiling each binding when the run first
  reaches it; with ``--cache PATH`` the generated code is reused per
  binding (a warm run reports zero functions compiled).
  ``--stats`` reports the unified telemetry counters (solver, codegen,
  compiled runtime, evaluator cost model); with ``--json`` the result and
  counters are one machine-readable document.
* ``compile file.lev`` — check, lower the entry to the calculus L, compile
  to the machine language M, show the code, and run it.
* ``validate file.lev|DIR [...]`` — translation validation: record the L
  evaluator's step trace for each entry, compile every consecutive pair
  and discharge the Simulation theorem's joinability obligations, then
  compare the machine's final answer with the evaluator's (agreement on
  ⊥ included).  Reports the *first diverging step* on failure; exits
  nonzero only on genuine divergence (out-of-fragment entries are
  reported as skipped).  See docs/VALIDATION.md.

``check``/``run``/``compile`` also accept ``--trace out.json`` (or the
``REPRO_TRACE`` environment variable), which records the pipeline's spans
— parse, depgraph, unit.infer/unit.unify, cache.lookup, eval.run,
codegen.lower/link — as Chrome trace-event JSON loadable in Perfetto
(see docs/OBSERVABILITY.md).
* ``cache ACTION PATH`` — maintain a result-cache directory (schema v5,
  one SQLite database, ``docs/INCREMENTAL.md``): ``stats`` counts
  entries and bytes per key namespace, ``verify`` runs SQLite's
  integrity check and shape-checks every payload (exit 1 on problems),
  ``gc --max-age AGE`` drops entries not stored or consumed within AGE
  (``30d``, ``12h``, ``90m`` or plain seconds), and ``compact``
  vacuums the database.  Every ``--cache PATH`` is such a directory,
  created on first use; a PATH that is, or lies under, a regular file,
  or whose database SQLite cannot use, is refused with one ``error:``
  line (exit 2) before any work, and the file is left as it was.
* ``repl`` — a small read-eval-print loop (declarations accumulate;
  ``:t expr`` shows a type; ``:q`` quits).
* ``fuzz`` — generate a corpus of random well-typed programs
  (``--seed``/``--count``/``--depth``), optionally dump it as ``.lev``
  files (``--emit DIR``) and/or run the differential harness over it
  (``--check``).  On a failure,
  ``--save-shrunk DIR`` writes a hypothesis-minimised reproducer.

Examples::

    python -m repro check examples/*.lev
    python -m repro run examples/sumto.lev
    python -m repro compile examples/unbox_apply.lev
    echo 'sumTo# 0# 10#' | python -m repro repl
    python -m repro fuzz --seed 0 --count 200 --check
    python -m repro fuzz --count 50 --emit /tmp/corpus
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .driver import DriverOptions, Session
from .driver.store import StoreError
from .telemetry import REGISTRY, TRACER, env_trace_path, stats_document


class _CliError(Exception):
    """A usage-level failure reported as one line, not a traceback."""


def _read_source(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") \
            from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot decode {path}: {exc}") from exc


def _options(args: argparse.Namespace) -> DriverOptions:
    return DriverOptions(
        explicit_runtime_reps=getattr(args, "explicit_reps", False),
        run_levity_check=not getattr(args, "no_levity_check", False),
        compiled=getattr(args, "compiled", False))


def _check_json(results) -> str:
    payload = []
    for result in results:
        payload.append({
            "file": result.filename,
            "ok": result.ok,
            "bindings": [
                {"name": b.name, "type": b.rendered, "ok": b.ok,
                 "defaulted_rep_vars": list(b.defaulted_rep_vars)}
                for b in result.bindings],
            "diagnostics": [
                {"severity": d.severity, "stage": d.stage,
                 "message": d.message, "binding": d.binding,
                 "line": d.span.line if d.span else None,
                 "column": d.span.column if d.span else None}
                for d in result.diagnostics],
        })
    return json.dumps(payload, indent=2)


def _print_stats_text(stream, check_stats=None) -> None:
    print("-- stats --", file=stream)
    if check_stats is not None:
        print(check_stats.pretty(), file=stream)
    metrics = REGISTRY.pretty()
    if metrics:
        print("-- metrics --", file=stream)
        print(metrics, file=stream)


def _cmd_check(args: argparse.Namespace) -> int:
    from .driver.batch import CheckStats

    sources = [(path, _read_source(path)) for path in args.files]
    stats = CheckStats() if args.stats else None
    with Session(_options(args)) as session:
        results = session.check_many(sources, cache=args.cache,
                                     stats=stats)
    source_of = dict(sources)
    if args.json:
        if stats is not None:
            # One machine-readable document: results plus the unified
            # telemetry snapshot (docs/OBSERVABILITY.md).
            document = {"results": json.loads(_check_json(results)),
                        "stats": stats_document(check=stats)}
            print(json.dumps(document, indent=2))
        else:
            print(_check_json(results))
    else:
        for result in results:
            # The source in hand enables GHC-style caret snippets under
            # span-carrying diagnostics.
            print(result.pretty(source=source_of.get(result.filename)))
        if stats is not None:
            _print_stats_text(sys.stdout, stats)
    return 0 if all(result.ok for result in results) else 1


def _cmd_build(args: argparse.Namespace) -> int:
    from .driver.batch import CheckStats
    from .driver.project import check_project, discover_sources, run_project

    try:
        sources = discover_sources(args.paths)
    except OSError as exc:
        raise _CliError(f"cannot read {exc.filename or '?'}: "
                        f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot decode project source: {exc}") from exc
    if not sources:
        raise _CliError("no .lev files found under "
                        + ", ".join(args.paths))
    stats = CheckStats() if args.stats else None
    run_result = None
    with Session(_options(args)) as session:
        check = check_project(sources, cache=args.cache, session=session,
                              stats=stats)
        if args.run and check.ok:
            run_result = run_project(session, check, entry=args.entry,
                                     cache=args.cache)

    source_of = dict(sources)
    if args.json:
        document = {
            "ok": check.ok,
            "modules": [
                {"file": node.filename, "module": node.name,
                 "level": node.level,
                 "imports": list(node.import_names)}
                for node in check.plan.nodes],
            "results": json.loads(_check_json(check.results)),
        }
        if run_result is not None:
            document["run"] = _run_json(run_result)
        if stats is not None:
            document["stats"] = stats_document(check=stats)
        print(json.dumps(document, indent=2))
    else:
        for result in check.results:
            text = result.pretty(source=source_of.get(result.filename))
            if text.strip():
                print(text)
        checkable = sum(len(level) for level in check.plan.levels)
        print(f"build: {len(sources)} module(s), "
              f"{len(check.plan.levels)} level(s), "
              f"{checkable} checked, "
              f"{len(check.plan.graph_diagnostics)} skipped")
        if run_result is not None:
            print(run_result.pretty())
        if stats is not None:
            _print_stats_text(sys.stdout, stats)
    ok = check.ok and (run_result is None or run_result.ok)
    return 0 if ok else 1


def _run_json(result) -> dict:
    payload = {
        "file": result.check.filename,
        "entry": result.entry,
        "ok": result.ok,
        "value": result.value,
        "codegen": {"compiled": result.codegen_compiled,
                    "cached": result.codegen_cached},
        "costs": result.costs,
        "diagnostics": [
            {"severity": d.severity, "stage": d.stage, "message": d.message,
             "binding": d.binding}
            for d in result.diagnostics],
    }
    if result.machine_value is not None:
        payload["machine"] = {"value": result.machine_value,
                              "steps": result.machine_steps,
                              "agrees": result.machine_agrees}
    return payload


def _cmd_run(args: argparse.Namespace) -> int:
    ok = True
    payloads = []
    with Session(_options(args)) as session:
        for path in args.files:
            result = session.run(_read_source(path), path, entry=args.entry,
                                 cache=args.cache)
            if args.json:
                payloads.append(_run_json(result))
            else:
                print(result.pretty())
            ok = ok and result.ok
    if args.json:
        if args.stats:
            print(json.dumps({"results": payloads,
                              "stats": stats_document()}, indent=2))
        else:
            print(json.dumps(payloads, indent=2))
    elif args.stats:
        _print_stats_text(sys.stdout)
    return 0 if ok else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    with Session(_options(args)) as session:
        result = session.compile(_read_source(args.file), args.file,
                                 entry=args.entry)
    print(result.pretty())
    if args.stats:
        _print_stats_text(sys.stdout)
    return 0 if result.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import validate_paths

    if args.align_steps < 0:
        raise _CliError("--align-steps must be non-negative")
    try:
        with Session(_options(args)) as session:
            reports = validate_paths(args.paths, session, entry=args.entry,
                                     align_steps=args.align_steps)
    except OSError as exc:
        raise _CliError(f"cannot read {exc.filename or '?'}: "
                        f"{exc.strerror or exc}") from exc
    if args.json:
        print(json.dumps([report.as_dict() for report in reports],
                         indent=2))
    else:
        for report in reports:
            print(report.pretty())
        engaged = sum(1 for report in reports if report.engaged)
        diverged = sum(1 for report in reports
                       if report.engaged and not report.ok)
        print(f"validate: {len(reports)} input(s), {engaged} engaged, "
              f"{diverged} divergence(s)")
    # Skips (out-of-fragment entries) are informational; only a genuine
    # divergence is a failure.
    return 1 if any(report.engaged and not report.ok
                    for report in reports) else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        DifferentialHarness,
        GenOptions,
        generate_corpus,
        save_counterexample,
        shrink_counterexample,
    )

    if args.count <= 0:
        raise _CliError("--count must be positive")
    if args.max_bindings <= 0:
        raise _CliError("--max-bindings must be positive")
    if args.depth < 0:
        raise _CliError("--depth must be non-negative")
    if not 0.0 <= args.fragment_bias <= 1.0:
        raise _CliError("--fragment-bias must be between 0 and 1")
    gen_options = GenOptions(depth=args.depth,
                             max_bindings=args.max_bindings,
                             fragment_bias=args.fragment_bias)
    programs = generate_corpus(args.seed, args.count, gen_options)
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for program in programs:
            path = os.path.join(args.emit, program.filename)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(program.source)
        print(f"emitted {len(programs)} program(s) to {args.emit}")
    if not args.check:
        fragment = sum(1 for p in programs if p.fragment)
        total = sum(len(p.source) for p in programs)
        print(f"generated {len(programs)} program(s) "
              f"({fragment} in the L fragment, {total} bytes); "
              "pass --check to run the differential harness")
        return 0

    with Session(_options(args)) as session:
        harness = DifferentialHarness(session)
        report = harness.run_corpus(programs)
        print(report.pretty())
        if report.failures and args.save_shrunk:
            first = report.failures[0]

            def still_fails(candidate) -> bool:
                return any(failure.oracle == first.oracle
                           for failure in harness.check_program(candidate))

            shrunk = shrink_counterexample(still_fails, gen_options)
            if shrunk is not None:
                path = save_counterexample(shrunk, args.save_shrunk,
                                           first.oracle)
                print(f"shrunk {first.oracle!r} reproducer saved to {path}")
            else:
                print("no shrunk reproducer found within the search budget")
    return 0 if report.ok else 1


def _parse_age(text: str) -> float:
    """An age in seconds from ``"30d"``/``"12h"``/``"90m"``/``"3600"``."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("d"):
        scale, text = 24 * 3600.0, text[:-1]
    elif text.endswith("h"):
        scale, text = 3600.0, text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise _CliError(
            f"invalid --max-age {text!r} (expected e.g. 30d, 12h, 90m, "
            "or seconds)") from None
    if value < 0:
        raise _CliError("--max-age must be non-negative")
    return value * scale


def _cache_payload_validator():
    """One ``validator(key, payload)`` covering every key namespace."""
    from .driver.batch import (
        _codegen_payload_valid,
        _exports_payload_valid,
        _file_payload_valid,
        _outline_payload_valid,
        _unit_payload_valid,
    )
    from .driver.store import table_of

    validators = {
        "unit": _unit_payload_valid,
        "pfile": _file_payload_valid,
        "outline": _outline_payload_valid,
        "exports": _exports_payload_valid,
        "codegen": _codegen_payload_valid,
    }

    def validate(key: str, payload) -> bool:
        if not isinstance(payload, dict):
            return False
        checker = validators.get(table_of(key))
        return True if checker is None else checker(payload)

    return validate


def _cmd_cache(args: argparse.Namespace) -> int:
    from .driver.store import CacheStore

    if os.path.isfile(args.path):
        raise _CliError(f"{args.path} is a file, not a cache directory")
    if not os.path.isdir(args.path):
        raise _CliError(f"no cache directory at {args.path}")
    store = CacheStore(args.path)
    if args.action == "stats":
        document = store.stats()
        if args.json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(f"cache {document['root']} (schema {document['schema']}): "
                  f"{document['entries']} entries, "
                  f"{document['bytes']} bytes")
            for table, row in sorted(document["tables"].items()):
                print(f"  {table}: {row['entries']} entries, "
                      f"{row['bytes']} payload bytes")
        return 0
    if args.action == "verify":
        problems = store.verify(_cache_payload_validator())
        if args.json:
            print(json.dumps({"ok": not problems, "problems": problems},
                             indent=2))
        else:
            for problem in problems:
                print(problem)
            print(f"verify: {'ok' if not problems else 'FAILED'} "
                  f"({len(problems)} problem(s))")
        return 0 if not problems else 1
    if args.action == "gc":
        if args.max_age is None:
            raise _CliError("gc requires --max-age (e.g. --max-age 30d)")
        kept, dropped = store.gc(_parse_age(args.max_age))
        if args.json:
            print(json.dumps({"kept": kept, "dropped": dropped}))
        else:
            print(f"gc: kept {kept} entr(ies), dropped {dropped}")
        return 0
    assert args.action == "compact"
    document = store.compact()
    if args.json:
        print(json.dumps(document))
    else:
        print(f"compact: {document['bytes_before']} -> "
              f"{document['bytes_after']} bytes")
    return 0


def _open_cache(path: str) -> None:
    """Refuse an unusable ``--cache`` path before any checking: opening
    the store creates its directory, which fails when the path is, or
    lies under, a regular file, and opens its database, which fails when
    SQLite cannot use it."""
    from .driver.store import CacheStore

    try:
        CacheStore(path).close()
    except (OSError, StoreError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _CliError(f"cannot use {path} as a cache directory "
                        f"({reason})") from exc


def _cmd_repl(args: argparse.Namespace) -> int:
    session = Session(_options(args))
    interactive = sys.stdin.isatty()
    if interactive:
        print("repro repl — :t expr for types, :q to quit")
    while True:
        if interactive:
            sys.stdout.write("lev> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            break
        stripped = line.strip()
        if stripped in (":q", ":quit"):
            break
        output = session.repl_input(line)
        if output:
            print(output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Drive .lev surface programs through the levity-"
                    "polymorphism pipeline (parse, infer, levity-check, "
                    "compile, run).")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check files")
    check.add_argument("files", nargs="+", help=".lev source files")
    check.add_argument("--explicit-reps", action="store_true",
                       help="print schemes with -fprint-explicit-runtime-reps")
    check.add_argument("--no-levity-check", action="store_true",
                       help="skip the Section 5.1 levity post-pass (ablation)")
    check.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    check.add_argument("--cache", default=None, metavar="PATH",
                       help="incremental result cache keyed per binding "
                            "(source slice + dependency schemes; see "
                            "docs/INCREMENTAL.md)")
    check.add_argument("--stats", action="store_true",
                       help="print per-binding check timings, cache "
                            "hit/miss counts, and the unified telemetry "
                            "counters")
    check.add_argument("--trace", default=None, metavar="PATH",
                       help="write pipeline spans as Chrome trace-event "
                            "JSON, loadable in Perfetto")
    check.set_defaults(func=_cmd_check)

    build = sub.add_parser(
        "build", help="check a multi-module project (module/import files; "
                      "see docs/PROJECTS.md)")
    build.add_argument("paths", nargs="+",
                       help="project directories (walked recursively for "
                            ".lev files) and/or individual .lev files")
    build.add_argument("--run", action="store_true",
                       help="after a clean build, evaluate --entry over the "
                            "merged project")
    build.add_argument("--entry", default="main",
                       help="entry binding for --run (default: main)")
    build.add_argument("--compiled", action="store_true",
                       help="with --run: evaluate through the closure-"
                            "compilation backend")
    build.add_argument("--explicit-reps", action="store_true",
                       help="print schemes with -fprint-explicit-runtime-reps")
    build.add_argument("--no-levity-check", action="store_true",
                       help="skip the Section 5.1 levity post-pass (ablation)")
    build.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON document "
                            "(module graph, per-file results, stats)")
    build.add_argument("--cache", default=None, metavar="PATH",
                       help="cross-module incremental cache: unit keys fold "
                            "in imported schemes, so a body-only edit "
                            "re-checks one unit and no dependent module "
                            "re-parses (docs/PROJECTS.md)")
    build.add_argument("--stats", action="store_true",
                       help="print unit/cache counters and the unified "
                            "telemetry metrics")
    build.add_argument("--trace", default=None, metavar="PATH",
                       help="write pipeline spans (project.graph, "
                            "module.resolve, ...) as Chrome trace-event "
                            "JSON")
    build.set_defaults(func=_cmd_build)

    run = sub.add_parser("run", help="check then evaluate an entry point")
    run.add_argument("files", nargs="+", help=".lev source files")
    run.add_argument("--entry", default="main",
                     help="entry binding to evaluate (default: main)")
    run.add_argument("--compiled", action="store_true",
                     help="evaluate through the closure-compilation "
                          "backend (docs/PERF.md) instead of the "
                          "tree-walker")
    run.add_argument("--cache", default=None, metavar="PATH",
                     help="with --compiled: per-binding codegen cache "
                          "(shares the check cache directory); a warm run "
                          "reports zero functions compiled")
    run.add_argument("--explicit-reps", action="store_true")
    run.add_argument("--no-levity-check", action="store_true")
    run.add_argument("--stats", action="store_true",
                     help="report the unified telemetry counters (solver, "
                          "codegen, compiled runtime, cost model)")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON (with --stats, one "
                          "document carrying results and counters)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write pipeline spans as Chrome trace-event JSON")
    run.set_defaults(func=_cmd_run)

    compile_ = sub.add_parser(
        "compile", help="lower the entry to L, compile to M, run the machine")
    compile_.add_argument("file", help=".lev source file")
    compile_.add_argument("--entry", default="main")
    compile_.add_argument("--explicit-reps", action="store_true")
    compile_.add_argument("--stats", action="store_true",
                          help="report the unified telemetry counters")
    compile_.add_argument("--trace", default=None, metavar="PATH",
                          help="write pipeline spans as Chrome trace-event "
                               "JSON")
    compile_.set_defaults(func=_cmd_compile)

    validate = sub.add_parser(
        "validate",
        help="translation-validate entries: per-step joinability discharge "
             "of the Simulation obligations (docs/VALIDATION.md)")
    validate.add_argument("paths", nargs="+",
                          help=".lev files and/or project directories")
    validate.add_argument("--entry", default="main",
                          help="entry binding to validate (default: main)")
    validate.add_argument("--align-steps", type=int, default=64,
                          metavar="N",
                          help="per-program cap on discharged per-step "
                               "obligations; the end-to-end answer "
                               "comparison is never capped (default: 64)")
    validate.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON reports")
    validate.add_argument("--explicit-reps", action="store_true")
    validate.add_argument("--no-levity-check", action="store_true")
    validate.set_defaults(func=_cmd_validate)

    cache = sub.add_parser(
        "cache", help="maintain a result-cache directory, one SQLite "
                      "database (stats / verify / gc / compact)")
    cache.add_argument("action", choices=["stats", "verify", "gc",
                                          "compact"],
                       help="stats: entry/byte counts per key namespace; "
                            "verify: SQLite integrity + payload-shape check "
                            "(exit 1 on problems); gc: drop entries older "
                            "than --max-age; compact: vacuum the database")
    cache.add_argument("path", help="the cache directory (a --cache PATH)")
    cache.add_argument("--max-age", default=None, metavar="AGE",
                       help="for gc: maximum entry age — 30d, 12h, 90m, "
                            "or plain seconds")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    cache.set_defaults(func=_cmd_cache)

    repl = sub.add_parser("repl", help="interactive read-eval-print loop")
    repl.add_argument("--explicit-reps", action="store_true")
    repl.add_argument("--compiled", action="store_true",
                      help="evaluate expressions through the closure-"
                           "compilation backend")
    repl.set_defaults(func=_cmd_repl)

    fuzz = sub.add_parser(
        "fuzz", help="generate random well-typed programs and "
                     "differentially check them (see docs/FUZZ.md)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="corpus seed (program i depends only on "
                           "(seed, i); default: 0)")
    fuzz.add_argument("--count", type=int, default=100, metavar="N",
                      help="number of programs to generate (default: 100)")
    fuzz.add_argument("--depth", type=int, default=4,
                      help="maximum expression depth (default: 4)")
    fuzz.add_argument("--max-bindings", type=int, default=4, metavar="N",
                      help="maximum helper bindings per program (default: 4)")
    fuzz.add_argument("--fragment-bias", type=float, default=0.3,
                      metavar="P",
                      help="share of programs generated inside the "
                           "compilable L fragment (default: 0.3)")
    fuzz.add_argument("--check", action="store_true",
                      help="run the differential harness (type-check, "
                           "round-trip, evaluator vs reference vs M machine)")
    fuzz.add_argument("--emit", default=None, metavar="DIR",
                      help="write the corpus as .lev files usable by "
                           "'repro check'")
    fuzz.add_argument("--save-shrunk", default=None, metavar="DIR",
                      help="on failure, save a hypothesis-shrunk minimal "
                           ".lev reproducer under DIR")
    fuzz.add_argument("--explicit-reps", action="store_true")
    fuzz.add_argument("--no-levity-check", action="store_true")
    fuzz.add_argument("--compiled", action="store_true",
                      help="run the evaluator oracle through the closure-"
                           "compilation backend")
    fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace", None) or env_trace_path()
    if trace_out:
        TRACER.enable()
    if getattr(args, "stats", False):
        # Switch on the hot-path runtime counters too (fold-point
        # counters publish regardless).
        REGISTRY.enable()
    try:
        if getattr(args, "cache", None) is not None:
            _open_cache(args.cache)
        code = args.func(args)
        if trace_out:
            TRACER.write(trace_out)
        return code
    except (_CliError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `| head`); exit quietly without
        # tripping the interpreter's flush-at-exit traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
