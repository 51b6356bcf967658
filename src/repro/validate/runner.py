"""Run the translation validator over files, projects and check results.

This is the glue between :mod:`repro.validate.alignment` (which works on
an already-lowered L term) and the pipeline's surface: ``.lev`` files,
project directories with ``module``/``import`` headers, and in-memory
:class:`~repro.driver.session.CheckResult` values (what the fuzz harness
holds).  ``python -m repro validate`` is a thin shell over
:func:`validate_paths`.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from .alignment import ValidationReport, validate_term

__all__ = ["validate_check", "validate_paths"]


def validate_check(session, check, entry: str = "main",
                   align_steps: int = 64) -> ValidationReport:
    """Validate one already-checked module's entry point.

    A module that fails to check, or whose entry does not lower (its
    types leave the L fragment), produces a *skipped* report — the caller
    distinguishes "could not validate" from "validated and diverged" via
    ``report.engaged``.  ``session`` is the one that checked ``check``;
    the validator itself needs nothing from it.
    """
    from ..driver.lower import LoweringError, lower_checked

    if not check.ok:
        report = ValidationReport(filename=check.filename, entry=entry)
        report.engaged = False
        report.reason = "module did not type-check"
        return report
    try:
        term = lower_checked(check, entry)
    except LoweringError as exc:
        report = ValidationReport(filename=check.filename, entry=entry)
        report.engaged = False
        report.reason = f"out of the L fragment: {exc}"
        return report
    return validate_term(term, filename=check.filename, entry=entry,
                         align_steps=align_steps)


def validate_paths(paths: Sequence[str], options=None,
                   entry: str = "main",
                   align_steps: int = 64) -> List[ValidationReport]:
    """Validate ``.lev`` files and/or project directories.

    Directories are treated as multi-module projects (checked through the
    module DAG, then validated over the merged project); plain files are
    single modules.  One report per input path, in order.
    """
    from ..driver import Session
    from ..driver.project import (
        check_project,
        discover_sources,
        merged_check,
    )

    session = Session(options)
    reports: List[ValidationReport] = []
    for path in paths:
        if os.path.isdir(path):
            sources = discover_sources([path])
            if not sources:
                report = ValidationReport(filename=path, entry=entry)
                report.engaged = False
                report.reason = "no .lev files found"
                reports.append(report)
                continue
            project = check_project(sources, session=session)
            merged = merged_check(project, session.pipeline)
            if merged is None:
                report = ValidationReport(filename=path, entry=entry)
                report.engaged = False
                report.reason = "project did not build"
                reports.append(report)
                continue
            merged.filename = path
            reports.append(validate_check(session, merged, entry=entry,
                                          align_steps=align_steps))
        else:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            check = session.check(source, path)
            reports.append(validate_check(session, check, entry=entry,
                                          align_steps=align_steps))
    return reports
