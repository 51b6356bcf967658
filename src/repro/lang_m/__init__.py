"""The machine language **M**: ANF with an explicit stack and heap (Section 6.2).

Modules:

* :mod:`repro.lang_m.syntax` — the grammar of Figure 5 (two variable sorts,
  ANF applications, lazy ``let`` and strict ``let!``);
* :mod:`repro.lang_m.machine` — machine states ⟨t; S; H⟩ and the transition
  rules of Figure 6, with cost counters;
* :mod:`repro.lang_m.joinability` — the joinability relation used by the
  Simulation theorem, decided by a common reduct where the runs meet.
"""

from .joinability import JoinReport, RunTable, joinable
from .machine import (
    AppLitFrame,
    AppVarFrame,
    CaseFrame,
    CaseLitFrame,
    ForceFrame,
    Frame,
    LetFrame,
    Machine,
    MachineCosts,
    MachineResult,
    MachineState,
    PrimFrame,
    run,
)
from .syntax import (
    M_ERROR,
    MAppLit,
    MAppVar,
    MCase,
    MCaseLit,
    MConLit,
    MConVar,
    MError,
    MExpr,
    MFix,
    MLam,
    MLet,
    MLetStrict,
    MLit,
    MPrimOp,
    MVar,
    MVarRef,
    VarSort,
    fresh_integer_var,
    fresh_pointer_var,
)

__all__ = [name for name in dir() if not name.startswith("_")]
