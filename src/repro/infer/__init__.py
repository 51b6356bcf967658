"""Type, kind and representation inference for the surface language (Section 5.2)."""

from .defaulting import GeneralisationResult, default_rep_uvars, generalise
from .infer import (
    BindingResult,
    InferOptions,
    Inferencer,
    infer_binding,
    infer_expr,
)
from .levity_check import (
    LevityCheckReport,
    LevityRecord,
    check_records,
    kind_of_zonked,
)
from .schemes import Scheme, TypeEnv
from .unify import UnifierState

__all__ = [name for name in dir() if not name.startswith("_")]
