"""The Section 8.1 survey of GHC's base/ghc-prim classes and functions."""

from .analysis import (
    ClassSurvey,
    ClassVerdict,
    FunctionSurvey,
    analyse_class,
    survey_classes,
    survey_functions,
)
from .classes_db import CLASSES, ClassEntry, MethodEntry, corpus_by_name
from .functions_db import (
    COMPOSE_NOT_YET_GENERALISED,
    LEVITY_GENERALISED_FUNCTIONS,
    FunctionEntry,
)

__all__ = [name for name in dir() if not name.startswith("_")]
