"""The legacy OpenKind sub-kinding baseline (Sections 3.2-3.3)."""

from .checker import (
    LEGACY_DOLLAR,
    LEGACY_ERROR,
    LEGACY_UNDEFINED,
    LegacySignature,
    describe_error_message,
    legacy_infer_wrapper_kind,
    legacy_instantiation_ok,
    legacy_restrictions,
)
from .kinds import (
    HASH,
    LegacyKind,
    OPEN_KIND,
    STAR,
    hash_kind_loses_calling_convention,
    is_subkind_of,
    legacy_kind_of,
    unify_legacy_kinds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
