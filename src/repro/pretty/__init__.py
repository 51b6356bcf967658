"""Pretty-printing of types, kinds and schemes with LiftedRep defaulting."""

from .printer import (
    PrinterOptions,
    default_reps_for_display,
    render_scheme,
    render_type,
)

__all__ = [
    "PrinterOptions",
    "default_reps_for_display",
    "render_scheme",
    "render_type",
]
