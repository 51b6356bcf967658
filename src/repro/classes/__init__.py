"""Levity-polymorphic type classes compiled via dictionaries (Section 7.3)."""

from .builtin import (
    ABS1_BINDING,
    ABS2_BINDING,
    ABS_SIGNATURE,
    class_prelude_module,
    eq_int_hash_instance,
    eq_int_instance,
    make_eq_class,
    make_num_class,
    num_double_hash_instance,
    num_int_hash_instance,
    num_int_instance,
    standard_class_env,
)
from .declarations import ClassEnv, ClassInfo, InstanceInfo, MethodInfo
from .dictionaries import (
    dictionary_binding,
    dictionary_constructor_name,
    dictionary_data_decl,
    eta_expansion_binds_levity_polymorphic_value,
    method_reference_arity,
    selector_arity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
