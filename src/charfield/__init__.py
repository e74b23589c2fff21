"""Exact character tables, character fields, and field multiplicities for
small finite groups.

The pipeline: build a permutation group (cyclic, dihedral, Frobenius,
alternating/symmetric, PSL(2,q), SL(2,q), Sz(8), generators in cycle
notation, direct products), compute its exact character table by the
Dixon-Schneider modular method, bucket the irreducible rows by their
fields of values, and report the largest bucket f(G) together with the
classic class-number bound comparisons.
All arithmetic is exact (cyclotomic integers over Q); nothing is floating
point.
"""

from .chartab import (
    CharacterTable,
    abelian_character_table,
    class_multiplication_coefficients,
    dixon_table,
    exponent,
    validate_table,
)
from .cyclo import (
    Cyclo,
    conjugate,
    count_subfields,
    degree_over_Q,
    galois,
    omega_degree,
    root_of_unity,
)
from .fov import (
    FieldLabel,
    FReport,
    bounds_report,
    degree_bound_check,
    f_value,
    field_of_values,
    monotonicity_check,
    rational_count,
)
from .gf import field
from .perm import (
    ClassData,
    PermGroup,
    Permutation,
    Subgroup,
    conjugacy_classes,
    derived_subgroup,
    element_order_spectrum,
    enumerate_group,
    power_map,
    quotient_group,
)
from .verify import run_suite
from .zoo import GroupSpec, build, parse_spec

__version__ = "0.1.0"

__all__ = [
    "CharacterTable", "ClassData", "Cyclo", "FieldLabel", "FReport",
    "GroupSpec", "PermGroup", "Permutation", "Subgroup",
    "abelian_character_table", "bounds_report", "build",
    "class_multiplication_coefficients", "conjugacy_classes", "conjugate",
    "count_subfields", "degree_bound_check", "degree_over_Q",
    "derived_subgroup", "dixon_table", "element_order_spectrum",
    "enumerate_group", "exponent", "f_value", "field", "field_of_values",
    "galois", "monotonicity_check", "omega_degree", "parse_spec",
    "power_map", "quotient_group", "rational_count", "root_of_unity",
    "run_suite", "validate_table",
]
