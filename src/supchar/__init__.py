"""Supercharacter theories for groups of invertible elements of reduced
finite-dimensional algebras over finite fields, with a fully worked
specialization to the triangular group T(n, F_q)."""

from .cyclo import CycloNumber, cyclotomic_poly
from .fields import FieldSpec, field_make, field_make_custom
from .algebra import (
    AlgebraSpec,
    Block,
    load_algebra,
    load_algebra_file,
    orbit_census,
    validate_algebra,
)
from .superclasses import (
    SuperclassLabel,
    SuperclassRecord,
    predicted_count,
    superclass_partition,
)
from .supercharacters import (
    CharacterTable,
    SupercharLabel,
    axioms_report,
    build_table,
    enumerate_labels,
    inner_products,
)
from .triangular import (
    BasicSubset,
    Root,
    TriSuperclassLabel,
    TriSupercharLabel,
    basic_subsets,
    compare_tables,
    make_triangular,
    table,
)

__all__ = [
    "AlgebraSpec", "BasicSubset", "Block", "CharacterTable", "CycloNumber",
    "FieldSpec", "Root", "SupercharLabel", "SuperclassLabel",
    "SuperclassRecord", "TriSuperclassLabel", "TriSupercharLabel",
    "axioms_report", "basic_subsets", "build_table", "compare_tables",
    "cyclotomic_poly", "enumerate_labels", "field_make", "field_make_custom",
    "inner_products", "load_algebra", "load_algebra_file", "make_triangular",
    "orbit_census", "predicted_count", "superclass_partition", "table",
    "validate_algebra",
]

__version__ = "0.1.0"
