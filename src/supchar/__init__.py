"""Supercharacter theories for groups of invertible elements of reduced
finite-dimensional algebras over finite fields, with a fully worked
specialization to the triangular group T(n, F_q).

The names below load lazily (PEP 562): `import supchar` loads no layer, and
each name imports its home module on first use."""

_HOMES = {
    "cyclo": ("CycloNumber", "cyclotomic_poly"),
    "fields": ("FieldSpec", "field_make", "field_make_custom"),
    "algebra": ("AlgebraSpec", "Block", "load_algebra", "load_algebra_file",
                "orbit_census", "validate_algebra"),
    "superclasses": ("SuperclassLabel", "SuperclassRecord", "predicted_count",
                     "superclass_partition"),
    "supercharacters": ("CharacterTable", "SupercharLabel", "axioms_report",
                        "build_table", "enumerate_labels", "inner_products"),
    "triangular": ("BasicSubset", "Root", "TriSuperclassLabel", "TriSupercharLabel",
                   "basic_subsets", "compare_tables", "make_triangular", "table"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
