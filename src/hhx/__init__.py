"""Higher-order Hochschild cohomology of commutative algebras over pointed
simplicial sets, with exact linear algebra throughout.

The workflow mirrors the CLI: build or parse a space, take its sweep
closure to learn the admissible coefficient classes, supply an algebra and
a class-keyed multi-module, then assemble the cosimplicial vector space and
read off cohomology dimensions.

The namespace is lazy: `import hhx` loads no submodule, and each public
name (or submodule) imports the module that defines it on first access, so
a process that only checks a space never loads the linear algebra.
"""

__version__ = "0.1.0"

# each public name under the module that defines it
_PUBLIC = {
    "actions": ("ActionPartition", "ActionSlot", "enumerate_slots",
                "paranoid_closure", "sweep_closure"),
    "coeffalg": ("Algebra", "MultiModule", "multiplication_module",
                 "parse_algebra", "parse_module", "validate_algebra",
                 "validate_module"),
    "cochain": ("CochainSetup",),
    "errors": ("BudgetError", "DEFAULT_BUDGET", "FormatError",
               "InternalError", "ValidationError"),
    "exactlinalg": ("Field", "Matrix", "PrimeField", "QQ", "field_from_json",
                    "field_from_text"),
    "extras": ("classical_hochschild_dims", "endomorphism_module"),
    "simplicial": ("Generator", "Simplex", "SimplicialSpace", "builtin_space",
                   "parse_space", "validate_space"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = name if name in _PUBLIC else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports (it does not
    # report importlib.import_module); it binds the submodule here
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
