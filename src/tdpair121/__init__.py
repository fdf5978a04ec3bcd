"""Exact-arithmetic tridiagonal pairs of shape (1,2,1).

Construct, verify and analyze tridiagonal pairs on a 4-dimensional space
over the rationals or a prime field: parameter arrays, admissibility, the
canonical construction, six bases, representation and transition matrices,
and the dihedral family of relatives.  All arithmetic is exact and every
check is zero-tolerance.

Names load on first use (PEP 562): `import tdpair121` runs no submodule,
and the first read of a public name, or of a submodule such as
`tdpair121.linalg`, imports the submodule that defines it and binds the
name here, so later reads are plain attribute lookups.  The CLI, which
reads no name of the package, thus loads only what its subcommand runs.
"""

from importlib import import_module as _import_module

# the submodule that defines each public name
_PUBLIC = {
    "bases": (
        "BasisId",
        "EtaVectors",
        "basis_matrix",
        "canonical_seed",
        "eta_vectors",
        "represent",
        "represent_formula",
        "transition_formula",
        "transition_numeric",
    ),
    "fields": ("Field", "FieldElement", "QQ", "field_arith", "parse_element"),
    "linalg": (
        "EigenData",
        "Matrix",
        "SingularMatrixError",
        "Subspace",
        "charpoly",
        "eigen_data",
        "poly_roots",
        "primitive_idempotents",
        "subspace_combine",
        "subspace_intersection",
        "subspace_sum",
    ),
    "params": (
        "AdmissibilityReport",
        "D4Word",
        "DerivedParams",
        "FLIP_DUAL",
        "FLIP_PRIMARY",
        "ParameterArray",
        "SWAP",
        "admissible",
        "canonical_matrices",
        "construct",
        "derived_params",
        "derived_of_relative_consistency",
        "extract_parameter_array",
        "relative",
    ),
    "tdsystem": (
        "Decomposition",
        "TDSystem",
        "VerificationReport",
        "common_invariant_subspace",
        "find_td_orderings",
        "shape",
        "split_decomposition",
        "verify_split_actions",
        "verify_td_system",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = ("_poly", *_PUBLIC)

__all__ = sorted([*_HOME, *_PUBLIC])
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here as well
    module = _import_module(f"{__name__}.{home or name}")
    if home is None:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
