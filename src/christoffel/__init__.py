"""Exact tools for Christoffel words, Burrows-Wheeler matrix groups,
discrete interval exchanges and Sturmian determinantal vectors.

The public names load lazily (PEP 562): ``import christoffel`` imports no
submodule, and the first use of a name imports the module that defines
it, so a command pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# Submodule -> the public names it defines.
_EXPORTS = {
    "bwgroup": ("ChristoffelParams", "GroupTriple", "bw_matrix", "christoffel_matrix",
                "consecutive_rows_square", "det_closed", "from_triple", "group_identity",
                "group_inverse", "group_mul", "params", "to_triple"),
    "contfrac": ("ContinuedFraction", "cf_density_from_slope", "cf_slope_from_density",
                 "christoffel_length", "continuant", "p_matrix", "p_product",
                 "ppp_factorization", "semiconvergents", "stern_brocot_nodes",
                 "stern_brocot_path"),
    "errors": ("ChristoffelError",),
    "fibonacci": ("fib", "fib_detvec_prediction", "fib_sign", "fib_word_chain",
                  "gcd_lemma_check", "lucas"),
    "iet": ("Composition", "IetPermutation", "build_sigma", "cyclic_restriction",
            "enumerate_pc_words", "is_circular", "pak_redlich_circular",
            "restriction_word_chain", "standard_encoding", "two_interval_circular"),
    "numeric": ("ExactMatrix", "FieldScalar", "det_exact", "det_int", "mat_mul"),
    "permsign": ("Permutation", "cycle_type_string", "jacobi", "zolotareff"),
    "sturmian": ("DeterminantalVector", "FactorMatrix", "SturmianSlope",
                 "determinantal_vector", "determinantal_vector_closed",
                 "determinantal_vector_oracle", "factor_matrix", "g_chain",
                 "special_factor_determinant", "vector_merge_step"),
    "words": ("SlopeRatio", "Word", "bw_rows", "christoffel_bw_row", "is_christoffel",
              "is_perfectly_clustering", "lower_christoffel", "lyndon_words",
              "palindromic_factorization", "standard_factorization", "upper_christoffel"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
