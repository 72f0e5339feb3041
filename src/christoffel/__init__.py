"""Exact tools for Christoffel words, Burrows-Wheeler matrix groups,
discrete interval exchanges and Sturmian determinantal vectors."""

from .bwgroup import (
    ChristoffelParams,
    GroupTriple,
    bw_matrix,
    christoffel_matrix,
    consecutive_rows_square,
    det_closed,
    from_triple,
    group_identity,
    group_inverse,
    group_mul,
    params,
    to_triple,
)
from .contfrac import (
    ContinuedFraction,
    cf_density_from_slope,
    cf_slope_from_density,
    christoffel_length,
    continuant,
    density_from_slope,
    p_matrix,
    p_product,
    ppp_factorization,
    semiconvergents,
    slope_from_density,
    stern_brocot_nodes,
    stern_brocot_path,
)
from .errors import ChristoffelError
from .fibonacci import (
    fib,
    fib_detvec_prediction,
    fib_sign,
    fib_word_chain,
    gcd_lemma_check,
    lucas,
)
from .iet import (
    Composition,
    IetPermutation,
    build_sigma,
    cycle_encodings,
    cyclic_restriction,
    enumerate_pc_words,
    is_circular,
    pak_redlich_circular,
    restriction_word_chain,
    standard_encoding,
    two_interval_circular,
)
from .numeric import ExactMatrix, FieldScalar, det_exact, det_int, mat_mul
from .permsign import Permutation, cycle_type_string, jacobi, zolotareff
from .sturmian import (
    DeterminantalVector,
    FactorMatrix,
    SturmianSlope,
    christoffel_chain,
    determinantal_vector,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    factor_matrix,
    g_chain,
    special_factor_determinant,
    vector_merge_step,
)
from .words import (
    SlopeRatio,
    Word,
    bw_rows,
    christoffel_bw_row,
    circular_factors,
    conjugates,
    is_christoffel,
    is_lyndon,
    is_palindrome,
    is_perfectly_clustering,
    is_primitive,
    lower_christoffel,
    lyndon_words,
    palindromic_factorization,
    reversal,
    standard_factorization,
    upper_christoffel,
)

__version__ = "0.1.0"
