"""Cyclic-group extended oscillator algebras: realization and verification.

The package realizes the deformed oscillator generators a, a+, N, K, P_mu on
a truncated Fock space, normal-orders symbolic operator words over them, and
cross-checks every published commutation identity of the deformed Virasoro
and higher-spin families against both oracles, reporting quantitative
residuals and fitted constants.
"""

__version__ = "0.1.0"

from .errors import (
    BadLength,
    BadRange,
    CycoscError,
    DimTooSmall,
    EmptyWindow,
    IndexOutOfRealization,
    LambdaMismatch,
    NegativeLevel,
    NegativePower,
    NonPositiveF,
    NotFinite,
    NotHermitian,
    NotReal,
    ParseError,
    PoleInPochhammer,
    SumNotZero,
    UnitarityBound,
    UnknownSymbol,
    WrongLambda,
)
from .expr import parse, to_source
from .fock import (
    Banded,
    FockRep,
    SafeWindow,
    apply_word,
    build_rep,
    dump_matrices,
    safe_window,
    spectrum,
    spectrum_closed_form,
    structure_function,
)
from .identities import IdentityCheck, run_suite, virasoro_sign
from .normal_order import (
    NormalForm,
    beta_closed_form,
    geometric_f,
    nf_add,
    nf_mul,
    nf_scale,
    nf_to_matrix,
    normal_form,
)
from .params import (
    AlgebraParams,
    alpha_from_kappa,
    kappa_from_alpha,
    params_from_json,
    params_from_kappa,
    validate_alpha,
)
from .winf import central_charge, central_term, winf_structure

__all__ = [
    "AlgebraParams",
    "BadLength",
    "BadRange",
    "Banded",
    "CycoscError",
    "DimTooSmall",
    "EmptyWindow",
    "FockRep",
    "IdentityCheck",
    "IndexOutOfRealization",
    "LambdaMismatch",
    "NegativeLevel",
    "NegativePower",
    "NonPositiveF",
    "NormalForm",
    "NotFinite",
    "NotHermitian",
    "NotReal",
    "ParseError",
    "PoleInPochhammer",
    "SafeWindow",
    "SumNotZero",
    "UnitarityBound",
    "UnknownSymbol",
    "WrongLambda",
    "alpha_from_kappa",
    "apply_word",
    "beta_closed_form",
    "build_rep",
    "central_charge",
    "central_term",
    "dump_matrices",
    "geometric_f",
    "kappa_from_alpha",
    "nf_add",
    "nf_mul",
    "nf_scale",
    "nf_to_matrix",
    "normal_form",
    "params_from_json",
    "params_from_kappa",
    "parse",
    "run_suite",
    "safe_window",
    "spectrum",
    "spectrum_closed_form",
    "structure_function",
    "to_source",
    "validate_alpha",
    "virasoro_sign",
    "winf_structure",
]
