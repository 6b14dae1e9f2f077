"""rootcensus: exact root-geometry classification and density censuses
for integer polynomials of bounded height.

The package answers questions of the form "how many integer polynomials
of degree n and height at most H have exactly k roots of maximal
modulus / a dominant root / signature (r, s) / a certified S_n Galois
group / a multiplicative relation among four roots", both for a single
polynomial (exact certified classification) and in bulk (exhaustive
censuses with resumable checkpoints), and it constructs the explicit
coefficient families whose counts witness positive density or the
expected growth exponents.
"""

__version__ = "0.1.0"

from .intpoly import (
    IntPolynomial,
    SquarefreeDecomposition,
    SturmChain,
    coeff_string,
    discriminant,
    parse_coeff_string,
    power_substitution,
    resultant,
    root_product_poly,
    squarefree_decomposition,
    squarefree_part,
    sturm_real_root_count,
    subresultant_gcd,
)
from .roots import (
    CertifiedRootSet,
    RootDisk,
    fujiwara_bound,
    isolate_roots,
    refine,
)
from .classify import (
    FactorizationResult,
    ModulusProfile,
    RootSignature,
    SnCertificate,
    factorize,
    has_multiplicative_relation,
    modulus_profile,
    root_signature,
    sn_certificate,
)
from .census import (
    CensusSpec,
    CounterTable,
    GrowthFit,
    checkpoint_load,
    counter_table_csv,
    density_report,
    fit_growth_exponent,
    run_census,
)
from .generators import (
    PerturbationBounds,
    TargetSpec,
    near_target_family,
    near_target_intervals,
    perturbation_bounds,
    showcase_families,
    sn_filtered_family,
    theorem31_family,
    validate_family,
)
from .acceptance import CriterionResult, run_acceptance

__all__ = [
    "__version__",
    "IntPolynomial",
    "SquarefreeDecomposition",
    "SturmChain",
    "coeff_string",
    "discriminant",
    "parse_coeff_string",
    "power_substitution",
    "resultant",
    "root_product_poly",
    "squarefree_decomposition",
    "squarefree_part",
    "sturm_real_root_count",
    "subresultant_gcd",
    "CertifiedRootSet",
    "RootDisk",
    "fujiwara_bound",
    "isolate_roots",
    "refine",
    "FactorizationResult",
    "ModulusProfile",
    "RootSignature",
    "SnCertificate",
    "factorize",
    "has_multiplicative_relation",
    "modulus_profile",
    "root_signature",
    "sn_certificate",
    "CensusSpec",
    "CounterTable",
    "GrowthFit",
    "checkpoint_load",
    "counter_table_csv",
    "density_report",
    "fit_growth_exponent",
    "run_census",
    "PerturbationBounds",
    "TargetSpec",
    "near_target_family",
    "near_target_intervals",
    "perturbation_bounds",
    "showcase_families",
    "sn_filtered_family",
    "theorem31_family",
    "validate_family",
    "CriterionResult",
    "run_acceptance",
]
