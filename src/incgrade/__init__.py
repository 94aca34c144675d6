"""Elementary group gradings on incidence algebras of finite posets.

Exact construction and arithmetic of the incidence algebra over the
rationals, decomposition of its automorphisms, enumeration and
classification of elementary gradings, and multilinear graded polynomial
identity slices with the maximal-chain reduction check.
"""

__version__ = "0.1.0"

from .errors import IncgradeError
from .poset import (
    Poset,
    poset_from_covers,
    poset_from_json,
    poset_to_json,
    segment,
    subposet,
    maximal_chains,
    connected_components,
    bound,
    automorphisms,
    is_chain_transitive,
)
from .algebra import (
    IncidenceFunction,
    AlgebraMorphism,
    e_basis,
    delta,
    zeta,
    convolve,
    hadamard,
    invert,
    is_multiplicative,
    inner_auto,
    mult_auto,
    induced_auto,
    decompose_automorphism,
)
from .grading import (
    FiniteGroup,
    GradingMap,
    EquivalenceWitness,
    group_from_spec,
    equivalent,
    count_distinct_gradings,
    classify_gradings,
    burnside_class_count,
)
from .identities import (
    MultilinearPolynomial,
    IdentitySlice,
    evaluate,
    identity_slice,
    slices_equal_upto,
    verify_chain_reduction,
    monomial_identities,
    chain_transitivity_identity_check,
)
from .corpus import FIXTURE_NAMES, load_poset, corpus_posets

__all__ = [
    "IncgradeError",
    "Poset",
    "poset_from_covers",
    "poset_from_json",
    "poset_to_json",
    "segment",
    "subposet",
    "maximal_chains",
    "connected_components",
    "bound",
    "automorphisms",
    "is_chain_transitive",
    "IncidenceFunction",
    "AlgebraMorphism",
    "e_basis",
    "delta",
    "zeta",
    "convolve",
    "hadamard",
    "invert",
    "is_multiplicative",
    "inner_auto",
    "mult_auto",
    "induced_auto",
    "decompose_automorphism",
    "FiniteGroup",
    "GradingMap",
    "EquivalenceWitness",
    "group_from_spec",
    "equivalent",
    "count_distinct_gradings",
    "classify_gradings",
    "burnside_class_count",
    "MultilinearPolynomial",
    "IdentitySlice",
    "evaluate",
    "identity_slice",
    "slices_equal_upto",
    "verify_chain_reduction",
    "monomial_identities",
    "chain_transitivity_identity_check",
    "FIXTURE_NAMES",
    "load_poset",
    "corpus_posets",
]
