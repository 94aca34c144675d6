"""Elementary group gradings on incidence algebras of finite posets.

Exact construction and arithmetic of the incidence algebra over the
rationals, decomposition of its automorphisms, enumeration and
classification of elementary gradings, and multilinear graded polynomial
identity slices with the maximal-chain reduction check.

The public names are loaded on first use (PEP 562), so importing the
package, or one of its modules such as `incgrade.cli`, loads no module
it does not need.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "IncgradeError": "errors",
    **dict.fromkeys((
        "Poset", "poset_from_json", "poset_to_json",
        "segment", "subposet", "maximal_chains", "connected_components",
        "bound", "automorphisms", "is_chain_transitive"), "poset"),
    **dict.fromkeys((
        "IncidenceFunction", "AlgebraMorphism", "e_basis", "delta", "zeta",
        "convolve", "hadamard", "invert", "is_multiplicative", "inner_auto",
        "mult_auto", "induced_auto", "decompose_automorphism", "evaluate"),
        "algebra"),
    **dict.fromkeys((
        "FiniteGroup", "GradingMap", "EquivalenceWitness", "group_from_spec",
        "equivalent", "count_distinct_gradings", "classify_gradings",
        "burnside_class_count"), "grading"),
    **dict.fromkeys((
        "identity_slice", "slices_equal_upto", "verify_chain_reduction",
        "monomial_identities", "chain_transitivity_identity_check"),
        "identities"),
    **dict.fromkeys(("FIXTURE_NAMES", "load_poset", "corpus_posets"),
                    "corpus"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
