"""Multilinear graded polynomial identities of an elementary grading:
per-multidegree identity slices as exact nullspaces, slice comparison
between gradings, reduction of the whole-poset slice to maximal chains,
monomial identities, and the separation probe for chain-transitive
posets.

A multidegree (g_1, ..., g_m) fixes the degree of each variable; the
multilinear polynomials of that type live in the m!-dimensional span of
the monomials x_{pi(1)} ... x_{pi(m)}, and a polynomial is its vector of
m! coefficients over them in itertools.permutations(range(m)) order.
Substituting basis elements of the matching components is enough to
decide identities, so a slice is the nullspace of a finite 0/1
evaluation matrix. Its distinct rows are collected as bitmasks and handed
to linalg.nullspace as rows of 0/1 ints, which it eliminates
fraction-free into the canonical basis in primitive integer vectors.
That basis is the slice: identity_slice returns it, and slice
comparison and the chain reduction compare and count it.
algebra.evaluate substitutes into a polynomial; this module needs no
algebra arithmetic.

Every nonzero product runs along a multichain, which lies in a maximal
chain, and a chain's evaluation rows depend only on its word of degrees
(chain_words). So gradings with the same maximal-chain words have the
same slice at every multidegree, and slices_equal_upto answers such a
pair without computing a slice.
"""

import functools
import itertools
import math

from .errors import (
    BudgetExceededError,
    MalformedInputError,
    MismatchError,
    NotChainTransitiveError,
)
from .grading import classify_gradings
from .linalg import RationalMatrix, nullspace
from .poset import (_check_budget, _indices, bound, is_chain_transitive,
                    maximal_chains)


def words(alphabet, d):
    """Every tuple over alphabet of length 1..d (an int of at least 0, not
    a bool), shorter ones first, each length in itertools.product order. A
    sweep past MAX_MAPS words is refused at the first length that passes."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise MalformedInputError("a degree must be an integer of at least 0")
    lengths = range(1, d + 1) if alphabet else ()
    for count in itertools.accumulate(len(alphabet) ** m for m in lengths):
        _check_budget(count, "words")
    return itertools.chain.from_iterable(
        itertools.product(alphabet, repeat=m) for m in range(1, d + 1))


def _slice_rows(bases):
    """The distinct evaluation rows for one tuple of per-position basis
    pair lists, as a sorted tuple of bitmasks over the permutations.

    A row belongs to one substitution (a pair per position) and one output
    pair: it has a 1 for each permutation whose product chains from the
    output's left end to its right end. For each permutation, only the
    pair sequences that chain (each pair starts where the previous one
    ended) are walked, so every nonzero entry is visited once.
    """
    m = len(bases)
    starting = [{} for _ in bases]
    for pos, basis in enumerate(bases):
        for pair in basis:
            starting[pos].setdefault(pair[0], []).append(pair)
    rows = {}
    for bit, perm in enumerate(itertools.permutations(range(m))):
        walks = [(pair,) for pair in bases[perm[0]]]
        for pos in perm[1:]:
            nexts = starting[pos]
            walks = [walk + (pair,) for walk in walks
                     for pair in nexts.get(walk[-1][1], ())]
        slots = [perm.index(pos) for pos in range(m)]
        for walk in walks:
            key = (tuple(walk[k] for k in slots), walk[0][0], walk[-1][1])
            rows[key] = rows.get(key, 0) | 1 << bit
    return tuple(sorted(set(rows.values())))


@functools.lru_cache(maxsize=1024)
def _slice_matrix(rows, width):
    """Kernel of a set of 0/1 bitmask rows over width columns. It depends
    on nothing else, so it is memoized on the row set alone and shared by
    every grading, poset and chain whose evaluation rows coincide."""
    return nullspace(RationalMatrix(
        [[mask >> i & 1 for i in range(width)] for mask in rows], width))


def identity_slice(grading, multidegree):
    """All identities of one multidegree: the canonical echelon basis of
    the coefficient vectors (over the lex-ordered monomials) that vanish
    under every substitution, i.e. the nullspace of the evaluation map,
    with each row scaled to primitive integers with a positive leading
    entry. Two slices are equal exactly when these bases are.

    Rows are substitutions (one basis pair per variable) crossed with
    output pairs; columns are the m! monomials. A degree with an empty
    component admits no substitutions, so the slice is the full space.
    """
    multidegree = _indices(multidegree, grading.group.order, "multidegree")
    if not multidegree:
        raise MismatchError("multidegree must have length >= 1")
    components = grading.components()
    bases = tuple(components.get(g, ()) for g in multidegree)
    return _slice_matrix(_slice_rows(bases), math.factorial(len(multidegree)))


def chain_words(grading):
    """The set of words (deg(x_0, x_1), ..., deg(x_{L-1}, x_L)) of the
    maximal chains x_0 < ... < x_L of the poset."""
    t, inverse, theta = grading.group.table, grading.group.inverse, grading.theta
    return {tuple(t[inverse[theta[x]]][theta[y]] for x, y in zip(chain, chain[1:]))
            for chain in maximal_chains(grading.poset)}


def slices_equal_upto(theta, mu, d):
    """Compare all slices of the two gradings up to degree d.

    Returns (True, None) or (False, first differing multidegree). Only
    multidegrees over the union of the two supports matter: any other
    degree has an empty component on both sides, giving equal full slices.
    Gradings with equal chain_words have equal slices at every degree, so
    they are answered without computing one; a poset with more than
    MAX_MAPS maximal chains is searched slice by slice.
    """
    if theta.poset != mu.poset or theta.group != mu.group:
        raise MismatchError("gradings live over different posets or groups")
    alphabet = sorted(set(theta.support()) | set(mu.support()))
    degrees = words(alphabet, d)
    try:
        if chain_words(theta) == chain_words(mu):
            return True, None
    except BudgetExceededError:
        pass
    for multidegree in degrees:
        if (identity_slice(theta, multidegree)
                != identity_slice(mu, multidegree)):
            return False, multidegree
    return True, None


def verify_chain_reduction(grading, multidegree):
    """Check that the whole-poset slice equals the intersection of the
    slices of the grading restricted to each maximal chain.

    A chain's slice is the kernel of the evaluation rows of the pairs
    inside the chain, and ker A ∩ ker B = ker [A; B], so the intersection
    is the kernel of the union of the chains' row sets. It is compared
    with the whole slice as canonical echelon bases, which are equal
    exactly when the spaces are. Returns (equal, report) with the
    dimensions of the whole slice, each chain slice, and the intersection.
    """
    multidegree = _indices(multidegree, grading.group.order, "multidegree")
    whole = identity_slice(grading, multidegree)
    width = whole.ncols
    components = grading.components()
    chain_rows = []
    for chain in maximal_chains(grading.poset):
        members = set(chain)
        chain_rows.append(_slice_rows(tuple(
            tuple(pair for pair in components.get(g, ())
                  if members.issuperset(pair)) for g in multidegree)))
    pieces = [_slice_matrix(rows, width) for rows in chain_rows]
    meet = _slice_matrix(tuple(sorted(set().union(*chain_rows))), width)
    equal = whole == meet
    report = {
        "whole_dimension": whole.nrows,
        "chain_dimensions": [piece.nrows for piece in pieces],
        "intersection_dimension": meet.nrows,
        "equal": equal,
    }
    return equal, report


def monomial_identities(grading, d):
    """All degree tuples (g_1..g_m), m <= d, whose single monomial
    x_1 ... x_m vanishes under every substitution.

    x_1 ... x_m is not an identity exactly when basis pairs can be chained
    left to right through the components, so a reachability sweep decides
    each tuple without building products.
    """
    poset, group = grading.poset, grading.group
    components = grading.components()
    identities = set()
    for word in words(range(group.order), d):
        reach = set(range(poset.n))
        for g in word:
            reach = {v for (u, v) in components.get(g, ()) if u in reach}
            if not reach:
                break
        if not reach:
            identities.add(word)
    return identities


def chain_transitivity_identity_check(poset, group):
    """Probe the separation of inequivalent gradings by monomial
    identities on a chain-transitive poset.

    For every pair of class representatives, compares their monomial
    identity sets up to degree d, the chain-length bound of the poset.
    Pairs whose sets coincide are reported as findings; separation at
    this depth is not guaranteed, so coinciding pairs are reported rather
    than treated as errors. The sweeps, every word of length 1..d over G
    for each class, count against MAX_MAPS before the first one.
    """
    transitive, witness = is_chain_transitive(poset)
    if not transitive:
        i, j = witness
        raise NotChainTransitiveError(
            f"no automorphism maps maximal chain {i} onto {j}")
    d = bound(poset)
    reps = classify_gradings(poset, group)
    _check_budget(len(reps) * sum(group.order ** m for m in range(1, d + 1)),
                  "word sweeps")
    signatures = [frozenset(monomial_identities(rep, d)) for rep in reps]
    unseparated = [(a, b) for (a, sa), (b, sb)
                   in itertools.combinations(zip(reps, signatures), 2) if sa == sb]
    report = {
        "degree": d,
        "classes": len(reps),
        "pairs_checked": len(reps) * (len(reps) - 1) // 2,
        "unseparated": unseparated,
        "separated": not unseparated,
    }
    return report
