"""Shared helpers for the test suite: seeded random algebra elements and
small brute-force oracles kept independent of the library internals."""

import itertools
from fractions import Fraction

from incgrade.algebra import IncidenceFunction
from incgrade.grading import FiniteGroup, GradingMap

SCALARS = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
NONZERO = [v for v in SCALARS if v]


def random_function(rng, poset, density=0.7):
    entries = {}
    for pair in poset.comparable_pairs():
        if rng.random() < density:
            entries[pair] = rng.choice(SCALARS)
    return IncidenceFunction(poset, entries)


def random_invertible(rng, poset, density=0.7):
    entries = {}
    for (x, y) in poset.comparable_pairs():
        if x == y:
            entries[(x, y)] = rng.choice(NONZERO)
        elif rng.random() < density:
            entries[(x, y)] = rng.choice(SCALARS)
    return IncidenceFunction(poset, entries)


def random_multiplicative(rng, poset):
    # s(x, y) = t(x)^{-1} t(y) satisfies the cocycle identity for any
    # nowhere-zero t, and every value is nonzero.
    t = [rng.choice(NONZERO) for _ in range(poset.n)]
    entries = {(x, y): t[y] / t[x] for (x, y) in poset.comparable_pairs()}
    return IncidenceFunction(poset, entries)


def random_grading(rng, poset, group):
    return GradingMap(poset, group,
                      [rng.randrange(group.order) for _ in range(poset.n)])


def brute_force_chains(poset):
    """All maximal chains by filtering every subset of elements."""
    chains = []
    for size in range(1, poset.n + 1):
        for subset in itertools.combinations(range(poset.n), size):
            if all(poset.leq[a][b] or poset.leq[b][a]
                   for a, b in itertools.combinations(subset, 2)):
                chains.append(frozenset(subset))
    maximal = [c for c in chains
               if not any(c < other for other in chains)]
    out = []
    for members in maximal:
        out.append(tuple(sorted(
            members, key=lambda i: sum(poset.leq[j][i] for j in members))))
    return sorted(out)


def brute_force_automorphisms(poset):
    """All permutations preserving the relation in both directions."""
    found = []
    for perm in itertools.permutations(range(poset.n)):
        if all(poset.leq[i][j] == poset.leq[perm[i]][perm[j]]
               for i in range(poset.n) for j in range(poset.n)):
            found.append(perm)
    return sorted(found)


def brute_force_components(poset):
    """Connected components via closure of the symmetric comparability."""
    adj = [[poset.leq[i][j] or poset.leq[j][i] for j in range(poset.n)]
           for i in range(poset.n)]
    for k in range(poset.n):
        for i in range(poset.n):
            for j in range(poset.n):
                if adj[i][k] and adj[k][j]:
                    adj[i][j] = True
    seen = set()
    out = []
    for i in range(poset.n):
        if i in seen:
            continue
        members = tuple(j for j in range(poset.n) if adj[i][j])
        seen.update(members)
        out.append(members)
    return out


def relabelled_group(group, order):
    """The same group with new index i naming old element order[i]."""
    position = {old: new for new, old in enumerate(order)}
    table = [[position[group.mul(a, b)] for b in order] for a in order]
    return FiniteGroup([group.names[a] for a in order], table)


def brute_force_classes(poset, group):
    """The least map of each equivalence class, ascending: walk all |G|^n
    maps and mark the whole orbit, |Aut| * |G|^k maps, of each new one."""
    comps = brute_force_components(poset)
    owner = {x: c for c, members in enumerate(comps) for x in members}
    auts = brute_force_automorphisms(poset)
    seen = set()
    reps = []
    for theta in itertools.product(range(group.order), repeat=poset.n):
        if theta in seen:
            continue
        reps.append(theta)
        for sigma in auts:
            moved = [None] * poset.n
            for x in range(poset.n):
                moved[sigma[x]] = theta[x]
            for shifts in itertools.product(range(group.order),
                                            repeat=len(comps)):
                seen.add(tuple(group.mul(shifts[owner[x]], moved[x])
                               for x in range(poset.n)))
    return reps


def brute_force_burnside(poset, group):
    """Burnside's lemma summed term by term over all |Aut| * |G|^k pairs
    (shifts, sigma). A map is fixed when it is constant up to the shifts
    along each cycle of sigma, which closes when the shifts met around the
    cycle multiply to the identity; then the cycle has |G| fixed choices."""
    comps = brute_force_components(poset)
    owner = {x: c for c, members in enumerate(comps) for x in members}
    auts = brute_force_automorphisms(poset)
    total = 0
    for sigma in auts:
        cycles = []
        for start in range(poset.n):
            if any(start in c for c in cycles):
                continue
            cycle = [start]
            while sigma[cycle[-1]] != start:
                cycle.append(sigma[cycle[-1]])
            cycles.append(cycle)
        for shifts in itertools.product(range(group.order), repeat=len(comps)):
            fixed = 1
            for cycle in cycles:
                acc = group.identity
                for x in cycle:
                    acc = group.mul(shifts[owner[x]], acc)
                fixed *= group.order if acc == group.identity else 0
            total += fixed
    count, rem = divmod(total, group.order ** len(comps) * len(auts))
    assert rem == 0
    return count


def monomial_vanishes_by_products(grading, word):
    """Whether x_1 ... x_m of the given degree word kills every basis
    substitution, decided by multiplying out actual algebra elements."""
    from incgrade.algebra import convolve, e_basis

    poset = grading.poset
    bases = [grading.component_basis(g).basis for g in word]
    for pairs in itertools.product(*bases):
        product = e_basis(poset, *pairs[0])
        for pair in pairs[1:]:
            product = convolve(product, e_basis(poset, *pair))
            if product.is_zero():
                break
        if not product.is_zero():
            return False
    return True
