"""Finite posets: construction with validation, segments, maximal chains,
connected components, chain-length bound, automorphisms, and chain
transitivity.

Elements carry stable 0-based indices in input order. The order relation
is stored as a dense boolean matrix, always reflexively and transitively
closed. All set-valued results come back in a deterministic order so they
can be frozen into golden tests.
"""

from .errors import (
    CycleError,
    DuplicateLabelError,
    EmptyPosetError,
    MalformedInputError,
    NotComparableError,
)


class Poset:
    """Immutable finite poset over labeled, indexed elements.

    leq must already be reflexive, antisymmetric, and transitive; use
    poset_from_covers to close an arbitrary input relation first.
    """

    def __init__(self, elements, leq):
        elements = tuple(str(e) for e in elements)
        if not elements:
            raise EmptyPosetError("poset needs at least one element")
        seen = set()
        for label in elements:
            if label in seen:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            seen.add(label)
        n = len(elements)
        matrix = tuple(tuple(bool(v) for v in row) for row in leq)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("leq must be an n x n matrix")
        # Bit j of up[i] is leq[i][j]; bit i of down[j] is leq[i][j].
        up = [sum(1 << j for j in range(n) if row[j]) for row in matrix]
        down = [sum(1 << i for i in range(n) if matrix[i][j]) for j in range(n)]
        above = [[j for j in range(n) if j != i and matrix[i][j]]
                 for i in range(n)]
        for i in range(n):
            if not matrix[i][i]:
                raise ValueError(f"relation not reflexive at {elements[i]!r}")
            for j in above[i]:
                if matrix[j][i]:
                    raise CycleError(
                        f"{elements[i]!r} and {elements[j]!r} are mutually comparable")
                if up[j] & ~up[i]:
                    raise ValueError("relation not transitive")
        self.elements = elements
        self.leq = matrix
        self.n = n
        # i < j is a cover when nothing else lies between: [i, j] = {i, j}.
        self.covers = tuple(
            (i, j) for i in range(n) for j in above[i]
            if up[i] & down[j] == (1 << i) | (1 << j))

    def index_of(self, label):
        return self.elements.index(str(label))

    def comparable_pairs(self):
        """All (x, y) with x below-or-equal y, in lexicographic order."""
        return tuple((i, j) for i in range(self.n) for j in range(self.n)
                     if self.leq[i][j])

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.leq == other.leq

    def __hash__(self):
        return hash((self.elements, self.leq))

    def __repr__(self):
        return f"Poset({list(self.elements)}, covers={list(self.covers)})"


def _close(n, edges):
    """Reflexive-transitive closure as a boolean matrix: Warshall's
    algorithm on bit rows, bit j of up[i] meaning i <= j."""
    up = [1 << i for i in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"index pair ({i}, {j}) out of range")
        up[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row_k
    return [[bool(row >> j & 1) for j in range(n)] for row in up]


def poset_from_covers(labels, covers):
    """Build a poset from cover pairs, or from any relation: the order is
    its reflexive-transitive closure."""
    labels = tuple(labels)
    return Poset(labels, _close(len(labels), covers))


def poset_from_json(obj):
    """Read {"elements": [...], "covers": [[i,j],...]} or
    {"elements": [...], "relation": [[i,j],...]}."""
    if not isinstance(obj, dict) or not isinstance(obj.get("elements"), list):
        raise MalformedInputError(
            'poset JSON must be an object with an "elements" list')
    key = "covers" if "covers" in obj else "relation"
    if key not in obj:
        raise MalformedInputError("poset JSON needs a 'covers' or 'relation' key")
    pairs = obj[key]
    if not isinstance(pairs, list) or not all(map(_is_index_pair, pairs)):
        raise MalformedInputError(
            f"poset JSON {key!r} must be a list of [i, j] integer pairs")
    return poset_from_covers(obj["elements"], [tuple(p) for p in pairs])


def _is_index_pair(value):
    """Whether a JSON value is a list of two integers."""
    return (isinstance(value, list) and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int)


def poset_to_json(p):
    return {"elements": list(p.elements),
            "covers": [list(c) for c in p.covers]}


def subposet(p, indices):
    """Induced subposet on the given indices, kept in the given order."""
    indices = list(indices)
    labels = [p.elements[i] for i in indices]
    leq = [[p.leq[a][b] for b in indices] for a in indices]
    return Poset(labels, leq)


def segment(p, x, z):
    """The interval [x, z] = {y : x below y below z} with induced order."""
    if not p.leq[x][z]:
        raise NotComparableError(
            f"{p.elements[x]!r} is not below {p.elements[z]!r}")
    members = [y for y in range(p.n) if p.leq[x][y] and p.leq[y][z]]
    return subposet(p, members)


def maximal_chains(p):
    """All maximal chains as ascending index tuples, lexicographic order.

    A maximal chain is saturated, so it walks cover edges from a minimal
    element to a maximal one.
    """
    minimal = [i for i in range(p.n)
               if not any(p.leq[j][i] for j in range(p.n) if j != i)]
    upper = {i: [j for (a, j) in p.covers if a == i] for i in range(p.n)}
    chains = []

    def extend(chain):
        nexts = upper[chain[-1]]
        if not nexts:
            chains.append(tuple(chain))
            return
        for j in nexts:
            chain.append(j)
            extend(chain)
            chain.pop()

    for start in minimal:
        extend([start])
    return tuple(sorted(chains))


def connected_components(p):
    """Partition of indices under zig-zag comparability, each component
    sorted, components ordered by least index."""
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(p.n):
        for j in range(p.n):
            if p.leq[i][j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(p.n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[root]) for root in sorted(groups))


def component_index(p):
    """Map each element index to the index of its connected component."""
    owner = [0] * p.n
    for c, members in enumerate(connected_components(p)):
        for i in members:
            owner[i] = c
    return tuple(owner)


def linear_extension(p):
    """A topological order of the indices (least available index first)."""
    remaining = set(range(p.n))
    order = []
    while remaining:
        ready = [i for i in remaining
                 if all(j not in remaining or j == i
                        for j in range(p.n) if p.leq[j][i])]
        pick = min(ready)
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)


def _heights(p, order, dual=False):
    """Per element, the number of elements in a longest chain that ends
    there (starts there, if dual), filled in along order: a linear
    extension (its reverse, if dual)."""
    height = [1] * p.n
    for i in order:
        below = [height[j] for j in range(p.n)
                 if j != i and (p.leq[i][j] if dual else p.leq[j][i])]
        if below:
            height[i] = 1 + max(below)
    return height


def bound(p):
    """Number of elements in a longest chain."""
    return max(_heights(p, linear_extension(p)))


def _signatures(p):
    """Per-element invariants preserved by every automorphism."""
    order = linear_extension(p)
    height = _heights(p, order)
    depth = _heights(p, reversed(order), dual=True)
    up = [sum(1 for j in range(p.n) if j != i and p.leq[i][j]) for i in range(p.n)]
    down = [sum(1 for j in range(p.n) if j != i and p.leq[j][i]) for i in range(p.n)]
    cup = [sum(1 for (a, _) in p.covers if a == i) for i in range(p.n)]
    cdown = [sum(1 for (_, b) in p.covers if b == i) for i in range(p.n)]
    return [(height[i], depth[i], up[i], down[i], cup[i], cdown[i])
            for i in range(p.n)]


def automorphisms(p):
    """The full automorphism group as permutation tuples, sorted, so the
    identity comes first. Backtracking with signature pruning."""
    sig = _signatures(p)
    candidates = [[j for j in range(p.n) if sig[j] == sig[i]]
                  for i in range(p.n)]
    found = []
    image = [-1] * p.n
    used = [False] * p.n

    def assign(i):
        if i == p.n:
            found.append(tuple(image))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if (p.leq[i][k] != p.leq[j][image[k]]
                        or p.leq[k][i] != p.leq[image[k]][j]):
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                assign(i + 1)
                used[j] = False
                image[i] = -1

    assign(0)
    return tuple(sorted(found))


def inverse_permutation(perm):
    """The inverse of a permutation given as its tuple of images."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def permutation_cycles(perm):
    """The cycles of a permutation, fixed points included, each listed
    from its least point and ordered by that point."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(tuple(cycle))
    return cycles


def is_chain_transitive(p):
    """Whether Aut(P) acts transitively on the maximal chains.

    Returns (True, table) with table[(i, j)] = an automorphism mapping
    chain i onto chain j, or (False, (i, j)) for an unreachable pair.
    An order automorphism maps an ascending chain to an ascending chain,
    so image tuples compare elementwise.
    """
    chains = maximal_chains(p)
    auts = automorphisms(p)
    table = {}
    for i, src in enumerate(chains):
        for j, dst in enumerate(chains):
            witness = None
            for sigma in auts:
                if tuple(sigma[x] for x in src) == dst:
                    witness = sigma
                    break
            if witness is None:
                return False, (i, j)
            table[(i, j)] = witness
    return True, table
