"""Finite posets: construction from a relation, segments, maximal
chains, connected components, chain-length bound, automorphisms, and chain
transitivity.

Elements carry stable 0-based indices in input order. Poset closes its
relation once, as bit rows (bit j of up[i] is set when i is below-or-equal
j; down is the transpose), and reads the covers off the relation's edges.
Every order query reads the rows. A Poset is immutable, so each structure
derived from it (comparable pairs, components, maximal chains, Aut(P)) is
computed at most once, on first request, stored on it and freed with it.
Set-valued results come back in a deterministic order so they can be
frozen into golden tests. Aut(P), the maximal chains, and the table of
chain pairs behind chain transitivity count against MAX_MAPS, which also
bounds the grading enumerations and the identity degree sweeps.
"""

import functools

from .errors import (
    BudgetExceededError,
    MalformedInputError,
    NotComparableError,
)

MAX_MAPS = 10 ** 6


def _check_budget(count, what="maps"):
    """Refuse an enumeration that would walk, or has found, more than
    MAX_MAPS maps, automorphisms, chains or chain pairs."""
    if count > MAX_MAPS:
        raise BudgetExceededError(
            f"{count} {what} exceed the enumeration budget {MAX_MAPS}")


def _derived(compute):
    """Make compute(p) run at most once per owner p, a poset or a grading:
    the result is stored on p, which is immutable, and later calls return
    it."""
    @functools.wraps(compute)
    def once(p):
        if compute.__name__ not in p._derived:
            p._derived[compute.__name__] = compute(p)
        return p._derived[compute.__name__]
    return once


def _bits(mask):
    """The indices of the set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class Poset:
    """Immutable finite poset over labeled, indexed elements. The order is
    the reflexive-transitive closure of relation, a list of (i, j) index
    pairs with i below j: the covers, every comparable pair, or between."""

    def __init__(self, elements, relation):
        elements = tuple(str(e) for e in elements)
        relation = tuple(relation)
        n = len(elements)
        up = _close(n, relation)
        if not elements:
            raise MalformedInputError("poset needs at least one element")
        seen = set()
        for label in elements:
            if label in seen:
                raise MalformedInputError(f"duplicate label {label!r}")
            seen.add(label)
        down = _close(n, [(j, i) for i, j in relation])
        # The members of a cycle share their rows, so i is on one when up[i]
        # and down[i] meet beyond i; name the least other member.
        for i in range(n):
            cycle = up[i] & down[i] & ~(1 << i)
            if cycle:
                j = (cycle & -cycle).bit_length() - 1
                raise MalformedInputError(
                    f"{elements[i]!r} and {elements[j]!r} are mutually comparable")
        # Every cover is an edge. An edge i -> j is one unless j lies
        # strictly above the end of another edge leaving i.
        beyond = [0] * n
        for i, k in relation:
            if i != k:
                beyond[i] |= up[k] & ~(1 << k)
        self.elements = elements
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.covers = tuple(sorted({(i, j) for i, j in relation
                                    if i != j and not beyond[i] >> j & 1}))
        self._derived = {}

    @_derived
    def comparable_pairs(self):
        """All (x, y) with x below-or-equal y, in lexicographic order."""
        return tuple((i, j) for i in range(self.n) for j in _bits(self.up[i]))

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.up == other.up

    def __hash__(self):
        return hash((self.elements, self.up))

    def __repr__(self):
        return f"Poset({list(self.elements)}, {list(self.covers)})"


def _check_leq(p, x, y, message="({}, {}) is not a comparable pair"):
    """Raise NotComparableError unless x is below-or-equal y in p. An
    index outside 0..n-1 is below nothing and is named by its number."""
    if not (0 <= x < p.n and 0 <= y < p.n and p.up[x] >> y & 1):
        names = [repr(p.elements[i]) if 0 <= i < p.n else str(i) for i in (x, y)]
        raise NotComparableError(message.format(*names))


def _close(n, edges):
    """Reflexive-transitive closure as bit rows, bit j of up[i] meaning
    i <= j, in one pass over the edges. Tarjan's algorithm completes the
    strongly connected components sinks first, so the rows a component ORs
    in are final; the members of a cycle share one row, which Poset then
    refuses. A row stays 0 until its component completes."""
    succ = [[] for _ in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"index pair ({i}, {j}) out of range")
        succ[i].append(j)
    up, low = [0] * n, [0] * n
    at = [0] * n  # 1 + position on the stack when visited, 0 before
    stack, path = [], []
    for root in range(n):
        if not at[root]:
            path.append((root, iter(succ[root])))
        while path:
            v, todo = path[-1]
            if not at[v]:
                stack.append(v)
                at[v] = low[v] = len(stack)
            w = next(todo, None)
            if w is None:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[v])
                if low[v] == at[v]:
                    component = stack[at[v] - 1:]
                    del stack[at[v] - 1:]
                    row = 0
                    for m in component:
                        row |= 1 << m
                        for j in succ[m]:
                            row |= up[j]
                    for m in component:
                        up[m] = row
            elif not at[w]:
                path.append((w, iter(succ[w])))
            elif not up[w]:  # w is on the stack, in v's component
                low[v] = min(low[v], at[w])
    return up


def poset_from_json(obj):
    """Read {"elements": [...], "covers": [[i,j],...]} or
    {"elements": [...], "relation": [[i,j],...]}: either key names a
    relation for Poset to close."""
    if not isinstance(obj, dict) or not isinstance(obj.get("elements"), list):
        raise MalformedInputError(
            'poset JSON must be an object with an "elements" list')
    if any(type(v) is not str for v in obj["elements"]):
        raise MalformedInputError("poset JSON elements must be strings")
    if "covers" in obj and "relation" in obj:
        raise MalformedInputError(
            "poset JSON must have one of 'covers' and 'relation', not both")
    key = "covers" if "covers" in obj else "relation"
    if key not in obj:
        raise MalformedInputError("poset JSON needs a 'covers' or 'relation' key")
    pairs = obj[key]
    if not isinstance(pairs, list) or not all(map(_is_index_pair, pairs)):
        raise MalformedInputError(
            f"poset JSON {key!r} must be a list of [i, j] integer pairs")
    return Poset(obj["elements"], [tuple(p) for p in pairs])


def _is_index_pair(value):
    """Whether a JSON value is a list of two integers."""
    return (isinstance(value, list) and len(value) == 2
            and type(value[0]) is int and type(value[1]) is int)


def poset_to_json(p):
    return {"elements": list(p.elements),
            "covers": [list(c) for c in p.covers]}


def subposet(p, indices):
    """Induced subposet on the given indices, kept in the given order. Its
    relation is its covers: each element's minimal strict upper bounds
    among the indices."""
    indices = list(indices)
    if any(not 0 <= j < p.n for j in indices):
        raise MalformedInputError(f"subposet index out of range for {p.n} elements")
    position = {j: b for b, j in enumerate(indices)}
    inside = sum(1 << j for j in position)
    covers = []
    for a, i in enumerate(indices):
        above = p.up[i] & inside & ~(1 << i)
        covers += [(a, position[j]) for j in _bits(above)
                   if p.down[j] & above == 1 << j]
    return Poset([p.elements[i] for i in indices], covers)


def segment(p, x, z):
    """The interval [x, z] = {y : x below y below z} with induced order."""
    _check_leq(p, x, z, "{} is not below {}")
    return subposet(p, _bits(p.up[x] & p.down[z]))


@_derived
def maximal_chains(p):
    """All maximal chains as ascending index tuples, lexicographic order.

    A maximal chain is saturated, so it walks cover edges from a minimal
    element to a maximal one.
    """
    upper = [[] for _ in range(p.n)]
    for a, j in p.covers:
        upper[a].append(j)
    stack = [(i,) for i in range(p.n) if p.down[i] == 1 << i]
    chains = []
    while stack:
        chain = stack.pop()
        nexts = upper[chain[-1]]
        if not nexts:
            chains.append(chain)
            _check_budget(len(chains), "maximal chains")
        stack.extend(chain + (j,) for j in nexts)
    return tuple(sorted(chains))


@_derived
def connected_components(p):
    """Partition of indices under zig-zag comparability, each component
    sorted, components ordered by least index.

    These are the components of the Hasse diagram, joined by union-find
    over the covers; each root is the least index of its component.
    """
    root = list(range(p.n))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for a, b in p.covers:
        a, b = sorted((find(a), find(b)))
        root[b] = a
    members = {}
    for i in range(p.n):
        members.setdefault(find(i), []).append(i)
    return tuple(map(tuple, members.values()))


@_derived
def component_index(p):
    """Map each element index to the index of its connected component."""
    owner = [0] * p.n
    for c, members in enumerate(connected_components(p)):
        for i in members:
            owner[i] = c
    return tuple(owner)


def linear_extension(p):
    """A topological order of the indices: by down-set size, then index.
    x < y makes down(x) a proper subset of down(y)."""
    return tuple(sorted(range(p.n), key=lambda i: (p.down[i].bit_count(), i)))


def _heights(p, order, dual=False):
    """Per element, the number of elements in a longest chain that ends
    there (starts there, if dual), filled in along order: a linear
    extension (its reverse, if dual)."""
    height = [1] * p.n
    for i in order:
        others = (p.up if dual else p.down)[i] ^ 1 << i
        if others:
            height[i] = 1 + max(height[j] for j in _bits(others))
    return height


def bound(p):
    """Number of elements in a longest chain."""
    return max(_heights(p, linear_extension(p)))


def _signatures(p):
    """Per-element invariants preserved by every automorphism."""
    order = linear_extension(p)
    height = _heights(p, order)
    depth = _heights(p, reversed(order), dual=True)
    cup, cdown = [0] * p.n, [0] * p.n
    for a, b in p.covers:
        cup[a] += 1
        cdown[b] += 1
    return [(height[i], depth[i], p.up[i].bit_count(), p.down[i].bit_count(),
             cup[i], cdown[i]) for i in range(p.n)]


@_derived
def automorphisms(p):
    """The full automorphism group as permutation tuples, sorted, so the
    identity comes first. Backtracking with signature pruning.

    A partial image assigns the elements in index order. Element i may go
    to a free j of its signature when the placed elements above (below) j
    are exactly the images of the placed elements above (below) i.
    """
    sig = _signatures(p)
    candidates = [[j for j in range(p.n) if sig[j] == sig[i]]
                  for i in range(p.n)]
    # Per element i, the earlier elements above it and those below it.
    earlier = [(_bits(p.up[i] & (1 << i) - 1), _bits(p.down[i] & (1 << i) - 1))
               for i in range(p.n)]
    found = []
    stack = [((), 0)]  # (partial image, bit mask of its values)
    while stack:
        image, used = stack.pop()
        i = len(image)
        if i == p.n:
            found.append(image)
            _check_budget(len(found), "automorphisms")
            continue
        ups, downs = earlier[i]
        above = sum([1 << image[k] for k in ups])
        below = sum([1 << image[k] for k in downs])
        stack += [(image + (j,), used | 1 << j) for j in candidates[i]
                  if not used >> j & 1 and p.up[j] & used == above
                  and p.down[j] & used == below]
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

    Returns (True, table) with table[(i, j)] = the first automorphism, in
    sorted order, mapping chain i onto chain j, or (False, (i, j)) for the
    first unreachable pair in lexicographic order. An order automorphism
    maps an ascending maximal chain to an ascending maximal chain, so one
    pass over Aut(P) finds every image.
    """
    chains = maximal_chains(p)
    _check_budget(len(chains) ** 2, "chain pairs")
    index = {chain: i for i, chain in enumerate(chains)}
    table = {}
    for sigma in automorphisms(p):
        for i, chain in enumerate(chains):
            table.setdefault((i, index[tuple(sigma[x] for x in chain)]), sigma)
    missing = [(i, j) for i in range(len(chains)) for j in range(len(chains))
               if (i, j) not in table]
    return (False, missing[0]) if missing else (True, table)
