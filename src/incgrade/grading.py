"""Finite groups by Cayley table, elementary grading maps theta, their
homogeneous components, counting of distinct gradings, equivalence with
witnesses, and classification with a Burnside cross-check.

theta assigns a group element to each poset element; the pair (x, y) then
carries the degree theta_x^{-1} theta_y, and the component of degree g is
spanned by the basis elements of the pairs graded g.
"""

import itertools
import json
import math
import operator
import types

from .corpus import _parse_json
from .errors import (
    MalformedInputError,
    MismatchError,
    VerificationError,
)
from .poset import (
    _check_budget,
    _check_leq,
    _derived,
    automorphisms,
    component_index,
    connected_components,
    inverse_permutation,
    permutation_cycles,
)

MAX_GROUP_ORDER = 256


def _check_order(order):
    """Refuse a group whose Cayley table of order**2 entries is too large."""
    if order > MAX_GROUP_ORDER:
        raise MalformedInputError(
            f"group order {order} exceeds the cap of {MAX_GROUP_ORDER} elements")


def _generators(t, identity):
    """Elements chosen greedily so that their left-normed products
    ((g1*g2)*g3)*... reach every element of the Cayley table t. A group
    of order m needs at most log2(m) of them: each one at least doubles
    the subgroup reached."""
    reached = {identity}
    generators = []
    for g in range(len(t)):
        if g in reached:
            continue
        generators.append(g)
        todo = [t[x][g] for x in reached]
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo.extend(t[x][s] for s in generators)
    return generators


class FiniteGroup:
    """Finite group given by element names and a full Cayley table.

    table[a][b] is the index of the product a*b. The constructor checks
    the group axioms on the whole table and locates identity and inverses.
    """

    def __init__(self, names, table):
        self.names = tuple(str(v) for v in names)
        m = len(self.names)
        if m == 0:
            raise MalformedInputError("a group needs at least one element")
        if len(set(self.names)) != m:
            raise MalformedInputError("element names must be distinct")
        try:
            self.table = tuple(tuple(map(operator.index, row)) for row in table)
        except TypeError:
            raise MalformedInputError("Cayley table entries must be integers") from None
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise MalformedInputError("Cayley table must be square")
        for row in self.table:
            if any(not 0 <= v < m for v in row):
                raise MalformedInputError("Cayley table entry out of range")
        t = self.table
        identity = next((e for e in range(m)
                         if all(t[e][a] == a == t[a][e] for a in range(m))), None)
        if identity is None:
            raise MalformedInputError("no identity element")
        self.identity = identity
        inverse = [next((b for b in range(m) if t[a][b] == identity == t[b][a]),
                        None) for a in range(m)]
        if None in inverse:
            raise MalformedInputError(
                f"no inverse for {self.names[inverse.index(None)]!r}")
        self.inverse = tuple(inverse)
        # Light's test: the g with (x*g)*y == x*(g*y) for all x, y are
        # closed under products, so checking generators is exact.
        for g in _generators(t, identity):
            tg = t[g]
            if any(t[tx[g]] != tuple(map(tx.__getitem__, tg)) for tx in t):
                raise MalformedInputError("multiplication is not associative")

    @property
    def order(self):
        return len(self.names)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def element_indices(self, values, what):
        """values as a tuple of element indices, refusing a value that is
        not an integer or not below the order, with `what` naming them."""
        try:
            values = tuple(map(operator.index, values))
        except TypeError:
            raise MalformedInputError(
                f"{what} values must be integers: {values!r}") from None
        if any(not 0 <= v < self.order for v in values):
            raise MalformedInputError(f"{what} value out of group range")
        return values

    def index_of(self, name):
        try:
            return self.names.index(str(name))
        except ValueError:
            raise MalformedInputError(f"unknown group element {name!r}") from None

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self):
        return hash((self.names, self.table))

    def __repr__(self):
        return f"FiniteGroup({list(self.names)})"


def cyclic_group(n):
    if n < 1:
        raise MalformedInputError("cyclic group order must be positive")
    _check_order(n)
    names = ["1"] + ["h" if k == 1 else f"h^{k}" for k in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(names, table)


def _cycle_name(perm):
    """Cycle notation over 1-based points, '1' for the identity."""
    cycles = [c for c in permutation_cycles(perm) if len(c) > 1]
    if not cycles:
        return "1"
    return "".join("(" + "".join(str(v + 1) for v in c) + ")" for c in cycles)


def symmetric_group(n):
    if not 1 <= n <= 4:
        raise MalformedInputError("symmetric groups supported up to S4" if n > 4
                                  else "symmetric group degree must be between 1 and 4")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = [_cycle_name(p) for p in perms]
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms]
             for p in perms]
    return FiniteGroup(names, table)


def product_group(a, b):
    """Direct product; element names joined with '|'."""
    names = [f"{x}|{y}" for x in a.names for y in b.names]
    m = b.order
    table = [[(a.table[i // m][k // m]) * m + b.table[i % m][k % m]
              for k in range(a.order * m)]
             for i in range(a.order * m)]
    return FiniteGroup(names, table)


def group_from_spec(spec):
    """Parse 'C<n>', 'S<n>' (n <= 4), products like 'C2xC2', or a JSON
    Cayley table {"names": [...], "table": [[...]]}."""
    spec = str(spec).strip()
    if spec.startswith("{"):
        obj = _parse_json(json.loads, spec, "bad group JSON")
        if (not isinstance(obj, dict) or not isinstance(obj.get("names"), list)
                or not isinstance(obj.get("table"), list)
                or any(not isinstance(row, list) for row in obj["table"])):
            raise MalformedInputError(
                'group JSON must be an object with a "names" list and a '
                '"table" list of lists')
        if any(type(v) is not str for v in obj["names"]):
            raise MalformedInputError("group element names must be strings")
        _check_order(len(obj["names"]))
        if any(type(v) is not int for row in obj["table"] for v in row):
            raise MalformedInputError("Cayley table entries must be integers")
        return FiniteGroup(obj["names"], obj["table"])
    factors = []
    for part in spec.split("x"):
        part = part.strip()
        kind, digits = part[:1], part[1:]
        if kind not in ("C", "S") or not (digits.isascii() and digits.isdigit()):
            raise MalformedInputError(f"unrecognized group spec {part!r}")
        # A size with more digits than the cap exceeds it unconverted.
        size = digits.lstrip("0") or "0"
        if len(size) > len(str(MAX_GROUP_ORDER)):
            raise MalformedInputError(
                f"group factor {kind} with a {len(size)}-digit size exceeds "
                f"the cap of {MAX_GROUP_ORDER} elements")
        factors.append((kind, int(size)))
    # S<n> past S4 is refused by symmetric_group, so it counts as 1 here.
    _check_order(math.prod(n if kind == "C" else math.factorial(n) if n <= 4 else 1
                           for kind, n in factors))
    built = None
    for kind, n in factors:
        atom = cyclic_group(n) if kind == "C" else symmetric_group(n)
        built = atom if built is None else product_group(built, atom)
    return built


class GradingMap:
    """A map theta from poset elements to group elements, as indices."""

    def __init__(self, poset, group, theta):
        theta = group.element_indices(theta, "theta")
        if len(theta) != poset.n:
            raise MismatchError(f"a grading needs one value per poset element: "
                                f"got {len(theta)} for {poset.n} elements")
        self.poset = poset
        self.group = group
        self.theta = theta
        self._derived = {}

    def grade_of_pair(self, x, y):
        _check_leq(self.poset, x, y)
        g = self.group
        return g.mul(g.inv(self.theta[x]), self.theta[y])

    def support(self):
        """The realized degrees, ascending by element index."""
        return tuple(self.components())

    def component_basis(self, g):
        """The basis pairs of the component of degree g, () if unrealized."""
        return self.components().get(g, ())

    @_derived
    def components(self):
        """Read-only map from each realized degree, ascending, to its basis
        pairs; derived once, as the grading is immutable."""
        out = {}
        for (x, y) in self.poset.comparable_pairs():
            out.setdefault(self.grade_of_pair(x, y), []).append((x, y))
        return types.MappingProxyType(
            {g: tuple(pairs) for g, pairs in sorted(out.items())})

    def compose_with_automorphism(self, sigma):
        """theta after sigma^{-1}, the right action used in transport."""
        return GradingMap(self.poset, self.group,
                          [self.theta[i] for i in inverse_permutation(sigma)])

    def shift(self, shifts):
        """Left-multiply by one group element per connected component."""
        shifts = self.group.element_indices(shifts, "shift")
        k = len(connected_components(self.poset))
        if len(shifts) != k:
            raise MismatchError(f"a shift needs one value per connected component: "
                                f"got {len(shifts)} for {k} components")
        owner = component_index(self.poset)
        return GradingMap(
            self.poset, self.group,
            [self.group.mul(shifts[owner[x]], self.theta[x])
             for x in range(self.poset.n)])

    def names(self):
        return [self.group.names[v] for v in self.theta]

    def __eq__(self, other):
        if not isinstance(other, GradingMap):
            return NotImplemented
        return (self.poset == other.poset and self.group == other.group
                and self.theta == other.theta)

    def __hash__(self):
        return hash((self.poset, self.group, self.theta))

    def __repr__(self):
        return f"GradingMap({self.names()})"


class EquivalenceWitness:
    """Certificate that mu equals the shift of theta composed with a poset
    automorphism: mu(x) = shifts[component(x)] * theta(sigma^{-1}(x))."""

    def __init__(self, shifts, sigma):
        self.shifts = tuple(shifts)
        self.sigma = tuple(sigma)

    def check(self, theta, mu):
        moved = theta.compose_with_automorphism(self.sigma).shift(self.shifts)
        return moved == mu

    def __repr__(self):
        return f"EquivalenceWitness(shifts={list(self.shifts)}, sigma={list(self.sigma)})"


def _shift_table(poset, group):
    """Each element's anchor, the least element of its connected
    component, and table[a][v]: v after the left shift that sends the
    anchor value a to group index 0."""
    comps = connected_components(poset)
    anchor = [comps[c][0] for c in component_index(poset)]
    table = [[group.mul(group.mul(0, group.inv(a)), v) for v in range(group.order)]
             for a in range(group.order)]
    return anchor, table


def _shift_normalizer(poset, group):
    """The per-component shift normal form of maps P -> G, as a function.

    The normal form of theta takes table[theta[anchor[x]]][theta[x]] at
    each x. It is the one map of the shift orbit with every anchor at
    index 0, and, as each anchor comes first in its component, the orbit's
    lexicographically least map.
    """
    anchor, table = _shift_table(poset, group)
    return lambda theta: tuple([table[theta[a]][v] for a, v in zip(anchor, theta)])


def equivalent(theta, mu):
    """Witness that the two gradings are equivalent, or None.

    Equivalence is exactly some sigma in Aut(P) and one left shift per
    connected component. A graded isomorphism I(P)^theta -> I(P)^mu, after
    conjugation by a neutral unit, sends each e_x to some e_{sigma(x)}, as
    both sets are primitive orthogonal idempotents of the neutral component.
    e_x I e_y is nonzero exactly when x <= y, so sigma is in Aut(P), and
    equal degrees on comparable pairs make mu(sigma(x)) theta(x)^{-1}
    constant on each component. The witness holds the first such sigma in
    sorted order, with mu = shifts * (theta o sigma^{-1}), and is checked
    before it is returned.
    """
    if theta.poset != mu.poset or theta.group != mu.group:
        raise MismatchError("gradings live over different posets or groups")
    poset, group = theta.poset, theta.group
    normal = _shift_normalizer(poset, group)
    target = normal(theta.theta)
    for sigma in automorphisms(poset):
        if normal(list(map(mu.theta.__getitem__, sigma))) == target:
            shifts = [group.mul(mu.theta[a], group.inv(theta.theta[sigma.index(a)]))
                      for a, *_ in connected_components(poset)]
            witness = EquivalenceWitness(shifts, sigma)
            if not witness.check(theta, mu):
                raise VerificationError("equivalence witness fails its check")
            return witness
    return None


def count_distinct_gradings(poset, group, verify=False):
    """|G|^(n-k) with n elements and k connected components.

    With verify=True, enumerates all |G|^n maps, counts their distinct
    shift normal forms, and checks the count against the formula.
    """
    expected = group.order ** (poset.n - len(connected_components(poset)))
    if verify:
        _check_budget(group.order ** poset.n)
        normal = _shift_normalizer(poset, group)
        canon = {normal(theta)
                 for theta in itertools.product(range(group.order), repeat=poset.n)}
        if len(canon) != expected:
            raise VerificationError(
                f"orbit enumeration found {len(canon)}, formula gives {expected}")
    return expected


def burnside_class_count(poset, group):
    """Number of equivalence classes by Burnside's lemma over the pairs
    (h, sigma) with h a per-component shift and sigma a poset automorphism.

    theta is fixed by (h, sigma) when theta(x) = h_{c(x)} theta(sigma^{-1} x)
    for all x. Along each cycle of sigma the values of theta are forced from
    one free choice, and the closure condition is that the shifts met around
    the cycle multiply to the identity, so the fixed count is a product of
    |G| or 0 per cycle.

    The sum over h factors over the orbits of sigma on the components. On
    an orbit of L components let q be the product of the L shifts met going
    once around it; the shift tuples of the orbit map onto q, |G|^(L-1) to
    one. The product around an element cycle of length l is a rotation of
    q^(l/L), hence a conjugate of it. An orbit whose element cycles have
    lengths l_1..l_r therefore contributes
    |G|^(L-1) * #{g : g^(l_i/L) = e for all i} * |G|^r, and the orbits
    multiply, so each sigma costs polynomial time instead of |G|^k terms.
    """
    comps = connected_components(poset)
    owner = component_index(poset)
    auts = automorphisms(poset)
    k = len(comps)
    m = group.order
    orders = []
    for a in range(m):
        power, order = a, 1
        while power != group.identity:
            power, order = group.mul(power, a), order + 1
        orders.append(order)
    # roots[d] = #{g : g^d = e}; each l/L is at most n.
    roots = [0] + [sum(1 for o in orders if d % o == 0)
                   for d in range(1, poset.n + 1)]

    total = 0
    for sigma in auts:
        orbits = permutation_cycles(
            [owner[sigma[members[0]]] for members in comps])
        orbit_of = [0] * k
        for j, orbit in enumerate(orbits):
            for c in orbit:
                orbit_of[c] = j
        exponent = [0] * len(orbits)  # gcd of l/L over the orbit's cycles
        cycles = permutation_cycles(sigma)
        for cycle in cycles:
            j = orbit_of[owner[cycle[0]]]
            exponent[j] = math.gcd(exponent[j], len(cycle) // len(orbits[j]))
        fixed = m ** (k - len(orbits) + len(cycles))
        for d in exponent:
            fixed *= roots[d]
        total += fixed
    denom = (m ** k) * len(auts)
    count, rem = divmod(total, denom)
    if rem:
        raise VerificationError("Burnside sum is not divisible by the group order")
    return count


def classify_gradings(poset, group):
    """One representative per equivalence class, each the lexicographically
    least map in its class, in increasing order; the count is cross-checked
    against Burnside.

    Only the |G|^(n-k) shift normal forms are enumerated (k connected
    components), and the budget bounds those. The least normal form of a
    class is the least map of the class. A representative's class is
    marked by renormalizing theta o tau for each tau in Aut(P), |Aut(P)|
    maps each; Aut(P) is closed under inverses, so these are the
    theta o sigma^{-1}.
    """
    _check_budget(group.order ** (poset.n - len(connected_components(poset))))
    anchor, table = _shift_table(poset, group)
    anchored = list(enumerate(anchor))
    auts = automorphisms(poset)
    seen = set()
    reps = []
    values = [(0,) if a == x else range(group.order) for x, a in anchored]
    for theta in itertools.product(*values):
        if theta in seen:
            continue
        reps.append(GradingMap(poset, group, theta))
        for tau in auts:
            seen.add(tuple([table[theta[tau[a]]][theta[tau[x]]] for x, a in anchored]))
    expected = burnside_class_count(poset, group)
    if len(reps) != expected:
        raise VerificationError(
            f"orbit enumeration found {len(reps)} classes, Burnside gives {expected}")
    return reps
