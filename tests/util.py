"""Shared helpers for the test suite: seeded random algebra elements and
the oracles that check one algorithm step or one error message.

Whole answers (Aut(P), maximal chains, components, classes of gradings)
come from perfbench/oracle.py, which imports no incgrade. The oracles
here that build on them hand it the order closed from the covers
(`reference_leq`) and its own copy of the group (`reference_group`).
The step oracles use library objects where the step needs them.
"""

import argparse
import contextlib
import io
import itertools
from fractions import Fraction
from math import gcd, lcm

import oracle

from incgrade.algebra import (
    AlgebraMorphism,
    IncidenceFunction,
    delta,
    e_basis,
    induced_auto,
    is_multiplicative,
    mult_auto,
)
from incgrade.errors import (
    MalformedInputError,
    MismatchError,
    NotAutomorphismError,
    NotInvertibleError,
    VerificationError,
)
from incgrade.grading import FiniteGroup, GradingMap
from incgrade.identities import identity_slice
from incgrade.linalg import RationalMatrix
from incgrade.poset import (
    Poset,
    inverse_permutation,
    maximal_chains,
    segment,
    subposet,
)

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


def random_poset(rng, max_n, min_n=1):
    """A poset on min_n..max_n elements from random covers, relabelled."""
    n = rng.randint(min_n, max_n)
    covers = [(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.3]
    order = rng.sample(range(n), n)
    return Poset([f"e{i}" for i in range(n)],
                 [(order[i], order[j]) for i, j in covers])


def leq_matrix(poset):
    """The order as a boolean matrix read off the bit rows: entry [i][j]
    is whether element i is below-or-equal element j."""
    return matrix_of(poset.up, poset.n)


def morphism_json(phi):
    """The morphism JSON that morphism_from_json reads: one item per
    comparable pair, in sorted order, with its image's entries."""
    return [{"pair": [x, y],
             "image": [[u, v, str(c)] for (u, v), c
                       in sorted(phi.images[(x, y)].entries.items())]}
            for (x, y) in sorted(phi.images)]


def reference_leq(poset):
    """The order as the reference closes it from the poset's covers."""
    return oracle.closure(poset.n, poset.covers)


def reference_group(group):
    """The group as the reference's own Group on the same Cayley table."""
    return oracle.Group(group.names, group.table)


def scan_chain_transitive(poset):
    """Chain transitivity by testing every pair of maximal chains against
    the automorphisms in sorted order: (True, table) with the first
    witness per pair, or (False, the first unreachable pair)."""
    leq = reference_leq(poset)
    chains = oracle.maximal_chains(leq)
    auts = oracle.automorphisms(leq)
    table = {}
    for i, src in enumerate(chains):
        for j, dst in enumerate(chains):
            witness = next((sigma for sigma in auts
                            if tuple(sigma[x] for x in src) == dst), None)
            if witness is None:
                return False, (i, j)
            table[(i, j)] = witness
    return True, table


def is_associative(table):
    """(a*b)*c == a*(b*c) over all order**3 triples of a Cayley table."""
    m = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(m) for b in range(m) for c in range(m))


def product_table(a, b):
    """The direct product of two Cayley tables, (i, j) at index i*|b| + j."""
    m = len(b)
    return [[a[i // m][k // m] * m + b[i % m][k % m] for k in range(len(a) * m)]
            for i in range(len(a) * m)]


def relabelled_group(group, order):
    """The same group with new index i naming old element order[i]."""
    position = {old: new for new, old in enumerate(order)}
    table = [[position[group.mul(a, b)] for b in order] for a in order]
    return FiniteGroup([group.names[a] for a in order], table)


def brute_force_witness(theta, mu):
    """(sigma, shifts) for the first sigma in sorted Aut(P) with a shift
    vector mapping theta o sigma^{-1} to mu, or None. Every automorphism
    is tried against every shift of each component; the components'
    shifts are independent, so this is the search over all vectors."""
    poset, group = theta.poset, reference_group(theta.group)
    leq = reference_leq(poset)
    comps = oracle.components(leq)
    for sigma in oracle.automorphisms(leq):
        moved = [None] * poset.n
        for x in range(poset.n):
            moved[sigma[x]] = theta.theta[x]
        shifts = tuple(next((h for h in range(group.order)
                             if all(group.mul(h, moved[x]) == mu.theta[x]
                                    for x in members)), None)
                       for members in comps)
        if None not in shifts:
            return sigma, shifts
    return None


def brute_force_burnside(poset, group):
    """Burnside's lemma summed term by term over all |Aut| * |G|^k pairs
    (shifts, sigma). A map is fixed when it is constant up to the shifts
    along each cycle of sigma, which closes when the shifts met around the
    cycle multiply to the identity; then the cycle has |G| fixed choices."""
    group = reference_group(group)
    leq = reference_leq(poset)
    owner = oracle.component_owner(leq)
    k = max(owner) + 1
    auts = oracle.automorphisms(leq)
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
        for shifts in itertools.product(range(group.order), repeat=k):
            fixed = 1
            for cycle in cycles:
                acc = group.identity
                for x in cycle:
                    acc = group.mul(shifts[owner[x]], acc)
                fixed *= group.order if acc == group.identity else 0
            total += fixed
    count, rem = divmod(total, group.order ** k * len(auts))
    assert rem == 0
    return count


def monomial_vanishes_by_products(grading, word):
    """Whether x_1 ... x_m of the given degree word kills every basis
    substitution, decided by multiplying out actual algebra elements."""
    from incgrade.algebra import convolve, e_basis

    poset = grading.poset
    bases = [grading.component_basis(g) for g in word]
    for pairs in itertools.product(*bases):
        product = e_basis(poset, *pairs[0])
        for pair in pairs[1:]:
            product = convolve(product, e_basis(poset, *pair))
            if not product.entries:
                break
        if product.entries:
            return False
    return True


class FractionRowReducer:
    """Canonical reduced echelon basis kept in Fractions: every row is
    scaled to a leading 1 as soon as it is added."""

    def __init__(self, ncols):
        if ncols < 0:
            raise MismatchError("negative column count")
        self.ncols = ncols
        self._rows = []      # pivot rows as lists, sorted by pivot column
        self._pivots = []    # pivot column of each stored row

    @property
    def rank(self):
        return len(self._rows)

    def reduce_row(self, row):
        """Return row minus its projection onto the stored pivot rows."""
        work = [Fraction(v) for v in row]
        if len(work) != self.ncols:
            raise MismatchError(
                f"row has {len(work)} entries, expected {self.ncols}")
        for prow, pcol in zip(self._rows, self._pivots):
            factor = work[pcol]
            if factor:
                for j in range(pcol, self.ncols):
                    work[j] -= factor * prow[j]
        return work

    def add(self, row):
        """Fold a row in; return True iff it was independent of the basis."""
        work = self.reduce_row(row)
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is None:
            return False
        inv = Fraction(1) / work[lead]
        for j in range(lead, self.ncols):
            work[j] *= inv
        for prow in self._rows:
            factor = prow[lead]
            if factor:
                for j in range(lead, self.ncols):
                    prow[j] -= factor * work[j]
        at = next((i for i, p in enumerate(self._pivots) if p > lead),
                  len(self._pivots))
        self._rows.insert(at, work)
        self._pivots.insert(at, lead)
        return True

    def contains(self, row):
        """True iff row lies in the span of the rows added so far."""
        return all(v == 0 for v in self.reduce_row(row))

    def matrix(self):
        return RationalMatrix([tuple(r) for r in self._rows], self.ncols)


def fraction_row_reducer(ncols, rows):
    """A FractionRowReducer with the given rows added in order."""
    reducer = FractionRowReducer(ncols)
    for row in rows:
        reducer.add(row)
    return reducer


def rref(matrix):
    """The unique reduced row echelon form, zero rows trimmed, by the
    Fraction oracle."""
    return fraction_row_reducer(matrix.ncols, matrix.rows).matrix()


def in_span(basis, vector):
    """True iff vector lies in the row space of basis, by the Fraction
    oracle."""
    return fraction_row_reducer(basis.ncols, basis.rows).contains(vector)


def primitive(matrix):
    """The rows of matrix, each scaled to primitive integers with a
    positive leading entry: the form in which nullspace returns a basis."""
    rows = []
    for row in matrix.rows:
        scale = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (scale // v.denominator) for v in row]
        content = gcd(*ints) if next(v for v in ints if v) > 0 else -gcd(*ints)
        rows.append([v // content for v in ints])
    return RationalMatrix(rows, matrix.ncols)


def fraction_nullspace(matrix):
    """Kernel basis in the canonical echelon form, read off the Fraction
    RREF of the matrix with its columns reversed: one vector per free
    column f, 1 at f, 0 at every other free column, and otherwise nonzero
    only right of f. So f leads it and no other vector has an entry
    there. Every vector is checked against every row."""
    n = matrix.ncols
    reduced = rref(RationalMatrix([row[::-1] for row in matrix.rows], n))
    pivot_rows = {next(j for j, v in enumerate(row) if v): row
                  for row in reduced.rows}
    basis = []
    for free in reversed(range(n)):
        if free in pivot_rows:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for pcol, row in pivot_rows.items():
            vec[pcol] = -row[free]
        basis.append(vec[::-1])
    for row in matrix.rows:
        support = [(j, a) for j, a in enumerate(row) if a]
        for vec in basis:
            if sum(a * vec[j] for j, a in support) != 0:
                raise VerificationError("nullspace vector fails M v = 0")
    return RationalMatrix(basis, n)


def brute_force_slice(grading, multidegree):
    """The identity slice of one multidegree from every substitution in
    the product of the components, each tested against all m!
    permutations, streamed into a FractionRowReducer."""
    bases = [grading.component_basis(g) for g in multidegree]
    m = len(bases)
    perms = tuple(itertools.permutations(range(m)))
    fact = len(perms)
    reducer = FractionRowReducer(fact)
    for pairs in itertools.product(*bases):
        if reducer.rank == fact:
            break
        by_output = {}
        for idx, perm in enumerate(perms):
            cur = pairs[perm[0]][0]
            alive = True
            for pos in perm:
                u, v = pairs[pos]
                if u != cur:
                    alive = False
                    break
                cur = v
            if alive:
                start = pairs[perm[0]][0]
                by_output.setdefault((start, cur), set()).add(idx)
        for hits in by_output.values():
            reducer.add([int(i in hits) for i in range(fact)])
    return fraction_nullspace(reducer.matrix())


def slice_search_upto(theta, mu, d):
    """slices_equal_upto by computing every slice: identity_slice of both
    gradings at each multidegree of length 1..d over the union of their
    supports, shortest first and each length in product order. Returns
    (True, None) or (False, first differing multidegree)."""
    alphabet = sorted(set(theta.support()) | set(mu.support()))
    for m in range(1, d + 1):
        for multidegree in itertools.product(alphabet, repeat=m):
            if (identity_slice(theta, multidegree)
                    != identity_slice(mu, multidegree)):
                return False, multidegree
    return True, None


def subspace_equal(a, b):
    """True iff the row spaces coincide (identical canonical bases)."""
    if a.ncols != b.ncols:
        raise MismatchError(
            f"ambient dimensions differ: {a.ncols} vs {b.ncols}")
    return rref(a) == rref(b)


def pairwise_subspace_intersect(a, b):
    """Intersection of two row spaces as the kernel of their two kernel
    bases stacked, each result vector checked against both spaces."""
    if a.ncols != b.ncols:
        raise MismatchError(
            f"ambient dimensions differ: {a.ncols} vs {b.ncols}")
    constraints = (list(fraction_nullspace(a).rows)
                   + list(fraction_nullspace(b).rows))
    result = fraction_nullspace(RationalMatrix(constraints, a.ncols))
    for side in (a, b):
        reducer = fraction_row_reducer(side.ncols, side.rows)
        if not all(reducer.contains(vec) for vec in result.rows):
            raise VerificationError("intersection vector escapes a factor")
    return result


def pairwise_chain_reduction(grading, multidegree):
    """verify_chain_reduction by folding pairwise_subspace_intersect over
    the chain slices and comparing the spaces with subspace_equal."""
    multidegree = tuple(multidegree)
    whole = identity_slice(grading, multidegree)
    chain_dims = []
    meet = None
    for chain in maximal_chains(grading.poset):
        restricted = GradingMap(subposet(grading.poset, chain), grading.group,
                                [grading.theta[i] for i in chain])
        piece = identity_slice(restricted, multidegree)
        chain_dims.append(piece.nrows)
        meet = piece if meet is None else pairwise_subspace_intersect(
            meet, piece)
    equal = subspace_equal(whole, meet)
    return equal, {
        "whole_dimension": whole.nrows,
        "chain_dimensions": chain_dims,
        "intersection_dimension": meet.nrows,
        "equal": equal,
    }


def all_pairs_convolve(f1, f2):
    """Convolution testing every pair of entries for a matching endpoint."""
    f1._check_same(f2)
    out = {}
    for (x, z), a in f1.entries.items():
        for (z2, y), b in f2.entries.items():
            if z == z2:
                out[(x, y)] = out.get((x, y), Fraction(0)) + a * b
    return IncidenceFunction(f1.poset, out)


def segment_ordered_invert(f):
    """Convolution inverse by back-substitution over pairs sorted by the
    size of their segment, each segment built as a Poset."""
    poset = f.poset
    for i in range(poset.n):
        if f(i, i) == 0:
            raise NotInvertibleError(
                f"zero diagonal at {poset.elements[i]!r}")
    leq = reference_leq(poset)
    pairs = sorted(poset.comparable_pairs(), key=lambda p: segment(poset, *p).n)
    inv = {}
    for (x, y) in pairs:
        if x == y:
            inv[(x, y)] = 1 / f(x, x)
            continue
        acc = Fraction(0)
        for z in range(poset.n):
            if z != x and leq[x][z] and leq[z][y]:
                acc += f(x, z) * inv.get((z, y), Fraction(0))
        inv[(x, y)] = -acc / f(x, x)
    g = IncidenceFunction(poset, inv)
    d = delta(poset)
    if all_pairs_convolve(f, g) != d or all_pairs_convolve(g, f) != d:
        raise VerificationError("inverse failed verification against the unit")
    return g


def all_pairs_validate(phi):
    """AlgebraMorphism.validate by every one of the |P|^2 basis products,
    in lexicographic order, then the unit and the rank."""
    poset = phi.poset
    pairs = poset.comparable_pairs()
    for (x, y) in pairs:
        for (u, v) in pairs:
            left = all_pairs_convolve(phi.images[(x, y)], phi.images[(u, v)])
            if y == u:
                right = phi.images[(x, v)]
            else:
                right = IncidenceFunction(poset, {})
            if left != right:
                raise NotAutomorphismError(
                    f"image of e({x},{y}) * e({u},{v}) is not the image of the product")
    unit = IncidenceFunction(poset, {})
    for i in range(poset.n):
        unit = unit + phi.images[(i, i)]
    if unit != delta(poset):
        raise NotAutomorphismError("unit is not preserved")
    reducer = FractionRowReducer(len(pairs))
    col = {pair: k for k, pair in enumerate(pairs)}
    for pair in pairs:
        row = [Fraction(0)] * len(pairs)
        for q, value in phi.images[pair].entries.items():
            row[col[q]] = value
        reducer.add(row)
    if reducer.rank != len(pairs):
        raise NotAutomorphismError("image table is not invertible")


def convolution_inner_auto(r):
    """inner_auto with each image r e_xy r^-1 multiplied out by two
    convolutions."""
    r_inv = segment_ordered_invert(r)
    poset = r.poset
    images = {pair: all_pairs_convolve(
        all_pairs_convolve(r, e_basis(poset, *pair)), r_inv)
        for pair in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def compose_chain_decompose(phi, products=True):
    """decompose_automorphism by composing whole morphisms: peel sigma off
    with induced_auto(sigma^-1), sum r from the idempotent images, peel r
    off with the inner automorphism of r^-1, read s from what is left, and
    compare the rebuilt composite with phi. all_pairs_validate runs first
    unless products is false; then a map that is not an automorphism fails
    at the first step that rejects it, with that step's message."""
    if products:
        all_pairs_validate(phi)
    poset = phi.poset
    sigma = []
    for x in range(poset.n):
        image = phi.images[(x, x)]
        hits = [y for y in range(poset.n) if image(y, y) == 1]
        if len(hits) != 1:
            raise NotAutomorphismError(
                f"image of e({x},{x}) has no unique unit diagonal entry")
        sigma.append(hits[0])
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(poset.n)):
        raise NotAutomorphismError("diagonal tracking did not yield a permutation")

    phi_prime = phi.compose(induced_auto(poset, inverse_permutation(sigma)))
    r = IncidenceFunction(poset, {})
    for x in range(poset.n):
        r = r + all_pairs_convolve(phi_prime.images[(x, x)], e_basis(poset, x, x))
    if any(r(x, x) == 0 for x in range(poset.n)):
        raise NotAutomorphismError("reconstructed conjugator has a zero diagonal")

    peel = convolution_inner_auto(segment_ordered_invert(r)).compose(phi_prime)
    values = {}
    for (x, y) in poset.comparable_pairs():
        image = peel.images[(x, y)]
        c = image(x, y)
        if c == 0 or image != c * e_basis(poset, x, y):
            raise NotAutomorphismError(
                f"residual map does not scale e({x},{y})")
        values[(x, y)] = c
    s = IncidenceFunction(poset, values)
    if not is_multiplicative(s):
        raise NotAutomorphismError("residual scaling is not multiplicative")

    rebuilt = convolution_inner_auto(r).compose(mult_auto(s)).compose(
        induced_auto(poset, sigma))
    if rebuilt != phi:
        raise NotAutomorphismError("reconstruction does not match the input")
    return r, s, sigma


def loop_poset_covers(elements, leq):
    """Poset's cycle check and cover search by plain loops over a closed
    matrix: the same error, naming the same pair, or the covers."""
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise MalformedInputError(
                    f"{elements[i]!r} and {elements[j]!r} are mutually comparable")
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(leq[i][z] and leq[z][j]
                   for z in range(n) if z != i and z != j):
                continue
            covers.append((i, j))
    return tuple(sorted(covers))


def matrix_of(rows, n):
    """The n x n boolean matrix of n bit rows."""
    return [[bool(row >> j & 1) for j in range(n)] for row in rows]


def loop_close(n, edges):
    """Reflexive-transitive closure of a relation by Warshall's triple
    loop over a boolean matrix."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"relation pair value out of range 0..{n - 1}")
        leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def _max_degree(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def argparse_reading(argv, commands):
    """How an argparse parser with incgrade's command and flags reads argv:
    ("ok", {dest: value}), ("help",) or ("error", its stderr line)."""
    parser = argparse.ArgumentParser(prog="incgrade")
    parser.add_argument("command", choices=sorted(commands))
    for flag in ("poset", "group", "theta", "mu", "multidegree", "morphism"):
        parser.add_argument(f"--{flag}")
    parser.add_argument("--max-degree", type=_max_degree, default=3)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--seed", type=int, default=0)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return "ok", vars(parser.parse_args(argv))
        except SystemExit as exc:
            if exc.code == 0:
                return ("help",)
    text = err.getvalue()  # the usage, then the error line
    return "error", text[text.index("incgrade: error: "):-1]
