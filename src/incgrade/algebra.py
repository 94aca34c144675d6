"""Exact arithmetic in the incidence algebra of a finite poset over the
rationals: convolution, Hadamard product, triangular inversion, the basis
functions e_xy with the unit delta and all-ones zeta, multiplicative
functions, and the inner / multiplicative / induced automorphism families
with constructive decomposition of an arbitrary automorphism into the
three.
"""

from fractions import Fraction

from .errors import (
    DecompositionError,
    MalformedInputError,
    NotAutomorphismError,
    NotComparableError,
    NotInvertibleError,
    NotMultiplicativeError,
    PosetMismatchError,
    VerificationError,
)
from .linalg import RowReducer, format_rational, parse_rational
from .poset import _is_index_pair, inverse_permutation


class IncidenceFunction:
    """Element of the incidence algebra: a map from comparable pairs to
    rationals, stored sparsely (absent pair = zero, stored values nonzero).
    """

    def __init__(self, poset, entries=None):
        self.poset = poset
        cleaned = {}
        for (x, y), value in (entries or {}).items():
            if type(value) is not Fraction:
                value = Fraction(value)
            if not poset.leq[x][y]:
                raise NotComparableError(
                    f"({poset.elements[x]!r}, {poset.elements[y]!r}) is not a comparable pair")
            if value:
                cleaned[(x, y)] = value
        self.entries = cleaned

    def __call__(self, x, y):
        return self.entries.get((x, y), Fraction(0))

    def support(self):
        return tuple(sorted(self.entries))

    def _check_same(self, other):
        if self.poset != other.poset:
            raise PosetMismatchError("functions live over different posets")

    def __add__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        self._check_same(other)
        merged = dict(self.entries)
        for pair, value in other.entries.items():
            merged[pair] = merged.get(pair, Fraction(0)) + value
        return IncidenceFunction(self.poset, merged)

    def __neg__(self):
        return IncidenceFunction(
            self.poset, {p: -v for p, v in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IncidenceFunction):
            return convolve(self, other)
        return IncidenceFunction(
            self.poset,
            {p: v * Fraction(other) for p, v in self.entries.items()})

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __eq__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        return self.poset == other.poset and self.entries == other.entries

    def __hash__(self):
        return hash((self.poset, frozenset(self.entries.items())))

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        if not self.entries:
            return "IncidenceFunction(0)"
        terms = " + ".join(
            f"{format_rational(v)}*e({self.poset.elements[x]},{self.poset.elements[y]})"
            for (x, y), v in sorted(self.entries.items()))
        return f"IncidenceFunction({terms})"


def function_from_json(poset, obj):
    """Read {"entries": [[x, y, "num/den"], ...]} with 0 <= x, y < n."""
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 and _is_index_pair(e[:2])
            for e in entries):
        raise MalformedInputError(
            'entries must be a list of [x, y, "num/den"] with integer x, y')
    for x, y, _ in entries:
        if not (0 <= x < poset.n and 0 <= y < poset.n):
            raise MalformedInputError(
                f"entry index pair ({x}, {y}) out of range for {poset.n} elements")
    return IncidenceFunction(
        poset, {(x, y): parse_rational(value) for x, y, value in entries})


def function_to_json(f):
    return {"entries": [[x, y, format_rational(v)]
                        for (x, y), v in sorted(f.entries.items())]}


def e_basis(poset, x, y):
    """Indicator of the single comparable pair (x, y)."""
    if not poset.leq[x][y]:
        raise NotComparableError(
            f"({poset.elements[x]!r}, {poset.elements[y]!r}) is not a comparable pair")
    return IncidenceFunction(poset, {(x, y): Fraction(1)})


def delta(poset):
    """The unit: 1 on the diagonal, 0 elsewhere."""
    return IncidenceFunction(
        poset, {(i, i): Fraction(1) for i in range(poset.n)})


def zeta(poset):
    """All ones on every comparable pair."""
    return IncidenceFunction(
        poset, {pair: Fraction(1) for pair in poset.comparable_pairs()})


def convolve(f1, f2):
    """(f1 f2)(x, y) = sum over x <= z <= y of f1(x, z) f2(z, y).

    f2 is bucketed by left endpoint once, so each entry (x, z) of f1 meets
    only the entries (z, y) of f2 that it multiplies with.
    """
    f1._check_same(f2)
    starting = {}
    for (z, y), b in f2.entries.items():
        starting.setdefault(z, []).append((y, b))
    out = {}
    for (x, z), a in f1.entries.items():
        for y, b in starting.get(z, ()):
            out[(x, y)] = out.get((x, y), 0) + a * b
    return IncidenceFunction(f1.poset, out)


def hadamard(f1, f2):
    """Entrywise product on comparable pairs."""
    f1._check_same(f2)
    out = {pair: value * f2.entries[pair]
           for pair, value in f1.entries.items() if pair in f2.entries}
    return IncidenceFunction(f1.poset, out)


def invert(f):
    """Two-sided convolution inverse; needs every diagonal value nonzero.

    Solved by back-substitution, one row x at a time:
    g(x, y) = -f(x, x)^-1 * sum over x < z <= y of f(x, z) g(z, y) for
    y > x, which needs only the rows z strictly above x. Rows are taken
    in ascending size of the up-set |up(x)| (counted from leq), a reverse
    linear extension, since z > x forces up(z) to be a proper subset of
    up(x). Only the nonzero entries f(x, z) and g(z, y) are visited.
    """
    poset = f.poset
    entries = f.entries
    for i in range(poset.n):
        if (i, i) not in entries:
            raise NotInvertibleError(
                f"zero diagonal at {poset.elements[i]!r}")
    above = {}
    for (x, z), a in entries.items():
        if x != z:
            above.setdefault(x, []).append((z, a))
    rows = {}
    for x in sorted(range(poset.n), key=lambda i: sum(poset.leq[i])):
        acc = {}
        for z, a in above.get(x, ()):
            for y, b in rows[z].items():
                acc[y] = acc.get(y, 0) + a * b
        inv = 1 / entries[(x, x)]
        rows[x] = {y: -value * inv for y, value in acc.items() if value}
        rows[x][x] = inv
    g = IncidenceFunction(poset, {(x, y): value for x, row in rows.items()
                                  for y, value in row.items()})
    d = delta(poset)
    if convolve(f, g) != d or convolve(g, f) != d:
        raise VerificationError("inverse failed verification against the unit")
    return g


def is_multiplicative(s):
    """True iff s is nonzero on every comparable pair and
    s(x, z) s(z, y) = s(x, y) whenever x <= z <= y."""
    poset = s.poset
    pairs = poset.comparable_pairs()
    if any(s(x, y) == 0 for (x, y) in pairs):
        return False
    for (x, y) in pairs:
        for z in range(poset.n):
            if poset.leq[x][z] and poset.leq[z][y]:
                if s(x, z) * s(z, y) != s(x, y):
                    return False
    return True


class AlgebraMorphism:
    """Linear map recorded by the image of every basis element e_xy.

    validate() checks that the table extends to an algebra automorphism:
    it preserves all basis products, sends the unit to the unit, and is
    invertible as a linear map.
    """

    def __init__(self, poset, images):
        self.poset = poset
        self.images = dict(images)
        pairs = set(poset.comparable_pairs())
        if set(self.images) != pairs:
            raise NotAutomorphismError("image table must cover every basis pair")
        for img in self.images.values():
            if img.poset != poset:
                raise PosetMismatchError("image over a different poset")

    def apply(self, f):
        if f.poset != self.poset:
            raise PosetMismatchError("argument over a different poset")
        out = {}
        for pair, value in f.entries.items():
            for q, c in self.images[pair].entries.items():
                out[q] = out.get(q, 0) + value * c
        return IncidenceFunction(self.poset, out)

    def compose(self, other):
        """self after other."""
        if self.poset != other.poset:
            raise PosetMismatchError("morphisms over different posets")
        return AlgebraMorphism(
            self.poset,
            {pair: self.apply(img) for pair, img in other.images.items()})

    def validate(self):
        """Raise NotAutomorphismError unless this is an algebra automorphism.

        With E_x = phi(e_xx), phi preserves every basis product
        e_xy e_uv = [y = u] e_xv if and only if
          (a) E_x E_u = [x = u] E_x for all x, u;
          (b) E_x phi(e_xy) = phi(e_xy) = phi(e_xy) E_y for x <= y;
          (c) phi(e_xy) phi(e_yv) = phi(e_xv) for x <= y <= v.
        Each is itself a basis product, and they suffice: for y != u,
        phi(e_xy) phi(e_uv) = phi(e_xy) E_y E_u phi(e_uv) = 0 by (b), (a).
        (b) is (c) at y = x and at v = y, so the products checked are
        (a) and (c), n^2 - n + sum over x <= y of |up(y)| in all instead of
        |P|^2, in lexicographic order of the pair of factors. The first
        failing one is named.
        """
        poset = self.poset
        images = self.images
        pairs = poset.comparable_pairs()
        zero = IncidenceFunction(poset, {})
        diagonal = [(u, u) for u in range(poset.n)]
        for (x, y) in pairs:
            right_factors = [(y, v) for v in range(poset.n) if poset.leq[y][v]]
            if x == y:
                right_factors = sorted(set(right_factors).union(diagonal))
            for (u, v) in right_factors:
                right = images[(x, v)] if y == u else zero
                if convolve(images[(x, y)], images[(u, v)]) != right:
                    raise NotAutomorphismError(
                        f"image of e({x},{y}) * e({u},{v}) is not the image of the product")
        unit = IncidenceFunction(poset, {})
        for i in range(poset.n):
            unit = unit + self.images[(i, i)]
        if unit != delta(poset):
            raise NotAutomorphismError("unit is not preserved")
        reducer = RowReducer(len(pairs))
        col = {pair: k for k, pair in enumerate(pairs)}
        for pair in pairs:
            row = [Fraction(0)] * len(pairs)
            for q, value in self.images[pair].entries.items():
                row[col[q]] = value
            reducer.add(row)
        if reducer.rank != len(pairs):
            raise NotAutomorphismError("image table is not invertible")

    def __eq__(self, other):
        if not isinstance(other, AlgebraMorphism):
            return NotImplemented
        return self.poset == other.poset and self.images == other.images

    def __repr__(self):
        return f"AlgebraMorphism(on {self.poset.n} elements)"


def morphism_from_json(poset, obj):
    """Read a list of {"pair": [x, y], "image": [[u, v, "c"], ...]}."""
    if not isinstance(obj, list) or not all(
            isinstance(item, dict) and _is_index_pair(item.get("pair"))
            for item in obj):
        raise MalformedInputError(
            'morphism JSON must be a list of {"pair": [x, y], "image": [...]}')
    return AlgebraMorphism(poset, {
        tuple(item["pair"]): function_from_json(
            poset, {"entries": item.get("image")})
        for item in obj})


def morphism_to_json(phi):
    return [{"pair": [x, y],
             "image": function_to_json(phi.images[(x, y)])["entries"]}
            for (x, y) in sorted(phi.images)]


def inner_auto(r):
    """Conjugation f -> r f r^{-1} by an invertible r."""
    r_inv = invert(r)
    poset = r.poset
    images = {pair: convolve(convolve(r, e_basis(poset, *pair)), r_inv)
              for pair in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def mult_auto(s):
    """Hadamard multiplication f -> s * f by a multiplicative s."""
    if not is_multiplicative(s):
        raise NotMultiplicativeError("s is not multiplicative")
    poset = s.poset
    images = {(x, y): s(x, y) * e_basis(poset, x, y)
              for (x, y) in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def induced_auto(poset, sigma):
    """Relabeling automorphism e_xy -> e_{sigma(x) sigma(y)} from a poset
    automorphism sigma given as a permutation tuple."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(poset.n)):
        raise NotAutomorphismError("sigma is not a permutation")
    for i in range(poset.n):
        for j in range(poset.n):
            if poset.leq[i][j] != poset.leq[sigma[i]][sigma[j]]:
                raise NotAutomorphismError("sigma does not preserve the order")
    images = {(x, y): e_basis(poset, sigma[x], sigma[y])
              for (x, y) in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def decompose_automorphism(phi):
    """Split a validated automorphism as inner ∘ multiplicative ∘ induced.

    Returns (r, s, sigma) with phi = inner_auto(r) ∘ mult_auto(s) ∘
    induced_auto(sigma); sigma is the unique such poset automorphism.

    Steps: sigma(x) is the unique y where phi(e_xx) has diagonal value 1;
    peeling sigma off leaves phi' whose idempotent images define
    r = sum of phi'(e_xx) e_xx; conjugating back by r leaves a map that
    scales each e_xy by a multiplicative factor, which is s.
    """
    phi.validate()
    poset = phi.poset
    sigma = []
    for x in range(poset.n):
        image = phi.images[(x, x)]
        hits = [y for y in range(poset.n) if image(y, y) == 1]
        if len(hits) != 1:
            raise DecompositionError(
                f"image of e({x},{x}) has no unique unit diagonal entry")
        sigma.append(hits[0])
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(poset.n)):
        raise DecompositionError("diagonal tracking did not yield a permutation")

    phi_prime = phi.compose(induced_auto(poset, inverse_permutation(sigma)))
    r = IncidenceFunction(poset, {})
    for x in range(poset.n):
        r = r + convolve(phi_prime.images[(x, x)], e_basis(poset, x, x))
    if any(r(x, x) == 0 for x in range(poset.n)):
        raise DecompositionError("reconstructed conjugator has a zero diagonal")

    peel = inner_auto(invert(r)).compose(phi_prime)
    values = {}
    for (x, y) in poset.comparable_pairs():
        image = peel.images[(x, y)]
        c = image(x, y)
        if c == 0 or image != c * e_basis(poset, x, y):
            raise DecompositionError(
                f"residual map does not scale e({x},{y})")
        values[(x, y)] = c
    s = IncidenceFunction(poset, values)
    if not is_multiplicative(s):
        raise DecompositionError("residual scaling is not multiplicative")

    rebuilt = inner_auto(r).compose(mult_auto(s)).compose(
        induced_auto(poset, sigma))
    if rebuilt != phi:
        raise DecompositionError("reconstruction does not match the input")
    return r, s, sigma
