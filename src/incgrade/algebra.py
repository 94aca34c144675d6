"""Exact arithmetic in the incidence algebra of a finite poset over the
rationals: convolution, Hadamard product, triangular inversion, the basis
functions e_xy with the unit delta and all-ones zeta, evaluation of a
multilinear polynomial at comparable pairs, multiplicative functions, and
the inner / multiplicative / induced automorphism families with
constructive decomposition of an arbitrary automorphism into the three,
which is also the check that a linear map is an automorphism.

Values at the API are fractions.Fraction. Convolution, inversion and the
decomposition run fraction-free inside: each operand is read once
as integer numerators over one common denominator, and Fractions are
built only for the values a routine returns.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import factorial, gcd, lcm

from .errors import (
    MalformedInputError,
    MismatchError,
    NotAutomorphismError,
    NotInvertibleError,
    NotMultiplicativeError,
    VerificationError,
)
from .linalg import format_rational, parse_rational
from .poset import (_bits, _check_leq, _is_index_pair, inverse_permutation,
                    linear_extension)


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
            _check_leq(poset, x, y)
            if value:
                cleaned[(x, y)] = value
        self.entries = cleaned

    def __call__(self, x, y):
        return self.entries.get((x, y), Fraction(0))

    def support(self):
        return tuple(sorted(self.entries))

    def _check_same(self, other):
        if self.poset != other.poset:
            raise MismatchError("functions live over different posets")

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

    def __repr__(self):
        if not self.entries:
            return "IncidenceFunction(0)"
        terms = " + ".join(
            f"{format_rational(v)}*e({self.poset.elements[x]},{self.poset.elements[y]})"
            for (x, y), v in sorted(self.entries.items()))
        return f"IncidenceFunction({terms})"


def function_from_json(poset, obj):
    """Read {"entries": [[x, y, "num/den"], ...]} with 0 <= x, y < n, each
    index pair listed at most once."""
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 and _is_index_pair(e[:2])
            for e in entries):
        raise MalformedInputError(
            'entries must be a list of [x, y, "num/den"] with integer x, y')
    values = {}
    for x, y, value in entries:
        if not (0 <= x < poset.n and 0 <= y < poset.n):
            raise MalformedInputError(
                f"entry index pair ({x}, {y}) out of range for {poset.n} elements")
        if (x, y) in values:
            raise MalformedInputError(f"entry index pair ({x}, {y}) listed twice")
        values[(x, y)] = value
    return IncidenceFunction(
        poset, {pair: parse_rational(value) for pair, value in values.items()})


def function_to_json(f):
    return {"entries": [[x, y, format_rational(v)]
                        for (x, y), v in sorted(f.entries.items())]}


def e_basis(poset, x, y):
    """Indicator of the single comparable pair (x, y)."""
    return IncidenceFunction(poset, {(x, y): Fraction(1)})


def delta(poset):
    """The unit: 1 on the diagonal, 0 elsewhere."""
    return IncidenceFunction(
        poset, {(i, i): Fraction(1) for i in range(poset.n)})


def zeta(poset):
    """All ones on every comparable pair."""
    return IncidenceFunction(
        poset, {pair: Fraction(1) for pair in poset.comparable_pairs()})


def _integer_entries(f):
    """f's values as integer numerators over one common denominator, the
    lcm of theirs: (numerators by pair, denominator)."""
    den = lcm(*[v.denominator for v in f.entries.values()])
    return {pair: v.numerator * (den // v.denominator)
            for pair, v in f.entries.items()}, den


def _function(poset, numerators, den):
    """The IncidenceFunction with values numerators / den."""
    return IncidenceFunction(
        poset, {pair: Fraction(v, den) for pair, v in numerators.items()})


def _product(a, b):
    """Convolution of two numerator tables: the numerators of f1 f2 over
    the product of their denominators, zeros dropped. b is bucketed by
    left endpoint once, so each entry (x, z) of a meets only the entries
    (z, y) of b that it multiplies with."""
    starting = {}
    for (z, y), v in b.items():
        starting.setdefault(z, []).append((y, v))
    out = {}
    for (x, z), u in a.items():
        for y, v in starting.get(z, ()):
            out[(x, y)] = out.get((x, y), 0) + u * v
    return {pair: v for pair, v in out.items() if v}


def _same(a, da, b, db):
    """Whether a / da = b / db, for numerator tables without zeros and
    nonzero denominators, by cross-multiplication."""
    return a.keys() == b.keys() and all(
        v * db == b[pair] * da for pair, v in a.items())


def convolve(f1, f2):
    """(f1 f2)(x, y) = sum over x <= z <= y of f1(x, z) f2(z, y).

    Multiplies and adds integer numerators; one Fraction is built per
    nonzero entry of the result.
    """
    f1._check_same(f2)
    a, da = _integer_entries(f1)
    b, db = _integer_entries(f2)
    return _function(f1.poset, _product(a, b), da * db)


def hadamard(f1, f2):
    """Entrywise product on comparable pairs."""
    f1._check_same(f2)
    out = {pair: value * f2.entries[pair]
           for pair, value in f1.entries.items() if pair in f2.entries}
    return IncidenceFunction(f1.poset, out)


def evaluate(poset, coefficients, pairs):
    """Value at one comparable pair per variable, by exact convolution, of
    the multilinear polynomial with m = len(pairs) variables given by its
    m! coefficients over the monomials x_{pi(1)} ... x_{pi(m)}, pi in
    itertools.permutations(range(m)) order, as a slice's rows hold them.
    Every pair is checked, even one only zero coefficients use."""
    pairs = [(int(x), int(y)) for x, y in pairs]
    m = len(pairs)
    if not m or len(coefficients) != factorial(m):
        raise MismatchError(
            f"{len(coefficients)} coefficients for {m} pairs, need m! with m >= 1")
    for x, y in pairs:
        _check_leq(poset, x, y)
    out = IncidenceFunction(poset, {})
    for perm, coeff in zip(permutations(range(m)), coefficients):
        if coeff:
            term = reduce(convolve, (e_basis(poset, *pairs[j]) for j in perm))
            out = out + coeff * term
    return out


def _inverse(poset, numerators, den):
    """The convolution inverse of numerators / den, checked against the
    unit, as (numerators, denominator); see invert."""
    for i in range(poset.n):
        if (i, i) not in numerators:
            raise NotInvertibleError(
                f"zero diagonal at {poset.elements[i]!r}")
    above = {}
    for (x, z), a in numerators.items():
        if x != z:
            above.setdefault(x, []).append((z, a))
    rows = {}
    for x in reversed(linear_extension(poset)):
        terms = above.get(x, ())
        scale = lcm(*[rows[z][1] for z, _ in terms])
        acc = {}
        for z, a in terms:
            row, d = rows[z]
            a *= scale // d
            for y, b in row.items():
                acc[y] = acc.get(y, 0) + a * b
        row = {y: -v for y, v in acc.items() if v}
        row[x] = den * scale
        d = numerators[(x, x)] * scale
        content = gcd(d, *row.values())
        if d < 0:
            content = -content
        rows[x] = {y: v // content for y, v in row.items()}, d // content
    common = lcm(*[d for _, d in rows.values()])
    g = {(x, y): v * (common // d)
         for x, (row, d) in rows.items() for y, v in row.items()}
    unit, unit_den = _integer_entries(delta(poset))
    if not _same(_product(numerators, g), den * common, unit, unit_den):
        raise VerificationError("inverse failed verification against the unit")
    return g, common


def invert(f):
    """Two-sided convolution inverse; needs every diagonal value nonzero.

    Solved by back-substitution, one row x at a time:
    g(x, y) = -f(x, x)^-1 * sum over x < z <= y of f(x, z) g(z, y) for
    y > x, which needs only the rows z strictly above x. Rows are taken
    in the reverse of poset.linear_extension (descending down-set size,
    then descending index), so every row z above x comes before x. Only
    the nonzero entries f(x, z) and g(z, y) are visited.

    The work is on integers: f is read once as numerators over one
    denominator, and each row of g is kept as integer numerators over its
    own positive denominator, divided by their common gcd. The check
    f g = delta compares cross-multiplied integers, so on a unit diagonal
    (the Mobius function, the inverse of zeta) no Fraction is built before
    the result. It is two-sided: in the finite-dimensional algebra I(P),
    f g = delta forces g f = delta.
    """
    g, den = _inverse(f.poset, *_integer_entries(f))
    return _function(f.poset, g, den)


def is_multiplicative(s):
    """True iff s is nonzero on every comparable pair and
    s(x, z) s(z, y) = s(x, y) whenever x <= z <= y."""
    poset = s.poset
    pairs = poset.comparable_pairs()
    return all(s(x, y) != 0 for (x, y) in pairs) and all(
        s(x, z) * s(z, y) == s(x, y)
        for (x, y) in pairs for z in _bits(poset.up[x] & poset.down[y]))


class AlgebraMorphism:
    """Linear map recorded by the image of every basis element e_xy.

    validate() checks that the table extends to an algebra automorphism
    by decomposing it (see decompose_automorphism).
    """

    def __init__(self, poset, images):
        self.poset = poset
        self.images = dict(images)
        pairs = set(poset.comparable_pairs())
        if set(self.images) != pairs:
            raise NotAutomorphismError("image table must cover every basis pair")
        for img in self.images.values():
            if img.poset != poset:
                raise MismatchError("image over a different poset")

    def apply(self, f):
        if f.poset != self.poset:
            raise MismatchError("argument over a different poset")
        out = {}
        for pair, value in f.entries.items():
            for q, c in self.images[pair].entries.items():
                out[q] = out.get(q, 0) + value * c
        return IncidenceFunction(self.poset, out)

    def compose(self, other):
        """self after other."""
        if self.poset != other.poset:
            raise MismatchError("morphisms over different posets")
        return AlgebraMorphism(
            self.poset,
            {pair: self.apply(img) for pair, img in other.images.items()})

    def validate(self):
        """Raise NotAutomorphismError unless this is an algebra automorphism.

        Every automorphism of I(P, F) is inner ∘ multiplicative ∘ induced
        (Stanley, Bull. AMS 76, 1970; Baclawski, Proc. AMS 36, 1972), and a
        map that passes every step of decompose_automorphism equals such a
        composite. So the map is an automorphism exactly when it decomposes,
        and the first step that fails is named.
        """
        decompose_automorphism(self)

    def __eq__(self, other):
        if not isinstance(other, AlgebraMorphism):
            return NotImplemented
        return self.poset == other.poset and self.images == other.images

    def __repr__(self):
        return f"AlgebraMorphism(on {self.poset.n} elements)"


def morphism_from_json(poset, obj):
    """Read a list of {"pair": [x, y], "image": [[u, v, "c"], ...]}, each
    pair listed at most once."""
    if not isinstance(obj, list) or not all(
            isinstance(item, dict) and _is_index_pair(item.get("pair"))
            for item in obj):
        raise MalformedInputError(
            'morphism JSON must be a list of {"pair": [x, y], "image": [...]}')
    images = {}
    for item in obj:
        pair = tuple(item["pair"])
        if pair in images:
            raise MalformedInputError(f"pair ({pair[0]}, {pair[1]}) listed twice")
        images[pair] = function_from_json(poset, {"entries": item.get("image")})
    return AlgebraMorphism(poset, images)


def _conjugator(r):
    """(conjugate, den) for an invertible r: conjugate(x, y) returns the
    integer numerators of r e_xy r^-1 over den, the outer product of
    column x of r and row y of r^-1 (see inner_auto)."""
    numerators, r_den = _integer_entries(r)
    inverse, inverse_den = _inverse(r.poset, numerators, r_den)
    columns, rows = {}, {}
    for (u, x), a in numerators.items():
        columns.setdefault(x, []).append((u, a))
    for (y, v), b in inverse.items():
        rows.setdefault(y, []).append((v, b))

    def conjugate(x, y):
        return {(u, v): a * b for u, a in columns[x] for v, b in rows[y]}

    return conjugate, r_den * inverse_den


def inner_auto(r):
    """Conjugation f -> r f r^{-1} by an invertible r.

    Each image is an outer product, with no convolution:
    (r e_xy r^-1)(u, v) = sum over w, z of r(u, w) e_xy(w, z) r^-1(z, v)
    = r(u, x) r^-1(y, v), as e_xy(w, z) is 1 at (x, y) and 0 elsewhere.
    r^-1 comes from the integer kernel of invert, with its check, and
    the products are taken on integer numerators.
    """
    poset = r.poset
    conjugate, den = _conjugator(r)
    return AlgebraMorphism(poset, {
        pair: _function(poset, conjugate(*pair), den)
        for pair in poset.comparable_pairs()})


def mult_auto(s):
    """Hadamard multiplication f -> s * f by a multiplicative s."""
    if not is_multiplicative(s):
        raise NotMultiplicativeError("s is not multiplicative")
    poset = s.poset
    images = {(x, y): s(x, y) * e_basis(poset, x, y)
              for (x, y) in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def _check_automorphism(poset, sigma):
    """Raise NotAutomorphismError unless the tuple sigma is an order
    automorphism of poset."""
    if sorted(sigma) != list(range(poset.n)):
        raise NotAutomorphismError("sigma is not a permutation")
    if any(sum(1 << sigma[j] for j in _bits(row)) != poset.up[sigma[i]]
           for i, row in enumerate(poset.up)):
        raise NotAutomorphismError("sigma does not preserve the order")


def induced_auto(poset, sigma):
    """Relabeling automorphism e_xy -> e_{sigma(x) sigma(y)} from a poset
    automorphism sigma given as a permutation tuple."""
    sigma = tuple(sigma)
    _check_automorphism(poset, sigma)
    images = {(x, y): e_basis(poset, sigma[x], sigma[y])
              for (x, y) in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def decompose_automorphism(phi):
    """Split an automorphism as inner ∘ multiplicative ∘ induced, or raise
    NotAutomorphismError naming the first step that fails.

    Returns (r, s, sigma) with phi = inner_auto(r) ∘ mult_auto(s) ∘
    induced_auto(sigma); sigma is the unique such poset automorphism.
    Every automorphism decomposes this way, and a map that passes every
    step equals the composite, so this is also AlgebraMorphism.validate.

    Steps: sigma(x) is the unique y where phi(e_xx) has diagonal value 1.
    Peeling sigma off leaves phi' = phi ∘ induced_auto(sigma^-1), read by
    relabelling: phi'(e_xy) = phi(e_{sigma^-1(x) sigma^-1(y)}). Column x
    of r = sum of phi'(e_xx) e_xx is column x of phi'(e_xx), so r(x, x) = 1
    by the choice of sigma and r is invertible. Conjugating back by r must
    leave a map that scales each e_xy by a factor s(x, y):
    r^-1 phi'(e_xy) r = c e_xy with c != 0. Conjugation is bijective, so
    that is phi'(e_xy) = c r e_xy r^-1, tested against the closed-form
    outer product of inner_auto. Evaluating both sides at (x, y) gives
    c = phi'(e_xy)(x, y) r(y, y) / r(x, x). Then s must be multiplicative.
    No rebuild of phi from (r, s, sigma) is compared: phi(e_uv) =
    s(sigma u, sigma v) r e_{sigma u sigma v} r^-1 is, with x = sigma u and
    y = sigma v, the scaling test at (x, y) once more, and sigma permutes
    the comparable pairs. All comparisons run on integer numerators by
    cross-multiplication.
    """
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

    back = inverse_permutation(sigma)
    _check_automorphism(poset, back)
    images = {pair: _integer_entries(img) for pair, img in phi.images.items()}
    r = IncidenceFunction(poset, {
        (u, x): value for x in range(poset.n)
        for (u, v), value in phi.images[(back[x], back[x])].entries.items()
        if v == x})

    conjugate, den = _conjugator(r)
    values = {}
    for (x, y) in poset.comparable_pairs():
        image, image_den = images[(back[x], back[y])]
        target = conjugate(x, y)
        a, t = image.get((x, y), 0), target[(x, y)]
        if not a or not _same(image, a, target, t):
            raise NotAutomorphismError(
                f"residual map does not scale e({x},{y})")
        values[(x, y)] = Fraction(a * den, image_den * t)
    s = IncidenceFunction(poset, values)
    if not is_multiplicative(s):
        raise NotAutomorphismError("residual scaling is not multiplicative")
    return r, s, sigma
