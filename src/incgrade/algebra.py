"""Exact arithmetic in the incidence algebra of a finite poset over the
rationals: convolution, Hadamard product, triangular inversion, the basis
functions e_xy with the unit delta and all-ones zeta, evaluation of a
multilinear polynomial at comparable pairs, multiplicative functions, and
the inner / multiplicative / induced automorphism families with
constructive decomposition of an arbitrary automorphism into the three,
which is also the check that a linear map is an automorphism.

An IncidenceFunction is integer numerators over one positive denominator,
and every routine computes on those integers. A fractions.Fraction is
built only where a caller reads a value (f(x, y), f.entries) or gives one
with no .denominator, such as a float or a string.
"""

from collections.abc import Hashable, Mapping
from functools import reduce
from itertools import permutations
from math import factorial, gcd, lcm

from .corpus import format_rational, parse_rational
from .errors import (
    MalformedInputError,
    MismatchError,
    NotAutomorphismError,
    NotInvertibleError,
    NotMultiplicativeError,
    VerificationError,
)
from .poset import (_bits, _check_automorphism, _check_leq, _indices,
                    _sequence, _written, inverse_permutation, linear_extension)


def _ratio(value):
    """(numerator, denominator) of any value fractions.Fraction accepts;
    any other value is malformed."""
    if not hasattr(value, "denominator"):
        from fractions import Fraction

        try:
            value = Fraction(value)
        except (ValueError, TypeError, ZeroDivisionError, OverflowError):
            shown = _written(value, "function value", repr)
            raise MalformedInputError(f"not a rational number: {shown}") from None
    return value.numerator, value.denominator


def _common(ratios):
    """(num, den) for the values n / d of ratios (pair -> (n, d), d a
    nonzero int of either sign): their numerators, zeros included, over
    one positive denominator, in lowest terms."""
    den = lcm(*[d for _, d in ratios.values()])
    num = {pair: n * (den // d) for pair, (n, d) in ratios.items()}
    content = gcd(den, *num.values())
    return {pair: n // content for pair, n in num.items()}, den // content


class IncidenceFunction:
    """Element of the incidence algebra: a map from comparable pairs to
    rationals, stored sparsely as num (pair -> nonzero int) over den > 0,
    with gcd(den, *num.values()) == 1. entries maps comparable pairs to
    values, anything fractions.Fraction accepts, divided by the int den.
    """

    def __init__(self, poset, entries=None, den=1):
        if not isinstance(den, int) or not den:
            raise MalformedInputError("den must be a nonzero integer, got "
                                      f"{_written(den, 'den', repr)}")
        if not isinstance(entries, (Mapping, type(None))):
            raise MalformedInputError(
                f"entries must be a mapping, not {type(entries).__name__}")
        self.poset = poset
        ratios = {}
        for pair, value in (entries or {}).items():
            n, d = _ratio(value)
            ratios[_check_leq(poset, pair)] = n, d * den
        num, self.den = _common(ratios)
        self.num = {pair: n for pair, n in num.items() if n}

    def __call__(self, x, y):
        from fractions import Fraction

        return Fraction(self.num.get((x, y), 0), self.den)

    @property
    def entries(self):
        """The nonzero values by pair, as Fractions."""
        from fractions import Fraction

        return {pair: Fraction(n, self.den) for pair, n in self.num.items()}

    def support(self):
        return tuple(sorted(self.num))

    def _check_same(self, other):
        if self.poset != other.poset:
            raise MismatchError("functions live over different posets")

    def __add__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        self._check_same(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        merged = {pair: n * a for pair, n in self.num.items()}
        for pair, n in other.num.items():
            merged[pair] = merged.get(pair, 0) + n * b
        return IncidenceFunction(self.poset, merged, den)

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IncidenceFunction):
            return convolve(self, other)
        n, d = _ratio(other)
        return IncidenceFunction(
            self.poset, {p: v * n for p, v in self.num.items()}, self.den * d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IncidenceFunction):
            return NotImplemented
        return (self.poset == other.poset and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.poset, frozenset(self.num.items()), self.den))

    def __repr__(self):
        if not self.num:
            return "IncidenceFunction(0)"
        terms = " + ".join(
            f"{format_rational(n, self.den)}"
            f"*e({self.poset.elements[x]},{self.poset.elements[y]})"
            for (x, y), n in sorted(self.num.items()))
        return f"IncidenceFunction({terms})"


def function_from_json(poset, obj):
    """Read {"entries": [[x, y, "num/den"], ...]}, each pair listed at most
    once; IncidenceFunction checks the pairs."""
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3
            and isinstance(e[0], Hashable) and isinstance(e[1], Hashable)
            for e in entries):
        raise MalformedInputError('entries must be a list of [x, y, "num/den"]')
    values = {}
    for x, y, value in entries:
        if (x, y) in values:
            raise MalformedInputError(f"entry index pair ({x}, {y}) listed twice")
        values[(x, y)] = parse_rational(value)
    return IncidenceFunction(poset, *_common(values))


def function_to_json(f):
    return {"entries": [[x, y, format_rational(n, f.den)]
                        for (x, y), n in sorted(f.num.items())]}


def e_basis(poset, x, y):
    """Indicator of the single comparable pair (x, y)."""
    return IncidenceFunction(poset, {_check_leq(poset, (x, y)): 1})


def delta(poset):
    """The unit: 1 on the diagonal, 0 elsewhere."""
    return IncidenceFunction(poset, {(i, i): 1 for i in range(poset.n)})


def zeta(poset):
    """All ones on every comparable pair."""
    return IncidenceFunction(
        poset, dict.fromkeys(poset.comparable_pairs(), 1))


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
    """(f1 f2)(x, y) = sum over x <= z <= y of f1(x, z) f2(z, y), on the
    integer numerators, over the product of the denominators."""
    f1._check_same(f2)
    return IncidenceFunction(
        f1.poset, _product(f1.num, f2.num), f1.den * f2.den)


def hadamard(f1, f2):
    """Entrywise product on comparable pairs."""
    f1._check_same(f2)
    out = {pair: n * f2.num[pair] for pair, n in f1.num.items()
           if pair in f2.num}
    return IncidenceFunction(f1.poset, out, f1.den * f2.den)


def evaluate(poset, coefficients, pairs):
    """Value at one comparable pair per variable, by exact convolution, of
    the multilinear polynomial with m = len(pairs) variables given by its
    m! coefficients over the monomials x_{pi(1)} ... x_{pi(m)}, pi in
    itertools.permutations(range(m)) order, as a slice's rows hold them.
    Every pair is checked, even one only zero coefficients use."""
    pairs = [_check_leq(poset, pair) for pair in _sequence(pairs, "pairs")]
    coefficients = _sequence(coefficients, "coefficients")
    m = len(pairs)
    if not m or len(coefficients) != factorial(m):
        raise MismatchError(
            f"{len(coefficients)} coefficients for {m} pairs, need m! with m >= 1")
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
    unit = delta(poset)
    if not _same(_product(numerators, g), den * common, unit.num, unit.den):
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

    The work is on f's integer numerators, and each row of g is kept as
    integer numerators over its own positive denominator, divided by
    their common gcd. The check f g = delta compares cross-multiplied
    integers. It is two-sided: in the finite-dimensional algebra I(P),
    f g = delta forces g f = delta.
    """
    g, den = _inverse(f.poset, f.num, f.den)
    return IncidenceFunction(f.poset, g, den)


def is_multiplicative(s):
    """True iff s is nonzero on every comparable pair and
    s(x, z) s(z, y) = s(x, y) whenever x <= z <= y."""
    poset, num, den = s.poset, s.num, s.den
    pairs = poset.comparable_pairs()
    return all(pair in num for pair in pairs) and all(
        num[(x, z)] * num[(z, y)] == num[(x, y)] * den
        for (x, y) in pairs for z in _bits(poset.up[x] & poset.down[y]))


class AlgebraMorphism:
    """Linear map recorded by the image of every basis element e_xy.

    validate() checks that the table extends to an algebra automorphism
    by decomposing it (see decompose_automorphism).
    """

    def __init__(self, poset, images):
        if not isinstance(images, Mapping):
            raise MalformedInputError(
                f"images must be a mapping, not {type(images).__name__}")
        self.poset = poset
        self.images = {_indices(pair, poset.n, "image pair", 2): image
                       for pair, image in images.items()}
        if self.images.keys() != set(poset.comparable_pairs()):
            raise NotAutomorphismError("image table must cover every basis pair")
        if any(img.poset != poset for img in self.images.values()):
            raise MismatchError("image over a different poset")

    def apply(self, f):
        """The image of f, on numerators over the lcm of the image dens."""
        if f.poset != self.poset:
            raise MismatchError("argument over a different poset")
        images = [(self.images[pair], n) for pair, n in f.num.items()]
        den = lcm(*[image.den for image, _ in images])
        out = {}
        for image, n in images:
            n *= den // image.den
            for q, c in image.num.items():
                out[q] = out.get(q, 0) + n * c
        return IncidenceFunction(self.poset, out, den * f.den)

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
    pair listed at most once; AlgebraMorphism checks the pairs."""
    if not isinstance(obj, list) or not all(
            isinstance(item, dict) and isinstance(item.get("pair"), list)
            and all(isinstance(v, Hashable) for v in item["pair"]) for item in obj):
        raise MalformedInputError(
            'morphism JSON must be a list of {"pair": [x, y], "image": [...]}')
    images = {}
    for item in obj:
        pair = tuple(item["pair"])
        if pair in images:
            raise MalformedInputError(f"pair {pair} listed twice")
        images[pair] = function_from_json(poset, {"entries": item.get("image")})
    return AlgebraMorphism(poset, images)


def _conjugator(r):
    """(conjugate, den) for an invertible r: conjugate(x, y) returns the
    integer numerators of r e_xy r^-1 over den, the outer product of
    column x of r and row y of r^-1 (see inner_auto)."""
    inverse, inverse_den = _inverse(r.poset, r.num, r.den)
    columns, rows = {}, {}
    for (u, x), a in r.num.items():
        columns.setdefault(x, []).append((u, a))
    for (y, v), b in inverse.items():
        rows.setdefault(y, []).append((v, b))

    def conjugate(x, y):
        return {(u, v): a * b for u, a in columns[x] for v, b in rows[y]}

    return conjugate, r.den * inverse_den


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
        pair: IncidenceFunction(poset, conjugate(*pair), den)
        for pair in poset.comparable_pairs()})


def mult_auto(s):
    """Hadamard multiplication f -> s * f by a multiplicative s."""
    if not is_multiplicative(s):
        raise NotMultiplicativeError("s is not multiplicative")
    poset = s.poset
    images = {pair: IncidenceFunction(poset, {pair: s.num[pair]}, s.den)
              for pair in poset.comparable_pairs()}
    return AlgebraMorphism(poset, images)


def induced_auto(poset, sigma):
    """Relabeling automorphism e_xy -> e_{sigma(x) sigma(y)} from a poset
    automorphism sigma given as a permutation tuple."""
    sigma = _check_automorphism(poset, sigma)
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
        hits = [y for y in range(poset.n)
                if image.num.get((y, y)) == image.den]
        if len(hits) != 1:
            raise NotAutomorphismError(
                f"image of e({x},{x}) has no unique unit diagonal entry")
        sigma.append(hits[0])
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(poset.n)):
        raise NotAutomorphismError("diagonal tracking did not yield a permutation")

    back = inverse_permutation(sigma)
    _check_automorphism(poset, back)
    idempotents = [phi.images[(back[x], back[x])] for x in range(poset.n)]
    r = IncidenceFunction(poset, *_common({
        (u, x): (n, image.den) for x, image in enumerate(idempotents)
        for (u, v), n in image.num.items() if v == x}))

    conjugate, den = _conjugator(r)
    values = {}
    for (x, y) in poset.comparable_pairs():
        image = phi.images[(back[x], back[y])]
        target = conjugate(x, y)
        a, t = image.num.get((x, y), 0), target[(x, y)]
        if not a or not _same(image.num, a, target, t):
            raise NotAutomorphismError(
                f"residual map does not scale e({x},{y})")
        values[(x, y)] = a * den, image.den * t
    s = IncidenceFunction(poset, *_common(values))
    if not is_multiplicative(s):
        raise NotAutomorphismError("residual scaling is not multiplicative")
    return r, s, sigma
