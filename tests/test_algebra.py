import math
import random
import re
from fractions import Fraction

import pytest

from incgrade import algebra
from incgrade.algebra import (
    AlgebraMorphism,
    IncidenceFunction,
    convolve,
    decompose_automorphism,
    delta,
    e_basis,
    function_from_json,
    function_to_json,
    hadamard,
    induced_auto,
    inner_auto,
    invert,
    is_multiplicative,
    morphism_from_json,
    mult_auto,
    zeta,
)
from incgrade.corpus import corpus_posets
from incgrade.errors import (
    MalformedInputError,
    MismatchError,
    NotAutomorphismError,
    NotComparableError,
    NotInvertibleError,
    NotMultiplicativeError,
    VerificationError,
)
from incgrade.poset import Poset, automorphisms

from util import (
    NONZERO,
    SCALARS,
    all_pairs_convolve,
    all_pairs_validate,
    compose_chain_decompose,
    convolution_inner_auto,
    leq_matrix,
    morphism_json,
    random_function,
    random_invertible,
    random_multiplicative,
    random_poset,
    segment_ordered_invert,
)

CORPUS = corpus_posets()


class TestBasisCalculus:
    def test_matching_endpoints_compose(self):
        p = CORPUS["c2"]
        assert convolve(e_basis(p, 0, 1), e_basis(p, 1, 1)) == e_basis(p, 0, 1)

    def test_mismatched_endpoints_annihilate(self):
        p = CORPUS["c2"]
        assert not convolve(e_basis(p, 0, 1), e_basis(p, 0, 1)).entries

    def test_incomparable_pair_rejected(self):
        with pytest.raises(NotComparableError):
            e_basis(CORPUS["example"], 0, 1)

    def test_diagonal_sandwich_extracts_value(self):
        rng = random.Random(21)
        for p in CORPUS.values():
            f = random_function(rng, p)
            for (x, y) in p.comparable_pairs():
                left = convolve(convolve(e_basis(p, x, x), f), e_basis(p, y, y))
                assert left == f(x, y) * e_basis(p, x, y)

    def test_general_sandwich(self):
        # e_xy f e_uv picks out f(y, u) and lands on e_xv.
        rng = random.Random(22)
        for p in CORPUS.values():
            f = random_function(rng, p)
            leq = leq_matrix(p)
            for (x, y) in p.comparable_pairs():
                for (u, v) in p.comparable_pairs():
                    got = convolve(convolve(e_basis(p, x, y), f), e_basis(p, u, v))
                    want = (f(y, u) * e_basis(p, x, v)
                            if leq[x][v] and leq[y][u]
                            else IncidenceFunction(p, {}))
                    assert got == want

    def test_every_function_is_a_basis_combination(self):
        rng = random.Random(23)
        for p in CORPUS.values():
            f = random_function(rng, p)
            total = IncidenceFunction(p, {})
            for (x, y) in p.comparable_pairs():
                total = total + f(x, y) * e_basis(p, x, y)
            assert total == f


class TestCanonicalForm:
    # A function is integer numerators over one positive denominator in
    # lowest terms, so equal functions have equal num, den and hash; each
    # operation agrees with the Fraction oracle read through .entries.
    @staticmethod
    def cases():
        rng = random.Random(91)
        for _ in range(40):
            p = random_poset(rng, 6)
            yield (rng, p, random_function(rng, p), random_function(rng, p),
                   random_invertible(rng, p))

    @staticmethod
    def assert_canonical(f):
        assert f.den > 0
        assert math.gcd(f.den, *f.num.values()) == 1
        assert all(f.num.values())
        rebuilt = IncidenceFunction(f.poset, f.entries)
        assert rebuilt == f
        assert hash(rebuilt) == hash(f)

    def test_every_result_is_canonical(self):
        for rng, p, f, g, h in self.cases():
            c = rng.choice(SCALARS)
            for result in (f, g, h, f + g, -f, f - g, c * f, f * c,
                           convolve(f, g), hadamard(f, g), invert(h)):
                self.assert_canonical(result)
            assert f + g - g == f

    def test_operations_match_the_fraction_oracles(self):
        for rng, p, f, g, h in self.cases():
            c = rng.choice(SCALARS)
            a, b = f.entries, g.entries
            pairs = p.comparable_pairs()

            def nonzero(values):
                return {pair: v for pair, v in values.items() if v}

            assert convolve(f, g).entries == all_pairs_convolve(f, g).entries
            assert invert(h).entries == segment_ordered_invert(h).entries
            assert hadamard(f, g).entries == nonzero(
                {pair: a[pair] * b[pair] for pair in a if pair in b})
            assert (f + g).entries == nonzero(
                {pair: a.get(pair, 0) + b.get(pair, 0) for pair in pairs})
            assert (c * f).entries == nonzero(
                {pair: c * v for pair, v in a.items()})

    def test_values_are_divided_by_den(self):
        p = CORPUS["c2"]
        f = IncidenceFunction(p, {(0, 0): 4, (0, 1): Fraction(-2, 3),
                                  (1, 1): "6/4"}, den=-6)
        assert f.num == {(0, 0): -24, (0, 1): 4, (1, 1): -9}
        assert f.den == 36
        assert f.entries == {(0, 0): Fraction(-2, 3), (0, 1): Fraction(1, 9),
                             (1, 1): Fraction(-1, 4)}
        assert IncidenceFunction(p, {(0, 1): 0.5, (1, 1): 0}).num == {(0, 1): 1}

    @pytest.mark.parametrize("value, den, message", [
        (1, 0, "den must be a nonzero integer, got 0"),
        (1, 0.5, "den must be a nonzero integer, got 0.5"),
        (1, "2", "den must be a nonzero integer, got '2'"),
        (1, None, "den must be a nonzero integer, got None"),
        ("1/0", 1, "not a rational number: '1/0'"),
        ("abc", 1, "not a rational number: 'abc'"),
        ("1" * 5000, 1, "not a rational number: '1111"),
        (float("nan"), 1, "not a rational number: nan"),
        (float("inf"), 1, "not a rational number: inf"),
        (None, 1, "not a rational number: None"),
        ([1], 1, "not a rational number: [1]"),
    ], ids=["den-0", "den-float", "den-str", "den-None", "zero-den", "word",
            "long-digits", "nan", "inf", "None", "list"])
    def test_a_value_that_is_not_rational_is_malformed(self, value, den,
                                                      message):
        with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}"):
            IncidenceFunction(CORPUS["c2"], {(0, 0): value}, den)

    @pytest.mark.parametrize("scalar", ["x", None, float("nan")])
    def test_a_scalar_that_is_not_rational_is_malformed(self, scalar):
        f = zeta(CORPUS["c2"])
        for product in (lambda: f * scalar, lambda: scalar * f):
            with pytest.raises(MalformedInputError,
                               match="^not a rational number: "):
                product()


class TestConvolution:
    def test_delta_is_two_sided_unit(self):
        rng = random.Random(24)
        for p in CORPUS.values():
            f = random_function(rng, p)
            assert convolve(delta(p), f) == f
            assert convolve(f, delta(p)) == f

    def test_zeta_squared_counts_interval(self):
        p = CORPUS["c2"]
        assert convolve(zeta(p), zeta(p))(0, 1) == 2

    def test_antichain_multiplication_is_pointwise(self):
        p = CORPUS["antichain3"]
        rng = random.Random(25)
        f1, f2 = random_function(rng, p), random_function(rng, p)
        product = convolve(f1, f2)
        for i in range(p.n):
            assert product(i, i) == f1(i, i) * f2(i, i)

    def test_associative_on_random_triples(self):
        rng = random.Random(26)
        for p in CORPUS.values():
            for _ in range(10):
                f1 = random_function(rng, p)
                f2 = random_function(rng, p)
                f3 = random_function(rng, p)
                assert (convolve(convolve(f1, f2), f3)
                        == convolve(f1, convolve(f2, f3)))

    def test_poset_mismatch_rejected(self):
        with pytest.raises(MismatchError,
                           match="^functions live over different posets$"):
            convolve(zeta(CORPUS["c2"]), zeta(CORPUS["c3"]))


class TestHadamard:
    def test_zeta_is_the_mask(self):
        rng = random.Random(27)
        for p in CORPUS.values():
            f = random_function(rng, p)
            assert hadamard(zeta(p), f) == f

    def test_disjoint_supports_vanish(self):
        p = CORPUS["c3"]
        assert not hadamard(e_basis(p, 0, 1), e_basis(p, 1, 2)).entries

    def test_commutes(self):
        rng = random.Random(28)
        p = CORPUS["diamond"]
        f, g = random_function(rng, p), random_function(rng, p)
        assert hadamard(f, g) == hadamard(g, f)


class TestInvert:
    def test_unit_is_self_inverse(self):
        for p in CORPUS.values():
            assert invert(delta(p)) == delta(p)

    def test_zeta_inverse_on_two_chain(self):
        p = CORPUS["c2"]
        expected = IncidenceFunction(p, {(0, 0): 1, (1, 1): 1, (0, 1): -1})
        assert invert(zeta(p)) == expected

    def test_zeta_inverse_on_three_chain(self):
        mobius = invert(zeta(CORPUS["c3"]))
        assert mobius(0, 2) == 0
        assert mobius(0, 1) == -1 and mobius(1, 2) == -1

    def test_random_inverses_verify(self):
        rng = random.Random(29)
        for p in CORPUS.values():
            for _ in range(5):
                f = random_invertible(rng, p)
                g = invert(f)
                assert convolve(f, g) == delta(p)
                assert convolve(g, f) == delta(p)

    def test_zero_diagonal_rejected(self):
        p = CORPUS["c2"]
        with pytest.raises(NotInvertibleError):
            invert(e_basis(p, 0, 0))

    def test_failed_unit_check_raises_verification_error(self, monkeypatch):
        # Checked against zeta instead of the unit, the true inverse fails.
        monkeypatch.setattr(algebra, "delta", zeta)
        with pytest.raises(VerificationError):
            invert(zeta(CORPUS["c2"]))


class TestMultiplicative:
    def test_zeta_is_multiplicative(self):
        for p in CORPUS.values():
            assert is_multiplicative(zeta(p))

    def test_consistent_chain_values(self):
        p = CORPUS["c3"]
        s = IncidenceFunction(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1,
                                  (0, 1): 2, (1, 2): 3, (0, 2): 6})
        assert is_multiplicative(s)

    def test_inconsistent_chain_values(self):
        p = CORPUS["c3"]
        s = IncidenceFunction(p, {(0, 0): 1, (1, 1): 1, (2, 2): 1,
                                  (0, 1): 2, (1, 2): 3, (0, 2): 5})
        assert not is_multiplicative(s)

    def test_missing_value_fails(self):
        assert not is_multiplicative(delta(CORPUS["c2"]))

    def test_coboundaries_are_multiplicative(self):
        rng = random.Random(30)
        for p in CORPUS.values():
            assert is_multiplicative(random_multiplicative(rng, p))


class TestMorphismFamilies:
    def test_inner_by_unit_is_identity(self):
        p = CORPUS["diamond"]
        psi = inner_auto(delta(p))
        for pair in p.comparable_pairs():
            assert psi.images[pair] == e_basis(p, *pair)

    def test_inner_composition_law(self):
        rng = random.Random(31)
        p = CORPUS["c3"]
        for _ in range(5):
            r1 = random_invertible(rng, p)
            r2 = random_invertible(rng, p)
            assert inner_auto(r1).compose(inner_auto(r2)) == inner_auto(
                convolve(r1, r2))

    def test_inner_worked_example(self):
        p = CORPUS["c2"]
        r = delta(p) + e_basis(p, 0, 1)
        psi = inner_auto(r)
        assert psi.images[(1, 1)] == e_basis(p, 1, 1) + e_basis(p, 0, 1)

    def test_mult_by_zeta_is_identity(self):
        p = CORPUS["example"]
        m = mult_auto(zeta(p))
        for pair in p.comparable_pairs():
            assert m.images[pair] == e_basis(p, *pair)

    def test_mult_composition_law(self):
        rng = random.Random(32)
        p = CORPUS["diamond"]
        s = random_multiplicative(rng, p)
        t = random_multiplicative(rng, p)
        assert mult_auto(s).compose(mult_auto(t)) == mult_auto(hadamard(s, t))

    def test_mult_scales_basis(self):
        rng = random.Random(33)
        p = CORPUS["c3"]
        s = random_multiplicative(rng, p)
        m = mult_auto(s)
        for pair in p.comparable_pairs():
            assert m.images[pair] == s(*pair) * e_basis(p, *pair)

    def test_mult_rejects_non_multiplicative(self):
        with pytest.raises(NotMultiplicativeError):
            mult_auto(delta(CORPUS["c2"]))

    def test_induced_identity(self):
        p = CORPUS["example"]
        phi = induced_auto(p, (0, 1, 2, 3))
        for pair in p.comparable_pairs():
            assert phi.images[pair] == e_basis(p, *pair)

    def test_induced_swap_on_antichain(self):
        p = CORPUS["antichain2"]
        phi = induced_auto(p, (1, 0))
        assert phi.images[(0, 0)] == e_basis(p, 1, 1)

    def test_induced_composition_law(self):
        p = CORPUS["antichain4"]
        rng = random.Random(34)
        auts = automorphisms(p)
        for _ in range(10):
            sigma = rng.choice(auts)
            tau = rng.choice(auts)
            combined = tuple(sigma[tau[i]] for i in range(p.n))
            assert induced_auto(p, sigma).compose(
                induced_auto(p, tau)) == induced_auto(p, combined)

    def test_induced_rejects_non_automorphism(self):
        with pytest.raises(NotAutomorphismError):
            induced_auto(CORPUS["c2"], (1, 0))

    def test_families_validate(self):
        rng = random.Random(35)
        p = CORPUS["diamond"]
        inner_auto(random_invertible(rng, p)).validate()
        mult_auto(random_multiplicative(rng, p)).validate()
        induced_auto(p, (0, 2, 1, 3)).validate()

    def test_validate_rejects_broken_table(self):
        p = CORPUS["c2"]
        images = {pair: e_basis(p, *pair) for pair in p.comparable_pairs()}
        images[(0, 1)] = 2 * e_basis(p, 0, 1) + e_basis(p, 0, 0)
        with pytest.raises(NotAutomorphismError):
            AlgebraMorphism(p, images).validate()

    def test_validate_rejects_non_invertible(self):
        p = CORPUS["antichain2"]
        images = {pair: e_basis(p, 0, 0) for pair in p.comparable_pairs()}
        with pytest.raises(NotAutomorphismError):
            AlgebraMorphism(p, images).validate()


class TestDecomposition:
    def test_pure_induced(self):
        p = CORPUS["antichain2"]
        phi = induced_auto(p, (1, 0))
        r, s, sigma = decompose_automorphism(phi)
        assert sigma == (1, 0)
        assert r == delta(p)
        assert s == zeta(p)

    def test_pure_inner_worked_example(self):
        p = CORPUS["c2"]
        phi = inner_auto(delta(p) + e_basis(p, 0, 1))
        r, s, sigma = decompose_automorphism(phi)
        assert sigma == (0, 1)
        rebuilt = inner_auto(r).compose(mult_auto(s)).compose(
            induced_auto(p, sigma))
        assert rebuilt == phi

    def test_planted_triples_recovered(self):
        rng = random.Random(36)
        for name, p in CORPUS.items():
            auts = automorphisms(p)
            for _ in range(5):
                planted_sigma = rng.choice(auts)
                phi = inner_auto(random_invertible(rng, p)).compose(
                    mult_auto(random_multiplicative(rng, p))).compose(
                    induced_auto(p, planted_sigma))
                r, s, sigma = decompose_automorphism(phi)
                assert sigma == planted_sigma
                rebuilt = inner_auto(r).compose(mult_auto(s)).compose(
                    induced_auto(p, sigma))
                assert rebuilt == phi

    def test_sigma_is_gauge_invariant(self):
        # Different (r, s) gauges of the same composite recover one sigma.
        rng = random.Random(37)
        p = CORPUS["diamond"]
        sigma = (0, 2, 1, 3)
        base = induced_auto(p, sigma)
        for _ in range(5):
            r = random_invertible(rng, p)
            phi = inner_auto(r).compose(
                inner_auto(invert(r))).compose(base)
            assert phi == base
            _, _, recovered = decompose_automorphism(phi)
            assert recovered == sigma

    def test_rejects_invalid_input(self):
        p = CORPUS["c2"]
        images = {pair: delta(p) for pair in p.comparable_pairs()}
        with pytest.raises(NotAutomorphismError,
                           match=r"e\(0,0\) has no unique unit diagonal entry"):
            decompose_automorphism(AlgebraMorphism(p, images))

    def test_each_failing_step_is_named(self):
        a2, c2, c3 = CORPUS["antichain2"], CORPUS["c2"], CORPUS["c3"]
        cases = {
            "diagonal tracking did not yield a permutation": AlgebraMorphism(
                a2, {(0, 0): e_basis(a2, 0, 0), (1, 1): e_basis(a2, 0, 0)}),
            "sigma does not preserve the order": AlgebraMorphism(
                c2, {(0, 0): e_basis(c2, 1, 1), (0, 1): e_basis(c2, 0, 1),
                     (1, 1): e_basis(c2, 0, 0)}),
            "residual map does not scale e(0,1)": radical_killing(c2),
            "residual scaling is not multiplicative": AlgebraMorphism(c3, {
                pair: (2 if pair == (0, 2) else 1) * e_basis(c3, *pair)
                for pair in c3.comparable_pairs()}),
        }
        for message, phi in cases.items():
            assert rejection(all_pairs_validate, phi) is not None
            assert rejection(compose_chain_decompose, phi, False) == message
            assert rejection(AlgebraMorphism.validate, phi) == message


class TestSerialization:
    def test_function_round_trip(self):
        rng = random.Random(38)
        p = CORPUS["example"]
        f = random_function(rng, p)
        assert function_from_json(p, function_to_json(f)) == f

    def test_rational_strings_in_json(self):
        p = CORPUS["c2"]
        f = IncidenceFunction(p, {(0, 1): Fraction(-1, 2)})
        assert function_to_json(f) == {"entries": [[0, 1, "-1/2"]]}

    @pytest.mark.parametrize("x, y", [(2, 0), (0, 2), (-2, -2), (-1, 1)])
    def test_entry_index_out_of_range_rejected(self, x, y):
        with pytest.raises(MalformedInputError, match="out of range"):
            function_from_json(CORPUS["c2"], {"entries": [[x, y, "1"]]})

    def test_repeated_entry_rejected(self):
        with pytest.raises(MalformedInputError, match=r"\(0, 1\) listed twice"):
            function_from_json(CORPUS["c2"], {"entries": [
                [0, 1, "1"], [1, 1, "1"], [0, 1, "1"]]})

    def test_repeated_pair_rejected(self):
        p = CORPUS["c2"]
        items = morphism_json(induced_auto(p, (0, 1)))
        with pytest.raises(MalformedInputError, match=r"\(0, 0\) listed twice"):
            morphism_from_json(p, items + items[:1])

    def test_morphism_round_trip(self):
        rng = random.Random(39)
        p = CORPUS["c3"]
        phi = inner_auto(random_invertible(rng, p))
        assert morphism_from_json(p, morphism_json(phi)) == phi


def random_automorphism(rng, poset):
    """inner(r) . mult(s) . induced(sigma) for seeded random r, s, sigma."""
    return inner_auto(random_invertible(rng, poset)).compose(
        mult_auto(random_multiplicative(rng, poset))).compose(
        induced_auto(poset, rng.choice(automorphisms(poset))))


def near_misses(rng, phi):
    """phi itself and three perturbed image tables: one image entry
    changed, two images swapped, one image scaled."""
    poset = phi.poset
    pairs = poset.comparable_pairs()
    changed = dict(phi.images)
    p, q = rng.choice(pairs), rng.choice(pairs)
    changed[p] = changed[p] + rng.choice(NONZERO) * e_basis(poset, *q)
    swapped = dict(phi.images)
    a, b = rng.sample(pairs, 2)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    scaled = dict(phi.images)
    p = rng.choice(pairs)
    scaled[p] = rng.choice([v for v in NONZERO if v != 1]) * scaled[p]
    return [phi] + [AlgebraMorphism(poset, images)
                    for images in (changed, swapped, scaled)]


def radical_killing(poset):
    """phi(e_xx) = e_xx and phi(e_xy) = 0 for x < y: an algebra
    endomorphism that keeps the unit, invertible only on an antichain."""
    return AlgebraMorphism(poset, {
        (x, y): e_basis(poset, x, y) if x == y else IncidenceFunction(poset, {})
        for (x, y) in poset.comparable_pairs()})


def rejection(check, phi, *args):
    """check's NotAutomorphismError message, or None if it passes."""
    try:
        check(phi, *args)
    except NotAutomorphismError as exc:
        return str(exc)
    return None


class TestAgainstOracles:
    """The sparse convolve, the up-set ordered invert and the check by
    decomposition against the code they replaced, on seeded random
    posets of at most 7 elements."""

    def test_convolve_matches_all_pairs(self):
        rng = random.Random(40)
        for _ in range(60):
            p = random_poset(rng, 7)
            f1 = random_function(rng, p, density=rng.random())
            f2 = random_function(rng, p, density=rng.random())
            assert convolve(f1, f2) == all_pairs_convolve(f1, f2)

    def test_invert_matches_segment_order(self):
        rng = random.Random(41)
        for _ in range(60):
            p = random_poset(rng, 7)
            f = random_invertible(rng, p, density=rng.random())
            assert invert(f) == segment_ordered_invert(f)
            assert invert(zeta(p)) == segment_ordered_invert(zeta(p))

    def test_zero_diagonal_rejected_by_both(self):
        rng = random.Random(42)
        for _ in range(20):
            p = random_poset(rng, 7)
            f = random_invertible(rng, p)
            x = rng.randrange(p.n)
            f = IncidenceFunction(p, {q: v for q, v in f.entries.items()
                                      if q != (x, x)})
            with pytest.raises(NotInvertibleError):
                invert(f)
            with pytest.raises(NotInvertibleError):
                segment_ordered_invert(f)

    def test_validate_rejects_exactly_when_all_pairs_does(self):
        # validate decomposes: it rejects exactly the maps that fail one of
        # the |P|^2 basis products, the unit or the rank, and names the
        # decomposition step that fails, as the oracle's own steps do.
        rng = random.Random(43)
        outcomes, messages = set(), set()
        for _ in range(40):
            p = random_poset(rng, 7, min_n=3)
            families = [inner_auto(random_invertible(rng, p)),
                        mult_auto(random_multiplicative(rng, p)),
                        induced_auto(p, rng.choice(automorphisms(p))),
                        random_automorphism(rng, p)]
            phis = [m for f in families for m in near_misses(rng, f)]
            for phi in phis + [radical_killing(p)]:
                got = rejection(AlgebraMorphism.validate, phi)
                want = rejection(all_pairs_validate, phi)
                assert (got is None) == (want is None), (got, want)
                assert got == rejection(compose_chain_decompose, phi, False)
                outcomes.add(got is None)
                messages.add(re.sub(r"\(\d+,\d+\)", "", got or ""))
        assert outcomes == {True, False}
        assert len(messages) >= 3, messages
        # An endomorphism that passes every product and the unit check, so
        # the oracle rejects it only for its rank. Its residual map kills
        # e_xy for x < y, so the first such pair fails the scaling step.
        for name, p in sorted(CORPUS.items()):
            phi = radical_killing(p)
            got = rejection(AlgebraMorphism.validate, phi)
            want = rejection(all_pairs_validate, phi)
            proper = [(x, y) for (x, y) in p.comparable_pairs() if x != y]
            if proper:
                assert want == "image table is not invertible", name
                assert got == "residual map does not scale e({},{})".format(
                    *proper[0]), name
            else:
                assert got is None and want is None, name

    def test_inner_auto_matches_convolutions(self):
        rng = random.Random(46)
        for _ in range(40):
            p = random_poset(rng, 7)
            r = random_invertible(rng, p, density=rng.random())
            assert inner_auto(r) == convolution_inner_auto(r)

    def test_decompose_matches_compose_chain(self):
        rng = random.Random(47)
        for _ in range(40):
            p = random_poset(rng, 7)
            phi = random_automorphism(rng, p)
            assert decompose_automorphism(phi) == compose_chain_decompose(phi)

    @pytest.mark.parametrize("validated", [True, False],
                             ids=["validated", "unvalidated"])
    def test_decompose_fails_like_compose_chain(self, validated):
        # Validated, the oracle checks every basis product first, so it
        # rejects the same maps under a product, unit or rank message.
        # Unvalidated, it runs its own steps, which must fail at the same
        # step, with the same message, as decompose_automorphism.
        rng = random.Random(48)
        messages = set()
        for _ in range(30):
            p = random_poset(rng, 7, min_n=2)
            for phi in near_misses(rng, random_automorphism(rng, p)):
                got = outcome(decompose_automorphism, phi)
                want = outcome(compose_chain_decompose, phi, validated)
                if validated:
                    assert got[0] == want[0]
                    want = outcome(compose_chain_decompose, phi, False)
                assert got == want
                messages.add(got[1] if got[0] == "raised" else "ok")
        assert "ok" in messages and len(messages) > 1
        assert "residual map does not scale" in " ".join(messages)


def outcome(decompose, phi, *args):
    """("ok", result) or ("raised", message, exception type)."""
    try:
        return ("ok", decompose(phi, *args))
    except Exception as exc:
        return ("raised", str(exc), type(exc))


def ten_chain():
    return Poset([str(i) for i in range(10)],
                 [(i, i + 1) for i in range(9)])


class TestWorkCounts:
    """Work done, counted rather than timed."""

    def test_invert_builds_no_poset(self, monkeypatch):
        posets = list(CORPUS.values()) + [ten_chain()]
        built = []
        original = Poset.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Poset, "__init__", counting)
        for p in posets:
            invert(zeta(p))
        assert not built

    def test_validate_convolve_count(self, monkeypatch):
        # validate decomposes, so the one product it takes on the integer
        # kernel is the check of the conjugator's inverse.
        p = ten_chain()
        phi = inner_auto(random_invertible(random.Random(44), p))
        calls = []
        original = algebra._product

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(algebra, "_product", counting)
        phi.validate()
        assert len(calls) == 1

    def test_decompose_neither_convolves_nor_applies(self, monkeypatch):
        rng = random.Random(45)
        posets = [ten_chain(), CORPUS["diamond"], CORPUS["c2_disjoint_c3"]]
        planted = [random_automorphism(rng, p) for p in posets]
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        monkeypatch.setattr(algebra, "convolve",
                            counting("convolve", algebra.convolve))
        monkeypatch.setattr(AlgebraMorphism, "apply",
                            counting("apply", AlgebraMorphism.apply))
        for phi in planted:
            decompose_automorphism(phi)
        assert calls == []
