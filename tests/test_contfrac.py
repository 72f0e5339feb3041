import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from christoffel import (
    ContinuedFraction,
    SlopeRatio,
    cf_density_from_slope,
    cf_slope_from_density,
    christoffel_length,
    contfrac,
    continuant,
    density_from_slope,
    lower_christoffel,
    p_product,
    ppp_factorization,
    semiconvergents,
    slope_from_density,
    standard_factorization,
    stern_brocot_nodes,
    stern_brocot_path,
)
from christoffel.errors import InvalidCFError, OutOfRangeError
from oracles import continuant_by_recurrence, p_product_by_fold, semiconvergents_by_prefix

CF = ContinuedFraction


class TestContinuant:
    def test_base_cases(self):
        assert continuant(()) == 1
        assert continuant((5,)) == 5
        assert continuant((1, 1, 1)) == 3

    def test_recursion(self):
        rng = random.Random(3)
        for _ in range(50):
            xs = [rng.randint(1, 6) for _ in range(rng.randint(2, 9))]
            assert continuant(xs) == continuant(xs[:-1]) * xs[-1] + continuant(xs[:-2])


class TestPProduct:
    def test_single_factor(self):
        assert p_product((4,)) == ((4, 1), (1, 0))

    def test_hand_product(self):
        assert p_product((0, 2, 1)) == ((1, 1), (3, 2))

    def test_entries_are_continuants(self):
        # for a single quotient the lower-right entry is the empty-below
        # continuant 0, so slicing applies from length two upward
        rng = random.Random(4)
        for _ in range(200):
            q = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 8)))
            m = p_product(q)
            assert m == ((continuant(q), continuant(q[:-1])),
                         (continuant(q[1:]), continuant(q[1:-1])))

    def test_determinant_sign(self):
        for length in range(1, 9):
            for q in product((1, 2, 3), repeat=min(length, 4)):
                m = p_product(q)
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                assert det == (-1) ** len(q)


# Zero and negative entries included; the balanced product takes any ints.
QUOTIENT = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)


class TestBalancedProduct:
    @given(st.lists(QUOTIENT, max_size=40))
    def test_short_lists_equal_the_oracles(self, xs):
        assert p_product(xs) == p_product_by_fold(xs)
        assert continuant(xs) == continuant_by_recurrence(xs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3000), st.integers(0, 30), st.integers(0, 2 ** 32))
    def test_long_lists_equal_the_oracles(self, length, digits, seed):
        rng = random.Random(seed)
        bound = 10 ** digits
        xs = tuple(rng.randint(-bound, bound) for _ in range(length))
        assert p_product(xs) == p_product_by_fold(xs)
        assert continuant(xs) == continuant_by_recurrence(xs)

    def test_one_product_per_call(self, monkeypatch):
        """continuant, value and christoffel_length each multiply once, and
        ppp_factorization reads no value."""
        calls = []
        product = contfrac.p_product
        monkeypatch.setattr(contfrac, "p_product", lambda q: calls.append(q) or product(q))
        cf = CF((0, 2, 2))
        for f in (lambda: contfrac.continuant(cf.quotients), cf.value,
                  lambda: contfrac.christoffel_length(cf)):
            calls.clear()
            f()
            assert calls == [cf.quotients]
        monkeypatch.setattr(CF, "value", lambda self: pytest.fail("value() called"))
        assert contfrac.ppp_factorization(cf).matrix == ((1, 1), (3, 2))


class TestContinuedFraction:
    def test_validation(self):
        with pytest.raises(InvalidCFError):
            CF(())
        with pytest.raises(InvalidCFError):
            CF((1, 0))
        with pytest.raises(InvalidCFError):
            CF((-1,))

    def test_value_examples(self):
        assert CF((0, 2, 2)).value() == SlopeRatio(2, 5)
        assert CF((1,)).value() == SlopeRatio(1, 1)
        assert CF((2, 1, 2)).value() == SlopeRatio(8, 3)

    @given(st.integers(0, 10 ** 30),
           st.lists(st.integers(1, 5) | st.integers(1, 10 ** 30), max_size=60))
    def test_value_and_length_equal_the_recurrence(self, head, tail):
        cf = CF((head,) + tuple(tail))
        num = continuant_by_recurrence(cf.quotients)
        den = continuant_by_recurrence(cf.quotients[1:])
        assert cf.value() == SlopeRatio(num, den)
        assert christoffel_length(cf) == num + den

    def test_from_slope_roundtrip(self):
        for ones in range(0, 30):
            for zeros in range(1, 30):
                if gcd(ones, zeros) != 1:
                    continue
                slope = SlopeRatio(ones, zeros)
                assert CF.from_slope(slope).value() == slope

    def test_normalized(self):
        assert CF((0, 2, 1)).normalized() == CF((0, 3))
        assert CF((1,)).normalized() == CF((1,))

    def test_parse_and_str(self):
        assert CF.parse("[0;2,2]") == CF((0, 2, 2))
        assert CF.parse("2,1,2") == CF((2, 1, 2))
        assert str(CF((0, 2, 2))) == "[0;2,2]"


class TestSemiconvergents:
    def test_fibonacci_prefix(self):
        assert list(semiconvergents(CF((0, 1, 1, 1, 1)))) == [
            SlopeRatio(1, 1), SlopeRatio(1, 2), SlopeRatio(2, 3), SlopeRatio(3, 5)]

    def test_eight_thirds(self):
        assert list(semiconvergents(CF((2, 1, 2)))) == [
            SlopeRatio(1, 1), SlopeRatio(2, 1), SlopeRatio(3, 1),
            SlopeRatio(5, 2), SlopeRatio(8, 3)]

    @given(st.integers(0, 6), st.lists(st.integers(1, 40), max_size=12))
    def test_recurrence_equals_prefix_values(self, head, tail):
        """The convergent recurrence equals each prefix's own value."""
        cf = CF((head,) + tuple(tail))
        walked = list(semiconvergents(cf))
        assert walked == semiconvergents_by_prefix(cf)
        assert len(walked) == sum(cf.quotients)
        assert all(a.length < b.length for a, b in zip(walked, walked[1:]))

    def test_stops_at_the_item_needed(self):
        """The walk is lazy: a huge quotient costs nothing before it is reached."""
        walk = semiconvergents(CF((0, 10 ** 18, 5)))
        assert [next(walk) for _ in range(3)] == [
            SlopeRatio(1, 1), SlopeRatio(1, 2), SlopeRatio(1, 3)]


class TestChristoffelLength:
    def test_examples(self):
        assert christoffel_length(CF((0, 2, 2))) == 7
        assert christoffel_length(CF((1,))) == 2
        assert christoffel_length(CF((0, 1, 1, 1))) == 5

    def test_matches_word_length(self):
        rng = random.Random(6)
        for _ in range(100):
            ones, zeros = rng.randint(0, 60), rng.randint(1, 60)
            if gcd(ones, zeros) != 1:
                continue
            slope = SlopeRatio(ones, zeros)
            assert christoffel_length(CF.from_slope(slope)) == len(lower_christoffel(slope))


class TestPppFactorization:
    def test_base_case(self):
        split = ppp_factorization(CF((1,)))
        assert split.matrix == ((0, 1), (1, 0)) and split.m_even
        assert split.factor_counts() == ((0, 1), (1, 0))

    def test_slope_two_fifths(self):
        split = ppp_factorization(CF((0, 2, 2)))
        assert split.matrix == ((1, 1), (3, 2))
        (r1, q1), (r2, q2) = split.factor_counts()
        assert (r1, q1, r2, q2) == (1, 3, 1, 2)

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        checked = 0
        while checked < 50:
            ones, zeros = rng.randint(1, 200), rng.randint(1, 200)
            if gcd(ones, zeros) != 1:
                continue
            slope = SlopeRatio(ones, zeros)
            word = lower_christoffel(slope)
            left, right = standard_factorization(word)
            counts = ppp_factorization(CF.from_slope(slope)).factor_counts()
            assert counts == ((left.count(1), left.count(0)),
                              (right.count(1), right.count(0)))
            checked += 1

    def test_trailing_one_expansion_agrees(self):
        # the two expansions of one slope give the same factor counts
        assert (ppp_factorization(CF((0, 2, 1, 1))).factor_counts()
                == ppp_factorization(CF((0, 2, 2))).factor_counts())

    def test_rejects_zero_slope(self):
        with pytest.raises(InvalidCFError):
            ppp_factorization(CF((0,)))


class TestSlopeDensityConversion:
    def test_value_examples(self):
        assert slope_from_density(Fraction(1, 2)) == SlopeRatio(1, 1)
        assert density_from_slope(SlopeRatio(1, 1)) == Fraction(1, 2)
        assert slope_from_density(Fraction(3, 7)) == SlopeRatio(3, 4)

    def test_cf_rules(self):
        assert cf_slope_from_density(CF((0, 2, 3))) == CF((0, 1, 3))
        assert cf_slope_from_density(CF((0, 1, 2))) == CF((2,))

    def test_cf_rule_agrees_with_values(self):
        for num in range(1, 40):
            for den in range(num + 1, 80):
                if gcd(num, den) != 1:
                    continue
                density_cf = CF.from_slope(SlopeRatio(num, den))  # expansion of num/den < 1
                slope_cf = cf_slope_from_density(density_cf)
                assert slope_cf.value() == slope_from_density(Fraction(num, den))

    def test_roundtrip(self):
        for ones in range(1, 25):
            for zeros in range(1, 25):
                if gcd(ones, zeros) != 1:
                    continue
                s = SlopeRatio(ones, zeros)
                assert slope_from_density(density_from_slope(s)) == s
                cf = CF.from_slope(s)
                assert cf_slope_from_density(cf_density_from_slope(cf)).normalized() \
                    == cf.normalized()

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            slope_from_density(Fraction(3, 2))
        with pytest.raises(OutOfRangeError):
            density_from_slope(SlopeRatio(1, 0))


class TestSternBrocot:
    def test_examples(self):
        assert stern_brocot_path(SlopeRatio(1, 1)) == ""
        assert stern_brocot_path(SlopeRatio(2, 5)) == "llr"
        assert stern_brocot_nodes(SlopeRatio(8, 3)) == [
            SlopeRatio(1, 1), SlopeRatio(2, 1), SlopeRatio(3, 1),
            SlopeRatio(5, 2), SlopeRatio(8, 3)]

    def test_nodes_are_semiconvergents(self):
        for ones in range(1, 40):
            for zeros in range(1, 101):
                if gcd(ones, zeros) != 1:
                    continue
                slope = SlopeRatio(ones, zeros)
                assert stern_brocot_nodes(slope) == list(semiconvergents(CF.from_slope(slope)))

    def test_longer_standard_factor_is_previous_node(self):
        """Along any path, each word is the longer standard factor of the next."""
        for slope in (SlopeRatio(8, 3), SlopeRatio(2, 5), SlopeRatio(12, 29),
                      SlopeRatio(13, 21), SlopeRatio(17, 5)):
            nodes = stern_brocot_nodes(slope)
            words = [lower_christoffel(s) for s in nodes]
            for prev, cur in zip(words, words[1:]):
                left, right = standard_factorization(cur)
                assert prev == (left if len(left) >= len(right) else right)
