from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from christoffel import Permutation, cycle_type_string, jacobi, zolotareff
from christoffel.errors import EvenModulusError, NotBijectiveError, NotCoprimeError
from oracles import (
    compose,
    cycle_type,
    euler_phi,
    identity_permutation,
    inverse,
    multiplication_permutation,
    multiplicative_order,
    power,
    sign,
    zolotareff_by_divisor_sum,
    zolotareff_by_walk,
    zolotareff_table_by_walk,
)


def sign_by_inversions(p):
    """Parity by counting inversions; quadratic, the cycle-count oracle."""
    imgs = p.images
    inv = sum(1 for i in range(len(imgs)) for j in range(i + 1, len(imgs))
              if imgs[i] > imgs[j])
    return 1 if inv % 2 == 0 else -1


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(NotBijectiveError):
            Permutation([0, 0, 1])

    @pytest.mark.parametrize("images", [[0, 1.0, 2], [0, -1, 1], [0, 3, 1], [2, 0, 2]])
    def test_rejects_float_negative_out_of_range_and_duplicate(self, images):
        with pytest.raises(NotBijectiveError, match=r"not a bijection of \[3\]"):
            Permutation(images)

    def test_accepts_bools(self):
        assert Permutation([True, False]).images == (True, False)
        assert Permutation([]).images == ()

    def test_interval_exchange_cycle(self):
        # exchange of composition (2,2,5): a single 9-cycle
        p = Permutation([7, 8, 5, 6, 0, 1, 2, 3, 4])
        assert p.cycles() == ((0, 7, 3, 6, 2, 5, 1, 8, 4),)
        assert p.cycle_string() == "(0,7,3,6,2,5,1,8,4)"

    def test_identity_cycles(self):
        p = identity_permutation(5)
        assert cycle_type(p) == {1: 5}
        assert sign(p) == 1

    def test_multiplication_by_five_mod_thirteen(self):
        p = multiplication_permutation(5, 13)
        assert cycle_type(p) == {1: 1, 4: 3}
        assert cycle_type_string(cycle_type(p)) == "1^1 4^3"
        assert sign(p) == -1

    def test_composition_and_power(self):
        p = multiplication_permutation(2, 7)
        assert compose(p, inverse(p)) == identity_permutation(7)
        assert power(p, 3) == multiplication_permutation(8 % 7, 7)
        assert power(p, -1) == inverse(p)
        with pytest.raises(NotBijectiveError):
            compose(p, identity_permutation(6))

    @given(st.permutations(list(range(9))))
    def test_sign_matches_inversion_count(self, images):
        p = Permutation(images)
        assert sign(p) == sign_by_inversions(p)


class TestZolotareff:
    def test_examples(self):
        assert zolotareff(2, 7) == 1          # two 3-cycles on the units
        assert zolotareff(1, 11) == 1
        assert zolotareff(1, 1) == 1
        assert zolotareff(5, 13) == -1
        assert zolotareff(3, 4) == -1         # the transposition (1 3)
        assert zolotareff(5, 8) == 1          # (1 5)(3 7)
        assert zolotareff(3, 10) == 1         # two 4-cycles and two fixed points

    def test_requires_coprime(self):
        with pytest.raises(NotCoprimeError):
            zolotareff(2, 8)

    def test_equals_literal_permutation_sign(self):
        """The closed form equals the one-cycle-at-a-time walk for every
        n < 200 and every unit r in [-n, 2n)."""
        for n in range(1, 200):
            for r in range(-n, 2 * n):
                if gcd(r, n) == 1:
                    assert zolotareff(r, n) == zolotareff_by_walk(r, n), (r, n)

    def test_equals_divisor_sum(self):
        """The closed form equals the cycle count sum of phi(d)/ord_d(r)."""
        for n in range(1, 400):
            for r in range(1, n + 1):
                if gcd(r, n) == 1:
                    assert zolotareff(r, n) == zolotareff_by_divisor_sum(r, n), (r, n)

    def test_walk_table_equals_walk(self):
        """The walked generating set extends to every unit correctly."""
        for n in range(1, 120):
            table = zolotareff_table_by_walk(n)
            assert sorted(table) == [r for r in range(n) if gcd(r, n) == 1]
            assert all(table[r] == zolotareff_by_walk(r, n) for r in table), n

    # An example walks one permutation of at most 2000 points, 1-2 ms; the
    # limit of 2 s per example leaves room for a full garbage collection of
    # the whole test session's heap, which the default 200 ms does not.
    @settings(deadline=2000)
    @given(st.integers(1, 500), st.sampled_from((0, 2)), st.integers(-4000, 4000))
    def test_even_modulus_against_walk(self, k, residue, r):
        """n = 0 and n = 2 mod 4, up to 2000, against the literal walk."""
        n = 4 * k - residue
        assume(gcd(r, n) == 1)
        assert zolotareff(r, n) == zolotareff_by_walk(r, n)

    @given(st.integers(1, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
           st.integers(-10 ** 30, 10 ** 30))
    def test_multiplicative_in_r(self, n, r, s):
        """x -> rs*x is the composition of x -> r*x and x -> s*x, so the
        sign is a character of the units, at sizes only a closed form reaches."""
        assume(gcd(r, n) == 1 and gcd(s, n) == 1)
        assert zolotareff(r * s, n) == zolotareff(r, n) * zolotareff(s, n)
        assert zolotareff(r + n, n) == zolotareff(r, n)

    def test_sign_on_nonzero_elements_is_the_same(self):
        """Deleting the fixed point 0 does not change the parity."""
        for n in range(2, 40):
            for r in range(2, n):
                if gcd(r, n) != 1:
                    continue
                full = multiplication_permutation(r, n)
                relabeled = Permutation([full.images[x + 1] - 1 for x in range(n - 1)])
                assert sign(relabeled) == sign(full)

    def test_multiplication_order_divides_phi(self):
        for n in range(2, 61):
            for r in range(1, n):
                if gcd(r, n) == 1:
                    p = multiplication_permutation(r, n)
                    assert power(p, euler_phi(n)) == identity_permutation(n)
                    assert power(p, multiplicative_order(r, n)) == identity_permutation(n)

    def test_large_modulus_cases(self):
        """Each case of the closed form at a modulus no walk can reach."""
        big = 10 ** 18 + 3
        # big is odd: (5/big) = (big/5) = (3/5) = -1 by reciprocity
        assert zolotareff(5, big) == -1
        assert zolotareff(5, 2 * big) == 1    # 2 mod 4
        assert zolotareff(5, 4 * big) == 1    # 4 | n, r = 1 mod 4
        assert zolotareff(7, 4 * big) == -1   # 4 | n, r = 3 mod 4


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 7) == 1      # 2^3 = 8 = 1 mod 7
        assert jacobi(5, 1) == 1
        assert jacobi(3, 5) == -1     # 3^2 = 4 = -1 mod 5

    def test_zero_for_common_factor(self):
        assert jacobi(6, 9) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenModulusError):
            jacobi(3, 8)

    def test_euler_criterion_for_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(1, p):
                expected = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
                assert jacobi(a, p) == expected


class TestEulerPhi:
    """The number theory behind the divisor-sum oracle."""

    def test_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(7) == 6
        assert euler_phi(12) == 4

    def test_counting_definition(self):
        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_order(self):
        assert multiplicative_order(2, 7) == 3
        assert multiplicative_order(3, 7) == 6
        for n in (9, 15, 16, 35):
            for a in range(1, n):
                if gcd(a, n) == 1:
                    k = multiplicative_order(a, n)
                    assert pow(a, k, n) == 1
                    assert all(pow(a, d, n) != 1 for d in range(1, k))
