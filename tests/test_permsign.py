import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from christoffel import (
    Permutation,
    cycle_type_string,
    euler_phi,
    jacobi,
    multiplicative_order,
    zolotareff,
)
from christoffel.errors import EvenModulusError, NotBijectiveError, NotCoprimeError


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

    def test_interval_exchange_cycle(self):
        # exchange of composition (2,2,5): a single 9-cycle
        p = Permutation([7, 8, 5, 6, 0, 1, 2, 3, 4])
        assert p.cycles() == ((0, 7, 3, 6, 2, 5, 1, 8, 4),)
        assert p.cycle_string() == "(0,7,3,6,2,5,1,8,4)"

    def test_identity_cycles(self):
        p = Permutation.identity(5)
        assert p.cycle_type() == {1: 5}
        assert p.sign() == 1

    def test_multiplication_by_five_mod_thirteen(self):
        p = Permutation.multiplication(5, 13)
        assert p.cycle_type() == {1: 1, 4: 3}
        assert cycle_type_string(p.cycle_type()) == "1^1 4^3"
        assert p.sign() == -1

    def test_composition_and_power(self):
        p = Permutation.multiplication(2, 7)
        assert (p * p.inverse()) == Permutation.identity(7)
        assert p ** 3 == Permutation.multiplication(8 % 7, 7)

    @given(st.permutations(list(range(9))))
    def test_sign_matches_inversion_count(self, images):
        p = Permutation(images)
        assert p.sign() == sign_by_inversions(p)


class TestZolotareff:
    def test_examples(self):
        assert zolotareff(2, 7) == 1          # two 3-cycles on the units
        assert zolotareff(1, 11) == 1
        assert zolotareff(1, 1) == 1
        assert zolotareff(5, 13) == -1

    def test_requires_coprime(self):
        with pytest.raises(NotCoprimeError):
            zolotareff(2, 8)

    def test_equals_literal_permutation_sign(self):
        """The orbit-count implementation equals the one-cycle-at-a-time walk."""
        for n in range(1, 151):
            for r in range(1, n + 1):
                if gcd(r, n) == 1:
                    assert zolotareff(r, n) == Permutation.multiplication(r, n).sign()

    def test_multiplicative_in_r(self):
        rng = random.Random(21)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 400)
            r, s = rng.randint(1, n - 1), rng.randint(1, n - 1)
            if gcd(r, n) != 1 or gcd(s, n) != 1:
                continue
            assert zolotareff(r * s % n, n) == zolotareff(r, n) * zolotareff(s, n)
            checked += 1

    def test_sign_on_nonzero_elements_is_the_same(self):
        """Deleting the fixed point 0 does not change the parity."""
        for n in range(2, 40):
            for r in range(2, n):
                if gcd(r, n) != 1:
                    continue
                full = Permutation.multiplication(r, n)
                relabeled = Permutation([full(x + 1) - 1 for x in range(n - 1)])
                assert relabeled.sign() == full.sign()

    def test_multiplication_order_divides_phi(self):
        for n in range(2, 61):
            for r in range(1, n):
                if gcd(r, n) == 1:
                    p = Permutation.multiplication(r, n)
                    assert p ** euler_phi(n) == Permutation.identity(n)


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
