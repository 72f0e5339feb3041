from math import gcd

import pytest

from christoffel import (
    SturmianSlope,
    christoffel_chain,
    cycle_type_string,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    factor_matrix,
    fib,
    fib_detvec_prediction,
    fib_sign,
    fib_word_chain,
    gcd_lemma_check,
    is_christoffel,
    lucas,
    zolotareff,
)
from christoffel.errors import IndexTooSmallError, OutOfRangeError
from christoffel.fibonacci import FibPrediction
import oracles

FIB_SLOPE = SturmianSlope.from_quotients((0,) + (1,) * 9)


class TestNumbers:
    def test_fib_values(self):
        assert [fib(m) for m in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert fib(-1) == 1

    def test_lucas_values(self):
        assert [lucas(m) for m in range(7)] == [2, 1, 3, 4, 7, 11, 18]

    def test_recurrences(self):
        for m in range(2, 40):
            assert fib(m) == fib(m - 1) + fib(m - 2)
            assert lucas(m) == lucas(m - 1) + lucas(m - 2)


class TestWordChain:
    def test_first_words(self):
        assert [str(w) for w in fib_word_chain(4)] == ["01", "001", "00101", "00100101"]

    def test_lengths_and_counts(self):
        for nu, w in enumerate(fib_word_chain(12)):
            assert len(w) == fib(nu + 3)
            assert w.count(0) == fib(nu + 2)
            assert w.count(1) == fib(nu + 1)
            assert is_christoffel(w) == "lower"

    def test_matches_semiconvergent_chain(self):
        # chain word nu has length F_{nu+3}, so eight words end at length F_10
        assert fib_word_chain(8) == christoffel_chain(FIB_SLOPE, fib(10))

    def test_concatenation_rule(self):
        words = fib_word_chain(8)
        for nu in range(2, 8):
            if nu % 2 == 0:
                assert words[nu] == words[nu - 1] + words[nu - 2]
            else:
                assert words[nu] == words[nu - 2] + words[nu - 1]


class TestPrediction:
    def test_interior_example(self):
        p = fib_detvec_prediction(3)
        assert (p.nu, p.i) == (2, 1)
        assert p.composition == (1, 1, 2)
        assert p.alphabet == (-1, 0, 1)

    def test_boundary_example(self):
        p = fib_detvec_prediction(4)
        assert (p.nu, p.i) == (2, 0)
        assert p.composition == (2, 0, 3)
        assert p.alphabet == (-1, 0, 1)
        assert set(p.values) == {1}  # F_2 = F_1 = 1 coincide here

    def test_against_closed_form(self):
        for n in range(2, 34):
            pred = fib_detvec_prediction(n)
            ctx = determinantal_vector_closed(FIB_SLOPE, n).context
            assert ctx.word_length == fib(pred.nu + 3)
            assert ctx.i == pred.i
            if pred.i == 0:
                assert ctx.composition == (pred.composition[0], pred.composition[2])
                assert ctx.alphabet == (pred.alphabet[0], pred.alphabet[2])
            else:
                assert ctx.composition == pred.composition
                assert ctx.alphabet == pred.alphabet

    def test_value_sets(self):
        for n in range(2, 34):
            pred = fib_detvec_prediction(n)
            vector = determinantal_vector_closed(FIB_SLOPE, n)
            assert {abs(x) for x in vector.components} == {abs(v) for v in pred.values}

    def test_short_lengths_defined_negative_rejected(self):
        """n = 0 and 1 take the generic shape of the chain word 01."""
        assert fib_detvec_prediction(0) == FibPrediction(0, 0, 1, (0, 1, 0), (0, 1, 1), (1,))
        assert fib_detvec_prediction(1) == FibPrediction(1, 0, 0, (1, 0, 1), (0, 1, 1), (0, 1))
        for n in (0, 1):
            vector = determinantal_vector_closed(FIB_SLOPE, n)
            assert {abs(x) for x in vector.components} == set(fib_detvec_prediction(n).values)
        with pytest.raises(OutOfRangeError):
            fib_detvec_prediction(-1)

    def test_equals_fibonacci_index_formula(self):
        for n in range(2, 3001):
            assert fib_detvec_prediction(n) == oracles.fib_detvec_prediction_by_index(n), n


class TestSignFormula:
    def test_m7(self):
        sign, cycle_type = fib_sign(7)
        assert sign == -1
        assert cycle_type == {1: 1, 4: 3}

    def test_m9(self):
        sign, cycle_type = fib_sign(9)
        assert sign == 1
        assert cycle_type == {1: 2, 4: 8}
        assert cycle_type_string(cycle_type) == "1^2 4^8"

    def test_m12(self):
        sign, cycle_type = fib_sign(12)
        assert sign == -1
        assert cycle_type == {1: lucas(6), 2: (fib(12) - lucas(6)) // 2}

    def test_closed_form_verified_for_range(self):
        """Closed form = cycle type and sign of the actual permutation."""
        for m in range(3, 26):
            formula_sign, formula_type = fib_sign(m)
            actual = oracles.multiplication_permutation(fib(m - 2), fib(m))
            assert formula_type == oracles.cycle_type(actual), m
            assert formula_sign == oracles.sign(actual), m
            assert sum(length * mult for length, mult in formula_type.items()) == fib(m)

    def test_sign_table_is_zolotareff(self):
        for m in range(3, 31):
            table_sign = 1 if m % 12 in (1, 2, 3, 4, 9, 11) else -1
            assert zolotareff(fib(m - 2), fib(m)) == table_sign

    def test_small_m_rejected(self):
        with pytest.raises(IndexTooSmallError):
            fib_sign(2)


class TestGcdLemma:
    def test_examples(self):
        assert gcd(fib(7) - 1, fib(9)) == 2
        assert gcd(fib(3) - 1, fib(5)) == 1
        assert gcd(fib(5) - 1, fib(7)) == 1

    def test_sweep(self):
        for k in range(0, 9):
            a, b, c = gcd_lemma_check(k)
            assert a and b
            assert c is None if k == 0 else c


class TestBoundaryDeterminants:
    def test_extreme_components(self):
        """First and last minors at the boundary are the two Fibonacci letters."""
        for nu in range(2, 8):
            n = fib(nu + 3) - 1
            vector = determinantal_vector_oracle(factor_matrix(FIB_SLOPE, n))
            first, last = abs(vector.components[0]), abs(vector.components[-1])
            if nu % 2 == 0:
                assert (first, last) == (fib(nu), fib(nu - 1))
            else:
                assert (first, last) == (fib(nu - 1), fib(nu))

    def test_special_factor_value(self):
        from christoffel import special_factor_determinant
        for nu in range(2, 8):
            for n in range(fib(nu + 2), fib(nu + 3) - 1):
                value = special_factor_determinant(FIB_SLOPE, n)
                assert abs(value) == fib(nu - 2)
