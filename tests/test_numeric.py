import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from christoffel import ExactMatrix, FieldScalar, det_exact, det_int, mat_mul
from christoffel.errors import ChristoffelError, DimensionMismatchError, KindMismatchError

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


def cofactor_det(rows):
    """Naive cofactor expansion along the first row; the determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def permanent_free_det(rows):
    """Leibniz formula, independent of any elimination order."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod if inversions % 2 == 0 else -prod
    return total


class TestFieldScalar:
    def test_rational_addition(self):
        assert FieldScalar.rational(1, 2) + FieldScalar.rational(1, 3) == Fraction(5, 6)

    def test_residue_product(self):
        x = FieldScalar.residue(3, 7) * FieldScalar.residue(5, 7)
        assert x == FieldScalar.residue(1, 7)

    def test_rational_inverse(self):
        assert FieldScalar.rational(1, 2).inverse() == 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            FieldScalar.rational(1) / FieldScalar.rational(0)
        with pytest.raises(ZeroDivisionError):
            FieldScalar.residue(3, 7) / FieldScalar.residue(0, 7)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            FieldScalar.rational(1) + FieldScalar.residue(1, 7)
        with pytest.raises(KindMismatchError):
            FieldScalar.residue(1, 5) * FieldScalar.residue(1, 7)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ChristoffelError):
            FieldScalar.residue(1, 10)

    @given(a=rationals, b=rationals)
    def test_rational_normalization(self, a, b):
        """Results stay in lowest terms with positive denominator."""
        for value in (FieldScalar(a) + FieldScalar(b),
                      FieldScalar(a) * FieldScalar(b)):
            num, den = value.value.numerator, value.value.denominator
            from math import gcd
            assert den > 0 and gcd(num, den) == 1

    def test_serialization_roundtrip(self):
        for text in ("5/6", "2", "-7/3", "3 mod 7"):
            assert str(FieldScalar.parse(text)) == text
        assert FieldScalar.parse("3%7") == FieldScalar.residue(3, 7)

    def test_power(self):
        assert FieldScalar.rational(2, 3) ** 3 == Fraction(8, 27)
        assert FieldScalar.residue(3, 7) ** 6 == FieldScalar.residue(1, 7)
        assert FieldScalar.rational(2) ** -1 == Fraction(1, 2)


class TestScalarProtocol:
    """FieldScalar keeps Python's numeric protocols."""

    @given(v=rationals | st.integers())
    def test_rational_hashes_like_its_value(self, v):
        assert FieldScalar(v) == v
        assert hash(FieldScalar(v)) == hash(v)
        assert len({FieldScalar(v), v}) == 1

    @given(a=rationals | st.integers(), b=rationals)
    def test_reflected_rational_operators(self, a, b):
        x = FieldScalar(b)
        assert a - x == FieldScalar(a) - x
        assert a + x == FieldScalar(a) + x
        assert a * x == FieldScalar(a) * x
        if b != 0:
            assert a / x == FieldScalar(a) / x
        else:
            with pytest.raises(ZeroDivisionError):
                a / x

    @given(a=st.integers(), b=st.integers(min_value=1, max_value=30))
    def test_reflected_residue_operators(self, a, b):
        x = FieldScalar.residue(b, 31)
        assert a - x == FieldScalar.residue(a, 31) - x
        assert a / x == FieldScalar.residue(a, 31) / x

    @given(other=st.floats(allow_nan=False) | st.complex_numbers(allow_nan=False)
           | st.none() | st.text(max_size=3))
    def test_unsupported_operand_raises_type_error(self, other):
        for x in (FieldScalar.rational(1), FieldScalar.residue(1, 7)):
            for op in (lambda u, v: u + v, lambda u, v: u - v,
                       lambda u, v: u * v, lambda u, v: u / v):
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)

    def test_examples(self):
        assert len({FieldScalar(3), 3}) == 1
        assert 1 - FieldScalar(2) == -1
        assert 1 / FieldScalar(2) == Fraction(1, 2)
        with pytest.raises(TypeError):
            FieldScalar(1) + 1.5


class TestMatMul:
    def test_identity(self):
        a = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert mat_mul(ExactMatrix.identity(3), a) == a

    def test_two_by_two_product(self):
        # P(0) P(2) P(1) with P(a) = [[a,1],[1,0]]
        p0 = ExactMatrix.from_rows([[0, 1], [1, 0]])
        p2 = ExactMatrix.from_rows([[2, 1], [1, 0]])
        p1 = ExactMatrix.from_rows([[1, 1], [1, 0]])
        assert mat_mul(mat_mul(p0, p2), p1) == ExactMatrix.from_rows([[1, 1], [3, 2]])

    def test_dimension_mismatch(self):
        a = ExactMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            mat_mul(a, a)

    def test_residue_product(self):
        a = ExactMatrix.from_rows([[3, 1], [0, 2]], modulus=7)
        b = ExactMatrix.from_rows([[5, 0], [1, 1]], modulus=7)
        assert mat_mul(a, b) == ExactMatrix.from_rows([[2, 1], [2, 2]], modulus=7)


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert det_exact(ExactMatrix.identity(n)) == 1

    def test_empty_matrix(self):
        assert det_exact(ExactMatrix(0, 0, [])) == 1

    def test_zero_column(self):
        m = ExactMatrix.from_rows([[1, 0, 1], [1, 0, 0], [0, 0, 1]])
        assert det_exact(m) == 0

    def test_rational_entries(self):
        m = ExactMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
        assert det_exact(m) == Fraction(1, 6) - 1

    def test_residue_entries(self):
        m = ExactMatrix.from_rows([[2, 1], [1, 2]], modulus=5)
        assert det_exact(m) == FieldScalar.residue(3, 5)

    def test_against_cofactor_expansion(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_int(rows) == cofactor_det(rows)

    def test_against_leibniz(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert det_int(rows) == permanent_free_det(rows)

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 8)
            a = ExactMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            b = ExactMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            det_exact(ExactMatrix.from_rows([[1, 2]]))
