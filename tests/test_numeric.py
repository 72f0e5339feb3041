import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import christoffel.numeric as numeric
from christoffel import (
    ExactMatrix,
    FieldScalar,
    SturmianSlope,
    christoffel_chain,
    christoffel_matrix,
    det_closed,
    det_exact,
    det_int,
    determinantal_vector,
    factor_matrix,
    group_inverse,
    mat_mul,
    params,
)
from christoffel.errors import (
    ChristoffelError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    KindMismatchError,
    NotChristoffelError,
    SizeLimitError,
)
from oracles import (
    carries_its_rotation_step,
    cofactor_det,
    determinantal_vector_by_identity_block,
    determinantal_vector_by_minors,
    is_prime_by_trial_division,
    mat_mul_per_entry,
    path_det,
)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)
PRIMES = (2, 3, 7, 31, 65537, 1_000_000_007, 2 ** 61 - 1)
primes = st.sampled_from(PRIMES)
GF_PRIMES = (2, 65537, 2 ** 61 - 1)


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


class TestPrimality:
    def test_equals_trial_division(self):
        assert [p for p in range(-5, 200_000) if numeric.is_prime(p)] \
            == [p for p in range(-5, 200_000) if is_prime_by_trial_division(p)]

    def test_strong_pseudoprimes_rejected(self):
        """Composites that pass Miller-Rabin for the first 4, 9 and 12 prime
        bases respectively (the last needs the 13th base, 41)."""
        for n, factor in ((3215031751, 151), (3825123056546413051, 149491),
                          (318665857834031151167461, 399165290221)):
            assert n % factor == 0
            assert not numeric.is_prime(n)

    def test_large_numbers(self):
        assert 2 ** 67 - 1 == 193707721 * 761838257287
        for n, prime in ((2 ** 31 - 1, True), (1_000_000_007, True), (2 ** 61 - 1, True),
                         (2 ** 67 - 1, False), ((2 ** 31 - 1) * 1_000_000_007, False)):
            assert numeric.is_prime(n) is prime

    def test_beyond_exactness_bound(self):
        bound = 3_317_044_064_679_887_385_961_981
        assert not numeric.is_prime(bound - 2)
        with pytest.raises(SizeLimitError):
            numeric.is_prime(bound)
        with pytest.raises(SizeLimitError):
            FieldScalar.residue(1, 2 ** 89 - 1)

    def test_61_bit_modulus(self):
        assert FieldScalar(1, 2 ** 61 - 1) * 2 == 2


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

    @pytest.mark.parametrize("text, part", [("1 mod 2 mod 3", "2 mod 3"), ("1%2%3", "2%3")])
    def test_parse_names_the_part_after_the_first_separator(self, text, part):
        with pytest.raises(ValueError, match=f"'{part}'"):
            FieldScalar.parse(text)

    def test_power(self):
        assert FieldScalar.rational(2, 3) ** 3 == Fraction(8, 27)
        assert FieldScalar.residue(3, 7) ** 6 == FieldScalar.residue(1, 7)
        assert FieldScalar.rational(2) ** -1 == Fraction(1, 2)

    @pytest.mark.parametrize("x", [FieldScalar.rational(1, 4), FieldScalar.residue(4, 7)],
                             ids=["Q", "GF(7)"])
    @pytest.mark.parametrize("exponent", [0.5, Fraction(1, 2), Fraction(-1, 3), 2.0, "2", None])
    def test_power_takes_int_exponents_only(self, x, exponent):
        """A power that is not an int is refused as an operand: over Q,
        1/4 ** 0.5 used to give a scalar holding the float 0.5, and over
        GF(p) pow raised its own TypeError from inside."""
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow"):
            x ** exponent

    def test_power_takes_what_operator_index_takes(self):
        class Two:
            def __index__(self):
                return 2

        for x in (FieldScalar.rational(1, 4), FieldScalar.residue(4, 7)):
            assert x ** Two() == x ** 2 == x * x
            assert x ** True == x and x ** False == 1


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

    @given(v=st.integers(), k=st.integers(), p=primes)
    def test_residue_equals_only_its_representative(self, v, k, p):
        x = FieldScalar.residue(v, p)
        assert (x == k) == (k == v % p)
        assert x != v % p + p
        assert hash(x) == hash(v % p)
        assert len({x, v % p}) == 1

    @given(num=st.integers(), k=st.integers(min_value=1, max_value=10 ** 6), p=primes)
    def test_fraction_without_residue_raises_zero_division(self, num, k, p):
        assume(num % p != 0)
        bad = Fraction(num, k * p)
        x = FieldScalar.residue(1, p)
        for attempt in (lambda: FieldScalar.coerce(bad, p), lambda: x + bad,
                        lambda: bad - x, lambda: x * bad, lambda: FieldScalar(bad, p),
                        lambda: ExactMatrix.from_rows([[bad]], p)):
            with pytest.raises(ZeroDivisionError):
                attempt()

    def test_examples(self):
        assert len({FieldScalar(3), 3}) == 1
        assert FieldScalar.residue(3, 7) == 3 and FieldScalar.residue(3, 7) != 10
        assert len({FieldScalar.residue(3, 7), 3}) == 1
        with pytest.raises(ZeroDivisionError):
            FieldScalar.residue(1, 7) + Fraction(1, 7)
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

    @given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4))
    def test_rational_equals_per_entry_product(self, data, n, k, m):
        """Entries of unequal denominators, cleared to one integer product."""
        a = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(rationals, min_size=k, max_size=k), min_size=n, max_size=n)))
        b = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(rationals, min_size=m, max_size=m), min_size=k, max_size=k)))
        product = mat_mul(a, b)
        assert product.modulus is None and product == mat_mul_per_entry(a, b)

    @given(data=st.data(), p=primes, n=st.integers(1, 4), k=st.integers(1, 4),
           m=st.integers(1, 4))
    def test_residue_equals_per_entry_product(self, data, p, n, k, m):
        entries = st.integers(-10 ** 20, 10 ** 20) | rationals.filter(
            lambda x: x.denominator % p)
        a = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)), p)
        b = ExactMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k)), p)
        product = mat_mul(a, b)
        assert product.modulus == p and product == mat_mul_per_entry(a, b)
        assert all(0 <= v < p for v in product.values)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            mat_mul(ExactMatrix.identity(2), ExactMatrix.identity(2, modulus=7))
        with pytest.raises(KindMismatchError):
            mat_mul(ExactMatrix.identity(2, 5), ExactMatrix.identity(2, modulus=7))

    def test_residue_product(self):
        a = ExactMatrix.from_rows([[3, 1], [0, 2]], modulus=7)
        b = ExactMatrix.from_rows([[5, 0], [1, 1]], modulus=7)
        assert mat_mul(a, b) == ExactMatrix.from_rows([[2, 1], [2, 2]], modulus=7)


def shaped(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def matrix(rows, cols, modulus=None):
    """from_rows, keeping the column count (and the kind) of a matrix
    without rows, which from_rows cannot express."""
    if rows:
        return ExactMatrix.from_rows(rows, modulus)
    return ExactMatrix._trusted(0, cols, modulus, ())


def assert_equals_per_entry_product(a, b):
    product, expected = mat_mul(a, b), mat_mul_per_entry(a, b)
    assert (product.rows, product.cols, product.modulus) == (a.rows, b.cols, a.modulus)
    assert product.entries == expected.entries
    if product.entries:  # an empty oracle matrix has no entry to take its kind from
        assert product == expected and hash(product) == hash(expected)


class TestPackedProduct:
    """The packed-row kernel against the per-entry product, on every shape
    up to 8 x 8 x 8, empty and one-wide inner dimensions included."""

    shapes = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))

    # An example takes up to 74 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 1000 ms is 5 x (74 + 115) ms, rounded up.
    @settings(max_examples=60, deadline=1000)
    @given(data=st.data(), shape=shapes)
    def test_rational_equals_per_entry_product(self, data, shape):
        n, k, m = shape
        big = st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 70))
        entries = st.integers(-3, 3) | rationals | big
        a = matrix(data.draw(shaped(entries, n, k)), k)
        b = matrix(data.draw(shaped(entries, k, m)), m)
        assert_equals_per_entry_product(a, b)

    # An example takes up to 26 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 800 ms is 5 x (26 + 115) ms, rounded up.
    @settings(max_examples=60, deadline=800)
    @given(data=st.data(), p=primes, shape=shapes)
    def test_residue_equals_per_entry_product(self, data, p, shape):
        n, k, m = shape
        entries = st.integers(-1, 1) | st.integers(0, p - 1) | st.integers(-2 ** 70, 2 ** 70)
        a = matrix(data.draw(shaped(entries, n, k)), k, p)
        b = matrix(data.draw(shaped(entries, k, m)), m, p)
        assert_equals_per_entry_product(a, b)

    @pytest.mark.parametrize("inner", [0, 1])
    def test_thin_inner_dimension(self, inner):
        a = ExactMatrix.from_rows([[Fraction(-2 ** 65, 3)] * inner] * 3)
        b = matrix([[Fraction(5, 2 ** 66), -7]] * inner, 2)
        assert_equals_per_entry_product(a, b)

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("past", [0, 1, 2], ids=["fits", "sign-bit", "one-past"])
    def test_slot_width_boundaries(self, width, past):
        """Largest product entry at +-(2^(8w-1) - 1), the most a w-byte
        signed slot holds, then at +-2^(8w-1) and one step past, which
        need the next width (past 8 bytes: the int.from_bytes route)."""
        top = 2 ** (8 * width - 1) - 1 + past
        for e in (top, -top):
            # bound k * max|a| * max|b| = |e|, reached by entries e and -e
            a = ExactMatrix.from_rows([[e], [-e], [1], [0]])
            b = ExactMatrix.from_rows([[1, -1, 1]])
            assert_equals_per_entry_product(a, b)

    def test_zero_factor_beside_wide_entries(self):
        """A zero factor makes the product bound 0, yet b's rows still fit
        their slots."""
        a = ExactMatrix.from_rows([[0, 0], [0, 0]])
        b = ExactMatrix.from_rows([[2 ** 100, -2 ** 70], [-(2 ** 63), 2 ** 63 - 1]])
        assert_equals_per_entry_product(a, b)

    def test_canonical_form(self):
        half = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
        product = mat_mul(half, ExactMatrix.from_rows([[1], [1]]))
        one = ExactMatrix.from_rows([[1]])
        assert product == one and hash(product) == hash(one)
        assert (product.ints, product.den) == ((1,), 1)

    def test_identity_keeps_christoffel_matrix(self):
        for n, a, b, r in ((7, Fraction(1, 3), Fraction(-5, 2), 2),
                           (31, Fraction(7, 6), Fraction(2 ** 70, 9), 12)):
            m = christoffel_matrix(params(n, a, b, r))
            for side in (mat_mul(m, ExactMatrix.identity(n)),
                         mat_mul(ExactMatrix.identity(n), m)):
                assert side == m and hash(side) == hash(m)


def rotation_table(row, step, modulus=None):
    """The n x n table whose row i is row rotated left by i * step, built
    in the canonical form and carrying its step."""
    n = len(row)
    ints, den = numeric._integer_form(list(row), modulus)
    table = [ints[(j + i * step) % n] for i in range(n) for j in range(n)]
    return ExactMatrix._trusted(n, n, modulus, tuple(table), den, step=step)


@st.composite
def rotation_tables(draw, modulus, n):
    """A rotation table of order n over the kind with any unit step and a
    row of ints, small, 80-bit or rational."""
    letters = st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80) | rationals
    if modulus is not None:
        letters = letters.filter(lambda x: Fraction(x).denominator % modulus)
    step = draw(st.integers(0, n - 1).filter(lambda s: gcd(s, n) == 1))
    return rotation_table(draw(st.lists(letters, min_size=n, max_size=n)), step, modulus)


class TestRotationProduct:
    """Products of two tables that carry a rotation step: one cyclic
    correlation (mat_mul), against the per-entry product."""

    kinds = st.sampled_from((None,) + GF_PRIMES)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), modulus=kinds, n=st.integers(1, 16))
    def test_equals_per_entry_product(self, data, modulus, n):
        a = data.draw(rotation_tables(modulus, n))
        b = data.draw(rotation_tables(modulus, n))
        product = mat_mul(a, b)
        assert product._step == -a._step * b._step % n
        assert carries_its_rotation_step(product)
        assert_equals_per_entry_product(a, b)
        # A product of products, and products with the identity.
        c = data.draw(rotation_tables(modulus, n))
        chained = mat_mul(product, c)
        assert carries_its_rotation_step(chained)
        assert chained == numeric._packed_product(product, c) == mat_mul(a, mat_mul(b, c))
        one = ExactMatrix.identity(n, modulus)
        assert mat_mul(one, a) == mat_mul(a, one) == a

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), modulus=kinds, n=st.integers(17, 64))
    def test_large_orders_equal_the_packed_product(self, data, modulus, n):
        a = data.draw(rotation_tables(modulus, n))
        b = data.draw(rotation_tables(modulus, n))
        assert mat_mul(a, b) == numeric._packed_product(a, b)

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("past", [0, 1, 2], ids=["fits", "sign-bit", "one-past"])
    def test_slot_width_boundaries(self, width, past):
        """The bound n * max|a| * max|b| at +-(2^(8w-1) - 1), the most a
        w-byte signed slot holds, then at +-2^(8w-1) and one step past,
        which need the next width (past 8 bytes: the int.from_bytes
        route); then mixed signs over three columns."""
        top = 2 ** (8 * width - 1) - 1 + past
        for e in (top, -top):
            for b in (1, -1):
                assert_equals_per_entry_product(rotation_table([e], 0), rotation_table([b], 0))
            a = rotation_table([e, -e, 0], 1)
            b = rotation_table([1, 0, -1], 2)
            assert_equals_per_entry_product(a, b)

    def test_zero_factor_beside_wide_entries(self):
        """A zero factor makes the product 0, yet the other factor's row,
        which the correlation packs too, still fits its slots."""
        zero = rotation_table([0, 0, 0], 1)
        wide = rotation_table([2 ** 100, -2 ** 70, -(2 ** 63)], 2)
        for a, b in ((zero, wide), (wide, zero)):
            assert_equals_per_entry_product(a, b)

    def test_near_misses_fall_through_and_agree(self, monkeypatch):
        """A factor without a step (a from_rows copy of a stepped table),
        a non-square factor and factors without rows take the packed
        product, with the same result."""
        rng = random.Random(26)
        cases = []
        for modulus in (None, 65537):
            for n in (1, 2, 7, 16):
                row = ([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                       if modulus is None else [rng.randrange(modulus) for _ in range(n)])
                a = rotation_table(row, 1, modulus)
                b = rotation_table(row[::-1], n - 1, modulus)
                copy_a = ExactMatrix.from_rows([a.row(i) for i in range(n)], modulus)
                wide = matrix([[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)],
                              n + 1, modulus)
                cases += [(copy_a, b), (b, copy_a), (a, wide), (matrix([], n, modulus), a)]
            cases.append((ExactMatrix.identity(0, modulus), ExactMatrix.identity(0, modulus)))
        expected = [mat_mul_per_entry(a, b) for a, b in cases]

        def forbidden(a, b):
            raise AssertionError("the rotation route ran")
        monkeypatch.setattr(numeric, "_rotation_product", forbidden)
        for (a, b), product in zip(cases, expected):
            assert a._step is None or b._step is None
            got = mat_mul(a, b)
            assert got.entries == product.entries and got._step is None

    def test_rational_tables_take_the_route(self):
        """A denominator other than 1 on either side is not a near miss:
        the route divides by the product of the two, as the packed
        product does, and brings g to lowest terms."""
        rng = random.Random(27)
        for n in (2, 5, 16):
            for dens in ((3, 1), (1, 7), (6, 10)):
                rows = [[Fraction(rng.randint(-20, 20), d) for _ in range(n)] for d in dens]
                a, b = (rotation_table(row, rng.choice([s for s in range(n) if gcd(s, n) == 1]))
                        for row in rows)
                product = mat_mul(a, b)
                assert product._step is not None and gcd(product.den, *product.ints) == 1
                assert product == numeric._packed_product(a, b) == mat_mul_per_entry(a, b)

    def test_steps_of_the_constructors(self):
        for n in range(1, 12):
            for modulus in (None, 13):
                one = ExactMatrix.identity(n, modulus)
                assert one._step == n - 1
                assert carries_its_rotation_step(one)
        assert ExactMatrix.identity(0)._step is None
        for m in (ExactMatrix.from_rows([[1, 2], [2, 1]]),
                  ExactMatrix(2, 2, [FieldScalar(x) for x in (1, 2, 2, 1)]),
                  mat_mul(ExactMatrix.from_rows([[1, 2], [2, 1]]), ExactMatrix.identity(2))):
            assert m._step is None

    @pytest.mark.parametrize("modulus", [None, 65537])
    def test_copies_compare_and_hash_equal(self, modulus):
        """The step is derived data: a from_rows copy without it compares
        and hashes equal, and pickle, copy and deepcopy keep the table."""
        for n, r in ((7, 2), (31, 12)):
            m = christoffel_matrix(params(n, Fraction(1, 3), 5, r, modulus))
            for table in (m, mat_mul(m, m)):
                bare = ExactMatrix.from_rows([table.row(i) for i in range(n)], modulus)
                assert bare._step is None and table._step is not None
                assert bare == table and hash(bare) == hash(table)
                assert repr(bare) == repr(table) and bare.to_json() == table.to_json()
                for clone in (pickle.loads(pickle.dumps(table)), copy.copy(table),
                              copy.deepcopy(table)):
                    assert clone == table and hash(clone) == hash(table)
                    assert clone._step == table._step
                    assert mat_mul(clone, clone) == mat_mul(bare, bare)


@st.composite
def square_matrices(draw):
    """n x n integer matrices, n <= 12, with small or 65-bit entries; about
    half have a row that is a multiple of another (singular), and about
    half a zero first pivot."""
    n = draw(st.integers(0, 12))
    entries = st.integers(-3, 3) | st.integers(-2 ** 65, 2 ** 65)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(st.integers(-3, 3))
        rows[dst] = [factor * x for x in rows[src]]
    if n >= 1 and draw(st.booleans()):
        rows[0][0] = 0
    return rows


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

    @given(data=st.data(), n=st.integers(1, 5))
    def test_row_denominators_against_cofactor_expansion(self, data, n):
        """Each row has its own denominator; the result is cofactor_det on Fractions."""
        dens = data.draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
        rows = [[Fraction(data.draw(st.integers(-99, 99)), d) for _ in range(n)]
                for d in dens]
        det = det_exact(ExactMatrix.from_rows(rows))
        assert det.modulus is None and det == cofactor_det(rows)

    @given(data=st.data(), p=primes, n=st.integers(1, 5))
    def test_residue_against_cofactor_expansion(self, data, p, n):
        rows = data.draw(st.lists(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n,
                                           max_size=n), min_size=n, max_size=n))
        assert det_exact(ExactMatrix.from_rows(rows, p)) \
            == FieldScalar.residue(cofactor_det(rows), p)

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            det_exact(ExactMatrix.from_rows([[1, 2]]))

    # An example takes up to 35 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 800 ms is 5 x (35 + 115) ms, rounded up.
    @settings(max_examples=200, deadline=800)
    @given(rows=square_matrices(), p=st.sampled_from((2, 3, 5, 7, 65537, 2 ** 61 - 1)))
    def test_residue_equals_integer_bareiss_mod_p(self, rows, p):
        """Elimination mod p against the integer (Bareiss) determinant
        reduced mod p."""
        det = det_exact(ExactMatrix.from_rows(rows, p))
        assert det.modulus == p and det.value == det_int(rows) % p

    def test_residue_zero_pivots(self):
        """First pivot zero (a row swap flips the sign), and a singular
        matrix whose only dependency shows mod p."""
        swapped = ExactMatrix.from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 9]], 7)
        assert det_exact(swapped) == FieldScalar.residue(-3 % 7, 7)
        assert det_int([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == -3
        singular = [[5, 1], [0, 5]]
        assert det_int(singular) == 25 and det_exact(ExactMatrix.from_rows(singular, 5)) == 0


@st.composite
def tall_matrices(draw):
    """(k+1) x k integer matrices, k <= 7; about half have a column that is
    a multiple of another, so every maximal minor vanishes."""
    k = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                         min_size=k + 1, max_size=k + 1))
    if k >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(k)))[:2]
        factor = draw(st.integers(-2, 2))
        for r in rows:
            r[dst] = factor * r[src]
    return rows


@st.composite
def shaped_tall_matrices(draw):
    """(k+1) x k integer matrices, k <= 14, of one drawn shape.

    - generic: independent entries;
    - dependent row: row f (any position) is a combination of rows 0..f-1,
      zero for f = 0, so every minor that keeps rows 0..f vanishes;
    - rank k-1, rank <= k-2: one or two columns of G are combinations of
      the others, so V = 0;
    - zero column of G (the first included) and zero row of G (any row).
    """
    k = draw(st.integers(0, 14))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                         min_size=k + 1, max_size=k + 1))
    shape = draw(st.sampled_from(
        ["generic", "dependent row", "rank k-1", "rank <= k-2", "zero column", "zero row"]))
    coefficients = st.lists(st.integers(-2, 2), min_size=k + 1, max_size=k + 1)
    if shape == "dependent row":
        f = draw(st.integers(0, k))
        c = draw(coefficients)
        rows[f] = [sum(c[i] * rows[i][j] for i in range(f)) for j in range(k)]
    elif shape in ("rank k-1", "rank <= k-2") and k >= 2:
        order = draw(st.permutations(range(k)))
        dependent, kept = (order[:1], order[1:]) if shape == "rank k-1" else (order[:2], order[2:])
        for dst in dependent:
            c = draw(coefficients)
            for r in rows:
                r[dst] = sum(c[j] * r[j] for j in kept)
    elif shape == "zero column" and k >= 1:
        dst = draw(st.integers(0, k - 1))
        for r in rows:
            r[dst] = 0
    elif shape == "zero row":
        rows[draw(st.integers(0, k))] = [0] * k
    return rows


class TestDeterminantalVector:
    """The two generic references for the signed maximal minors of any
    integer matrix, an elimination of [G | I] and cofactor expansion,
    agree; the library's kernel reads only factor matrices G_n."""

    # An example takes up to 5 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 600 ms is 5 x (5 + 115) ms, rounded up.
    @settings(max_examples=40, deadline=600)
    @given(rows=tall_matrices())
    def test_equals_per_minor_cofactor_expansion(self, rows):
        assert determinantal_vector_by_identity_block(rows) \
            == determinantal_vector_by_minors(rows)

    @settings(max_examples=300, deadline=None)
    @given(rows=shaped_tall_matrices())
    def test_equals_identity_block_elimination(self, rows):
        assert determinantal_vector_by_identity_block(rows) \
            == determinantal_vector_by_minors(rows)

    @pytest.mark.parametrize("rows, free", [
        ([[0, 0], [1, 2], [3, 4]], 0),
        ([[1, 2], [2, 4], [3, 5]], 1),
        ([[1, 2], [3, 5], [0, 0]], 2),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 7], [0, 1, 1]], None),
        ([[1, 2, 3], [0, 0, 0], [0, 0, 0], [4, 5, 6]], None),
    ], ids=["first", "middle", "last", "zero-column", "rank-one"])
    def test_free_column(self, rows, free):
        """Row f, the first that depends on the rows above it, is the free
        column of G^T: of rank k, G without row f is regular, so V_f is
        never 0; with rank below k every component is 0."""
        v = determinantal_vector_by_identity_block(rows)
        assert v == determinantal_vector_by_minors(rows)
        if free is None:
            assert not any(v)
        else:
            assert v[free] != 0


def _damaged(draw, rows):
    """rows as drawn, or with one row copied onto another or set to zero."""
    rows = [list(r) for r in rows]
    change = draw(st.sampled_from(["none", "copied row", "zero row"]))
    if change == "copied row" and len(rows) >= 2:
        src, dst = draw(st.permutations(range(len(rows))))[:2]
        rows[dst] = list(rows[src])
    elif change == "zero row":
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * len(rows[0])
    return rows


letters = st.integers(-9, 9) | st.integers(-2 ** 65, 2 ** 65)


@st.composite
def christoffel_tables(draw):
    """(n, a, b, r) for the Christoffel table M(n, a, b, r), n <= 12, with
    distinct integer letters a and b."""
    n = draw(st.integers(2, 12))
    r = draw(st.sampled_from([r for r in range(1, n) if gcd(r, n) == 1]))
    a, b = draw(st.lists(letters, min_size=2, max_size=2, unique=True))
    return n, a, b, r


@st.composite
def factor_matrices(draw):
    """G_n, n <= 9, of a random continued-fraction prefix, some with a row
    copied onto another or set to zero."""
    quotients = (draw(st.integers(0, 4)),) + tuple(
        draw(st.lists(st.integers(1, 5), min_size=3, max_size=6)))
    slope = SturmianSlope.from_quotients(quotients)
    big_n = len(christoffel_chain(slope, 10 ** 6)[-1])
    n = draw(st.integers(0, min(9, big_n - 1)))
    return _damaged(draw, factor_matrix(slope, n).int_rows())


def table_rows(m):
    return [list(m.values[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


class TestDifferencedElimination:
    """The kernels difference consecutive rows before reading or
    eliminating them; their results stay exact for every input,
    structured or not."""

    @settings(max_examples=150, deadline=None)
    @given(table=christoffel_tables(), data=st.data())
    def test_christoffel_tables(self, table, data):
        """det_int, det_exact over GF(p) and the elimination they fall back
        to, of a (possibly damaged) table, against cofactor expansion."""
        rows = _damaged(data.draw, [[int(x) for x in row]
                                    for row in table_rows(christoffel_matrix(params(*table)))])
        det = cofactor_det(rows)
        assert det_int(rows) == numeric._det_by_elimination(rows) == det
        for p in GF_PRIMES:
            assert det_exact(ExactMatrix.from_rows(rows, p)) == FieldScalar.residue(det, p)
            assert numeric._det_by_elimination(rows, p) == det % p

    @settings(max_examples=40, deadline=None)
    @given(table=christoffel_tables(), dens=st.tuples(st.integers(1, 40), st.integers(1, 40)))
    def test_rational_christoffel_tables(self, table, dens):
        n, a, b, r = table
        a, b = Fraction(a, dens[0]), Fraction(b, dens[1])
        assume(a != b)
        m = christoffel_matrix(params(n, a, b, r))
        assert det_exact(m) == cofactor_det(table_rows(m))

    @settings(max_examples=100, deadline=None)
    @given(rows=square_matrices())
    def test_dense_matrices(self, rows):
        det = cofactor_det(rows)
        assert det_int(rows) == det
        for p in GF_PRIMES:
            assert det_exact(ExactMatrix.from_rows(rows, p)) == FieldScalar.residue(det, p)

    @settings(max_examples=100, deadline=None)
    @given(rows=factor_matrices())
    def test_factor_matrices(self, rows):
        """The identity-block elimination of a (possibly damaged) G_n against
        cofactor expansion; the path kernel gives the same minors or
        rejects a damaged matrix."""
        expected = determinantal_vector_by_minors(rows)
        assert determinantal_vector_by_identity_block(rows) == expected
        try:
            v = determinantal_vector(rows)
        except NotChristoffelError:
            return
        assert v == expected


def stacked(last, steps):
    """The rows g_0..g_k from the bottom up: g_k = last and g_i = g_{i+1}
    + steps[i], each step a {column: value} dict."""
    rows = [list(last)]
    for step in reversed(steps):
        g = list(rows[-1])
        for c, v in step.items():
            g[c] += v
        rows.append(g)
    return rows[::-1]


@st.composite
def path_matrices(draw, max_n):
    """n x n integer matrices whose row differences are the edges of the
    path 0-1-...-(n-1) in a random order pi, scaled: g_i - g_{i+1} =
    d_i (e_pi(i) - e_pi(i)+1), d_i of either sign up to 10^6."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n - 1)))
    scales = draw(st.lists(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                           min_size=n - 1, max_size=n - 1))
    last = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n))
    return stacked(last, [{j: d, j + 1: -d} for j, d in zip(order, scales)])


@st.composite
def residue_path_matrices(draw, p):
    """n x n matrices of distinct residues mod p, n <= min(40, p), each row
    the one above with two adjacent entries exchanged, every column pair
    once: a path matrix whose stored residues are its ints."""
    n = draw(st.integers(1, min(40, p)))
    row = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    rows = [row]
    for j in draw(st.permutations(range(n - 1))):
        row = list(row)
        row[j], row[j + 1] = row[j + 1], row[j]
        rows.append(row)
    return rows


def tuples(rows):
    return [tuple(r) for r in rows]


# A path matrix of order 5, pi = (2, 0, 3, 1), and near misses that
# change its second step.
NEAR_LAST = (3, -1, 4, 1, -5)
NEAR_STEPS = [{2: 2, 3: -2}, {0: -3, 1: 3}, {3: 5, 4: -5}, {1: 7, 2: -7}]
NEAR_MISSES = {
    "repeated edge": {2: -3, 3: 3},
    "last column only": {4: 6},
    "unequal scales": {0: -3, 1: 4},
    "third column": {0: -3, 1: 3, 3: 1},
    "equal rows": {},
}


class TestPathDeterminant:
    """A square matrix whose row differences are scaled edges of a path has
    det = sign(pi) prod d_i sum(last row), read off its rows by the oracle
    path_det, which returns None for every other matrix; det_int and
    det_exact eliminate a matrix given entry by entry and agree."""

    @settings(max_examples=150, deadline=None)
    @given(rows=path_matrices(7))
    def test_small_against_cofactor_expansion(self, rows):
        det = cofactor_det(rows)
        assert path_det(tuples(rows)) == det_int(rows) == det
        assert det_exact(ExactMatrix.from_rows(rows)) == det
        for p in GF_PRIMES:
            assert det_exact(ExactMatrix.from_rows(rows, p)) == FieldScalar.residue(det, p)

    @settings(max_examples=60, deadline=None)
    @given(rows=path_matrices(40))
    def test_against_elimination(self, rows):
        """Against the elimination fallback, called directly, up to n = 40."""
        det = numeric._det_by_elimination(rows)
        assert path_det(tuples(rows)) == det_int(rows) == det
        for p in GF_PRIMES:
            assert numeric._det_by_elimination(rows, p) == det % p
            assert det_exact(ExactMatrix.from_rows(rows, p)) == FieldScalar.residue(det, p)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), p=st.sampled_from(GF_PRIMES))
    def test_residues(self, data, p):
        """The reading runs on the stored residues over GF(p)."""
        rows = data.draw(residue_path_matrices(p))
        m = ExactMatrix.from_rows(rows, p)
        assert path_det(tuples(rows)) is not None
        assert list(m.ints) == [x for row in rows for x in row]
        det = numeric._det_by_elimination(rows, p)
        assert det_exact(m) == FieldScalar.residue(det, p)
        if len(rows) <= 7:
            assert det == cofactor_det(rows) % p

    def test_path_of_the_near_misses(self):
        rows = stacked(NEAR_LAST, NEAR_STEPS)
        assert path_det(tuples(rows)) == cofactor_det(rows) != 0

    @pytest.mark.parametrize("step", list(NEAR_MISSES.values()), ids=list(NEAR_MISSES))
    def test_near_misses_fall_through(self, step):
        """A pair that is not one scaled adjacent exchange, or repeats one,
        stops the reading; the elimination still gives the exact value."""
        rows = stacked(NEAR_LAST, [NEAR_STEPS[0], step, *NEAR_STEPS[2:]])
        det = cofactor_det(rows)
        assert path_det(tuples(rows)) is None
        assert det_int(rows) == det_exact(ExactMatrix.from_rows(rows)) == det
        for p in GF_PRIMES:
            assert det_exact(ExactMatrix.from_rows(rows, p)) == FieldScalar.residue(det, p)

    def test_list_and_tuple_rows(self):
        """det_int reads rows of mixed sequence types as one kind."""
        rows = stacked(NEAR_LAST, NEAR_STEPS)
        mixed = [tuple(r) if i % 2 else r for i, r in enumerate(rows)]
        assert det_int(mixed) == det_int(tuples(rows)) == cofactor_det(rows)

    def test_christoffel_tables_run_no_elimination(self, monkeypatch):
        """det_exact of every Christoffel table up to n = 64, over Q (integer
        and rational letters) and over GF(p), runs neither elimination."""
        cases = [params(n, a, b, r, p)
                 for n in range(2, 65) for r in {1, n - 1, (n // 2) | 1}
                 if gcd(r, n) == 1
                 for a, b, p in ((0, 1, None), (-3, 7, None), (Fraction(1, 3), Fraction(-2, 5),
                                                               None),
                                 (2, 5, 65537), (3, 1, 2 ** 61 - 1))]
        expected = [det_closed(c) for c in cases]

        def forbidden(*args):
            raise AssertionError("det_exact ran an elimination")

        monkeypatch.setattr(numeric, "_eliminate", forbidden)
        monkeypatch.setattr(numeric, "_det_mod", forbidden)
        assert [det_exact(christoffel_matrix(c)) for c in cases] == expected


def walked_row(n, step, first, delta):
    """The row f of order n with f[0] = first and f[t] - f[t + step] =
    delta[t] (indices mod n), walked along the cycle of the unit step;
    sum(delta) = 0 closes the cycle."""
    f = [first] * n
    for k in range(n - 1):
        t = k * step % n
        f[(t + step) % n] = f[t] - delta[t]
    return f


def edge(n, column, d):
    """delta of one scaled edge: d at column, -d at column + 1 (mod n)."""
    delta = [0] * n
    delta[column % n] += d
    delta[(column + 1) % n] -= d
    return delta


@st.composite
def path_rotation_tables(draw, modulus, n):
    """A rotation table of order n, any unit step s, whose row pairs all
    differ by one scaled adjacent exchange: row 0 minus row 0 rotated left
    by s is d at c = (-1 - s) mod n, -d at c + 1 and 0 elsewhere, with the
    first entry and d small, 80-bit or rational (d nonzero in the kind)."""
    letters = st.integers(-3, 3) | st.integers(-2 ** 80, 2 ** 80) | rationals
    if modulus is not None:
        letters = letters.filter(lambda x: Fraction(x).denominator % modulus)
    nonzero = bool if modulus is None else (lambda x: Fraction(x).numerator % modulus)
    d = draw(letters.filter(nonzero))
    step = draw(st.integers(0, n - 1).filter(lambda s: gcd(s, n) == 1))
    return rotation_table(walked_row(n, step, draw(letters), edge(n, -1 - step, d)),
                          step, modulus)


def rotation_rows(m):
    n = m.rows
    return [m.ints[i * n:(i + 1) * n] for i in range(n)]


def assert_rotation_det(m):
    """det_exact of the stepped table m equals the elimination of its
    stored ints, called directly, and cofactor expansion up to n = 7; the
    reading off row 0 runs exactly when path_det reads the rows, from
    n = 2 on (one row has no pair to read).  Returns whether it ran."""
    n, p = m.rows, m.modulus
    rows = rotation_rows(m)
    read = numeric._rotation_det(m.ints[:n], m._step)
    assert read == (path_det(rows) if n >= 2 else None)
    det = numeric._det_by_elimination(rows)
    if n <= 7:
        assert det == cofactor_det(rows)
    if p is None:
        assert det_exact(m) == Fraction(det, m.den ** n)
    else:
        assert numeric._det_by_elimination(rows, p) == det % p
        assert det_exact(m) == FieldScalar.residue(det, p)
    return read is not None


class TestRotationDeterminant:
    """A table that carries a rotation step s is read off its row 0 when
    row 0 minus row 0 rotated by s is one scaled edge at (-1 - s) mod n;
    every other stepped table falls through and agrees."""

    kinds = st.sampled_from((None,) + GF_PRIMES)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), modulus=kinds, n=st.integers(1, 7), path=st.booleans())
    def test_small_against_cofactor_expansion(self, data, modulus, n, path):
        m = data.draw(path_rotation_tables(modulus, n) if path else rotation_tables(modulus, n))
        assert carries_its_rotation_step(m)
        read = assert_rotation_det(m)
        if path:
            assert read == (n >= 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), modulus=kinds, n=st.integers(8, 40))
    def test_against_elimination(self, data, modulus, n):
        assert assert_rotation_det(data.draw(path_rotation_tables(modulus, n)))

    # (n, step, delta): the column c = (-1 - step) mod n is 3, 2, 0, 3 in
    # the first four.
    NEAR_MISSES = {
        "two edges": (7, 3, [x + y for x, y in zip(edge(7, 3, 2), edge(7, 0, 1))]),
        "edge at the wrong column": (7, 3, edge(7, 4, 5)),
        "edge across the ends": (5, 2, edge(5, 4, 1)),
        "unequal scales": (6, 5, [3, -2, -1, 0, 0, 0]),
        "constant row": (6, 1, [0] * 6),
        "n = 1": (1, 0, [0]),
        "n = 2, constant row": (2, 1, [0, 0]),
    }

    @pytest.mark.parametrize("n, step, delta", list(NEAR_MISSES.values()), ids=list(NEAR_MISSES))
    def test_near_misses_fall_through_and_agree(self, n, step, delta):
        for first in (4, Fraction(-7, 3)):
            row = walked_row(n, step, first, delta)
            assert [x - row[(t + step) % n] for t, x in enumerate(row)] == delta
            for modulus in (None,) + GF_PRIMES:
                assert not assert_rotation_det(rotation_table(row, step, modulus))

    def test_order_two(self):
        """n = 2, step 1: det [[x, y], [y, x]] = (x - y)(x + y)."""
        for x, y in ((3, -1), (Fraction(1, 2), 5), (0, 1)):
            m = rotation_table([x, y], 1)
            assert numeric._rotation_det(m.ints[:2], 1) is not None
            assert det_exact(m) == (x - y) * (x + y)

    def test_christoffel_tables_products_and_identities(self, monkeypatch):
        """Every Christoffel table up to n = 64, the products of two and the
        identity, over Q (integer and rational letters) and GF(p), are
        read off row 0: no elimination runs."""
        rng = random.Random(27)
        cases = []
        for n in range(2, 65):
            units = [r for r in range(1, n) if gcd(r, n) == 1]
            for a, b, p in ((0, 1, None), (-3, 7, None), (Fraction(1, 3), Fraction(-2, 5), None),
                            (2, 5, 65537), (3, 1, 2 ** 61 - 1)):
                p1, p2 = (params(n, a, b, rng.choice(units), p) for _ in range(2))
                cases.append((christoffel_matrix(p1), det_closed(p1)))
                product = mat_mul(christoffel_matrix(p1), christoffel_matrix(p2))
                cases.append((product, det_closed(p1) * det_closed(p2)))
            for p in (None, 65537):
                cases.append((ExactMatrix.identity(n, p), FieldScalar.coerce(1, p)))

        def forbidden(*args):
            raise AssertionError("det_exact ran an elimination")

        monkeypatch.setattr(numeric, "_det_by_elimination", forbidden)
        for m, expected in cases:
            assert m._step is not None
            assert det_exact(m) == expected


class TestIndexRange:
    """entry, row and column read inside the matrix and raise
    IndexOutOfRangeError outside it.  On a 3 x 3 table entry(0, 3) used to
    read entry (1, 0), entry(0, -1) entry (2, 2), row(5) gave an empty
    tuple and column(3) a bare IndexError."""

    ROWS = [[1, Fraction(1, 2), -3], [4, 0, Fraction(7, 3)]]

    @pytest.mark.parametrize("modulus", [None, 11])
    def test_inside(self, modulus):
        m = ExactMatrix.from_rows(self.ROWS, modulus)
        scalars = [[FieldScalar(x, modulus) for x in row] for row in self.ROWS]
        assert [[m.entry(i, j) for j in range(3)] for i in range(2)] == scalars
        assert [list(m.row(i)) for i in range(2)] == scalars
        assert [list(m.column(j)) for j in range(3)] == [list(c) for c in zip(*scalars)]

    @pytest.mark.parametrize("modulus", [None, 11])
    def test_outside(self, modulus):
        square = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], modulus)
        wide = ExactMatrix.from_rows(self.ROWS, modulus)
        for m, i, j in ((square, 0, 3), (square, 0, -1), (square, 3, 0), (square, -1, 0),
                        (wide, 2, 0), (wide, 0, 3)):
            with pytest.raises(IndexOutOfRangeError, match=rf"entry \({i}, {j}\) outside"):
                m.entry(i, j)
        for m, i in ((square, 5), (square, 3), (square, -1), (wide, 2)):
            with pytest.raises(IndexOutOfRangeError, match=rf"row {i} outside"):
                m.row(i)
        for m, j in ((square, 3), (square, -1), (wide, 3)):
            with pytest.raises(IndexOutOfRangeError, match=rf"column {j} outside"):
                m.column(j)


class TestKindStoredOnce:
    """A matrix holds its modulus once and raw values, not FieldScalars."""

    def test_raw_values(self):
        q = ExactMatrix.from_rows([[1, Fraction(1, 2)], [3, 4]])
        gf = ExactMatrix.from_rows([[1, -1], [Fraction(1, 2), 10]], 7)
        assert q.modulus is None and q.values == (1, Fraction(1, 2), 3, 4)
        assert all(type(v) is Fraction for v in q.values)
        assert gf.modulus == 7 and gf.values == (1, 6, 4, 3)
        assert all(type(v) is int for v in gf.values)
        assert all(isinstance(x, FieldScalar) and x.modulus == 7 for x in gf.entries)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(KindMismatchError):
            ExactMatrix(1, 2, [FieldScalar(1), FieldScalar.residue(1, 7)])
        with pytest.raises(KindMismatchError):
            ExactMatrix.from_rows([[FieldScalar.residue(1, 5)]], 7)

    def test_raw_numbers_rejected_by_constructor(self):
        """The constructor takes FieldScalars; raw numbers go through from_rows."""
        for raw, name in ((1, "int"), (Fraction(1, 2), "Fraction")):
            with pytest.raises(TypeError, match=name):
                ExactMatrix(1, 1, [raw])
            with pytest.raises(TypeError, match=name):
                ExactMatrix(1, 2, [FieldScalar(1), raw])

    def test_primality_checked_at_most_once(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return is_prime_by_trial_division(p)

        monkeypatch.setattr(numeric, "is_prime", counting)
        monkeypatch.setattr(numeric, "_proven_primes", set())
        rng = random.Random(12)
        p = 1_000_000_007
        a = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(6)] for _ in range(6)], p)
        assert calls == [p]
        b = ExactMatrix.identity(6, p)
        calls.clear()
        product = mat_mul(a, b)
        assert len(calls) <= 1
        det_exact(product)
        product.to_string_rows()
        assert len(calls) <= 1 and product == a

    @given(values=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                           max_size=12))
    def test_ints_fractions_and_scalars_build_equal_matrices(self, values):
        """The same values over Q as Fractions, as FieldScalars, and with the
        integral ones as ints, as bools (0 and 1) or with the rest as a
        Fraction subclass all build one matrix."""
        class Tagged(Fraction):
            pass

        values = values + [Fraction(1, 1), Fraction(-3), Fraction(-5, 7), Fraction(0)]
        as_ints = [int(v) if v.denominator == 1 else v for v in values]
        as_bools = [bool(v) if v in (0, 1) else v for v in as_ints]
        forms = [values, [FieldScalar(v) for v in values], as_ints, as_bools,
                 [v if v.denominator == 1 else Tagged(v) for v in as_ints]]
        matrices = [ExactMatrix.from_rows([form, form[::-1]]) for form in forms]
        assert all(m == matrices[0] for m in matrices)
        assert matrices[0].values == tuple(values + values[::-1])

    def test_stored_form(self):
        q = ExactMatrix.from_rows([[1, Fraction(1, 2)], [3, Fraction(-4, 3)]])
        gf = ExactMatrix.from_rows([[1, -1], [Fraction(1, 2), 10]], 7)
        assert (q.ints, q.den) == ((6, 3, 18, -8), 6)
        assert (gf.ints, gf.den) == ((1, 6, 4, 3), 1)
        rng = random.Random(13)
        for _ in range(20):
            rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3)]
                    for _ in range(3)]
            a = ExactMatrix.from_rows(rows)
            for m in (a, mat_mul(a, a)):
                assert m.den > 0 and gcd(m.den, *m.ints) == 1
                assert all(type(x) is int for x in m.ints)

    def test_reading_builds_fractions_only_for_what_is_read(self, monkeypatch):
        """entry builds one Fraction and row one per column, not one per
        entry of the matrix; int rows go in without any."""
        rng = random.Random(14)
        n = 200
        rows = [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)]
        m = ExactMatrix.from_rows(rows)
        built = []
        fraction = numeric.Fraction

        def counting(*args):
            built.append(args)
            return fraction(*args)

        monkeypatch.setattr(numeric, "Fraction", counting)
        entry = m.entry(17, 42)
        assert len(built) <= 1
        built.clear()
        row = m.row(17)
        assert len(built) <= n
        built.clear()
        ints = ExactMatrix.from_rows([[i * j - 50 for j in range(n)] for i in range(n)])
        identity = ExactMatrix.identity(n)
        assert built == []
        monkeypatch.undo()
        assert entry == rows[17][42] and row == tuple(rows[17])
        assert ints.den == 1 and ints.entry(3, 7) == -29 and identity.entry(5, 5) == 1


# Letters with unrelated denominators, 0 among them.
rational_letters = st.sampled_from((0, 1, -1, 7)) | st.integers(-10 ** 6, 10 ** 6) | st.builds(
    Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 4))


@st.composite
def christoffel_left_factors(draw, modulus, n=None):
    """M(n, a, b, r) for n <= 24, built over Q and then read mod p: a left
    factor whose consecutive rows differ by one adjacent exchange, also
    over GF(p) with p <= n, where no Christoffel params exist."""
    n = n or draw(st.integers(2, 24))
    r = draw(st.integers(1, n - 1).filter(lambda r: gcd(r, n) == 1))
    usable = rational_letters if modulus is None else rational_letters.filter(
        lambda x: Fraction(x).denominator % modulus)
    a = draw(usable)
    b = draw(usable.filter(lambda x: x != a))
    table = christoffel_matrix(params(n, a, b, r))
    return ExactMatrix.from_rows(table_rows(table), modulus)


class TestDifferencedProduct:
    """The product built from the differenced rows of its left factor,
    P_i = P_{i+1} + (a_i - a_{i+1}) B, against the per-entry product in
    value and in hash: Christoffel left factors, dense ones, repeated
    rows and empty shapes."""

    kinds = st.sampled_from((None, 2, 65537, 2 ** 61 - 1))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), modulus=kinds)
    def test_christoffel_left_factor(self, data, modulus):
        a = data.draw(christoffel_left_factors(modulus))
        if data.draw(st.booleans()):
            b = data.draw(christoffel_left_factors(modulus, a.rows))
        else:
            m = data.draw(st.integers(0, 6))
            entries = st.integers(-3, 3) | rationals | st.integers(-2 ** 70, 2 ** 70)
            if modulus is not None:
                entries = entries.filter(lambda x: Fraction(x).denominator % modulus)
            b = matrix(data.draw(shaped(entries, a.rows, m)), m, modulus)
        assert_equals_per_entry_product(a, b)

    @pytest.mark.parametrize("modulus", [None, 37, 65537, 2 ** 61 - 1])
    def test_group_products(self, modulus):
        """M1 M2 and M M^-1 of tables with unrelated letter denominators
        and a letter 0, as the group workload multiplies them."""
        rng = random.Random(18)
        for _ in range(6):
            n = rng.randint(3, 31 if modulus != 37 else 36)
            r1, r2 = (rng.choice([r for r in range(1, n) if gcd(r, n) == 1]) for _ in "12")
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            p1 = params(n, 0, a, r1, modulus)
            p2 = params(n, Fraction(-5, 7), a, r2, modulus)
            for left, right in ((p1, p2), (p1, group_inverse(p1)), (p2, p1)):
                assert_equals_per_entry_product(christoffel_matrix(left),
                                                christoffel_matrix(right))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), modulus=kinds, shape=st.tuples(
        st.integers(1, 10), st.integers(1, 10), st.integers(0, 6)))
    def test_equal_consecutive_rows(self, data, modulus, shape):
        """Rows repeated in runs difference to zero rows, which add nothing."""
        n, k, m = shape
        entries = st.integers(-2, 2) | st.integers(-2 ** 66, 2 ** 66)
        distinct = data.draw(shaped(entries, n, k))
        runs = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        rows = [row for row, run in zip(distinct, runs) for _ in range(run)]
        a = matrix(rows, k, modulus)
        b = matrix(data.draw(shaped(entries, k, m)), m, modulus)
        assert_equals_per_entry_product(a, b)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), modulus=kinds, n=st.integers(1, 9))
    def test_dense_factors(self, data, modulus, n):
        entries = st.integers(-10 ** 6, 10 ** 6) | st.integers(-2 ** 70, 2 ** 70)
        a = matrix(data.draw(shaped(entries, n, n)), n, modulus)
        b = matrix(data.draw(shaped(entries, n, n)), n, modulus)
        assert_equals_per_entry_product(a, b)

    @pytest.mark.parametrize("modulus", [None, 2, 65537, 2 ** 61 - 1])
    @pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0),
                                       (1, 0, 1), (0, 1, 0)])
    def test_empty_shapes(self, modulus, shape):
        n, k, m = shape
        a = matrix([[1 + i + j for j in range(k)] for i in range(n)], k, modulus)
        b = matrix([[2 - i * j for j in range(m)] for i in range(k)], m, modulus)
        product = mat_mul(a, b)
        assert (product.rows, product.cols, product.modulus) == (n, m, modulus)
        assert product.ints == (0,) * (n * m) and product.den == 1
        assert_equals_per_entry_product(a, b)


class TestChristoffelMatrixForm:
    """christoffel_matrix builds its canonical form directly."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), modulus=st.sampled_from((None, 37, 65537, 2 ** 61 - 1)))
    def test_equals_matrix_of_its_rows(self, data, modulus):
        n = data.draw(st.integers(2, 30 if modulus != 37 else 36))
        r = data.draw(st.integers(1, n - 1).filter(lambda r: gcd(r, n) == 1))
        usable = rational_letters if modulus is None else rational_letters.filter(
            lambda x: Fraction(x).denominator % modulus)
        a = data.draw(usable)
        b = data.draw(usable.filter(
            lambda x: x != a if modulus is None else Fraction(x - a).numerator % modulus))
        m = christoffel_matrix(params(n, a, b, r, modulus))
        rebuilt = ExactMatrix.from_rows([m.row(i) for i in range(n)], modulus)
        assert m == rebuilt and hash(m) == hash(rebuilt)
        assert (m.ints, m.den) == (rebuilt.ints, rebuilt.den)


class TestReduced:
    """numeric._reduced brings ints over any unit denominator to the
    canonical form: positive denominator, lowest terms over Q; residues
    in [0, p) over 1 over GF(p)."""

    ints = st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=6)

    # An example takes up to 2 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 600 ms is 5 x (2 + 115) ms, rounded up.
    @settings(max_examples=200, deadline=600)
    @given(ints=ints, den=st.integers(-10 ** 12, 10 ** 12).filter(bool))
    @example(ints=[6, -4], den=-2)
    @example(ints=[-3, 5], den=-1)
    @example(ints=[-3, 5], den=1)
    def test_rational(self, ints, den):
        out, out_den = numeric._reduced(ints, den, None)
        assert out_den > 0 and gcd(out_den, *out) == 1
        assert [Fraction(x, out_den) for x in out] == [Fraction(x, den) for x in ints]

    # An example takes up to 2 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 600 ms is 5 x (2 + 115) ms, rounded up.
    @settings(max_examples=200, deadline=600)
    @given(p=primes, ints=ints, den=st.integers(-10 ** 20, 10 ** 20))
    @example(p=7, ints=[-3, 12], den=-5)
    @example(p=7, ints=[-3, 12], den=1)
    def test_residues(self, p, ints, den):
        assume(den % p)
        out, out_den = numeric._reduced(ints, den, p)
        assert out_den == 1 and all(0 <= x < p for x in out)
        assert [x * den % p for x in out] == [x % p for x in ints]
