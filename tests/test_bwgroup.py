import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import christoffel.numeric as numeric
import oracles
from christoffel import (
    ChristoffelParams,
    ExactMatrix,
    FieldScalar,
    SlopeRatio,
    Word,
    bw_matrix,
    bw_rows,
    christoffel_matrix,
    consecutive_rows_square,
    det_closed,
    det_exact,
    from_triple,
    group_identity,
    group_inverse,
    group_mul,
    lower_christoffel,
    mat_mul,
    params,
    to_triple,
)
from christoffel.bwgroup import GroupTriple
from christoffel.errors import (
    CharacteristicTooSmallError,
    ChristoffelError,
    IndexOutOfRangeError,
    NonInvertibleRowSumError,
    NotCoprimeError,
    NotPrimitiveError,
    OrderMismatchError,
)
from oracles import (
    carries_its_rotation_step,
    christoffel_matrix_by_rows,
    column_shift_check,
    det_closed_by_scalars,
    from_triple_by_scalars,
    group_inverse_by_scalars,
    group_mul_by_scalars,
    is_prime_by_trial_division,
    params_by_scalars,
    row_pair_prefix_check,
    to_triple_by_scalars,
    triple_inverse_by_scalars,
    triple_mul_by_scalars,
    unit_inverse_params,
    verify_consecutive_rows,
)

FIGURE_ROWS = [
    [1, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 1],
]


def random_params(rng, max_n=40, fractions=False):
    while True:
        n = rng.randint(2, max_n)
        r = rng.randint(1, n - 1)
        if gcd(r, n) != 1:
            continue
        if fractions:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        if a == b:
            continue
        if (n - r) * a + r * b == 0:
            continue
        return params(n, a, b, r)


class TestMatrices:
    def test_figure_matrix(self):
        assert christoffel_matrix(params(7, 0, 1, 2)) == ExactMatrix.from_rows(FIGURE_ROWS)

    def test_bw_matrix_of_word(self):
        assert bw_matrix(Word.parse("0001001")) == ExactMatrix.from_rows(FIGURE_ROWS)
        assert bw_matrix(Word.parse("01")) == ExactMatrix.identity(2)

    def test_square_word(self):
        # the square of the figure matrix is the table of 0101011
        assert christoffel_matrix(params(7, 0, 1, 4)) == bw_matrix(Word.parse("0101011"))

    def test_cube_is_ones_plus_identity(self):
        m = christoffel_matrix(params(7, 1, 2, 1))
        expected = ExactMatrix.from_rows(
            [[2 if i == j else 1 for j in range(7)] for i in range(7)])
        assert m == expected

    def test_fraction_letters(self):
        m = bw_matrix(Word.parse("-5,3,-5/2"))
        half = Fraction(-5, 2)
        assert m == ExactMatrix.from_rows([[3, half, -5], [half, -5, 3], [-5, 3, half]])
        assert (m.ints, m.den) == ((6, -5, -10, -5, -10, 6, -10, 6, -5), 2)

    def test_bw_matrix_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            bw_matrix(Word.parse("0101"))

    def test_matches_word_route(self):
        for n in range(2, 16):
            for r in range(1, n):
                if gcd(r, n) != 1:
                    continue
                p = params(n, 0, 1, r)
                word = lower_christoffel(SlopeRatio(r, n - r))
                assert christoffel_matrix(p) == bw_matrix(word)

    @pytest.mark.parametrize("a, b, modulus", [
        (-3, 7, None),
        (Fraction(-5, 6), Fraction(7, 4), None),
        (3, 65530, 65537),
    ], ids=["int", "fraction", "residue"])
    def test_rotation_equals_rows_from_residue_rule(self, a, b, modulus):
        """Rows by rotating row 0 equal rows built one by one, for every
        coprime (r, n) with n <= 60."""
        for n in range(2, 61):
            for r in range(1, n):
                if gcd(r, n) == 1:
                    p = params(n, a, b, r, modulus)
                    assert christoffel_matrix(p) == christoffel_matrix_by_rows(p), (n, r)

    def test_residue_matrix(self):
        p = params(7, 0, 1, 2, modulus=31)
        m = christoffel_matrix(p)
        assert m.modulus == 31
        assert [[m.entry(i, j).value for j in range(7)] for i in range(7)] == FIGURE_ROWS

    def test_raw_square_product(self):
        figure = ExactMatrix.from_rows(FIGURE_ROWS)
        assert mat_mul(figure, figure) == christoffel_matrix(params(7, 0, 1, 4))


class TestTriples:
    def test_example(self):
        t = to_triple(params(7, 0, 1, 2))
        assert (t.c, t.d, t.r) == (FieldScalar.rational(2), FieldScalar.rational(1), 2)

    def test_from_triple_example(self):
        p = from_triple(7, GroupTriple(7, FieldScalar.rational(1, 2),
                                       FieldScalar.rational(1), 4))
        assert (p.n, p.a, p.b, p.r) == (7, Fraction(-1, 2), Fraction(1, 2), 4)

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(200):
            p = random_params(rng, 40, fractions=True)
            t = to_triple(p)
            back = from_triple(p.n, t)
            assert (back.n, back.a, back.b, back.r) == (p.n, p.a, p.b, p.r)

    def test_row_sum_zero_rejected(self):
        with pytest.raises(NonInvertibleRowSumError):
            to_triple(params(3, -1, 2, 1))  # 2*(-1) + 1*2 = 0

    @pytest.mark.parametrize("a", [3, FieldScalar(3, 65537)], ids=["int", "residue"])
    def test_params_tests_modulus_once(self, monkeypatch, a):
        """A fresh prime modulus runs one primality test per process, over
        any number of params, scalar and matrix calls, whatever the scalars;
        a composite one is rejected at every call; the memo of proven
        primes stays bounded."""
        calls = []
        is_prime = numeric.is_prime
        monkeypatch.setattr(numeric, "is_prime", lambda p: calls.append(p) or is_prime(p))
        monkeypatch.setattr(numeric, "_proven_primes", set())
        for _ in range(3):
            p = params(7, a, Fraction(1, 2), 2, 65537)
            FieldScalar(5, 65537)
            ExactMatrix.from_rows([[1, Fraction(1, 2)]], 65537)
            ExactMatrix.identity(3, 65537)
        assert calls == [65537]
        assert (p.a.value, p.b.value, p.a.modulus, p.b.modulus) == (3, 32769, 65537, 65537)
        for _ in range(3):
            with pytest.raises(ChristoffelError):
                params(7, 3, 4, 2, 65535)
        assert calls == [65537] + [65535] * 3
        size = numeric._PRIME_MEMO_SIZE
        primes = [q for q in range(70_001, 100_000, 2) if is_prime(q)][:3 * size]
        for q in primes:
            FieldScalar(1, q)
            assert len(numeric._proven_primes) <= size
        assert len(calls) == 4 + len(primes) == 4 + 3 * size

    def test_characteristic_guard(self):
        with pytest.raises(CharacteristicTooSmallError):
            params(7, 0, 1, 2, modulus=5)
        params(7, 0, 1, 2, modulus=11)  # fine


class TestGroupOperations:
    def test_square_and_cube(self):
        base = params(7, 0, 1, 2)
        square = group_mul(base, base)
        assert (square.a, square.b, square.r) == (0, 1, 4)
        cube = group_mul(square, base)
        assert (cube.a, cube.b, cube.r) == (1, 2, 1)

    def test_identity(self):
        e = group_identity(7)
        assert christoffel_matrix(e) == ExactMatrix.identity(7)
        p = params(7, 0, 1, 2)
        assert to_triple(group_mul(p, e)) == to_triple(p)

    def test_unit_product_formula(self):
        """M(n,0,1,r) M(n,0,1,s) = M(n,Q,Q+1,R) with rs = R + Qn."""
        for n in range(2, 20):
            for r in range(1, n):
                for s in range(1, n):
                    if gcd(r, n) != 1 or gcd(s, n) != 1:
                        continue
                    prod = group_mul(params(n, 0, 1, r), params(n, 0, 1, s))
                    big_q, rem = divmod(r * s, n)
                    assert (prod.a, prod.b, prod.r) == (big_q, big_q + 1, rem)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            group_mul(params(7, 0, 1, 2), params(5, 0, 1, 2))

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(32)
        for _ in range(200):
            p1 = random_params(rng, 40)
            p2 = random_params(rng, 40)
            if p1.n != p2.n:
                continue
            t1, t2 = to_triple(p1), to_triple(p2)
            try:
                product = group_mul(p1, p2)
            except NonInvertibleRowSumError:
                continue
            t = to_triple(product)
            assert t.c == t1.c * t2.c and t.d == t1.d * t2.d
            assert t.r == (t1.r * t2.r) % p1.n

    def test_matrix_level_agreement(self):
        rng = random.Random(33)
        for _ in range(30):
            n = rng.randint(2, 25)
            p1 = _random_params_of_order(rng, n)
            p2 = _random_params_of_order(rng, n)
            product = group_mul(p1, p2)
            assert christoffel_matrix(product) == mat_mul(
                christoffel_matrix(p1), christoffel_matrix(p2))


def _random_params_of_order(rng, n):
    while True:
        r = rng.randint(1, n - 1)
        if gcd(r, n) != 1:
            continue
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if a == b or (n - r) * a + r * b == 0:
            continue
        return params(n, a, b, r)


class TestInverse:
    def test_example(self):
        inv = group_inverse(params(7, 0, 1, 2))
        assert (inv.a, inv.b, inv.r) == (Fraction(-1, 2), Fraction(1, 2), 4)

    def test_identity_self_inverse(self):
        e = group_identity(9)
        inv = group_inverse(e)
        assert to_triple(inv) == to_triple(e)

    def test_cube_inverse_by_product(self):
        p = params(7, 1, 2, 1)
        inv = group_inverse(p)
        assert mat_mul(christoffel_matrix(p), christoffel_matrix(inv)) \
            == ExactMatrix.identity(7)

    def test_unit_inverse_closed_form(self):
        for n in range(2, 15):
            for r in range(1, n):
                if gcd(r, n) != 1:
                    continue
                closed = unit_inverse_params(n, r)
                assert mat_mul(christoffel_matrix(params(n, 0, 1, r)),
                               christoffel_matrix(closed)) == ExactMatrix.identity(n)

    def test_unit_inverse_agrees_with_triple_inverse(self):
        for n in range(2, 31):
            for r in range(1, n):
                if gcd(r, n) != 1:
                    continue
                inv = group_inverse(params(n, 0, 1, r))
                assert to_triple(inv) == to_triple(unit_inverse_params(n, r)), (n, r)

    def test_random_inverses(self):
        rng = random.Random(34)
        for _ in range(40):
            p = random_params(rng, 20, fractions=True)
            inv = group_inverse(p)
            assert mat_mul(christoffel_matrix(p), christoffel_matrix(inv)) \
                == ExactMatrix.identity(p.n)


class TestResidueGroup:
    """Group operations over a prime field with characteristic > n."""

    def test_product_and_inverse(self):
        p1 = params(7, 3, 5, 2, modulus=31)
        p2 = params(7, 1, 4, 3, modulus=31)
        product = group_mul(p1, p2)
        assert christoffel_matrix(product) == mat_mul(
            christoffel_matrix(p1), christoffel_matrix(p2))
        inv = group_inverse(p1)
        assert mat_mul(christoffel_matrix(p1), christoffel_matrix(inv)) \
            == ExactMatrix.identity(7, modulus=31)

    def test_triple_roundtrip(self):
        p = params(11, 2, 9, 4, modulus=13)
        back = from_triple(11, to_triple(p))
        assert (back.a, back.b, back.r) == (p.a, p.b, p.r)

    def test_closed_determinant(self):
        p = params(7, 3, 5, 2, modulus=31)
        assert det_closed(p) == det_exact(christoffel_matrix(p))


class TestDeterminant:
    def test_examples(self):
        assert det_closed(params(7, 0, 1, 2)) == 2
        assert det_closed(group_identity(9)) == 1
        # row sum 6*1 + 1*2 = 8 for the all-ones-plus-identity matrix
        assert det_closed(params(7, 1, 2, 1)) == 8

    def test_closed_equals_exact_small(self):
        for n in range(2, 13):
            for r in range(1, n):
                if gcd(r, n) != 1:
                    continue
                for a, b in ((0, 1), (1, 2), (-1, 3)):
                    p = params(n, a, b, r)
                    assert det_closed(p) == det_exact(christoffel_matrix(p))

    def test_closed_equals_exact_residue(self):
        for r in (1, 2, 3, 4, 5, 6):
            p = params(7, 2, 5, r, modulus=31)
            assert det_closed(p) == det_exact(christoffel_matrix(p))


class TestStructure:
    def test_consecutive_rows_example(self):
        p = params(7, 0, 1, 2)
        assert consecutive_rows_square(p, 1) == 4
        assert consecutive_rows_square(p, 2) == 1
        assert all(verify_consecutive_rows(p, i) for i in range(1, 7))

    def test_index_range(self):
        with pytest.raises(IndexOutOfRangeError):
            consecutive_rows_square(params(7, 0, 1, 2), 0)
        with pytest.raises(IndexOutOfRangeError):
            consecutive_rows_square(params(7, 0, 1, 2), 7)

    def test_column_shift(self):
        assert column_shift_check(params(7, 0, 1, 2))
        assert column_shift_check(params(2, 0, 1, 1))

    def test_column_shift_rejects_swapped_columns(self, monkeypatch):
        """The first column stays right; the shift from column 1 to 2 breaks."""
        p = params(7, Fraction(1, 2), 3, 2)
        m = christoffel_matrix(p)
        rows = [list(m.row(i)) for i in range(7)]
        for r in rows:
            r[1], r[2] = r[2], r[1]
        monkeypatch.setattr(oracles, "christoffel_matrix",
                            lambda _: ExactMatrix.from_rows(rows))
        assert not column_shift_check(p)

    def test_column_shift_random(self):
        rng = random.Random(35)
        for _ in range(60):
            assert column_shift_check(random_params(rng, 60))

    def test_row_pair_prefix(self):
        assert row_pair_prefix_check(params(7, 0, 1, 2))
        rng = random.Random(36)
        for _ in range(40):
            assert row_pair_prefix_check(random_params(rng, 50))

    def test_difference_vector_action(self):
        """(e_{i-1} - e_i) M = (b - a)(e_{j-1} - e_j) with j = i r* mod n."""
        rng = random.Random(37)
        for _ in range(25):
            p = random_params(rng, 25)
            m = christoffel_matrix(p)
            d = p.b - p.a
            zero = d - d
            for i in range(1, p.n):
                j = (i * p.r_star) % p.n
                diff = [m.entry(i - 1, col) - m.entry(i, col) for col in range(p.n)]
                expected = [d if col == j - 1 else -d if col == j else zero
                            for col in range(p.n)]
                assert diff == expected

    def test_all_ones_left_eigenvector(self):
        rng = random.Random(38)
        for _ in range(25):
            p = random_params(rng, 30)
            m = christoffel_matrix(p)
            c = p.a * (p.n - p.r) + p.b * p.r
            for j in range(p.n):
                col_sum = m.entry(0, j)
                for i in range(1, p.n):
                    col_sum = col_sum + m.entry(i, j)
                assert col_sum == c

    def test_row_sums(self):
        rng = random.Random(39)
        for _ in range(25):
            p = random_params(rng, 30)
            m = christoffel_matrix(p)
            c = p.a * (p.n - p.r) + p.b * p.r
            for i in range(p.n):
                row_sum = m.entry(i, 0)
                for j in range(1, p.n):
                    row_sum = row_sum + m.entry(i, j)
                assert row_sum == c

    def test_invalid_r(self):
        with pytest.raises(NotCoprimeError):
            params(6, 0, 1, 2)


def _outcome(f, *args):
    """f(*args) as (n, letter, letter, r) for params and triples, or the
    class of the library error it raised."""
    try:
        x = f(*args)
    except (ChristoffelError, ZeroDivisionError) as error:
        return type(error)
    if isinstance(x, ChristoffelParams):
        return (x.n, x.a, x.b, x.r)
    if isinstance(x, GroupTriple):
        return (x.n, x.c, x.d, x.r)
    return x


def _stored_canonically(x):
    """The stored ints are in lowest terms over a positive denominator over
    Q, residues over 1 over GF(p)."""
    ints, den = (x._a, x._b) if isinstance(x, ChristoffelParams) else (x._c, x._d), x._den
    if x.modulus is None:
        return den > 0 and gcd(den, *ints) == 1
    return den == 1 and all(0 <= v < x.modulus for v in ints)


def _prime_above(n):
    return next(p for p in range(n + 1, 2 * n + 3) if is_prime_by_trial_division(p))


LETTERS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6))


@st.composite
def _letter_pair(draw, n, r):
    """Two letters: mostly free, sometimes equal, sometimes of row sum 0."""
    a = draw(LETTERS)
    shape = draw(st.sampled_from(("free", "free", "free", "equal", "zero row sum")))
    if shape == "equal":
        return a, a
    if shape == "zero row sum" and 1 <= r:
        return a, Fraction(-(n - r) * a, r)
    return a, draw(LETTERS.filter(lambda b: b != a))


@st.composite
def _group_cases(draw):
    n = draw(st.integers(2, 40))
    modulus = draw(st.sampled_from((None, 2 ** 61 - 1, 65537, "above n")))
    if modulus == "above n":
        modulus = _prime_above(n)
    # One r in ten is out of range; gcd(r, n) > 1 comes up by itself.
    r1 = draw(st.sampled_from((0, n)) if draw(st.integers(0, 9)) == 9 else st.integers(1, n - 1))
    r2 = draw(st.integers(1, n - 1))
    return n, modulus, r1, draw(_letter_pair(n, r1)), r2, draw(_letter_pair(n, r2))


class TestRawRoute:
    """The group law on raw ints against the FieldScalar route of
    ``oracles`` (equal values, or the same error class), and the tables
    built from raw ints against the same tables given entry by entry."""

    @settings(max_examples=400, deadline=None)
    @given(case=_group_cases(), other_kind=st.booleans())
    def test_equals_the_scalar_route(self, case, other_kind):
        n, modulus, r1, (a1, b1), r2, (a2, b2) = case
        outcome = _outcome(params, n, a1, b1, r1, modulus)
        assert outcome == _outcome(params_by_scalars, n, a1, b1, r1, modulus)
        if isinstance(outcome, type):
            return
        new, old = params(n, a1, b1, r1, modulus), params_by_scalars(n, a1, b1, r1, modulus)
        assert _stored_canonically(new) and hash(new) == hash(old)
        assert ChristoffelParams(n, new.a, new.b, r1) == new
        assert christoffel_matrix(new) == christoffel_matrix_by_rows(old)
        assert christoffel_matrix(new)._max == max(map(abs, christoffel_matrix(new).ints))
        assert det_closed(new) == det_closed_by_scalars(old)
        assert _outcome(group_inverse, new) == _outcome(group_inverse_by_scalars, old)
        assert _outcome(to_triple, new) == _outcome(to_triple_by_scalars, old)
        # The second factor: the same order, over the same kind or over Q.
        kind = None if other_kind else modulus
        second = _outcome(params, n, a2, b2, r2, kind)
        assert second == _outcome(params_by_scalars, n, a2, b2, r2, kind)
        if not isinstance(second, type):
            assert _outcome(group_mul, new, params(n, a2, b2, r2, kind)) \
                == _outcome(group_mul_by_scalars, old, params_by_scalars(n, a2, b2, r2, kind))
        if isinstance(_outcome(to_triple, new), type):
            return
        t, old_t = to_triple(new), to_triple_by_scalars(old)
        assert _stored_canonically(t) and hash(t) == hash(old_t)
        assert _outcome(from_triple, n, t) == _outcome(from_triple_by_scalars, n, old_t)
        assert from_triple(n, t) == new
        assert _outcome(t.inverse) == triple_inverse_by_scalars(old_t)
        assert _outcome(t.__mul__, t.inverse()) \
            == triple_mul_by_scalars(old_t, triple_inverse_by_scalars(old_t))
        for x in (group_inverse(new), t.inverse(), t * t):
            assert _stored_canonically(x)

    def test_constructors_take_scalars_and_numbers(self):
        half = Fraction(1, 2)
        for modulus in (None, 31):
            p = params(7, 3, half, 2, modulus)
            assert ChristoffelParams(7, p.a, p.b, 2) == p
            t = to_triple(p)
            assert GroupTriple(7, t.c, t.d, 2) == t
        assert ChristoffelParams(7, 3, half, 2) == params(7, 3, half, 2)
        assert GroupTriple(7, half, 3, 9) == GroupTriple(7, FieldScalar(half), FieldScalar(3), 9)
        assert GroupTriple(7, half, 3, 9).r == 9

    @pytest.mark.parametrize("modulus", [None, 65537, 2 ** 61 - 1])
    def test_mat_mul_with_and_without_the_stored_bound(self, modulus):
        """Tables that carry their largest |entry| multiply as their
        entries, given again with from_rows, do."""
        rng = random.Random(40)
        for scale in (1, 10 ** 3, 10 ** 9, 10 ** 30):
            for _ in range(6):
                n = rng.randint(2, 24)
                p1, p2 = (_random_params_of_order(rng, n) for _ in range(2))
                p1, p2 = (params(n, Fraction(p.a.value * scale, rng.randint(1, scale)),
                                 p.b.value * scale, p.r, modulus) for p in (p1, p2))
                m1, m2 = christoffel_matrix(p1), christoffel_matrix(p2)
                bare1, bare2 = (ExactMatrix.from_rows([m.row(i) for i in range(n)], modulus)
                                for m in (m1, m2))
                assert (bare1, bare2) == (m1, m2) and bare1._max is bare2._max is None
                product = mat_mul(bare1, bare2)
                assert mat_mul(m1, m2) == mat_mul(m1, bare2) == mat_mul(bare1, m2) == product
                assert product == christoffel_matrix(group_mul(p1, p2))
                one = ExactMatrix.identity(n, modulus)
                assert mat_mul(one, m1) == mat_mul(m1, one) == m1

    @settings(max_examples=150, deadline=None)
    @given(letters=st.lists(st.one_of(st.integers(-50, 50),
                                      st.fractions(-50, 50, max_denominator=10 ** 6)),
                            min_size=1, max_size=12))
    def test_bw_matrix_equals_the_table_of_its_rows(self, letters):
        """The table built through the cleared letters equals from_rows of
        the sorted rotations, and carries its largest |entry|."""
        w = Word(letters)
        try:
            rows = bw_rows(w)
        except NotPrimitiveError:
            with pytest.raises(NotPrimitiveError):
                bw_matrix(w)
            return
        m = bw_matrix(w)
        assert m == ExactMatrix.from_rows([row.letters for row in rows])
        assert m._max == max(map(abs, m.ints)) and gcd(m.den, *m.ints) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4))
    def test_bw_matrix_equals_the_tuple_sort(self, data, k):
        """On words of 1 to 4 int or Fraction letters, the table sorted once
        by its rotation starts equals the table of the rotations sorted as
        letter tuples; a word that is not primitive raises."""
        letter = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=50)
        alphabet = data.draw(st.lists(letter, min_size=k, max_size=k, unique=True))
        w = Word(data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=16)))
        if oracles.is_primitive_by_divisors(w):
            assert bw_matrix(w) == oracles.bw_matrix_by_tuple_sort(w)
        else:
            with pytest.raises(NotPrimitiveError):
                bw_matrix(w)

    def test_bw_matrix_carries_no_step(self):
        m = bw_matrix(lower_christoffel(SlopeRatio(2, 5)))
        assert m._step is None


class TestRotationProduct:
    """Products of Christoffel tables by one cyclic correlation, against
    the packed product called directly."""

    @pytest.mark.parametrize("modulus", [None, 65537, 1_000_000_007])
    def test_every_order_up_to_64(self, modulus):
        rng = random.Random(26)
        for n in range(2, 65):
            for _ in range(2):
                p1, p2, p3 = (params(n, p.a.value, p.b.value, p.r, modulus)
                              for p in (_random_params_of_order(rng, n) for _ in range(3)))
                m1, m2, m3 = map(christoffel_matrix, (p1, p2, p3))
                assert m1._step == pow(n - p1.r, -1, n)
                product = mat_mul(m1, m2)
                assert product == numeric._packed_product(m1, m2)
                assert product == christoffel_matrix(group_mul(p1, p2))
                chained = mat_mul(product, m3)
                assert chained == numeric._packed_product(product, m3)
                for m in (m1, product, chained):
                    assert carries_its_rotation_step(m)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(65, 256),
           modulus=st.sampled_from((None, 257, 2 ** 61 - 1)))
    def test_drawn_orders_up_to_256(self, data, n, modulus):
        units = st.integers(1, n - 1).filter(lambda r: gcd(r, n) == 1)
        letters = LETTERS if modulus is None else st.integers(0, modulus - 1)
        tables = []
        for _ in range(2):
            a = data.draw(letters)
            b = data.draw(letters.filter(lambda b: b != a))
            tables.append(christoffel_matrix(params(n, a, b, data.draw(units), modulus)))
        product = mat_mul(*tables)
        assert carries_its_rotation_step(product)
        assert product == numeric._packed_product(*tables)
