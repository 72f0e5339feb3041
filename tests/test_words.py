import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from christoffel import (
    Composition,
    SlopeRatio,
    Word,
    build_sigma,
    bw_rows,
    christoffel_bw_row,
    is_christoffel,
    is_circular,
    is_perfectly_clustering,
    lower_christoffel,
    lyndon_words,
    palindromic_factorization,
    standard_encoding,
    standard_factorization,
    upper_christoffel,
)
from christoffel.errors import (
    AlphabetSizeMismatchError,
    AmbiguousSplitError,
    ChristoffelError,
    IndexOutOfRangeError,
    InvalidSlopeError,
    LengthOutOfRangeError,
    NoPalindromicSplitError,
    NotChristoffelError,
    NotPrimitiveError,
    SizeLimitError,
)
from christoffel import words
from christoffel.words import _as_text, _christoffel_bw_prefixes
from oracles import (
    bw_christoffel_kind,
    bw_rows_by_tuple_sort,
    circular_factors,
    conjugates,
    is_lyndon,
    is_lyndon_by_rotations,
    is_palindrome,
    is_primitive,
    is_primitive_by_divisors,
    palindromic_factorization_by_scan,
    pc_by_bw_table,
    pc_lyndon_by_bw_table,
    reversal,
    standard_factorization_by_scan,
)

W = Word.parse


def all_slopes(max_length):
    for n in range(1, max_length + 1):
        for r in range(0, n + 1):
            if gcd(r, n - r) == 1 and n - r >= 0:
                yield SlopeRatio(r, n - r)


class TestChristoffelGeneration:
    def test_lower_examples(self):
        assert lower_christoffel(SlopeRatio(2, 5)) == W("0001001")
        assert lower_christoffel(SlopeRatio(1, 1)) == W("01")
        assert lower_christoffel(SlopeRatio(8, 3)) == W("01101110111")

    def test_upper_examples(self):
        assert upper_christoffel(SlopeRatio(2, 5)) == W("1001000")
        assert upper_christoffel(SlopeRatio(1, 1)) == W("10")
        assert upper_christoffel(SlopeRatio(8, 3)) == W("11101110110")

    def test_degenerate_slopes(self):
        assert lower_christoffel(SlopeRatio(0, 1)) == W("0")
        assert lower_christoffel(SlopeRatio(1, 0)) == W("1")

    def test_custom_alphabet(self):
        assert lower_christoffel(SlopeRatio(7, 4), (-5, 3)).letters == \
            (-5, 3, -5, 3, 3, -5, 3, 3, -5, 3, 3)

    def test_invalid_slope(self):
        with pytest.raises(InvalidSlopeError):
            SlopeRatio(2, 4)
        with pytest.raises(InvalidSlopeError):
            SlopeRatio(0, 0)
        with pytest.raises(InvalidSlopeError):
            lower_christoffel(SlopeRatio(1, 2), (1, 1))

    @pytest.mark.parametrize("alphabet", [(0, 1, 2), (0,), ()], ids=["three", "one", "none"])
    def test_alphabet_of_other_than_two_letters(self, alphabet):
        """A named ChristoffelError, not the ValueError of tuple unpacking."""
        for make in (lower_christoffel, upper_christoffel):
            with pytest.raises(AlphabetSizeMismatchError, match="two letters"):
                make(SlopeRatio(1, 2), alphabet)
        with pytest.raises(AlphabetSizeMismatchError, match="two letters"):
            christoffel_bw_row(SlopeRatio(1, 2), 0, alphabet)

    def test_lower_upper_are_reversals_and_conjugates(self):
        for slope in all_slopes(50):
            lo = lower_christoffel(slope)
            up = upper_christoffel(slope)
            assert reversal(lo) == up
            if len(lo) > 0:
                assert any(lo.rotation(i) == up for i in range(len(lo)))

    def test_counts(self):
        for slope in all_slopes(40):
            w = lower_christoffel(slope)
            assert w.count(1) == slope.ones and w.count(0) == slope.zeros


class TestBwRow:
    def test_equals_sorted_rotations(self):
        """Row i by the residue rule is row i of the rotation-sorted table,
        for every slope with N <= 60."""
        for slope in all_slopes(60):
            rows = [christoffel_bw_row(slope, i) for i in range(slope.length)]
            assert rows == bw_rows(lower_christoffel(slope))
            assert rows[-1] == lower_christoffel(slope) and rows[0] == upper_christoffel(slope)

    def test_one_residue_rule(self):
        """Every row, and every prefix of the rotated rows, carries the high
        letter exactly where (i + qj) mod n < r, for every slope with
        N <= 40 and letters in either order."""
        for slope in all_slopes(40):
            n, q, r = slope.length, slope.zeros, slope.ones
            for a, b in ((0, 1), (Fraction(7, 2), -4)):
                rule = [tuple(b if (i + q * j) % n < r else a for j in range(n))
                        for i in range(n)]
                assert [christoffel_bw_row(slope, i, (a, b)).letters
                        for i in range(n)] == rule
                for width in {0, n // 2, n}:
                    assert _christoffel_bw_prefixes(slope, range(n), width, (a, b)) \
                        == [row[:width] for row in rule]

    def test_any_two_letters(self):
        """The letters need no order; bwgroup passes field values as they are."""
        assert christoffel_bw_row(SlopeRatio(2, 5), 0, (3, -1)).letters \
            == (-1, 3, 3, -1, 3, 3, 3)
        assert christoffel_bw_row(SlopeRatio(2, 5), 6, (5, 2)).letters \
            == (5, 5, 5, 2, 5, 5, 2)

    def test_row_out_of_range(self):
        for i in (-1, 7):
            with pytest.raises(IndexOutOfRangeError):
                christoffel_bw_row(SlopeRatio(2, 5), i)

    def test_rows_do_not_fill_the_tuple_free_lists(self):
        """Rows built from a list are taken from and returned to CPython's
        per-length tuple free lists; built from a generator they were
        resized, and every freed one stayed (about 2.6 MiB over 200 rounds of
        these slopes).  Hashing a slope builds its field tuple the same
        way, and so does parsing a word's digits.  No gc.collect in
        between, since a full collection empties the free lists."""
        slopes = list(all_slopes(19))

        def rounds(count):
            for _ in range(count):
                for slope in slopes:
                    Word.parse(str(lower_christoffel(slope)))
                    hash(slope)

        tracemalloc.start()
        try:
            rounds(5)
            before = tracemalloc.get_traced_memory()[0]
            rounds(50)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 256 * 1024


class TestBasicPredicates:
    def test_conjugates_of_rai(self):
        assert conjugates(W("rai")) == [W("rai"), W("air"), W("ira")]

    def test_conjugates_of_01(self):
        assert conjugates(W("01")) == [W("01"), W("10")]

    def test_conjugates_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            conjugates(W("0101"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4))
    def test_bw_rows_equal_the_tuple_sort(self, data, k):
        """On words of 1 to 4 int or Fraction letters, the rotations sorted
        once by their starts on the word's text equal the rotations sorted
        as letter tuples; a word that is not primitive raises."""
        letter = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=50)
        alphabet = data.draw(st.lists(letter, min_size=k, max_size=k, unique=True))
        w = Word(data.draw(st.lists(st.sampled_from(alphabet), max_size=16)))
        if is_primitive_by_divisors(w):
            assert bw_rows(w) == bw_rows_by_tuple_sort(w)
        else:
            with pytest.raises(NotPrimitiveError):
                bw_rows(w)

    def test_conjugates_sorted_are_table_rows(self):
        word = W("0001001")
        assert sorted(conjugates(word), reverse=True) == bw_rows(word)
        assert len(set(conjugates(word))) == 7

    def test_primitivity(self):
        assert not is_primitive(W("0101"))
        assert is_primitive(W("0"))
        assert not is_primitive(Word(()))
        assert is_primitive(W("0010101"))

    def test_lyndon(self):
        assert is_lyndon(W("0001001"))
        assert not is_lyndon(W("1001000"))
        assert not is_lyndon(W("0101"))

    @settings(max_examples=500)
    @given(letters=st.lists(st.integers(0, 2), max_size=14)
           | st.lists(st.sampled_from("ab"), max_size=40),
           power=st.integers(2, 3))
    def test_lyndon_equals_rotation_scan(self, letters, power):
        """Duval's scan against every rotation, on words, their squares and
        cubes (never Lyndon) and the empty word."""
        for w in (Word(letters), Word(letters * power)):
            assert is_lyndon(w) == is_lyndon_by_rotations(w)

    def test_palindrome(self):
        assert is_palindrome(W("aca"))
        assert not is_palindrome(W("ac"))
        assert is_palindrome(Word(()))

    @pytest.mark.parametrize("other", [5, (2,), [2], "2", None])
    def test_operators_refuse_other_types(self, other):
        """Ordering and concatenation take words only; Python raises
        TypeError once both sides return NotImplemented."""
        w = Word((1,))
        for op in (lambda: w < other, lambda: w <= other, lambda: w > other,
                   lambda: w >= other, lambda: w + other, lambda: other < w):
            with pytest.raises(TypeError):
                op()
        assert w != other


class TestCircularFactors:
    def test_example_00101(self):
        assert circular_factors(W("00101"), 3) == [W("101"), W("100"), W("010"), W("001")]

    def test_single_letters(self):
        assert circular_factors(W("01"), 1) == [W("1"), W("0")]

    def test_rows_of_bw_table(self):
        word = W("0001001")
        assert circular_factors(word, 7) == bw_rows(word)

    def test_out_of_range(self):
        with pytest.raises(LengthOutOfRangeError):
            circular_factors(W("01"), 3)

    def test_factor_counts_along_chain(self):
        # a Christoffel word of length N has n+1 circular factors of length n < N
        word = lower_christoffel(SlopeRatio(8, 3))
        for n in range(len(word)):
            assert len(circular_factors(word, n)) == n + 1


class TestIsChristoffel:
    def test_examples(self):
        assert is_christoffel(W("0001001")) == "lower"
        assert is_christoffel(W("1001000")) == "upper"
        assert is_christoffel(W("0011")) == "no"
        assert is_christoffel(W("010")) == "no"
        assert is_christoffel(W("0")) == "no"

    def test_generated_words_classify(self):
        for slope in all_slopes(40):
            if slope.ones and slope.zeros:
                assert is_christoffel(lower_christoffel(slope)) == "lower"
                assert is_christoffel(upper_christoffel(slope)) == "upper"

    def test_equals_bw_characterization(self):
        """Every binary word of length <= 14 classifies as the BW test says."""
        for n in range(1, 15):
            for letters in product((0, 1), repeat=n):
                w = Word(letters)
                assert is_christoffel(w) == bw_christoffel_kind(w), w

    def test_other_alphabets(self):
        assert is_christoffel(W("aacac")) == "lower"
        assert is_christoffel(Word((-5, 3, -5, 3, 3))) == "lower"
        assert is_christoffel(W("cacaa")) == "upper"
        assert is_christoffel(W("abc")) == "no"


class TestStandardFactorization:
    def test_examples(self):
        assert standard_factorization(W("01101110111")) == (W("0110111"), W("0111"))
        assert standard_factorization(W("01")) == (W("0"), W("1"))
        assert standard_factorization(W("0001001")) == (W("0001"), W("001"))

    def test_upper_word(self):
        assert standard_factorization(W("1001000")) == (W("100"), W("1000"))

    def test_rejects_non_christoffel(self):
        with pytest.raises(NotChristoffelError):
            standard_factorization(W("010"))
        with pytest.raises(NotChristoffelError):
            standard_factorization(W("0"))

    def test_equals_scan(self):
        """The closed-form cut = the brute-force scan, for both kinds, N <= 100."""
        for slope in all_slopes(100):
            if slope.ones == 0 or slope.zeros == 0:
                continue
            lower = lower_christoffel(slope)
            assert standard_factorization(lower) == \
                standard_factorization_by_scan(lower, lower=True), slope
            upper = upper_christoffel(slope)
            assert standard_factorization(upper) == \
                standard_factorization_by_scan(upper, lower=False), slope

    def test_determinant_one_identity(self):
        """|w'|_0 |w''|_1 - |w'|_1 |w''|_0 = 1 for every Christoffel word."""
        for slope in all_slopes(100):
            if slope.ones == 0 or slope.zeros == 0:
                continue
            w = lower_christoffel(slope)
            left, right = standard_factorization(w)
            assert left.count(0) * right.count(1) - left.count(1) * right.count(0) == 1
            assert left + right == w


class TestPalindromicFactorization:
    def test_examples(self):
        assert palindromic_factorization(W("acaccaccacc")) == (W("aca"), W("ccaccacc"))
        assert palindromic_factorization(W("01")) == (W("0"), W("1"))
        v = Word((-5, 3, -5, 3, 3, -5, 3, 3, -5, 3, 3))
        assert palindromic_factorization(v) == (
            Word((-5, 3, -5)), Word((3, 3, -5, 3, 3, -5, 3, 3)))

    def test_no_split(self):
        with pytest.raises(NoPalindromicSplitError):
            palindromic_factorization(W("ab c".replace(" ", "")))  # "abc"

    def test_ambiguous_split(self):
        with pytest.raises(AmbiguousSplitError):
            palindromic_factorization(W("aaa"))


class TestPerfectlyClustering:
    def test_examples(self):
        assert is_perfectly_clustering(W("0001001"))
        assert is_perfectly_clustering(W("acbcbcacc"))
        assert not is_perfectly_clustering(W("010011"))

    def test_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            is_perfectly_clustering(W("0101"))

    def test_converts_the_word_to_text_once(self, monkeypatch):
        """The primitivity check and the search in the doubled encoding
        read one text of the word."""
        converted = []

        def spy(t, letters):
            converted.append(t)
            return _as_text(t, letters)

        monkeypatch.setattr(words, "_as_text", spy)
        for w, expected in ((lower_christoffel(SlopeRatio(33333, 66667)), True),
                            (W("acbcbcacc"), True), (W("010011"), False)):
            converted.clear()
            assert is_perfectly_clustering(w) is expected
            assert sum(t is w.letters for t in converted) == 1, w
        converted.clear()
        with pytest.raises(NotPrimitiveError):
            is_perfectly_clustering(W("0101"))
        assert len(converted) == 1

    def test_min_rotation_of_pc_word_is_lyndon(self):
        rng = random.Random(5)
        found = 0
        while found < 40:
            n = rng.randint(2, 10)
            w = Word(tuple(rng.randint(0, 2) for _ in range(n)))
            if not is_primitive(w) or not is_perfectly_clustering(w):
                continue
            best = min(conjugates(w))
            assert is_lyndon(best)
            found += 1


class TestLyndonEnumeration:
    def test_small_counts(self):
        # binary Lyndon word counts: 2, 1, 2, 3, 6, 9 for lengths 1..6
        counts = [sum(1 for _ in lyndon_words(n, (0, 1))) for n in range(1, 7)]
        assert counts == [2, 1, 2, 3, 6, 9]

    def test_all_are_lyndon(self):
        for n in range(1, 8):
            for w in lyndon_words(n, (0, 1, 2)):
                assert is_lyndon(w)


class TestWordParsing:
    def test_parse_and_str(self):
        assert str(W("0001001")) == "0001001"
        assert W("-5,3,-5").letters == (-5, 3, -5)
        assert str(Word((-5, 3))) == "-5,3"
        assert W("acb").letters == (0, 2, 1)
        # digits only when every letter is an int in 0..9
        assert str(Word(())) == ""
        assert str(Word((0, 9, 1))) == "091"
        assert str(Word((Fraction(3), 1))) == "3,1"
        assert str(Word((Fraction(1, 2), 0))) == "1/2,0"
        assert str(Word((10, 2))) == "10,2"
        assert str(Word((2, -1))) == "2,-1"


def outcome(f, w):
    """f(w), or the type and message of the library error it raises."""
    try:
        return f(w)
    except ChristoffelError as exc:
        return type(exc), str(exc)


def assert_matches_oracles(w):
    assert is_primitive(w) == is_primitive_by_divisors(w), w
    assert outcome(is_perfectly_clustering, w) == outcome(pc_by_bw_table, w), w
    assert outcome(palindromic_factorization, w) == \
        outcome(palindromic_factorization_by_scan, w), w


def test_lyndon_oracle_equals_the_bw_table_oracle():
    """The Lyndon-only oracle of criterion 10, with its early reject,
    agrees with the full table on every Lyndon word of length <= 12 over
    2 letters, <= 8 over 3 and <= 7 over 4."""
    for num_letters, max_length in ((2, 12), (3, 8), (4, 7)):
        for length in range(1, max_length + 1):
            for w in lyndon_words(length, tuple(range(num_letters))):
                assert pc_lyndon_by_bw_table(w) == pc_by_bw_table(w), w


LETTERS = st.integers(-20, 20) | st.fractions(-3, 3, max_denominator=5)


@st.composite
def random_words(draw):
    """1-40 letters drawn from 2-6 distinct letters, some possibly unused;
    a repeated base makes a power of a shorter word."""
    alphabet = draw(st.lists(LETTERS, min_size=2, max_size=6, unique=True))
    repeat = draw(st.integers(1, 4))
    base = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40 // repeat))
    return Word(base * repeat)


@st.composite
def exchange_words(draw):
    """A rotation of the encoding of an exchange over 2-6 letters, zero
    parts allowed, so mostly perfectly clustering; sometimes two letters
    are swapped.  A non-circular exchange gives its letters in blocks."""
    alphabet = sorted(draw(st.lists(LETTERS, min_size=2, max_size=6, unique=True)))
    parts = draw(st.lists(st.integers(0, 40 // len(alphabet)), min_size=len(alphabet),
                          max_size=len(alphabet)).filter(any))
    exchange = build_sigma(Composition(parts))
    if is_circular(exchange):
        letters = list(standard_encoding(exchange, alphabet).letters)
    else:
        letters = [x for x, c in zip(alphabet, parts) for _ in range(c)]
    n = len(letters)
    shift = draw(st.integers(0, n - 1))
    letters = letters[shift:] + letters[:shift]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        letters[i], letters[j] = letters[j], letters[i]
    return Word(letters)


class TestAgainstOracles:
    """Primitivity, the exchange test and the one-search split against the
    definitions: no shorter root, the nondecreasing BW last column and the
    scan of every cut."""

    def test_every_small_word(self):
        count = 0
        for k, max_length in ((2, 12), (3, 7), (4, 6)):
            for length in range(max_length + 1):
                for t in product(range(k), repeat=length):
                    assert_matches_oracles(Word(t))
                    count += 1
        assert count == 8191 + 3280 + 5461

    @settings(max_examples=400, deadline=None)
    @given(w=random_words() | exchange_words())
    def test_random_words(self, w):
        assert_matches_oracles(w)

    def test_4096_letters(self):
        w = standard_encoding(build_sigma(Composition((1001, 1500, 1595))), (-3, 0, 5))
        w = w.rotation(1234)
        assert len(w) == 4096 and is_perfectly_clustering(w)
        assert_matches_oracles(w)

    def test_100000_letter_christoffel_word(self):
        w = lower_christoffel(SlopeRatio(33333, 66667))
        assert len(w) == 100_000
        assert is_perfectly_clustering(w)
        first, second = palindromic_factorization(w)
        assert first + second == w
        assert is_palindrome(first) and is_palindrome(second)


def test_as_text_refuses_more_letters_than_code_points():
    with pytest.raises(SizeLimitError):
        _as_text((), range(sys.maxunicode + 2))
    assert _as_text((5, -1, 5), (-1, 5)) == "\x01\x00\x01"
