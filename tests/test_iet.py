import copy
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from christoffel import (
    Composition,
    IetPermutation,
    Permutation,
    SlopeRatio,
    Word,
    build_sigma,
    cyclic_restriction,
    enumerate_pc_words,
    is_circular,
    is_perfectly_clustering,
    lower_christoffel,
    pak_redlich_circular,
    restriction_word_chain,
    standard_encoding,
    two_interval_circular,
)
from christoffel.errors import (
    AlphabetSizeMismatchError,
    DimensionMismatchError,
    EmptyCompositionError,
    InvalidSlopeError,
    LengthOutOfRangeError,
    MergeMismatchError,
    NotCircularError,
    NotCoprimeError,
    NotExchangeError,
    OutOfRangeError,
    RestrictionOutOfRangeError,
    SizeLimitError,
)
from christoffel import iet
from christoffel.iet import (
    _INDUCTION_CUTOFF,
    _NATURALS_CAP,
    _encode_parts,
    _images,
    merge_position_sum,
    merge_positions,
)
from oracles import (
    compositions,
    conjugates,
    cycle_encodings,
    encoding_by_interval_index,
    images_by_ranges,
    is_circular_by_walk,
    is_lyndon,
    merge_positions_by_scan,
    pc_by_bw_table,
    pc_words_by_every_composition,
    restriction_by_cycle_deletion,
    restriction_chain_by_encodings,
    standard_cycle,
)

W = Word.parse


class TestBuildSigma:
    def test_example_2_2_5(self):
        assert build_sigma(Composition((2, 2, 5))).sigma.images == (7, 8, 5, 6, 0, 1, 2, 3, 4)

    def test_zero_middle_part_is_translation(self):
        assert build_sigma(Composition((2, 0, 3))).sigma.images == (3, 4, 0, 1, 2)

    def test_swap(self):
        assert build_sigma(Composition((1, 1))).sigma.images == (1, 0)

    def test_three_part_local_translations(self):
        """For three intervals the map is piecewise translation."""
        for c1, c2, c3 in compositions(11, 3):
            if c1 + c2 + c3 == 0:
                continue
            sigma = build_sigma(Composition((c1, c2, c3))).sigma.images
            for x in range(c1 + c2 + c3):
                if x < c1:
                    assert sigma[x] == x + c2 + c3
                elif x < c1 + c2:
                    assert sigma[x] == x + c3 - c1
                else:
                    assert sigma[x] == x - c1 - c2

    def test_empty_composition(self):
        with pytest.raises(EmptyCompositionError):
            Composition(())
        with pytest.raises(EmptyCompositionError):
            Composition((0, 0))

    @pytest.mark.parametrize("images", [[0], [1, 2, 0]])
    def test_permutation_must_have_the_composition_total(self, images):
        """A one-point sigma used to encode (1, 1) as the word (0,) and call
        it circular; a three-point one raised a bare IndexError."""
        with pytest.raises(DimensionMismatchError,
                           match=rf"permutation of \[{len(images)}\] for a composition of 2"):
            IetPermutation(Permutation(images), Composition((1, 1)))

    def test_permutation_must_be_the_exchange_of_its_composition(self):
        """The identity of [2] has the size of (1, 1) but is not its
        exchange, the swap; it used to be accepted and called not circular."""
        with pytest.raises(NotExchangeError,
                           match=r"permutation of \[2\] is not the exchange of \(1, 1\)"):
            IetPermutation(Permutation((0, 1)), Composition((1, 1)))

    def test_constructor_accepts_exactly_the_exchange(self):
        """Every permutation of [5] against every composition of 5 into 1
        to 3 parts: the constructor accepts the exchange of the parts and
        raises NotExchangeError for every other permutation."""
        for k in range(1, 4):
            for parts in compositions(5, k):
                exchange = images_by_ranges(parts)
                for images in permutations(range(5)):
                    if list(images) == exchange:
                        p = IetPermutation(Permutation(images), Composition(parts))
                        assert p == build_sigma(Composition(parts))
                    else:
                        with pytest.raises(NotExchangeError):
                            IetPermutation(Permutation(images), Composition(parts))

    def test_images_equal_range_blocks(self):
        """Every composition of a total up to 40 into 1 to 4 parts, and one
        of 10**5 points: the slices of the shared naturals equal fresh
        range blocks, and every image is an int."""
        checked = 0
        for k in range(1, 5):
            for total in range(1, 41):
                for parts in compositions(total, k):
                    images = _images(parts)
                    assert images == images_by_ranges(parts), parts
                    assert set(map(type, images)) == {int}, parts
                    checked += 1
        assert checked > 130_000
        parts = (31_415, 2, 0, 68_583)
        images = _images(parts)
        assert images == images_by_ranges(parts) and set(map(type, images)) == {int}

    def test_shared_naturals_stop_at_their_cap(self):
        """An exchange of cap + 1 points takes fresh ints and leaves the
        shared tuple no longer than the cap."""
        parts = (3, _NATURALS_CAP - 5, 3)
        exchange = build_sigma(Composition(parts))
        assert list(exchange.sigma.images) == images_by_ranges(parts)
        assert len(iet._naturals) <= _NATURALS_CAP


class TestCircularity:
    def test_examples(self):
        assert is_circular(build_sigma(Composition((2, 2, 5))))
        assert not is_circular(build_sigma(Composition((2, 2, 2))))
        assert is_circular(build_sigma(Composition((1, 1))))

    def test_gcd_criteria_examples(self):
        assert pak_redlich_circular(2, 2, 5)
        assert not pak_redlich_circular(2, 2, 2)
        assert two_interval_circular(1, 1)

    def test_pak_redlich_small_sweep(self):
        for parts in compositions(16, 3):
            assert pak_redlich_circular(*parts) == is_circular(build_sigma(Composition(parts)))

    def test_two_interval_sweep(self):
        for total in range(1, 61):
            for c1 in range(total + 1):
                parts = (c1, total - c1)
                assert two_interval_circular(*parts) == is_circular(build_sigma(Composition(parts)))

    def test_gcd_criteria_match_the_exchange(self):
        """The criteria enumerate_pc_words filters by, on every composition
        of a total up to 18 into 2 and 3 parts, zeros included."""
        for total in range(1, 19):
            for parts in compositions(total, 2):
                assert two_interval_circular(*parts) == \
                    is_circular(build_sigma(Composition(parts))), parts
            for parts in compositions(total, 3):
                assert pak_redlich_circular(*parts) == \
                    is_circular(build_sigma(Composition(parts))), parts

    def test_walk_from_zero_equals_cycle_decomposition(self):
        """One cycle through 0 of full length iff the decomposition has one cycle."""
        for total in range(1, 13):
            for parts in compositions(total, 3):
                exchange = build_sigma(Composition(parts))
                assert is_circular(exchange) == (len(exchange.sigma.cycles()) == 1), parts


def circular_both_ways(parts):
    """is_circular of the exchange build_sigma makes, and the walk."""
    exchange = build_sigma(Composition(parts))
    return is_circular(exchange), is_circular_by_walk(exchange)


class TestCircularityFromLengths:
    """From the cutoff on, is_circular runs the induction on return-word
    lengths; a smaller exchange walks."""

    def test_equals_the_walk_across_the_cutoff(self):
        """2 parts: every composition of every total in [cutoff - 2,
        cutoff + 40].  3 parts: every composition of the cutoff itself, and
        40 drawn ones of each other total in that band.  4 and 5 parts:
        30 drawn ones of each total in [cutoff - 2, cutoff + 10].  Every
        3-part composition of the whole band would be 1.4 million, about
        45 s."""
        rng = random.Random(30)
        low = _INDUCTION_CUTOFF - 2
        cases = [parts for total in range(low, low + 43) for parts in compositions(total, 2)]
        cases += compositions(_INDUCTION_CUTOFF, 3)
        for k, high, draws in ((3, low + 43, 40), (4, low + 13, 30), (5, low + 13, 30)):
            for total in range(low, high):
                for _ in range(draws):
                    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
                    cases.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, total])))
        circular = 0
        for parts in cases:
            direct, walked_ = circular_both_ways(parts)
            assert direct == walked_, parts
            circular += direct
        assert len(cases) > 45_000 and 0 < circular < len(cases)

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(st.integers(0, 10 ** 5 // 7), min_size=1, max_size=7).filter(any))
    def test_equals_the_walk_on_random_compositions(self, parts):
        direct, walked_ = circular_both_ways(parts)
        assert direct == walked_

    @pytest.mark.parametrize("parts", [(1, 1, 99998), (99998, 1, 1)])
    def test_adversarial_lengths(self, monkeypatch, parts):
        """Each full turn of the short intervals is one step, counted as
        TestInduction counts them: one sum of the turn's lengths."""
        exchange = build_sigma(Composition(parts))
        steps = []

        def counted_sum(values):
            steps.append(1)
            return sum(values)

        monkeypatch.setattr(iet, "sum", counted_sum, raising=False)
        assert is_circular(exchange) and is_circular_by_walk(exchange)
        assert 0 < len(steps) < 50

    @pytest.mark.parametrize("total", [_INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF, 3000])
    def test_route(self, monkeypatch, total):
        """From the cutoff on, one call of the induction on the lengths
        decides an exchange whether build_sigma made it, the public
        constructor or a pickle; below the cutoff each walks."""
        calls = []
        rauzy = iet._rauzy

        def spy(parts, words):
            calls.append(parts)
            return rauzy(parts, words)

        monkeypatch.setattr(iet, "_rauzy", spy)
        for parts in [(2, 3, total - 5), (2, 2, total - 4)]:
            built = build_sigma(Composition(parts))
            public = IetPermutation(built.sigma, built.composition)
            twin = pickle.loads(pickle.dumps(built))
            shallow, deep = copy.copy(built), copy.deepcopy(built)
            assert public == built == twin and hash(public) == hash(built)
            assert repr(public) == repr(built) == repr(twin)
            assert shallow == deep == built and hash(shallow) == hash(deep) == hash(built)
            assert repr(shallow) == repr(deep) == repr(built)
            expected = is_circular_by_walk(built)
            for exchange in (built, public, twin, shallow, deep):
                calls.clear()
                assert is_circular(exchange) == expected
                assert calls == ([parts] if total >= _INDUCTION_CUTOFF else [])

    @pytest.mark.parametrize("total", [_INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF, 3000])
    def test_sigma_is_built_only_when_read(self, monkeypatch, total):
        """An exchange holds its composition alone: build_sigma builds no
        image list, is_circular builds none from the cutoff on, and each
        read of sigma builds one."""
        calls = []
        images = iet._images

        def spy(parts):
            calls.append(parts)
            return images(parts)

        monkeypatch.setattr(iet, "_images", spy)
        parts = (2, 3, total - 5)
        exchange = build_sigma(Composition(parts))
        assert calls == []
        is_circular(exchange)
        assert calls == ([] if total >= _INDUCTION_CUTOFF else [parts])
        calls.clear()
        sigma = exchange.sigma
        assert calls == [parts]
        assert list(sigma.images) == images_by_ranges(parts)
        assert exchange.sigma == sigma and len(calls) == 2
        assert IetPermutation.__slots__ == ("composition",)
        with pytest.raises(AttributeError):
            exchange.__dict__


    @pytest.mark.parametrize("total", [255, 100_000])
    def test_equality_and_hash_build_no_sigma(self, monkeypatch, total):
        """== and hash compare the compositions alone: no image list is
        built for an exchange that build_sigma made, the public
        constructor, a pickle or a copy."""
        parts = (2, 3, total - 5)
        built = build_sigma(Composition(parts))
        exchanges = [built, IetPermutation(built.sigma, Composition(parts)),
                     pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)]
        other = build_sigma(Composition((3, 2, total - 5)))
        calls = []
        images = iet._images

        def spy(parts):
            calls.append(parts)
            return images(parts)

        monkeypatch.setattr(iet, "_images", spy)
        for x in exchanges:
            assert all(x == y and hash(x) == hash(y) for y in exchanges)
            assert x != other and hash(x) != hash(other)
        assert len(set(exchanges)) == 1 and calls == []


class TestStandardEncoding:
    def test_section_example(self):
        word = standard_encoding(build_sigma(Composition((2, 2, 5))), ("a", "b", "c"))
        assert "".join(word.letters) == "acbcbcacc"

    def test_zero_part_gives_christoffel(self):
        word = standard_encoding(build_sigma(Composition((2, 0, 3))), (0, 1, 2))
        assert word == lower_christoffel(SlopeRatio(3, 2), (0, 2))

    def test_three_letters(self):
        word = standard_encoding(build_sigma(Composition((1, 1, 2))), (-1, 0, 1))
        assert word.letters == (-1, 1, 0, 1)

    def test_not_circular(self):
        with pytest.raises(NotCircularError):
            standard_encoding(build_sigma(Composition((2, 2, 2))), (0, 1, 2))

    def test_standard_cycle(self):
        """The cycle of 0 in points: the one cycle of a circular exchange,
        an error naming the parts for any other."""
        assert standard_cycle(build_sigma(Composition((2, 2, 5)))) == (0, 7, 3, 6, 2, 5, 1, 8, 4)
        assert standard_cycle(build_sigma(Composition((0, 1)))) == (0,)
        for parts in [(2, 2), (2, 2, 2)]:  # two cycles, four
            with pytest.raises(NotCircularError,
                               match=re.escape(f"exchange of {parts} is not circular")):
                standard_cycle(build_sigma(Composition(parts)))

    def test_alphabet_size(self):
        with pytest.raises(AlphabetSizeMismatchError):
            standard_encoding(build_sigma(Composition((1, 1))), (0, 1, 2))

    def test_letter_multiplicities(self):
        rng = random.Random(8)
        found = 0
        while found < 40:
            parts = tuple(rng.randint(0, 6) for _ in range(3))
            if sum(parts) == 0:
                continue
            exchange = build_sigma(Composition(parts))
            if not is_circular(exchange):
                continue
            word = standard_encoding(exchange, (0, 1, 2))
            assert tuple(word.count(j) for j in range(3)) == parts
            found += 1

    def test_encodings_form_conjugacy_class(self):
        exchange = build_sigma(Composition((2, 2, 5)))
        all_words = cycle_encodings(exchange, (0, 1, 2))
        standard = standard_encoding(exchange, (0, 1, 2))
        assert sorted(all_words) == sorted(conjugates(standard))

    def test_letter_table_equals_interval_lookup(self):
        """Both encodings equal the per-element interval lookup on every
        circular composition of a total up to 14 into 1 to 4 parts."""
        alphabets = [(0, 1, 2, 3), (Fraction(-3, 2), Fraction(1, 3), 2, Fraction(7, 2))]
        for parts_count in range(1, 5):
            for total in range(1, 15):
                for parts in compositions(total, parts_count):
                    exchange = build_sigma(Composition(parts))
                    if not is_circular(exchange):
                        continue
                    for alphabet in alphabets:
                        alphabet = alphabet[:parts_count]
                        expected = encoding_by_interval_index(exchange, alphabet)
                        assert standard_encoding(exchange, alphabet) == expected, parts
                        assert cycle_encodings(exchange, alphabet) == \
                            [expected.rotation(i) for i in range(total)], parts

    @given(parts=st.lists(st.integers(0, 12), min_size=2, max_size=5).filter(any),
           letters=st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    def test_equals_interval_lookup_on_random_compositions(self, parts, letters):
        exchange = build_sigma(Composition(parts))
        alphabet = letters[:len(parts)]
        if is_circular(exchange):
            assert standard_encoding(exchange, alphabet) == \
                encoding_by_interval_index(exchange, alphabet)
        else:
            with pytest.raises(NotCircularError):
                standard_encoding(exchange, alphabet)

    def test_encoding_is_pc_lyndon(self):
        for total in range(2, 17):
            for parts in compositions(total, 3):
                exchange = build_sigma(Composition(parts))
                if not is_circular(exchange):
                    continue
                word = standard_encoding(exchange, (0, 1, 2))
                assert is_lyndon(word)
                assert is_perfectly_clustering(word)


def encoded(parts, alphabet):
    """_encode_parts, or the error it raises as (type, message)."""
    try:
        return _encode_parts(parts, alphabet)
    except (NotCircularError, AlphabetSizeMismatchError) as exc:
        return type(exc), str(exc)


# The cutoff is patched with unittest.mock, not monkeypatch: hypothesis
# refuses function-scoped fixtures.
def walked(parts, alphabet):
    """encoded with the cutoff above every total: the walk of the cycle of 0."""
    with patch.object(iet, "_INDUCTION_CUTOFF", math.inf):
        return encoded(parts, alphabet)


def induced(parts, alphabet):
    """encoded with the cutoff at 0: Rauzy induction on the lengths."""
    with patch.object(iet, "_INDUCTION_CUTOFF", 0):
        return encoded(parts, alphabet)


LETTER_SETS = [
    tuple(range(-7, 0)),
    tuple(Fraction(-5, j) for j in range(1, 8)),
    tuple("abcdefg"),
]


class TestInduction:
    """Rauzy induction on the lengths against the walk of the cycle of 0."""

    def test_equals_the_walk_on_every_small_composition(self):
        """Every composition into 1 to 5 parts of totals below 40, 120, 60,
        26 and 16 (zeros included): the same word or the same error."""
        checked = 0
        for k, bound in ((1, 40), (2, 120), (3, 60), (4, 26), (5, 16)):
            for total in range(1, bound):
                for parts in compositions(total, k):
                    alphabet = LETTER_SETS[checked % 3][:k]
                    assert induced(parts, alphabet) == walked(parts, alphabet), parts
                    checked += 1
        assert checked > 80_000

    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=7).filter(any),
           letters=st.sampled_from(LETTER_SETS))
    def test_equals_the_walk_on_random_compositions(self, parts, letters):
        alphabet = letters[:len(parts)]
        assert induced(parts, alphabet) == walked(parts, alphabet)

    @pytest.mark.parametrize("parts", [(1, 1, 99998), (99998, 1, 1), (3, 2, 99995),
                                       (1, 1, 1, 1, 1, 99995)])
    def test_adversarial_lengths(self, monkeypatch, parts):
        """One long interval against short ones: each full turn of the
        short letters is applied at once, so the induction takes a few
        dozen steps (one sum of the turn's lengths each), not one per
        letter."""
        alphabet = LETTER_SETS[2][:len(parts)]
        expected = walked(parts, alphabet)
        steps = []

        def counted_sum(values):
            steps.append(1)
            return sum(values)

        monkeypatch.setattr(iet, "sum", counted_sum, raising=False)
        assert induced(parts, alphabet) == expected
        assert len(steps) < 50

    def test_one_long_interval_is_a_power_of_its_letter(self):
        word = induced((1, 1, 99998), "abc")
        assert word == ["a"] + ["c"] * 49999 + ["b"] + ["c"] * 49999

    @pytest.mark.parametrize("total", [_INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF])
    def test_both_sides_of_the_cutoff(self, total):
        """A grid of 3-part compositions of the total, circular or not, and
        one with 5 parts encode or fail as the walk does, by both routes."""
        cases = [(c1, c2, total - c1 - c2) for c1 in range(0, total + 1, 7)
                 for c2 in range(0, total - c1 + 1, 5)]
        cases.append((1, 2, 3, 4, total - 10))
        for parts in cases:
            alphabet = LETTER_SETS[0][:len(parts)]
            expected = walked(parts, alphabet)
            assert encoded(parts, alphabet) == expected, parts
            assert induced(parts, alphabet) == expected, parts

    @pytest.mark.parametrize("total", [7, _INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF, 10 ** 5])
    def test_the_same_errors_on_both_routes(self, total):
        """Non-circular parts and a wrong alphabet size raise the walk's
        errors with its messages, below and above the cutoff."""
        for parts in [(total,), (0, total), (2, total - 4, 2), (2, 0, total - 4, 0, 2)]:
            alphabet = LETTER_SETS[1][:len(parts)]
            error = walked(parts, alphabet)
            assert error[0] is NotCircularError, parts
            assert induced(parts, alphabet) == error
            assert encoded(parts, alphabet) == error
        parts = (1, total - 1)
        for alphabet in ("a", "abc"):
            error = walked(parts, alphabet)
            assert error == (AlphabetSizeMismatchError, f"{len(alphabet)} letters for 2 parts")
            assert induced(parts, alphabet) == error
            assert encoded(parts, alphabet) == error

    @pytest.mark.parametrize("long", [False, True])
    def test_route_by_length(self, monkeypatch, long):
        """From the cutoff on, the parts-only entry builds no image list and
        walks no cycle; below it, it walks."""
        total = _INDUCTION_CUTOFF + 1 if long else _INDUCTION_CUTOFF - 1
        c2 = next(c2 for c2 in range(1, total) if gcd(2 + c2, total - 2) == 1)
        parts = (2, c2, total - 2 - c2)
        expected = walked(parts, "abc")
        assert len(expected) == total
        walks = []

        def forbidden(*args):
            raise AssertionError("the induction walked or built an image list")

        def spy(table, images):
            walks.append(len(images))
            return walk(table, images)

        walk = iet._walk
        if long:
            monkeypatch.setattr(iet, "_walk", forbidden)
            monkeypatch.setattr(iet, "_images", forbidden)
        else:
            monkeypatch.setattr(iet, "_walk", spy)
        assert _encode_parts(parts, "abc") == expected
        assert walks == ([] if long else [total])

    @pytest.mark.parametrize("total", [_INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF, 300])
    def test_exchange_encoders_route_by_length(self, monkeypatch, total):
        """standard_encoding and cycle_encodings encode the parts of the
        exchange: one call of the induction each from the cutoff on, none
        below it, and the words of the interval lookup either way."""
        calls = []
        rauzy = iet._rauzy

        def spy(parts, words):
            calls.append(parts)
            return rauzy(parts, words)

        monkeypatch.setattr(iet, "_rauzy", spy)
        c2 = next(c2 for c2 in range(1, total) if gcd(2 + c2, total - 2) == 1)
        parts = (2, c2, total - 2 - c2)
        exchange = build_sigma(Composition(parts))
        expected = encoding_by_interval_index(exchange, "abc")
        for encode, words in ((standard_encoding, expected),
                              (cycle_encodings, [expected.rotation(i) for i in range(total)])):
            calls.clear()
            assert encode(exchange, "abc") == words
            assert calls == ([parts] if total >= _INDUCTION_CUTOFF else [])

    def test_long_callers_agree_with_the_walk(self):
        """The first word of a long restriction chain and the perfectly
        clustering test of long words go through the induction."""
        gamma, rho = 101, 400
        first = restriction_word_chain(gamma, rho)[0][0]
        assert list(first.letters) == walked((gamma, 0, rho), (0, 1, 2))
        letters = walked((5, 17, 300), (0, 1, 2))
        swapped = letters[:]
        j = next(j for j in range(1, len(letters)) if letters[j - 1] != letters[j])
        swapped[j - 1], swapped[j] = swapped[j], swapped[j - 1]
        for word in (Word(letters), Word(letters).rotation(123), Word(swapped)):
            assert is_perfectly_clustering(word) == pc_by_bw_table(word)
        assert is_perfectly_clustering(Word(letters)) and not is_perfectly_clustering(Word(swapped))


class TestCyclicRestriction:
    def test_identity_restriction(self):
        base = build_sigma(Composition((4, 7)))
        restricted = cyclic_restriction(base, 11)
        assert restricted.sigma == base.sigma
        assert restricted.composition.parts == (4, 0, 7)

    def test_known_restrictions(self):
        base = build_sigma(Composition((4, 7)))
        assert cyclic_restriction(base, 9).sigma == build_sigma(Composition((2, 2, 5))).sigma
        assert cyclic_restriction(base, 10).sigma == build_sigma(Composition((3, 1, 6))).sigma

    def test_out_of_range(self):
        base = build_sigma(Composition((4, 7)))
        with pytest.raises(RestrictionOutOfRangeError):
            cyclic_restriction(base, 6)  # i = 5 exceeds min(4, 7)
        with pytest.raises(RestrictionOutOfRangeError):
            cyclic_restriction(base, 12)

    def test_requires_coprime(self):
        with pytest.raises(NotCoprimeError):
            cyclic_restriction(build_sigma(Composition((2, 4))), 5)

    def test_equals_cycle_deletion(self):
        """The (gamma-i, i, rho-i) exchange = the cycle form with elements
        >= n-i deleted, for every coprime pair with gamma + rho <= 20."""
        for n in range(2, 21):
            for gamma in range(1, n):
                rho = n - gamma
                if gcd(gamma, rho) != 1:
                    continue
                base = build_sigma(Composition((gamma, rho)))
                for i in range(min(gamma, rho) + 1):
                    restricted = cyclic_restriction(base, n - i)
                    assert restricted.sigma == \
                        restriction_by_cycle_deletion(gamma, rho, n - i), (gamma, rho, i)

    def test_random_two_interval_cases(self):
        rng = random.Random(12)
        checked = 0
        while checked < 60:
            gamma, rho = rng.randint(1, 12), rng.randint(1, 12)
            if gcd(gamma, rho) != 1:
                continue
            base = build_sigma(Composition((gamma, rho)))
            i = rng.randint(0, min(gamma, rho))
            restricted = cyclic_restriction(base, gamma + rho - i)
            assert restricted.composition.parts == (gamma - i, i, rho - i)
            checked += 1


class TestRestrictionWordChain:
    def test_example_4_7(self):
        chain = restriction_word_chain(4, 7, ("a", "b", "c"))
        assert [("".join(w.letters), pos) for w, pos in chain] == [
            ("acaccaccacc", None),
            ("acbcaccacc", 3),
            ("acbcbcacc", 5),
            ("acbcbcbc", 7),
            ("bbcbcbc", 1),
        ]

    def test_smallest_cases(self):
        assert [(str(w), pos) for w, pos in restriction_word_chain(1, 2)] == [
            ("022", None), ("12", 1)]
        # (1, 1): the single merge replaces the whole word "ac" by "b"
        assert [(str(w), pos) for w, pos in restriction_word_chain(1, 1)] == [
            ("02", None), ("1", 1)]

    def test_parameter_validation(self):
        with pytest.raises(NotCoprimeError):
            restriction_word_chain(2, 4)
        with pytest.raises(RestrictionOutOfRangeError):
            restriction_word_chain(3, 2)

    def test_merges_replace_ac_and_do_not_overlap(self):
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            gamma = rng.randint(1, 8)
            rho = rng.randint(gamma + 1, 17)
            if gcd(gamma, rho) != 1:
                continue
            n = gamma + rho
            gamma_inv = pow(gamma, -1, n)
            chain = restriction_word_chain(gamma, rho, (0, 1, 2))
            start = chain[0][0]
            blocks = []
            for j in range(1, gamma + 1):
                pos = (j * gamma_inv) % n
                assert start[pos - 1] == 0 and start[pos] == 2
                blocks.append((pos - 1, pos))
            flattened = [x for b in blocks for x in b]
            assert len(set(flattened)) == len(flattened)
            # consecutive words differ by one "ac" -> "b" substitution
            for (prev, _), (cur, pos) in zip(chain, chain[1:]):
                t = prev.letters
                assert t[pos - 1] == 0 and t[pos] == 2
                assert t[:pos - 1] + (1,) + t[pos + 1:] == cur.letters
            checked += 1

    def test_equals_one_encoding_per_step(self):
        """Splicing equals reading every word off its own exchange, for
        every coprime 0 < gamma <= rho with gamma + rho <= 120."""
        for n in range(2, 121):
            for gamma in range(1, n // 2 + 1):
                if gcd(gamma, n) == 1:
                    assert restriction_word_chain(gamma, n - gamma) == \
                        restriction_chain_by_encodings(gamma, n - gamma), (gamma, n)

    # An example takes up to 4 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 600 ms is 5 x (4 + 115) ms, rounded up.
    @settings(max_examples=50, deadline=600)
    @given(case=st.integers(2, 60).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n // 2).filter(
                   lambda g: gcd(g, n) == 1))),
           alphabet=st.tuples(*[st.integers(-99, 99) | st.characters()] * 3))
    def test_equals_one_encoding_per_step_random_alphabets(self, case, alphabet):
        n, gamma = case
        assert restriction_word_chain(gamma, n - gamma, alphabet) == \
            restriction_chain_by_encodings(gamma, n - gamma, alphabet)

    def test_wrong_merge_position_is_a_named_error(self, monkeypatch):
        import christoffel.iet as iet
        monkeypatch.setattr(iet, "merge_positions",
                            lambda n, step, count: [1] * count)
        with pytest.raises(MergeMismatchError, match=r"merge position 1"):
            restriction_word_chain(4, 7)


@st.composite
def coprime_steps(draw, max_n=150, wrapped=False):
    """(n, step, count) with gcd(step, n) = 1 and 0 <= count < n.  The step
    lies in [1, n], or in [0, 3n] when ``wrapped``, so that a rule which
    assumes 0 < step < n (say, one that wraps each mark by a single
    subtraction of n) goes wrong."""
    n = draw(st.integers(1, max_n))
    low, high = (0, 3 * n) if wrapped else (1, n)
    step = draw(st.integers(low, high).filter(lambda s: gcd(s, n) == 1))
    return n, step, draw(st.integers(0, n - 1))


class TestMergePositions:
    @given(case=coprime_steps(400, wrapped=True))
    def test_equals_quadratic_count(self, case):
        assert merge_positions(*case) == merge_positions_by_scan(*case)

    @given(case=coprime_steps(10_000))
    def test_floor_sums_equal_fenwick_rows(self, case):
        assert merge_position_sum(*case) == sum(merge_positions(*case))

    def test_floor_sums_every_count_small_moduli(self):
        """Rows do not depend on the count, so one list of n - 1 rows per
        coprime (step, n) checks every count at once."""
        for n in range(1, 101):
            for step in range(n):
                if gcd(step, n) != 1:
                    continue
                rows = merge_positions(n, step, n - 1)
                total = 0
                assert merge_position_sum(n, step, 0) == 0
                for count, row in enumerate(rows, 1):
                    total += row
                    assert merge_position_sum(n, step, count) == total, (n, step, count)

    @pytest.mark.parametrize("func", [merge_position_sum])
    def test_floor_sums_reject_bad_arguments(self, func):
        with pytest.raises(NotCoprimeError):
            func(12, 4, 3)
        with pytest.raises(NotCoprimeError):
            func(10, 0, 1)
        for count in (-1, 12):
            with pytest.raises(OutOfRangeError):
                func(12, 5, count)

    def test_fenwick_rows_reject_bad_arguments(self):
        """The same checks as the floor sums: merge_positions(5, 2, 7) used
        to return [2, 3, 1, 1, 0, 0, -1], which are not merge rows."""
        with pytest.raises(OutOfRangeError, match=r"count 7 outside \[0, 4\]"):
            merge_positions(5, 2, 7)
        with pytest.raises(NotCoprimeError, match=r"gcd\(4, 12\) != 1"):
            merge_positions(12, 4, 3)
        for count in (-1, 12):
            with pytest.raises(OutOfRangeError):
                merge_positions(12, 5, count)


class TestEnumeration:
    def test_length_two(self):
        assert enumerate_pc_words(2, 2) == [Word((0, 1))]

    def test_contains_section_example(self):
        words = enumerate_pc_words(9, 3)
        assert Word((0, 2, 1, 2, 1, 2, 0, 2, 2)) in words  # acbcbcacc

    def test_length_seven_binary(self):
        words = enumerate_pc_words(7, 2)
        by_slopes = sorted(
            lower_christoffel(SlopeRatio(r, 7 - r)) for r in range(8)
            if gcd(r, 7 - r) == 1)
        assert words == by_slopes

    def test_binary_words_are_christoffel_conjugates(self):
        from christoffel import is_christoffel
        for n in range(2, 13):
            for w in enumerate_pc_words(n, 2):
                if len(w.alphabet()) == 2:
                    assert is_christoffel(w) == "lower"

    @pytest.mark.parametrize("num_letters, alphabet", [
        (3, (0, 0, 1)), (3, (0, 1, 1)), (3, (2, 1, 0)), (3, (0, 2, 1)), (2, (1, 0)),
        (2, ("b", "a")), (2, (1, 1))])
    def test_alphabet_must_increase(self, num_letters, alphabet):
        """(0, 0, 1) used to give duplicate words and (1, 0) words that
        are not Lyndon; the error is the one of lower_christoffel."""
        with pytest.raises(InvalidSlopeError, match="not strictly ordered"):
            enumerate_pc_words(6, num_letters, alphabet)

    def test_increasing_alphabets_give_lyndon_words(self):
        for alphabet in ((-1, 5, 7), ("a", "b", "c")):
            words = enumerate_pc_words(8, 3, alphabet)
            assert len(set(words)) == len(words) and all(map(is_lyndon, words))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            enumerate_pc_words(25, 2)
        with pytest.raises(SizeLimitError):
            enumerate_pc_words(4, 4)

    @pytest.mark.parametrize("num_letters", [2, 3])
    @pytest.mark.parametrize("length", [0, -1])
    def test_length_below_one_is_a_domain_error(self, length, num_letters):
        """Not a size limit: no word has such a length, whatever the cap."""
        with pytest.raises(LengthOutOfRangeError, match=rf"length {length} below 1"):
            enumerate_pc_words(length, num_letters)

    @pytest.mark.parametrize("alphabet", [
        None, (-1, 5, 7), ("a", "b", "c"), (Fraction(-3, 2), Fraction(1, 3), Fraction(7, 2))])
    def test_equals_every_composition_walked(self, alphabet):
        """The flat gcd-filtered loops equal walking every composition and
        keeping the circular ones, for 2 and 3 letters at every length up
        to the cap of 18 (10-20 ms per alphabet)."""
        for k in (2, 3):
            given = None if alphabet is None else alphabet[:k]
            letters = tuple(range(k)) if given is None else given
            for length in range(1, 19):
                assert enumerate_pc_words(length, k, given) == \
                    pc_words_by_every_composition(length, k, letters), (k, length)

    def test_letters_are_the_alphabets_own_objects(self):
        """With no alphabet the letters are ints; an alphabet's words hold
        its own letter objects, bools and fractions included, and the
        alphabet (0, 1, 2) gives the default's words."""
        fractions = (Fraction(-3, 2), Fraction(1, 3), Fraction(7, 2))
        for length in range(1, 19):
            for k in (2, 3):
                default = enumerate_pc_words(length, k)
                assert {type(x) for w in default for x in w} == {int}
                assert enumerate_pc_words(length, k, (0, 1, 2)[:k]) == default
                own = set(map(id, fractions[:k]))
                assert all(id(x) in own
                           for w in enumerate_pc_words(length, k, fractions[:k]) for x in w)
            bools = enumerate_pc_words(length, 2, (False, True))
            assert bools == enumerate_pc_words(length, 2)
            assert {type(x) for w in bools for x in w} == {bool}

    def test_first_return_of_the_rotation_is_the_exchange(self):
        """The identity the enumeration reads its words by: the exchange of
        (c1, c2, c3) of n is the first return to [0, n) of y -> y + s on
        Z/N, s = c2 + c3 and N = n + c2, and that of (c1, c2) the rotation
        by c2 on Z/n; every composition of a total up to 18 into 2 and 3
        parts, zeros included."""
        def first_return(n, s, modulus):
            images = []
            for x in range(n):
                y = (x + s) % modulus
                while y >= n:
                    y = (y + s) % modulus
                images.append(y)
            return tuple(images)

        for total in range(1, 19):
            for c1, c2 in compositions(total, 2):
                assert first_return(total, c2, total) == \
                    build_sigma(Composition((c1, c2))).sigma.images, (c1, c2)
            for c1, c2, c3 in compositions(total, 3):
                assert first_return(total, c2 + c3, total + c2) == \
                    build_sigma(Composition((c1, c2, c3))).sigma.images, (c1, c2, c3)

    @pytest.mark.parametrize("num_letters, first", [(2, (0, 4)), (3, (0, 0, 4))])
    def test_a_wrong_prefilter_is_an_error_not_a_word(self, monkeypatch, num_letters, first):
        """With the gcd criterion patched to admit every composition, the
        first non-circular one fails the unit check of its rotation."""
        import christoffel.iet as iet
        monkeypatch.setattr(iet, "gcd", lambda x, y: 1)
        with pytest.raises(NotCircularError, match=re.escape(f"exchange of {first}")):
            enumerate_pc_words(4, num_letters)

    def test_one_wrongly_admitted_composition_is_named(self, monkeypatch):
        """At length 4, gcd(c1 + c2, c2 + c3) = gcd(2, 2) only for (2, 0, 2),
        whose exchange has two cycles."""
        import christoffel.iet as iet
        monkeypatch.setattr(iet, "gcd", lambda x, y: 1 if (x, y) == (2, 2) else gcd(x, y))
        with pytest.raises(NotCircularError, match=re.escape("exchange of (2, 0, 2)")):
            enumerate_pc_words(4, 3)

    def test_unique_palindromic_split_of_pc_lyndon_words(self):
        """Exactly one proper palindromic split, exhaustively.

        The Lyndon restriction matters: 010 is perfectly clustering (the
        table is shared by the whole conjugacy class) yet admits no
        proper palindromic split at all.
        """
        from christoffel import palindromic_factorization
        for n in range(2, 17):
            for ell in (2, 3):
                if ell == 3 and n > 14:
                    continue
                for w in enumerate_pc_words(n, ell):
                    first, second = palindromic_factorization(w)
                    assert first + second == w

    def test_enumeration_does_not_fill_the_tuple_free_lists(self):
        """Letter tuples built from a list have their final length from the
        start, so CPython takes them from its per-length free list and puts
        them back.  Built straight from an iterator of unknown length they
        are resized from another length, so every freed one stays in the
        free list of its length (up to 2000 each): about 1 MiB more in 50
        rounds.  No gc.collect in between, since a full collection empties
        the free lists."""
        def rounds(count):
            for _ in range(count):
                for length in range(3, 13):
                    enumerate_pc_words(length, 3)

        tracemalloc.start()
        try:
            rounds(5)
            before = tracemalloc.get_traced_memory()[0]
            rounds(50)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 256 * 1024

    def test_pc_is_a_class_property(self):
        """All rotations share one table, so they are PC together."""
        for w in enumerate_pc_words(9, 3):
            assert all(is_perfectly_clustering(c) for c in conjugates(w))
