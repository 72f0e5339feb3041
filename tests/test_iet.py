import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from christoffel import (
    Composition,
    SlopeRatio,
    Word,
    build_sigma,
    conjugates,
    cycle_encodings,
    cyclic_restriction,
    enumerate_pc_words,
    is_circular,
    is_lyndon,
    is_perfectly_clustering,
    lower_christoffel,
    pak_redlich_circular,
    restriction_word_chain,
    standard_encoding,
    two_interval_circular,
)
from christoffel.errors import (
    AlphabetSizeMismatchError,
    EmptyCompositionError,
    InvalidSlopeError,
    MergeMismatchError,
    NotCircularError,
    NotCoprimeError,
    OutOfRangeError,
    RestrictionOutOfRangeError,
    SizeLimitError,
)
from christoffel.iet import merge_position_sum, merge_positions
from oracles import (
    encoding_by_interval_index,
    merge_positions_by_scan,
    restriction_by_cycle_deletion,
    restriction_chain_by_encodings,
)

W = Word.parse


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


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
