import random
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from christoffel import (
    ContinuedFraction,
    DeterminantalVector,
    SlopeRatio,
    SturmianSlope,
    Word,
    bw_rows,
    christoffel_chain,
    christoffel_length,
    circular_factors,
    determinantal_vector,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    factor_matrix,
    g_chain,
    is_lyndon,
    is_perfectly_clustering,
    lower_christoffel,
    special_factor_determinant,
    standard_factorization,
    vector_merge_step,
)
from christoffel.errors import (
    DimensionMismatchError,
    InsufficientCFError,
    NotChristoffelError,
    NotPerfectlyClusteringError,
    OutOfRangeError,
)
from christoffel.fixtures import G_CHAIN_ROWS, H_SEQUENCE
from christoffel.iet import _INDUCTION_CUTOFF, _encode_parts, merge_positions
from christoffel import iet, numeric, sturmian
from christoffel.sturmian import FactorMatrix, _covering, _factor_matrix, _standard_split
from oracles import (
    covering_by_walk,
    determinantal_vector_by_identity_block,
    determinantal_vector_by_minors,
    factor_matrix_by_rotation_sort,
    factor_matrix_by_rows,
    g_chain_by_rotation_sort,
    special_factor_determinant_by_elimination,
)
from test_values import FACTORS

FIB = SturmianSlope.from_quotients((0, 1, 1, 1, 1, 1, 1, 1))
ORDER11 = SturmianSlope.from_quotients((2, 1, 2))
SQRT2ISH = SturmianSlope.from_quotients((0, 2, 2, 2))

# Continued-fraction prefixes [n0; n1, ...] with n0 >= 0 and the rest >= 1.
cf_prefixes = st.tuples(st.integers(0, 4), st.lists(st.integers(1, 5), min_size=1,
                                                    max_size=5)).map(
    lambda t: SturmianSlope.from_quotients((t[0],) + tuple(t[1])))


class TestChain:
    def test_fibonacci_prefix(self):
        words = christoffel_chain(FIB, 8)
        assert [str(w) for w in words] == ["01", "001", "00101", "00100101"]

    def test_finite_slope(self):
        words = christoffel_chain(SturmianSlope.from_quotients((2,)), 50)
        assert [str(w) for w in words] == ["01", "011"]

    def test_starts_at_01_with_increasing_lengths(self):
        for quotients in ((2, 1, 2), (0, 2, 2, 2), (3, 1, 1, 2)):
            words = christoffel_chain(SturmianSlope.from_quotients(quotients), 1000)
            assert str(words[0]) == "01"
            assert all(len(a) < len(b) for a, b in zip(words, words[1:]))


class TestCovering:
    """The covering chain item by one ceiling division per quotient, against
    the walk over every semiconvergent."""

    # An example takes up to 2 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 600 ms is 5 x (2 + 115) ms, rounded up.
    @settings(max_examples=400, deadline=600)
    @given(n0=st.integers(0, 6), rest=st.lists(st.integers(1, 9), max_size=8),
           n=st.integers(0, 400))
    def test_equals_walk(self, n0, rest, n):
        slope = SturmianSlope.from_quotients((n0, *rest))
        try:
            expected = covering_by_walk(slope, n)
        except InsufficientCFError as exc:
            with pytest.raises(InsufficientCFError) as info:
                _covering(slope, n)
            assert str(info.value) == str(exc)
        else:
            assert _covering(slope, n) == expected

    @pytest.mark.parametrize("quotients, n, end", [
        ((0,), 0, 0), ((0,), 3, 0), ((2,), 5, 3), ((0, 1), 2, 2), ((0, 3, 2), 400, 9)])
    def test_prefix_too_short(self, quotients, n, end):
        with pytest.raises(InsufficientCFError, match=(
                f"^chain ends at length {end}; extend the continued fraction to cover "
                f"factor length {n}$")):
            _covering(SturmianSlope.from_quotients(quotients), n)

    def test_huge_quotient(self):
        """Block 1 of [0; 10^18, 5] holds the slopes 1/h, of length h + 1,
        and block 2 the slopes h/(10^18 h + 1)."""
        big = 10 ** 18
        slope = SturmianSlope.from_quotients((0, big, 5))
        assert _covering(slope, 10 ** 12) == (10 ** 12 - 1, SlopeRatio(1, 10 ** 12))
        assert _covering(slope, big) == (big - 1, SlopeRatio(1, big))
        assert _covering(slope, big + 1) == (big, SlopeRatio(1, big + 1))
        assert _covering(slope, 3 * big + 2) == (big + 2, SlopeRatio(3, 3 * big + 1))


class TestFactorMatrix:
    def test_tiny(self):
        m = factor_matrix(FIB, 1)
        assert [str(r) for r in m.rows] == ["1", "0"]

    def test_order11_tables(self):
        for n, expected in G_CHAIN_ROWS.items():
            m = factor_matrix(ORDER11, n)
            assert tuple(str(r) for r in m.rows) == expected

    def test_rows_match_circular_factors(self):
        chain = christoffel_chain(ORDER11, 11)
        for n in range(0, 11):
            covering = next(w for w in chain if len(w) >= n + 1)
            m = factor_matrix(ORDER11, n)
            assert list(m.rows) == circular_factors(covering, n)

    def test_origin_matches_removal_marks(self):
        """Surviving rows are those not removed at positions jq mod N."""
        for slope, n in ((ORDER11, 8), (ORDER11, 6), (FIB, 9), (FIB, 17)):
            m = factor_matrix(slope, n)
            chain = christoffel_chain(slope, 10 ** 6)
            word = next(w for w in chain if len(w) >= n + 1)
            big_n = len(word)
            q = word.count(0)
            removed = {(j * q) % big_n for j in range(1, big_n - n)}
            assert m.origin == tuple(x for x in range(big_n) if x not in removed)

    def test_insufficient_cf(self):
        with pytest.raises(InsufficientCFError):
            factor_matrix(SturmianSlope.from_quotients((2,)), 5)

    @given(slope=cf_prefixes, data=st.data())
    def test_equals_rotation_sort(self, slope, data):
        """Rows and origins by the residue rule equal the distinct prefixes of
        the rotation-sorted table of the covering chain word."""
        chain = christoffel_chain(slope, 200)
        n = data.draw(st.integers(0, len(chain[-1]) - 1))
        covering = next(w for w in chain if len(w) >= n + 1)
        assert factor_matrix(slope, n) == factor_matrix_by_rotation_sort(covering, n)

    @pytest.mark.parametrize("quotients", [
        (0,) + (1,) * 11, (2, 1, 2, 1, 2, 1, 2), (0, 2, 2, 2, 2, 2),
        (0, 1, 2, 1, 3, 2, 1, 2, 1, 1, 3), (3, 1, 4, 1, 5, 9)])
    def test_consecutive_rows_differ_by_one_exchange(self, quotients):
        """Row j+1 of G_n is row j with one adjacent "10" made "01", or with
        its final 1 made 0; differencing consecutive rows, as the exact
        kernel ``determinantal_vector`` does, leaves 0/+-1 rows with at
        most two nonzero entries."""
        slope = SturmianSlope.from_quotients(quotients)
        for n in range(65):
            rows = [str(r) for r in factor_matrix(slope, n).rows]
            for u, v in zip(rows, rows[1:]):
                p = next(i for i in range(n) if u[i] != v[i])
                if p == n - 1:
                    assert (u[p], v[p]) == ("1", "0"), (n, u, v)
                else:
                    assert u[p:p + 2] == "10" and v == u[:p] + "01" + u[p + 2:], (n, u, v)

    def test_rotation_slices_equal_rows_from_residue_rule(self):
        """Every slope with both letters and N <= 60, every 0 <= n < N."""
        for big_n in range(2, 61):
            for r in range(1, big_n):
                if gcd(r, big_n) == 1:
                    s = SlopeRatio(r, big_n - r)
                    for n in range(big_n):
                        assert _factor_matrix(s, n) == factor_matrix_by_rows(s, n), (s, n)


def _slope_of(big_n, r):
    """The Sturmian slope whose last chain word has r ones among N letters."""
    return SturmianSlope(ContinuedFraction.from_slope(SlopeRatio(r, big_n - r)))


class TestOracle:
    def test_one_column(self):
        assert determinantal_vector([[1], [0]]) == (0, 1)

    def test_empty(self):
        assert determinantal_vector([[]]) == (1,)

    def test_list_and_tuple_rows(self):
        """Row tails compare by value, whatever sequence type holds them."""
        assert determinantal_vector([(1, 0), [0, 1], (0, 0)]) \
            == determinantal_vector_by_minors([[1, 0], [0, 1], [0, 0]])

    def test_fibonacci_small(self):
        assert determinantal_vector_oracle(factor_matrix(FIB, 3)).components \
            == (-1, 1, 0, 1)
        assert determinantal_vector_oracle(factor_matrix(FIB, 4)).components \
            == (1, -1, 1, -1, -1)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            determinantal_vector([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatchError):
            determinantal_vector([])

    def test_equals_identity_block_on_every_small_slope(self):
        """The path-minor oracle and the closed form equal the elimination
        of [G | I] on every distinct factor matrix of every slope with both
        letters and N <= 34, every n < N.  (To N <= 80 the same sweep
        covers 26,398 matrices; the hypothesis test below samples that
        range.)"""
        seen = set()
        for big_n in range(2, 35):
            for r in range(1, big_n):
                if gcd(r, big_n) == 1:
                    slope = _slope_of(big_n, r)
                    for n in range(big_n):
                        m = factor_matrix(slope, n)
                        if m not in seen:
                            seen.add(m)
                            expected = determinantal_vector_by_identity_block(m.int_rows())
                            assert determinantal_vector_oracle(m).components == expected \
                                == determinantal_vector_closed(slope, n).components, (r, big_n, n)

    # An example takes up to 36 ms, and a full garbage collection of the
    # session's heap 80-115 ms: 800 ms is 5 x (36 + 115) ms, rounded up.
    @settings(max_examples=40, deadline=800)
    @given(data=st.data())
    def test_equals_identity_block_up_to_length_80(self, data):
        big_n = data.draw(st.integers(2, 80))
        r = data.draw(st.integers(1, big_n - 1).filter(lambda r: gcd(r, big_n) == 1))
        n = data.draw(st.integers(0, big_n - 1))
        m = factor_matrix(_slope_of(big_n, r), n)
        assert determinantal_vector_oracle(m).components \
            == determinantal_vector_by_identity_block(m.int_rows())

    @pytest.mark.parametrize("m", [
        FactorMatrix(0, (Word(()),), (0,)),
        FactorMatrix(1, (Word((1,)), Word((0,))), (0, 1)),
        FACTORS,
    ], ids=["n=0", "n=1", "test_values.FACTORS"])
    def test_path_minors_on_small_matrices(self, m):
        assert determinantal_vector_oracle(m).components \
            == determinantal_vector_by_minors(m.int_rows())

    @settings(max_examples=60)
    @given(data=st.data())
    def test_path_minors_on_every_edge_order(self, data):
        """Any order of the path edges and any integer last row: the rows
        need not be factors of a Sturmian word for the minors to follow."""
        k = data.draw(st.integers(1, 12))
        order = data.draw(st.permutations(range(k)))
        last = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
        rows = [last]
        for j in reversed(order):
            row = list(rows[0])
            row[j] += 1
            if j + 1 < k:
                row[j + 1] -= 1
            rows.insert(0, row)
        m = FactorMatrix(k, tuple(map(Word, rows)), tuple(range(k + 1)))
        expected = determinantal_vector_by_identity_block(rows)
        assert determinantal_vector(rows) == determinantal_vector_oracle(m).components == expected

    @pytest.mark.parametrize("rows, message", [
        (["10", "10", "00"], "rows 0 and 1 do not differ"),
        (["110", "101", "100", "001"], "rows 2 and 3 do not differ"),
        (["110", "010", "001", "000"], "rows 0 and 1 do not differ"),
        (["101", "010", "001", "000"], "rows 0 and 1 do not differ"),
        (["01", "10", "00"], "rows 0 and 1 do not differ"),
        (["11", "10", "11"], "rows 1 and 2 do not differ"),
        (["1100", "1010", "0110", "0101", "0011"],
         "rows 3 and 4 repeat the exchange at column 1 of rows 0 and 1"),
    ], ids=["equal-rows", "non-adjacent-columns", "inner-column-alone", "tail-differs",
            "wrong-direction", "final-letter-raised", "repeated-edge"])
    def test_malformed_matrix_rejected(self, rows, message):
        words = tuple(map(Word.parse, rows))
        m = FactorMatrix(len(rows) - 1, words, tuple(range(len(rows))))
        with pytest.raises(NotChristoffelError, match=message):
            determinantal_vector_oracle(m)

    @pytest.mark.parametrize("rows", [["10", "01"], ["10", "01", "00", "00"],
                                      ["10", "1", "00"], []],
                             ids=["too-few", "too-many", "short-row", "empty"])
    def test_wrong_shape_rejected(self, rows):
        words = tuple(map(Word.parse, rows))
        with pytest.raises(DimensionMismatchError):
            determinantal_vector_oracle(FactorMatrix(2, words, tuple(range(len(rows)))))

    def test_runs_no_elimination(self, monkeypatch):
        """The oracle reads the minors off the row differences: neither the
        Bareiss routine nor a determinant runs."""
        cases = [factor_matrix(slope, n) for slope in (ORDER11, FIB, SQRT2ISH)
                 for n in range(christoffel_length(slope.cf) - 1)]
        expected = [determinantal_vector_oracle(m) for m in cases]

        def forbidden(*args):
            raise AssertionError("the oracle ran an elimination")

        monkeypatch.setattr(numeric, "_eliminate", forbidden)
        monkeypatch.setattr(numeric, "det_int", forbidden)
        assert [determinantal_vector_oracle(m) for m in cases] == expected

    def test_merge_lemma_on_random_matrices(self):
        """If rows h-1, h agree except trailing 1, 0 then the minor vectors
        merge with sign (-1)^(k-h).  Random 0/1 rows are not factor
        matrices, so the minors come from the identity-block elimination."""
        rng = random.Random(41)
        for _ in range(50):
            k = rng.randint(2, 7)
            h = rng.randint(1, k)
            base = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            shared = [rng.randint(0, 1) for _ in range(k - 1)]
            a = base[:h - 1] + [shared + [1], shared + [0]] + base[h - 1:k - 1]
            assert len(a) == k + 1
            b = [row[:-1] for i, row in enumerate(a) if i != h]
            da = determinantal_vector_by_identity_block(a)
            db = determinantal_vector_by_identity_block(b)
            merged = da[:h - 1] + (da[h - 1] + da[h],) + da[h + 1:]
            sign = 1 if (k - h) % 2 == 0 else -1
            assert merged == tuple(sign * x for x in db)


class TestClosedForm:
    def test_order11_quoted_vectors(self):
        v10 = determinantal_vector_closed(ORDER11, 10)
        assert v10.components == tuple(-x for x in (-5, 3, -5, 3, 3, -5, 3, 3, -5, 3, 3))
        assert v10.context.composition == (4, 7)
        assert v10.context.alphabet == (-5, 3)
        v8 = determinantal_vector_closed(ORDER11, 8)
        assert v8.components == (-5, 3, -2, 3, -2, 3, -5, 3, 3)
        assert v8.context.composition == (2, 2, 5)
        assert v8.context.alphabet == (-5, -2, 3)
        assert v8.context.i == 2

    def test_fibonacci_n3(self):
        v = determinantal_vector_closed(FIB, 3)
        assert v.components == (-1, 1, 0, 1)
        assert v.context.composition == (1, 1, 2)
        assert v.context.alphabet == (-1, 0, 1)

    def test_equals_oracle_on_three_slopes(self):
        slopes = {ORDER11: range(6, 11), FIB: range(2, 21),
                  SturmianSlope.from_quotients((0, 2, 2, 2, 2)): range(2, 18)}
        for slope, span in slopes.items():
            for n in span:
                closed = determinantal_vector_closed(slope, n)
                oracle = determinantal_vector_oracle(factor_matrix(slope, n))
                assert closed.components == oracle.components, (slope, n)

    def test_vectors_are_perfectly_clustering(self):
        for n in range(2, 16):
            v = determinantal_vector_closed(FIB, n)
            eps = v.context.epsilon * (1 if v.context.t % 2 == 0 else -1)
            word = Word(tuple(eps * x for x in v.components))
            assert is_perfectly_clustering(word)
            assert is_lyndon(word)

    def test_inverse_relations(self):
        """|w''| and |w'| are the inverses of q and r modulo the word length."""
        from christoffel import standard_factorization
        for slope in (ORDER11, FIB, SturmianSlope.from_quotients((0, 2, 2, 2))):
            chain = christoffel_chain(slope, 60)
            for word in chain[1:]:
                big_n = len(word)
                q, r = word.count(0), word.count(1)
                left, right = standard_factorization(word)
                assert pow(q, -1, big_n) == len(right)
                assert pow(r, -1, big_n) == len(left)

    def test_lengths_zero_and_one_equal_oracle(self):
        """Every prefix of up to four quotients in 0..3, the first may be 0."""
        for size in range(1, 5):
            for quotients in product(range(4), *[range(1, 4)] * (size - 1)):
                slope = SturmianSlope.from_quotients(quotients)
                for n in (0, 1):
                    if quotients == (0,):  # no chain word at all
                        with pytest.raises(InsufficientCFError):
                            determinantal_vector_closed(slope, n)
                        continue
                    closed = determinantal_vector_closed(slope, n)
                    oracle = determinantal_vector_oracle(factor_matrix(slope, n))
                    assert closed.components == oracle.components, (quotients, n)

    def test_negative_n_rejected(self):
        with pytest.raises(OutOfRangeError):
            determinantal_vector_closed(FIB, -1)

    @given(slope=cf_prefixes, data=st.data())
    def test_equals_oracle_on_cf_prefixes(self, slope, data):
        n = data.draw(st.integers(0, min(60, christoffel_length(slope.cf) - 1)))
        closed = determinantal_vector_closed(slope, n)
        oracle = determinantal_vector_oracle(factor_matrix(slope, n))
        assert closed.components == oracle.components

    def test_arithmetic_standard_split(self):
        """(|w'|, |w'|_1) from (r, N) equal the factors of the word itself,
        for every slope with both letters and N <= 300."""
        for big_n in range(2, 301):
            for r in range(1, big_n):
                if gcd(r, big_n) == 1:
                    slope = SlopeRatio(r, big_n - r)
                    left, _ = standard_factorization(lower_christoffel(slope))
                    assert _standard_split(slope) == (len(left), left.count(1)), slope

    def test_component_multiset_matches_context(self):
        """Each alphabet letter occurs as often as its composition part says."""
        for slope in (ORDER11, FIB):
            for n in range(6, 11):
                v = determinantal_vector_closed(slope, n)
                sign = v.context.epsilon * (1 if v.context.t % 2 == 0 else -1)
                for part, letter in zip(v.context.composition, v.context.alphabet):
                    assert v.components.count(sign * letter) == part


class TestClosedFormRoute:
    """V_n has n + 1 components: below the cutoff they are walked, from it
    on induced from the lengths."""

    @staticmethod
    def long_slope(quotients, n):
        """The prefix made of ``quotients`` repeated until it covers n."""
        q = list(quotients)
        while christoffel_length(ContinuedFraction(tuple(q))) <= n:
            q += quotients[1:]
        return SturmianSlope.from_quotients(q)

    def test_equals_oracle_across_the_cutoff(self):
        for quotients in ((0, 1), (2, 1, 2), (0, 2, 2), (1, 3, 1, 4)):
            for n in (_INDUCTION_CUTOFF - 2, _INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF, 300):
                slope = self.long_slope(quotients, n)
                closed = determinantal_vector_closed(slope, n)
                oracle = determinantal_vector_oracle(factor_matrix(slope, n))
                assert closed.components == oracle.components, (quotients, n)

    def test_long_vectors_walk_no_cycle(self, monkeypatch):
        """From n + 1 = cutoff on, neither the walk nor the image list runs."""
        cases = [(self.long_slope(q, n), n) for q in ((0, 1), (2, 1, 2), (0, 5, 1, 3))
                 for n in (_INDUCTION_CUTOFF - 1, _INDUCTION_CUTOFF + 7, 2048)]
        expected = [determinantal_vector_closed(slope, n) for slope, n in cases]

        def forbidden(*args):
            raise AssertionError("determinantal_vector_closed walked the cycle")

        monkeypatch.setattr(iet, "_walk", forbidden)
        monkeypatch.setattr(iet, "_images", forbidden)
        assert [determinantal_vector_closed(slope, n) for slope, n in cases] == expected

    def test_short_vectors_walk_once(self, monkeypatch):
        walks = []
        walk = iet._walk

        def spy(table, images):
            walks.append(len(images))
            return walk(table, images)

        monkeypatch.setattr(iet, "_walk", spy)
        ns = (0, 1, 5, 40, _INDUCTION_CUTOFF - 2)
        for n in ns:
            determinantal_vector_closed(self.long_slope((0, 1), n), n)
        assert walks == [n + 1 for n in ns]

    @pytest.mark.parametrize("quotients", [(0, 1), (0, 2, 1, 3), (3, 4, 1)])
    def test_length_100000_equals_the_walk(self, monkeypatch, quotients):
        n = 100_000
        v = determinantal_vector_closed(self.long_slope(quotients, n), n)
        sign = v.context.epsilon * (1 if v.context.t % 2 == 0 else -1)
        parts = v.context.composition
        if len(parts) == 2:  # i = 0: the empty middle interval is left out
            parts = (parts[0], 0, parts[1])
        lo, hi = v.context.alphabet[0], v.context.alphabet[-1]
        alphabet = (sign * lo, sign * (lo + hi), sign * hi)
        monkeypatch.setattr(iet, "_INDUCTION_CUTOFF", float("inf"))  # force the walk
        assert v.components == tuple(_encode_parts(parts, alphabet))
        assert len(v) == n + 1


class TestGChain:
    def test_order11_chain(self):
        steps = g_chain(ORDER11, 4)
        assert tuple(s.merge_row for s in steps[1:]) == H_SEQUENCE
        assert [s.matrix.n for s in steps] == [10, 9, 8, 7, 6]
        for step in steps:
            assert tuple(str(r) for r in step.matrix.rows) == G_CHAIN_ROWS[step.matrix.n]

    def test_first_removal_is_q(self):
        for slope, nu in ((ORDER11, 3), (FIB, 4), (FIB, 5)):
            chain = christoffel_chain(slope, 10 ** 6)
            word = chain[nu]
            steps = g_chain(slope, nu)
            assert steps[1].merge_row == word.count(0) % len(word)

    def test_merge_rows_differ_only_in_last_letter(self):
        """Rows h-1 and h of the previous matrix agree except for final 1, 0."""
        for slope in (ORDER11, FIB, SQRT2ISH):
            chain = christoffel_chain(slope, 10 ** 6)
            for nu in range(1, len(chain)):
                steps = g_chain(slope, nu)
                for previous, step in zip(steps, steps[1:]):
                    h = step.merge_row
                    top = previous.matrix.rows[h - 1].letters
                    bottom = previous.matrix.rows[h].letters
                    assert top[:-1] == bottom[:-1], (slope, nu, h)
                    assert (top[-1], bottom[-1]) == (1, 0), (slope, nu, h)

    def test_bad_nu(self):
        with pytest.raises(InsufficientCFError):
            g_chain(ORDER11, 9)

    @given(slope=cf_prefixes, data=st.data())
    def test_equals_rotation_sort(self, slope, data):
        """Each matrix by rotation sort; each merge row where two rows of the
        previous matrix stop being distinct."""
        chain = christoffel_chain(slope, 80)
        assume(len(chain) >= 2)
        nu = data.draw(st.integers(1, len(chain) - 1))
        expected = g_chain_by_rotation_sort(chain[nu], len(chain[nu - 1]))
        assert [(s.matrix, s.merge_row) for s in g_chain(slope, nu)] == expected


class TestMergeChain:
    def test_short_merge_tail(self):
        assert vector_merge_step(DeterminantalVector((-2, 1, 1, 1))).components == (-1, 1, 1)
        assert vector_merge_step(DeterminantalVector((-1, 1, 1))).components == (0, 1)
        assert vector_merge_step(DeterminantalVector((0, 1))).components == (1,)

    def test_merge_positions_via_palindromes(self):
        v10 = determinantal_vector_oracle(factor_matrix(ORDER11, 10))
        v9 = vector_merge_step(v10)
        assert v9.components == tuple(-x for x in (-5, 3, -2, 3, -5, 3, 3, -5, 3, 3))

    def test_full_descent_matches_oracle(self):
        v = determinantal_vector_oracle(factor_matrix(FIB, 20))
        for n in range(19, 1, -1):
            v = vector_merge_step(v)
            oracle = determinantal_vector_oracle(factor_matrix(FIB, n)).components
            assert v.components in (oracle, tuple(-x for x in oracle)), n

    def test_non_pc_vector_rejected(self):
        with pytest.raises(NotPerfectlyClusteringError):
            vector_merge_step(DeterminantalVector((1, 2, 3)))


class TestSpecialFactor:
    def test_fibonacci_middle_zero(self):
        assert special_factor_determinant(FIB, 3) == 0

    def test_order11_middle(self):
        assert abs(special_factor_determinant(ORDER11, 8)) == 2

    def test_two_letter_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            special_factor_determinant(ORDER11, 10)

    def test_single_right_special_factor(self):
        """In the three-letter range n < N - 1 exactly one row extends by both letters."""
        for slope in (ORDER11, FIB, SQRT2ISH):
            chain = christoffel_chain(slope, 10 ** 6)
            for n in range(1, len(chain[-1])):
                covering = next(w for w in chain if len(w) >= n + 1)
                if n >= len(covering) - 1:
                    continue
                longer = set(circular_factors(covering, n + 1))
                special = [u for u in factor_matrix(slope, n).rows
                           if u + Word((0,)) in longer and u + Word((1,)) in longer]
                assert len(special) == 1, (slope, n)

    def test_value_is_middle_letter(self):
        """|value| = | |w''|_1 - |w'|_1 | for the standard factorization w'w''."""
        for slope in (ORDER11, FIB, SQRT2ISH):
            for covering in christoffel_chain(slope, 10 ** 6)[1:]:
                left, right = standard_factorization(covering)
                middle = right.count(1) - left.count(1)
                shorter = christoffel_chain(slope, len(covering) - 1)[-1]
                for n in range(len(shorter), len(covering) - 1):
                    value = special_factor_determinant(slope, n)
                    assert abs(value) == abs(middle), (slope, n)

    def test_matches_elimination_route(self):
        """Every n of the three-letter range of the test slopes."""
        for slope in (ORDER11, FIB, SQRT2ISH):
            top = christoffel_length(slope.cf)
            for n in range(top - 1):
                if determinantal_vector_closed(slope, n).context.i == 0:
                    continue
                assert special_factor_determinant(slope, n) == \
                    special_factor_determinant_by_elimination(slope, n), (slope, n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), slope=cf_prefixes)
    def test_matches_elimination_route_on_drawn_prefixes(self, data, slope):
        top = christoffel_length(slope.cf)
        assume(top >= 3)
        n = data.draw(st.integers(0, min(40, top - 2)))
        assume(determinantal_vector_closed(slope, n).context.i >= 1)
        assert special_factor_determinant(slope, n) == \
            special_factor_determinant_by_elimination(slope, n)

    def test_negative_length_rejected(self):
        with pytest.raises(OutOfRangeError):
            special_factor_determinant(FIB, -1)

    def test_matches_vector_component(self):
        for slope, n in ((ORDER11, 7), (ORDER11, 8), (FIB, 5), (FIB, 6), (FIB, 10)):
            value = special_factor_determinant(slope, n)
            oracle = determinantal_vector_oracle(factor_matrix(slope, n))
            assert value in oracle.components

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           quotients=st.lists(st.integers(1, 4), min_size=2, max_size=14))
    def test_is_component_at_last_merge_row(self, data, quotients):
        """The component of the closed-form V_n at row h_i - 1, with h_i the
        last merge row of the covering chain word."""
        slope = SturmianSlope.from_quotients([0] + quotients)
        top = christoffel_length(slope.cf)
        assume(top >= 3)
        n = data.draw(st.integers(1, min(2000, top - 2)))
        s = _covering(slope, n)[1]
        i = s.length - 1 - n
        assume(i >= 1)
        h = merge_positions(s.length, s.zeros, i)[-1]
        assert special_factor_determinant(slope, n) == \
            determinantal_vector_closed(slope, n).components[h - 1]

    def test_encodes_no_vector(self, monkeypatch):
        """The value comes from the shape and the sign of V_n alone."""
        cases = [(slope, n) for slope in (ORDER11, FIB, SQRT2ISH)
                 for n in range(christoffel_length(slope.cf) - 1)
                 if determinantal_vector_closed(slope, n).context.i >= 1]
        expected = [special_factor_determinant(slope, n) for slope, n in cases]

        def forbidden(*args):
            raise AssertionError("special_factor_determinant built a vector or merge row")

        for name in ("_encode_parts", "determinantal_vector_closed", "merge_positions"):
            monkeypatch.setattr(sturmian, name, forbidden)
        assert [special_factor_determinant(slope, n) for slope, n in cases] == expected


def test_factor_rows_strictly_decreasing():
    for slope, n in ((ORDER11, 9), (FIB, 12)):
        m = factor_matrix(slope, n)
        assert all(a > b for a, b in zip(m.rows, m.rows[1:]))


def test_bw_rows_strictly_decreasing():
    word = christoffel_chain(ORDER11, 11)[-1]
    rows = bw_rows(word)
    assert all(a > b for a, b in zip(rows, rows[1:]))
