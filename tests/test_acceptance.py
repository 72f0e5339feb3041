"""Acceptance suite: every criterion is exact (integer/rational equality).

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the actual check.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from christoffel import (
    ContinuedFraction,
    ExactMatrix,
    SlopeRatio,
    SturmianSlope,
    build_sigma,
    christoffel_length,
    christoffel_matrix,
    det_closed,
    det_exact,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    enumerate_pc_words,
    factor_matrix,
    fib,
    g_chain,
    group_inverse,
    group_mul,
    is_circular,
    jacobi,
    lower_christoffel,
    mat_mul,
    pak_redlich_circular,
    params,
    ppp_factorization,
    restriction_word_chain,
    standard_factorization,
    to_triple,
    vector_merge_step,
    zolotareff,
)
import christoffel.numeric as numeric
from christoffel.cli import main as cli_main
from christoffel.fibonacci import fib_sign, gcd_lemma_check
from christoffel.fixtures import (
    CUBE_MATRIX_ROWS,
    FIGURE_MATRIX_ROWS,
    G_CHAIN_ROWS,
    H_SEQUENCE,
    RESTRICTION_CHAIN_POSITIONS,
    RESTRICTION_CHAIN_WORDS,
    SQUARE_MATRIX_ROWS,
    V8_RESOLVED_SIGN,
    V8_UP_TO_SIGN,
    V10_RESOLVED_SIGN,
    V10_UP_TO_SIGN,
)
from christoffel.iet import Composition
from oracles import (
    cycle_type,
    multiplication_permutation,
    pc_words_by_lyndon_filter,
    sign,
    standard_factorization_by_scan,
    zolotareff_table_by_walk,
)

ORDER11 = (2, 1, 2)
FIBONACCI = (0,) + (1,) * 9
SQRT2ISH = (0, 2, 2, 2, 2, 2)

# global signs the closed form resolves for the sign-ambiguous vectors
ORDER11_QUOTED = {
    10: ((-5, 3, -5, 3, 3, -5, 3, 3, -5, 3, 3), -1),
    9: ((-5, 3, -2, 3, -5, 3, 3, -5, 3, 3), 1),
    8: ((-5, 3, -2, 3, -2, 3, -5, 3, 3), 1),
    7: ((-5, 3, -2, 3, -2, 3, -2, 3), -1),
    6: ((-2, -2, 3, -2, 3, -2, 3), -1),
}


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@lru_cache(maxsize=None)
def oracle(quotients: tuple, n: int) -> tuple:
    slope = SturmianSlope.from_quotients(quotients)
    return determinantal_vector_oracle(factor_matrix(slope, n)).components


@lru_cache(maxsize=None)
def closed(quotients: tuple, n: int) -> tuple:
    slope = SturmianSlope.from_quotients(quotients)
    return determinantal_vector_closed(slope, n).components


def test_criterion_01_figure_matrix():
    matrix = christoffel_matrix(params(7, 0, 1, 2))
    expected = ExactMatrix.from_rows(
        [[int(ch) for ch in row] for row in FIGURE_MATRIX_ROWS])
    assert matrix.to_json() == expected.to_json()
    assert matrix.to_json() == json.dumps(
        [list(row) for row in FIGURE_MATRIX_ROWS], separators=(",", ":"))
    report(1, "figure matrix reproduction")


def test_criterion_02_group_example():
    base = params(7, 0, 1, 2)
    square = group_mul(base, base)
    cube = group_mul(square, base)
    assert (square.n, str(square.a), str(square.b), square.r) == (7, "0", "1", 4)
    assert (cube.n, str(cube.a), str(cube.b), cube.r) == (7, "1", "2", 1)
    assert ["".join(r) for r in christoffel_matrix(square).to_string_rows()] \
        == list(SQUARE_MATRIX_ROWS)
    assert ["".join(r) for r in christoffel_matrix(cube).to_string_rows()] \
        == list(CUBE_MATRIX_ROWS)
    report(2, "group square/cube example")


def _int_rows(m):
    """The stored ints of a square matrix, row by row."""
    return [m.ints[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]


def _given_entry_by_entry(m):
    """The table m again from its entries, through from_rows: equal to m,
    with no rotation step."""
    given = ExactMatrix.from_rows([m.row(i) for i in range(m.rows)], m.modulus)
    assert given == m and given._step is None
    return given


def test_criterion_03_determinant_closed_form():
    """Closed form = fraction-free elimination (the fallback of det_exact,
    called directly, so that it runs) = det_exact, over Q, of the table
    and of the same table given entry by entry."""
    count = 0
    for n in range(2, 31):
        for r in range(1, n):
            if gcd(r, n) != 1:
                continue
            for a, b in ((0, 1), (1, 2), (-1, 3)):
                p = params(n, a, b, r)
                m = christoffel_matrix(p)
                closed = det_closed(p)
                assert closed == Fraction(numeric._det_by_elimination(_int_rows(m)),
                                          m.den ** n), (n, a, b, r)
                assert closed == det_exact(m) == det_exact(_given_entry_by_entry(m)), \
                    (n, a, b, r)
                count += 1
    assert count == 831
    report(3, f"determinant closed form on {count} matrices")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 64),
       p=st.sampled_from((67, 65537, 1_000_000_007, 2 ** 61 - 1)))
def test_criterion_03_determinant_closed_form_residue_drawn(data, n, p):
    """Closed form = elimination mod p (called directly) = det_exact on
    drawn orders up to 64 over GF(p), of the table and of the same table
    given entry by entry."""
    r = data.draw(st.integers(1, n - 1).filter(lambda r: gcd(r, n) == 1))
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1).filter(lambda b: b != a))
    m = params(n, a, b, r, p)
    table = christoffel_matrix(m)
    closed = det_closed(m)
    assert closed == numeric._det_by_elimination(_int_rows(table), p), (n, a, b, r, p)
    assert closed == det_exact(table) == det_exact(_given_entry_by_entry(table)), \
        (n, a, b, r, p)


def test_criterion_04_group_inverses():
    """M M^-1 = I by mat_mul (one cyclic correlation of the two tables)
    and by the packed product, called directly so that it runs."""
    rng = random.Random(104)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 25)
        r = rng.randint(1, n - 1)
        if gcd(r, n) != 1:
            continue
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if a == b or (n - r) * a + r * b == 0:
            continue
        p = params(n, a, b, r)
        m, inverse = christoffel_matrix(p), christoffel_matrix(group_inverse(p))
        assert mat_mul(m, inverse) == ExactMatrix.identity(n)
        assert numeric._packed_product(m, inverse) == ExactMatrix.identity(n)
        checked += 1
    report(4, "group inverses on 200 random parameter sets")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 256),
       p=st.sampled_from((None, 257, 65537, 1_000_000_007, 2 ** 61 - 1)))
def test_criterion_04_group_inverses_drawn(data, n, p):
    """M M^-1 = I by mat_mul and by the packed product (called directly)
    on drawn orders up to the CLI cap, over Q and GF(p)."""
    r = data.draw(st.integers(1, n - 1).filter(lambda r: gcd(r, n) == 1))
    if p is None:
        letters = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)
        a = data.draw(letters)
        b = data.draw(letters.filter(lambda b: b != a and (n - r) * a + r * b != 0))
    else:
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1).filter(
            lambda b: b != a and ((n - r) * a + r * b) % p != 0))
    m = params(n, a, b, r, p)
    table, inverse = christoffel_matrix(m), christoffel_matrix(group_inverse(m))
    one = ExactMatrix.identity(n, p)
    assert mat_mul(table, inverse) == one, (n, a, b, r, p)
    assert numeric._packed_product(table, inverse) == one, (n, a, b, r, p)


def test_criterion_05_isomorphism():
    rng = random.Random(105)
    checked = 0
    while checked < 500:
        n = rng.randint(2, 40)
        draws = []
        for _ in range(2):
            r = rng.randint(1, n - 1)
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            draws.append((r, a, b))
        ok = all(gcd(r, n) == 1 and a != b and (n - r) * a + r * b != 0
                 for r, a, b in draws)
        if not ok:
            continue
        p1 = params(n, draws[0][1], draws[0][2], draws[0][0])
        p2 = params(n, draws[1][1], draws[1][2], draws[1][0])
        t1, t2, t = to_triple(p1), to_triple(p2), to_triple(group_mul(p1, p2))
        assert t.c == t1.c * t2.c
        assert t.d == t1.d * t2.d
        assert t.r == (t1.r * t2.r) % n
        checked += 1
    report(5, "triple isomorphism on 500 random pairs")


def test_criterion_06_zolotareff_jacobi():
    """Zolotareff's lemma: for odd n the sign of x -> r*x on Z/nZ is the
    Jacobi symbol.  Both sides are checked against the permutations' own
    cycle walks, since the closed form computes one through the other."""
    pairs = 0
    for n in range(1, 1002, 2):
        walked = zolotareff_table_by_walk(n)
        for r in range(1, n + 1):
            if gcd(r, n) == 1:
                assert zolotareff(r, n) == jacobi(r, n) == walked[r % n], (r, n)
                pairs += 1
    report(6, f"Zolotareff = Jacobi = permutation sign on {pairs} odd-modulus pairs")


def test_criterion_07_closed_form_vs_oracle():
    for n in range(6, 11):
        quoted, sign = ORDER11_QUOTED[n]
        assert closed(ORDER11, n) == oracle(ORDER11, n)
        assert closed(ORDER11, n) == tuple(sign * x for x in quoted), n
    assert ORDER11_QUOTED[10][0] == V10_UP_TO_SIGN
    assert ORDER11_QUOTED[10][1] == V10_RESOLVED_SIGN
    assert ORDER11_QUOTED[8][0] == V8_UP_TO_SIGN
    assert ORDER11_QUOTED[8][1] == V8_RESOLVED_SIGN
    for n in range(2, 34):
        assert closed(FIBONACCI, n) == oracle(FIBONACCI, n), n
    for n in range(2, 30):
        assert closed(SQRT2ISH, n) == oracle(SQRT2ISH, n), n
    report(7, "closed form = oracle on three slopes, signs included")


@settings(max_examples=20, deadline=None)
@given(quotients=st.tuples(st.integers(0, 4), st.lists(st.integers(1, 5), min_size=1,
                                                       max_size=12)),
       data=st.data())
def test_criterion_07_closed_form_vs_oracle_drawn_slopes(quotients, data):
    """Closed form = one-pass oracle on drawn continued-fraction prefixes, n <= 150."""
    quotients = (quotients[0],) + tuple(quotients[1])
    longest = christoffel_length(ContinuedFraction(quotients))
    assume(longest >= 3)
    n = data.draw(st.integers(2, min(150, longest - 1)))
    assert closed(quotients, n) == oracle(quotients, n), (quotients, n)


def test_criterion_08_golden_chain():
    steps = g_chain(SturmianSlope.from_quotients(ORDER11), 4)
    assert tuple(s.merge_row for s in steps[1:]) == H_SEQUENCE == (3, 5, 7, 1)
    for step in steps:
        assert tuple(str(r) for r in step.matrix.rows) == G_CHAIN_ROWS[step.matrix.n]
    chain = restriction_word_chain(4, 7, ("a", "b", "c"))
    assert tuple("".join(w.letters) for w, _ in chain) == RESTRICTION_CHAIN_WORDS
    assert tuple(pos for _, pos in chain[1:]) == RESTRICTION_CHAIN_POSITIONS
    report(8, "factor-matrix chain and restriction word chain")


def test_criterion_09_merge_chain():
    from christoffel import DeterminantalVector
    tops = {ORDER11: 10, FIBONACCI: 33, SQRT2ISH: 40}
    for quotients, top in tops.items():
        vector = DeterminantalVector(oracle(quotients, top))
        for n in range(top - 1, 1, -1):
            vector = vector_merge_step(vector)
            reference = oracle(quotients, n)
            negated = tuple(-x for x in reference)
            assert vector.components in (reference, negated), (quotients, n)
    report(9, "palindromic merge chain matches the oracle")


def test_criterion_10_ferenczi_zamboni():
    """Interval-exchange encodings = Lyndon words filtered by the BW last column."""
    total = 0
    for letters, max_length in ((2, 16), (3, 14)):
        for length in range(1, max_length + 1):
            words = enumerate_pc_words(length, letters)
            assert words == pc_words_by_lyndon_filter(length, letters), (letters, length)
            total += len(words)
    assert total > 0
    report(10, "perfectly clustering enumeration agrees both ways, "
               "lengths <= 16 (2 letters) and <= 14 (3 letters)")


def test_criterion_11_pak_redlich():
    cases = 0
    for total in range(1, 41):
        for c1 in range(total + 1):
            for c2 in range(total - c1 + 1):
                parts = (c1, c2, total - c1 - c2)
                direct = is_circular(build_sigma(Composition(parts)))
                assert pak_redlich_circular(*parts) == direct, parts
                cases += 1
    report(11, f"gcd criterion = direct circularity on {cases} compositions")


def test_criterion_12_continuant_factorization():
    base = ppp_factorization(ContinuedFraction((1,)))
    assert base.matrix == ((0, 1), (1, 0)) and base.m_even
    rng = random.Random(112)
    checked = 0
    while checked < 50:
        zeros = rng.randint(1, 200)
        ones = rng.randint(1, 200)
        if gcd(ones, zeros) != 1:
            continue
        slope = SlopeRatio(ones, zeros)
        word = lower_christoffel(slope)
        left, right = standard_factorization_by_scan(word)
        assert standard_factorization(word) == (left, right), slope
        counts = ppp_factorization(ContinuedFraction.from_slope(slope)).factor_counts()
        assert counts == ((left.count(1), left.count(0)),
                          (right.count(1), right.count(0))), slope
        checked += 1
    report(12, "continuant factorization = brute-force standard factorization, 50 slopes")


def test_criterion_13_fibonacci_sign():
    for m in range(3, 26):
        actual = multiplication_permutation(fib(m - 2), fib(m))
        assert fib_sign(m) == (sign(actual), cycle_type(actual)), m
    for m in range(3, 31):
        table = 1 if m % 12 in (1, 2, 3, 4, 9, 11) else -1
        assert zolotareff(fib(m - 2), fib(m)) == table, m
    for k in range(0, 9):
        a, b, c = gcd_lemma_check(k)
        assert a and b and (c is None if k == 0 else c), k
    report(13, "Fibonacci sign formula, sign table and gcd identities")


def test_criterion_14_fibonacci_values():
    for nu in range(2, 8):
        boundary = fib(nu + 3) - 1
        values = {abs(x) for x in oracle(FIBONACCI, boundary)}
        assert values == {fib(nu), fib(nu - 1)}, nu
        for n in range(fib(nu + 2), boundary):
            values = {abs(x) for x in oracle(FIBONACCI, n)}
            assert values == {fib(nu), fib(nu - 1), fib(nu - 2)}, (nu, n)
    report(14, "Fibonacci determinant value sets for nu = 2..7")


def test_criterion_15_cli_reproduction(capsys):
    code = cli_main(["reproduce", "paper-examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 fixtures passed" in out and "FAIL" not in out
    report(15, "CLI reproduce paper-examples exits 0")
