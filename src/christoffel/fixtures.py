"""Golden reproduction fixtures and their runner.

Each fixture re-derives a golden table or vector from scratch and
compares it against the frozen value stored here.  The runner backs the
``reproduce paper-examples`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from ._frozen import Frozen
from .bwgroup import christoffel_matrix, group_mul, params, to_triple
from .iet import restriction_word_chain
from .numeric import ExactMatrix
from .sturmian import (
    SturmianSlope,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    factor_matrix,
    g_chain,
)

# Burrows-Wheeler table of the order-7 Christoffel word with slope 2/5.
FIGURE_MATRIX_ROWS = (
    "1001000",
    "1000100",
    "0100100",
    "0100010",
    "0010010",
    "0010001",
    "0001001",
)

# Square and cube of that matrix: M(7,0,1,4) and M(7,1,2,1).  The cube
# is the all-ones matrix plus the identity; a two-letter table over {1,2}
# cannot contain any other value.
SQUARE_MATRIX_ROWS = (
    "1101010",
    "1011010",
    "1010110",
    "1010101",
    "0110101",
    "0101101",
    "0101011",
)
CUBE_MATRIX_ROWS = tuple(
    "".join("2" if i == j else "1" for j in range(7)) for i in range(7)
)

# Factor-matrix chain of the slope-8/3 word 01101110111 (length 11).
ORDER11_SLOPE_CF = (2, 1, 2)
ORDER11_NU = 4
H_SEQUENCE = (3, 5, 7, 1)
G_CHAIN_ROWS = {
    10: ("1110111011", "1110110111", "1101110111", "1101110110", "1101101110",
         "1011101110", "1011101101", "1011011101", "0111011101", "0111011011",
         "0110111011"),
    9: ("111011101", "111011011", "110111011", "110110111", "101110111",
        "101110110", "101101110", "011101110", "011101101", "011011101"),
    8: ("11101110", "11101101", "11011101", "11011011", "10111011",
        "10110111", "01110111", "01110110", "01101110"),
    7: ("1110111", "1110110", "1101110", "1101101", "1011101", "1011011",
        "0111011", "0110111"),
    6: ("111011", "110111", "110110", "101110", "101101", "011101", "011011"),
}

# Word chain of the cyclic restrictions of the (4,7) two-interval exchange.
RESTRICTION_CHAIN_WORDS = ("acaccaccacc", "acbcaccacc", "acbcbcacc",
                           "acbcbcbc", "bbcbcbc")
RESTRICTION_CHAIN_POSITIONS = (3, 5, 7, 1)

# Determinantal vectors of the slope-8/3 sequence, quoted up to a
# global sign; the exact resolved signs are pinned as regression values.
V10_UP_TO_SIGN = (-5, 3, -5, 3, 3, -5, 3, 3, -5, 3, 3)
V10_RESOLVED_SIGN = -1
V8_UP_TO_SIGN = (-5, 3, -2, 3, -2, 3, -5, 3, 3)
V8_RESOLVED_SIGN = 1


class FixtureResult(Frozen):
    __slots__ = ("fixture", "passed", "detail")

    def __init__(self, fixture: str, passed: bool, detail: str):
        object.__setattr__(self, "fixture", fixture)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


def _matrix_fixture(matrix: ExactMatrix, expected_rows: tuple[str, ...]) -> bool:
    got = ["".join(row) for row in matrix.to_string_rows()]
    return got == list(expected_rows)


def _check_figure_matrix() -> FixtureResult:
    m = christoffel_matrix(params(7, 0, 1, 2))
    expected = ExactMatrix.from_rows([[int(ch) for ch in row]
                                      for row in FIGURE_MATRIX_ROWS])
    ok = _matrix_fixture(m, FIGURE_MATRIX_ROWS) and m.to_json() == expected.to_json()
    return FixtureResult("bw-matrix-order7", ok, "table of the slope-2/5 word")


def _check_group_example() -> FixtureResult:
    base = params(7, 0, 1, 2)
    square = group_mul(base, base)
    cube = group_mul(square, base)
    ok = (
        to_triple(square) == to_triple(params(7, 0, 1, 4))
        and to_triple(cube) == to_triple(params(7, 1, 2, 1))
        and _matrix_fixture(christoffel_matrix(square), SQUARE_MATRIX_ROWS)
        and _matrix_fixture(christoffel_matrix(cube), CUBE_MATRIX_ROWS)
    )
    return FixtureResult("group-square-cube", ok,
                         "square M(7,0,1,4) and cube M(7,1,2,1) of M(7,0,1,2)")


def _check_g_chain() -> FixtureResult:
    slope = SturmianSlope.from_quotients(ORDER11_SLOPE_CF)
    steps = g_chain(slope, ORDER11_NU)
    ok = tuple(s.merge_row for s in steps[1:]) == H_SEQUENCE
    for step in steps:
        expected = G_CHAIN_ROWS[step.matrix.n]
        ok = ok and tuple(str(r) for r in step.matrix.rows) == expected
    return FixtureResult("g-chain-order11", ok,
                         "factor-matrix chain G_10 ... G_6 with h = 3,5,7,1")


def _check_restriction_chain() -> FixtureResult:
    chain = restriction_word_chain(4, 7, ("a", "b", "c"))
    words = tuple("".join(w.letters) for w, _ in chain)
    positions = tuple(pos for _, pos in chain[1:])
    ok = (words == RESTRICTION_CHAIN_WORDS
          and positions == RESTRICTION_CHAIN_POSITIONS)
    return FixtureResult("restriction-chain-4-7", ok,
                         "two-interval (4,7) restriction encodings")


def _check_detvec(n: int, quoted: tuple[int, ...], sign: int, name: str) -> FixtureResult:
    slope = SturmianSlope.from_quotients(ORDER11_SLOPE_CF)
    closed = determinantal_vector_closed(slope, n)
    oracle = determinantal_vector_oracle(factor_matrix(slope, n))
    expected = tuple(sign * x for x in quoted)
    ok = closed.components == oracle.components == expected
    return FixtureResult(name, ok, f"V_{n} closed form == exact minors")


def run_all() -> list[FixtureResult]:
    return [
        _check_figure_matrix(),
        _check_group_example(),
        _check_g_chain(),
        _check_restriction_chain(),
        _check_detvec(10, V10_UP_TO_SIGN, V10_RESOLVED_SIGN, "detvec-order11-n10"),
        _check_detvec(8, V8_UP_TO_SIGN, V8_RESOLVED_SIGN, "detvec-order11-n8"),
    ]
