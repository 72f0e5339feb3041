"""Fibonacci specialization of the determinantal-vector machinery.

The chain of lower Christoffel words for the slope [0;1,1,1,...] obeys
w_nu = w_{nu-1} w_{nu-2} for even nu and w_nu = w_{nu-2} w_{nu-1} for
odd nu, seeded so that w_0 = 01; then |w_nu| = F_{nu+3},
|w_nu|_0 = F_{nu+2} and |w_nu|_1 = F_{nu+1}.  The determinantal vectors
take Fibonacci values, and the global sign reduces to the parity of the
permutation x -> F_{m-2} x of Z / F_m Z, whose cycle type has a closed
form by residue class of m.
"""

from __future__ import annotations

from math import gcd

from ._frozen import Frozen
from .errors import IndexTooSmallError, OutOfRangeError


def _fib_pair(m: int) -> tuple[int, int]:
    """(F_{m-1}, F_m) for m >= 0, from one walk of the recurrence."""
    a, b = 1, 0  # F_{-1}, F_0
    for _ in range(m):
        a, b = b, a + b
    return a, b


def fib(m: int) -> int:
    """Fibonacci number with F_1 = F_2 = 1; F_0 = 0 and F_{-1} = 1 admitted."""
    if m < -1:
        raise OutOfRangeError(f"F_{m} not supported")
    if m == -1:
        return 1
    return _fib_pair(m)[1]


def lucas(m: int) -> int:
    """Lucas number L_m = 2 F_{m-1} + F_m, so L_0 = 2 and L_1 = 1."""
    if m < 0:
        raise OutOfRangeError(f"L_{m} not supported")
    a, b = _fib_pair(m)
    return 2 * a + b


def fib_word_chain(count: int) -> list[Word]:
    """First ``count`` chain words 01, 001, 00101, 00100101, ...

    Concatenation order alternates with the parity of the index; the
    seeds are the single letters 1 and 0, which makes every chain word a
    lower Christoffel word of the Fibonacci slope.
    """
    from .words import Word
    if count < 1:
        raise OutOfRangeError("count must be >= 1")
    prev2, prev1 = Word((1,)), Word((0,))
    out = []
    for nu in range(count):
        w = prev1 + prev2 if nu % 2 == 0 else prev2 + prev1
        out.append(w)
        prev2, prev1 = prev1, w
    return out


class FibPrediction(Frozen):
    """Composition, alphabet and occurring absolute values of a Fibonacci V_n."""

    __slots__ = ("n", "nu", "i", "composition", "alphabet", "values")

    def __init__(self, n: int, nu: int, i: int, composition: tuple[int, int, int],
                 alphabet: tuple[int, int, int], values: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "composition", composition)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "values", values)


def _covering_slope(n: int) -> SturmianSlope:
    """The Fibonacci slope [0; 1, 1, ...] with enough quotients for the
    chain to cover factor length n: F_{2m+2} >= 2^m, so 2 * bit_length(n)
    + 4 chain words do."""
    from .sturmian import SturmianSlope
    return SturmianSlope.from_quotients((0,) + (1,) * (2 * n.bit_length() + 4))


def fib_detvec_prediction(n: int) -> FibPrediction:
    """Shape of the n-th Fibonacci determinantal vector, for every n >= 0.

    The generic closed form read on the Fibonacci slope: nu is the least
    chain index with F_{nu+3} > n and i = F_{nu+3} - 1 - n.  The values
    are the distinct absolute values of the letters that occur.
    """
    from .sturmian import _vector_shape
    nu, _, i, composition, alphabet = _vector_shape(_covering_slope(n), n)
    values = tuple(sorted({abs(x) for x, part in zip(alphabet, composition) if part}))
    return FibPrediction(n, nu, i, composition, alphabet, values)


_SIGN_PLUS = frozenset({1, 2, 3, 4, 9, 11})


def fib_sign(m: int) -> tuple[int, dict[int, int]]:
    """Sign and cycle type of multiplication by F_{m-2} on Z / F_m Z.

    Closed form: for m = 0 mod 4 the type is 1^(L_{m/2}) 2^rest, for
    m = 2 mod 4 it is 1^(F_{m/2}) 2^rest, for m = 1, 5 mod 6 it is
    1^1 4^((F_m-1)/4), for m = 3 mod 6 it is 1^2 4^((F_m-2)/4); the sign
    is +1 exactly when m mod 12 is one of 1, 2, 3, 4, 9, 11.
    """
    if m < 3:
        raise IndexTooSmallError("defined for m >= 3")
    f_m = fib(m)
    if m % 4 == 0:
        fixed = lucas(m // 2)
        cycle_type = {1: fixed, 2: (f_m - fixed) // 2}
    elif m % 2 == 0:
        fixed = fib(m // 2)
        cycle_type = {1: fixed, 2: (f_m - fixed) // 2}
    elif m % 6 == 3:
        cycle_type = {1: 2, 4: (f_m - 2) // 4}
    else:
        cycle_type = {1: 1, 4: (f_m - 1) // 4}
    cycle_type = {length: mult for length, mult in cycle_type.items() if mult}
    sign = 1 if m % 12 in _SIGN_PLUS else -1
    return sign, cycle_type


def gcd_lemma_check(k: int) -> tuple[bool, bool, bool | None]:
    """The three gcd identities used by the sign computation.

    gcd(F_{6k+1}-1, F_{6k+3}) = 2 and gcd(F_{6k+3}-1, F_{6k+5}) = 1 for
    k >= 0; gcd(F_{6k-1}-1, F_{6k+1}) = 1 for k >= 1 (None below that).
    """
    if k < 0:
        raise OutOfRangeError("k must be >= 0")
    # F_{6k-1+j} for j = 0..6: one walk, then one addition each.
    f = [*_fib_pair(6 * k)]
    for _ in range(5):
        f.append(f[-2] + f[-1])
    f_minus1, _, f1, _, f3, _, f5 = f
    a = gcd(f1 - 1, f3) == 2
    b = gcd(f3 - 1, f5) == 1
    c = gcd(f_minus1 - 1, f1) == 1 if k >= 1 else None
    return a, b, c
