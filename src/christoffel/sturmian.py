"""Factor matrices of Sturmian slopes and their determinantal vectors.

For a slope given by a continued-fraction prefix, the semi-convergents
carry a chain of lower Christoffel words w_0 = 01, w_1, w_2, ...; the
distinct factors of length n of the corresponding Sturmian sequence are
the circular factors of the first chain word of length > n.  Stacking
the n+1 factors in decreasing order gives the (n+1) x n matrix G_n, and
the signed maximal minors (-1)^(k-i) det(G_n minus row i) form the
determinantal vector V_n.

V_n is also computable in closed form, for every n >= 0: with w = w_nu
the covering chain word, N = |w|, r = |w|_1, q = |w|_0, i = N-1-n and
w = w'w'' the standard factorization, V_n is the perfectly clustering
word of composition (|w''|-i, i, |w'|-i) over {-|w'|_1, |w''|_1-|w'|_1,
|w''|_1}, multiplied by eps*(-1)^t where eps is the sign of x -> r x on
Z/NZ and t = sum_{1<=j<=i} (N - j + d_j - (j q mod N)), d_j counting the
earlier removals below the current one.  The factorization needs no
word: |w'| = r^(-1) mod N and |w'|_1 = (|w'| r - 1)/N, and t needs only
the sum of the merge positions, which floor sums give in O(log N).  The
word itself is ``iet._encode_parts`` of the three lengths: the Rauzy
induction's Python-level steps grew like log N in every measured case
(at most 41 on random lengths below 10^7).  Successive vectors merge at
the palindromic factorization, up to a global sign.  The exact minors need
no elimination either: the row differences of G_n are the edges of a
path, and the minors follow from their order and the last row (see
``determinantal_vector``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, takewhile
from operator import ne, sub
from typing import Sequence

from ._frozen import Frozen
from .contfrac import ContinuedFraction, semiconvergents
from .errors import (
    AmbiguousSplitError,
    DimensionMismatchError,
    InsufficientCFError,
    NoPalindromicSplitError,
    NotChristoffelError,
    NotPerfectlyClusteringError,
    OutOfRangeError,
)
from .iet import _encode_parts, merge_position_sum, merge_positions
from .permsign import _cycle_sign, zolotareff
from .words import (
    SlopeRatio,
    Word,
    _christoffel_bw_prefixes,
    lower_christoffel,
    palindromic_factorization,
)


class SturmianSlope(Frozen):
    """A Sturmian slope represented by a finite continued-fraction prefix."""

    __slots__ = ("cf",)

    def __init__(self, cf: ContinuedFraction):
        object.__setattr__(self, "cf", cf)

    @classmethod
    def from_quotients(cls, quotients: Sequence[int]) -> "SturmianSlope":
        return cls(ContinuedFraction(tuple(quotients)))


def christoffel_chain(slope: SturmianSlope, max_len: int) -> list[Word]:
    """Chain words at the semi-convergents, up to the given length.

    The first word is always 01; lengths increase strictly.  A finite
    prefix yields a finite chain; operations that need longer words raise
    InsufficientCFError instead.
    """
    return [lower_christoffel(s)
            for s in takewhile(lambda s: s.length <= max_len, semiconvergents(slope.cf))]


def _covering(slope: SturmianSlope, n: int) -> tuple[int, SlopeRatio]:
    """The least chain index nu with |w_nu| >= n + 1, and its slope.

    Item (m, h) of the chain (see ``semiconvergents``) has length
    h L1 + L2, with L1 and L2 the lengths p + q of the convergents m-1
    and m-2.  So the least item of block m that covers n has
    h = max(1, ceil((n + 1 - L2) / L1)) when that is at most n_m, and nu
    is the number of items of the earlier blocks plus h - 1: one
    division per quotient.
    """
    p1, q1, p2, q2 = 1, 0, 0, 1
    nu = 0
    for a in slope.cf.quotients:
        h = max(1, -((p2 + q2 - n - 1) // (p1 + q1)))
        if h <= a:
            return nu + h - 1, SlopeRatio(h * p1 + p2, h * q1 + q2)
        nu += a
        p1, q1, p2, q2 = a * p1 + p2, a * q1 + q2, p1, q1
    # The last item, if any, is the last convergent.
    raise InsufficientCFError(
        f"chain ends at length {p1 + q1 if nu else 0}; "
        f"extend the continued fraction to cover factor length {n}")


class FactorMatrix(Frozen):
    """The n+1 factors of length n, largest row first.

    ``origin`` lists, for each row, the index of the rotation table row
    of the covering chain word whose prefix it is (the first occurrence).
    """

    __slots__ = ("n", "rows", "origin")

    def __init__(self, n: int, rows: tuple[Word, ...], origin: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "origin", origin)

    def int_rows(self) -> list[list[int]]:
        return [list(r.letters) for r in self.rows]


def _factor_matrix(s: SlopeRatio, n: int) -> FactorMatrix:
    """G_n from the chain word of slope s (length N > n).

    The rows are the length-n prefixes of the Burrows-Wheeler rows left
    after removing the rows jq mod N, 1 <= j <= N-1-n, each one slice of
    the doubled row 0.  Row x = jq mod N is kept exactly when j is 0 or
    at least N - n, so the origin is the sorted n + 1 rows jq mod N of
    those j, with no O(N) scan.
    """
    big_n, q = s.length, s.zeros
    kept = [(j * q) % big_n for j in range(max(big_n - n, 1), big_n)]
    kept.append(0)
    kept.sort()
    origin = tuple(kept)
    rows = tuple(map(Word, _christoffel_bw_prefixes(s, origin, n)))
    return FactorMatrix(n, rows, origin)


def factor_matrix(slope: SturmianSlope, n: int) -> FactorMatrix:
    """G_n for the given slope."""
    if n < 0:
        raise OutOfRangeError(f"factor length {n} must be >= 0")
    return _factor_matrix(_covering(slope, n)[1], n)


class DetContext(Frozen):
    """Provenance of a closed-form determinantal vector."""

    __slots__ = ("nu", "word_length", "i", "epsilon", "t", "composition", "alphabet")

    def __init__(self, nu: int, word_length: int, i: int, epsilon: int, t: int,
                 composition: tuple[int, ...], alphabet: tuple[int, ...]):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "word_length", word_length)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "composition", composition)
        object.__setattr__(self, "alphabet", alphabet)

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "N": self.word_length,
            "i": self.i,
            "epsilon": self.epsilon,
            "t": self.t,
            "composition": list(self.composition),
            "alphabet": list(self.alphabet),
        }


# Still a dataclass: the benchmark's self-test builds a corrupted copy of a
# vector with ``dataclasses.replace``, which accepts only dataclasses.
@dataclass(frozen=True)
class DeterminantalVector:
    """Integer vector of signed maximal minors, with optional provenance."""

    components: tuple[int, ...]
    context: DetContext | None = None

    def __len__(self):
        return len(self.components)

    def to_json_dict(self) -> dict:
        out: dict = {"components": list(self.components)}
        if self.context is not None:
            out["context"] = self.context.to_json_dict()
        return out


def determinantal_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Signed maximal minors of the factor matrix G_n, read off its row
    differences.

    Component j of V is (-1)^(n-j) det(G without row j) for the rows
    g_0..g_n of the (n+1) x n matrix G.  With the differenced matrix
    D = T G = [g_0 - g_1, ..., g_{n-1} - g_n, g_n], T upper bidiagonal
    with 1 on the diagonal and -1 above it (det T = 1), the signed
    maximal minors U of D give V = T^T U: V_0 = U_0 and
    V_j = U_j - U_{j-1}.  Consecutive rows of G_n differ by one adjacent
    exchange "10" -> "01" or a final 1 -> 0, so the n differences
    d_i = g_i - g_{i+1} are the n edges e_j - e_{j+1} (j < n - 1) and
    e_{n-1} of a path, each once, in some order pi: d_i is edge pi(i).
    U_n = det(d_0, ..., d_{n-1}) = sign(pi), since the edges in their own
    order form a unit upper bidiagonal matrix.  The kernel equation
    sum_i U_i d_i = -U_n g_n then telescopes along the path:
    U_i = -U_n (g_n[0] + ... + g_n[pi(i)]).  So no elimination runs: one
    lazy scan per row pair finds its first differing column, one cycle
    walk gives sign(pi), and one prefix sum the rest, O(n) Python-level
    steps.  A row pair that is not such an exchange, or that repeats one,
    is not part of a G_n and raises NotChristoffelError; rows of the
    wrong shape raise DimensionMismatchError.
    """
    rows = [*map(tuple, rows)]  # so that list and tuple tails compare
    k = len(rows) - 1
    if k < 0 or any(len(r) != k for r in rows):
        raise DimensionMismatchError("need a (k+1) x k matrix")
    edges: list[int] = []  # edges[i] = pi(i)
    pair_of = [-1] * k  # pair_of[j] = pi^(-1)(j)
    for i, (a, b) in enumerate(zip(rows, rows[1:])):
        j = next(compress(count(), map(ne, a, b)), k)
        if (j == k or a[j] - b[j] != 1
                or j + 1 < k and (a[j + 1] - b[j + 1] != -1 or a[j + 2:] != b[j + 2:])):
            raise NotChristoffelError(
                f"rows {i} and {i + 1} do not differ by one exchange \"10\" -> \"01\" "
                f"or a final 1 -> 0; not a factor matrix G_{k}")
        if pair_of[j] >= 0:
            raise NotChristoffelError(
                f"rows {i} and {i + 1} repeat the exchange at column {j} of rows "
                f"{pair_of[j]} and {pair_of[j] + 1}; not a factor matrix G_{k}")
        pair_of[j] = i
        edges.append(j)
    sign = _cycle_sign(edges)
    prefix = [*accumulate(rows[k])]
    u = [-sign * prefix[j] for j in edges]
    u.append(sign)
    return (u[0], *map(sub, u[1:], u))


def determinantal_vector_oracle(matrix: FactorMatrix) -> DeterminantalVector:
    """V_n as the signed maximal minors of G_n (see ``determinantal_vector``)."""
    return DeterminantalVector(determinantal_vector([r.letters for r in matrix.rows]))


def _standard_split(s: SlopeRatio) -> tuple[int, int]:
    """|w'| = r^(-1) mod N and |w'|_1 = (|w'| r - 1)/N for the standard
    factorization w = w'w'' of the lower Christoffel word of slope s."""
    len1 = pow(s.ones, -1, s.length)
    return len1, (len1 * s.ones - 1) // s.length


def _vector_shape(slope: SturmianSlope, n: int):
    """(nu, s, i, composition, alphabet) of V_n from (r, N) alone.

    nu and s are the covering chain index and slope, i = N - 1 - n, the
    composition is (|w''| - i, i, |w'| - i) and the alphabet
    (-|w'|_1, |w''|_1 - |w'|_1, |w''|_1) for w = w'w''.
    """
    if n < 0:
        raise OutOfRangeError(f"factor length {n} must be >= 0")
    nu, s = _covering(slope, n)
    big_n = s.length
    i = big_n - 1 - n
    len1, m1 = _standard_split(s)
    m2 = s.ones - m1
    return nu, s, i, (big_n - len1 - i, i, len1 - i), (-m1, m2 - m1, m2)


def _global_sign(s: SlopeRatio, i: int) -> tuple[int, int, int]:
    """(eps (-1)^t, eps, t): the global sign of V_n and its two factors,
    eps the sign of x -> r x on Z/NZ and t = sum_{1<=j<=i} (N - j - h_j)
    with h_j the merge positions."""
    big_n = s.length
    epsilon = zolotareff(s.ones, big_n)
    t = i * big_n - i * (i + 1) // 2 - merge_position_sum(big_n, s.zeros, i)
    return (epsilon if t % 2 == 0 else -epsilon), epsilon, t


def determinantal_vector_closed(slope: SturmianSlope, n: int) -> DeterminantalVector:
    """V_n in closed form, exact global sign included."""
    nu, s, i, parts, (lo, mid, hi) = _vector_shape(slope, n)
    sign, epsilon, t = _global_sign(s, i)

    components = tuple(_encode_parts(parts, (sign * lo, sign * mid, sign * hi)))

    if i == 0:
        ctx_comp: tuple[int, ...] = (parts[0], parts[2])
        ctx_alphabet: tuple[int, ...] = (lo, hi)
    else:
        ctx_comp = parts
        ctx_alphabet = (lo, mid, hi)
    context = DetContext(nu=nu, word_length=s.length, i=i, epsilon=epsilon, t=t,
                         composition=ctx_comp, alphabet=ctx_alphabet)
    return DeterminantalVector(components, context)


class GChainStep(Frozen):
    """One matrix of the factor-matrix chain; ``merge_row`` is the h of the
    arrow leading into it (None for the first matrix)."""

    __slots__ = ("matrix", "merge_row")

    def __init__(self, matrix: FactorMatrix, merge_row: int | None):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "merge_row", merge_row)


def g_chain(slope: SturmianSlope, nu: int) -> list[GChainStep]:
    """The chain G_{N-1} -> ... -> G_{L-1} within chain word nu.

    N and L are the lengths of chain words nu and nu-1.  Step i removes
    row h_i = (iq mod N) - d_i; in the previous matrix the rows h_i - 1
    and h_i agree except for final entries 1 and 0.
    """
    chain_size = sum(slope.cf.quotients)
    if not 1 <= nu < chain_size:
        raise InsufficientCFError(
            f"chain index {nu} outside [1, {chain_size - 1}]")
    previous, s = islice(semiconvergents(slope.cf), nu - 1, nu + 1)
    big_n = s.length
    merge_rows = [None] + merge_positions(big_n, s.zeros, big_n - previous.length)
    return [GChainStep(_factor_matrix(s, big_n - 1 - i), h) for i, h in enumerate(merge_rows)]


def vector_merge_step(v: DeterminantalVector) -> DeterminantalVector:
    """V_{n+1} -> V_n up to a global sign.

    The merge position is the palindromic factorization of the vector
    read as a word: the last component of the first palindrome absorbs
    the first component of the second.
    """
    comps = v.components
    try:
        first, _ = palindromic_factorization(Word(comps))
    except (NoPalindromicSplitError, AmbiguousSplitError) as exc:
        raise NotPerfectlyClusteringError(str(exc)) from exc
    h = len(first)
    merged = comps[:h - 1] + (comps[h - 1] + comps[h],) + comps[h + 1:]
    return DeterminantalVector(merged)


def special_factor_determinant(slope: SturmianSlope, n: int) -> int:
    """Determinant of the n factors of length n without the right-special one.

    Defined in the three-letter range (i >= 1).  The right-special factor
    u is the single one that extends by both letters: the last merge step
    G_{n+1} -> G_n folds the rows u1 and u0, at h_i - 1 and h_i, into row
    h_i - 1 of G_n, and the minor without that row is the component of
    V_n there.  The fold adds the components of V_{n+1} at those rows,
    the end letters -|w'|_1 and |w''|_1 up to its sign, so the last
    merge puts the middle letter |w''|_1 - |w'|_1 at row h_i - 1.  The
    value is that letter times the global sign of V_n: no vector is
    encoded and no merge row computed.
    """
    _, s, i, _, (_, mid, _) = _vector_shape(slope, n)
    if i == 0:
        raise OutOfRangeError(f"factor length {n} has a two-letter vector; no middle value")
    return _global_sign(s, i)[0] * mid
