"""Brute-force reference routes the library's closed forms are checked against.

Each function recomputes a library result by a second, independent
construction that is too slow or too indirect to run inside the library,
or checks a lemma of the paper on a matrix the library built.  A few
helpers (conjugates, circular factors, chain words, cycle forms, the
Lyndon, palindrome and primitivity tests, slope/density conversion) are
the vocabulary the tests state library results in; no library code
calls them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, takewhile
from math import gcd, isqrt
from operator import le, ne
from typing import NamedTuple

from christoffel import (
    Composition,
    ContinuedFraction,
    ExactMatrix,
    FactorMatrix,
    FieldScalar,
    Permutation,
    SlopeRatio,
    Word,
    build_sigma,
    bw_rows,
    christoffel_bw_row,
    christoffel_matrix,
    consecutive_rows_square,
    factor_matrix,
    fib,
    lower_christoffel,
    lyndon_words,
    p_matrix,
    params,
    semiconvergents,
    standard_encoding,
)
from christoffel.contfrac import mat2_mul
from christoffel.fibonacci import FibPrediction
from christoffel.errors import (
    AmbiguousSplitError,
    CharacteristicTooSmallError,
    ChristoffelError,
    InsufficientCFError,
    KindMismatchError,
    LengthOutOfRangeError,
    NonInvertibleRowSumError,
    NoPalindromicSplitError,
    NotBijectiveError,
    NotCircularError,
    NotCoprimeError,
    NotPrimitiveError,
    OrderMismatchError,
    OutOfRangeError,
    RestrictionOutOfRangeError,
)
from christoffel.iet import _encode_parts
from christoffel.words import _as_text


def is_prime_by_trial_division(p):
    """Primality by trial division up to the square root."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f <= isqrt(p):
        if p % f == 0:
            return False
        f += 2
    return True


def mat_mul_per_entry(a, b):
    """The product entry by entry, each a sum of FieldScalar products."""
    zero = FieldScalar.coerce(0, a.modulus)
    return ExactMatrix(a.rows, b.cols, [
        sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), zero)
        for i in range(a.rows) for j in range(b.cols)])


def carries_its_rotation_step(m):
    """A matrix that carries a rotation step s (``ExactMatrix._step``) is
    square, s is a unit mod n, and row i is row 0 rotated left by i s."""
    n, s = m.rows, m._step
    row = m.ints[:n]
    return m.cols == n >= 1 and gcd(s, n) == 1 and all(
        m.ints[i * n:(i + 1) * n] == tuple(row[(j + i * s) % n] for j in range(n))
        for i in range(n))


def christoffel_matrix_by_rows(p):
    """M(n, a, b, r) entry by entry from the residue rule as stated, with no
    rotation and no scatter: (i, j) is b exactly when (i + qj) mod n < r."""
    n, q, r, a, b = p.n, p.q, p.r, p.a, p.b
    return ExactMatrix.from_rows(
        [[b if (i + q * j) % n < r else a for j in range(n)] for i in range(n)], p.modulus)


def bw_rows_by_tuple_sort(w):
    """The Burrows-Wheeler rows of a primitive word: its rotations as
    letter tuples, sorted decreasingly by tuple comparison."""
    t = w.letters
    return [Word(x) for x in sorted((t[i:] + t[:i] for i in range(len(t))), reverse=True)]


def bw_matrix_by_tuple_sort(w):
    """The Burrows-Wheeler table of a primitive word from
    ``bw_rows_by_tuple_sort``, one entry per letter."""
    return ExactMatrix.from_rows([row.letters for row in bw_rows_by_tuple_sort(w)])


# --- The Christoffel group on FieldScalars -----------------------------------
# Parameters and triples as tuples of FieldScalars, every step of the group
# law one FieldScalar operation, with the checks of the library's
# constructors in their order: the reference for bwgroup's raw-int route.

class ScalarParams(NamedTuple):
    """(n, a, b, r) with FieldScalar letters a and b."""

    n: int
    a: FieldScalar
    b: FieldScalar
    r: int

    @property
    def q(self):
        return self.n - self.r

    @property
    def modulus(self):
        return self.a.modulus


def _checked_scalar_params(n, a, b, r):
    if n < 2:
        raise OutOfRangeError(f"order must be >= 2, got {n}")
    if not 1 <= r <= n - 1:
        raise OutOfRangeError(f"r={r} outside [1, {n - 1}]")
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")
    if a.modulus != b.modulus:
        raise KindMismatchError("a and b must share one scalar kind")
    if a == b:
        raise ChristoffelError("alphabet letters must differ")
    if a.modulus is not None and a.modulus <= n:
        raise CharacteristicTooSmallError(f"characteristic {a.modulus} <= {n}")
    return ScalarParams(n, a, b, r)


def params_by_scalars(n, a, b, r, modulus=None):
    """ScalarParams of numbers or FieldScalars, lifted to the given kind."""
    return _checked_scalar_params(n, FieldScalar.coerce(a, modulus),
                                  FieldScalar.coerce(b, modulus), r)


def to_triple_by_scalars(p):
    """(n, (n-r)a + rb, b - a, r)."""
    c = p.a * (p.n - p.r) + p.b * p.r
    if c.is_zero():
        raise NonInvertibleRowSumError(f"row sum of {p} is zero")
    return (p.n, c, p.b - p.a, p.r)


def from_triple_by_scalars(n, t):
    """ScalarParams of a = (c - rd)/n, b = a + d."""
    order, c, d, r = t
    if order != n:
        raise OrderMismatchError(f"triple of order {order} used at order {n}")
    if c.modulus is not None and c.modulus <= n:
        raise CharacteristicTooSmallError(f"characteristic {c.modulus} <= {n}")
    r %= n
    a = (c - d * r) / n
    return _checked_scalar_params(n, a, a + d, r)


def triple_mul_by_scalars(t1, t2):
    if t1[0] != t2[0]:
        raise OrderMismatchError(f"orders {t1[0]} and {t2[0]} differ")
    n = t1[0]
    return (n, t1[1] * t2[1], t1[2] * t2[2], t1[3] * t2[3] % n)


def triple_inverse_by_scalars(t):
    n, c, d, r = t
    return (n, c.inverse(), d.inverse(), pow(r, -1, n))


def group_mul_by_scalars(p1, p2):
    if p1.n != p2.n:
        raise OrderMismatchError(f"orders {p1.n} and {p2.n} differ")
    product = triple_mul_by_scalars(to_triple_by_scalars(p1), to_triple_by_scalars(p2))
    return from_triple_by_scalars(p1.n, product)


def group_inverse_by_scalars(p):
    return from_triple_by_scalars(p.n, triple_inverse_by_scalars(to_triple_by_scalars(p)))


def det_closed_by_scalars(p):
    """((n-r)a + rb)(b - a)^(n-1) times the sign of x -> rx mod n, walked."""
    c = p.a * (p.n - p.r) + p.b * p.r
    return c * (p.b - p.a) ** (p.n - 1) * zolotareff_by_walk(p.r, p.n)


# --- Christoffel-matrix lemmas, each checked on the built matrix ----------

def verify_consecutive_rows(p, i):
    """Rows i-1 and i of M(n, a, b, r) agree outside the columns j-1, j of
    ``consecutive_rows_square``, where they carry [[b, a], [a, b]]."""
    j = consecutive_rows_square(p, i)
    m = christoffel_matrix(p)
    prev, cur = m.row(i - 1), m.row(i)
    for col in range(p.n):
        if col in (j - 1, j):
            continue
        if prev[col] != cur[col]:
            return False
    return (prev[j - 1], prev[j]) == (p.b, p.a) and (cur[j - 1], cur[j]) == (p.a, p.b)


def column_shift_check(p):
    """First column reads b^r a^(n-r); each column is the previous one
    cyclically shifted down by r."""
    m = christoffel_matrix(p)
    n, r = p.n, p.r
    first = m.column(0)
    if any(first[i] != (p.b if i < r else p.a) for i in range(n)):
        return False
    # Entries over one denominator are equal exactly when their ints are.
    columns = [m.ints[j::n] for j in range(n)]
    return all(columns[j] == columns[j - 1][-r:] + columns[j - 1][:-r] for j in range(1, n))


def row_pair_prefix_check(p):
    """For every j in [1, n-1] and h = jq mod n, rows h-1 and h agree on
    columns 1..n-j-2 and carry b, a at column n-j-1."""
    m = christoffel_matrix(p)
    n, q = p.n, p.q
    for j in range(1, n):
        h = (j * q) % n
        prev, cur = m.row(h - 1), m.row(h)
        col = n - j - 1
        if prev[col] != p.b or cur[col] != p.a:
            return False
        if any(prev[x] != cur[x] for x in range(1, col)):
            return False
    return True


def unit_inverse_params(n, r):
    """Closed-form inverse of M(n, 0, 1, r): M(n, -Q/r, 1 - Q/r, r*), where
    r* = r^(-1) mod n and r r* = 1 + Qn."""
    r_star = pow(r, -1, n)
    q_frac = Fraction((r * r_star - 1) // n, r)
    return params(n, -q_frac, 1 - q_frac, r_star)


def cofactor_det(rows):
    """Cofactor expansion along the first row, recursively; the determinant
    oracle.  A minor is the last len(cols) rows on the columns cols, and
    each is expanded once, so an n x n matrix costs about n 2^n products
    instead of n!."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return 1
        row = rows[n - len(cols)]
        total = 0
        for t, j in enumerate(cols):
            term = row[j] * minor(cols[:t] + cols[t + 1:])
            total += -term if t % 2 else term
        return total

    return minor(tuple(range(n)))


def path_det(rows):
    """det M of the n x n integer matrix M (n >= 1) read off the path of
    its row differences, or None when they do not form one.

    Each pair g_i, g_{i+1} must differ in exactly the columns j_i and
    j_i + 1, by d_i and -d_i, and no j_i may repeat; then det M =
    sign(pi) * prod d_i * sum(g_{n-1}) with pi(i) = j_i (see the
    ``numeric`` module docstring).  The sign is ``sign``'s walk of the
    cycles of a ``Permutation``, independent of the cycle walk of
    ``numeric._rotation_det``.  The scan of a pair stops at its first
    differing column, the rest of the pair is one slice comparison, and
    the scan of the matrix stops at the first pair that does not fit.  The
    rows must be tuples, so that their tails compare by value.
    """
    n = len(rows)
    edges = []  # edges[i] = pi(i)
    used = bytearray(n)
    scale = 1
    for g, h in zip(rows, rows[1:]):
        j = next(compress(count(), map(ne, g, h)), n)
        if j >= n - 1 or used[j]:
            return None
        d = g[j] - h[j]
        if h[j + 1] - g[j + 1] != d or g[j + 2:] != h[j + 2:]:
            return None
        used[j] = 1
        edges.append(j)
        scale *= d
    return sign(Permutation(edges)) * scale * sum(rows[-1])


def determinantal_vector_by_minors(rows):
    """Signed maximal minors of a (k+1) x k matrix by cofactor expansion:
    component i is (-1)^(k-i) det(rows without row i).  Each determinant
    is expanded along its first column.  minor[mask] is the determinant
    of the rows in the bit set mask, kept in order, on the last
    popcount(mask) columns; each is expanded once for all k+1
    determinants, so the vector costs about k 2^k products."""
    k = len(rows) - 1
    full = (1 << (k + 1)) - 1
    minor = [1] * (full + 1)
    for mask in range(1, full):
        c = k - bin(mask).count("1")
        total, odd, rest = 0, False, mask
        while rest:
            bit = rest & -rest
            x = rows[bit.bit_length() - 1][c]
            if x:
                term = x * minor[mask ^ bit]
                total += -term if odd else term
            odd, rest = not odd, rest ^ bit
        minor[mask] = total
    return tuple((-1) ** (k - i) * minor[full ^ (1 << i)] for i in range(k + 1))


def determinantal_vector_by_identity_block(rows):
    """Signed maximal minors of a (k+1) x k integer matrix G from one
    Bareiss elimination of the first k columns of [G | I_{k+1}]: the last
    row then holds det[G | e_j] in identity column j, up to the sign of
    the row swaps, and det[G | e_j] = (-1)^(k-j) det(G without row j)."""
    k = len(rows) - 1
    m = [list(r) + [int(i == j) for j in range(k + 1)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for c in range(k):
        if m[c][c] == 0:
            swap = next((i for i in range(c + 1, k + 1) if m[i][c]), None)
            if swap is None:
                return (0,) * (k + 1)
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        pivot = m[c][c]
        for row in m[c + 1:]:
            f = row[c]
            row[c + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[c + 1:], m[c][c + 1:])]
        prev = pivot
    return tuple(sign * x for x in m[-1][k:])


def merge_positions_by_scan(n, step, count):
    """h_j = (j*step mod n) - d_j, each d_j counted by a scan over all
    earlier marks (O(count^2))."""
    marks = [(j * step) % n for j in range(1, count + 1)]
    return [m - sum(1 for x in marks[:j] if x < m) for j, m in enumerate(marks)]


@lru_cache(maxsize=256)
def _christoffel_bw_row(s, x):
    return christoffel_bw_row(s, x)


def factor_matrix_by_rows(s, n):
    """G_n of the chain word of slope s, each row built on its own by the
    residue rule and cut to its first n letters (rows are cached, so a
    sweep over n builds each row of a slope once)."""
    big_n = s.length
    removed = {(j * s.zeros) % big_n for j in range(1, big_n - n)}
    origin = tuple(x for x in range(big_n) if x not in removed)
    rows = tuple(_christoffel_bw_row(s, x)[:n] for x in origin)
    return FactorMatrix(n, rows, origin)


def factor_matrix_by_rotation_sort(w, n):
    """G_n of the chain word w: the distinct length-n prefixes of the
    Burrows-Wheeler rows of w, each with the first row it starts."""
    rows, origin = [], []
    for idx, row in enumerate(bw_rows(w)):
        prefix = row[:n]
        if not rows or prefix != rows[-1]:
            rows.append(prefix)
            origin.append(idx)
    return FactorMatrix(n, tuple(rows), tuple(origin))


def g_chain_by_rotation_sort(w, small):
    """(G_n, merge row) for n = |w|-1 down to small-1, each G_n by rotation
    sort.  The merge row into G_n is the row h of G_{n+1} whose length-n
    prefix equals that of row h-1."""
    steps = []
    for n in range(len(w) - 1, small - 2, -1):
        h = None
        if steps:
            prev = steps[-1][0].rows
            h = next(h for h in range(1, len(prev)) if prev[h - 1][:n] == prev[h][:n])
        steps.append((factor_matrix_by_rotation_sort(w, n), h))
    return steps


def covering_by_walk(slope, n):
    """(nu, slope) of the first chain item of length >= n + 1, by walking
    the semiconvergents one by one; InsufficientCFError with the
    library's text when the prefix does not reach it."""
    s = None
    for nu, s in enumerate(semiconvergents(slope.cf)):
        if s.length >= n + 1:
            return nu, s
    raise InsufficientCFError(
        f"chain ends at length {s.length if s else 0}; "
        f"extend the continued fraction to cover factor length {n}")


def special_factor_determinant_by_elimination(slope, n):
    """The minor of G_n without its right-special row: the row u with both
    u0 and u1 among the circular factors of length n+1 of the covering
    chain word, and the component of V_n at u from one Bareiss elimination
    of [G_n | I], not from the row differences of G_n."""
    w = next(lower_christoffel(s) for s in semiconvergents(slope.cf) if s.length > n)
    matrix = factor_matrix(slope, n)
    longer = {u.letters for u in circular_factors(w, n + 1)}
    h = next(idx for idx, u in enumerate(matrix.rows)
             if u.letters + (0,) in longer and u.letters + (1,) in longer)
    return determinantal_vector_by_identity_block(int_rows(matrix))[h]


def fib_detvec_prediction_by_index(n):
    """Shape of the Fibonacci V_n, n >= 2, from Fibonacci indices.

    nu is fixed by F_{nu+2} <= n <= F_{nu+3} - 1 and i = F_{nu+3} - 1 - n.
    For even nu the composition is (F_{nu+1}-i, i, F_{nu+2}-i) over
    {-F_nu, -F_{nu-2}, F_{nu-1}}; for odd nu it is
    (F_{nu+2}-i, i, F_{nu+1}-i) over {-F_{nu-1}, F_{nu-2}, F_nu}.  The
    absolute values are {F_nu, F_{nu-1}} at the boundary n = F_{nu+3}-1
    and {F_nu, F_{nu-1}, F_{nu-2}} inside.
    """
    if n < 2:
        raise OutOfRangeError("index formula defined for n >= 2")
    nu = 1
    while not fib(nu + 2) <= n <= fib(nu + 3) - 1:
        nu += 1
    i = fib(nu + 3) - 1 - n
    if nu % 2 == 0:
        composition = (fib(nu + 1) - i, i, fib(nu + 2) - i)
        alphabet = (-fib(nu), -fib(nu - 2), fib(nu - 1))
    else:
        composition = (fib(nu + 2) - i, i, fib(nu + 1) - i)
        alphabet = (-fib(nu - 1), fib(nu - 2), fib(nu))
    if i == 0:
        values = {fib(nu), fib(nu - 1)}
    else:
        values = {fib(nu), fib(nu - 1), fib(nu - 2)}
    return FibPrediction(n, nu, i, composition, alphabet, tuple(sorted(values)))


# --- words, chain words and cycle forms the tests state results in ---------

def reversal(w):
    return Word(reversed(w.letters))


def is_palindrome(w):
    return w.letters == w.letters[::-1]


def is_primitive(w):
    """True when w is nonempty and not a power of a shorter word, that is,
    when w occurs in ww only at the offsets 0 and |w|."""
    n = len(w)
    if n == 0:
        return False
    s = _as_text(w.letters, w.alphabet())
    return (s + s).find(s, 1) == n


def is_lyndon(w):
    """Strictly smallest among its rotations (increasing lexicographic order).

    The first step of Duval's Lyndon factorization (Duval, J. Algorithms
    1983) scans the longest prefix of w that is a prefix of a power of
    one Lyndon word, whose length j - k is the period; w is Lyndon
    exactly when that prefix is all of w and the period is n.  At most
    2n letter comparisons.
    """
    t = w.letters
    n = len(t)
    if n == 0:
        return False
    j, k = 1, 0
    while j < n and t[k] <= t[j]:
        k = 0 if t[k] < t[j] else k + 1
        j += 1
    return j - k == n


def conjugates(w):
    """The |w| rotations in rotation order, starting at w itself."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    t = w.letters
    return [Word(t[i:] + t[:i]) for i in range(len(t))]


def circular_factors(w, n):
    """Distinct length-n prefixes of the rotations, sorted decreasingly."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    if not 0 <= n <= len(w):
        raise LengthOutOfRangeError(f"factor length {n} outside [0, {len(w)}]")
    t = w.letters
    doubled = t + t
    seen = {doubled[i:i + n] for i in range(len(t))}
    return [Word(p) for p in sorted(seen, reverse=True)]


def christoffel_chain(slope, max_len):
    """Chain words at the semi-convergents, up to the given length.

    The first word is always 01; lengths increase strictly.  A finite
    prefix yields a finite chain.
    """
    return [lower_christoffel(s)
            for s in takewhile(lambda s: s.length <= max_len, semiconvergents(slope.cf))]


def int_rows(matrix):
    """The rows of a factor matrix as lists of ints."""
    return [list(r.letters) for r in matrix.rows]


def standard_cycle(p):
    """Cycle form starting at 0 of a circular exchange."""
    cycles = p.sigma.cycles()
    if len(cycles) != 1:
        raise NotCircularError(f"exchange of {p.composition.parts} is not circular")
    return cycles[0]


def cycle_encodings(p, alphabet):
    """The n encodings from the n cycle forms; a full conjugacy class."""
    letters = _encode_parts(p.composition.parts, alphabet)
    return [Word(letters[i:] + letters[:i]) for i in range(len(letters))]


def density_from_slope(s):
    """Frequency of the high letter among all letters: S = s/(1+s)."""
    if s.ones < 1 or s.zeros < 1:
        raise OutOfRangeError(f"slope {s} has no density in (0, 1)")
    return Fraction(s.ones, s.ones + s.zeros)


def slope_from_density(density):
    """Inverse map s = S/(1-S), defined for 0 < S < 1."""
    if not 0 < density < 1:
        raise OutOfRangeError(f"density {density} outside (0, 1)")
    return SlopeRatio(density.numerator, density.denominator - density.numerator)


def is_primitive_by_divisors(w):
    """Primitive: nonempty and, for no proper divisor d of |w|, the power
    of the length-d prefix; O(n * d(n)) letter comparisons."""
    n = len(w)
    t = w.letters
    return n > 0 and not any(n % d == 0 and t[:d] * (n // d) == t for d in range(1, n))


def is_lyndon_by_rotations(w):
    """Lyndon: nonempty and strictly smaller than each proper rotation,
    every rotation built; O(n^2) letters."""
    t = w.letters
    return len(t) > 0 and all(t < t[i:] + t[:i] for i in range(1, len(t)))


def pc_by_bw_table(w):
    """Perfectly clustering by the definition: the last letters of the
    Burrows-Wheeler rows, the rotations sorted decreasingly, are
    nondecreasing from top to bottom.  Each letter is written as the
    character of its rank, so the rotations sort as n slices of the
    doubled str; the table holds n^2 characters."""
    if not is_primitive_by_divisors(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    t = w.letters
    rank = {x: chr(j) for j, x in enumerate(sorted(set(t)))}
    s = "".join(rank[x] for x in t) * 2
    n = len(t)
    last = [row[-1] for row in sorted((s[i:i + n] for i in range(n)), reverse=True)]
    return all(a <= b for a, b in zip(last, last[1:]))


def palindromic_factorization_by_scan(w):
    """The unique split w = uv into two palindromes, every proper cut
    tested letter by letter in O(n^2); none or several raise the
    library's errors."""
    t = w.letters
    cuts = [cut for cut in range(1, len(t))
            if t[:cut] == t[cut - 1::-1] and t[cut:] == t[:cut - 1:-1]]
    if not cuts:
        raise NoPalindromicSplitError(f"{w} has no palindromic split")
    if len(cuts) > 1:
        raise AmbiguousSplitError(f"{w} has {len(cuts)} palindromic splits")
    return Word(t[:cuts[0]]), Word(t[cuts[0]:])


def pc_lyndon_by_bw_table(w):
    """Perfectly clustering for a Lyndon word over letters 0..255, by the
    definition of ``pc_by_bw_table``: the last letters of the rotations,
    sorted decreasingly, are nondecreasing from top to bottom.

    A Lyndon word is primitive, so no divisor test runs.  It is also
    strictly smaller than its other rotations, so it is the bottom row of
    the table and its last letter ends the last column.  That column holds
    every letter of w once per occurrence, so when it is nondecreasing it
    ends with the largest letter: a word that does not end with its
    largest letter is rejected before any sort.  Otherwise the n rotations
    sort as n slices of one doubled ``bytes`` string."""
    t = w.letters
    if t[-1] != max(t):
        return False
    n = len(t)
    s = bytes(t) * 2
    last = bytes(row[-1] for row in sorted((s[i:i + n] for i in range(n)), reverse=True))
    return all(map(le, last, last[1:]))


def pc_words_by_lyndon_filter(length, num_letters):
    """Perfectly clustering Lyndon words: Lyndon words with a nondecreasing
    Burrows-Wheeler last column."""
    return sorted(w for w in lyndon_words(length, tuple(range(num_letters)))
                  if pc_lyndon_by_bw_table(w))


def compositions(total, parts):
    """Every composition of total into parts parts, zeros allowed, in
    lexicographic order, generated recursively."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def pc_words_by_every_composition(length, k, alphabet):
    """Perfectly clustering Lyndon words: the standard encodings of every
    composition of the length into k parts (no gcd criterion) whose
    exchange is a single cycle."""
    words = []
    for parts in compositions(length, k):
        try:
            words.append(standard_encoding(build_sigma(Composition(parts)), alphabet))
        except NotCircularError:
            pass
    return sorted(words)


def is_circular_by_walk(exchange):
    """True when the cycle of 0, walked one step at a time with a counter,
    holds every point."""
    images = exchange.sigma.images
    length, x = 1, images[0]
    while x:
        length += 1
        x = images[x]
    return length == len(images)


def images_by_ranges(parts):
    """The exchange's image list, one fresh range block per interval."""
    images = []
    start = sum(parts)
    for c in parts:
        start -= c
        images += range(start, start + c)
    return images


def interval_index(composition, x):
    """0-based index j with x in I_{j+1}, by a walk over the parts."""
    acc = 0
    for j, part in enumerate(composition.parts):
        acc += part
        if x < acc:
            return j
    raise RestrictionOutOfRangeError(f"{x} outside [{composition.total}]")


def encoding_by_interval_index(exchange, alphabet):
    """The standard encoding with one interval lookup per cycle element."""
    comp = exchange.composition
    return Word(alphabet[interval_index(comp, x)] for x in standard_cycle(exchange))


def bw_christoffel_kind(w):
    """Classify w by the three-part Burrows-Wheeler characterization.

    Coprime letter counts (hence w primitive), a nondecreasing last
    column, and w as the lowermost ("lower") or uppermost ("upper") row
    of its table, whose rows are the rotations sorted decreasingly.
    """
    letters = w.alphabet()
    if len(letters) != 2:
        return "no"
    a, b = letters
    if gcd(w.count(a), w.count(b)) != 1:
        return "no"
    t = w.letters
    starts = sorted(range(len(t)), key=lambda i: t[i:] + t[:i], reverse=True)
    last = [t[i - 1] for i in starts]
    if any(last[i] > last[i + 1] for i in range(len(last) - 1)):
        return "no"
    if starts[-1] == 0:
        return "lower"
    if starts[0] == 0:
        return "upper"
    return "no"


def _matches_christoffel_slice(t, start, end, hi, r, lower):
    """Does t[start:end] equal the Christoffel word with r high letters?"""
    n = end - start
    q = n - r
    base = n - 1 if lower else 0
    for j in range(n):
        if ((base + q * j) % n < r) != (t[start + j] == hi):
            return False
    return True


def standard_factorization_by_scan(w, lower=True):
    """The split of w into two Christoffel words of the given kind.

    Scans all cut points; cuts where both sides have coprime letter
    counts are checked letter by letter against the residue rule.
    Exactly one cut must qualify (Borel-Laubie).
    """
    hi = max(w.letters)
    t = w.letters
    n = len(t)
    total_hi = t.count(hi)
    cuts = []
    left_hi = 0
    for cut in range(1, n):
        if t[cut - 1] == hi:
            left_hi += 1
        right_hi = total_hi - left_hi
        if gcd(left_hi, cut - left_hi) != 1 or gcd(right_hi, n - cut - right_hi) != 1:
            continue
        if (_matches_christoffel_slice(t, 0, cut, hi, left_hi, lower)
                and _matches_christoffel_slice(t, cut, n, hi, right_hi, lower)):
            cuts.append(cut)
    if len(cuts) != 1:
        raise ValueError(f"{w} has standard-factorization cuts {cuts}")
    return Word(t[:cuts[0]]), Word(t[cuts[0]:])


def restriction_by_cycle_deletion(gamma, rho, k):
    """Delete the elements >= k from the cycle form of the (gamma, rho)
    exchange and read the remaining cycle as a permutation of [k]."""
    survivors = [x for x in standard_cycle(build_sigma(Composition((gamma, rho))))
                 if x < k]
    images = [0] * k
    for idx, x in enumerate(survivors):
        images[x] = survivors[(idx + 1) % len(survivors)]
    return Permutation(images)


def restriction_chain_by_encodings(gamma, rho, alphabet=(0, 1, 2)):
    """The restriction chain with every word read off its own exchange: the
    standard encoding of (gamma-i, i, rho-i) for i = 0..gamma, paired with
    None and then the merge positions counted by scan."""
    n = gamma + rho
    words = [standard_encoding(build_sigma(Composition((gamma - i, i, rho - i))), alphabet)
             for i in range(gamma + 1)]
    return list(zip(words, [None] + merge_positions_by_scan(n, pow(gamma, -1, n), gamma)))


def continuant_by_recurrence(xs):
    """K(x1..xn) by K(x1..xn) = K(x1..x_{n-1}) xn + K(x1..x_{n-2}),
    from K() = 1 and K(x1..x_{-1}) = 0."""
    value, prev = 1, 0
    for x in xs:
        value, prev = value * x + prev, value
    return value


def p_product_by_fold(quotients):
    """P(n0)...P(nk) multiplied left to right, one factor at a time."""
    m = ((1, 0), (0, 1))
    for a in quotients:
        m = mat2_mul(m, p_matrix(a))
    return m


def semiconvergents_by_prefix(cf):
    """All [n0,...,n_{m-1},h] with 1 <= h <= n_m, in tree order, each the
    value of its own prefix continued fraction."""
    q = cf.quotients
    return [ContinuedFraction(q[:m] + (h,)).value()
            for m in range(len(q)) for h in range(1, q[m] + 1)]


# --- permutations: the group operations and the cycle walk ----------------

def identity_permutation(n):
    return Permutation(range(n))


def multiplication_permutation(r, n):
    """The map x -> r*x mod n, defined when gcd(r, n) = 1."""
    if n < 1:
        raise OutOfRangeError(f"order must be >= 1, got {n}")
    r %= n
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")
    return Permutation((r * x) % n for x in range(n))


def compose(p, q):
    """Composition: compose(p, q)(x) = p(q(x))."""
    if len(p) != len(q):
        raise NotBijectiveError("composition of permutations of different sizes")
    return Permutation(p.images[y] for y in q.images)


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(inv)


def power(p, k):
    """p composed with itself k times, by repeated squaring; k < 0 inverts."""
    if k < 0:
        return power(inverse(p), -k)
    result, base = identity_permutation(len(p)), p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def sign(p):
    """+1 for even permutations, -1 for odd: (-1)^(n - #cycles), the
    cycles found by walking each one."""
    return 1 if (len(p) - len(p.cycles())) % 2 == 0 else -1


def cycle_type(p):
    """Multiset of cycle lengths as a {length: multiplicity} dict."""
    ct = {}
    for cyc in p.cycles():
        ct[len(cyc)] = ct.get(len(cyc), 0) + 1
    return ct


def zolotareff_by_walk(r, n):
    """Sign of x -> r*x mod n by walking every cycle of the permutation."""
    return sign(multiplication_permutation(r, n))


def zolotareff_table_by_walk(n):
    """{r: sign of x -> r*x mod n} for every unit r in [0, n).

    Each unit the table does not yet hold is walked as a literal
    permutation; its sign then extends to the subgroup it generates
    together with the units already held, since x -> rs*x is the
    composition of x -> r*x and x -> s*x and the sign is multiplicative.
    Only a generating set is walked, at most log2(n) permutations.
    """
    signs = {1 % n: 1}
    for r in range(n):
        if r in signs or gcd(r, n) != 1:
            continue
        s = zolotareff_by_walk(r, n)
        coset, coset_sign, extension = r, s, {}
        while coset not in signs:
            for h, h_sign in signs.items():
                extension[h * coset % n] = h_sign * coset_sign
            coset, coset_sign = coset * r % n, coset_sign * s
        signs.update(extension)
    return signs


# --- the divisor-sum Zolotareff and its number theory ---------------------

@lru_cache(maxsize=None)
def factorize(n):
    """Prime factorization by trial division, as ((p, e), ...)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n):
    """Euler totient; phi(1) = 1."""
    if n < 1:
        raise OutOfRangeError(f"phi requires n >= 1, got {n}")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n):
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def multiplicative_order(a, n):
    """Least k >= 1 with a^k = 1 mod n; requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise NotCoprimeError(f"gcd({a}, {n}) != 1")
    order = euler_phi(n)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def zolotareff_by_divisor_sum(r, n):
    """Sign of x -> r*x mod n from its cycle count.

    The elements x with gcd(x, n) = n/d form orbits matching
    multiplication on the units mod d, so the cycle count is the sum over
    d | n of phi(d)/ord_d(r).
    """
    r %= n
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")
    cycles = sum(euler_phi(d) // multiplicative_order(r, d) for d in divisors(n))
    return 1 if (n - cycles) % 2 == 0 else -1
