"""Brute-force reference routes the library's closed forms are checked against.

Each function recomputes a library result by a second, independent
construction that is too slow or too indirect to run inside the library.
"""

from math import gcd, isqrt

from christoffel import (
    Composition,
    ExactMatrix,
    FactorMatrix,
    FieldScalar,
    Permutation,
    Word,
    build_sigma,
    bw_rows,
    is_perfectly_clustering,
    lyndon_words,
)
from christoffel.iet import standard_cycle


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


def cofactor_det(rows):
    """Naive cofactor expansion along the first row; the determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def determinantal_vector_by_minors(rows):
    """Signed maximal minors of a (k+1) x k matrix, one cofactor expansion
    per removed row: component i is (-1)^(k-i) det(rows without row i)."""
    k = len(rows) - 1
    return tuple((-1) ** (k - i) * cofactor_det([r for j, r in enumerate(rows) if j != i])
                 for i in range(k + 1))


def merge_positions_by_scan(n, step, count):
    """h_j = (j*step mod n) - d_j, each d_j counted by a scan over all
    earlier marks (O(count^2))."""
    marks = [(j * step) % n for j in range(1, count + 1)]
    return [m - sum(1 for x in marks[:j] if x < m) for j, m in enumerate(marks)]


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


def pc_words_by_lyndon_filter(length, num_letters):
    """Perfectly clustering Lyndon words: Lyndon words with a nondecreasing
    Burrows-Wheeler last column."""
    return sorted(w for w in lyndon_words(length, tuple(range(num_letters)))
                  if is_perfectly_clustering(w))


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
