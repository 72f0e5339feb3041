"""Brute-force reference routes the library's closed forms are checked against.

Each function recomputes a library result by a second, independent
construction that is too slow or too indirect to run inside the library.
"""

from math import gcd

from christoffel import (
    Composition,
    Permutation,
    Word,
    build_sigma,
    is_perfectly_clustering,
    lyndon_words,
)
from christoffel.iet import standard_cycle


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
