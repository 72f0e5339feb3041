"""Words over totally ordered numeric alphabets.

Letters are exact numbers (ints or Fractions) compared numerically.
Burrows-Wheeler tables sort the rotations of a primitive word in
*decreasing* lexicographic order throughout.  For Christoffel words of
slope r/q (n = q+r) one residue rule gives every row of the table: in
row i, position j carries the high letter exactly when (i + qj) mod n < r.
The lower Christoffel word is row n-1 and the upper one row 0.

Only ``_bw_starts`` sorts rotations, once per table, for ``bw_rows`` and
``bwgroup.bw_matrix``: the perfectly clustering test encodes an interval
exchange and the palindromic split is one substring search.  Only
``_christoffel_row`` applies the residue rule, for every Christoffel
row and table.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

from ._frozen import Frozen
from .errors import (
    AlphabetSizeMismatchError,
    AmbiguousSplitError,
    IndexOutOfRangeError,
    InvalidSlopeError,
    NoPalindromicSplitError,
    NotChristoffelError,
    NotCircularError,
    NotPrimitiveError,
    SizeLimitError,
)

Letter = Union[int, Fraction]

# Maps the bytes 0..9 to the ASCII digits, so a word of digit letters
# prints by one C-level translation.
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _parse_letter_list(text: str) -> tuple[Letter, ...]:
    """Comma-separated integers and fractions "p/q", one letter each."""
    return tuple(int(t) if "/" not in t else Fraction(t)
                 for t in (s.strip() for s in text.split(",")))


class SlopeRatio(Frozen):
    """A slope |w|_1 / |w|_0 in lowest terms; 0/1 and 1/0 are allowed."""

    __slots__ = ("ones", "zeros")

    def __init__(self, ones: int, zeros: int):
        if ones < 0 or zeros < 0:
            raise InvalidSlopeError(f"negative slope {ones}/{zeros}")
        if ones == 0 and zeros == 0:
            raise InvalidSlopeError("slope 0/0")
        if gcd(ones, zeros) != 1:
            raise InvalidSlopeError(f"slope {ones}/{zeros} not in lowest terms")
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "zeros", zeros)

    @property
    def length(self) -> int:
        return self.ones + self.zeros

    def __str__(self):
        return f"{self.ones}/{self.zeros}"


class Word:
    """An immutable finite word; compares lexicographically by letter value."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = tuple(letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "0001001", "acb" (a,b,c -> 0,1,2) or "-5,3,-5"."""
        text = text.strip()
        if text == "":
            return cls(())
        if text.isdigit():
            return cls(list(map(int, text)))
        if text.isalpha() and text.islower():
            a = ord("a")
            return cls([ord(ch) - a for ch in text])
        return cls(_parse_letter_list(text))

    def __len__(self):
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters) if isinstance(other, Word) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __lt__(self, other: "Word"):
        return self.letters < other.letters if isinstance(other, Word) else NotImplemented

    def __le__(self, other: "Word"):
        return self.letters <= other.letters if isinstance(other, Word) else NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def count(self, letter: Letter) -> int:
        return self.letters.count(letter)

    def alphabet(self) -> tuple[Letter, ...]:
        """Distinct letters in increasing order."""
        return tuple(sorted(set(self.letters)))

    def rotation(self, i: int) -> "Word":
        i %= max(len(self), 1)
        return Word(self.letters[i:] + self.letters[:i])

    def __str__(self):
        t = self.letters
        if t and all(map(isinstance, t, repeat(int))) and 0 <= min(t) and max(t) <= 9:
            return bytes(t).translate(_DIGIT_CHARS).decode()
        return ",".join(map(str, t))

    def __repr__(self):
        return f"Word({self})"


def bw_rows(w: Word) -> list[Word]:
    """Rows of the Burrows-Wheeler table: rotations sorted decreasingly."""
    t = w.letters
    n, doubled = len(t), t * 2
    return [Word(doubled[i:i + n]) for i in _bw_starts(w)]


def _bw_starts(w: Word) -> list[int]:
    """The starts i of the rotations w[i:] + w[:i] of the primitive word w
    in the order of its Burrows-Wheeler table, decreasing.  The rotations
    are compared as slices of the text of w doubled (``_as_text``), whose
    code points keep the order of the letters; a word that is not
    primitive raises NotPrimitiveError."""
    t = w.letters
    n = len(t)
    s = _as_text(t, w.alphabet())
    doubled = s + s
    if not n or doubled.find(s, 1) != n:
        raise NotPrimitiveError(f"word {w} is not primitive")
    keys = list(map(doubled.__getitem__, map(slice, range(n), range(n, 2 * n))))
    return sorted(range(n), key=keys.__getitem__, reverse=True)


def _as_text(t: Sequence[Letter], letters: Sequence[Letter]) -> str:
    """t as a str that writes letters[j] as chr(j), so that searching and
    slicing run at C speed; every letter of t must be among ``letters``."""
    if len(letters) > sys.maxunicode + 1:
        raise SizeLimitError(
            f"{len(letters)} distinct letters exceed the {sys.maxunicode + 1} code points")
    code = {x: chr(j) for j, x in enumerate(letters)}
    return "".join(map(code.__getitem__, t))


def is_perfectly_clustering(w: Word) -> bool:
    """Last column of the BW table is nondecreasing from top to bottom.

    By Ferenczi and Zamboni, a primitive word is perfectly clustering
    exactly when the symmetric exchange of its letter counts is one
    cycle and w is a conjugate of that exchange's standard encoding.  The
    encoding comes from the counts alone (``iet._encode_parts``), and one
    search of w in the doubled encoding decides it in O(n), with no
    rotation sort.
    """
    from .iet import _encode_parts  # iet imports this module
    t = w.letters
    n = len(t)
    counts = Counter(t)
    letters = sorted(counts)
    s = _as_text(t, letters)
    if not n or (s + s).find(s, 1) != n:
        raise NotPrimitiveError(f"word {w} is not primitive")
    try:
        encoding = _encode_parts([counts[x] for x in letters], letters)
    except NotCircularError:
        return False
    return s in _as_text(encoding, letters) * 2


def christoffel_bw_row(slope: SlopeRatio, i: int,
                       alphabet: tuple[Letter, Letter] = (0, 1)) -> Word:
    """Row i of the Burrows-Wheeler table of the Christoffel words of a slope.

    With q = |w|_0, r = |w|_1 and n = q + r, position j carries the high
    letter exactly when (i + qj) mod n < r.  Row n-1 is the lower and
    row 0 the upper Christoffel word.  An alphabet of other than two
    letters raises AlphabetSizeMismatchError.
    """
    q, r = slope.zeros, slope.ones
    n = q + r
    if not 0 <= i < n:
        raise IndexOutOfRangeError(f"row {i} outside [0, {n - 1}]")
    if len(alphabet) != 2:
        raise AlphabetSizeMismatchError(
            f"a Christoffel word has two letters; alphabet {tuple(alphabet)} has "
            f"{len(alphabet)}")
    a, b = alphabet
    return Word(_christoffel_row(n, r, pow(q, -1, n), a, b, i))


def _christoffel_row(n: int, r: int, step: int, a, b, i: int = 0) -> list:
    """Row i of the Burrows-Wheeler table of slope r/(n - r) over the
    letters a (low) and b (high), as a list; step is q^(-1) mod n.

    Position j carries b exactly when (i + qj) mod n < r, that is, when
    j = (k - i) q^(-1) mod n for one k < r: b is scattered into [a] * n at
    those r positions.
    """
    row = [a] * n
    for k in range(r):
        row[(k - i) * step % n] = b
    return row


def _christoffel_bw_prefixes(slope: SlopeRatio, rows: Iterable[int], width: int,
                             alphabet: tuple[Letter, Letter] = (0, 1)) -> list[tuple]:
    """The first ``width`` letters (width <= n) of the given rows of the
    Burrows-Wheeler table of a slope, as slices of row 0 doubled.

    Row i is row 0 rotated left by i * q^(-1) mod n, since
    i + qj = q(j + i * q^(-1)) (mod n); the rows are not range-checked.
    """
    n = slope.length
    step = pow(slope.zeros, -1, n)
    doubled = tuple(_christoffel_row(n, slope.ones, step, *alphabet) * 2)
    return [doubled[s:s + width] for s in (i * step % n for i in rows)]


def _ordered(alphabet: Sequence[Letter]) -> Sequence[Letter]:
    if not all(a < b for a, b in zip(alphabet, alphabet[1:])):
        raise InvalidSlopeError(f"alphabet {alphabet} is not strictly ordered")
    return alphabet


def lower_christoffel(slope: SlopeRatio, alphabet: tuple[Letter, Letter] = (0, 1)) -> Word:
    """Lower Christoffel word of the given slope over {a < b}."""
    return christoffel_bw_row(slope, slope.length - 1, _ordered(alphabet))


def upper_christoffel(slope: SlopeRatio, alphabet: tuple[Letter, Letter] = (0, 1)) -> Word:
    """Upper Christoffel word: reversal (and a conjugate) of the lower one."""
    return christoffel_bw_row(slope, 0, _ordered(alphabet))


def is_christoffel(w: Word) -> str:
    """Classify w as "lower", "upper" or "no".

    w is compared with the lower and upper Christoffel words of its own
    letter counts, which exist exactly when the counts are coprime.
    Words whose content is not exactly two letters yield "no".
    """
    letters = w.alphabet()
    if len(letters) != 2:
        return "no"
    a, b = letters
    ones, zeros = w.count(b), w.count(a)
    if gcd(ones, zeros) != 1:
        return "no"
    slope = SlopeRatio(ones, zeros)
    if w == lower_christoffel(slope, letters):
        return "lower"
    if w == upper_christoffel(slope, letters):
        return "upper"
    return "no"


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """The unique split of a Christoffel word into two of the same kind.

    With N = |w| and r the count of the high letter, the first factor has
    length r^(-1) mod N for a lower word and N - (r^(-1) mod N) for an
    upper one.  Single-letter sides (slopes 0/1 and 1/0) qualify.
    """
    kind = is_christoffel(w)
    if kind == "no":
        raise NotChristoffelError(f"{w} has no standard factorization")
    n = len(w)
    cut = pow(w.count(w.alphabet()[1]), -1, n)
    if kind == "upper":
        cut = n - cut
    return w[:cut], w[cut:]


def palindromic_factorization(w: Word) -> tuple[Word, Word]:
    """The unique proper split w = uv with u and v both palindromes.

    Perfectly clustering words have exactly one such split; zero or many
    splits signal a non-perfectly-clustering input.  u and v are
    palindromes exactly when the rotation vu is the reversal of w, so
    one search of the reversal in w doubled finds the first cut; the
    others follow it at multiples of the least period of w's rotations.
    """
    t = w.letters
    n = len(t)
    s = _as_text(t, w.alphabet())
    doubled = s + s
    cut = doubled.find(s[::-1], 1)
    if not 0 < cut < n:
        raise NoPalindromicSplitError(f"{w} has no palindromic split")
    splits = (n - 1 - cut) // doubled.find(s, 1) + 1
    if splits > 1:
        raise AmbiguousSplitError(f"{w} has {splits} palindromic splits")
    return Word(t[:cut]), Word(t[cut:])


def lyndon_words(length: int, alphabet: Sequence[Letter]) -> Iterator[Word]:
    """All Lyndon words of exactly the given length (Duval's algorithm)."""
    k = len(alphabet)
    if length < 1 or k < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == length:
            yield Word([alphabet[i] for i in w])
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()
