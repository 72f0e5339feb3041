"""Words over totally ordered numeric alphabets.

Letters are exact numbers (ints or Fractions) compared numerically.
Christoffel words of slope r/q over {a < b} are generated by the residue
rule: position j of the lower word carries the high letter exactly when
(n-1+qj) mod n < r, with n = q+r; the upper word uses (qj) mod n < r.
Burrows-Wheeler tables sort the rotations of a primitive word in
*decreasing* lexicographic order throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    AmbiguousSplitError,
    InvalidSlopeError,
    LengthOutOfRangeError,
    NoPalindromicSplitError,
    NotChristoffelError,
    NotPrimitiveError,
)

Letter = Union[int, Fraction]


@dataclass(frozen=True)
class SlopeRatio:
    """A slope |w|_1 / |w|_0 in lowest terms; 0/1 and 1/0 are allowed."""

    ones: int
    zeros: int

    def __post_init__(self):
        if self.ones < 0 or self.zeros < 0:
            raise InvalidSlopeError(f"negative slope {self.ones}/{self.zeros}")
        if self.ones == 0 and self.zeros == 0:
            raise InvalidSlopeError("slope 0/0")
        if gcd(self.ones, self.zeros) != 1:
            raise InvalidSlopeError(
                f"slope {self.ones}/{self.zeros} not in lowest terms")

    @property
    def length(self) -> int:
        return self.ones + self.zeros

    def as_fraction(self) -> Fraction:
        if self.zeros == 0:
            raise InvalidSlopeError("slope 1/0 has no finite value")
        return Fraction(self.ones, self.zeros)

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
        if "," in text:
            return cls(int(t) if "/" not in t else Fraction(t)
                       for t in (s.strip() for s in text.split(",")))
        if text.isdigit():
            return cls(int(ch) for ch in text)
        if text.isalpha() and text.islower():
            return cls(ord(ch) - ord("a") for ch in text)
        return cls((int(text) if "/" not in text else Fraction(text),))

    def __len__(self):
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __lt__(self, other: "Word"):
        return self.letters < other.letters

    def __le__(self, other: "Word"):
        return self.letters <= other.letters

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
        if self.letters and all(isinstance(x, int) and 0 <= x <= 9
                                for x in self.letters):
            return "".join(str(x) for x in self.letters)
        return ",".join(str(x) for x in self.letters)

    def __repr__(self):
        return f"Word({self})"


def reversal(w: Word) -> Word:
    return Word(reversed(w.letters))


def is_palindrome(w: Word) -> bool:
    return w.letters == w.letters[::-1]


def is_primitive(w: Word) -> bool:
    """True when w is nonempty and not a power of a shorter word."""
    n = len(w)
    if n == 0:
        return False
    t = w.letters
    for d in range(1, n):
        if n % d == 0 and t[:d] * (n // d) == t:
            return False
    return True


def is_lyndon(w: Word) -> bool:
    """Strictly smallest among its rotations (increasing lexicographic order)."""
    n = len(w)
    if n == 0:
        return False
    t = w.letters
    return all(t < t[i:] + t[:i] for i in range(1, n))


def conjugates(w: Word) -> list[Word]:
    """The |w| rotations in rotation order, starting at w itself."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    t = w.letters
    return [Word(t[i:] + t[:i]) for i in range(len(t))]


def _sorted_rotation_starts(t: tuple) -> list[int]:
    """Rotation start indices ordered by decreasing rotation."""
    n = len(t)
    return sorted(range(n), key=lambda i: t[i:] + t[:i], reverse=True)


def bw_rows(w: Word) -> list[Word]:
    """Rows of the Burrows-Wheeler table: rotations sorted decreasingly."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    t = w.letters
    return [Word(t[i:] + t[:i]) for i in _sorted_rotation_starts(t)]


def is_perfectly_clustering(w: Word) -> bool:
    """Last column of the BW table is nondecreasing from top to bottom."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    t = w.letters
    last = [t[i - 1] for i in _sorted_rotation_starts(t)]
    return all(last[i] <= last[i + 1] for i in range(len(last) - 1))


def circular_factors(w: Word, n: int) -> list[Word]:
    """Distinct length-n prefixes of the rotations, sorted decreasingly."""
    if not is_primitive(w):
        raise NotPrimitiveError(f"word {w} is not primitive")
    if not 0 <= n <= len(w):
        raise LengthOutOfRangeError(f"factor length {n} outside [0, {len(w)}]")
    t = w.letters
    doubled = t + t
    seen = {doubled[i:i + n] for i in range(len(t))}
    return [Word(p) for p in sorted(seen, reverse=True)]


def _christoffel_letter_is_high(j: int, q: int, r: int, lower: bool) -> bool:
    n = q + r
    base = n - 1 if lower else 0
    return (base + q * j) % n < r


def lower_christoffel(slope: SlopeRatio, alphabet: tuple[Letter, Letter] = (0, 1)) -> Word:
    """Lower Christoffel word of the given slope over {a < b}."""
    a, b = alphabet
    if not a < b:
        raise InvalidSlopeError(f"alphabet {alphabet} is not strictly ordered")
    q, r = slope.zeros, slope.ones
    return Word(b if _christoffel_letter_is_high(j, q, r, lower=True) else a
                for j in range(q + r))


def upper_christoffel(slope: SlopeRatio, alphabet: tuple[Letter, Letter] = (0, 1)) -> Word:
    """Upper Christoffel word: reversal (and a conjugate) of the lower one."""
    a, b = alphabet
    if not a < b:
        raise InvalidSlopeError(f"alphabet {alphabet} is not strictly ordered")
    q, r = slope.zeros, slope.ones
    return Word(b if _christoffel_letter_is_high(j, q, r, lower=False) else a
                for j in range(q + r))


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
    splits signal a non-perfectly-clustering input.
    """
    t = w.letters
    n = len(t)
    cuts = [cut for cut in range(1, n)
            if t[:cut] == t[cut - 1::-1] and t[cut:] == t[:cut - 1:-1]]
    if not cuts:
        raise NoPalindromicSplitError(f"{w} has no palindromic split")
    if len(cuts) > 1:
        raise AmbiguousSplitError(f"{w} has {len(cuts)} palindromic splits")
    cut = cuts[0]
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
            yield Word(alphabet[i] for i in w)
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()
