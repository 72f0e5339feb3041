"""Symmetric discrete interval exchanges and their word encodings.

A composition (c1,...,cl) of n cuts [n] = {0,...,n-1} into consecutive
intervals I_1,...,I_l with |I_j| = c_j and, reading the sizes backwards,
into J_1,...,J_l with |J_h| = c_{l+1-h}.  The exchange sigma maps each
I_h increasingly onto J_{l+1-h}.  When sigma is a single cycle, reading
off the cycle form that starts at 0 and replacing each element of I_j by
the j-th alphabet letter yields the standard encoding, a perfectly
clustering Lyndon word; conversely every such word arises this way.

An exchange is its composition: the constructor of ``IetPermutation``
checks that sigma is the exchange of the parts and keeps the parts alone,
so ``build_sigma`` is O(1), sigma is built only when it is read, and the
encoders and ``is_circular`` work from the parts.  ``_images`` is the one
producer of image lists: it concatenates slices of one shared tuple of
naturals, so an exchange creates no int objects.  ``_encode_parts`` is
the one encoder of a composition, for ``standard_encoding``, the
closed-form vectors, the perfectly clustering test and the first word
of a restriction chain: below ``_INDUCTION_CUTOFF`` letters it walks the
cycle of 0 once (``_walk``), from it on it runs right Rauzy induction
with Zorich's acceleration on the lengths (``_rauzy``).  ``is_circular``
runs the same induction on return-word lengths from the cutoff on.  ``enumerate_pc_words`` reads
each word of two or three letters off the rotation whose first return
is its exchange, with a constant number of bytes operations per word;
``restriction_word_chain`` says how it reuses the encoder.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Sequence

from ._frozen import Frozen
from .errors import (
    AlphabetSizeMismatchError,
    DimensionMismatchError,
    EmptyCompositionError,
    LengthOutOfRangeError,
    MergeMismatchError,
    NotCircularError,
    NotCoprimeError,
    NotExchangeError,
    OutOfRangeError,
    RestrictionOutOfRangeError,
    SizeLimitError,
)
from .permsign import Permutation
from .words import Letter, Word, _ordered


class Composition(Frozen):
    """An l-tuple of nonnegative parts with positive sum; zeros allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        # Ints only (bools are ints, as for Permutation), tested first so
        # that min never compares a string and sum never adds a float.
        if not (parts and all(map(isinstance, parts, repeat(int)))
                and min(parts) >= 0 and sum(parts) >= 1):
            raise EmptyCompositionError(f"invalid composition {list(parts)}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)


class IetPermutation(Frozen):
    """A symmetric discrete interval exchange, stored as its composition.

    The composition is the authority: the constructor checks that
    ``sigma`` is the exchange of its parts (``_images``), or raises
    DimensionMismatchError for a size that differs and NotExchangeError
    for any other permutation, and then keeps the composition alone.
    ``sigma`` is built from the parts each time it is read and is not
    cached, so the class holds one form of the exchange.  Equality and
    hash compare the composition alone, with no sigma built; repr and
    pickling follow (sigma, composition).
    """

    __slots__ = ("composition",)
    _field_names = ("sigma", "composition")

    def __init__(self, sigma: Permutation, composition: Composition):
        if len(sigma) != composition.total:
            raise DimensionMismatchError(
                f"permutation of [{len(sigma)}] for a composition of {composition.total}")
        if sigma.images != tuple(_images(composition.parts)):
            raise NotExchangeError(
                f"permutation of [{len(sigma)}] is not the exchange of {composition.parts}")
        object.__setattr__(self, "composition", composition)

    @property
    def sigma(self) -> Permutation:
        return Permutation._trusted(tuple(_images(self.composition.parts)))


def build_sigma(composition: Composition) -> IetPermutation:
    """The exchange permutation: I_h maps increasingly onto J_{l+1-h}.

    J_{l+1-h} holds c_h elements and follows the c_{h+1} + ... + c_l
    elements of the intervals after I_h.  The exchange of the parts by
    construction, it skips the constructor's comparison and holds only the
    composition, in O(1); its ``sigma`` is built when it is read.
    """
    p = IetPermutation.__new__(IetPermutation)
    object.__setattr__(p, "composition", composition)
    return p


# ``_images`` slices its blocks out of one shared tuple of the naturals, so
# an exchange of N points creates no int objects.  The tuple grows to the
# largest total asked for, up to this cap: 2**17 ints of 32 bytes each
# plus 8 bytes per tuple slot, 5 MiB held for the life of the process,
# which covers the CLI's 100,000-point cap.  Larger totals take fresh ints.
# Every length of the tuple is a valid prefix of the naturals and each call
# slices the tuple it read, so two calls that grow it at once need no lock.
_NATURALS_CAP = 1 << 17
_naturals: tuple[int, ...] = ()


def _images(parts: Sequence[int]) -> list[int]:
    """Image list of the exchange of these parts, one block of naturals per
    interval; a bijection of [n] by construction.  The blocks are slices
    of ``_naturals`` up to ``_NATURALS_CAP`` points, of a range above it."""
    global _naturals
    start = sum(parts)
    naturals: Sequence[int] = _naturals
    if start > len(naturals):
        if start > _NATURALS_CAP:
            naturals = range(start)
        else:
            naturals = _naturals = _naturals + tuple(range(len(_naturals), start))
    images: list[int] = []
    for c in parts:
        start -= c
        images += naturals[start:start + c]
    return images


def _walk(table: Sequence, images: Sequence[int]) -> list:
    """table[x] for x along the cycle of 0; shorter than the images when
    the exchange is not a single cycle."""
    out = [table[0]]
    x = images[0]
    while x:
        out.append(table[x])
        x = images[x]
    return out


# Below this total the walk is faster, from it on the induction.  On the
# compositions of ``determinantal_vector_closed`` (2 vCPUs, CPython 3.11,
# min of 21 interleaved passes over 40 seeded slopes per length) the two
# routes tie at about 210-240 letters; the induction is 1.1x faster at
# 264, 1.3x at 324, 1.6x at 513 and 2.7x at 2,049.  ``is_circular`` uses
# the same cutoff.  There the walk pays for its own image list, and on
# random 3-part compositions (``build_sigma`` then ``is_circular``, min of
# 21 interleaved passes over 200 of each size, 2 vCPUs, CPython 3.11) the
# two routes cross at about 370 points: walk 6.2-6.4 us against 7.7 us
# for the induction on lengths at 256 points, 7.0 against 7.8-7.9 at
# 300, 7.8 against 8.4 at 350, 9.2 against 8.4-8.5 at 400 and 13.7-14.0
# against 8.9-9.2 at 646.  A separate cutoff would save at most 1.5 us,
# on 256-370 points only, so the cutoff stays shared.
_INDUCTION_CUTOFF = 256


def _encode_parts(parts: Sequence[int], alphabet: Sequence[Letter]) -> list:
    """The standard encoding of the exchange of these parts, a list of the
    alphabet's letters.  Below ``_INDUCTION_CUTOFF`` letters it walks the
    cycle of 0 through a table that holds letter j at every element of
    I_j; from it on ``_rauzy`` induces it from the lengths, with no image
    list.  A cycle shorter than the total raises NotCircularError."""
    if len(alphabet) != len(parts):
        raise AlphabetSizeMismatchError(f"{len(alphabet)} letters for {len(parts)} parts")
    n = sum(parts)
    if n < _INDUCTION_CUTOFF:
        table: list = []
        for letter, c in zip(alphabet, parts):
            table += [letter] * c
        out = _walk(table, _images(parts))
    else:
        out = _rauzy(parts, [[x] for x, c in zip(alphabet, parts) if c])
    if len(out) != n:
        raise NotCircularError(f"exchange of {tuple(parts)} is not circular")
    return out


def _rauzy(parts: Sequence[int], words: list):
    """The return word of 0, by right Rauzy induction with Zorich's
    acceleration on the lengths alone.

    ``words`` holds one carrier per nonzero part, in order: the list of
    that part's letter, or the int 1.  The loop only adds carriers and
    multiplies them by ints, so with lists it returns the letters of the
    cycle of 0 and with ints its length, in the same steps.

    The exchange of these parts carries interval j (letter j) of the top
    row onto the interval of the same letter in the bottom row, whose
    order is reversed.  Each step induces it on [0, L - m), where L is
    the length of the domain and m the shorter of the two last intervals:
    the points that land in the cut-off tail go on through it, so the
    loser's interval gets the winner's return word appended (top wins)
    or prepended (bottom wins), moves next to the winner in the loser's
    row, and the winner shrinks by m; a tie merges the two intervals.
    All points of one interval follow one itinerary until they return, so
    one return word per interval describes them all, and the steps are
    exact integer arithmetic.  Right induction never moves the first top
    interval, which holds 0, so when one point is left its return word is
    the cycle of 0.  While one letter keeps winning, the letters after it
    in the other row take its word in turn; q = (lambda - 1) // (sum of
    their lengths) full turns leave it the winner and are applied at
    once, so a composition of n costs a few additions per Euclid-like
    step, not one Python-level step per letter.  A last interval in both
    rows maps onto itself, so the exchange is then not circular and the
    return word is shorter than the total.
    """
    lengths = [c for c in parts if c]
    top = [*range(len(lengths))]
    bottom = top[::-1]
    length_of = lengths.__getitem__
    while len(top) > 1:
        t, b = top[-1], bottom[-1]
        if t == b:
            break
        lt, lb = lengths[t], lengths[b]
        if lt > lb:
            i = bottom.index(t) + 1
            turn = sum(map(length_of, bottom[i:]))
            if lt > turn:
                q = (lt - 1) // turn
                run = words[t] * q
                for x in bottom[i:]:
                    words[x] += run
                lengths[t] = lt - q * turn
            else:
                words[b] += words[t]
                lengths[t] = lt - lb
                bottom.insert(i, bottom.pop())
        elif lb > lt:
            i = top.index(b) + 1
            turn = sum(map(length_of, top[i:]))
            if lb > turn:
                q = (lb - 1) // turn
                run = words[b] * q
                for x in top[i:]:
                    words[x] = run + words[x]
                lengths[b] = lb - q * turn
            else:
                words[t] = words[b] + words[t]
                lengths[b] = lb - lt
                top.insert(i, top.pop())
        else:
            words[b] += words[t]
            top.pop()
            bottom.pop()
            bottom[bottom.index(t)] = b
    return words[top[0]]


def is_circular(p: IetPermutation) -> bool:
    """True when the exchange is a single cycle, decided from the parts of
    its composition, with no Permutation built.

    From ``_INDUCTION_CUTOFF`` points on ``_rauzy`` on return-word lengths
    gives the length of the cycle of 0 in O(k log N) steps.  A smaller
    exchange walks the cycle of 0 once through the image list of
    ``_images``.
    """
    parts = p.composition.parts
    n = sum(parts)
    if n >= _INDUCTION_CUTOFF:
        return _rauzy(parts, [1 for c in parts if c]) == n
    images = _images(parts)
    # No step counter: the cycle has every point when none of the first
    # n - 1 steps returns to 0.
    x = images[0]
    for _ in repeat(None, n - 1):
        if not x:
            return False
        x = images[x]
    return True


def two_interval_circular(c1: int, c2: int) -> bool:
    """Two-interval criterion: circular iff gcd(c1, c2) = 1."""
    return gcd(c1, c2) == 1


def pak_redlich_circular(c1: int, c2: int, c3: int) -> bool:
    """Three-interval criterion: circular iff gcd(c1+c2, c2+c3) = 1."""
    return gcd(c1 + c2, c2 + c3) == 1


def standard_encoding(p: IetPermutation, alphabet: Sequence[Letter]) -> Word:
    """Word read off the 0-based cycle form, letter j for elements of I_j."""
    return Word(_encode_parts(p.composition.parts, alphabet))


def cyclic_restriction(p: IetPermutation, k: int) -> IetPermutation:
    """Restriction of a circular two-interval exchange to {0,...,k-1}.

    Deleting the elements >= k from the cycle form of the exchange with
    composition (gamma, rho) leaves the exchange with composition
    (gamma-i, i, rho-i), i = n-k, which is returned.
    """
    if len(p.composition.parts) != 2:
        raise RestrictionOutOfRangeError("cyclic restriction needs a two-interval exchange")
    gamma, rho = p.composition.parts
    if gcd(gamma, rho) != 1:
        raise NotCoprimeError(f"gcd{(gamma, rho)} != 1")
    n = gamma + rho
    i = n - k
    if not 0 <= i <= min(gamma, rho):
        raise RestrictionOutOfRangeError(
            f"restriction to [{k}] outside range for composition {(gamma, rho)}")
    return build_sigma(Composition((gamma - i, i, rho - i)))


def restriction_word_chain(gamma: int, rho: int,
                           alphabet: Sequence[Letter] = (0, 1, 2),
                           ) -> list[tuple[Word, int | None]]:
    """Encodings of the successive restrictions, with their merge positions.

    Starting from the two-letter word of composition (gamma, rho) with
    gamma < rho, each step replaces one factor "ac" by "b"; the position
    recorded with step i is (i*gamma^{-1} mod n) - d_i where d_i counts
    the earlier removals landing below the current one (merge_positions).
    Word i is the encoding of (gamma-i, i, rho-i): the first comes from
    ``_encode_parts``, and each later one is its predecessor with the
    factor at the merge position spliced into the middle letter.
    """
    if gcd(gamma, rho) != 1:
        raise NotCoprimeError(f"gcd{(gamma, rho)} != 1")
    if not 0 < gamma <= rho:
        raise RestrictionOutOfRangeError(f"need 0 < gamma <= rho, got {(gamma, rho)}")
    if len(alphabet) != 3:
        raise AlphabetSizeMismatchError("restriction chain needs a three-letter alphabet")
    n = gamma + rho
    a, b, c = alphabet
    letters = _encode_parts((gamma, 0, rho), alphabet)
    positions = merge_positions(n, pow(gamma, -1, n), gamma)
    chain: list[tuple[Word, int | None]] = [(Word(letters), None)]
    for pos in positions:
        # The merge joins the letters at 1-based positions pos and pos + 1.
        if letters[pos - 1:pos + 1] != [a, c]:
            raise MergeMismatchError(
                f"chain of {(gamma, rho)}: no factor {(a, c)} at merge position {pos}")
        letters[pos - 1:pos + 1] = (b,)
        chain.append((Word(letters), pos))
    return chain


def merge_positions(n: int, step: int, count: int) -> list[int]:
    """h_j = (j*step mod n) - d_j for j = 1..count, where d_j counts the
    earlier marks i*step mod n (i < j) below the current one.  Needs
    gcd(step, n) = 1 and 0 <= count < n.  With F(x) = floor(x step / n),
    the mark of a < b lies above that of b exactly when
    F(b) - F(a) - F(b - a) = 1, so d_j = (j-1)(1 - F(j)) + 2 s with the
    running sum s = F(1) + ... + F(j-1): O(1) per row."""
    _check_marks(n, step, count)
    step, s, out = step % n, 0, []
    for j in range(1, count + 1):
        f, mark = divmod(j * step, n)
        out.append(mark - (j - 1) * (1 - f) - 2 * s)
        s += f
    return out


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(sum F(x), sum x F(x), sum F(x)^2) over x = 0..n for
    F(x) = floor((a x + b) / c), with a, b >= 0, c >= 1 and n >= 0.

    The Euclid-like recursion: reduce a and b mod c, then swap the roles
    of a and c by counting lattice points under the line the other way.
    Its depth is O(log c).
    """
    if a >= c or b >= c:
        qa, qb = a // c, b // c
        f, g, h = _floor_sums(a % c, b % c, c, n)
        s1 = n * (n + 1) // 2
        s2 = s1 * (2 * n + 1) // 3
        return (f + qa * s1 + qb * (n + 1),
                g + qa * s2 + qb * s1,
                h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1
                + 2 * qb * f + 2 * qa * g)
    m = (a * n + b) // c
    if m == 0:
        return 0, 0, 0
    f, g, h = _floor_sums(c, c - b - 1, a, m - 1)
    total = n * m - f
    return total, (m * n * (n + 1) - h - f) // 2, n * m * (m + 1) - 2 * g - 2 * f - total


def _check_marks(n: int, step: int, count: int) -> None:
    """The marks j*step mod n, j = 1..count, are distinct and nonzero."""
    if gcd(step, n) != 1:
        raise NotCoprimeError(f"gcd{(step, n)} != 1")
    if not 0 <= count < n:
        raise OutOfRangeError(f"count {count} outside [0, {n - 1}]")


def merge_position_sum(n: int, step: int, count: int) -> int:
    """sum(merge_positions(n, step, count)) in O(log n), for gcd(step, n) = 1.

    The identity of merge_positions summed in closed form: with i = count,
    S0 = sum F(x) and S1 = sum x F(x) over x <= i, the marks sum to
    step*i(i+1)/2 - n*S0, the inversions F(b) - F(a) - F(b - a) over all
    a < b number 3 S1 - (2i+1) S0, and the d_j sum to i(i-1)/2 minus that.
    """
    _check_marks(n, step, count)
    step, i = step % n, count
    s0, s1, _ = _floor_sums(step, 0, n, i)
    return step * i * (i + 1) // 2 - n * s0 - i * (i - 1) // 2 + 3 * s1 - (2 * i + 1) * s0


# The codes ``enumerate_pc_words`` reads, as slices of two run-length
# templates sized to its length cap: ``_LOW[_PC_CAP - c1:_PC_CAP + c2]`` is
# c1 zeros then c2 ones, ``_HIGH[_PC_CAP - c3:_PC_CAP + c2]`` is c3 twos
# then c2 holes.
_PC_CAP = 18
_HOLE = b"\3"
_LOW = bytes(_PC_CAP) + b"\1" * _PC_CAP
_HIGH = b"\2" * _PC_CAP + _HOLE * _PC_CAP


def enumerate_pc_words(length: int, num_letters: int,
                       alphabet: Sequence[Letter] | None = None) -> list[Word]:
    """All perfectly clustering Lyndon words of the given length.

    Each is the standard encoding of a circular exchange, one for every
    composition of the length into ``num_letters`` parts (zeros allowed)
    whose exchange is a single cycle (Ferenczi-Zamboni).  One flat loop
    runs over the compositions, c1 for two letters and (c1, c2) for
    three, and keeps those that pass the gcd criterion of
    ``two_interval_circular`` or ``pak_redlich_circular``.

    Each kept word is read off an induced rotation, not walked.  The
    exchange of (c1, c2, c3) of n is the first return to [0, n) of the
    rotation y -> y + s on Z/N, with s = c2 + c3 and N = n + c2; the
    exchange of (c1, c2) is the rotation by c2 on Z/n (s = c2, N = n).
    So the word is the code of the points 0, s, 2s, ... mod N with the
    c2 points [n, N) skipped: the code (c1 zeros, c2 ones, c3 twos, c2
    holes, as bytes) repeated s times and sliced with stride s, holes
    dropped.  The buffer holds N*s <= 648 bytes at the cap of 18; it
    grows with the square of the length.  The read covers every point
    only when s is a unit mod N, so ``pow(s, -1, N)`` checks that first,
    independently of the gcd filter, and raises NotCircularError naming
    the composition: a wrong pick is an error, never a wrong word.  The
    codes sort as the words do; with no alphabet they are the letters
    0, 1, 2, and an alphabet maps each sorted word once, so its words
    hold the alphabet's own letter objects.

    The letters of the alphabet must increase strictly, as for
    ``lower_christoffel``.  A length below 1 raises
    LengthOutOfRangeError; more than 3 letters or a length above 18
    raise SizeLimitError.
    """
    if num_letters not in (2, 3):
        raise SizeLimitError(f"alphabet size {num_letters} not supported")
    if length < 1:
        raise LengthOutOfRangeError(f"length {length} below 1")
    if length > _PC_CAP:
        raise SizeLimitError(f"length {length} outside [1, {_PC_CAP}]")
    if alphabet is not None:
        if len(alphabet) != num_letters:
            raise AlphabetSizeMismatchError(
                f"{len(alphabet)} letters for alphabet size {num_letters}")
        _ordered(alphabet)
    n, cap = length, _PC_CAP
    codes = []
    # s = 0 is a unit only mod N = 1, where stride 1 reads the one point.
    if num_letters == 2:
        for c1 in range(n + 1):
            c2 = n - c1
            if gcd(c1, c2) == 1:
                try:
                    pow(c2, -1, n)
                except ValueError:
                    raise NotCircularError(f"exchange of {(c1, c2)} is not circular") from None
                step = c2 or 1
                codes.append((_LOW[cap - c1:cap + c2] * step)[::step])
    else:
        for c1 in range(n + 1):
            for c2 in range(n - c1 + 1):
                c3 = n - c1 - c2
                if gcd(c1 + c2, c2 + c3) == 1:
                    s = c2 + c3
                    try:
                        pow(s, -1, n + c2)
                    except ValueError:
                        raise NotCircularError(
                            f"exchange of {(c1, c2, c3)} is not circular") from None
                    step = s or 1
                    code = _LOW[cap - c1:cap + c2] + _HIGH[cap - c3:cap + c2]
                    codes.append((code * step)[::step].replace(_HOLE, b""))
    codes.sort()
    if alphabet is None:
        return list(map(Word, codes))
    letter = alphabet.__getitem__
    return [Word(list(map(letter, code))) for code in codes]
