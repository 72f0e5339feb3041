"""Permutations of {0,...,n-1} with their cycles, Zolotareff and Jacobi symbols.

The Zolotareff symbol (r/n)_Z is the sign of the permutation x -> r*x of
Z/nZ.  It has a closed form: the Jacobi symbol (r/n), computed by
quadratic reciprocity, for odd n (Frobenius-Zolotareff); +1 for
n = 2 mod 4; and (-1)^((r-1)/2) for 4 | n.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterable, Sequence

from .errors import EvenModulusError, NotBijectiveError, NotCoprimeError, OutOfRangeError


class Permutation:
    """A permutation of {0,...,n-1} stored by its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        # Ints in [0, n) without repeats; each check runs in C.
        if imgs and not (all(map(isinstance, imgs, repeat(int)))
                         and min(imgs) >= 0 and max(imgs) < n and len(set(imgs)) == n):
            raise NotBijectiveError(f"not a bijection of [{n}]: {imgs}")
        self.images = imgs

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple that is a bijection of [n] by construction,
        without the checks of the constructor."""
        p = cls.__new__(cls)
        p.images = images
        return p

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles covering [n], each starting at its least element,
        ordered by least element."""
        imgs = self.images
        seen = bytearray(len(imgs))
        out = []
        for start in range(len(imgs)):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = imgs[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles())


def _cycle_sign(images: Sequence[int]) -> int:
    """Sign of the permutation i -> images[i] of [n], by one walk of its
    cycles: each step inside a cycle flips it.  images must be a bijection
    of [n]; it is not checked."""
    seen = bytearray(len(images))
    sign = 1
    for start, j in enumerate(images):
        if not seen[start]:
            # A later start is larger, so start itself needs no mark.
            while j != start:
                seen[j], j, sign = 1, images[j], -sign
    return sign


def cycle_type_string(cycle_type: dict[int, int]) -> str:
    """Render a cycle type as "1^a 2^b ..." in increasing length order."""
    return " ".join(f"{length}^{mult}"
                    for length, mult in sorted(cycle_type.items()))


def zolotareff(r: int, n: int) -> int:
    """Sign of the permutation x -> r*x of Z/nZ, in O(log n) steps.

    Write Z/nZ = Z/2^k x Z/m with m odd.  Multiplication by r is
    sigma x tau there, and sign(sigma x tau) = sign(sigma)^m *
    sign(tau)^(2^k).  For k = 0 the sign is sign(tau), the Jacobi symbol
    (r/m); for k >= 1 the factor sign(tau)^(2^k) is +1, and sign(sigma)
    is +1 for k = 1 and (-1)^((r-1)/2) for k >= 2.  The cycle-by-cycle
    walk of the permutation gives the same value and is the oracle the
    test suite checks this against.
    """
    if n < 1:
        raise OutOfRangeError(f"order must be >= 1, got {n}")
    r %= n
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")
    if n % 2:
        return jacobi(r, n)
    if n % 4 == 2:
        return 1
    return 1 if r % 4 == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 when gcd(a, n) > 1."""
    if n < 1:
        raise OutOfRangeError(f"modulus must be >= 1, got {n}")
    if n % 2 == 0:
        raise EvenModulusError(f"Jacobi symbol undefined for even modulus {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
