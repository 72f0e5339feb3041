"""Permutations of {0,...,n-1}, cycle structure, Zolotareff and Jacobi symbols.

The Zolotareff symbol (r/n)_Z is the sign of the permutation x -> r*x of
Z/nZ; for odd n it agrees with the Jacobi symbol, which is computed here
independently by quadratic reciprocity.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from .errors import EvenModulusError, NotBijectiveError, NotCoprimeError, OutOfRangeError


class Permutation:
    """A permutation of {0,...,n-1} stored by its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        seen = bytearray(n)
        for x in imgs:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise NotBijectiveError(f"not a bijection of [{n}]: {imgs}")
            seen[x] = 1
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def multiplication(cls, r: int, n: int) -> "Permutation":
        """The map x -> r*x mod n, defined when gcd(r, n) = 1."""
        if n < 1:
            raise OutOfRangeError(f"order must be >= 1, got {n}")
        r %= n
        if gcd(r, n) != 1:
            raise NotCoprimeError(f"gcd({r}, {n}) != 1")
        return cls((r * x) % n for x in range(n))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if len(self) != len(other):
            raise NotBijectiveError("composition of permutations of different sizes")
        return Permutation(self.images[y] for y in other.images)

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(inv)

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

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd: (-1)^(n - #cycles)."""
        return 1 if (len(self) - len(self.cycles())) % 2 == 0 else -1

    def cycle_type(self) -> dict[int, int]:
        """Multiset of cycle lengths as a {length: multiplicity} dict."""
        ct: dict[int, int] = {}
        for cyc in self.cycles():
            ct[len(cyc)] = ct.get(len(cyc), 0) + 1
        return ct

    def cycle_string(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles())


def cycle_type_string(cycle_type: dict[int, int]) -> str:
    """Render a cycle type as "1^a 2^b ..." in increasing length order."""
    return " ".join(f"{length}^{mult}"
                    for length, mult in sorted(cycle_type.items()))


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
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


def euler_phi(n: int) -> int:
    """Euler totient; phi(1) = 1."""
    if n < 1:
        raise OutOfRangeError(f"phi requires n >= 1, got {n}")
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in _factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n; requires gcd(a, n) = 1."""
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise NotCoprimeError(f"gcd({a}, {n}) != 1")
    order = euler_phi(n)
    for p, _ in _factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def zolotareff(r: int, n: int) -> int:
    """Sign of the permutation x -> r*x of Z/nZ.

    Computed from the permutation's cycle structure: the elements x with
    gcd(x, n) = n/d form orbits matching multiplication on the units mod
    d, so the cycle count is the sum over d | n of phi(d)/ord_d(r).  The
    literal one-cycle-at-a-time walk (Permutation.multiplication + sign)
    gives the same value and is kept as a cross-check in the test suite.
    """
    if n < 1:
        raise OutOfRangeError(f"order must be >= 1, got {n}")
    r %= n
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")
    cycles = sum(euler_phi(d) // multiplicative_order(r, d) for d in divisors(n))
    return 1 if (n - cycles) % 2 == 0 else -1


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
