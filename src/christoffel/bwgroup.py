"""Burrows-Wheeler matrices of Christoffel words and their group structure.

M(n, a, b, r) is the n x n table whose rows are the rotations, sorted
decreasingly, of the Christoffel word with r high letters b and n-r low
letters a; entry (i, j) is b exactly when (i + qj) mod n < r, q = n - r.
Over a field of characteristic 0 or > n, the invertible ones form a
commutative group isomorphic to K* x K* x (Z/nZ)* via
M(n, a, b, r) -> ((n-r)a + rb, b - a, r).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from ._frozen import Frozen
from .errors import (
    CharacteristicTooSmallError,
    ChristoffelError,
    IndexOutOfRangeError,
    KindMismatchError,
    NonInvertibleRowSumError,
    NotCoprimeError,
    OrderMismatchError,
    OutOfRangeError,
)
from .numeric import ExactMatrix, FieldScalar, ScalarLike, _check_modulus, _lift, _scalar
from .permsign import zolotareff
from .words import SlopeRatio, Word, _christoffel_bw_prefixes, bw_rows


def _check_characteristic(n: int, modulus: int | None) -> None:
    if modulus is not None and modulus <= n:
        raise CharacteristicTooSmallError(
            f"characteristic {modulus} must exceed the order {n}")


class ChristoffelParams(Frozen):
    """The (n, a, b, r) parameterization of a Christoffel matrix."""

    __slots__ = ("n", "a", "b", "r")

    def __init__(self, n: int, a: FieldScalar, b: FieldScalar, r: int):
        a = a if isinstance(a, FieldScalar) else FieldScalar.coerce(a)
        b = b if isinstance(b, FieldScalar) else FieldScalar.coerce(b)
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
        _check_characteristic(n, a.modulus)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    @property
    def q(self) -> int:
        return self.n - self.r

    @property
    def r_star(self) -> int:
        """Inverse of r modulo n, in [1, n-1]."""
        return pow(self.r, -1, self.n)

    @property
    def modulus(self) -> int | None:
        return self.a.modulus


def params(n: int, a: ScalarLike, b: ScalarLike, r: int,
           modulus: int | None = None) -> ChristoffelParams:
    """Convenience constructor coercing plain numbers.  The modulus is
    tested for primality once, not once per scalar."""
    _check_modulus(modulus)
    return ChristoffelParams(n, _scalar(_lift(a, modulus), modulus),
                             _scalar(_lift(b, modulus), modulus), r)


class GroupTriple(Frozen):
    """Image ((n-r)a + rb, b - a, r) of a Christoffel matrix in K* x K* x (Z/n)*."""

    __slots__ = ("n", "c", "d", "r")

    def __init__(self, n: int, c: FieldScalar, d: FieldScalar, r: int):
        if c.is_zero():
            raise NonInvertibleRowSumError("row sum c must be nonzero")
        if d.is_zero():
            raise NonInvertibleRowSumError("difference d must be nonzero")
        if gcd(r % n, n) != 1:
            raise NotCoprimeError(f"gcd({r}, {n}) != 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    def inverse(self) -> "GroupTriple":
        return GroupTriple(self.n, self.c.inverse(), self.d.inverse(),
                           pow(self.r, -1, self.n))

    def __mul__(self, other: "GroupTriple") -> "GroupTriple":
        if self.n != other.n:
            raise OrderMismatchError(f"orders {self.n} and {other.n} differ")
        return GroupTriple(self.n, self.c * other.c, self.d * other.d,
                           (self.r * other.r) % self.n)


def bw_matrix(w: Word) -> ExactMatrix:
    """Burrows-Wheeler table of a primitive word as an exact matrix."""
    return ExactMatrix.from_rows([row.letters for row in bw_rows(w)])


def christoffel_matrix(p: ChristoffelParams) -> ExactMatrix:
    """The Burrows-Wheeler table of slope r/q over {a, b}, row by row.

    a and b are cleared over the lcm of their denominators (1 over GF(p),
    where they are residues already), so the table of the two integers
    over that denominator is the matrix.  That form is canonical: a prime
    power exactly dividing the lcm divides one letter's reduced
    denominator, so it does not divide that letter's integer, and both
    letters occur.  Row 0 comes from the residue rule; row i is row 0
    rotated left by i * q^(-1) mod n, one slice of the doubled row.
    """
    n = p.n
    a, b = p.a.value, p.b.value
    den = lcm(a.denominator, b.denominator)
    letters = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
    rows = _christoffel_bw_prefixes(SlopeRatio(p.r, p.q), range(n), n, letters)
    return ExactMatrix._trusted(n, n, p.modulus, tuple(list(chain.from_iterable(rows))), den)


def to_triple(p: ChristoffelParams) -> GroupTriple:
    c = p.a * (p.n - p.r) + p.b * p.r
    if c.is_zero():
        raise NonInvertibleRowSumError(f"row sum of {p} is zero")
    return GroupTriple(p.n, c, p.b - p.a, p.r)


def from_triple(n: int, t: GroupTriple) -> ChristoffelParams:
    """Inverse of the isomorphism: a = (c - rd)/n, b = a + d."""
    if t.n != n:
        raise OrderMismatchError(f"triple of order {t.n} used at order {n}")
    _check_characteristic(n, t.c.modulus)
    r = t.r % n
    a = (t.c - t.d * r) / n
    return ChristoffelParams(n, a, a + t.d, r)


def group_identity(n: int, modulus: int | None = None) -> ChristoffelParams:
    """Params of the identity matrix: M(n, 0, 1, 1)."""
    return params(n, 0, 1, 1, modulus)


def group_mul(p1: ChristoffelParams, p2: ChristoffelParams) -> ChristoffelParams:
    """Parameters of the matrix product, via the componentwise triple product."""
    if p1.n != p2.n:
        raise OrderMismatchError(f"orders {p1.n} and {p2.n} differ")
    return from_triple(p1.n, to_triple(p1) * to_triple(p2))


def group_inverse(p: ChristoffelParams) -> ChristoffelParams:
    """Group inverse via the inverted triple."""
    return from_triple(p.n, to_triple(p).inverse())


def det_closed(p: ChristoffelParams) -> FieldScalar:
    """Determinant by the closed form ((n-r)a + rb)(b - a)^(n-1) sgn(x -> rx)."""
    c = p.a * (p.n - p.r) + p.b * p.r
    d = p.b - p.a
    return c * d ** (p.n - 1) * zolotareff(p.r, p.n)


def consecutive_rows_square(p: ChristoffelParams, i: int) -> int:
    """Column j = i * r_star mod n where rows i-1 and i differ.

    The rows agree outside columns j-1, j, where they carry the 2x2 block
    [[b, a], [a, b]].
    """
    if not 1 <= i <= p.n - 1:
        raise IndexOutOfRangeError(f"row index {i} outside [1, {p.n - 1}]")
    return (i * p.r_star) % p.n
