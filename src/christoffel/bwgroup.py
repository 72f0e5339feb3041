"""Burrows-Wheeler matrices of Christoffel words and their group structure.

M(n, a, b, r) is the n x n table whose rows are the rotations, sorted
decreasingly, of the Christoffel word with r high letters b and n-r low
letters a; entry (i, j) is b exactly when (i + qj) mod n < r, q = n - r.
Over a field of characteristic 0 or > n, the invertible ones form a
commutative group isomorphic to K* x K* x (Z/nZ)* via
M(n, a, b, r) -> ((n-r)a + rb, b - a, r).

Parameters and triples store their kind once (``modulus``, None over Q)
and their two letters as two ints over one denominator in the canonical
form of ``numeric``, the form of an ``ExactMatrix``'s entries, so it is
also the form of the matrix's table.  The group operations are then a
few integer operations on those ints, brought back to the canonical form
once by ``numeric._reduced``.  The letters are read as FieldScalars
through properties.
"""

from __future__ import annotations

from math import gcd

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
from .numeric import (ExactMatrix, FieldScalar, ScalarLike, _check_modulus, _integer_form,
                      _read, _reduced, _rotations)
from .permsign import zolotareff
from .words import Word, _bw_starts, _christoffel_row


def _check_characteristic(n: int, modulus: int | None) -> None:
    if modulus is not None and modulus <= n:
        raise CharacteristicTooSmallError(
            f"characteristic {modulus} must exceed the order {n}")


def _check_order(n: int, r: int = 1) -> None:
    """n >= 2 and r in [1, n-1] prime to n; without r, the order alone."""
    if n < 2:
        raise OutOfRangeError(f"order must be >= 2, got {n}")
    if not 1 <= r <= n - 1:
        raise OutOfRangeError(f"r={r} outside [1, {n - 1}]")
    if gcd(r, n) != 1:
        raise NotCoprimeError(f"gcd({r}, {n}) != 1")


def _fill(out, n: int, r: int, modulus: int | None, form: tuple):
    """Store n, r, the kind and the canonical form ((x, y), den) of the
    two letters in the new ChristoffelParams or GroupTriple out, and
    return it."""
    (x, y), den = form
    for name, value in zip(type(out).__slots__, (n, r, modulus, x, y, den)):
        object.__setattr__(out, name, value)
    return out


class ChristoffelParams(Frozen):
    """The (n, a, b, r) parameterization of a Christoffel matrix.

    The letters a and b are stored as the ints ``_a`` and ``_b`` over
    ``_den`` in the canonical form of the module docstring; ``a`` and
    ``b`` read them as FieldScalars.  Equality and hashing compare the
    stored form, which equal letters share; printing and pickling follow
    (n, a, b, r).
    """

    __slots__ = ("n", "r", "modulus", "_a", "_b", "_den")
    _field_names = ("n", "a", "b", "r")

    def __init__(self, n: int, a: FieldScalar, b: FieldScalar, r: int):
        a = a if isinstance(a, FieldScalar) else FieldScalar.coerce(a)
        b = b if isinstance(b, FieldScalar) else FieldScalar.coerce(b)
        _check_order(n, r)
        if a.modulus != b.modulus:
            raise KindMismatchError("a and b must share one scalar kind")
        _set_letters(self, n, r, a.modulus, _integer_form([a.value, b.value], a.modulus))

    @property
    def a(self) -> FieldScalar:
        return _read(self._a, self._den, self.modulus)

    @property
    def b(self) -> FieldScalar:
        return _read(self._b, self._den, self.modulus)

    @property
    def q(self) -> int:
        return self.n - self.r

    @property
    def r_star(self) -> int:
        """Inverse of r modulo n, in [1, n-1]."""
        return pow(self.r, -1, self.n)


def _set_letters(p: ChristoffelParams, n: int, r: int, modulus: int | None,
                 form: tuple) -> None:
    """Check the canonical form of the letters of a checked order and
    store it in p; equal letters have equal ints."""
    (a, b), _ = form
    if a == b:
        raise ChristoffelError("alphabet letters must differ")
    _check_characteristic(n, modulus)
    _fill(p, n, r, modulus, form)


def params(n: int, a: ScalarLike, b: ScalarLike, r: int,
           modulus: int | None = None) -> ChristoffelParams:
    """Convenience constructor coercing plain numbers.  The modulus is
    tested for primality once per process (see ``numeric._check_modulus``),
    not once per scalar."""
    _check_modulus(modulus)
    form = _integer_form([a, b], modulus)
    _check_order(n, r)
    p = object.__new__(ChristoffelParams)
    _set_letters(p, n, r, modulus, form)
    return p


class GroupTriple(Frozen):
    """Image ((n-r)a + rb, b - a, r) of a Christoffel matrix in K* x K* x (Z/n)*.

    c and d are stored as the ints ``_c`` and ``_d`` over ``_den`` in the
    canonical form of the module docstring; ``c`` and ``d`` read them as
    FieldScalars.  r is kept as given.  Equality and hashing compare the
    stored form, printing and pickling follow (n, c, d, r).
    """

    __slots__ = ("n", "r", "modulus", "_c", "_d", "_den")
    _field_names = ("n", "c", "d", "r")

    def __init__(self, n: int, c: FieldScalar, d: FieldScalar, r: int):
        c = c if isinstance(c, FieldScalar) else FieldScalar.coerce(c)
        d = d if isinstance(d, FieldScalar) else FieldScalar.coerce(d)
        if c.is_zero():
            raise NonInvertibleRowSumError("row sum c must be nonzero")
        if d.is_zero():
            raise NonInvertibleRowSumError("difference d must be nonzero")
        _check_order(n)
        if gcd(r % n, n) != 1:
            raise NotCoprimeError(f"gcd({r}, {n}) != 1")
        if c.modulus != d.modulus:
            raise KindMismatchError("c and d must share one scalar kind")
        _fill(self, n, r, c.modulus, _integer_form([c.value, d.value], c.modulus))

    @property
    def c(self) -> FieldScalar:
        return _read(self._c, self._den, self.modulus)

    @property
    def d(self) -> FieldScalar:
        return _read(self._d, self._den, self.modulus)

    def inverse(self) -> "GroupTriple":
        """(1/c, 1/d, r^(-1) mod n): den d' / (c' d') and den c' / (c' d')."""
        c, d, den = self._c, self._d, self._den
        return _fill(object.__new__(GroupTriple), self.n, pow(self.r, -1, self.n),
                     self.modulus, _reduced((den * d, den * c), c * d, self.modulus))

    def __mul__(self, other: "GroupTriple") -> "GroupTriple":
        if self.n != other.n:
            raise OrderMismatchError(f"orders {self.n} and {other.n} differ")
        modulus = _one_kind(self.modulus, other.modulus)
        return _fill(object.__new__(GroupTriple), self.n, (self.r * other.r) % self.n,
                     modulus, _reduced((self._c * other._c, self._d * other._d),
                                       self._den * other._den, modulus))


def _one_kind(m1: int | None, m2: int | None) -> int | None:
    if m1 != m2:
        raise KindMismatchError(f"mixed scalar kinds: modulus {m1} and modulus {m2}")
    return m1


def bw_matrix(w: Word) -> ExactMatrix:
    """Burrows-Wheeler table of a primitive word as an exact matrix.

    The rotation starts are sorted once (``words._bw_starts``, shared with
    ``bw_rows``), the word's distinct letters are brought to the canonical
    form over Q once each, and row k is the coded word rotated left by
    the k-th start, one slice of it doubled (``numeric._rotations``).  The
    form is also the matrix's, as in ``christoffel_matrix``: every letter
    occurs in every row.
    """
    starts = _bw_starts(w)
    letters = list(set(w.letters))
    ints, den = _integer_form(letters, None)
    code = dict(zip(letters, ints))
    n = len(starts)
    return ExactMatrix._trusted(n, n, None,
                                tuple(_rotations(list(map(code.__getitem__, w.letters)), starts)),
                                den, max(map(abs, ints)))


def christoffel_matrix(p: ChristoffelParams) -> ExactMatrix:
    """The Burrows-Wheeler table of slope r/q over {a, b}, row by row.

    The table of the two stored ints over the stored denominator is the
    matrix, in canonical form since both letters occur.  Row 0 is b
    scattered into [a] * n at the r columns k q^(-1) mod n, k < r (the
    residue rule, ``words._christoffel_row``); row i is row 0 rotated left
    by i q^(-1) mod n, one slice of the doubled row (``numeric._rotations``),
    so q^(-1) is the table's rotation step.  The largest |entry| is
    max(|a'|, |b'|) for the stored ints a', b'.
    """
    n, a, b = p.n, p._a, p._b
    step = pow(p.q, -1, n)
    ints = _rotations(_christoffel_row(n, p.r, step, a, b), range(0, n * step, step))
    return ExactMatrix._trusted(n, n, p.modulus, tuple(ints), p._den, max(abs(a), abs(b)),
                                step=step)


def _row_sum(p: ChristoffelParams) -> int:
    """The int of the row sum c = (n-r)a + rb over p's denominator; a
    zero row sum raises NonInvertibleRowSumError."""
    c = (p.n - p.r) * p._a + p.r * p._b
    if p.modulus is not None:
        c %= p.modulus
    if c == 0:
        raise NonInvertibleRowSumError(f"row sum of {p} is zero")
    return c


def to_triple(p: ChristoffelParams) -> GroupTriple:
    c = _row_sum(p)
    return _fill(object.__new__(GroupTriple), p.n, p.r, p.modulus,
                 _reduced((c, p._b - p._a), p._den, p.modulus))


def _from_letters(n: int, r: int, modulus: int | None, c: int, d: int,
                  den: int) -> ChristoffelParams:
    """Params of the triple (c / den, d / den, r): a = (c - rd)/n, b = a + d."""
    a = c - r * d
    return _fill(object.__new__(ChristoffelParams), n, r, modulus,
                 _reduced((a, a + n * d), n * den, modulus))


def from_triple(n: int, t: GroupTriple) -> ChristoffelParams:
    """Inverse of the isomorphism: a = (c - rd)/n, b = a + d."""
    if t.n != n:
        raise OrderMismatchError(f"triple of order {t.n} used at order {n}")
    _check_characteristic(n, t.modulus)
    r = t.r % n
    _check_order(n, r)
    return _from_letters(n, r, t.modulus, t._c, t._d, t._den)


def group_identity(n: int, modulus: int | None = None) -> ChristoffelParams:
    """Params of the identity matrix: M(n, 0, 1, 1)."""
    return params(n, 0, 1, 1, modulus)


def group_mul(p1: ChristoffelParams, p2: ChristoffelParams) -> ChristoffelParams:
    """Parameters of the matrix product, via the componentwise triple
    product: a = (c1 c2 - r d1 d2)/n and b = a + d1 d2, r = r1 r2 mod n."""
    if p1.n != p2.n:
        raise OrderMismatchError(f"orders {p1.n} and {p2.n} differ")
    n = p1.n
    c1, c2 = _row_sum(p1), _row_sum(p2)
    modulus = _one_kind(p1.modulus, p2.modulus)
    return _from_letters(n, p1.r * p2.r % n, modulus, c1 * c2,
                         (p1._b - p1._a) * (p2._b - p2._a), p1._den * p2._den)


def group_inverse(p: ChristoffelParams) -> ChristoffelParams:
    """Group inverse via the inverted triple (1/c, 1/d, r^(-1) mod n), whose
    ints are den d and den c over c d in p's ints c, d over den."""
    c, d, den = _row_sum(p), p._b - p._a, p._den
    return _from_letters(p.n, pow(p.r, -1, p.n), p.modulus, den * d, den * c, c * d)


def det_closed(p: ChristoffelParams) -> FieldScalar:
    """Determinant by the closed form ((n-r)a + rb)(b - a)^(n-1) sgn(x -> rx)."""
    n, m = p.n, p.modulus
    c = ((n - p.r) * p._a + p.r * p._b) * zolotareff(p.r, n)
    d = p._b - p._a
    if m is None:
        return _read(c * d ** (n - 1), p._den ** n, None)
    return _read(c * pow(d, n - 1, m) % m, 1, m)


def consecutive_rows_square(p: ChristoffelParams, i: int) -> int:
    """Column j = i * r_star mod n where rows i-1 and i differ.

    The rows agree outside columns j-1, j, where they carry the 2x2 block
    [[b, a], [a, b]].
    """
    if not 1 <= i <= p.n - 1:
        raise IndexOutOfRangeError(f"row index {i} outside [1, {p.n - 1}]")
    return (i * p.r_star) % p.n
