"""Exact scalar arithmetic and dense exact matrices.

Scalars are either arbitrary-precision rationals (kept reduced, positive
denominator) or elements of a prime field GF(p); the two kinds never mix.
Matrices are immutable row-major containers of scalars of one kind, with
exact multiplication and a fraction-free (Bareiss) determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence, Union

from .errors import ChristoffelError, DimensionMismatchError, KindMismatchError

ScalarLike = Union[int, Fraction, "FieldScalar"]


def is_prime(p: int) -> bool:
    """Trial-division primality test; fine at the sizes used here."""
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


class FieldScalar:
    """An exact field element: a rational, or a residue modulo a prime.

    ``value`` is a :class:`fractions.Fraction` when ``modulus`` is None,
    otherwise an int in ``[0, modulus)``.  Arithmetic between different
    kinds (or different moduli) raises :class:`KindMismatchError`;
    division by zero raises ``ZeroDivisionError``.  Plain ints and
    Fractions combine with either kind from both sides; other operand
    types raise ``TypeError``.  A rational scalar hashes like its value.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus: int | None = None):
        if modulus is None:
            self.value = Fraction(value)
        else:
            if not is_prime(modulus):
                raise ChristoffelError(f"modulus {modulus} is not prime")
            self.value = int(value) % modulus
        self.modulus = modulus

    @classmethod
    def rational(cls, numerator, denominator=1) -> "FieldScalar":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def residue(cls, value: int, modulus: int) -> "FieldScalar":
        return cls(value, modulus)

    @classmethod
    def coerce(cls, x: ScalarLike, modulus: int | None = None) -> "FieldScalar":
        """Lift an int/Fraction to a scalar of the requested kind."""
        if isinstance(x, FieldScalar):
            if x.modulus != modulus:
                raise KindMismatchError(
                    f"cannot coerce scalar of modulus {x.modulus} to modulus {modulus}")
            return x
        if modulus is None:
            return cls(Fraction(x))
        if isinstance(x, Fraction) and x.denominator != 1:
            num = x.numerator % modulus
            den = pow(x.denominator % modulus, -1, modulus)
            return cls(num * den, modulus)
        return cls(int(x), modulus)

    @property
    def is_rational(self) -> bool:
        return self.modulus is None

    def is_zero(self) -> bool:
        return self.value == 0

    def _operand(self, other) -> "FieldScalar | None":
        """other as a scalar of this kind; None for an unsupported type."""
        if isinstance(other, FieldScalar):
            if self.modulus != other.modulus:
                raise KindMismatchError(
                    f"mixed scalar kinds: {self!r} and {other!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldScalar.coerce(other, self.modulus)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return FieldScalar(self.value + other.value, self.modulus)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return FieldScalar(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return FieldScalar(self.value * other.value, self.modulus)

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FieldScalar(-self.value, self.modulus)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.modulus is None:
            return FieldScalar(self.value ** exponent)
        return FieldScalar(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> "FieldScalar":
        if self.value == 0:
            raise ZeroDivisionError("division by zero field scalar")
        if self.modulus is None:
            return FieldScalar(1 / self.value)
        return FieldScalar(pow(self.value, -1, self.modulus), self.modulus)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, (int, Fraction)):
            if self.modulus is None:
                return self.value == other
            if isinstance(other, int):
                return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        if self.modulus is None:
            return hash(self.value)
        return hash((self.value, self.modulus))

    def __str__(self):
        if self.modulus is None:
            return str(self.value)
        return f"{self.value} mod {self.modulus}"

    def __repr__(self):
        return f"FieldScalar({self})"

    @classmethod
    def parse(cls, text: str) -> "FieldScalar":
        """Inverse of ``str``: accepts "p/q", "p", "v mod p" (or "v%p")."""
        text = text.strip()
        for sep in (" mod ", "%"):
            if sep in text:
                v, p = text.split(sep)
                return cls.residue(int(v.strip()), int(p.strip()))
        return cls.rational(Fraction(text))


class ExactMatrix:
    """Immutable dense matrix whose entries are FieldScalars of one kind."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[FieldScalar]):
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        entries = tuple(entries)
        moduli = {e.modulus for e in entries}
        if len(moduli) > 1:
            raise KindMismatchError(f"mixed scalar kinds in matrix: {moduli}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[ScalarLike]],
                  modulus: int | None = None) -> "ExactMatrix":
        data = [list(r) for r in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatchError("ragged rows")
        flat = [FieldScalar.coerce(x, modulus) for r in data for x in r]
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int, modulus: int | None = None) -> "ExactMatrix":
        one = FieldScalar.coerce(1, modulus)
        zero = FieldScalar.coerce(0, modulus)
        return cls(n, n, [one if i == j else zero
                          for i in range(n) for j in range(n)])

    @property
    def modulus(self) -> int | None:
        return self.entries[0].modulus if self.entries else None

    def entry(self, i: int, j: int) -> FieldScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[FieldScalar, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[FieldScalar, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_string_rows(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    def to_json(self) -> str:
        """Canonical serialization: JSON rows of scalar strings."""
        import json
        return json.dumps(self.to_string_rows(), separators=(",", ":"))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {self.to_string_rows()})"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.entries and b.entries and a.modulus != b.modulus:
        raise KindMismatchError("mixed scalar kinds in product")
    n, k, m = a.rows, a.cols, b.cols
    modulus = a.modulus if a.entries else b.modulus
    av = [x.value for x in a.entries]
    bv = [x.value for x in b.entries]
    out = []
    for i in range(n):
        arow = av[i * k:(i + 1) * k]
        for j in range(m):
            s = sum(arow[t] * bv[t * m + j] for t in range(k))
            out.append(FieldScalar(s, modulus))
    return ExactMatrix(n, m, out)


def _bareiss_int(m: list[list[int]]) -> int:
    """Fraction-free elimination; all interior divisions are exact."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    return _bareiss_int([list(r) for r in rows])


def det_exact(a: ExactMatrix) -> FieldScalar:
    """Exact determinant of a square matrix.

    Rational matrices are cleared to integer matrices row by row (LCM of
    the denominators), the integer determinant is computed fraction-free,
    and the scaling is divided back out.  Residue matrices are lifted to
    integer representatives and reduced mod p at the end.
    """
    if a.rows != a.cols:
        raise DimensionMismatchError(f"determinant of {a.rows}x{a.cols} matrix")
    n = a.rows
    if n == 0:
        return FieldScalar.coerce(1, a.modulus)
    if a.modulus is not None:
        m = [[x.value for x in a.row(i)] for i in range(n)]
        return FieldScalar(_bareiss_int(m) % a.modulus, a.modulus)
    m = []
    scale = 1
    for i in range(n):
        vals = [x.value for x in a.row(i)]
        mult = lcm(*(v.denominator for v in vals)) if vals else 1
        scale *= mult
        m.append([int(v * mult) for v in vals])
    return FieldScalar(Fraction(_bareiss_int(m), scale))
