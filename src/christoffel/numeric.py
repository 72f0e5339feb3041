"""Exact scalar arithmetic and dense exact matrices.

Scalars are either arbitrary-precision rationals (kept reduced, positive
denominator) or elements of a prime field GF(p); the two kinds never mix.
A matrix stores its kind once (``modulus``, None over Q) and its entries
in the canonical form: ints over one positive common denominator, in
lowest terms over Q and residues in [0, p) over 1 over GF(p);
FieldScalars are built only where entries are read.

Every exact kernel first replaces the rows g_0..g_k of its (left)
matrix by their differences D = [g_0 - g_1, ..., g_{k-1} - g_k, g_k] =
T G, T upper bidiagonal with 1 on the diagonal and -1 above it.  As
det T = 1, det D = det G.  Consecutive rows of a Christoffel
(Burrows-Wheeler) table differ by one adjacent exchange of the two
letters (Borel and Reutenauer, "On Christoffel classes", 2006); there
every row of D but the last is d e_j - d e_{j+1} for one column j.  The
results are exact for every input; the structure only makes them cheap.

Christoffel tables are closed under products, and each is one row
rotated by a fixed step, so the product of two is one row rotated: one
cyclic correlation of the factors' first rows, computed as one product
of two packed integers (Kronecker substitution), with only n values
reduced (``mat_mul``).  Any other product packs b's rows one per big
integer, and row i of the product, P_i = P_{i+1} + (a_i - a_{i+1}) b, is
built from the bottom up from the nonzero entries of the differenced
rows of a, read back as machine words when a product entry fits in
8 bytes.  A left factor whose rows differ by adjacent exchanges thus
costs about 2n + k packed multiply-adds instead of n k.

The determinant of an n x n table that carries a rotation step s (see
``ExactMatrix``), row i being its row 0 f rotated left by i s, is read
off f alone when D has the shape of a path: rows i < n - 1 equal to
d (e_{j_i} - e_{j_i + 1}), with no j_i repeated.  Let U be the
prefix-sum matrix (1 on and above the diagonal, det U = 1), so that
x U = (x_0, x_0 + x_1, ...).  Then row i < n - 1 of T M U is d e_{j_i},
and the last row ends in the sum S of f.  The j_i are the columns
0..n-2 in some order pi, so column n - 1 of T M U is S e_{n-1} and
det M = sign(pi) d^(n-1) S.  Every row pair differs by delta = f - (f
rotated left by s), itself rotated, so D has that shape exactly when
delta is d at c = (-1 - s) mod n and -d at c + 1 and 0 elsewhere, and
then pi(i) = (c - i s) mod n (``_rotation_det``): O(n) steps, no row
scanned.  Over GF(p) the same reading runs on the stored residues,
taken as ints, and is reduced mod p.  Every other matrix, a Christoffel
table given entry by entry included, is eliminated
(``_det_by_elimination``): D fraction-free (Bareiss) over Q, Gaussian
with every entry reduced mod p over GF(p).
"""

from __future__ import annotations

import struct
import sys
from array import array
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import index, mul, sub
from typing import Iterable, Sequence, Union

from .errors import (
    ChristoffelError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    KindMismatchError,
    SizeLimitError,
)
from .permsign import _cycle_sign

ScalarLike = Union[int, Fraction, "FieldScalar"]

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above the exactness bound raises
    SizeLimitError."""
    if p >= _MR_LIMIT:
        raise SizeLimitError(f"primality is decided below {_MR_LIMIT}; got {p}")
    if p < 2:
        return False
    for base in _MR_BASES:
        if p % base == 0:
            return p == base
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MR_BASES:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Moduli already proven prime, so that a program working over one field
# runs Miller-Rabin once, not once per scalar, matrix or parameter set.
# A composite is never stored, so it is rejected at every call; the memo is
# emptied when it reaches _PRIME_MEMO_SIZE moduli.  Only an int is looked
# up: a float equal to a stored prime goes to is_prime, which rejects it.
_PRIME_MEMO_SIZE = 64
_proven_primes: set[int] = set()


def _check_modulus(modulus: int | None) -> None:
    if modulus is None or type(modulus) is int and modulus in _proven_primes:
        return
    if not is_prime(modulus):
        raise ChristoffelError(f"modulus {modulus} is not prime")
    if len(_proven_primes) >= _PRIME_MEMO_SIZE:
        _proven_primes.clear()
    _proven_primes.add(modulus)


def _lift(x, modulus: int | None):
    """x as a raw value of the given kind: a Fraction over Q, an int in
    [0, p) over GF(p)."""
    if isinstance(x, FieldScalar):
        if x.modulus != modulus:
            raise KindMismatchError(
                f"cannot coerce scalar of modulus {x.modulus} to modulus {modulus}")
        return x.value
    if modulus is None:
        return Fraction(x)
    if isinstance(x, int):
        return x % modulus
    x = Fraction(x)
    if x.denominator % modulus == 0:
        raise ZeroDivisionError(f"{x} has no value modulo {modulus}")
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _scalar(value, modulus: int | None) -> "FieldScalar":
    """A scalar from a raw value of its kind, whose modulus was checked before."""
    out = object.__new__(FieldScalar)
    out.value = value
    out.modulus = modulus
    return out


class FieldScalar:
    """An exact field element: a rational, or a residue modulo a prime.

    ``value`` is a :class:`fractions.Fraction` when ``modulus`` is None,
    otherwise an int in ``[0, modulus)``.  Arithmetic between different
    kinds (or different moduli) raises :class:`KindMismatchError`;
    division by zero raises ``ZeroDivisionError``.  Plain ints and
    Fractions combine with either kind from both sides; other operand
    types raise ``TypeError``.  A scalar equals, and hashes like, its
    value: a residue equals only the int in [0, p) that represents it.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus: int | None = None):
        _check_modulus(modulus)
        self.value = _lift(value, modulus)
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
        return x if isinstance(x, FieldScalar) and x.modulus == modulus else cls(x, modulus)

    def is_zero(self) -> bool:
        return self.value == 0

    def _new(self, value) -> "FieldScalar":
        return _scalar(value if self.modulus is None else value % self.modulus,
                       self.modulus)

    def _operand(self, other):
        """The raw value of other in this kind; None for an unsupported type."""
        if isinstance(other, FieldScalar):
            if self.modulus != other.modulus:
                raise KindMismatchError(
                    f"mixed scalar kinds: {self!r} and {other!r}")
            return other.value
        if isinstance(other, (int, Fraction)):
            return _lift(other, self.modulus)
        return None

    def _reciprocal(self, value):
        if value == 0:
            raise ZeroDivisionError("division by zero field scalar")
        return 1 / value if self.modulus is None else pow(value, -1, self.modulus)

    def __add__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(self.value + v)

    def __sub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(self.value - v)

    def __rsub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(v - self.value)

    def __mul__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(self.value * v)

    def __truediv__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(self.value * self._reciprocal(v))

    def __rtruediv__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else self._new(v * self._reciprocal(self.value))

    def __neg__(self):
        return self._new(-self.value)

    def __pow__(self, exponent: int):
        # Int exponents only (operator.index): a fractional power leaves the field.
        try:
            exponent = index(exponent)
        except TypeError:
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.modulus is None:
            return self._new(self.value ** exponent)
        return self._new(pow(self.value, exponent, self.modulus))

    def inverse(self) -> "FieldScalar":
        return self._new(self._reciprocal(self.value))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        if self.modulus is None:
            return str(self.value)
        return f"{self.value} mod {self.modulus}"

    def __repr__(self):
        return f"FieldScalar({self})"

    @classmethod
    def parse(cls, text: str) -> "FieldScalar":
        """Inverse of ``str``: accepts "p/q", "p", "v mod p" (or "v%p").
        The text is split at its first separator, so a second one makes
        the modulus malformed."""
        text = text.strip()
        for sep in (" mod ", "%"):
            if sep in text:
                v, _, p = text.partition(sep)
                return cls.residue(int(v.strip()), int(p.strip()))
        return cls.rational(Fraction(text))


class ExactMatrix:
    """Immutable dense matrix over Q or GF(p).

    ``modulus`` (None over Q) is stored once, and the entries as one tuple
    of ints, row by row, over one positive common denominator ``den``:
    entry k is ``ints[k] / den``.  Over Q the pair is in lowest terms
    (gcd(den, *ints) = 1); over GF(p), den = 1 and the ints lie in
    [0, p).  The form is canonical, so equal matrices compare and hash
    equal.  ``values``, ``entries``, ``entry``, ``row`` and ``column`` are
    read-only views: raw values (Fractions over Q, ints over GF(p)), or
    FieldScalars of the matrix's kind.  Two slots are derived data, and
    equality, hashing and printing ignore them.  ``_max``, the largest
    |stored int|, sizes the slots of ``mat_mul`` over Q; it is set by the
    constructors that know it and found once otherwise.  ``_step`` is s
    when the matrix is an n x n rotation table, n >= 1, whose row i is
    row 0 rotated left by i s (s a unit mod n), and None otherwise; it is
    set only by the constructors that build such a table (``identity``,
    ``bwgroup.christoffel_matrix`` and the rotation route of ``mat_mul``)
    and is never looked for.
    """

    __slots__ = ("rows", "cols", "modulus", "ints", "den", "_max", "_step")

    def __init__(self, rows: int, cols: int, entries: Sequence[FieldScalar]):
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        bad = next((e for e in entries if not isinstance(e, FieldScalar)), None)
        if bad is not None:
            raise TypeError(f"matrix entries must be FieldScalar, got {type(bad).__name__}")
        moduli = {e.modulus for e in entries}
        if len(moduli) > 1:
            raise KindMismatchError(f"mixed scalar kinds in matrix: {moduli}")
        modulus = moduli.pop() if moduli else None
        ints, den = _integer_form([e.value for e in entries], modulus)
        self.rows, self.cols, self.modulus, self.ints, self.den, self._max, self._step = \
            rows, cols, modulus, tuple(ints), den, None, None

    @classmethod
    def _trusted(cls, rows: int, cols: int, modulus: int | None, ints: tuple[int, ...],
                 den: int = 1, max_abs: int | None = None, *,
                 step: int | None = None) -> "ExactMatrix":
        """Wrap an int tuple that is in the canonical form by construction
        (see ``_integer_form`` and ``_reduced``), without checking it;
        max_abs, when given, is the largest |x| over the ints, and step,
        when given, the rotation step of the table (see the class)."""
        out = object.__new__(cls)
        out.rows, out.cols, out.modulus, out.ints, out.den, out._max, out._step = \
            rows, cols, modulus, ints, den, max_abs, step
        return out

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[ScalarLike]],
                  modulus: int | None = None) -> "ExactMatrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatchError("ragged rows")
        _check_modulus(modulus)
        ints, den = _integer_form([x for r in data for x in r], modulus)
        return cls._trusted(len(data), ncols, modulus, tuple(ints), den)

    @classmethod
    def identity(cls, n: int, modulus: int | None = None) -> "ExactMatrix":
        _check_modulus(modulus)
        # Row i is e_i, row 0 rotated left by -i: a 1 at every (n + 1)-th int.
        ints = tuple(([1] + [0] * n) * n)[:n * n]
        return cls._trusted(n, n, modulus, ints, 1, min(n, 1), step=n - 1 if n else None)

    def _max_abs(self) -> int:
        """The largest |x| over the stored ints, found once."""
        if self._max is None:
            ints = self.ints
            self._max = max(max(ints), -min(ints)) if ints else 0
        return self._max

    @property
    def values(self) -> tuple:
        """Raw entries row by row: Fractions over Q, ints in [0, p) over
        GF(p), which are the stored ints themselves."""
        if self.modulus is not None:
            return self.ints
        den = self.den
        return tuple([Fraction(x, den) for x in self.ints])

    @property
    def entries(self) -> tuple[FieldScalar, ...]:
        den, modulus = self.den, self.modulus
        return tuple([_read(x, den, modulus) for x in self.ints])

    def entry(self, i: int, j: int) -> FieldScalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRangeError(
                f"entry ({i}, {j}) outside a {self.rows} x {self.cols} matrix")
        return _read(self.ints[i * self.cols + j], self.den, self.modulus)

    def row(self, i: int) -> tuple[FieldScalar, ...]:
        if not 0 <= i < self.rows:
            raise IndexOutOfRangeError(f"row {i} outside [0, {self.rows})")
        den, modulus = self.den, self.modulus
        return tuple([_read(x, den, modulus)
                      for x in self.ints[i * self.cols:(i + 1) * self.cols]])

    def column(self, j: int) -> tuple[FieldScalar, ...]:
        if not 0 <= j < self.cols:
            raise IndexOutOfRangeError(f"column {j} outside [0, {self.cols})")
        return tuple(self.entry(i, j) for i in range(self.rows))

    def to_string_rows(self) -> list[list[str]]:
        """The entries as ``str`` of their scalars, row by row; each
        distinct stored int is formatted once."""
        den, modulus, cols = self.den, self.modulus, self.cols
        text = {x: str(_read(x, den, modulus)) for x in set(self.ints)}
        strings = list(map(text.__getitem__, self.ints))
        return [strings[i * cols:(i + 1) * cols] for i in range(self.rows)]

    def to_json(self) -> str:
        """Canonical serialization: JSON rows of scalar strings."""
        import json
        return json.dumps(self.to_string_rows(), separators=(",", ":"))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.modulus, self.den, self.ints) \
            == (other.rows, other.cols, other.modulus, other.den, other.ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self.modulus, self.den, self.ints))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {self.to_string_rows()})"


# Only the three functions below build, reduce and read the canonical form
# of the module docstring, which ExactMatrix shares with bwgroup's
# parameters and triples.

def _integer_form(values: list, modulus: int | None) -> tuple[list[int], int]:
    """Ints, Fractions or scalars of the given kind in the canonical form.
    Over Q the denominator is the least common one, which leaves the ints
    in lowest terms: a prime power exactly dividing it divides one value's
    reduced denominator and so not that value's int.  Over Q, a value of
    type int or Fraction (not a bool, not a subclass) gives its numerator
    and denominator as it is, and all-int values pass through unchanged;
    every other value is lifted to a Fraction first."""
    if modulus is not None:
        return [x % modulus if type(x) is int else _lift(x, modulus) for x in values], 1
    if all(type(x) is int for x in values):
        return values, 1
    lifted = [x if type(x) is int or type(x) is Fraction else _lift(x, None) for x in values]
    den = lcm(*(x.denominator for x in lifted))
    return [x.numerator * (den // x.denominator) for x in lifted], den


def _reduced(ints: Sequence[int], den: int, modulus: int | None) -> tuple[Sequence[int], int]:
    """The values ints[k] / den in the canonical form, den a unit of the
    kind: nonzero over Q, prime to p over GF(p).  A denominator of 1 takes
    no gcd over Q and no inverse over GF(p)."""
    if modulus is not None:
        if den == 1:
            return [x % modulus for x in ints], 1
        u = pow(den, -1, modulus)
        return [x * u % modulus for x in ints], 1
    if den != 1:
        # Dividing by -gcd when den < 0 also makes den positive.
        g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
        if g != 1:
            return [x // g for x in ints], den // g
    return ints, den


def _read(x: int, den: int, modulus: int | None) -> FieldScalar:
    """The scalar x / den: a Fraction over Q, the residue x over GF(p)."""
    return _scalar(Fraction(x, den) if modulus is None else x, modulus)


# (size in bytes, native signed format) of the machine words, smallest first.
_WORDS = tuple((struct.calcsize(f), f) for f in "bhiq")
_BIG_ENDIAN = sys.byteorder == "big"


def _slots(bound: int) -> tuple[int, str | None]:
    """(width, fmt): slots of ``width`` bytes hold every int of |x| <= bound
    and a spare top bit for the sign.  A width of at most 8 bytes is
    rounded up to 1, 2, 4 or 8, the machine word of ``array`` format fmt;
    a wider slot has fmt None and is written and read one
    ``int.to_bytes``/``int.from_bytes`` at a time."""
    width = bound.bit_length() // 8 + 1
    return next(((w, f) for w, f in _WORDS if w >= width), (width, None))


def _half_slots(count: int, width: int) -> int:
    """Half a slot, 2^(8 width - 1), in each of count slots."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")


def _pack(ints: Sequence[int], width: int, fmt: str | None) -> bytes:
    """The ints in slots of width bytes, slot 0 first, each in two's
    complement and little-endian."""
    if fmt is None:
        return b"".join(x.to_bytes(width, "little", signed=True) for x in ints)
    words = array(fmt, ints)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tobytes()


def _unpack(blob: bytes, width: int, fmt: str | None) -> list[int]:
    """The ints of the slots of blob, the inverse of ``_pack``."""
    if fmt is None:
        return [int.from_bytes(blob[s:s + width], "little", signed=True)
                for s in range(0, len(blob), width)]
    words = array(fmt, blob)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _bound(a: "ExactMatrix", b: "ExactMatrix") -> int:
    """A bound on |x| for every entry of a and of b and every sum of a.cols
    products of one entry of each: over Q from each factor's stored
    largest |int| (see ``ExactMatrix``), over GF(p) from residues in
    [0, p)."""
    k, p = a.cols, a.modulus
    if p is None:
        return max(k * a._max_abs(), 1) * max(b._max_abs(), 1)
    return max(k, 1) * (p - 1) ** 2


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product over the product of the denominators.

    M is a rotation table with step s when M_ij = f[(j + i s) mod n] for
    its row 0 f (indices mod n); the step is recorded by the constructors
    that know it (see ``ExactMatrix``).  For two such n x n tables,
    j' = j + i s1 gives

        (M1 M2)_il = sum_j f1[j + i s1] f2[l + j s2] = g[(l - i s1 s2) mod n],
        g[t] = sum_j f1[j] f2[t + j s2],

    so the product is the rotation table of g with step -s1 s2.  Every
    recorded step is a unit mod n, so with h[u] = f2[s2 u], g[t] =
    c[s2^(-1) t] for the cyclic correlation c[t] = sum_j f1[j] h[t + j] of
    f1 with h.  ``_rotation_product`` permutes the other factor instead:
    with j = s2^(-1) v, g[t] = sum_v k[v] f2[t + v] for k[v] = f1[s2^(-1) v],
    so g is itself a correlation, one integer product (Kronecker
    substitution) of k reversed in n slots with f2 twice over in 2n
    slots, g[t] in slot n - 1 + t.  Only the n values of g are brought to
    the canonical form, and the table's rows are n slices of g twice over.
    The route reads the factors' entries and steps only.

    Any other pair takes ``_packed_product``: row t of b packed into one
    integer, and row i of the product P_i = sum_t a_it * packed_t built
    from the bottom up through the differenced rows of a (see
    ``_differenced``): P_{n-1} is the last row of a times the packed rows,
    and P_i = P_{i+1} + sum_t d_it * packed_t with d_i = a_i - a_{i+1},
    summed over the nonzero d_it only.  A left factor whose consecutive
    rows differ by one adjacent exchange, as a Christoffel table given
    entry by entry does, then costs two big-int products per row instead
    of k.

    On both routes a slot holds any entry of either factor and any sum of
    k products of their entries: over Q at most k * max|a| * max|b| in
    size, over GF(p) at most k * (p-1)^2 (``_bound``), with a spare top
    bit for the sign.  Adding half a slot to every slot makes each slot
    nonnegative, so no borrow crosses a slot; flipping each slot's top bit
    back leaves its entry in two's complement (``_slots``, ``_pack``).
    """
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.modulus != b.modulus:
        raise KindMismatchError("mixed scalar kinds in product")
    if a._step is None or b._step is None:
        return _packed_product(a, b)
    return _rotation_product(a, b)


def _rotation_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a b for two n x n rotation tables with recorded steps, by the one
    correlation of ``mat_mul``."""
    n, p, s2 = a.rows, a.modulus, b._step
    width, fmt = _slots(_bound(a, b))
    f1, inverse = a.ints[:n], pow(s2, -1, n)
    half = _half_slots(n, width)
    twice = half | half << (8 * width * n)
    left = _pack([f1[inverse * v % n] for v in range(n - 1, -1, -1)], width, fmt)
    left = (int.from_bytes(left, "little") ^ half) - half
    right = (int.from_bytes(_pack(b.ints[:n], width, fmt) * 2, "little") ^ twice) - twice
    # Half a slot added to the slots below 2n makes them nonnegative, so
    # slots n - 1 .. 2n - 2 are read off one shift and one mask.
    g = ((left * right + twice) >> 8 * width * (n - 1)) & ((1 << 8 * width * n) - 1)
    g, den = _reduced(_unpack((g ^ half).to_bytes(width * n, "little"), width, fmt),
                      a.den * b.den, p)
    step = -a._step * s2 % n
    # A unit step is 0 only at n = 1, whose one row is at offset 0.
    ints = _rotations(g, range(0, n * step, step) if step else (0,))
    return ExactMatrix._trusted(n, n, p, tuple(ints), den, max(max(g), -min(g)), step=step)


def _rotations(f: list, offsets: Iterable[int]) -> list:
    """The entries, row by row, of the table whose row k is the list f
    rotated left by offsets[k] mod n (n = len(f) >= 1): one slice of f
    doubled per row, each appended to one list.  Every table whose rows
    are rotations of one row is emitted here: Christoffel tables, their
    products and Burrows-Wheeler tables."""
    n = len(f)
    doubled, out = f * 2, []
    for k in offsets:
        k %= n
        out += doubled[k:k + n]
    return out


def _packed_product(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a b by one packed integer per row of b and the differenced rows of
    a (see ``mat_mul``); the factors' shapes and kinds must agree."""
    n, k, m, p = a.rows, a.cols, b.cols, a.modulus
    width, fmt = _slots(_bound(a, b))
    size = width * m
    offset = _half_slots(m, width)
    raw = _pack(b.ints, width, fmt)
    packed = [(int.from_bytes(raw[t * size:(t + 1) * size], "little") ^ offset) - offset
              for t in range(k)]
    # d holds the rows d_0..d_{n-2}, one after the other.
    d = list(map(sub, a.ints, a.ints[k:]))
    total = sum(map(mul, a.ints[(n - 1) * k:n * k], packed))
    sums = [total] if n else []
    for i in range(n - 2, -1, -1):
        row = d[i * k:(i + 1) * k]
        total += sum(map(mul, compress(row, row), compress(packed, row)))
        sums.append(total)
    blob = b"".join(((x + offset) ^ offset).to_bytes(size, "little") for x in reversed(sums))
    ints, den = _reduced(_unpack(blob, width, fmt), a.den * b.den, p)
    return ExactMatrix._trusted(n, m, p, tuple(ints), den)


def _eliminate(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of the square integer matrix m,
    in place, with row swaps and row negations; every division is exact.

    Column c gets its pivot at row c.  A negative pivot's row is negated,
    so every pivot is positive.  After a run of pivots 1, as on the 0/+-1
    rows of a differenced Christoffel table, the next pivot 1 equals the
    divisor and the rows with 0 in its column are left as they are.
    Afterwards the last entry of the last row is the determinant of the
    row-swapped and row-negated matrix.  Returns the sign of the swaps and
    negations (each flips it), or 0 once a column has no nonzero entry at
    or below its row (m is then singular).
    """
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        if m[c][c] == 0:
            swap = next((i for i in range(c + 1, n) if m[i][c]), None)
            if swap is None:
                return 0
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        if m[c][c] < 0:
            m[c] = [-x for x in m[c]]
            sign = -sign
        pivot, tail = m[c][c], m[c][c + 1:]
        below = m[c + 1:]
        # A row with 0 in the pivot column is only scaled by pivot / prev,
        # so it is left out when they are equal.
        for row in below if pivot != prev else [row for row in below if row[c]]:
            f = row[c]
            row[c + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = pivot
    return sign


def _differenced(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """D = T G = [g_0 - g_1, ..., g_{k-1} - g_k, g_k] for the rows g_0..g_k
    of G, where T is upper bidiagonal, 1 on the diagonal and -1 above it,
    so det T = 1."""
    return [list(map(sub, g, h)) for g, h in zip(rows, rows[1:])] + [list(g) for g in rows[-1:]]


def _det_by_elimination(rows: Sequence[Sequence[int]], modulus: int | None = None) -> int:
    """det M of the n x n integer matrix M by elimination of its
    differenced rows D (det T = 1, see ``_differenced``): over Q by one
    Bareiss elimination, each nonzero row of D first divided by its
    content and the contents multiplied back in; over GF(p), the residue
    in [0, p), by Gaussian elimination of D reduced mod p.  The 0 x 0
    matrix has det 1."""
    m = _differenced(rows)
    if modulus is not None:
        for row in m:
            row[:] = [x % modulus for x in row]
        return _det_mod(m, modulus)
    if not m:
        return 1
    content = 1
    for i, row in enumerate(m):
        g = gcd(*row)
        if g > 1:
            m[i] = [x // g for x in row]
            content *= g
    return content * _eliminate(m) * m[-1][-1]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix M, by one Bareiss
    elimination of its differenced rows, det M = det(T M)
    (``_det_by_elimination``)."""
    if any(len(r) != len(rows) for r in rows):
        raise DimensionMismatchError("matrix is not square")
    return _det_by_elimination(rows)


def _det_mod(m: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p of the matrix of residues m, by
    Gaussian elimination in place.  Each row swap flips the sign, each
    pivot multiplies the determinant, and every entry is reduced mod p
    at every step, so none exceeds p^2."""
    det = 1
    for k, pivot_row in enumerate(m):
        if pivot_row[k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            pivot_row, det = m[k], -det
        pivot = pivot_row[k]
        det = det * pivot % p
        inverse, tail = pow(pivot, -1, p), pivot_row[k + 1:]
        for row in m[k + 1:]:
            f = row[k] * inverse % p
            if f:
                row[k + 1:] = [(x - f * y) % p for x, y in zip(row[k + 1:], tail)]
    return det % p


def det_exact(a: ExactMatrix) -> FieldScalar:
    """Exact determinant of a square matrix.

    The stored ints form an integer matrix, whose determinant divided by
    den^n is the answer over Q and reduced mod p is the answer over GF(p).
    A matrix that carries a rotation step is read off its row 0 when its
    row differences form a path (``_rotation_det``); any other matrix,
    of either kind, takes one elimination of its differenced rows
    (``_det_by_elimination``).
    """
    if a.rows != a.cols:
        raise DimensionMismatchError(f"determinant of {a.rows}x{a.cols} matrix")
    n, p = a.rows, a.modulus
    det = None if a._step is None else _rotation_det(a.ints[:n], a._step)
    if det is None:
        det = _det_by_elimination([a.ints[i * n:(i + 1) * n] for i in range(n)], p)
    return _read(det, a.den ** n, None) if p is None else _scalar(det % p, p)


def _rotation_det(f: Sequence[int], s: int) -> int | None:
    """det M of the n x n rotation table M with row 0 f and step s (row i
    is f rotated left by i s, s a unit mod n), read off f, or None when
    n = 1 or the row differences of M do not form a path.

    Row i - row (i + 1) is delta = f - (f rotated left by s), rotated left
    by i s.  When delta's only nonzeros are d at c = (-1 - s) mod n and -d
    at c + 1, pair i is the edge at column j_i = (c - i s) mod n, and the
    j_i for i < n - 1 are the columns 0..n-2, each once (j_{n-1} would be
    n - 1).  For n >= 2 these are exactly the stepped tables whose every
    row pair differs by one scaled adjacent exchange, no column repeated:
    an edge at any other column reaches column n - 1 at some pair
    i < n - 1, where it wraps.  Then det M = sign(pi) d^(n-1) sum(f) with
    pi(i) = j_i, pi(n - 1) = n - 1.  Any other delta gives None.
    """
    n = len(f)
    c = (-1 - s) % n
    delta = list(map(sub, f, f[s:] + f[:s]))
    d = delta[c]
    if not d or delta[c + 1] != -d or delta.count(0) != n - 2:
        return None
    edges = list(map(n.__rmod__, range(c, c - (n - 1) * s, -s)))
    edges.append(n - 1)
    return _cycle_sign(edges) * d ** (n - 1) * sum(f)
