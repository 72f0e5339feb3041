"""Continuants, continued fractions, semi-convergents and Stern-Brocot paths.

The product P(x1)...P(xn) of the matrices P(a) = [[a,1],[1,0]] is
[[K(x1..xn), K(x1..x_{n-1})], [K(x2..xn), K(x2..x_{n-1})]], where K is the
continuant polynomial (K() = 1, K(x1) = x1).  So the finite continued
fraction [n0,...,nk] = K(n0..nk)/K(n1..nk) is read off the first column.
Every continuant here comes from that one product, multiplied as a
balanced tree so that CPython's Karatsuba multiply keeps long quotient
lists subquadratic; the continuant recurrence and the left-to-right
fold serve only as test references.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from ._frozen import Frozen
from .errors import InvalidCFError, InvalidSlopeError, OutOfRangeError
from .words import SlopeRatio

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def p_matrix(a: int) -> Matrix2:
    return ((a, 1), (1, 0))


def mat2_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def p_product(quotients: Sequence[int]) -> Matrix2:
    """P(n0)...P(nk); entries are the four continuants of the quotient string.

    Neighbours are multiplied pairwise, level by level, so the factors of
    each multiplication have about the same size; the empty product is
    the identity.
    """
    level = [p_matrix(a) for a in quotients]
    if not level:
        return ((1, 0), (0, 1))
    while len(level) > 1:
        paired = [mat2_mul(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def continuant(xs: Sequence[int]) -> int:
    """K(x1..xn), for any ints; K() = 1."""
    return p_product(xs)[0][0]


class ContinuedFraction(Frozen):
    """A finite continued fraction [n0; n1, n2, ...] with n0 >= 0, rest >= 1."""

    __slots__ = ("quotients",)

    def __init__(self, quotients: Sequence[int]):
        q = tuple(quotients)
        if not q:
            raise InvalidCFError("empty continued fraction")
        if q[0] < 0 or any(x < 1 for x in q[1:]):
            raise InvalidCFError(f"invalid partial quotients {list(q)}")
        object.__setattr__(self, "quotients", q)

    @classmethod
    def from_slope(cls, slope: SlopeRatio) -> "ContinuedFraction":
        """Canonical expansion of a finite slope (last quotient >= 2 unless [n0])."""
        if slope.zeros == 0:
            raise InvalidCFError("slope 1/0 has no finite expansion")
        p, q = slope.ones, slope.zeros
        quotients = []
        while q:
            quotients.append(p // q)
            p, q = q, p % q
        return cls(tuple(quotients))

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        """Accepts "[n0;n1,n2]" or "n0,n1,n2"."""
        text = text.strip().strip("[]").replace(";", ",")
        return cls(tuple(int(t) for t in text.split(",")))

    def normalized(self) -> "ContinuedFraction":
        """Fold a trailing quotient 1 into its predecessor."""
        q = self.quotients
        if len(q) > 1 and q[-1] == 1:
            return ContinuedFraction(q[:-2] + (q[-2] + 1,))
        return self

    def value(self) -> SlopeRatio:
        """K(n0..nk) / K(n1..nk), the first column of P(n0)...P(nk)."""
        (num, _), (den, _) = p_product(self.quotients)
        return SlopeRatio(num, den)

    def __str__(self):
        head, *rest = self.quotients
        return f"[{head};{','.join(map(str, rest))}]" if rest else f"[{head}]"


def semiconvergents(cf: ContinuedFraction) -> Iterator[SlopeRatio]:
    """All [n0,...,n_{m-1},h] with 1 <= h <= n_m, in tree order, lazily.

    With the convergents p_k/q_k = [n0,...,n_k], seeded by p_{-1}/q_{-1}
    = 1/0 and p_{-2}/q_{-2} = 0/1, item (m, h) is
    (h p_{m-1} + p_{m-2}) / (h q_{m-1} + q_{m-2}): each costs O(1)
    big-int steps, and a caller may stop at the item it needs.  There are
    sum(n_k) items, and their lengths increase strictly from 2.
    """
    p1, q1, p2, q2 = 1, 0, 0, 1
    for a in cf.quotients:
        for h in range(1, a + 1):
            yield SlopeRatio(h * p1 + p2, h * q1 + q2)
        p1, q1, p2, q2 = a * p1 + p2, a * q1 + q2, p1, q1


def christoffel_length(cf: ContinuedFraction) -> int:
    """Length of the Christoffel word of this slope: K(n0..nk) + K(n1..nk)."""
    (num, _), (den, _) = p_product(cf.quotients)
    return num + den


class StandardSplitMatrix(Frozen):
    """P(n0)...P(n_{m-1})P(n_m - 1) with the parity of m.

    For m even the columns are the (ones, zeros) count vectors of the two
    standard factors w', w''; for m odd the columns are swapped.
    """

    __slots__ = ("matrix", "m_even")

    def __init__(self, matrix: Matrix2, m_even: bool):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "m_even", m_even)

    def factor_counts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """((|w'|_1, |w'|_0), (|w''|_1, |w''|_0)) after undoing the swap."""
        ((x00, x01), (x10, x11)) = self.matrix
        if self.m_even:
            return (x00, x10), (x01, x11)
        return (x01, x11), (x00, x10)


def ppp_factorization(cf: ContinuedFraction) -> StandardSplitMatrix:
    """Standard-factorization counts of the Christoffel word of slope cf."""
    q = cf.quotients
    if q == (0,):  # the only valid expansion whose value K(n0..nk) is 0
        raise InvalidCFError(f"slope {cf} has no standard factorization")
    m = len(q) - 1
    product = p_product(q[:-1] + (q[-1] - 1,))
    return StandardSplitMatrix(product, m % 2 == 0)


def density_from_slope(s: SlopeRatio) -> Fraction:
    """Frequency of the high letter among all letters: S = s/(1+s)."""
    if s.ones < 1 or s.zeros < 1:
        raise OutOfRangeError(f"slope {s} has no density in (0, 1)")
    return Fraction(s.ones, s.ones + s.zeros)


def slope_from_density(density: Fraction) -> SlopeRatio:
    """Inverse map s = S/(1-S), defined for 0 < S < 1."""
    if not 0 < density < 1:
        raise OutOfRangeError(f"density {density} outside (0, 1)")
    return SlopeRatio(density.numerator, density.denominator - density.numerator)


def cf_slope_from_density(cf: ContinuedFraction) -> ContinuedFraction:
    """Quotient-level density-to-slope rule.

    [0,a1,a2,...] maps to [0,a1-1,a2,...] when a1 >= 2 and to [a2,...]
    when a1 = 1; it agrees with the value-level conversion.
    """
    q = cf.quotients
    if q[0] != 0 or len(q) < 2:
        raise OutOfRangeError(f"{cf} is not the expansion of a density in (0, 1)")
    if q[1] >= 2:
        return ContinuedFraction((0, q[1] - 1) + q[2:])
    if len(q) < 3:
        raise OutOfRangeError(f"{cf} equals 1, outside (0, 1)")
    return ContinuedFraction(q[2:])


def cf_density_from_slope(cf: ContinuedFraction) -> ContinuedFraction:
    """Quotient-level slope-to-density rule (inverse of the above)."""
    q = cf.quotients
    if q[0] == 0:
        if len(q) < 2:
            raise OutOfRangeError("slope 0 has density 0, outside (0, 1)")
        return ContinuedFraction((0, q[1] + 1) + q[2:])
    return ContinuedFraction((0, 1) + q)


def stern_brocot_path(slope: SlopeRatio) -> str:
    """Left/right path from 1/1 to the slope, as a word over {l, r}."""
    return _descend(slope)[0]


def stern_brocot_nodes(slope: SlopeRatio) -> list[SlopeRatio]:
    """Mediant-descent nodes from the root 1/1 down to the slope."""
    return _descend(slope)[1]


def _descend(slope: SlopeRatio) -> tuple[str, list[SlopeRatio]]:
    if slope.ones < 1 or slope.zeros < 1:
        raise InvalidSlopeError(f"{slope} is not an interior tree node")
    lo = (0, 1)
    hi = (1, 0)
    node = (1, 1)
    path = []
    nodes = [SlopeRatio(*node)]
    target = (slope.ones, slope.zeros)
    while node != target:
        # compare target with node by cross-multiplication
        if target[0] * node[1] < node[0] * target[1]:
            path.append("l")
            hi = node
        else:
            path.append("r")
            lo = node
        node = (lo[0] + hi[0], lo[1] + hi[1])
        nodes.append(SlopeRatio(*node))
    return "".join(path), nodes
