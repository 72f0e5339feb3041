"""Reference code the output checks use.

Everything here is written from the definitions and imports nothing from
``christoffel``, so a check built on it does not share code with the
library it checks.
"""

from __future__ import annotations

from fractions import Fraction


def continuant(xs) -> int:
    value, prev = 1, 0
    for x in xs:
        value, prev = value * x + prev, value
    return value


def word_length(quotients) -> int:
    """Length of the Christoffel word of slope [q0; q1, ...]: K(q0..) + K(q1..)."""
    return continuant(quotients) + continuant(quotients[1:])


def fib(m: int) -> int:
    a, b = 1, 0
    for _ in range(m):
        a, b = b, a + b
    return b


def next_prime(n: int) -> int:
    p = n + 1
    while p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        p += 1
    return p


def christoffel_entry(i: int, j: int, n: int, r: int) -> bool:
    """Entry (i, j) of the BW table of the order-n word with r high letters is high."""
    return (i + (n - r) * j) % n < r


def lower_christoffel(ones: int, zeros: int) -> tuple[int, ...]:
    """Lower Christoffel word over {0, 1}: letter j is 1 iff (n-1 + q j) mod n < r."""
    n = ones + zeros
    return tuple(int((n - 1 + zeros * j) % n < ones) for j in range(n))


def is_primitive(t: tuple) -> bool:
    n = len(t)
    return n > 0 and all(t[:d] * (n // d) != t for d in range(1, n) if n % d == 0)


def is_lyndon(t: tuple) -> bool:
    return len(t) > 0 and all(t < t[i:] + t[:i] for i in range(1, len(t)))


def is_perfectly_clustering(t: tuple) -> bool:
    """The last column of the decreasingly sorted rotation table is nondecreasing."""
    starts = sorted(range(len(t)), key=lambda i: t[i:] + t[:i], reverse=True)
    last = [t[i - 1] for i in starts]
    return all(x <= y for x, y in zip(last, last[1:]))


def is_palindrome(s) -> bool:
    return s == s[::-1]


def mul_sign(r: int, n: int) -> int:
    """Sign of x -> r x on Z/nZ, by walking its cycles."""
    seen = bytearray(n)
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = 1
                x = (r * x) % n
    return 1 if (n - cycles) % 2 == 0 else -1


def iet_images(parts) -> list[int]:
    """Interval exchange: the h-th interval maps increasingly onto the
    (l+1-h)-th interval of the reversed cut."""
    starts, acc = [], 0
    for c in parts:
        starts.append(acc)
        acc += c
    rev_starts, acc = [], 0
    for c in reversed(parts):
        rev_starts.append(acc)
        acc += c
    images = [0] * acc
    ell = len(parts)
    for h, c in enumerate(parts):
        for k in range(c):
            images[starts[h] + k] = rev_starts[ell - 1 - h] + k
    return images


def cycle_count(images) -> int:
    seen = bytearray(len(images))
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = 1
                x = images[x]
    return count


def iet_encoding(parts) -> tuple[int, ...]:
    """Interval indices along the cycle from 0 of a circular exchange."""
    images = iet_images(parts)
    bounds, acc = [], 0
    for c in parts:
        acc += c
        bounds.append(acc)
    out = []
    x = 0
    while True:
        out.append(next(h for h, b in enumerate(bounds) if x < b))
        x = images[x]
        if x == 0:
            return tuple(out)


def covering_word(quotients, n: int) -> tuple[int, int]:
    """(ones, zeros) of the first semiconvergent Christoffel word longer than n."""
    for m, top in enumerate(quotients):
        for h in range(1, top + 1):
            cf = tuple(quotients[:m]) + (h,)
            ones, zeros = continuant(cf), continuant(cf[1:])
            if ones + zeros >= n + 1:
                return ones, zeros
    raise ValueError(f"prefix {quotients} does not cover length {n}")


def detvec_error(v, ones: int, zeros: int, n: int) -> str | None:
    """Check that v spans the left kernel of G_n, the factor matrix of the
    Christoffel word with the given letter counts.

    The rows of that word's decreasingly sorted rotation table follow the
    residue rule, so consecutive rows i-1, i differ only in the columns j
    with (i + q j) mod N in {0, r}; the distinct length-n factors are the
    rows where such a column is below n.  Column j of the table is high on
    the cyclic row interval starting at -q j of length r, so each column
    sum of v^T G_n is a difference of prefix sums.
    """
    big_n = ones + zeros
    if len(v) != n + 1:
        return f"V_{n} has {len(v)} components, expected {n + 1}"
    if not any(v):
        return f"V_{n} is zero"
    q_inv = pow(zeros, -1, big_n)
    starts = [0] + [i for i in range(1, big_n)
                    if min((ones - i) * q_inv % big_n, -i * q_inv % big_n) < n]
    if len(starts) != n + 1:
        return f"reference found {len(starts)} factors of length {n}"
    weight = [0] * big_n
    for k, i in enumerate(starts):
        weight[i] = v[k]
    prefix = [0]
    for w in weight + weight:
        prefix.append(prefix[-1] + w)
    for j in range(n):
        s = -zeros * j % big_n
        if prefix[s + ones] != prefix[s]:
            return f"V_{n} is not in the left kernel of G_{n} (column {j})"
    return None


def det_fraction(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def mat_mul(a, b):
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def christoffel_rows(n: int, a, b, r: int):
    return [[b if christoffel_entry(i, j, n, r) else a for j in range(n)] for i in range(n)]

