"""The benchmark's workloads: seeded task lists, task bodies and output checks.

A task is a plain tuple made only from the seed.  ``run(lib, task)`` makes
the library calls a user would make for it (``lib`` is the imported
``christoffel`` package, or a CliSession for ``cli-session``) and is the
timed part.  ``check(task, out)`` returns None or a message; it uses the
cross-routes the library offers and the code in ``reference.py``, and it
is not timed.  ``corrupt(lib, task, out)`` alters one value of an output so
the self-test can show that ``check`` notices.

Task lists are built in rounds.  Every round holds the same sizes (a
log-spaced grid, or every value of a small range); the seed draws the rest
of each input and the order within the round.  A run stops at a round
boundary, so every run measures the same mix of sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import reference as ref

BIG_PRIME = 1_000_000_007


def task_list_digest(tasks) -> str:
    return hashlib.sha256(repr(tasks).encode()).hexdigest()[:16]


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    """The distinct values among ``count`` log-spaced integers from lo to hi."""
    return sorted({round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)})


class Workload:
    """A seeded task list made of ``rounds`` shuffled rounds."""

    name = ""
    rounds = 400
    warmup: tuple = ()
    selftest: tuple = ()

    def round(self, rng: random.Random, index: int) -> list[tuple]:
        raise NotImplementedError

    @property
    def round_size(self) -> int:
        return len(self.round(random.Random(0), 0))

    def generate(self, seed: int) -> list[tuple]:
        rng = random.Random(f"{self.name}/{seed}")
        tasks = []
        for index in range(self.rounds):
            tasks_of_round = self.round(rng, index)
            rng.shuffle(tasks_of_round)
            tasks += tasks_of_round
        return tasks


def coprime_residue(rng: random.Random, n: int) -> int:
    while True:
        r = rng.randint(1, n - 1)
        if gcd(r, n) == 1:
            return r


def _matrix_error(m, n: int, modulus, expected_values, what: str) -> str | None:
    if (m.rows, m.cols) != (n, n):
        return f"{what} is {m.rows}x{m.cols}, expected {n}x{n}"
    if any(x.modulus != modulus for x in m.entries):
        return f"{what} has entries of the wrong kind"
    if [x.value for x in m.entries] != expected_values:
        return f"{what} has a wrong entry"
    return None


class BwMatrixGroup(Workload):
    """Christoffel matrices over Q and GF(p): products, inverses, determinants."""

    name = "bw-matrix-group"
    rounds = 100
    warmup = (("bw", 7, 2, 3, 0, 1, 11),)
    selftest = (("bw", 7, 2, 3, 0, 1, 11),)

    def round(self, rng, index):
        # Orders 5..31 over the next prime above n or 65537 (alternating by
        # round), and orders 5..8 over 1e9+7.  At the seed code every
        # GF(1e9+7) scalar runs a trial-division primality test (about
        # 2 ms), so those tasks keep n <= 8.
        plan = [(n, ref.next_prime(n) if (n + index) % 2 else 65537)
                for n in range(5, 32)]
        plan += [(n, BIG_PRIME) for n in range(5, 9)]
        return [self._task(rng, n, p) for n, p in plan]

    @staticmethod
    def _task(rng, n, p):
        while True:
            r1, r2 = coprime_residue(rng, n), coprime_residue(rng, n)
            a, b = rng.sample(range(-9, 10), 2)
            # Both matrices must lie in the group over Q and over GF(p).
            units = [b - a, (n - r1) * a + r1 * b, (n - r2) * a + r2 * b]
            if all(u != 0 and u % p != 0 for u in units):
                return ("bw", n, r1, r2, a, b, p)

    def run(self, C, task):
        _, n, r1, r2, a, b, p = task
        out = {}
        for kind, modulus in (("Q", None), ("GF(p)", p)):
            p1 = C.params(n, a, b, r1, modulus)
            p2 = C.params(n, a, b, r2, modulus)
            m1 = C.christoffel_matrix(p1)
            m2 = C.christoffel_matrix(p2)
            out[kind] = {
                "product": C.mat_mul(m1, m2),
                "group_product": C.christoffel_matrix(C.group_mul(p1, p2)),
                "det": C.det_exact(m1),
                "det_closed": C.det_closed(p1),
                "times_inverse": C.mat_mul(m1, C.christoffel_matrix(C.group_inverse(p1))),
            }
        out["bw"] = C.bw_matrix(C.lower_christoffel(C.SlopeRatio(r1, n - r1)))
        return out

    def check(self, task, out):
        _, n, r1, r2, a, b, p = task
        identity = [int(i == j) for i in range(n) for j in range(n)]
        for kind, modulus in (("Q", None), ("GF(p)", p)):
            o = out[kind]
            group_product = o["group_product"]
            err = (_matrix_error(group_product, n, modulus,
                                 [x.value for x in group_product.entries], "group product")
                   or _matrix_error(o["product"], n, modulus,
                                    [x.value for x in group_product.entries],
                                    f"{kind}: M1*M2 vs the matrix of group_mul")
                   or _matrix_error(o["times_inverse"], n, modulus, identity,
                                    f"{kind}: M*M^-1"))
            if err:
                return err
            det, closed = o["det"], o["det_closed"]
            if (det.modulus, closed.modulus) != (modulus, modulus) or det.value != closed.value:
                return f"{kind}: det_exact {det} != det_closed {closed}"
        det_q = out["Q"]["det"].value
        if det_q.denominator != 1 or det_q.numerator % p != out["GF(p)"]["det"].value:
            return f"det over Q ({det_q}) mod {p} != det over GF(p)"
        residue = [int(ref.christoffel_entry(i, j, n, r1)) for i in range(n) for j in range(n)]
        return _matrix_error(out["bw"], n, None, residue, "BW table vs the residue rule")

    def corrupt(self, C, task, out):
        m = out["GF(p)"]["product"]
        entries = list(m.entries)
        entries[-1] = C.FieldScalar(entries[-1].value + 1, entries[-1].modulus)
        return dict(out, **{"GF(p)": dict(out["GF(p)"],
                                          product=C.ExactMatrix(m.rows, m.cols, entries))})


class SturmianDetvec(Workload):
    """Determinantal vectors of Sturmian slopes from seeded continued fractions."""

    name = "sturmian-detvec"
    max_n = 2048          # covering word N <= 2n+1; the seed's rotation sort holds N^2 letters
    oracle_max_n = 48     # the exact-minor oracle costs O(n^4)
    final_length_cap = 1 << 17
    warmup = (("detvec", (2, 1, 2), 8),)
    selftest = (("detvec", (2, 1, 2), 8), ("detvec", (1, 2, 3, 1, 2, 2, 3, 1), 120))

    def round(self, rng, index):
        # The k-th size gets (index + k) % 4 extra quotients, so every run
        # holds the same mix of extra-quotient counts at every size.
        return [("detvec", self._prefix(rng, n, (index + k) % 4), n)
                for k, n in enumerate(log_grid(2, self.max_n, 16))]

    def _prefix(self, rng, n, extras):
        """The shortest prefix covering n, then ``extras`` more quotients (capped)."""
        q = [rng.randint(1, 5)]
        while ref.word_length(q) < n + 1:
            q.append(rng.randint(1, 5))
        for _ in range(extras):
            x = rng.randint(1, 5)
            if ref.word_length(q + [x]) > self.final_length_cap:
                break
            q.append(x)
        return tuple(q)

    def run(self, C, task):
        _, quotients, n = task
        slope = C.SturmianSlope.from_quotients(quotients)
        out = {"closed": C.determinantal_vector_closed(slope, n)}
        if n <= self.oracle_max_n:
            out["oracle"] = C.determinantal_vector_oracle(C.factor_matrix(slope, n))
        return out

    def check(self, task, out):
        _, quotients, n = task
        v = tuple(out["closed"].components)
        if "oracle" in out and tuple(out["oracle"].components) != v:
            return f"V_{n}: closed form {v} != oracle {out['oracle'].components}"
        return ref.detvec_error(v, *ref.covering_word(quotients, n), n)

    def corrupt(self, C, task, out):
        v = out["closed"]
        comps = list(v.components)
        comps[len(comps) // 2] *= -1
        return dict(out, closed=dataclasses.replace(v, components=tuple(comps)))


# Perfectly clustering Lyndon word counts from enumerate_pc_words at the
# commit that introduced this benchmark.
GOLDEN_PC_COUNTS = {
    2: {1: 2, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 11: 10, 12: 4,
        13: 12, 14: 6, 15: 8, 16: 8, 17: 16, 18: 6},
    3: {1: 3, 2: 3, 3: 6, 4: 8, 5: 14, 6: 14, 7: 24, 8: 26, 9: 34, 10: 36, 11: 52,
        12: 50},
}


class PcEnumSign(Workload):
    """Short ternary words, interval exchanges and Fibonacci signs."""

    name = "pc-enum-sign"
    rounds = 150
    warmup = (("enum", 5, 3), ("fibsign", 8), ("chain", 4, 7), ("circ", 2, 3, 4))
    selftest = (("enum", 7, 3), ("fibsign", 9), ("chain", 4, 7), ("circ", 3, 5, 6))

    def round(self, rng, index):
        tasks = [("enum", length, 3) for length in range(3, 13)]
        tasks += [("enum", length, 2) for length in range(2, 19)]
        tasks += [("fibsign", m) for m in range(3, 27)]
        for n in log_grid(3, 120, 10):
            gamma = rng.choice([g for g in range(1, n // 2 + 1) if gcd(g, n) == 1])
            tasks.append(("chain", gamma, n - gamma))
        for total in log_grid(3, 3000, 10):
            c1, c2 = sorted(rng.sample(range(1, total), 2))
            tasks.append(("circ", c1, c2 - c1, total - c2))
        return tasks

    def run(self, C, task):
        kind = task[0]
        if kind == "enum":
            return C.enumerate_pc_words(task[1], task[2])
        if kind == "fibsign":
            m = task[1]
            return C.fib_sign(m), C.zolotareff(ref.fib(m - 2), ref.fib(m))
        if kind == "chain":
            return C.restriction_word_chain(task[1], task[2])
        parts = task[1:]
        return C.is_circular(C.build_sigma(C.Composition(parts))), C.pak_redlich_circular(*parts)

    def check(self, task, out):
        return getattr(self, "_check_" + task[0])(task, out)

    @staticmethod
    def _check_enum(task, words):
        _, length, k = task
        if len(words) != GOLDEN_PC_COUNTS[k][length]:
            return f"{len(words)} words of length {length} over {k} letters, " \
                   f"golden count {GOLDEN_PC_COUNTS[k][length]}"
        seen = set()
        for w in words:
            t = tuple(w.letters)
            if (len(t) != length or not set(t) <= set(range(k)) or t in seen
                    or not ref.is_lyndon(t) or not ref.is_perfectly_clustering(t)):
                return f"{w} is not a new perfectly clustering Lyndon word of length {length}"
            seen.add(t)
        return None

    @staticmethod
    def _check_fibsign(task, out):
        m = task[1]
        (sign, cycle_type), zolotareff = out
        if sign != zolotareff:
            return f"fib_sign({m}) = {sign} but zolotareff(F_{m - 2}, F_{m}) = {zolotareff}"
        if sum(length * mult for length, mult in cycle_type.items()) != ref.fib(m):
            return f"cycle type {cycle_type} does not partition F_{m}"
        if sign != (-1) ** sum((length - 1) * mult for length, mult in cycle_type.items()):
            return f"sign {sign} disagrees with the cycle type {cycle_type}"
        return None

    @staticmethod
    def _check_chain(task, chain):
        _, gamma, rho = task
        if len(chain) != gamma + 1 or chain[0][1] is not None:
            return f"chain of ({gamma}, {rho}) has {len(chain)} steps, expected {gamma + 1}"
        prev = None
        for i, (word, pos) in enumerate(chain):
            t = tuple(word.letters)
            if (t.count(0), t.count(1), t.count(2)) != (gamma - i, i, rho - i):
                return f"step {i} of ({gamma}, {rho}) has the wrong letter counts"
            if not (ref.is_lyndon(t) and ref.is_perfectly_clustering(t)):
                return f"step {i} of ({gamma}, {rho}) is not a perfectly clustering Lyndon word"
            # Step i replaces the factor "ac" at 1-based position pos by "b".
            if prev is not None and (prev[pos - 1:pos + 1] != (0, 2)
                                     or prev[:pos - 1] + (1,) + prev[pos + 1:] != t):
                return f"step {i} of ({gamma}, {rho}) is not a merge at position {pos}"
            prev = t
        return None

    @staticmethod
    def _check_circ(task, out):
        parts = task[1:]
        expected = ref.cycle_count(ref.iet_images(parts)) == 1
        if out != (expected, expected):
            return f"composition {parts}: is_circular, pak_redlich = {out}, expected {expected}"
        return None

    def corrupt(self, C, task, out):
        kind = task[0]
        if kind == "enum":
            return out[:-1]
        if kind == "fibsign":
            (sign, cycle_type), zolotareff = out
            return (-sign, cycle_type), zolotareff
        if kind == "chain":
            return out[:1] + out[2:]
        return (not out[0], out[1])


def _cli_christoffel_word(rng, lo=3, hi=40):
    n = rng.randint(lo, hi)
    r = coprime_residue(rng, n)
    return r, n - r, "".join(map(str, ref.lower_christoffel(r, n - r)))


def _cli_group_params(rng, n):
    while True:
        r = coprime_residue(rng, n)
        a, b = rng.sample(range(-5, 6), 2)
        if (n - r) * a + r * b:
            return a, b, r


def _rows(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def _cli_commands():
    """Command name -> (argument maker, result check)."""
    def word_christoffel(rng):
        r, q, _ = _cli_christoffel_word(rng)
        return ["--ones", str(r), "--zeros", str(q)]

    def check_word_christoffel(args, res):
        return res["word"] == "".join(map(str, ref.lower_christoffel(int(args[1]), int(args[3]))))

    def word_factorize(rng):
        return [_cli_christoffel_word(rng)[2]]

    def check_word_factorize(args, res):
        w = args[0]
        left, right = res["standard"]
        halves_ok = all(ref.lower_christoffel(h.count("1"), h.count("0"))
                        == tuple(map(int, h)) for h in (left, right))
        pal = res["palindromic"]
        pal_ok = pal is None or (pal[0] + pal[1] == w and all(map(ref.is_palindrome, pal)))
        return left + right == w and halves_ok and pal_ok

    def word_pc_check(rng):
        while True:
            if rng.random() < 0.5:
                total = rng.randint(4, 16)
                c1, c2 = sorted(rng.sample(range(1, total), 2))
                parts = (c1, c2 - c1, total - c2)
                if ref.cycle_count(ref.iet_images(parts)) != 1:
                    continue
                t = ref.iet_encoding(parts)
            else:
                t = tuple(rng.randrange(3) for _ in range(rng.randint(4, 16)))
            if ref.is_primitive(t):
                return ["".join("abc"[x] for x in t)]

    def check_word_pc_check(args, res):
        t = tuple("abc".index(ch) for ch in args[0])
        return (res["perfectly_clustering"] == ref.is_perfectly_clustering(t)
                and res["christoffel"] in ("lower", "upper", "no"))

    def matrix_christoffel(rng):
        n = rng.randint(3, 15)
        a, b, r = _cli_group_params(rng, n)
        return ["--n", str(n), "--a", str(a), "--b", str(b), "--r", str(r)]

    def check_matrix_christoffel(args, res):
        n, a, b, r = (int(x) for x in args[1::2])
        return _rows(res["matrix"]) == ref.christoffel_rows(n, a, b, r)

    def matrix_mul(rng):
        base = matrix_christoffel(rng)
        a2, b2, r2 = _cli_group_params(rng, int(base[1]))
        return base + ["--a2", str(a2), "--b2", str(b2), "--r2", str(r2)]

    def check_matrix_mul(args, res):
        n, a, b, r, a2, b2, r2 = (int(x) for x in args[1::2])
        expected = ref.mat_mul(ref.christoffel_rows(n, a, b, r), ref.christoffel_rows(n, a2, b2, r2))
        return _rows(res["matrix"]) == expected and res["params"]["r"] == r * r2 % n

    def check_matrix_inv(args, res):
        n, a, b, r = (int(x) for x in args[1::2])
        product = ref.mat_mul(ref.christoffel_rows(n, a, b, r), _rows(res["matrix"]))
        return product == [[int(i == j) for j in range(n)] for i in range(n)]

    def check_matrix_det(args, res):
        n, a, b, r = (int(x) for x in args[1::2])
        own = ref.det_fraction(ref.christoffel_rows(n, a, b, r))
        return res["match"] is True and Fraction(res["det"]) == own == Fraction(res["det_exact"])

    def check_matrix_bw(args, res):
        w = args[0]
        n, r = len(w), w.count("1")
        return _rows(res["matrix"]) == ref.christoffel_rows(n, 0, 1, r)

    def sign_zolotareff(rng):
        n = rng.randint(2, 400)
        return [str(coprime_residue(rng, n)), str(n)]

    def check_sign_zolotareff(args, res):
        return res["sign"] == ref.mul_sign(int(args[0]), int(args[1]))

    def sign_jacobi(rng):
        n = 2 * rng.randint(1, 200) + 1
        return [str(rng.randint(1, 3 * n)), str(n)]

    def check_sign_jacobi(args, res):
        # Zolotareff's lemma: for odd n the Jacobi symbol is the sign of x -> a x.
        a, n = int(args[0]), int(args[1])
        return res["symbol"] == (ref.mul_sign(a % n, n) if gcd(a, n) == 1 else 0)

    def composition(rng, parts_lo=2, parts_hi=4):
        parts = [rng.randint(0, 8) for _ in range(rng.randint(parts_lo, parts_hi))]
        parts[0] += 1
        return ["--composition", ",".join(map(str, parts))]

    def check_iet_sigma(args, res):
        parts = [int(x) for x in args[1].split(",")]
        images = ref.iet_images(parts)
        return res["images"] == images and res["circular"] == (ref.cycle_count(images) == 1)

    def iet_encode(rng):
        while True:
            total = rng.randint(3, 40)
            c1, c2 = sorted(rng.sample(range(1, total), 2))
            parts = (c1, c2 - c1, total - c2)
            if ref.cycle_count(ref.iet_images(parts)) == 1:
                return ["--composition", ",".join(map(str, parts)), "--alphabet", "a,b,c"]

    def check_iet_encode(args, res):
        parts = [int(x) for x in args[1].split(",")]
        return res["word"] == "".join("abc"[x] for x in ref.iet_encoding(parts))

    def check_iet_circular(args, res):
        parts = [int(x) for x in args[1].split(",")]
        return res["circular"] == (ref.cycle_count(ref.iet_images(parts)) == 1)

    def cf_continuant(rng):
        return [",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 8)))]

    def check_cf_continuant(args, res):
        return res["continuant"] == ref.continuant(int(x) for x in args[0].split(","))

    def cf_quotients(rng, head_lo=1):
        q = [rng.randint(head_lo, 3)] + [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        return [",".join(map(str, q))]

    def check_cf_semiconvergents(args, res):
        q = [int(x) for x in args[0].split(",")]
        last = f"{ref.continuant(q)}/{ref.continuant(q[1:])}"
        return len(res["semiconvergents"]) == sum(q) and res["semiconvergents"][-1] == last

    def check_cf_ppp(args, res):
        q = [int(x) for x in args[0].split(",")]
        first, second = res["first_counts"], res["second_counts"]
        return ((first["ones"] + second["ones"], first["zeros"] + second["zeros"])
                == (ref.continuant(q), ref.continuant(q[1:])))

    def cf_convert_slope(rng):
        q = [0, rng.randint(1, 4)] + [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        return [",".join(map(str, q))]

    def check_cf_convert_slope(args, res):
        q = [int(x) for x in args[0].split(",")]
        num, den = ref.continuant(q), ref.continuant(q[1:])
        return res["value"] == f"{num}/{den - num}"

    def sturmian_detvec(rng):
        n = rng.randint(2, 24)
        q = SturmianDetvec()._prefix(rng, n, rng.randint(0, 3))
        return ["--cf", ",".join(map(str, q)), "--len", str(n), "--both"]

    def check_sturmian_detvec(args, res):
        q = tuple(int(x) for x in args[1].split(","))
        n = int(args[3])
        closed = res["closed"]["components"]
        return (res["match"] is True and closed == res["oracle"]
                and ref.detvec_error(closed, *ref.covering_word(q, n), n) is None)

    def sturmian_gchain(rng):
        while True:
            q = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
            lengths = _chain_lengths(q)
            if lengths[-1] <= 30:
                return ["--cf", ",".join(map(str, q)),
                        "--nu", str(rng.randint(1, len(lengths) - 1))]

    def check_sturmian_gchain(args, res):
        q = [int(x) for x in args[1].split(",")]
        nu = int(args[3])
        lengths = _chain_lengths(q)
        big_n, small = lengths[nu], lengths[nu - 1]
        steps = res["steps"]
        return (len(steps) == big_n - small + 1 and steps[0]["merge_row"] is None
                and all(s["n"] == big_n - 1 - i and len(s["rows"]) == s["n"] + 1
                        for i, s in enumerate(steps)))

    def fib_sign(rng):
        return [str(rng.randint(3, 20))]

    def check_fib_sign(args, res):
        m = int(args[0])
        return res["sign"] == ref.mul_sign(ref.fib(m - 2), ref.fib(m))

    def fib_chain(rng):
        return ["--count", str(rng.randint(1, 10))]

    def check_fib_chain(args, res):
        words = res["words"]
        return len(words) == int(args[1]) and all(
            w == "".join(map(str, ref.lower_christoffel(ref.fib(nu + 1), ref.fib(nu + 2))))
            for nu, w in enumerate(words))

    def fib_detvec(rng):
        return ["--len", str(rng.randint(2, 60))]

    def check_fib_detvec(args, res):
        n = int(args[1])
        v = tuple(res["vector"])
        allowed = set(res["values"])
        return ({abs(x) for x in v} <= allowed
                and ref.detvec_error(v, *ref.covering_word((0,) + (1,) * 40, n), n) is None)

    def fib_gcd_lemma(rng):
        return ["--k", str(rng.randint(0, 8))]

    def check_fib_gcd_lemma(args, res):
        k = int(args[1])
        return (res["case_a"], res["case_b"], res["case_c"]) == (True, True,
                                                                True if k >= 1 else None)

    def check_reproduce(args, res):
        return res["all_passed"] is True and len(res["fixtures"]) == 6 and all(
            f["passed"] for f in res["fixtures"])

    matrix_word = lambda rng: [_cli_christoffel_word(rng, 3, 15)[2]]  # noqa: E731
    return {
        "word christoffel": (word_christoffel, check_word_christoffel),
        "word factorize": (word_factorize, check_word_factorize),
        "word pc-check": (word_pc_check, check_word_pc_check),
        "matrix christoffel": (matrix_christoffel, check_matrix_christoffel),
        "matrix mul": (matrix_mul, check_matrix_mul),
        "matrix inv": (matrix_christoffel, check_matrix_inv),
        "matrix det": (matrix_christoffel, check_matrix_det),
        "matrix bw": (matrix_word, check_matrix_bw),
        "sign zolotareff": (sign_zolotareff, check_sign_zolotareff),
        "sign jacobi": (sign_jacobi, check_sign_jacobi),
        "iet sigma": (composition, check_iet_sigma),
        "iet encode": (iet_encode, check_iet_encode),
        "iet circular": (composition, check_iet_circular),
        "cf continuant": (cf_continuant, check_cf_continuant),
        "cf semiconvergents": (cf_quotients, check_cf_semiconvergents),
        "cf ppp": (cf_quotients, check_cf_ppp),
        "cf convert-slope": (cf_convert_slope, check_cf_convert_slope),
        "sturmian detvec": (sturmian_detvec, check_sturmian_detvec),
        "sturmian gchain": (sturmian_gchain, check_sturmian_gchain),
        "fib sign": (fib_sign, check_fib_sign),
        "fib chain": (fib_chain, check_fib_chain),
        "fib detvec": (fib_detvec, check_fib_detvec),
        "fib gcd-lemma": (fib_gcd_lemma, check_fib_gcd_lemma),
        "reproduce paper-examples": (lambda rng: [], check_reproduce),
    }


def _chain_lengths(quotients) -> list[int]:
    """Lengths of the semiconvergent Christoffel words of a prefix."""
    return [ref.word_length(tuple(quotients[:m]) + (h,))
            for m, top in enumerate(quotients) for h in range(1, top + 1)]


class CliSession(Workload):
    """Seeded scripts of ``christoffel ... --format json`` commands, one process each."""

    name = "cli-session"
    rounds = 60
    commands = _cli_commands()
    selftest = (("cli", ("sign", "zolotareff", "5", "13")),)

    def round(self, rng, index):
        return [("cli", tuple(name.split()) + tuple(make_args(rng)))
                for name, (make_args, _) in self.commands.items()]

    def run(self, session, task):
        return session.call(list(task[1]) + ["--format", "json"])

    def check(self, task, out):
        returncode, stdout = out
        argv = task[1]
        name = " ".join(argv[:2])
        if returncode != 0:
            return f"`{' '.join(argv)}` exited with {returncode}"
        try:
            envelope = json.loads(stdout)
        except ValueError:
            return f"`{' '.join(argv)}` printed no JSON envelope"
        if (not isinstance(envelope, dict)
                or set(envelope) != {"command", "inputs", "result", "format_version"}
                or envelope["command"] != name or envelope["format_version"] != "1"):
            return f"`{' '.join(argv)}` printed a malformed envelope"
        _, check = self.commands[name]
        try:
            ok = check(list(argv[2:]), envelope["result"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            ok = False
            name += f" ({type(exc).__name__}: {exc})"
        return None if ok else f"`{' '.join(argv)}`: wrong result for {name}"

    def corrupt(self, session, task, out):
        returncode, stdout = out
        envelope = json.loads(stdout)
        envelope["result"]["sign"] *= -1
        return returncode, json.dumps(envelope)


WORKLOADS = {w.name: w for w in (BwMatrixGroup(), SturmianDetvec(), PcEnumSign(), CliSession())}
