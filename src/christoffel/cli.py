"""Command-line interface.

Every subcommand accepts ``--format json|text`` (default text).  JSON
output is a deterministic envelope {command, inputs, result,
format_version} with sorted keys.  Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import islice

from . import fixtures
from .bwgroup import (
    ChristoffelParams,
    bw_matrix,
    christoffel_matrix,
    det_closed,
    group_inverse,
    group_mul,
)
from .contfrac import (
    ContinuedFraction,
    cf_density_from_slope,
    cf_slope_from_density,
    continuant,
    ppp_factorization,
    semiconvergents,
)
from .errors import ChristoffelError, NotChristoffelError, SizeLimitError
from .fibonacci import fib_detvec_prediction, fib_sign, fib_word_chain, gcd_lemma_check
from .iet import Composition, build_sigma, is_circular, standard_encoding
from .numeric import ExactMatrix, FieldScalar, det_exact
from .permsign import cycle_type_string, jacobi, zolotareff
from .sturmian import (
    SturmianSlope,
    determinantal_vector_closed,
    determinantal_vector_oracle,
    factor_matrix,
    g_chain,
)
from .words import (
    SlopeRatio,
    Word,
    is_christoffel,
    is_perfectly_clustering,
    lower_christoffel,
    palindromic_factorization,
    standard_factorization,
    upper_christoffel,
)


def _parse_letters(text: str) -> tuple:
    return tuple(int(t) if "/" not in t else Fraction(t)
                 for t in text.split(","))


def _emit(args, command: str, inputs: dict, result, text_lines) -> int:
    if args.format == "json":
        envelope = {
            "command": command,
            "inputs": inputs,
            "result": result,
            "format_version": "1",
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        if isinstance(text_lines, str):
            text_lines = [text_lines]
        for line in text_lines:
            print(line)
    return 0


# Caps on sizes whose cost grows without bound, checked before any work.
# The costs quoted are single runs on 2 vCPUs at the cap.
# A matrix command builds n^2 entries (`det` then eliminates in O(n^3),
# under 2 s), and so does the exact-minor oracle of `sturmian detvec`
# (1.2 s).
MAX_MATRIX_ORDER = 256
# `fib chain` words grow about 1.6x per word (5.7 MB of output).
MAX_FIB_CHAIN_COUNT = 30
# Work and output linear in the size: `word christoffel` letters, `iet`
# composition totals, closed-form `sturmian detvec` and `fib detvec`
# lengths (each under 0.25 s).
MAX_LINEAR_SIZE = 100_000
# A word argument has its n rotations sorted, n^2 letters in memory.
MAX_WORD_ARGUMENT = 2048
# `fib sign` prints F_m-sized counts, about 0.21 m digits (2,090 here,
# under Python's 4,300-digit limit for printing an int).
MAX_FIB_SIGN_INDEX = 10_000
# `fib gcd-lemma` computes F_{6k+5} (0.3 s).
MAX_GCD_LEMMA_K = 10_000
# `cf semiconvergents` prints sum(quotients) slopes (0.84 MB for all ones).
MAX_SEMICONVERGENTS = 2000
# `sturmian gchain` prints about (N - L) N^2 letters for the chain word
# length N, with N - L <= N/2 (0.5 s).
MAX_CHAIN_WORD_LENGTH = 128


def _capped(value: int, cap: int, option: str) -> int:
    if value > cap:
        raise SizeLimitError(f"{option} {value} exceeds the cap {cap}")
    return value


def _printable(*values: int) -> None:
    """Raise SizeLimitError before printing an int past the interpreter's
    limit on int-to-str conversion (4,300 digits by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(abs(v) >= 10 ** limit for v in values):
        raise SizeLimitError(f"the result has more than {limit} digits, "
                             "the interpreter's limit for printing an int")


def _word_arg(args, cap: int) -> Word:
    """The positional word; with --numeric a lone number is one letter."""
    if args.numeric and "," not in args.word:
        w = Word((int(args.word),))
    else:
        w = Word.parse(args.word)
    _capped(len(w), cap, "word length")
    return w


def _composition_arg(args) -> Composition:
    comp = Composition(tuple(int(x) for x in args.composition.split(",")))
    _capped(comp.total, MAX_LINEAR_SIZE, "composition total")
    return comp


def _params_from(args, suffix: str = "") -> ChristoffelParams:
    """Parameters from --a/--b/--r (or --a2/--b2/--r2); the scalars keep
    the kind they were written in, rational or GF(p)."""
    return ChristoffelParams(_capped(args.n, MAX_MATRIX_ORDER, "--n"),
                             FieldScalar.parse(getattr(args, "a" + suffix)),
                             FieldScalar.parse(getattr(args, "b" + suffix)),
                             getattr(args, "r" + suffix))


def _sign_str(x: int) -> str:
    return f"+{x}" if x > 0 else str(x)


# --- subcommand handlers -------------------------------------------------

def _cmd_word_christoffel(args) -> int:
    _capped(args.ones + args.zeros, MAX_LINEAR_SIZE, "--ones + --zeros")
    slope = SlopeRatio(args.ones, args.zeros)
    alphabet = _parse_letters(args.alphabet) if args.alphabet else (0, 1)
    w = (upper_christoffel if args.upper else lower_christoffel)(slope, alphabet)
    return _emit(args, "word christoffel",
                 {"ones": args.ones, "zeros": args.zeros, "upper": args.upper,
                  "alphabet": [str(x) for x in alphabet]},
                 {"word": str(w)}, str(w))


def _cmd_word_factorize(args) -> int:
    w = _word_arg(args, MAX_WORD_ARGUMENT)
    result: dict = {}
    lines = []
    try:
        left, right = standard_factorization(w)
        result["standard"] = [str(left), str(right)]
        lines.append(f"standard: {left} . {right}")
    except NotChristoffelError:
        result["standard"] = None
        lines.append("standard: (not a Christoffel word)")
    try:
        first, second = palindromic_factorization(w)
        result["palindromic"] = [str(first), str(second)]
        lines.append(f"palindromic: {first} . {second}")
    except ChristoffelError:
        result["palindromic"] = None
        lines.append("palindromic: (no unique palindromic split)")
    if result["standard"] is None and result["palindromic"] is None:
        raise NotChristoffelError(f"{w} admits neither factorization")
    return _emit(args, "word factorize", {"word": str(w)}, result, lines)


def _cmd_word_pc_check(args) -> int:
    w = _word_arg(args, MAX_WORD_ARGUMENT)
    ok = is_perfectly_clustering(w)
    kind = is_christoffel(w)
    return _emit(args, "word pc-check", {"word": str(w)},
                 {"perfectly_clustering": ok, "christoffel": kind},
                 f"perfectly clustering: {ok} (christoffel: {kind})")


def _matrix_lines(m: ExactMatrix) -> list[str]:
    """One text line per row; over GF(p) the values, then the modulus once."""
    values = [str(v) for v in m.values]
    rows = [values[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
    lines = ["".join(r) if all(len(x) == 1 for x in r) else " ".join(r) for r in rows]
    return lines if m.modulus is None else lines + [f"mod {m.modulus}"]


def _cmd_matrix_bw(args) -> int:
    w = _word_arg(args, MAX_MATRIX_ORDER)
    m = bw_matrix(w)
    return _emit(args, "matrix bw", {"word": str(w)},
                 {"matrix": m.to_string_rows()}, _matrix_lines(m))


def _cmd_matrix_christoffel(args) -> int:
    p = _params_from(args)
    m = christoffel_matrix(p)
    return _emit(args, "matrix christoffel",
                 {"n": p.n, "a": str(p.a), "b": str(p.b), "r": p.r},
                 {"matrix": m.to_string_rows()}, _matrix_lines(m))


def _cmd_matrix_mul(args) -> int:
    p1 = _params_from(args)
    if args.a2 is None or args.b2 is None or args.r2 is None:
        raise ChristoffelError("matrix mul needs --a2, --b2 and --r2")
    p2 = _params_from(args, "2")
    product = group_mul(p1, p2)
    m = christoffel_matrix(product)
    return _emit(args, "matrix mul",
                 {"n": args.n, "a": str(p1.a), "b": str(p1.b), "r": p1.r,
                  "a2": str(p2.a), "b2": str(p2.b), "r2": p2.r},
                 {"params": {"n": product.n, "a": str(product.a),
                             "b": str(product.b), "r": product.r},
                  "matrix": m.to_string_rows()},
                 [f"product: n={product.n} a={product.a} b={product.b} r={product.r}"])


def _cmd_matrix_inv(args) -> int:
    p = _params_from(args)
    inv = group_inverse(p)
    m = christoffel_matrix(inv)
    return _emit(args, "matrix inv",
                 {"n": p.n, "a": str(p.a), "b": str(p.b), "r": p.r},
                 {"params": {"n": inv.n, "a": str(inv.a), "b": str(inv.b),
                             "r": inv.r},
                  "matrix": m.to_string_rows()},
                 [f"inverse: n={inv.n} a={inv.a} b={inv.b} r={inv.r}"])


def _cmd_matrix_det(args) -> int:
    p = _params_from(args)
    closed = det_closed(p)
    exact = det_exact(christoffel_matrix(p))
    return _emit(args, "matrix det",
                 {"n": p.n, "a": str(p.a), "b": str(p.b), "r": p.r},
                 {"det": str(closed), "det_exact": str(exact),
                  "match": closed == exact},
                 f"det = {closed} (exact elimination agrees: {closed == exact})")


def _cmd_sign_zolotareff(args) -> int:
    value = zolotareff(args.r, args.n)
    return _emit(args, "sign zolotareff", {"r": args.r, "n": args.n},
                 {"sign": value}, _sign_str(value))


def _cmd_sign_jacobi(args) -> int:
    value = jacobi(args.r, args.n)
    return _emit(args, "sign jacobi", {"r": args.r, "n": args.n},
                 {"symbol": value}, _sign_str(value) if value else "0")


def _cmd_iet_sigma(args) -> int:
    comp = _composition_arg(args)
    exchange = build_sigma(comp)
    return _emit(args, "iet sigma", {"composition": list(comp.parts)},
                 {"images": list(exchange.sigma.images),
                  "cycles": exchange.sigma.cycle_string(),
                  "circular": is_circular(exchange)},
                 [f"images: {list(exchange.sigma.images)}",
                  f"cycles: {exchange.sigma.cycle_string()}"])


def _cmd_iet_encode(args) -> int:
    comp = _composition_arg(args)
    labels: list[str] | None = None
    if args.alphabet:
        tokens = [t.strip() for t in args.alphabet.split(",")]
        if all(t.isalpha() for t in tokens):
            labels = tokens
            alphabet = tuple(range(len(tokens)))
        else:
            alphabet = _parse_letters(args.alphabet)
    else:
        alphabet = tuple(range(len(comp.parts)))
    w = standard_encoding(build_sigma(comp), alphabet)
    if labels is not None:
        out = "".join(labels[x] for x in w.letters)
    else:
        out = str(w)
    return _emit(args, "iet encode",
                 {"composition": list(comp.parts),
                  "alphabet": labels or [str(x) for x in alphabet]},
                 {"word": out}, out)


def _cmd_iet_circular(args) -> int:
    comp = _composition_arg(args)
    direct = is_circular(build_sigma(comp))
    return _emit(args, "iet circular", {"composition": list(comp.parts)},
                 {"circular": direct}, str(direct).lower())


def _cmd_cf_continuant(args) -> int:
    xs = [int(t) for t in args.values.split(",")]
    value = continuant(xs)
    _printable(value)
    return _emit(args, "cf continuant", {"values": xs},
                 {"continuant": value}, str(value))


def _cmd_cf_semiconvergents(args) -> int:
    cf = ContinuedFraction.parse(args.cf)
    _capped(sum(cf.quotients), MAX_SEMICONVERGENTS, "sum of quotients")
    slopes = list(semiconvergents(cf))
    return _emit(args, "cf semiconvergents", {"cf": list(cf.quotients)},
                 {"semiconvergents": [str(s) for s in slopes]},
                 " ".join(str(s) for s in slopes))


def _cmd_cf_ppp(args) -> int:
    cf = ContinuedFraction.parse(args.cf)
    split = ppp_factorization(cf)
    (r1, q1), (r2, q2) = split.factor_counts()
    _printable(*split.matrix[0], *split.matrix[1], r1, q1, r2, q2)
    return _emit(args, "cf ppp", {"cf": list(cf.quotients)},
                 {"matrix": [list(split.matrix[0]), list(split.matrix[1])],
                  "m_even": split.m_even,
                  "first_counts": {"ones": r1, "zeros": q1},
                  "second_counts": {"ones": r2, "zeros": q2}},
                 [f"matrix: {split.matrix}",
                  f"w' has {r1} ones, {q1} zeros; w'' has {r2} ones, {q2} zeros"])


def _cmd_cf_convert_slope(args) -> int:
    cf = ContinuedFraction.parse(args.cf)
    if args.reverse:
        converted = cf_density_from_slope(cf)
        label = "density"
    else:
        converted = cf_slope_from_density(cf)
        label = "slope"
    value = converted.value()
    _printable(value.ones, value.zeros)
    return _emit(args, "cf convert-slope", {"cf": list(cf.quotients),
                                            "reverse": args.reverse},
                 {label: list(converted.quotients), "value": str(value)},
                 f"{label}: {converted} = {value}")


def _cmd_sturmian_detvec(args) -> int:
    slope = SturmianSlope(ContinuedFraction.parse(args.cf))
    which = "both" if args.both or not (args.oracle or args.closed) else (
        "oracle" if args.oracle else "closed")
    _capped(args.len, MAX_LINEAR_SIZE if which == "closed" else MAX_MATRIX_ORDER, "--len")
    result: dict = {"n": args.len}
    lines = []
    closed = oracle = None
    if which in ("closed", "both"):
        closed = determinantal_vector_closed(slope, args.len)
        result["closed"] = closed.to_json_dict()
        lines.append(f"closed: {list(closed.components)}")
    if which in ("oracle", "both"):
        oracle = determinantal_vector_oracle(factor_matrix(slope, args.len))
        result["oracle"] = list(oracle.components)
        lines.append(f"oracle: {list(oracle.components)}")
    if which == "both":
        match = closed.components == oracle.components
        result["match"] = match
        lines.append(f"match: {str(match).lower()}")
    return _emit(args, "sturmian detvec",
                 {"cf": list(slope.cf.quotients), "len": args.len, "mode": which},
                 result, lines)


def _cmd_sturmian_gchain(args) -> int:
    slope = SturmianSlope(ContinuedFraction.parse(args.cf))
    if 1 <= args.nu < sum(slope.cf.quotients):  # g_chain rejects the rest
        # Chain lengths grow strictly from 2: this walk stops at the cap.
        for s in islice(semiconvergents(slope.cf), args.nu + 1):
            _capped(s.length, MAX_CHAIN_WORD_LENGTH, "chain word length")
    steps = g_chain(slope, args.nu)
    payload = [{"n": s.matrix.n,
                "rows": [str(r) for r in s.matrix.rows],
                "merge_row": s.merge_row} for s in steps]
    lines = []
    for s in steps:
        head = f"G_{s.matrix.n}" + (f"  (arrow {s.merge_row})" if s.merge_row else "")
        lines.append(head)
        lines.extend("  " + str(r) for r in s.matrix.rows)
    return _emit(args, "sturmian gchain",
                 {"cf": list(slope.cf.quotients), "nu": args.nu},
                 {"steps": payload}, lines)


def _cmd_fib_sign(args) -> int:
    sign, cycle_type = fib_sign(_capped(args.m, MAX_FIB_SIGN_INDEX, "m"))
    return _emit(args, "fib sign", {"m": args.m},
                 {"sign": sign, "cycle_type": cycle_type_string(cycle_type)},
                 f"{_sign_str(sign)}  cycle type {cycle_type_string(cycle_type)}")


def _cmd_fib_chain(args) -> int:
    words = fib_word_chain(_capped(args.count, MAX_FIB_CHAIN_COUNT, "--count"))
    return _emit(args, "fib chain", {"count": args.count},
                 {"words": [str(w) for w in words]},
                 " ".join(str(w) for w in words))


def _cmd_fib_detvec(args) -> int:
    prediction = fib_detvec_prediction(_capped(args.len, MAX_LINEAR_SIZE, "--len"))
    slope = SturmianSlope.from_quotients((0,) + (1,) * max(prediction.nu + 4, 8))
    closed = determinantal_vector_closed(slope, args.len)
    return _emit(args, "fib detvec", {"len": args.len},
                 {"nu": prediction.nu, "i": prediction.i,
                  "composition": list(prediction.composition),
                  "alphabet": list(prediction.alphabet),
                  "values": sorted({abs(v) for v in prediction.values}),
                  "vector": list(closed.components)},
                 [f"nu={prediction.nu} i={prediction.i} "
                  f"composition={prediction.composition} alphabet={prediction.alphabet}",
                  f"vector: {list(closed.components)}"])


def _cmd_fib_gcd_lemma(args) -> int:
    a, b, c = gcd_lemma_check(_capped(args.k, MAX_GCD_LEMMA_K, "--k"))
    return _emit(args, "fib gcd-lemma", {"k": args.k},
                 {"case_a": a, "case_b": b, "case_c": c},
                 f"a: {a}  b: {b}  c: {c}")


def _cmd_reproduce(args) -> int:
    results = fixtures.run_all()
    payload = [{"fixture": r.fixture, "passed": r.passed, "detail": r.detail}
               for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.fixture:24s} {r.detail}"
             for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    code = _emit(args, "reproduce paper-examples", {},
                 {"fixtures": payload, "all_passed": ok}, lines)
    return code if ok else 1


# --- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="christoffel",
        description="Exact Christoffel/Burrows-Wheeler matrix and Sturmian "
                    "determinant toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="group", required=True)

    word = sub.add_parser("word", help="word operations").add_subparsers(
        dest="op", required=True)
    w_chr = word.add_parser("christoffel", parents=[common])
    w_chr.add_argument("--ones", type=int, required=True)
    w_chr.add_argument("--zeros", type=int, required=True)
    w_chr.add_argument("--upper", action="store_true")
    w_chr.add_argument("--alphabet")
    w_chr.set_defaults(func=_cmd_word_christoffel)
    w_fac = word.add_parser("factorize", parents=[common])
    w_fac.add_argument("word")
    w_fac.add_argument("--numeric", action="store_true")
    w_fac.set_defaults(func=_cmd_word_factorize)
    w_pc = word.add_parser("pc-check", parents=[common])
    w_pc.add_argument("word")
    w_pc.add_argument("--numeric", action="store_true")
    w_pc.set_defaults(func=_cmd_word_pc_check)

    matrix = sub.add_parser("matrix", help="Christoffel matrix operations"
                            ).add_subparsers(dest="op", required=True)
    m_bw = matrix.add_parser("bw", parents=[common])
    m_bw.add_argument("word")
    m_bw.add_argument("--numeric", action="store_true")
    m_bw.set_defaults(func=_cmd_matrix_bw)
    for name, func, with_second in (("christoffel", _cmd_matrix_christoffel, False),
                                    ("mul", _cmd_matrix_mul, True),
                                    ("inv", _cmd_matrix_inv, False),
                                    ("det", _cmd_matrix_det, False)):
        p = matrix.add_parser(name, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--r", type=int, required=True)
        if with_second:
            p.add_argument("--a2")
            p.add_argument("--b2")
            p.add_argument("--r2", type=int)
        p.set_defaults(func=func)

    sign = sub.add_parser("sign", help="permutation signs").add_subparsers(
        dest="op", required=True)
    s_z = sign.add_parser("zolotareff", parents=[common])
    s_z.add_argument("r", type=int)
    s_z.add_argument("n", type=int)
    s_z.set_defaults(func=_cmd_sign_zolotareff)
    s_j = sign.add_parser("jacobi", parents=[common])
    s_j.add_argument("r", type=int)
    s_j.add_argument("n", type=int)
    s_j.set_defaults(func=_cmd_sign_jacobi)

    iet = sub.add_parser("iet", help="discrete interval exchanges"
                         ).add_subparsers(dest="op", required=True)
    i_sig = iet.add_parser("sigma", parents=[common])
    i_sig.add_argument("--composition", required=True)
    i_sig.set_defaults(func=_cmd_iet_sigma)
    i_enc = iet.add_parser("encode", parents=[common])
    i_enc.add_argument("--composition", required=True)
    i_enc.add_argument("--alphabet")
    i_enc.set_defaults(func=_cmd_iet_encode)
    i_cir = iet.add_parser("circular", parents=[common])
    i_cir.add_argument("--composition", required=True)
    i_cir.set_defaults(func=_cmd_iet_circular)

    cf = sub.add_parser("cf", help="continued fractions").add_subparsers(
        dest="op", required=True)
    c_cont = cf.add_parser("continuant", parents=[common])
    c_cont.add_argument("values")
    c_cont.set_defaults(func=_cmd_cf_continuant)
    c_semi = cf.add_parser("semiconvergents", parents=[common])
    c_semi.add_argument("cf")
    c_semi.set_defaults(func=_cmd_cf_semiconvergents)
    c_ppp = cf.add_parser("ppp", parents=[common])
    c_ppp.add_argument("cf")
    c_ppp.set_defaults(func=_cmd_cf_ppp)
    c_conv = cf.add_parser("convert-slope", parents=[common])
    c_conv.add_argument("cf")
    c_conv.add_argument("--reverse", action="store_true",
                        help="convert a slope expansion to a density expansion")
    c_conv.set_defaults(func=_cmd_cf_convert_slope)

    sturmian = sub.add_parser("sturmian", help="determinantal vectors"
                              ).add_subparsers(dest="op", required=True)
    st_dv = sturmian.add_parser("detvec", parents=[common])
    st_dv.add_argument("--cf", required=True)
    st_dv.add_argument("--len", type=int, required=True)
    st_dv.add_argument("--oracle", action="store_true")
    st_dv.add_argument("--closed", action="store_true")
    st_dv.add_argument("--both", action="store_true")
    st_dv.set_defaults(func=_cmd_sturmian_detvec)
    st_gc = sturmian.add_parser("gchain", parents=[common])
    st_gc.add_argument("--cf", required=True)
    st_gc.add_argument("--nu", type=int, required=True)
    st_gc.set_defaults(func=_cmd_sturmian_gchain)

    fib = sub.add_parser("fib", help="Fibonacci specialization"
                         ).add_subparsers(dest="op", required=True)
    f_sign = fib.add_parser("sign", parents=[common])
    f_sign.add_argument("m", type=int)
    f_sign.set_defaults(func=_cmd_fib_sign)
    f_chain = fib.add_parser("chain", parents=[common])
    f_chain.add_argument("--count", type=int, required=True)
    f_chain.set_defaults(func=_cmd_fib_chain)
    f_dv = fib.add_parser("detvec", parents=[common])
    f_dv.add_argument("--len", type=int, required=True)
    f_dv.set_defaults(func=_cmd_fib_detvec)
    f_gcd = fib.add_parser("gcd-lemma", parents=[common])
    f_gcd.add_argument("--k", type=int, required=True)
    f_gcd.set_defaults(func=_cmd_fib_gcd_lemma)

    rep = sub.add_parser("reproduce", help="run the golden fixtures")
    rep_sub = rep.add_subparsers(dest="op", required=True)
    r_all = rep_sub.add_parser("paper-examples", parents=[common])
    r_all.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ChristoffelError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print(f"error [DivisionByZero]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a malformed number, word or scalar argument
        print(f"error [usage]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
