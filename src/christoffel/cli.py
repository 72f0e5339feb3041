"""Command-line interface.

``COMMANDS`` is the one place a subcommand is declared: its name, its
arguments and its handler.  A handler returns ``(inputs, result, text)``
and prints nothing; ``main`` parses, dispatches, prints and maps errors
to exit codes.

Each command runs in a fresh process, so start-up is kept short: this
module imports only ``argparse``, ``json``, ``sys`` and ``.errors``, and
each handler imports what it uses from the defining module when it runs.
When argv[:2] names a command, ``main`` builds only that command's parser;
any other argv, and a command with arguments left over, goes to the whole
tree of ``build_parser``, so help and usage errors read as they always did.

Every subcommand accepts ``--format json|text`` (default text).  JSON
output is a deterministic envelope {command, inputs, result,
format_version} with sorted keys.  Exit codes: 0 success, 1 domain
error, 2 usage error.  A malformed value gets one elided ``error
[usage]: argument ...`` line: from ``main`` when a handler parses it,
from the parser itself for an int argument.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ChristoffelError, NotChristoffelError, SizeLimitError


# Caps on sizes whose cost grows without bound, checked before any work.
# The costs quoted are single runs on 2 vCPUs at the cap.
# A matrix command builds n^2 entries (`det` then reads the determinant
# off the n - 1 row differences of the table with no elimination, 0.08 s
# of wall time as a median of 11; `mul` and `inv` check their table
# against one dense product in 7 to 11 ms and print n^2 entries, 0.22 to
# 0.30 s as medians of 11), and so does the exact-minor oracle of
# `sturmian detvec`, which reads the minors off the n row differences of
# G_n the same way (0.10 s as a median of 5).
MAX_MATRIX_ORDER = 256
# `fib chain` words grow about 1.6x per word (5.7 MB of output).
MAX_FIB_CHAIN_COUNT = 30
# Work and output linear in the size: `word christoffel` letters, `iet`
# composition totals (each under 0.25 s), closed-form `sturmian detvec`
# and `fib detvec` lengths (0.28 s and 0.27 s of wall time on the
# all-ones prefix, interpreter start included), and the word of
# `word factorize` and `word pc-check` (0.36 s and 0.29 s on the
# Christoffel word of slope 33333/66667).
MAX_LINEAR_SIZE = 100_000
# `fib sign` prints F_m-sized counts, about 0.21 m digits (2,090 here,
# under Python's 4,300-digit limit for printing an int).
MAX_FIB_SIGN_INDEX = 10_000
# `fib gcd-lemma` computes F_{6k+5} from one walk of the recurrence
# (0.15 s of wall time as a median of 5).
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


# An error line keeps the head and the tail of a longer message, so an
# argument echoed in it is cut while the explanation at its end shows.
_ERROR_MESSAGE_LIMIT = 400


def _elided(message: str) -> str:
    """message, or its head and tail around a note of how much was left out."""
    if len(message) <= _ERROR_MESSAGE_LIMIT:
        return message
    keep = _ERROR_MESSAGE_LIMIT // 2
    left_out = len(message) - 2 * keep
    return f"{message[:keep]} ... ({left_out} characters left out) ... {message[-keep:]}"


def _parsed(args, name: str, parse):
    """parse(value of the argument); a malformed value, a zero denominator
    included, names the argument as argparse does ("argument --cf: ..."),
    a domain error passes as is."""
    text = getattr(args, name.lstrip("-"))
    try:
        return parse(text)
    except ChristoffelError:
        raise
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ValueError(f"argument {name}: zero denominator in {text!r}") from exc


def _word_arg(args, cap: int) -> Word:
    """The positional word; with --numeric a lone number is one letter."""
    from .words import Word
    if args.numeric and "," not in args.word:
        w = _parsed(args, "word", lambda text: Word((int(text),)))
    else:
        w = _parsed(args, "word", Word.parse)
    _capped(len(w), cap, "word length")
    return w


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _composition_arg(args) -> Composition:
    from .iet import Composition
    comp = Composition(tuple(_parsed(args, "--composition", _int_list)))
    _capped(comp.total, MAX_LINEAR_SIZE, "composition total")
    return comp


def _params_from(args, suffix: str = "") -> ChristoffelParams:
    """Parameters from --a/--b/--r (or --a2/--b2/--r2); the scalars keep
    the kind they were written in, rational or GF(p)."""
    from .bwgroup import ChristoffelParams
    from .numeric import FieldScalar
    return ChristoffelParams(_capped(args.n, MAX_MATRIX_ORDER, "--n"),
                             _parsed(args, "--a" + suffix, FieldScalar.parse),
                             _parsed(args, "--b" + suffix, FieldScalar.parse),
                             getattr(args, "r" + suffix))


def _params_json(p: ChristoffelParams) -> dict:
    return {"n": p.n, "a": str(p.a), "b": str(p.b), "r": p.r}


def _sign_str(x: int) -> str:
    return f"+{x}" if x > 0 else str(x)


# --- subcommand handlers -------------------------------------------------

def _cmd_word_christoffel(args):
    from .words import SlopeRatio, _parse_letter_list, lower_christoffel, upper_christoffel
    _capped(args.ones + args.zeros, MAX_LINEAR_SIZE, "--ones + --zeros")
    slope = SlopeRatio(args.ones, args.zeros)
    alphabet = _parsed(args, "--alphabet", _parse_letter_list) if args.alphabet else (0, 1)
    if len(alphabet) != 2:
        raise ValueError(f"--alphabet needs two numeric letters, got {args.alphabet!r}")
    w = (upper_christoffel if args.upper else lower_christoffel)(slope, alphabet)
    return ({"ones": args.ones, "zeros": args.zeros, "upper": args.upper,
             "alphabet": [str(x) for x in alphabet]},
            {"word": str(w)}, [str(w)])


def _cmd_word_factorize(args):
    from .words import palindromic_factorization, standard_factorization
    w = _word_arg(args, MAX_LINEAR_SIZE)
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
    return {"word": str(w)}, result, lines


def _cmd_word_pc_check(args):
    from .words import is_christoffel, is_perfectly_clustering
    w = _word_arg(args, MAX_LINEAR_SIZE)
    ok = is_perfectly_clustering(w)
    kind = is_christoffel(w)
    return ({"word": str(w)}, {"perfectly_clustering": ok, "christoffel": kind},
            [f"perfectly clustering: {ok} (christoffel: {kind})"])


def _matrix_lines(m: ExactMatrix) -> list[str]:
    """One text line per row; over GF(p) the values, then the modulus once.
    Over Q these are the strings of ``to_string_rows``, over GF(p) those of
    the stored residues, so no scalar is built per entry."""
    if m.modulus is None:
        rows = m.to_string_rows()
    else:
        values = list(map(str, m.ints))
        rows = [values[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
    lines = ["".join(r) if all(len(x) == 1 for x in r) else " ".join(r) for r in rows]
    return lines if m.modulus is None else lines + [f"mod {m.modulus}"]


def _cmd_matrix_bw(args):
    from .bwgroup import bw_matrix
    w = _word_arg(args, MAX_MATRIX_ORDER)
    m = bw_matrix(w)
    return {"word": str(w)}, {"matrix": m.to_string_rows()}, _matrix_lines(m)


def _cmd_matrix_christoffel(args):
    from .bwgroup import christoffel_matrix
    p = _params_from(args)
    m = christoffel_matrix(p)
    return _params_json(p), {"matrix": m.to_string_rows()}, _matrix_lines(m)


def _cmd_matrix_mul(args):
    from .bwgroup import christoffel_matrix, group_mul
    from .numeric import mat_mul
    p1 = _params_from(args)
    p2 = _params_from(args, "2")
    product = group_mul(p1, p2)
    m = christoffel_matrix(product)
    match = mat_mul(christoffel_matrix(p1), christoffel_matrix(p2)) == m
    return ({**_params_json(p1), "a2": str(p2.a), "b2": str(p2.b), "r2": p2.r},
            {"params": _params_json(product), "matrix": m.to_string_rows(), "match": match},
            [f"product: n={product.n} a={product.a} b={product.b} r={product.r}"
             f" (dense product agrees: {match})"])


def _cmd_matrix_inv(args):
    from .bwgroup import christoffel_matrix, group_inverse
    from .numeric import ExactMatrix, mat_mul
    p = _params_from(args)
    inv = group_inverse(p)
    m = christoffel_matrix(inv)
    match = mat_mul(christoffel_matrix(p), m) == ExactMatrix.identity(p.n, p.modulus)
    return (_params_json(p),
            {"params": _params_json(inv), "matrix": m.to_string_rows(), "match": match},
            [f"inverse: n={inv.n} a={inv.a} b={inv.b} r={inv.r} (dense product agrees: {match})"])


def _cmd_matrix_det(args):
    from .bwgroup import christoffel_matrix, det_closed
    from .numeric import det_exact
    p = _params_from(args)
    closed = det_closed(p)
    exact = det_exact(christoffel_matrix(p))
    return (_params_json(p),
            {"det": str(closed), "det_exact": str(exact), "match": closed == exact},
            [f"det = {closed} (exact determinant agrees: {closed == exact})"])


def _cmd_sign_zolotareff(args):
    from .permsign import zolotareff
    value = zolotareff(args.r, args.n)
    return {"r": args.r, "n": args.n}, {"sign": value}, [_sign_str(value)]


def _cmd_sign_jacobi(args):
    from .permsign import jacobi
    value = jacobi(args.r, args.n)
    return ({"r": args.r, "n": args.n}, {"symbol": value},
            [_sign_str(value) if value else "0"])


def _cmd_iet_sigma(args):
    from .iet import build_sigma, is_circular
    comp = _composition_arg(args)
    exchange = build_sigma(comp)
    images, cycles = list(exchange.sigma.images), exchange.sigma.cycle_string()
    return ({"composition": list(comp.parts)},
            {"images": images, "cycles": cycles, "circular": is_circular(exchange)},
            [f"images: {images}", f"cycles: {cycles}"])


def _cmd_iet_encode(args):
    from .iet import build_sigma, standard_encoding
    from .words import _parse_letter_list
    comp = _composition_arg(args)
    labels: list[str] | None = None
    if args.alphabet:
        tokens = [t.strip() for t in args.alphabet.split(",")]
        if all(t.isalpha() for t in tokens):
            labels = tokens
            alphabet = tuple(range(len(tokens)))
        else:
            alphabet = _parsed(args, "--alphabet", _parse_letter_list)
    else:
        alphabet = tuple(range(len(comp.parts)))
    w = standard_encoding(build_sigma(comp), alphabet)
    out = str(w) if labels is None else "".join(labels[x] for x in w.letters)
    return ({"composition": list(comp.parts),
             "alphabet": labels or [str(x) for x in alphabet]},
            {"word": out}, [out])


def _cmd_iet_circular(args):
    from .iet import build_sigma, is_circular
    comp = _composition_arg(args)
    direct = is_circular(build_sigma(comp))
    return {"composition": list(comp.parts)}, {"circular": direct}, [str(direct).lower()]


def _cmd_cf_continuant(args):
    from .contfrac import continuant
    xs = _parsed(args, "values", _int_list)
    value = continuant(xs)
    _printable(value)
    return {"values": xs}, {"continuant": value}, [str(value)]


def _cmd_cf_semiconvergents(args):
    from .contfrac import ContinuedFraction, semiconvergents
    cf = _parsed(args, "cf", ContinuedFraction.parse)
    _capped(sum(cf.quotients), MAX_SEMICONVERGENTS, "sum of quotients")
    slopes = [str(s) for s in semiconvergents(cf)]
    return {"cf": list(cf.quotients)}, {"semiconvergents": slopes}, [" ".join(slopes)]


def _cmd_cf_ppp(args):
    from .contfrac import ContinuedFraction, ppp_factorization
    cf = _parsed(args, "cf", ContinuedFraction.parse)
    split = ppp_factorization(cf)
    (r1, q1), (r2, q2) = split.factor_counts()
    _printable(*split.matrix[0], *split.matrix[1], r1, q1, r2, q2)
    return ({"cf": list(cf.quotients)},
            {"matrix": [list(split.matrix[0]), list(split.matrix[1])],
             "m_even": split.m_even,
             "first_counts": {"ones": r1, "zeros": q1},
             "second_counts": {"ones": r2, "zeros": q2}},
            [f"matrix: {split.matrix}",
             f"w' has {r1} ones, {q1} zeros; w'' has {r2} ones, {q2} zeros"])


def _cmd_cf_convert_slope(args):
    from .contfrac import ContinuedFraction, cf_density_from_slope, cf_slope_from_density
    cf = _parsed(args, "cf", ContinuedFraction.parse)
    if args.reverse:
        converted = cf_density_from_slope(cf)
        label = "density"
    else:
        converted = cf_slope_from_density(cf)
        label = "slope"
    value = converted.value()
    _printable(value.ones, value.zeros)
    return ({"cf": list(cf.quotients), "reverse": args.reverse},
            {label: list(converted.quotients), "value": str(value)},
            [f"{label}: {converted} = {value}"])


def _cmd_sturmian_detvec(args):
    from .contfrac import ContinuedFraction
    from .sturmian import (
        SturmianSlope,
        determinantal_vector_closed,
        determinantal_vector_oracle,
        factor_matrix,
    )
    slope = SturmianSlope(_parsed(args, "--cf", ContinuedFraction.parse))
    modes = set(args.mode or ["both"])
    if len(modes) > 1:
        raise ValueError("--oracle, --closed and --both exclude each other")
    (mode,) = modes
    _capped(args.len, MAX_LINEAR_SIZE if mode == "closed" else MAX_MATRIX_ORDER, "--len")
    result: dict = {"n": args.len}
    lines = []
    if mode != "oracle":
        closed = determinantal_vector_closed(slope, args.len)
        result["closed"] = closed.to_json_dict()
        lines.append(f"closed: {list(closed.components)}")
    if mode != "closed":
        oracle = determinantal_vector_oracle(factor_matrix(slope, args.len))
        result["oracle"] = list(oracle.components)
        lines.append(f"oracle: {list(oracle.components)}")
    if mode == "both":
        match = closed.components == oracle.components
        result["match"] = match
        lines.append(f"match: {str(match).lower()}")
    return {"cf": list(slope.cf.quotients), "len": args.len, "mode": mode}, result, lines


def _cmd_sturmian_gchain(args):
    from itertools import islice

    from .contfrac import ContinuedFraction, semiconvergents
    from .sturmian import SturmianSlope, g_chain
    slope = SturmianSlope(_parsed(args, "--cf", ContinuedFraction.parse))
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
        lines.append(f"G_{s.matrix.n}" + (f"  (arrow {s.merge_row})" if s.merge_row else ""))
        lines.extend("  " + str(r) for r in s.matrix.rows)
    return {"cf": list(slope.cf.quotients), "nu": args.nu}, {"steps": payload}, lines


def _cmd_fib_sign(args):
    from .fibonacci import fib_sign
    from .permsign import cycle_type_string
    sign, cycle_type = fib_sign(_capped(args.m, MAX_FIB_SIGN_INDEX, "m"))
    cycles = cycle_type_string(cycle_type)
    return ({"m": args.m}, {"sign": sign, "cycle_type": cycles},
            [f"{_sign_str(sign)}  cycle type {cycles}"])


def _cmd_fib_chain(args):
    from .fibonacci import fib_word_chain
    words = [str(w) for w in
             fib_word_chain(_capped(args.count, MAX_FIB_CHAIN_COUNT, "--count"))]
    return {"count": args.count}, {"words": words}, [" ".join(words)]


def _cmd_fib_detvec(args):
    from .fibonacci import _covering_slope, fib_detvec_prediction
    from .sturmian import determinantal_vector_closed
    prediction = fib_detvec_prediction(_capped(args.len, MAX_LINEAR_SIZE, "--len"))
    closed = determinantal_vector_closed(_covering_slope(args.len), args.len)
    return ({"len": args.len},
            {"nu": prediction.nu, "i": prediction.i,
             "composition": list(prediction.composition),
             "alphabet": list(prediction.alphabet),
             "values": sorted({abs(v) for v in prediction.values}),
             "vector": list(closed.components)},
            [f"nu={prediction.nu} i={prediction.i} "
             f"composition={prediction.composition} alphabet={prediction.alphabet}",
             f"vector: {list(closed.components)}"])


def _cmd_fib_gcd_lemma(args):
    from .fibonacci import gcd_lemma_check
    a, b, c = gcd_lemma_check(_capped(args.k, MAX_GCD_LEMMA_K, "--k"))
    return {"k": args.k}, {"case_a": a, "case_b": b, "case_c": c}, [f"a: {a}  b: {b}  c: {c}"]


def _cmd_reproduce(args):
    from .fixtures import run_all
    results = run_all()
    payload = [{"fixture": r.fixture, "passed": r.passed, "detail": r.detail}
               for r in results]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.fixture:24s} {r.detail}"
             for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} fixtures passed")
    return {}, {"fixtures": payload, "all_passed": all(r.passed for r in results)}, lines


# --- the command table ---------------------------------------------------

def _arg(*flags: str, **options) -> tuple:
    """One ``add_argument`` call: its flags and keyword options."""
    return flags, options


def _int_arg(*flags: str, **options) -> tuple:
    """An int argument.  argparse would reject a malformed value itself,
    echoing all of it; this type ends the program with main's elided usage
    line instead, so the leaf parser and the whole tree still agree."""
    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError as exc:
            print(f"error [usage]: {_elided(f'argument {flags[0]}: {exc}')}", file=sys.stderr)
            sys.exit(2)

    return _arg(*flags, type=parse, **options)


_WORD = [_arg("word"), _arg("--numeric", action="store_true")]
_PARAMS = [_int_arg("--n", required=True), _arg("--a", required=True),
          _arg("--b", required=True), _int_arg("--r", required=True)]
_R_N = [_int_arg("r"), _int_arg("n")]
_COMPOSITION = [_arg("--composition", required=True)]
_CF = [_arg("cf")]
# The three flags collect into one list; the handler rejects two modes.
_DETVEC_MODES = [_arg("--" + mode, dest="mode", action="append_const", const=mode)
                for mode in ("oracle", "closed", "both")]

GROUPS = {
    "word": "word operations",
    "matrix": "Christoffel matrix operations",
    "sign": "permutation signs",
    "iet": "discrete interval exchanges",
    "cf": "continued fractions",
    "sturmian": "determinantal vectors",
    "fib": "Fibonacci specialization",
    "reproduce": "run the golden fixtures",
}

# "<group> <op>" -> (handler, arguments).  The name is also the JSON
# envelope's `command`.
COMMANDS = {
    "word christoffel": (_cmd_word_christoffel, [
        _int_arg("--ones", required=True), _int_arg("--zeros", required=True),
        _arg("--upper", action="store_true"), _arg("--alphabet")]),
    "word factorize": (_cmd_word_factorize, _WORD),
    "word pc-check": (_cmd_word_pc_check, _WORD),
    "matrix bw": (_cmd_matrix_bw, _WORD),
    "matrix christoffel": (_cmd_matrix_christoffel, _PARAMS),
    "matrix mul": (_cmd_matrix_mul, _PARAMS + [
        _arg("--a2", required=True), _arg("--b2", required=True),
        _int_arg("--r2", required=True)]),
    "matrix inv": (_cmd_matrix_inv, _PARAMS),
    "matrix det": (_cmd_matrix_det, _PARAMS),
    "sign zolotareff": (_cmd_sign_zolotareff, _R_N),
    "sign jacobi": (_cmd_sign_jacobi, _R_N),
    "iet sigma": (_cmd_iet_sigma, _COMPOSITION),
    "iet encode": (_cmd_iet_encode, _COMPOSITION + [_arg("--alphabet")]),
    "iet circular": (_cmd_iet_circular, _COMPOSITION),
    "cf continuant": (_cmd_cf_continuant, [_arg("values")]),
    "cf semiconvergents": (_cmd_cf_semiconvergents, _CF),
    "cf ppp": (_cmd_cf_ppp, _CF),
    "cf convert-slope": (_cmd_cf_convert_slope, _CF + [
        _arg("--reverse", action="store_true",
             help="convert a slope expansion to a density expansion")]),
    "sturmian detvec": (_cmd_sturmian_detvec, [
        _arg("--cf", required=True), _int_arg("--len", required=True),
        *_DETVEC_MODES]),
    "sturmian gchain": (_cmd_sturmian_gchain, [
        _arg("--cf", required=True), _int_arg("--nu", required=True)]),
    "fib sign": (_cmd_fib_sign, [_int_arg("m")]),
    "fib chain": (_cmd_fib_chain, [_int_arg("--count", required=True)]),
    "fib detvec": (_cmd_fib_detvec, [_int_arg("--len", required=True)]),
    "fib gcd-lemma": (_cmd_fib_gcd_lemma, [_int_arg("--k", required=True)]),
    "reproduce paper-examples": (_cmd_reproduce, []),
}


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    return common


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """The parser of command ``name``: the table's arguments added to ``parser``."""
    for flags, options in COMMANDS[name][1]:
        parser.add_argument(*flags, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="christoffel",
        description="Exact Christoffel/Burrows-Wheeler matrix and Sturmian "
                    "determinant toolkit")
    common = _common_options()
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {name: sub.add_parser(name, help=text).add_subparsers(dest="op", required=True)
              for name, text in GROUPS.items()}
    for name in COMMANDS:
        group, op = name.split(" ")
        _with_arguments(groups[group].add_parser(op, parents=[common]), name)
    return parser


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """(command name, parsed arguments).  A command named by argv[:2] is
    parsed by its own parser alone; anything else, and a command with
    arguments left over, by the whole tree, which prints help and usage
    errors exactly as the leaf would inside it."""
    name = " ".join(argv[:2])
    if len(argv) > 1 and name in COMMANDS:
        leaf = argparse.ArgumentParser(prog=f"christoffel {name}", parents=[_common_options()])
        args, rest = _with_arguments(leaf, name).parse_known_args(argv[2:])
        if not rest:
            return name, args
    args = build_parser().parse_args(argv)
    return f"{args.group} {args.op}", args


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    handler, _ = COMMANDS[command]
    try:
        inputs, result, text = handler(args)
        if args.format == "json":
            print(json.dumps({"command": command, "inputs": inputs, "result": result,
                              "format_version": "1"}, sort_keys=True))
        else:
            for line in text:
                print(line)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, ChristoffelError):
            label, code = type(exc).__name__, 1
        elif isinstance(exc, ZeroDivisionError):
            label, code = "DivisionByZero", 1
        else:  # a malformed number, word or scalar argument
            label, code = "usage", 2
        print(f"error [{label}]: {_elided(str(exc))}", file=sys.stderr)
        return code
    # `reproduce` prints its report either way; a failing fixture exits 1.
    return 0 if result.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
