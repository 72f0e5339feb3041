import json
import sys
import time

import pytest

from christoffel import (
    SturmianSlope,
    bwgroup,
    cli,
    determinantal_vector_oracle,
    factor_matrix,
    fibonacci,
)
from christoffel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWordCommands:
    def test_christoffel(self, capsys):
        code, out, _ = run(capsys, "word", "christoffel", "--ones", "2", "--zeros", "5")
        assert code == 0 and out.strip() == "0001001"

    def test_christoffel_upper(self, capsys):
        code, out, _ = run(capsys, "word", "christoffel", "--ones", "2", "--zeros", "5",
                           "--upper")
        assert code == 0 and out.strip() == "1001000"

    @pytest.mark.parametrize("alphabet", ["1,2,3", "a,b", "1/0,1"])
    def test_christoffel_bad_alphabet_is_usage_error(self, capsys, alphabet):
        code, out, err = run(capsys, "word", "christoffel", "--ones", "3", "--zeros", "4",
                             "--alphabet", alphabet)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error [usage]: ")
        assert "--alphabet" in err
        if alphabet == "1/0,1":
            assert err == "error [usage]: argument --alphabet: zero denominator in '1/0,1'\n"

    def test_factorize(self, capsys):
        code, out, _ = run(capsys, "word", "factorize", "01101110111")
        assert code == 0
        assert "0110111 . 0111" in out

    def test_pc_check(self, capsys):
        code, out, _ = run(capsys, "word", "pc-check", "acbcbcacc")
        assert code == 0 and "True" in out


class TestMatrixCommands:
    def test_christoffel_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", "christoffel", "--n", "7",
                           "--a", "0", "--b", "1", "--r", "2")
        assert code == 0
        assert out.splitlines()[0] == "1001000"

    def test_bw(self, capsys):
        code, out, _ = run(capsys, "matrix", "bw", "0001001")
        assert code == 0 and out.splitlines()[-1] == "0001001"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "matrix", "mul", "--n", "7", "--a", "0", "--b", "1",
                           "--r", "2", "--a2", "0", "--b2", "1", "--r2", "4")
        assert code == 0 and "a=1 b=2 r=1" in out

    def test_mul_missing_second_operand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "mul", "--n", "7", "--a", "0", "--b", "1", "--r", "2"])
        assert excinfo.value.code == 2 and "--a2" in capsys.readouterr().err

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "matrix", "inv", "--n", "7", "--a", "0", "--b", "1",
                           "--r", "2")
        assert code == 0 and "a=-1/2 b=1/2 r=4" in out

    def test_det_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "det", "--n", "7", "--a", "0", "--b", "1",
                           "--r", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["det"] == "2"
        assert payload["format_version"] == "1"

    def test_json_roundtrip_bytes(self, capsys):
        code, out, _ = run(capsys, "matrix", "det", "--n", "7", "--a", "0", "--b", "1",
                           "--r", "2", "--format", "json")
        text = out.strip()
        assert json.dumps(json.loads(text), sort_keys=True) == text


class TestPrimeFieldMatrixCommands:
    """Scalars written as "v mod p" keep their kind through every subcommand."""

    GF = ("--n", "7", "--a", "3 mod 65537", "--b", "4 mod 65537", "--r", "2")

    @pytest.mark.parametrize("op, extra", [
        ("christoffel", ()),
        ("mul", ("--a2", "1 mod 65537", "--b2", "5 mod 65537", "--r2", "3")),
        ("inv", ()),
        ("det", ()),
    ])
    def test_exit_zero(self, capsys, op, extra):
        code, out, err = run(capsys, "matrix", op, *self.GF, *extra, "--format", "json")
        assert code == 0, err
        assert "mod 65537" in out

    def test_det_matches_elimination(self, capsys):
        code, out, _ = run(capsys, "matrix", "det", *self.GF, "--format", "json")
        result = json.loads(out)["result"]
        assert code == 0 and result["match"] is True
        assert result["det"] == result["det_exact"]

    def test_inverse_times_matrix_is_identity(self, capsys):
        code, out, _ = run(capsys, "matrix", "inv", *self.GF, "--format", "json")
        inv = json.loads(out)["result"]["params"]
        code, out, _ = run(capsys, "matrix", "mul", *self.GF, "--a2", inv["a"],
                           "--b2", inv["b"], "--r2", str(inv["r"]), "--format", "json")
        product = json.loads(out)["result"]["params"]
        assert code == 0
        assert (product["a"], product["b"], product["r"]) == \
            ("0 mod 65537", "1 mod 65537", 1)

    def test_mixed_kinds_rejected(self, capsys):
        code, _, err = run(capsys, "matrix", "det", "--n", "7", "--a", "3 mod 65537",
                           "--b", "4", "--r", "2")
        assert code == 1 and "KindMismatchError" in err

    def test_text_states_modulus_once(self, capsys):
        code, out, _ = run(capsys, "matrix", "christoffel", "--n", "3", "--a", "3 mod 65537",
                           "--b", "4 mod 65537", "--r", "1")
        assert code == 0 and out.splitlines() == ["433", "343", "334", "mod 65537"]
        code, out, _ = run(capsys, "matrix", "christoffel", "--n", "3", "--a", "30 mod 65537",
                           "--b", "-1 mod 65537", "--r", "1")
        assert out.splitlines() == ["65536 30 30", "30 65536 30", "30 30 65536", "mod 65537"]

    def test_rational_text_unchanged(self, capsys):
        code, out, _ = run(capsys, "matrix", "christoffel", "--n", "3", "--a", "1/2",
                           "--b", "-4", "--r", "1")
        assert code == 0 and out.splitlines() == ["-4 1/2 1/2", "1/2 -4 1/2", "1/2 1/2 -4"]

    def test_61_bit_modulus(self, capsys):
        p = str(2 ** 61 - 1)
        code, out, err = run(capsys, "matrix", "det", "--n", "7", "--a", f"1 mod {p}",
                             "--b", f"2 mod {p}", "--r", "2", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["result"]["match"] is True

    def test_modulus_beyond_primality_bound(self, capsys):
        p = str(2 ** 89 - 1)
        code, _, err = run(capsys, "matrix", "det", "--n", "7", "--a", f"1 mod {p}",
                           "--b", f"2 mod {p}", "--r", "2")
        assert code == 1 and "SizeLimitError" in err

    def test_mixed_kinds_in_second_operand_rejected(self, capsys):
        code, _, err = run(capsys, "matrix", "mul", *self.GF, "--a2", "0", "--b2", "1",
                           "--r2", "4")
        assert code == 1 and "KindMismatchError" in err


class TestSignCommands:
    def test_zolotareff(self, capsys):
        code, out, _ = run(capsys, "sign", "zolotareff", "1", "9")
        assert code == 0 and out.strip() == "+1"

    def test_jacobi(self, capsys):
        code, out, _ = run(capsys, "sign", "jacobi", "3", "5")
        assert code == 0 and out.strip() == "-1"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "sign", "zolotareff", "2", "8")
        assert code == 1 and "NotCoprimeError" in err

    def test_zolotareff_large_modulus(self, capsys):
        """n = 10^18 + 3 returns at once.  n is odd, so the sign is the
        Jacobi symbol (5/n) = (n mod 5 / 5) = (3/5) = -1; 2n is 2 mod 4,
        so its sign is +1; 4n is divisible by 4 and 5 = 1 mod 4, so +1."""
        for modulus, expected in ((10 ** 18 + 3, -1), (2 * (10 ** 18 + 3), 1),
                                  (4 * (10 ** 18 + 3), 1)):
            start = time.perf_counter()
            code, out, _ = run(capsys, "sign", "zolotareff", "5", str(modulus),
                               "--format", "json")
            assert time.perf_counter() - start < 1
            assert code == 0 and json.loads(out)["result"]["sign"] == expected


class TestIetCommands:
    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "iet", "sigma", "--composition", "2,2,5")
        assert code == 0 and "(0,7,3,6,2,5,1,8,4)" in out

    def test_encode(self, capsys):
        code, out, _ = run(capsys, "iet", "encode", "--composition", "2,2,5",
                           "--alphabet", "a,b,c")
        assert code == 0 and out.strip() == "acbcbcacc"

    def test_circular(self, capsys):
        code, out, _ = run(capsys, "iet", "circular", "--composition", "2,2,2")
        assert code == 0 and out.strip() == "false"

    @pytest.mark.parametrize("composition, circular, criterion", [
        ("3,5", True, "two_interval_circular"), ("4,6", False, "two_interval_circular"),
        ("2,2,5", True, "pak_redlich_circular"), ("0,3,3", False, "pak_redlich_circular"),
        ("7", False, None), ("1,2,3,4", False, None), ("1,2,1,2", True, None)])
    def test_circular_names_its_gcd_criterion(self, capsys, composition, circular, criterion):
        """Two and three parts are cross-checked against their gcd
        criterion; other sizes report neither a criterion nor a match."""
        code, out, _ = run(capsys, "iet", "circular", "--composition", composition,
                           "--format", "json")
        result = json.loads(out)["result"]
        assert code == 0 and result == {
            "circular": circular, "criterion": criterion,
            "match": None if criterion is None else True}


class TestCfCommands:
    def test_continuant(self, capsys):
        code, out, _ = run(capsys, "cf", "continuant", "1,1,1")
        assert code == 0 and out.strip() == "3"

    def test_semiconvergents(self, capsys):
        code, out, _ = run(capsys, "cf", "semiconvergents", "0,1,1,1,1")
        assert code == 0 and out.split() == ["1/1", "1/2", "2/3", "3/5"]

    def test_ppp(self, capsys):
        code, out, _ = run(capsys, "cf", "ppp", "0,2,2")
        assert code == 0 and "1 ones, 3 zeros" in out

    def test_convert_slope(self, capsys):
        code, out, _ = run(capsys, "cf", "convert-slope", "0,2,3")
        assert code == 0 and "[0;1,3]" in out and "3/4" in out


class TestSturmianCommands:
    def test_detvec_both(self, capsys):
        code, out, _ = run(capsys, "sturmian", "detvec", "--cf", "2,1,2",
                           "--len", "10", "--both")
        assert code == 0 and "match: true" in out

    def test_detvec_length_zero(self, capsys):
        code, out, _ = run(capsys, "sturmian", "detvec", "--cf", "0,1", "--len", "0")
        assert code == 0 and "match: true" in out

    def test_detvec_json(self, capsys):
        code, out, _ = run(capsys, "sturmian", "detvec", "--cf", "2,1,2",
                           "--len", "8", "--format", "json")
        payload = json.loads(out)
        assert payload["result"]["closed"]["components"] == [-5, 3, -2, 3, -2, 3, -5, 3, 3]
        assert payload["result"]["match"] is True

    def test_gchain(self, capsys):
        code, out, _ = run(capsys, "sturmian", "gchain", "--cf", "2,1,2", "--nu", "4")
        assert code == 0 and "G_10" in out and "(arrow 3)" in out

    def test_detvec_oracle_only(self, capsys):
        code, out, _ = run(capsys, "sturmian", "detvec", "--cf", "0,1,1,1",
                           "--len", "3", "--oracle")
        assert code == 0 and out.strip() == "oracle: [-1, 1, 0, 1]"

    def test_insufficient_cf(self, capsys):
        code, _, err = run(capsys, "sturmian", "detvec", "--cf", "2", "--len", "9")
        assert code == 1 and "InsufficientCFError" in err

    def test_large_quotient_detvec_returns_at_once(self, capsys):
        """The chain walk stops at the covering word, far before 10^8 items."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "sturmian", "detvec", "--cf", "0,100000000,5",
                           "--len", "10", "--closed", "--format", "json")
        assert time.perf_counter() - start < 1
        oracle = determinantal_vector_oracle(
            factor_matrix(SturmianSlope.from_quotients((0, 10)), 10))
        assert code == 0
        assert json.loads(out)["result"]["closed"]["components"] == list(oracle.components)

    def test_large_quotient_gchain_returns_at_once(self, capsys):
        """Chain words 0..2 of [0;10^8,1] are those of [0;3]."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "sturmian", "gchain", "--cf", "0,100000000,1",
                           "--nu", "2")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == run(capsys, "sturmian", "gchain", "--cf", "0,3", "--nu", "2")[1]


class TestFibCommands:
    def test_sign(self, capsys):
        code, out, _ = run(capsys, "fib", "sign", "7")
        assert code == 0 and "1^1 4^3" in out and out.startswith("-1")

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "fib", "chain", "--count", "3")
        assert code == 0 and out.split() == ["01", "001", "00101"]

    def test_detvec(self, capsys):
        code, out, _ = run(capsys, "fib", "detvec", "--len", "3")
        assert code == 0 and "[-1, 1, 0, 1]" in out

    def test_gcd_lemma(self, capsys):
        code, out, _ = run(capsys, "fib", "gcd-lemma", "--k", "1")
        assert code == 0 and "a: True  b: True  c: True" in out


class TestReproduce:
    def test_all_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce", "paper-examples")
        assert code == 0
        assert "6/6 fixtures passed" in out
        assert "FAIL" not in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "reproduce", "paper-examples", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["result"]["all_passed"] is True


# (argv, the argument named in the error)
MALFORMED = [
    (["word", "pc-check", "A"], "word"),
    (["word", "factorize", "01a"], "word"),
    (["cf", "continuant", "1,x"], "values"),
    (["cf", "semiconvergents", "1,a"], "cf"),
    (["iet", "sigma", "--composition", "1,x"], "--composition"),
    (["sturmian", "detvec", "--cf", "1,x", "--len", "3"], "--cf"),
    (["matrix", "christoffel", "--n", "3", "--a", "x", "--b", "1", "--r", "1"], "--a"),
    (["matrix", "christoffel", "--n", "3", "--a", "1 mod x", "--b", "1", "--r", "1"], "--a"),
    (["word", "factorize", "--numeric", "x"], "word"),
    (["iet", "encode", "--composition", "1,2", "--alphabet", "1,x"], "--alphabet"),
    (["matrix", "mul", "--n", "3", "--a", "0", "--b", "1", "--r", "1",
      "--a2", "0", "--b2", "y", "--r2", "1"], "--b2"),
    # A zero denominator is a malformed number, not a division by zero.
    (["matrix", "christoffel", "--n", "3", "--a", "1/0", "--b", "1", "--r", "1"], "--a"),
    (["word", "pc-check", "1/0,1"], "word"),
    (["iet", "encode", "--composition", "1,2", "--alphabet", "1/0,1"], "--alphabet"),
]


@pytest.mark.parametrize("argv, argument", MALFORMED,
                         ids=[f"argv{k}" for k in range(len(MALFORMED))])
def test_malformed_argument_exit_code(capsys, argv, argument):
    """A malformed number, word or scalar is a usage error: exit 2, one
    line that names the argument as argparse does."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error [usage]: argument {argument}: ")


@pytest.mark.parametrize("op", ["christoffel", "mul", "inv", "det"])
def test_matrix_order_cap(capsys, monkeypatch, op):
    """An order above the cap exits 1 before any matrix is built."""
    def forbidden(p):
        raise AssertionError("christoffel_matrix ran past the cap")

    monkeypatch.setattr(bwgroup, "christoffel_matrix", forbidden)
    order = str(cli.MAX_MATRIX_ORDER + 1)
    second = ["--a2", "0", "--b2", "1", "--r2", "1"] if op == "mul" else []
    code, out, err = run(capsys, "matrix", op, "--n", order, "--a", "0", "--b", "1",
                         "--r", "1", *second)
    assert code == 1 and out == ""
    assert err.startswith("error [SizeLimitError]: ") and order in err


def test_fib_chain_count_cap(capsys, monkeypatch):
    """A count above the cap exits 1 before any word is built; the cap
    itself is accepted."""
    chain = fibonacci.fib_word_chain
    monkeypatch.setattr(fibonacci, "fib_word_chain", lambda count: chain(min(count, 3)))
    code, out, err = run(capsys, "fib", "chain", "--count", str(cli.MAX_FIB_CHAIN_COUNT + 1))
    assert code == 1 and out == "" and err.startswith("error [SizeLimitError]: ")
    code, out, _ = run(capsys, "fib", "chain", "--count", str(cli.MAX_FIB_CHAIN_COUNT))
    assert code == 0 and out.split() == ["01", "001", "00101"]


@pytest.mark.parametrize("argv", [
    ["word", "christoffel", "--ones", str(cli.MAX_LINEAR_SIZE // 2 + 1),
     "--zeros", str(cli.MAX_LINEAR_SIZE // 2)],
    ["word", "factorize", "0" * cli.MAX_LINEAR_SIZE + "1"],
    ["word", "pc-check", "0" * cli.MAX_LINEAR_SIZE + "1"],
    ["matrix", "bw", "0" * cli.MAX_MATRIX_ORDER + "1"],
    ["iet", "sigma", "--composition", f"{cli.MAX_LINEAR_SIZE},1"],
    ["iet", "encode", "--composition", f"{cli.MAX_LINEAR_SIZE},1"],
    ["iet", "circular", "--composition", f"{cli.MAX_LINEAR_SIZE},1"],
    ["cf", "semiconvergents", f"{cli.MAX_SEMICONVERGENTS},1"],
    ["sturmian", "detvec", "--cf", "0,1", "--len", str(cli.MAX_MATRIX_ORDER + 1)],
    ["sturmian", "detvec", "--cf", "0,1", "--len", str(cli.MAX_MATRIX_ORDER + 1),
     "--oracle"],
    ["sturmian", "detvec", "--cf", "0,1", "--len", str(cli.MAX_LINEAR_SIZE + 1),
     "--closed"],
    # chain word nu of [0;1,h] has length 2 nu + 1
    ["sturmian", "gchain", "--cf", "0,1,1000",
     "--nu", str(cli.MAX_CHAIN_WORD_LENGTH // 2)],
    ["fib", "sign", str(cli.MAX_FIB_SIGN_INDEX + 1)],
    ["fib", "detvec", "--len", str(cli.MAX_LINEAR_SIZE + 1)],
    ["fib", "gcd-lemma", "--k", str(cli.MAX_GCD_LEMMA_K + 1)],
], ids=lambda argv: " ".join(argv[:2] + [argv[-1][:12]]))
def test_size_cap(capsys, argv):
    """One past each cap exits 1 with SizeLimitError before any work."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error [SizeLimitError]: ")


ONES = ",".join(["1"] * 25_000)
# 130 KB, just under Linux's 128 KiB limit on one argument.
NINES = ",".join(["9"] * 65_000)


@pytest.mark.parametrize("argv", [
    ["cf", "continuant", ONES],
    ["cf", "ppp", ONES],
    pytest.param(["cf", "ppp", NINES], id="cf ppp 65000 nines"),
    ["cf", "convert-slope", "0," + ONES],
    ["cf", "convert-slope", "--reverse", ONES],
], ids=lambda argv: " ".join(argv[:-1]))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_past_print_limit(capsys, argv, fmt):
    """A parsed input whose result has more digits than the interpreter
    prints exits 1 with SizeLimitError, not as a usage error."""
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error [SizeLimitError]: ")


@pytest.mark.parametrize("argv, tail", [
    pytest.param(["cf", "convert-slope", NINES],
                 "is not the expansion of a density in (0, 1)", id="cf convert-slope"),
    pytest.param(["word", "pc-check", "01" * 50_000], "is not primitive", id="word pc-check"),
    pytest.param(["cf", "semiconvergents", "1" + ",0" * 50_000], "0, 0]",
                 id="cf semiconvergents"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_error_line_elides_a_long_argument(capsys, argv, tail, fmt):
    """An error that echoes a whole argument prints one short line that
    keeps the message's head and its explanation at the end."""
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 1000
    assert err.startswith("error [") and err.rstrip("\n").endswith(tail)


def test_continuant_at_print_limit(capsys):
    """The largest printable continuant prints; one digit more is refused."""
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "cf", "continuant", "9" * limit)
    assert code == 0 and out.strip() == "9" * limit
    # continuant(9, x) = 9x + 1 = 10^limit, limit + 1 digits, for x = (10^limit - 1) / 9
    code, out, err = run(capsys, "cf", "continuant", "9," + "1" * limit)
    assert code == 1 and out == "" and err.startswith("error [SizeLimitError]: ")


def test_chain_word_length_cap_accepts_the_cap(capsys):
    nu = (cli.MAX_CHAIN_WORD_LENGTH - 1) // 2
    code, out, _ = run(capsys, "sturmian", "gchain", "--cf", "0,1,1000", "--nu", str(nu),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["steps"][0]["n"] == 2 * nu


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["word", "christoffel", "--ones", "x", "--zeros", "5"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, name", [
    (["sign", "zolotareff", "x" * 100_000, "13"], "argument r: "),
    (["fib", "sign", "9" * 5_000], "argument m: "),
    (["matrix", "det", "--n", "7" * 50_000 + "x", "--a", "0", "--b", "1", "--r", "2"],
     "argument --n: "),
], ids=["sign zolotareff", "fib sign", "matrix det"])
def test_malformed_int_argument_is_elided(capsys, argv, name):
    """A malformed int argument gets main's one elided usage line, exit 2,
    which names the argument, from the leaf parser and the whole tree."""
    for parse in (main, cli.build_parser().parse_args):
        code, out, err = exit_of(capsys, parse, argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
        assert err.startswith("error [usage]: " + name)


@pytest.mark.parametrize("argv, flag", [
    (["fib", "chain", "--count=--"], "--count"),
    (["iet", "encode", "--composition=--"], "--composition"),
    (["iet", "encode", "--composition=1,2", "--alphabet=--"], "--alphabet"),
    (["matrix", "det", "--n=3", "--a=--", "--b=1", "--r=1"], "--a"),
])
def test_option_valued_double_dash_is_usage_error(capsys, argv, flag):
    """argparse stores "--opt=--" as an empty list, which used to reach a
    handler and crash it (or, for --alphabet, pass as no alphabet)."""
    code, out, err = exit_of(capsys, main, argv)
    assert code == 2 and out == ""
    assert err == f"error [usage]: argument {flag}: expected one argument\n"


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("modes", [("--oracle", "--closed"), ("--oracle", "--both"),
                                   ("--closed", "--both")])
def test_detvec_two_modes_rejected(capsys, modes):
    """Two of --oracle/--closed/--both are a usage error, not resolved."""
    code, out, err = run(capsys, "sturmian", "detvec", "--cf", "0,1,1,1", "--len", "3", *modes)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error [usage]: ")


def exit_of(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out = capsys.readouterr()
    return excinfo.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["word", "christoffel", "-h"],
    ["matrix", "mul", "--help"],
    ["reproduce", "paper-examples", "-h"],
    ["sign", "zolotareff", "5"],
    ["sign", "zolotareff", "x", "13"],
    ["fib", "chain", "--count", "3", "--format", "xml"],
    ["fib", "chain", "--count", "3", "extra"],
    ["cf", "ppp", "0,2,2", "--bogus", "1"],
    ["word", "christoffel"],
    ["word", "-h"],
    ["word", "nonsense"],
    ["-h"],
    [],
])
def test_leaf_parser_ends_like_the_whole_tree(capsys, argv):
    """Help and usage errors read the same whether main parses with the
    command's own parser or falls back to the whole tree."""
    assert exit_of(capsys, main, argv) == exit_of(capsys, cli.build_parser().parse_args, argv)


def test_leaf_parser_parses_like_the_whole_tree():
    from test_cli_golden import CORPUS

    for argv in CORPUS.values():
        for extra in ([], ["--format", "json"]):
            tree = vars(cli.build_parser().parse_args(argv + extra))
            command, args = cli._parse(argv + extra)
            assert command == f"{tree.pop('group')} {tree.pop('op')}"
            assert vars(args) == tree
