"""Fuzz of the command line, with argv built from the command table.

Each declared argument of a command in ``cli.COMMANDS`` gets a valid, a
boundary, a malformed or an oversized value, and ``--format json`` is
added half the time.  The argv keeps argparse's structure: every
required argument once, option values attached with ``=`` and the
positionals after ``--``, so each outcome comes from the program itself.
It must exit 0, or exit 1 (domain error) or 2 (usage error) with one
``error [...]`` line on stderr, never with a traceback; JSON output must
parse.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from christoffel import cli

CAPS = (cli.MAX_MATRIX_ORDER, cli.MAX_FIB_CHAIN_COUNT, cli.MAX_LINEAR_SIZE,
        cli.MAX_FIB_SIGN_INDEX, cli.MAX_GCD_LEMMA_K, cli.MAX_SEMICONVERGENTS,
        cli.MAX_CHAIN_WORD_LENGTH)

# Int arguments: (valid, boundary, malformed, oversized).
INTS = (
    st.integers(0, 40).map(str),
    st.sampled_from(sorted({str(x) for cap in CAPS for x in (cap - 1, cap, cap + 1)}
                           | {"-1", "0", "1", "2"})),
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "1/2", "--", "+", " ", "nan", "7 mod 5"]),
    st.sampled_from(["9" * 5000, str(10 ** 40), str(-10 ** 40)]),
)

_SCALARS = (["0", "1", "-7", "1/2", "2/3", "3 mod 7", "5 mod 7"],
            ["0 mod 2", "1 mod 3", "1 mod 257", "255 mod 257", "-1/2",
             "3 mod 2305843009213693951"],
            ["", "--", "1/0", "abc", "1 mod 4", "1 mod 1", "1 mod 0", "1 mod", "mod 7",
             "1/2 mod 2", "1 mod 2 mod 3"],
            ["1 mod " + str(2 ** 89 - 1), "9" * 5000, "1/" + "9" * 5000, str(10 ** 40)])
_CF = (["0,2,2", "2,1,2", "0,1", "1,2,1,3", "0,2,3,4,5", "3"],
       ["0", "1", "1,1", "0,1,1", "0,1000", "0,2000", "0,2001"],
       ["", "--", "a", "0,0", "-1,2", "1,,2", "1,0", "1.5"],
       [",".join(["9"] * 2000), "0," + "9" * 5000])
_WORD = (["0110111", "01101110111", "0001001", "acbcbcacc", "1,2,3", "-1,0,1", "1/2,3"],
         ["0", "a", "01", "10", "aab", "0" * 128 + "1" * 127 + "2", "0" * 255 + "1",
          "0" * 256 + "1"],
         ["", "--", ",", "1,,2", "1/0", "1/0,1", "a,1", "\x00", "1 2"],
         ["01" * 50_001, "0" * 100_001])
# String arguments by their flag: (valid, boundary, malformed, oversized).
STRINGS = {
    "word": _WORD,
    "--a": _SCALARS, "--b": _SCALARS, "--a2": _SCALARS, "--b2": _SCALARS,
    "--composition": (["2,2,5", "1,1", "3", "2,0,3", "1,2,3,4", "4,7"],
                      ["0", "0,0", "1", "0,1", "1,1,99998", "99998,1,1", "100000", "100001",
                       "33333,1,66666", "40000,1,29999,30000"],
                      ["", "--", ",", "a", "1,,2", "-1,2", "1.5,2", "1/2"],
                      [",".join(["1"] * 100_001), "9" * 5000]),
    "--alphabet": (["a,b,c", "0,1", "1,2,3", "x,y", "1/2,3", "-1,0,1"],
                   ["a", "0", "a,b,c,d,e", "0,0"],
                   ["", "--", ",", "a,1", "1/0,1", "a,,b", "1,b"],
                   [",".join(["x"] * 100_001), ",".join(map(str, range(100_001)))]),
    "cf": _CF, "--cf": _CF,
    "values": (["1,2,3", "5", "0,1", "-1,2"],
               ["0", "1", "0,0,0"],
               ["", "--", "a", "1,,2", "1.5"],
               [",".join(["9" * 50] * 500)]),
}


def value(flag: str, is_int: bool):
    kinds = INTS if is_int else tuple(st.sampled_from(v) for v in STRINGS[flag])
    return st.one_of(*kinds)


@st.composite
def command_lines(draw):
    """(command, argv, json?) for one command of the table."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options, positionals = [], []
    for flags, opts in cli.COMMANDS[name][1]:
        flag = flags[0]
        if opts.get("action") in ("store_true", "append_const"):
            if draw(st.booleans()):
                options.append(flag)
            continue
        if flag.startswith("-") and not opts.get("required") and draw(st.booleans()):
            continue
        text = draw(value(flag, "type" in opts))
        if flag.startswith("-"):
            options.append(f"{flag}={text}")
        else:
            positionals.append(text)
    as_json = draw(st.booleans())
    if as_json:
        options.append("--format=json")
    options = draw(st.permutations(options))
    return name, [*name.split(), *options, *(["--", *positionals] if positionals else [])], \
        as_json


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage line printed while parsing
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(line=command_lines())
def test_every_outcome_is_an_exit_code_and_one_error_line(line):
    name, argv, as_json = line
    code, out, err = run(argv)
    assert code in (0, 1, 2), argv[:4]
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if as_json:
            assert json.loads(out)["command"] == name
    else:
        assert err.startswith("error [") and err.count("\n") == 1, err[:300]
