"""Whole outputs of the command line, frozen.

Each case of CORPUS runs once with ``--format text`` and once with
``--format json``; stdout, stderr and the exit code must equal the
literals in EXPECTED.  The corpus covers every subcommand, scalars over
GF(p), one size cap per cap constant, a malformed argument and domain
errors.  ``--help`` text is left out: argparse formats it differently
across Python versions.
"""

import pytest

from christoffel import fixtures
from christoffel.cli import main
from christoffel.fixtures import FixtureResult

Q7 = ["--n", "7", "--a", "0", "--b", "1", "--r", "2"]
GF7 = ["--n", "7", "--a", "3 mod 65537", "--b", "4 mod 65537", "--r", "2"]

CORPUS = {
    "word-christoffel": ["word", "christoffel", "--ones", "2", "--zeros", "5"],
    "word-christoffel-upper-alphabet": ["word", "christoffel", "--ones", "3", "--zeros", "4",
                                        "--upper", "--alphabet", "1/2,3"],
    "word-factorize": ["word", "factorize", "01101110111"],
    "word-factorize-numeric": ["word", "factorize", "--numeric", "0,1,1"],
    "word-factorize-neither": ["word", "factorize", "0110"],
    "word-pc-check": ["word", "pc-check", "acbcbcacc"],
    "word-pc-check-numeric-letter": ["word", "pc-check", "--numeric", "5"],
    "matrix-bw": ["matrix", "bw", "0001001"],
    "matrix-bw-numeric": ["matrix", "bw", "--numeric", "3,1,2"],
    "matrix-christoffel": ["matrix", "christoffel", *Q7],
    "matrix-christoffel-fractions": ["matrix", "christoffel", "--n", "3", "--a", "1/2",
                                     "--b", "-4", "--r", "1"],
    "matrix-christoffel-gf": ["matrix", "christoffel", *GF7],
    "matrix-mul": ["matrix", "mul", *Q7, "--a2", "0", "--b2", "1", "--r2", "4"],
    "matrix-mul-gf": ["matrix", "mul", *GF7, "--a2", "1 mod 65537", "--b2", "5 mod 65537",
                      "--r2", "3"],
    "matrix-inv": ["matrix", "inv", *Q7],
    "matrix-inv-gf": ["matrix", "inv", *GF7],
    "matrix-det": ["matrix", "det", *Q7],
    "matrix-det-gf": ["matrix", "det", *GF7],
    "matrix-det-mixed-kinds": ["matrix", "det", "--n", "7", "--a", "3 mod 65537",
                               "--b", "4", "--r", "2"],
    "matrix-christoffel-division-by-zero": ["matrix", "christoffel", "--n", "3", "--a", "1/0",
                                            "--b", "1", "--r", "1"],
    "matrix-christoffel-second-separator": ["matrix", "christoffel", "--n", "3",
                                            "--a", "1 mod 2 mod 3", "--b", "1", "--r", "1"],
    "sign-zolotareff": ["sign", "zolotareff", "5", "13"],
    "sign-zolotareff-not-coprime": ["sign", "zolotareff", "2", "8"],
    "sign-jacobi": ["sign", "jacobi", "3", "5"],
    "sign-jacobi-zero": ["sign", "jacobi", "3", "9"],
    "iet-sigma": ["iet", "sigma", "--composition", "2,2,5"],
    "iet-encode": ["iet", "encode", "--composition", "2,2,5"],
    "iet-encode-labels": ["iet", "encode", "--composition", "2,2,5", "--alphabet", "a,b,c"],
    "iet-circular": ["iet", "circular", "--composition", "2,2,2"],
    "cf-continuant": ["cf", "continuant", "1,1,1"],
    "cf-continuant-malformed": ["cf", "continuant", "1,x"],
    "cf-semiconvergents": ["cf", "semiconvergents", "0,1,1,1,1"],
    "cf-ppp": ["cf", "ppp", "0,2,2"],
    "cf-convert-slope": ["cf", "convert-slope", "0,2,3"],
    "cf-convert-slope-reverse": ["cf", "convert-slope", "--reverse", "0,1,3"],
    "sturmian-detvec": ["sturmian", "detvec", "--cf", "2,1,2", "--len", "10"],
    "sturmian-detvec-both": ["sturmian", "detvec", "--cf", "2,1,2", "--len", "8", "--both"],
    "sturmian-detvec-closed": ["sturmian", "detvec", "--cf", "0,1,1,1", "--len", "3",
                               "--closed"],
    "sturmian-detvec-oracle": ["sturmian", "detvec", "--cf", "0,1,1,1", "--len", "3",
                               "--oracle"],
    "sturmian-detvec-insufficient-cf": ["sturmian", "detvec", "--cf", "2", "--len", "9"],
    "sturmian-gchain": ["sturmian", "gchain", "--cf", "2,1,2", "--nu", "4"],
    "fib-sign": ["fib", "sign", "7"],
    "fib-chain": ["fib", "chain", "--count", "5"],
    "fib-detvec": ["fib", "detvec", "--len", "8"],
    "fib-detvec-len-0": ["fib", "detvec", "--len", "0"],
    "fib-detvec-len-1": ["fib", "detvec", "--len", "1"],
    "fib-gcd-lemma": ["fib", "gcd-lemma", "--k", "1"],
    "reproduce": ["reproduce", "paper-examples"],
    # one past each cap constant, and past the word argument's cap
    "cap-matrix-order": ["matrix", "det", "--n", "257", "--a", "0", "--b", "1", "--r", "1"],
    "cap-fib-chain-count": ["fib", "chain", "--count", "31"],
    "cap-linear-size": ["word", "christoffel", "--ones", "50001", "--zeros", "50000"],
    "cap-word-argument": ["word", "pc-check", "0" * 100_000 + "1"],
    "cap-fib-sign-index": ["fib", "sign", "10001"],
    "cap-gcd-lemma-k": ["fib", "gcd-lemma", "--k", "10001"],
    "cap-semiconvergents": ["cf", "semiconvergents", "2000,1"],
    "cap-chain-word-length": ["sturmian", "gchain", "--cf", "0,1,1000", "--nu", "64"],
}

EXPECTED = {
    'cap-chain-word-length': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: chain word length 129 exceeds the cap 128\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: chain word length 129 exceeds the cap 128\n'],
    },
    'cap-fib-chain-count': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: --count 31 exceeds the cap 30\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: --count 31 exceeds the cap 30\n'],
    },
    'cap-fib-sign-index': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: m 10001 exceeds the cap 10000\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: m 10001 exceeds the cap 10000\n'],
    },
    'cap-gcd-lemma-k': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: --k 10001 exceeds the cap 10000\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: --k 10001 exceeds the cap 10000\n'],
    },
    'cap-linear-size': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: --ones + --zeros 100001 exceeds the cap 100000\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: --ones + --zeros 100001 exceeds the cap 100000\n'],
    },
    'cap-matrix-order': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: --n 257 exceeds the cap 256\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: --n 257 exceeds the cap 256\n'],
    },
    'cap-semiconvergents': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: sum of quotients 2001 exceeds the cap 2000\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: sum of quotients 2001 exceeds the cap 2000\n'],
    },
    'cap-word-argument': {
        'text': [1,
                 '',
                 'error [SizeLimitError]: word length 100001 exceeds the cap 100000\n'],
        'json': [1,
                 '',
                 'error [SizeLimitError]: word length 100001 exceeds the cap 100000\n'],
    },
    'cf-continuant': {
        'text': [0,
                 '3\n',
                 ''],
        'json': [0,
                 ('{"command": "cf continuant", "format_version": "1", "inputs": {"values"'
                  ': [1, 1, 1]}, "result": {"continuant": 3}}\n'),
                 ''],
    },
    'cf-continuant-malformed': {
        'text': [2,
                 '',
                 "error [usage]: argument values: invalid literal for int() with base 10: 'x'\n"],
        'json': [2,
                 '',
                 "error [usage]: argument values: invalid literal for int() with base 10: 'x'\n"],
    },
    'cf-convert-slope': {
        'text': [0,
                 'slope: [0;1,3] = 3/4\n',
                 ''],
        'json': [0,
                 ('{"command": "cf convert-slope", "format_version": "1", "inputs": {"cf":'
                  ' [0, 2, 3], "reverse": false}, "result": {"slope": [0, 1, 3], "value": '
                  '"3/4"}}\n'),
                 ''],
    },
    'cf-convert-slope-reverse': {
        'text': [0,
                 'density: [0;2,3] = 3/7\n',
                 ''],
        'json': [0,
                 ('{"command": "cf convert-slope", "format_version": "1", "inputs": {"cf":'
                  ' [0, 1, 3], "reverse": true}, "result": {"density": [0, 2, 3], "value":'
                  ' "3/7"}}\n'),
                 ''],
    },
    'cf-ppp': {
        'text': [0,
                 ('matrix: ((1, 1), (3, 2))\n'
                  "w' has 1 ones, 3 zeros; w'' has 1 ones, 2 zeros\n"),
                 ''],
        'json': [0,
                 ('{"command": "cf ppp", "format_version": "1", "inputs": {"cf": [0, 2, 2]'
                  '}, "result": {"first_counts": {"ones": 1, "zeros": 3}, "m_even": true, '
                  '"matrix": [[1, 1], [3, 2]], "second_counts": {"ones": 1, "zeros": 2}}}'
                  '\n'),
                 ''],
    },
    'cf-semiconvergents': {
        'text': [0,
                 '1/1 1/2 2/3 3/5\n',
                 ''],
        'json': [0,
                 ('{"command": "cf semiconvergents", "format_version": "1", "inputs": {"cf'
                  '": [0, 1, 1, 1, 1]}, "result": {"semiconvergents": ["1/1", "1/2", "2/3"'
                  ', "3/5"]}}\n'),
                 ''],
    },
    'fib-chain': {
        'text': [0,
                 '01 001 00101 00100101 0010010100101\n',
                 ''],
        'json': [0,
                 ('{"command": "fib chain", "format_version": "1", "inputs": {"count": 5},'
                  ' "result": {"words": ["01", "001", "00101", "00100101", "0010010100101"'
                  ']}}\n'),
                 ''],
    },
    'fib-detvec': {
        'text': [0,
                 ('nu=4 i=4 composition=(1, 4, 4) alphabet=(-3, -1, 2)\n'
                  'vector: [-3, 2, -1, 2, -1, -1, 2, -1, 2]\n'),
                 ''],
        'json': [0,
                 ('{"command": "fib detvec", "format_version": "1", "inputs": {"len": 8}, '
                  '"result": {"alphabet": [-3, -1, 2], "composition": [1, 4, 4], "i": 4, "'
                  'nu": 4, "values": [1, 2, 3], "vector": [-3, 2, -1, 2, -1, -1, 2, -1, 2]'
                  '}}\n'),
                 ''],
    },
    'fib-detvec-len-0': {
        'text': [0,
                 ('nu=0 i=1 composition=(0, 1, 0) alphabet=(0, 1, 1)\n'
                  'vector: [1]\n'),
                 ''],
        'json': [0,
                 ('{"command": "fib detvec", "format_version": "1", "inputs": {"len": 0}, "r'
                  'esult": {"alphabet": [0, 1, 1], "composition": [0, 1, 0], "i": 1, "nu": 0'
                  ', "values": [1], "vector": [1]}}\n'),
                 ''],
    },
    'fib-detvec-len-1': {
        'text': [0,
                 ('nu=0 i=0 composition=(1, 0, 1) alphabet=(0, 1, 1)\n'
                  'vector: [0, 1]\n'),
                 ''],
        'json': [0,
                 ('{"command": "fib detvec", "format_version": "1", "inputs": {"len": 1}, "r'
                  'esult": {"alphabet": [0, 1, 1], "composition": [1, 0, 1], "i": 0, "nu": 0'
                  ', "values": [0, 1], "vector": [0, 1]}}\n'),
                 ''],
    },
    'fib-gcd-lemma': {
        'text': [0,
                 'a: True  b: True  c: True\n',
                 ''],
        'json': [0,
                 ('{"command": "fib gcd-lemma", "format_version": "1", "inputs": {"k": 1},'
                  ' "result": {"case_a": true, "case_b": true, "case_c": true}}\n'),
                 ''],
    },
    'fib-sign': {
        'text': [0,
                 '-1  cycle type 1^1 4^3\n',
                 ''],
        'json': [0,
                 ('{"command": "fib sign", "format_version": "1", "inputs": {"m": 7}, "res'
                  'ult": {"cycle_type": "1^1 4^3", "sign": -1}}\n'),
                 ''],
    },
    'iet-circular': {
        'text': [0,
                 'false\n',
                 ''],
        'json': [0,
                 ('{"command": "iet circular", "format_version": "1", "inputs": {"composit'
                  'ion": [2, 2, 2]}, "result": {"circular": false, "criterion": "pak_redlich'
                  '_circular", "match": true}}\n'),
                 ''],
    },
    'iet-encode': {
        'text': [0,
                 '021212022\n',
                 ''],
        'json': [0,
                 ('{"command": "iet encode", "format_version": "1", "inputs": {"alphabet":'
                  ' ["0", "1", "2"], "composition": [2, 2, 5]}, "result": {"word": "021212'
                  '022"}}\n'),
                 ''],
    },
    'iet-encode-labels': {
        'text': [0,
                 'acbcbcacc\n',
                 ''],
        'json': [0,
                 ('{"command": "iet encode", "format_version": "1", "inputs": {"alphabet":'
                  ' ["a", "b", "c"], "composition": [2, 2, 5]}, "result": {"word": "acbcbc'
                  'acc"}}\n'),
                 ''],
    },
    'iet-sigma': {
        'text': [0,
                 'images: [7, 8, 5, 6, 0, 1, 2, 3, 4]\ncycles: (0,7,3,6,2,5,1,8,4)\n',
                 ''],
        'json': [0,
                 ('{"command": "iet sigma", "format_version": "1", "inputs": {"composition'
                  '": [2, 2, 5]}, "result": {"circular": true, "cycles": "(0,7,3,6,2,5,1,8'
                  ',4)", "images": [7, 8, 5, 6, 0, 1, 2, 3, 4]}}\n'),
                 ''],
    },
    'matrix-bw': {
        'text': [0,
                 '1001000\n1000100\n0100100\n0100010\n0010010\n0010001\n0001001\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix bw", "format_version": "1", "inputs": {"word": "000'
                  '1001"}, "result": {"matrix": [["1", "0", "0", "1", "0", "0", "0"], ["1"'
                  ', "0", "0", "0", "1", "0", "0"], ["0", "1", "0", "0", "1", "0", "0"], ['
                  '"0", "1", "0", "0", "0", "1", "0"], ["0", "0", "1", "0", "0", "1", "0"]'
                  ', ["0", "0", "1", "0", "0", "0", "1"], ["0", "0", "0", "1", "0", "0", "'
                  '1"]]}}\n'),
                 ''],
    },
    'matrix-bw-numeric': {
        'text': [0,
                 '312\n231\n123\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix bw", "format_version": "1", "inputs": {"word": "312'
                  '"}, "result": {"matrix": [["3", "1", "2"], ["2", "3", "1"], ["1", "2", '
                  '"3"]]}}\n'),
                 ''],
    },
    'matrix-christoffel': {
        'text': [0,
                 '1001000\n1000100\n0100100\n0100010\n0010010\n0010001\n0001001\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix christoffel", "format_version": "1", "inputs": {"a"'
                  ': "0", "b": "1", "n": 7, "r": 2}, "result": {"matrix": [["1", "0", "0",'
                  ' "1", "0", "0", "0"], ["1", "0", "0", "0", "1", "0", "0"], ["0", "1", "'
                  '0", "0", "1", "0", "0"], ["0", "1", "0", "0", "0", "1", "0"], ["0", "0"'
                  ', "1", "0", "0", "1", "0"], ["0", "0", "1", "0", "0", "0", "1"], ["0", '
                  '"0", "0", "1", "0", "0", "1"]]}}\n'),
                 ''],
    },
    'matrix-christoffel-division-by-zero': {
        'text': [2,
                 '',
                 "error [usage]: argument --a: zero denominator in '1/0'\n"],
        'json': [2,
                 '',
                 "error [usage]: argument --a: zero denominator in '1/0'\n"],
    },
    'matrix-christoffel-fractions': {
        'text': [0,
                 '-4 1/2 1/2\n1/2 -4 1/2\n1/2 1/2 -4\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix christoffel", "format_version": "1", "inputs": {"a"'
                  ': "1/2", "b": "-4", "n": 3, "r": 1}, "result": {"matrix": [["-4", "1/2"'
                  ', "1/2"], ["1/2", "-4", "1/2"], ["1/2", "1/2", "-4"]]}}\n'),
                 ''],
    },
    'matrix-christoffel-second-separator': {
        'text': [2,
                 '',
                 "error [usage]: argument --a: invalid literal for int() with base 10: '2 mod 3'\n"],
        'json': [2,
                 '',
                 "error [usage]: argument --a: invalid literal for int() with base 10: '2 mod 3'\n"],
    },
    'matrix-christoffel-gf': {
        'text': [0,
                 ('4334333\n'
                  '4333433\n'
                  '3433433\n'
                  '3433343\n'
                  '3343343\n'
                  '3343334\n'
                  '3334334\n'
                  'mod 65537\n'),
                 ''],
        'json': [0,
                 ('{"command": "matrix christoffel", "format_version": "1", "inputs": {"a"'
                  ': "3 mod 65537", "b": "4 mod 65537", "n": 7, "r": 2}, "result": {"matri'
                  'x": [["4 mod 65537", "3 mod 65537", "3 mod 65537", "4 mod 65537", "3 mo'
                  'd 65537", "3 mod 65537", "3 mod 65537"], ["4 mod 65537", "3 mod 65537",'
                  ' "3 mod 65537", "3 mod 65537", "4 mod 65537", "3 mod 65537", "3 mod 655'
                  '37"], ["3 mod 65537", "4 mod 65537", "3 mod 65537", "3 mod 65537", "4 m'
                  'od 65537", "3 mod 65537", "3 mod 65537"], ["3 mod 65537", "4 mod 65537"'
                  ', "3 mod 65537", "3 mod 65537", "3 mod 65537", "4 mod 65537", "3 mod 65'
                  '537"], ["3 mod 65537", "3 mod 65537", "4 mod 65537", "3 mod 65537", "3 '
                  'mod 65537", "4 mod 65537", "3 mod 65537"], ["3 mod 65537", "3 mod 65537'
                  '", "4 mod 65537", "3 mod 65537", "3 mod 65537", "3 mod 65537", "4 mod 6'
                  '5537"], ["3 mod 65537", "3 mod 65537", "3 mod 65537", "4 mod 65537", "3'
                  ' mod 65537", "3 mod 65537", "4 mod 65537"]]}}\n'),
                 ''],
    },
    'matrix-det': {
        'text': [0,
                 'det = 2 (exact determinant agrees: True)\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix det", "format_version": "1", "inputs": {"a": "0", "'
                  'b": "1", "n": 7, "r": 2}, "result": {"det": "2", "det_exact": "2", "mat'
                  'ch": true}}\n'),
                 ''],
    },
    'matrix-det-gf': {
        'text': [0,
                 'det = 23 mod 65537 (exact determinant agrees: True)\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix det", "format_version": "1", "inputs": {"a": "3 mod'
                  ' 65537", "b": "4 mod 65537", "n": 7, "r": 2}, "result": {"det": "23 mod'
                  ' 65537", "det_exact": "23 mod 65537", "match": true}}\n'),
                 ''],
    },
    'matrix-det-mixed-kinds': {
        'text': [1,
                 '',
                 'error [KindMismatchError]: a and b must share one scalar kind\n'],
        'json': [1,
                 '',
                 'error [KindMismatchError]: a and b must share one scalar kind\n'],
    },
    'matrix-inv': {
        'text': [0,
                 'inverse: n=7 a=-1/2 b=1/2 r=4 (dense product agrees: True)\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix inv", "format_version": "1", "inputs": {"a": "0", "'
                  'b": "1", "n": 7, "r": 2}, "result": {"match": true, "matrix": [["1/2", '
                  '"1/2", "-1/2", "1/2", "-1/2", "1/2", "-1/2"], ["1/2", "-1/2", "1/2", "1'
                  '/2", "-1/2", "1/2", "-1/2"], ["1/2", "-1/2", "1/2", "-1/2", "1/2", "1/2'
                  '", "-1/2"], ["1/2", "-1/2", "1/2", "-1/2", "1/2", "-1/2", "1/2"], ["-1/'
                  '2", "1/2", "1/2", "-1/2", "1/2", "-1/2", "1/2"], ["-1/2", "1/2", "-1/2"'
                  ', "1/2", "1/2", "-1/2", "1/2"], ["-1/2", "1/2", "-1/2", "1/2", "-1/2", '
                  '"1/2", "1/2"]], "params": {"a": "-1/2", "b": "1/2", "n": 7, "r": 4}}}\n'),
                 ''],
    },
    'matrix-inv-gf': {
        'text': [0,
                 ('inverse: n=7 a=62687 mod 65537 b=62688 mod 65537 r=4 (dense product agr'
                  'ees: True)\n'),
                 ''],
        'json': [0,
                 ('{"command": "matrix inv", "format_version": "1", "inputs": {"a": "3 mod'
                  ' 65537", "b": "4 mod 65537", "n": 7, "r": 2}, "result": {"match": true,'
                  ' "matrix": [["62688 mod 65537", "62688 mod 65537", "62687 mod 65537", "'
                  '62688 mod 65537", "62687 mod 65537", "62688 mod 65537", "62687 mod 6553'
                  '7"], ["62688 mod 65537", "62687 mod 65537", "62688 mod 65537", "62688 m'
                  'od 65537", "62687 mod 65537", "62688 mod 65537", "62687 mod 65537"], ["'
                  '62688 mod 65537", "62687 mod 65537", "62688 mod 65537", "62687 mod 6553'
                  '7", "62688 mod 65537", "62688 mod 65537", "62687 mod 65537"], ["62688 m'
                  'od 65537", "62687 mod 65537", "62688 mod 65537", "62687 mod 65537", "62'
                  '688 mod 65537", "62687 mod 65537", "62688 mod 65537"], ["62687 mod 6553'
                  '7", "62688 mod 65537", "62688 mod 65537", "62687 mod 65537", "62688 mod'
                  ' 65537", "62687 mod 65537", "62688 mod 65537"], ["62687 mod 65537", "62'
                  '688 mod 65537", "62687 mod 65537", "62688 mod 65537", "62688 mod 65537"'
                  ', "62687 mod 65537", "62688 mod 65537"], ["62687 mod 65537", "62688 mod'
                  ' 65537", "62687 mod 65537", "62688 mod 65537", "62687 mod 65537", "6268'
                  '8 mod 65537", "62688 mod 65537"]], "params": {"a": "62687 mod 65537", "'
                  'b": "62688 mod 65537", "n": 7, "r": 4}}}\n'),
                 ''],
    },
    'matrix-mul': {
        'text': [0,
                 'product: n=7 a=1 b=2 r=1 (dense product agrees: True)\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix mul", "format_version": "1", "inputs": {"a": "0", "'
                  'a2": "0", "b": "1", "b2": "1", "n": 7, "r": 2, "r2": 4}, "result": {"ma'
                  'tch": true, "matrix": [["2", "1", "1", "1", "1", "1", "1"], ["1", "2", '
                  '"1", "1", "1", "1", "1"], ["1", "1", "2", "1", "1", "1", "1"], ["1", "1'
                  '", "1", "2", "1", "1", "1"], ["1", "1", "1", "1", "2", "1", "1"], ["1",'
                  ' "1", "1", "1", "1", "2", "1"], ["1", "1", "1", "1", "1", "1", "2"]], "'
                  'params": {"a": "1", "b": "2", "n": 7, "r": 1}}}\n'),
                 ''],
    },
    'matrix-mul-gf': {
        'text': [0,
                 'product: n=7 a=59 mod 65537 b=63 mod 65537 r=6 (dense product agrees: True)\n',
                 ''],
        'json': [0,
                 ('{"command": "matrix mul", "format_version": "1", "inputs": {"a": "3 mod'
                  ' 65537", "a2": "1 mod 65537", "b": "4 mod 65537", "b2": "5 mod 65537", '
                  '"n": 7, "r": 2, "r2": 3}, "result": {"match": true, "matrix": [["63 mod'
                  ' 65537", "63 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod 65537"'
                  ', "63 mod 65537", "59 mod 65537"], ["63 mod 65537", "63 mod 65537", "63'
                  ' mod 65537", "63 mod 65537", "63 mod 65537", "59 mod 65537", "63 mod 65'
                  '537"], ["63 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod 65537",'
                  ' "59 mod 65537", "63 mod 65537", "63 mod 65537"], ["63 mod 65537", "63 '
                  'mod 65537", "63 mod 65537", "59 mod 65537", "63 mod 65537", "63 mod 655'
                  '37", "63 mod 65537"], ["63 mod 65537", "63 mod 65537", "59 mod 65537", '
                  '"63 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod 65537"], ["63 m'
                  'od 65537", "59 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod 6553'
                  '7", "63 mod 65537", "63 mod 65537"], ["59 mod 65537", "63 mod 65537", "'
                  '63 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod 65537", "63 mod '
                  '65537"]], "params": {"a": "59 mod 65537", "b": "63 mod 65537", "n": 7, '
                  '"r": 6}}}\n'),
                 ''],
    },
    'reproduce': {
        'text': [0,
                 ('PASS  bw-matrix-order7         table of the slope-2/5 word\n'
                  'PASS  group-square-cube        square M(7,0,1,4) and cube M(7,1,2,1) of'
                  ' M(7,0,1,2)\n'
                  'PASS  g-chain-order11          factor-matrix chain G_10 ... G_6 with h '
                  '= 3,5,7,1\n'
                  'PASS  restriction-chain-4-7    two-interval (4,7) restriction encodings'
                  '\n'
                  'PASS  detvec-order11-n10       V_10 closed form == exact minors\n'
                  'PASS  detvec-order11-n8        V_8 closed form == exact minors\n'
                  '6/6 fixtures passed\n'),
                 ''],
        'json': [0,
                 ('{"command": "reproduce paper-examples", "format_version": "1", "inputs"'
                  ': {}, "result": {"all_passed": true, "fixtures": [{"detail": "table of '
                  'the slope-2/5 word", "fixture": "bw-matrix-order7", "passed": true}, {"'
                  'detail": "square M(7,0,1,4) and cube M(7,1,2,1) of M(7,0,1,2)", "fixtur'
                  'e": "group-square-cube", "passed": true}, {"detail": "factor-matrix cha'
                  'in G_10 ... G_6 with h = 3,5,7,1", "fixture": "g-chain-order11", "passe'
                  'd": true}, {"detail": "two-interval (4,7) restriction encodings", "fixt'
                  'ure": "restriction-chain-4-7", "passed": true}, {"detail": "V_10 closed'
                  ' form == exact minors", "fixture": "detvec-order11-n10", "passed": true'
                  '}, {"detail": "V_8 closed form == exact minors", "fixture": "detvec-ord'
                  'er11-n8", "passed": true}]}}\n'),
                 ''],
    },
    'sign-jacobi': {
        'text': [0,
                 '-1\n',
                 ''],
        'json': [0,
                 ('{"command": "sign jacobi", "format_version": "1", "inputs": {"n": 5, "r'
                  '": 3}, "result": {"symbol": -1}}\n'),
                 ''],
    },
    'sign-jacobi-zero': {
        'text': [0,
                 '0\n',
                 ''],
        'json': [0,
                 ('{"command": "sign jacobi", "format_version": "1", "inputs": {"n": 9, "r'
                  '": 3}, "result": {"symbol": 0}}\n'),
                 ''],
    },
    'sign-zolotareff': {
        'text': [0,
                 '-1\n',
                 ''],
        'json': [0,
                 ('{"command": "sign zolotareff", "format_version": "1", "inputs": {"n": 1'
                  '3, "r": 5}, "result": {"sign": -1}}\n'),
                 ''],
    },
    'sign-zolotareff-not-coprime': {
        'text': [1,
                 '',
                 'error [NotCoprimeError]: gcd(2, 8) != 1\n'],
        'json': [1,
                 '',
                 'error [NotCoprimeError]: gcd(2, 8) != 1\n'],
    },
    'sturmian-detvec': {
        'text': [0,
                 ('closed: [5, -3, 5, -3, -3, 5, -3, -3, 5, -3, -3]\n'
                  'oracle: [5, -3, 5, -3, -3, 5, -3, -3, 5, -3, -3]\n'
                  'match: true\n'),
                 ''],
        'json': [0,
                 ('{"command": "sturmian detvec", "format_version": "1", "inputs": {"cf": '
                  '[2, 1, 2], "len": 10, "mode": "both"}, "result": {"closed": {"component'
                  's": [5, -3, 5, -3, -3, 5, -3, -3, 5, -3, -3], "context": {"N": 11, "alp'
                  'habet": [-5, 3], "composition": [4, 7], "epsilon": -1, "i": 0, "nu": 4,'
                  ' "t": 0}}, "match": true, "n": 10, "oracle": [5, -3, 5, -3, -3, 5, -3, '
                  '-3, 5, -3, -3]}}\n'),
                 ''],
    },
    'sturmian-detvec-both': {
        'text': [0,
                 ('closed: [-5, 3, -2, 3, -2, 3, -5, 3, 3]\n'
                  'oracle: [-5, 3, -2, 3, -2, 3, -5, 3, 3]\n'
                  'match: true\n'),
                 ''],
        'json': [0,
                 ('{"command": "sturmian detvec", "format_version": "1", "inputs": {"cf": '
                  '[2, 1, 2], "len": 8, "mode": "both"}, "result": {"closed": {"components'
                  '": [-5, 3, -2, 3, -2, 3, -5, 3, 3], "context": {"N": 11, "alphabet": [-'
                  '5, -2, 3], "composition": [2, 2, 5], "epsilon": -1, "i": 2, "nu": 4, "t'
                  '": 11}}, "match": true, "n": 8, "oracle": [-5, 3, -2, 3, -2, 3, -5, 3, '
                  '3]}}\n'),
                 ''],
    },
    'sturmian-detvec-closed': {
        'text': [0,
                 'closed: [-1, 1, 0, 1]\n',
                 ''],
        'json': [0,
                 ('{"command": "sturmian detvec", "format_version": "1", "inputs": {"cf": '
                  '[0, 1, 1, 1], "len": 3, "mode": "closed"}, "result": {"closed": {"compo'
                  'nents": [-1, 1, 0, 1], "context": {"N": 5, "alphabet": [-1, 0, 1], "com'
                  'position": [1, 1, 2], "epsilon": -1, "i": 1, "nu": 2, "t": 1}}, "n": 3}'
                  '}\n'),
                 ''],
    },
    'sturmian-detvec-insufficient-cf': {
        'text': [1,
                 '',
                 ('error [InsufficientCFError]: chain ends at length 3; extend the continu'
                  'ed fraction to cover factor length 9\n')],
        'json': [1,
                 '',
                 ('error [InsufficientCFError]: chain ends at length 3; extend the continu'
                  'ed fraction to cover factor length 9\n')],
    },
    'sturmian-detvec-oracle': {
        'text': [0,
                 'oracle: [-1, 1, 0, 1]\n',
                 ''],
        'json': [0,
                 ('{"command": "sturmian detvec", "format_version": "1", "inputs": {"cf": '
                  '[0, 1, 1, 1], "len": 3, "mode": "oracle"}, "result": {"n": 3, "oracle":'
                  ' [-1, 1, 0, 1]}}\n'),
                 ''],
    },
    'sturmian-gchain': {
        'text': [0,
                 ('G_10\n'
                  '  1110111011\n'
                  '  1110110111\n'
                  '  1101110111\n'
                  '  1101110110\n'
                  '  1101101110\n'
                  '  1011101110\n'
                  '  1011101101\n'
                  '  1011011101\n'
                  '  0111011101\n'
                  '  0111011011\n'
                  '  0110111011\n'
                  'G_9  (arrow 3)\n'
                  '  111011101\n'
                  '  111011011\n'
                  '  110111011\n'
                  '  110110111\n'
                  '  101110111\n'
                  '  101110110\n'
                  '  101101110\n'
                  '  011101110\n'
                  '  011101101\n'
                  '  011011101\n'
                  'G_8  (arrow 5)\n'
                  '  11101110\n'
                  '  11101101\n'
                  '  11011101\n'
                  '  11011011\n'
                  '  10111011\n'
                  '  10110111\n'
                  '  01110111\n'
                  '  01110110\n'
                  '  01101110\n'
                  'G_7  (arrow 7)\n'
                  '  1110111\n'
                  '  1110110\n'
                  '  1101110\n'
                  '  1101101\n'
                  '  1011101\n'
                  '  1011011\n'
                  '  0111011\n'
                  '  0110111\n'
                  'G_6  (arrow 1)\n'
                  '  111011\n'
                  '  110111\n'
                  '  110110\n'
                  '  101110\n'
                  '  101101\n'
                  '  011101\n'
                  '  011011\n'),
                 ''],
        'json': [0,
                 ('{"command": "sturmian gchain", "format_version": "1", "inputs": {"cf": '
                  '[2, 1, 2], "nu": 4}, "result": {"steps": [{"merge_row": null, "n": 10, '
                  '"rows": ["1110111011", "1110110111", "1101110111", "1101110110", "11011'
                  '01110", "1011101110", "1011101101", "1011011101", "0111011101", "011101'
                  '1011", "0110111011"]}, {"merge_row": 3, "n": 9, "rows": ["111011101", "'
                  '111011011", "110111011", "110110111", "101110111", "101110110", "101101'
                  '110", "011101110", "011101101", "011011101"]}, {"merge_row": 5, "n": 8,'
                  ' "rows": ["11101110", "11101101", "11011101", "11011011", "10111011", "'
                  '10110111", "01110111", "01110110", "01101110"]}, {"merge_row": 7, "n": '
                  '7, "rows": ["1110111", "1110110", "1101110", "1101101", "1011101", "101'
                  '1011", "0111011", "0110111"]}, {"merge_row": 1, "n": 6, "rows": ["11101'
                  '1", "110111", "110110", "101110", "101101", "011101", "011011"]}]}}\n'),
                 ''],
    },
    'word-christoffel': {
        'text': [0,
                 '0001001\n',
                 ''],
        'json': [0,
                 ('{"command": "word christoffel", "format_version": "1", "inputs": {"alph'
                  'abet": ["0", "1"], "ones": 2, "upper": false, "zeros": 5}, "result": {"'
                  'word": "0001001"}}\n'),
                 ''],
    },
    'word-christoffel-upper-alphabet': {
        'text': [0,
                 '3,1/2,3,1/2,3,1/2,1/2\n',
                 ''],
        'json': [0,
                 ('{"command": "word christoffel", "format_version": "1", "inputs": {"alph'
                  'abet": ["1/2", "3"], "ones": 3, "upper": true, "zeros": 4}, "result": {'
                  '"word": "3,1/2,3,1/2,3,1/2,1/2"}}\n'),
                 ''],
    },
    'word-factorize': {
        'text': [0,
                 'standard: 0110111 . 0111\npalindromic: 0110 . 1110111\n',
                 ''],
        'json': [0,
                 ('{"command": "word factorize", "format_version": "1", "inputs": {"word":'
                  ' "01101110111"}, "result": {"palindromic": ["0110", "1110111"], "standa'
                  'rd": ["0110111", "0111"]}}\n'),
                 ''],
    },
    'word-factorize-neither': {
        'text': [1,
                 '',
                 'error [NotChristoffelError]: 0110 admits neither factorization\n'],
        'json': [1,
                 '',
                 'error [NotChristoffelError]: 0110 admits neither factorization\n'],
    },
    'word-factorize-numeric': {
        'text': [0,
                 'standard: 01 . 1\npalindromic: 0 . 11\n',
                 ''],
        'json': [0,
                 ('{"command": "word factorize", "format_version": "1", "inputs": {"word":'
                  ' "011"}, "result": {"palindromic": ["0", "11"], "standard": ["01", "1"]'
                  '}}\n'),
                 ''],
    },
    'word-pc-check': {
        'text': [0,
                 'perfectly clustering: True (christoffel: no)\n',
                 ''],
        'json': [0,
                 ('{"command": "word pc-check", "format_version": "1", "inputs": {"word": '
                  '"021212022"}, "result": {"christoffel": "no", "perfectly_clustering": t'
                  'rue}}\n'),
                 ''],
    },
    'word-pc-check-numeric-letter': {
        'text': [0,
                 'perfectly clustering: True (christoffel: no)\n',
                 ''],
        'json': [0,
                 ('{"command": "word pc-check", "format_version": "1", "inputs": {"word": '
                  '"5"}, "result": {"christoffel": "no", "perfectly_clustering": true}}\n'),
                 ''],
    },
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_golden_output(capsys, case, fmt):
    code = main([*CORPUS[case], "--format", fmt])
    out = capsys.readouterr()
    assert [code, out.out, out.err] == EXPECTED[case][fmt]


FAILING_REPORT = {
    'text': [1,
             ('PASS  figure-matrix            rows match\n'
              'FAIL  detvec-order11-n10       got [1, 2], expected [2, 1]\n'
              '1/2 fixtures passed\n'),
             ''],
    'json': [1,
             ('{"command": "reproduce paper-examples", "format_version": "1", "inputs": {}'
              ', "result": {"all_passed": false, "fixtures": [{"detail": "rows match", "fi'
              'xture": "figure-matrix", "passed": true}, {"detail": "got [1, 2], expected '
              '[2, 1]", "fixture": "detvec-order11-n10", "passed": false}]}}\n'),
             ''],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failing_fixture_prints_report_and_exits_1(capsys, monkeypatch, fmt):
    monkeypatch.setattr(fixtures, "run_all", lambda: [
        FixtureResult("figure-matrix", True, "rows match"),
        FixtureResult("detvec-order11-n10", False, "got [1, 2], expected [2, 1]"),
    ])
    code = main(["reproduce", "paper-examples", "--format", fmt])
    out = capsys.readouterr()
    assert [code, out.out, out.err] == FAILING_REPORT[fmt]
