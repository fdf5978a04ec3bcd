"""The CLI fails closed: on any input file, --out target and --p, each
command exits 0-3 with no traceback, and exit 1 comes with exactly one
"error:" line on stderr and nothing on stdout.

System files over QQ also come with 128-bit numerators and denominators,
in full and in upper-triangular matrices whose eigenvalues are their
128-bit diagonal entries, some repeated: `verify` without orderings finds
rational eigenvalues in time polynomial in their bit length.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tdpair121.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)

# JSON values of any shape
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=5),
    max_leaves=12)

# field elements: mostly well-formed small strings, sometimes anything else
elements = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(-3, 3)),
    st.sampled_from(["", " 1", "+1", "1.5", "1e3", "x", "--1", "1/", "/2", "0x1", "١"]),
    st.integers(-9, 9), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.lists(st.integers(-9, 9).map(str), max_size=2),
)
small_elements = st.integers(-9, 9).map(str)
big_ints = st.integers(-2 ** 128, 2 ** 128)
big_elements = st.one_of(
    big_ints.map(str),
    st.builds(lambda a, b: f"{a}/{b}", big_ints, st.integers(1, 2 ** 128)),
)

characteristics = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 101, 10007]),
    st.integers(-5, 10 ** 6), st.integers(),
    st.sampled_from([True, 7.0, "7", None, [7]]),
)
fields = st.one_of(
    st.just({"kind": "Q"}),
    st.builds(lambda p: {"kind": "Fp", "p": p}, characteristics),
    st.just({"kind": "Fp"}), st.just("Q"), json_values,
)


def vectors(elem, n):
    return st.lists(elem, min_size=n, max_size=n)


def matrices(elem):
    square = vectors(vectors(elem, 4), 4)
    ragged = st.lists(st.lists(elem, max_size=5), max_size=5)
    return st.one_of(square, square, ragged, json_values)


@st.composite
def triangular_matrices(draw, elem):
    """Upper-triangular 4x4 matrices whose diagonal takes at most four
    values, so that eigenvalues repeat."""
    diagonal = draw(st.lists(elem, min_size=1, max_size=4))
    return [[draw(st.sampled_from(diagonal)) if i == j else draw(elem) if j > i else "0"
             for j in range(4)] for i in range(4)]


def documents(required, optional):
    """Objects with the required keys (each dropped now and then), the
    optional ones sometimes, and a stray key sometimes."""
    @st.composite
    def build(draw):
        doc = {}
        for key, values in required.items():
            if draw(st.integers(0, 9)):
                doc[key] = draw(values)
        for key, values in optional.items():
            if draw(st.booleans()):
                doc[key] = draw(values)
        if not draw(st.integers(0, 5)):
            doc[draw(st.text(max_size=5))] = draw(json_values)
        return doc
    return build()


def triples(elem):
    return st.one_of(vectors(elem, 3), vectors(elem, 3), st.lists(elem, max_size=5), json_values)


parameter_files = st.one_of(
    documents({"field": fields, "theta": triples(elements), "thetastar": triples(elements),
               "varphi": elements, "phi": elements}, {}),
    documents({"field": st.sampled_from([{"kind": "Q"}, {"kind": "Fp", "p": 5},
                                         {"kind": "Fp", "p": 101}]),
               "theta": vectors(small_elements, 3), "thetastar": vectors(small_elements, 3),
               "varphi": small_elements, "phi": small_elements}, {}),
    json_values,
).map(json.dumps)

system_files = st.one_of(
    documents({"field": fields, "A": matrices(elements), "Astar": matrices(elements)},
              {"theta": triples(elements), "thetastar": triples(elements)}),
    documents({"field": st.sampled_from([{"kind": "Q"}, {"kind": "Fp", "p": 3},
                                         {"kind": "Fp", "p": 7}, {"kind": "Fp", "p": 10007}]),
               "A": matrices(small_elements), "Astar": matrices(small_elements)},
              {"theta": vectors(small_elements, 3), "thetastar": vectors(small_elements, 3)}),
    json_values,
).map(json.dumps)

big_matrices = st.one_of(vectors(vectors(big_elements, 4), 4), triangular_matrices(big_elements))
# well-formed and without orderings, so that every one reaches the search
# for eigenvalues
big_qq_system_files = st.fixed_dictionaries(
    {"field": st.just({"kind": "Q"}), "A": big_matrices, "Astar": big_matrices}).map(json.dumps)

raw_files = st.one_of(
    st.text(max_size=40), st.sampled_from(["", "{", "[1,", "NaN", "\"x\""]),
    # nesting deeper than the interpreter's recursion limit
    st.integers(1, 5000).map(lambda n: "[" * n * 20 + "]" * n * 20),
    st.integers(1, 5000).map(lambda n: '{"field": ' * n * 20 + "1" + "}" * n * 20),
)
# where --out points: nowhere, a new file, a missing directory, a directory
out_targets = st.sampled_from([None, "out.json", "missing/out.json", "."])


def run_cli(argv):
    """(exit code, stdout, stderr) of the CLI run in this process; any
    exception other than SystemExit escapes, as it would as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_fails_closed(code, out, err):
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def run_on_file(command, text, out=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        argv = [command, path]
        if out is not None:
            argv += ["--out", os.path.join(tmp, out)]
        return run_cli(argv)


@pytest.mark.parametrize("command", ["report", "construct"])
@SETTINGS
@given(text=st.one_of(parameter_files, raw_files), out=out_targets)
def test_parameter_commands_fail_closed(command, text, out):
    check_fails_closed(*run_on_file(command, text, out))


@SETTINGS
@given(text=st.one_of(system_files, raw_files))
def test_verify_fails_closed(text):
    check_fails_closed(*run_on_file("verify", text))


@SETTINGS
@given(text=big_qq_system_files)
def test_verify_fails_closed_on_128_bit_qq_systems(text):
    check_fails_closed(*run_on_file("verify", text))


@SETTINGS
@given(p=st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(), st.sampled_from(
    [0, 1, 2, 3, 4, 7, 8, 11, 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 25]),
    st.text(), st.sampled_from(["", "abc", "7.0", "1e3", " 7", "0x7", "--p", "٧", "\n"])),
    orbits=st.booleans(), force=st.booleans())
def test_enumerate_fails_closed(p, orbits, force):
    argv = ["enumerate", f"--p={p}"] + ["--orbits"] * orbits + ["--force"] * force
    check_fails_closed(*run_cli(argv))
