"""Fuzz gate of the command line: every subcommand, run in-process through
`cli.main` on arbitrary small JSON and on integer options near their caps,
exits 0 or 2 and never reports an internal error; and the CLI's JSON reader
and writers agree with `json` on any JSON value and on malformed text."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzspaces import certificates, cli
from mzspaces.cli import main

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

LEAVES = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from(("1/2", "-3", "0", "1/0", "x", "", "2.5", "P0", "parts", "roots", "values",
                     "charPoly", "functionals", "zeta", "exps", "c", "f", "g")),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
KEYS = st.text(max_size=4) | st.sampled_from(("P0", "parts", "roots", "values", "f", "c"))


def _nest(inner):
    return inner | st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)


# Lists and objects of up to 4 entries, nested at most 3 deep.
JSON = _nest(_nest(_nest(LEAVES)))


def _json_arg(value) -> str:
    """Inline JSON; a scalar is wrapped in a list so that it is never read
    as a file path."""
    return json.dumps(value if isinstance(value, (list, dict)) else [value])


def _near(cap: int):
    return st.integers(cap - 2, cap + 2) | st.integers(-2, 3)


def _or_json(strategy):
    """A near-valid shape, or any JSON in its place."""
    return strategy | JSON


# Valid branches: distinct roots of multiplicity at most 2, and operators
# keyed by those roots, each of degree below its root's multiplicity.
NONZERO = st.sampled_from(("1", "-1", "1/2", "2", 3))


@st.composite
def _valid_roots(draw):
    lams = draw(st.lists(st.sampled_from(("1", "-1", "1/2", "0", "2")), min_size=1, max_size=3,
                         unique=True))
    return [[lam, draw(st.integers(1, 2))] for lam in lams]


@st.composite
def _valid_functional(draw, roots):
    """P0 and parts over roots, with an operator at one root or more."""
    out = {}
    for lam, mult in draw(st.lists(st.sampled_from(roots), min_size=1, unique_by=str)):
        op = draw(st.lists(NONZERO, min_size=1, max_size=mult))
        if lam == "0":
            out["P0"] = op
        else:
            out.setdefault("parts", {})[lam] = op
    return out


def _valid_moments(roots):
    degree = sum(mult for _, mult in roots)
    return (_valid_functional(roots).map(lambda fn: {"roots": roots, **fn})
            | st.lists(NONZERO, min_size=degree, max_size=degree).map(
                lambda values: {"roots": roots, "values": values}))


def _valid_terms(fields, nvars: int, coefficient):
    """1-2 terms, each an exponent array of nvars entries per field and c."""
    exponents = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)
    return st.lists(st.fixed_dictionaries({"c": coefficient, **dict.fromkeys(fields, exponents)}),
                    min_size=1, max_size=2)


VALID_ROOTS = _valid_roots()
VALID_SPEC = VALID_ROOTS.flatmap(lambda roots: st.fixed_dictionaries(
    {"roots": st.just(roots), "functionals": st.lists(
        _valid_functional(roots), min_size=1, max_size=min(2, sum(m for _, m in roots)))}))
VALID_MOMENTS = VALID_ROOTS.flatmap(_valid_moments)
# gvc-probe reads exps only.
VALID_GVC_TERMS = _valid_terms(("exps",), 2, NONZERO)


@st.composite
def _valid_imagep(draw):
    """The rows of a valid imagep argv, read together: --p one of the
    primes, and terms over as many variable pairs as --n says."""
    n = draw(st.integers(1, cli._IMAGEP_MAX_VARS))
    terms = _valid_terms(("zeta", "x"), n, st.integers(-3, 3))
    mode = draw(st.sampled_from(("decide", "theorem")))
    data = draw(terms if mode == "decide"
                else st.fixed_dictionaries({"f": terms}, optional={"g": terms}))
    return {"mode": mode, "--p": str(draw(st.sampled_from(cli._IMAGEP_PRIMES))), "--n": str(n),
            "--input": _json_arg(data)}


# The valid branch of a subcommand whose rows are valid only together, as
# {flag: text}; its shape draws take it or draw each row on its own.
VALID_ARGS = {"imagep": _valid_imagep()}

# Near-valid shapes: the right containers, any JSON scalar in each place;
# each shape with a valid branch draws it or its near-valid form.
RATIONALS = st.lists(st.sampled_from(("1", "-1", "1/2", "0", 3)) | LEAVES, max_size=4)
ROOTS = VALID_ROOTS | st.lists(st.tuples(st.sampled_from(("1", "-1", "1/2", "0")) | LEAVES,
                                         st.integers(1, 3) | LEAVES).map(list), max_size=4)
PARTS = st.dictionaries(st.sampled_from(("1", "-1", "x")), _or_json(RATIONALS), max_size=2)
FUNCTIONAL = st.fixed_dictionaries({}, optional={"P0": _or_json(RATIONALS),
                                                 "parts": _or_json(PARTS)})
SPEC = VALID_SPEC | st.fixed_dictionaries({"roots": _or_json(ROOTS), "functionals": st.lists(
    _or_json(FUNCTIONAL), max_size=3)})
MOMENTS = VALID_MOMENTS | st.fixed_dictionaries({"roots": _or_json(ROOTS)}, optional={
    "values": RATIONALS, "P0": RATIONALS, "charPoly": RATIONALS, "parts": PARTS})
EXPONENTS = _or_json(st.lists(st.integers(-1, 2), max_size=3))


def _terms(fields):
    return st.lists(st.fixed_dictionaries({"c": st.integers(-3, 3) | LEAVES,
                                           **dict.fromkeys(fields, EXPONENTS)}), max_size=3)


GVC_TERMS = VALID_GVC_TERMS | _terms(("exps",))
ZX_TERMS = _terms(("zeta", "x"))

# The shape of a JSON row by its reader, and by subcommand for a JSON row
# that its handler reads (no reader in the row).
SHAPES = {
    cli._spec_from_json: SPEC,
    cli._roots_from_json: ROOTS,
    cli.poly_from_json: RATIONALS,
    cli._matrix_from_json: st.lists(RATIONALS, max_size=3),
    cli.laurent_from_json: st.dictionaries(st.sampled_from(("-1", "2", "x", "1_0")),
                                           st.sampled_from(("1", "1/2")) | LEAVES, max_size=3),
    cli._multipoly_from_json: GVC_TERMS,
}
RAW = {"idempotents": st.sampled_from((["-1", "1"], ["2", "-3", "1"], ["0", "0", "1"],
                                       ["1/2", "-3/2", "1"])) | RATIONALS,
       "moments": MOMENTS,
       "imagep": ZX_TERMS | st.fixed_dictionaries({"f": ZX_TERMS}, optional={"g": ZX_TERMS})}
# The text of a row that is neither JSON nor int, by its reader.
TEXTS = {cli.parse_rational: st.sampled_from(("1/2", "-1", "0", "2", "x", "1/0"))}
# Int rows without an upper bound in the table, near the caps their handlers check.
INTS = {"--m-min": _near(certificates.MAX_EXPANSION_TERMS) | st.integers(1, 60),
        "--p": st.integers(1, 7), "--n": _near(cli._IMAGEP_MAX_VARS), "--seed": st.integers(0, 1)}


def _value(command: str, row, top):
    """The text of one row's value: a choice sampled, an int near its row's
    cap (else INTS'), JSON drawn from top(its shape), other text from TEXTS."""
    flag, _, kind, _, _, _, read, _, (_, high) = row
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return (INTS[flag] if high is None else _near(high)).map(str)
    if kind == "json":
        return top(SHAPES[read[0]] if read else RAW[command]).map(_json_arg)
    return TEXTS[read[0]]


@st.composite
def _argv(draw, command: str, top: str):
    """An argv for one subcommand, read off its rows: every required row,
    each optional flag or int row at will, and at most one optional JSON row
    (the two sources of idempotents exclude each other).  A shape draw of a
    subcommand in VALID_ARGS may take the rows' values from there."""
    rows = cli._build_parser()[command][3]
    sources = [row for row in rows if row[2] == "json" and not row[3]]
    source = draw(st.sampled_from([None, *sources]))
    valid = None
    if top == "shape" and command in VALID_ARGS:
        valid = draw(st.none() | VALID_ARGS[command])
    argv = [command]
    for row in rows:
        flag, dest, kind, required = row[:4]
        given = row is source if row in sources else required or draw(st.booleans())
        if not given:
            continue
        if kind is bool:
            argv.append(flag)
        else:
            value = valid[flag] if valid else draw(_value(command, row, TOPS[top]))
            argv += [value] if flag == dest else [flag, value]
    return argv


def test_every_json_row_has_a_fuzz_shape():
    """A new JSON option cannot skip the fuzz gate: its reader needs a shape
    in SHAPES, or, read by its handler, its subcommand one in RAW."""
    for command, entry in cli._build_parser().items():
        for row in entry[3]:
            if row[2] == "json":
                assert (row[6][0] in SHAPES) if row[6] else (command in RAW), (command, row[0])


def _exit_and_report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, json.loads(out.getvalue())


COMMANDS = ("decide", "oracle", "idempotents", "moments", "certify", "trace-test", "laurent",
            "gvc-probe", "imagep", "selftest")
# Each JSON option as its near-valid shape (the right containers, any JSON
# scalar in each place) or as any JSON; selftest reads no JSON.
TOPS = {"shape": lambda shape: shape, "json": lambda shape: JSON}


@pytest.mark.parametrize("command, top", [(c, t) for c in COMMANDS for t in TOPS
                                          if c != "selftest" or t == "shape"])
@SETTINGS
@given(data=st.data())
def test_cli_fuzz_exits_0_or_2(command, top, data):
    argv = data.draw(_argv(command, top))
    code, report = _exit_and_report(argv)
    assert code in (0, 2), (argv, report)
    assert report.get("error", {}).get("kind") != "internal", (argv, report)


@pytest.mark.parametrize("command", ("decide", "oracle", "idempotents", "moments", "gvc-probe",
                                     "imagep"))
def test_shape_draws_reach_the_kernels(command, monkeypatch):
    """The gate's shape draws get past the readers: at least 5 of a
    subcommand's 30 draws run its kernel to exit 0."""
    codes = []
    run = _exit_and_report

    def recorded(argv):
        code, report = run(argv)
        codes.append(code)
        return code, report

    monkeypatch.setitem(globals(), "_exit_and_report", recorded)
    test_cli_fuzz_exits_0_or_2(command=command, top="shape")
    assert codes.count(0) >= 5, codes


# One valid argv per subcommand, each option once; the argv-level fuzz edits
# these tokens.
VALID_ARGVS = [
    ["decide", "--spec", _json_arg({"roots": [["1", 1], ["-1", 1]],
                                    "functionals": [{"parts": {"1": ["1"], "-1": ["-1"]}}]}),
     "--oracle"],
    ["oracle", "--spec", _json_arg({"roots": [["2", 1]], "functionals": [{"parts": {"2": ["1"]}}]})],
    ["idempotents", "--roots", '[["1", 1], ["2", 2]]', "--all"],
    ["idempotents", "--modulus", '["2", "-3", "1"]'],
    ["moments", "--input", '{"P0": ["1"], "roots": [["0", 2]]}', "--count", "3"],
    ["certify", "--rule", "exp", "--poly", '["-1/2", "1"]', "--m-min", "1"],
    ["trace-test", "--matrix", '[["0", "1"], ["0", "0"]]'],
    ["laurent", "--lam", "-1", "--poly", '{"-1": "3", "2": "1"}'],
    ["gvc-probe", "--op", '[{"exps": [1, 1], "c": "1"}]', "--p-poly", '[{"exps": [1, 0], "c": "1"}]',
     "--q-poly", '[{"exps": [0, 1], "c": "1"}]', "--m-max", "4"],
    ["imagep", "decide", "--p", "3", "--n", "1", "--input", '[{"zeta": [2], "x": [1], "c": 1}]'],
    ["selftest", "--seed", "0"],
]
FLAGS = sorted({row[0] for entry in cli._build_parser().values() for row in entry[3]
                if row[0].startswith("--")})
INSERTED = st.sampled_from(("--x", "-h", "--help", "--", "-")) | st.sampled_from(FLAGS).map(
    lambda flag: flag + "=")


@st.composite
def _edited_argv(draw):
    """A valid argv after one to three edits: a token dropped, duplicated or
    swapped with another, "--opt v" joined into "--opt=v", or a token inserted."""
    argv = list(draw(st.sampled_from(VALID_ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "join", "insert")))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(INSERTED))
        elif edit == "drop":
            del argv[i]
        elif edit == "duplicate":
            argv.insert(i, argv[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        elif argv[i].startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_edited_argv())
def test_argv_fuzz_exits_0_or_2(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, out.getvalue())
    assert '"internal"' not in out.getvalue(), argv


# Strings with quotes, backslashes, control and non-ASCII characters; ints
# past 64 bits.
CODEC_CHARS = st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600') | st.characters()
CODEC_LEAVES = (st.text(CODEC_CHARS, max_size=5) | st.integers(-2**70, 2**70) | st.booleans()
                | st.none())
CODEC_VALUES = st.recursive(CODEC_LEAVES, lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=4),
                            max_leaves=12)
# Structural characters, and whitespace that str.strip() takes but JSON does not.
MUTATIONS = st.sampled_from(('"', "[", "]", "{", "}", ",", ":", "\\", " ", "0", "-", "t", "\x01",
                             "\x0b", "\xa0"))


def _decoded(load, text):
    """load(text), or the (msg, lineno, colno) of the JSONDecodeError it raises."""
    try:
        return load(text)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.lineno, exc.colno


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=CODEC_VALUES, data=st.data())
def test_codec_agrees_with_json(value, data):
    assert cli._dumps(value) == json.dumps(value, indent=2)
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert cli._digest(value) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    compact = json.dumps(value)
    padded = f" \r\n\t{compact}\n "
    for text in (compact, json.dumps(value, indent=2), padded):
        assert cli._loads(text) == json.loads(text)
    cut = data.draw(st.integers(0, len(compact)))
    at = data.draw(st.sampled_from((0, len(padded) - 1)) | st.integers(0, len(padded) - 1))
    for text in (compact[:cut], padded[:at] + data.draw(MUTATIONS) + padded[at + 1:]):
        assert _decoded(cli._loads, text) == _decoded(json.loads, text), text
