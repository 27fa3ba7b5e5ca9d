"""The lazy package namespace, the immutable result records, and the library
names the benchmark tracer rebinds."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import mzspaces
from mzspaces.certificates import PAdicCertificate
from mzspaces.errors import DomainError
from mzspaces.imagep import ImDCertificate, ObstructionReport, TheoremReport
from mzspaces.mzdecide import MZVerdict
from mzspaces.probes import GvcProbeReport, TraceReport
from mzspaces.upoly import Poly


def test_every_exported_name_resolves():
    for name in mzspaces.__all__:
        value = getattr(mzspaces, name)
        assert value is not None
        assert name in vars(mzspaces)  # cached after the first access


def test_exports_name_their_defining_module():
    # Each callable resolves to the module that defines it, so a re-export
    # left behind after a move (a shim) fails here.
    for name, module in mzspaces._EXPORTS.items():
        value = getattr(mzspaces, name)
        if callable(value):
            assert value.__module__ == f"mzspaces.{module}", name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from mzspaces import *", namespace)
    assert set(mzspaces.__all__) <= set(namespace)
    assert namespace["decide_mz"] is mzspaces.mzdecide.decide_mz


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mzspaces.no_such_name
    with pytest.raises(ImportError):
        exec("from mzspaces import no_such_name", {})


# (record, its repr, the same record with one field changed)
RECORDS = [
    (PAdicCertificate(prime=3, exponent=2, valuation=-1, value=Fraction(1, 12)),
     "PAdicCertificate(prime=3, exponent=2, valuation=-1, value=Fraction(1, 12))",
     PAdicCertificate(prime=3, exponent=2, valuation=-1, value=Fraction(5, 12))),
    (MZVerdict(is_mz=True),
     "MZVerdict(is_mz=True, witness_subset=None, witness_idempotent=None, "
     "witness_multiplier=None)",
     MZVerdict(False, (Fraction(1), Fraction(-1)), Poly((1,)), Poly((0, 1)))),
    (TraceReport(in_radical=True, traces=(Fraction(0), Fraction(0)), nilpotency_witness=2),
     "TraceReport(in_radical=True, traces=(Fraction(0, 1), Fraction(0, 1)), "
     "nilpotency_witness=2)",
     TraceReport(in_radical=True, traces=(Fraction(0),), nilpotency_witness=1)),
    (GvcProbeReport(m_max=10, hypothesis_violations=(), conclusion_violations=(1,),
                    conclusion_transition=2),
     "GvcProbeReport(m_max=10, hypothesis_violations=(), conclusion_violations=(1,), "
     "conclusion_transition=2)",
     GvcProbeReport(m_max=10, hypothesis_violations=(), conclusion_violations=(),
                    conclusion_transition=None)),
    (ImDCertificate(preimages=()), "ImDCertificate(preimages=())",
     ImDCertificate(preimages=(None,))),
    (ObstructionReport(x_degree=1, zeta_exps=(0,), x_exps=(1,), coefficient=1),
     "ObstructionReport(x_degree=1, zeta_exps=(0,), x_exps=(1,), coefficient=1)",
     ObstructionReport(x_degree=1, zeta_exps=(0,), x_exps=(1,), coefficient=2)),
    (TheoremReport(hypothesis_holds=True, obstruction=None, hypothesis_certificate=None,
                   conclusion_holds=True, boundary_certificates=()),
     "TheoremReport(hypothesis_holds=True, obstruction=None, hypothesis_certificate=None, "
     "conclusion_holds=True, boundary_certificates=())",
     TheoremReport(hypothesis_holds=True, obstruction=None, hypothesis_certificate=None,
                   conclusion_holds=False, boundary_certificates=())),
]


@pytest.mark.parametrize("record, text, other", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_record_repr_equality_hash_and_immutability(record, text, other):
    assert repr(record) == text
    copy = type(record)(*record)
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert other != record
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_record_defaults_and_properties():
    verdict = MZVerdict(False)
    assert (verdict.witness_subset, verdict.witness_idempotent) == (None, None)


def test_certificate_replace_keeps_the_valuation_check():
    cert = PAdicCertificate(prime=3, exponent=1, valuation=-1, value=Fraction(11, 6))
    with pytest.raises(DomainError):
        cert._replace(valuation=-2)
    assert cert._replace(exponent=2).exponent == 2


TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.skipif(not TRACER.exists(), reason="no bench/ in this checkout")
def test_every_traced_name_resolves():
    # The benchmark's tracer rebinds these names; a rename or deletion in the
    # library should fail here rather than in a benchmark run.
    for module_name, attr, _ in _traced():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


PACKAGE = Path(mzspaces.__file__).resolve().parent


@pytest.mark.skipif(not TRACER.exists(), reason="no bench/ in this checkout")
def test_every_public_function_is_reached():
    # A public top-level function or class that no other code in the package
    # names, and that the benchmark tracer does not rebind, is surface that
    # nothing runs: delete it with its tests.
    traced = {attr.split(".")[0] for _, attr, _ in _traced()}
    defined, reached = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.name
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    reached.add(name)
    unreached = {name: module for name, module in defined.items()
                 if name not in reached | traced}
    assert unreached == {}
CODEC_NAMES = {"parse_rational", "format_rational", "parse_exponents", "_loads", "_dumps"}


def test_only_the_cli_speaks_json():
    # cli.py owns the wire format; the library modules neither import json
    # or its C codec _json nor define a JSON reader or writer.
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            offences += [(path.name, f"import {n}") for n in imported
                         if n.split(".")[0] in ("json", "_json")]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    node.name.endswith("_json") or node.name in CODEC_NAMES):
                offences.append((path.name, node.name))
    assert offences == []


def test_the_cli_imports_no_private_library_name():
    # The CLI reaches the library through public names only, so what a
    # module keeps private can change without the CLI following it.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    offences = [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "mzspaces")
                for alias in node.names if alias.name.startswith("_")]
    assert offences == []


def test_only_scalars_packs_integers():
    # One packed-integer kernel (scalars.pack, unpack, packed_digit): no other
    # module converts between ints and bytes, the route a second packer takes.
    offences = [(path.name, node.lineno)
                for path in sorted(PACKAGE.glob("*.py")) if path.name != "scalars.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")]
    assert offences == []


def test_scalars_are_checked_where_they_are_built():
    # require_rational runs where scalars enter: the root data, a functional's
    # coefficients and moment values, the certificates' polynomial, and the
    # p-adic valuation.  Code that reads a RootData or a FunctionalNF (the
    # decision procedure, the oracle, the moments) does not check again.
    callers = {(path.stem, stmt.name)
               for path in sorted(PACKAGE.glob("*.py"))
               for stmt in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "require_rational"}
    assert {module for module, _ in callers} == {"scalars", "upoly", "functionals",
                                                  "certificates"}
    assert {name for module, name in callers if module in ("upoly", "functionals")} == {
        "RootData", "rational_roots", "FunctionalNF", "from_moments"}
