"""The dialect parser's seeded file scope against the typedef-prolog parse.

``parse_source`` parses the preprocessed text directly through a
``CParser`` whose file scope already holds the dialect type names. The
reference here is the textual way of getting the same effect: prepend one
``typedef`` per dialect name, then a ``#line`` marker resetting
coordinates to the user's file. Apart from the prolog's own ``Typedef``
nodes, both must produce the same AST, coordinates included.
"""

import io

import pycparser
import pytest

from repro.apps import edge_detect, loopback, pipeline, tripledes
from repro.diagnostics.sink import DiagnosticSink
from repro.difftest.generator import generate
from repro.frontend import ctypes_
from repro.frontend.cpp import preprocess
from repro.frontend.parser import STREAM_TYPE_NAME, _DialectParser, parse_source

_PROLOG_NAMES = [*ctypes_.all_dialect_typedef_names(), STREAM_TYPE_NAME]
_PROLOG = "\n".join(f"typedef unsigned int {name};" for name in _PROLOG_NAMES)

_DEFINES = {"none": None, "NDEBUG": {"NDEBUG": ""}, "NABORT": {"NABORT": ""}}


def _dump(nodes) -> str:
    buf = io.StringIO()
    for node in nodes:
        node.show(buf=buf, attrnames=True, showcoord=True)
    return buf.getvalue()


def _reference_dump(source: str, filename: str, defines) -> str:
    pre = preprocess(source, defines=defines, filename=filename)
    text = f'{_PROLOG}\n#line 1 "{filename}"\n{pre.text}'
    ext = pycparser.CParser().parse(text, filename=filename).ext
    prolog, user = ext[:len(_PROLOG_NAMES)], ext[len(_PROLOG_NAMES):]
    assert [node.name for node in prolog] == _PROLOG_NAMES
    return _dump(user)


def _assert_same_ast(source: str, filename: str, defines=None) -> None:
    parsed = parse_source(source, filename=filename, defines=defines)
    assert _dump(parsed.ast.ext) == _reference_dump(source, filename, defines)


def _strip_asserts(src: str) -> str:
    return "\n".join(line for line in src.split("\n") if "assert(" not in line)


def _app_sources():
    yield "loopback", "stage0.c", loopback.stage_source("stage0")
    yield "loopback-noassert", "stage0.c", _strip_asserts(
        loopback.stage_source("stage0"))
    yield "pipeline", "stage1.c", pipeline.stage_source("stage1", 3)
    yield "pipeline-noassert", "stage1.c", _strip_asserts(
        pipeline.stage_source("stage1", 3))
    for flag in (True, False):
        tag = "" if flag else "-noassert"
        yield f"edge{tag}", "edge.c", edge_detect.edge_source(
            48, 24, with_assertions=flag)
        yield f"tripledes{tag}", "tdes.c", tripledes.tdes_source(
            *tripledes.DEFAULT_KEYS, with_assertions=flag)


_APPS = list(_app_sources())


@pytest.mark.parametrize("define", list(_DEFINES))
@pytest.mark.parametrize("app", _APPS, ids=[a[0] for a in _APPS])
def test_app_ast_matches_prolog_parse(app, define):
    _, filename, source = app
    _assert_same_ast(source, filename, _DEFINES[define])


@pytest.mark.parametrize("seed", range(40))
def test_generated_program_ast_matches_prolog_parse(seed):
    _assert_same_ast(generate(seed).render(), f"dt{seed}.c")


def _syntax_error(source: str):
    sink = DiagnosticSink(strict=False)
    parse_source(source, filename="t.c", sink=sink)
    (err,) = sink.errors
    assert err.code == "RPR-S001"
    return err


def test_file_scope_redeclaration_of_dialect_type_is_rejected():
    err = _syntax_error("int uint8;")
    assert err.message == (
        "Non-typedef 'uint8' previously declared as typedef in this scope")
    assert str(err.span) == "t.c:1:5"


def test_block_scope_variable_shadows_dialect_type():
    parsed = parse_source("void f(co_stream s) { int uint8 = 3; }")
    assert list(parsed.functions) == ["f"]


def test_unbalanced_parameter_list_points_at_brace():
    err = _syntax_error("void f( { }")
    assert err.message == "before: {"
    assert str(err.span) == "t.c:1:9"


def test_dialect_name_parses_as_type():
    (decl,) = parse_source("uint7 x;").ast.ext
    assert decl.type.type.names == ["uint7"]


@pytest.mark.parametrize("source, where", [
    ("void f(co_stream a)\n{\n  int x = ;\n}\n", "t.c:3:11"),
    ("void f(co_stream a)\n{\n  int x = 1 + ;\n}\n", "t.c:3:15"),
])
def test_invalid_expression_keeps_its_location(source, where):
    err = _syntax_error(source)
    assert err.message == "Invalid expression"
    assert str(err.span) == where


def test_every_translation_unit_starts_from_the_seeded_file_scope():
    # the seed is applied when CParser.parse resets ``_scope_stack``; if a
    # pycparser release stops doing that, the dialect names vanish or one
    # unit's typedefs leak into the next
    parser = _DialectParser()
    assert parser.parse("uint8 a;").ext[0].name == "a"
    parser.parse("typedef int foo;")
    with pytest.raises(pycparser.c_parser.ParseError):
        parser.parse("foo b;")
    with pytest.raises(pycparser.c_parser.ParseError):
        parser.parse("void f(void) { { int x = ; } }")
    assert parser.parse("co_stream c; int33 d;").ext[1].name == "d"
    assert parser._scope_stack == [dict.fromkeys(_PROLOG_NAMES, True)
                                   | {"c": False, "d": False}]
