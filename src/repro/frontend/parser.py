"""pycparser-based parser for the synthesizable C dialect.

Pipeline: :func:`repro.frontend.cpp.preprocess` → :class:`_DialectParser`,
a ``pycparser.CParser`` whose file scope starts with the dialect's type
names (``intN``/``uintN`` and ``co_stream``) already declared as typedefs,
so the lexer classifies them as type names without any injected source.

The preprocessed text is parsed as is, so all AST coordinates refer to the
user's original source — assertion error codes (file name + line number)
must match the unpreprocessed file exactly, as in ANSI-C ``assert``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NoReturn

from pycparser import c_ast, c_parser

from repro.diagnostics.sink import DiagnosticSink
from repro.diagnostics.span import Span
from repro.errors import ParseError
from repro.frontend import ctypes_
from repro.frontend.cpp import PreprocessResult, preprocess

#: Type name used for stream-typed parameters in dialect sources.
STREAM_TYPE_NAME = "co_stream"


class _DialectParser(c_parser.CParser):
    """``CParser`` that knows the dialect's type names before any source.

    ``CParser.parse`` opens every translation unit with
    ``self._scope_stack = [dict()]``; the property below seeds that file
    scope with the dialect typedef names. They live in the file scope itself,
    as if declared by ``typedef`` at the top of the file: a file-scope
    ``int uint8;`` is still a redeclaration error and a block-scope
    ``int uint8;`` still shadows the type.
    """

    _FILE_SCOPE = dict.fromkeys(
        [*ctypes_.all_dialect_typedef_names(), STREAM_TYPE_NAME], True)

    @property
    def _scope_stack(self) -> list[dict[str, bool]]:
        return self._scopes

    @_scope_stack.setter
    def _scope_stack(self, stack: list[dict[str, bool]]) -> None:
        if len(stack) == 1 and not stack[0]:  # a new translation unit
            stack = [dict(self._FILE_SCOPE)]
        self._scopes = stack

    def _parse_error(self, msg: str, coord: object) -> NoReturn:
        # some pycparser errors carry only the file name; point them at the
        # offending token so the diagnostic keeps its line and column
        if coord is None or isinstance(coord, str):
            tok = self._peek()
            if tok is not None:
                coord = self._tok_coord(tok)
        super()._parse_error(msg, coord)


_PARSER = _DialectParser()
#: pycparser's parser keeps mutable state on the instance (scope stack,
#: token stream), so concurrent parses through the shared instance corrupt
#: each other. The serve daemon synthesizes on a thread pool; serializing
#: just the parse step keeps it correct — parsing is a small slice of
#: synthesis wall time.
_PARSER_LOCK = threading.Lock()


@dataclass
class ParsedSource:
    """A parsed translation unit plus preprocessing facts."""

    ast: c_ast.FileAST
    preprocessed: PreprocessResult
    filename: str
    functions: dict[str, c_ast.FuncDef] = field(default_factory=dict)

    @property
    def ndebug(self) -> bool:
        return self.preprocessed.ndebug

    @property
    def nabort(self) -> bool:
        return self.preprocessed.nabort


def parse_source(
    source: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
    sink: DiagnosticSink | None = None,
) -> ParsedSource:
    """Parse dialect C ``source`` into a :class:`ParsedSource`.

    ``defines`` seeds preprocessor macros — pass ``{"NDEBUG": ""}`` to
    compile assertions out, ``{"NABORT": ""}`` for report-and-continue.
    With a collect-mode ``sink``, recoverable problems (preprocessor
    directives, duplicate definitions) are reported and skipped; a
    pycparser syntax error is unrecoverable either way but still gets a
    real :class:`Span` parsed out of the ``file:line:col`` message prefix.
    """
    sink = sink if sink is not None else DiagnosticSink(strict=True)
    pre = preprocess(source, defines=defines, filename=filename, sink=sink)
    try:
        with _PARSER_LOCK:
            ast = _PARSER.parse(pre.text, filename=filename)
    except c_parser.ParseError as exc:
        # pycparser formats errors as "file:line:col: message"; recover the
        # coordinates into a Span instead of burying them in the text
        span, message = Span.parse_prefix(str(exc))
        err = ParseError(message or str(exc), code="RPR-S001", span=span)
        err.__cause__ = exc
        sink.capture(err)
        # syntax errors leave no AST to walk — return an empty unit so
        # collect-mode callers still get the preprocessor diagnostics
        return ParsedSource(ast=c_ast.FileAST(ext=[]), preprocessed=pre,
                            filename=filename)

    parsed = ParsedSource(ast=ast, preprocessed=pre, filename=filename)
    for ext in ast.ext:
        if isinstance(ext, c_ast.FuncDef):
            name = ext.decl.name
            if name in parsed.functions:
                first = parsed.functions[name]
                sink.capture(ParseError(
                    f"duplicate function definition {name!r}",
                    code="RPR-S002",
                    span=span_of(ext.decl),
                    notes=(f"first defined at {span_of(first.decl)}",),
                ))
                continue  # keep the first definition, skip the duplicate
            parsed.functions[name] = ext
    return parsed


def declared_type_name(decl: c_ast.Decl) -> str:
    """Extract the scalar/array element type spelling from a declaration."""
    node = decl.type
    while isinstance(node, (c_ast.ArrayDecl, c_ast.PtrDecl)):
        node = node.type
    if isinstance(node, c_ast.TypeDecl) and isinstance(node.type, c_ast.IdentifierType):
        return " ".join(node.type.names)
    raise ParseError(f"unsupported declaration shape for {decl.name!r}",
                     code="RPR-S003", span=span_of(decl))


def coord_of(node: c_ast.Node) -> tuple[str, int]:
    """(filename, line) for a node; (``"?"``, 0) when pycparser lacks it."""
    coord = getattr(node, "coord", None)
    if coord is None:
        return ("?", 0)
    return (coord.file or "?", coord.line or 0)


def span_of(node: c_ast.Node) -> Span | None:
    """Full :class:`Span` (incl. column) for a node, or None if unknown."""
    coord = getattr(node, "coord", None)
    if coord is None:
        return None
    return Span.from_coord(coord)
