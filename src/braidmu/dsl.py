"""A small textual leg-notation language compiled to leg-local steps.

Grammar (EBNF):

    stmt := expr ("==" expr)?
    expr := term ("." term)*
    term := atom "^*"?
    atom := NAME "[" INT ("," INT)* "]" ("@over" | "@under")? | "(" expr ")"

Composition reads left = top, matching operator-product order: in "A.B" the
term B is applied first.  The reserved names "c" and "cinv" braid adjacent
legs; any other name resolves through the bindings.  Two-leg atoms on
non-adjacent legs are routed with the annotated route (default "over").

An expression compiles to the steps of :func:`braidmu.tensor.leg_product`:
each atom is one step on its legs, or the three steps of a routed atom, and
"^*" reverses the steps of its operand and takes the adjoint of each.  The
steps act on one running matrix, so no padded factor is ever multiplied; a
statement's residual streams both sides' steps over column blocks, or
reads two words of monomials in closed form (:func:`braidmu.tensor.distance`),
so neither side is formed whole.

Statement files are UTF-8 with one statement per line, "#" comments, and
exactly one header line "context: <space-id> ...", which sets the leg context
of every statement in the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .tensor import (LegError, LegOperator, PlannedWord, Space, Step, adjoint, distance,
                     leg_product, route_steps)

__all__ = [
    "ParseError", "Atom", "Adj", "Seq", "Statement", "Header", "parse", "format_expr",
    "evaluate", "StatementResult", "run_statements", "parse_statement_file",
]

RESERVED = ("c", "cinv")
# leg indices are ASCII digits; str.isdigit() also takes '²', which int()
# rejects, and '٢', which int() reads as 2
_DIGITS = frozenset("0123456789")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class Atom:
    name: str
    legs: tuple[int, ...]
    route: str | None = None


@dataclass(frozen=True)
class Adj:
    inner: "Expr"


@dataclass(frozen=True)
class Seq:
    terms: tuple["Expr", ...]


Expr = Atom | Adj | Seq


@dataclass(frozen=True)
class Statement:
    lhs: Expr
    rhs: Expr | None
    text: str
    line: int


@dataclass(frozen=True)
class Header:
    """The "context:" header: the space ids of the leg context, its line and
    the column of each id."""

    ids: tuple[str, ...]
    line: int
    columns: tuple[int, ...]


# ---------------------------------------------------------------------------
# tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], col))
            i = j
        elif text.startswith("^*", i):
            tokens.append(_Token("adjoint", "^*", col))
            i += 2
        elif text.startswith("==", i):
            tokens.append(_Token("equals", "==", col))
            i += 2
        elif ch == "@":
            j = i + 1
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("@over", "@under"):
                raise ParseError(f"unknown route annotation {word!r}", line, col)
            tokens.append(_Token("route", word, col))
            i = j
        elif ch in "[],.()":
            tokens.append(_Token(ch, ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", self.line, tok.column)
        self.pos += 1
        return tok

    def parse_statement(self) -> tuple[Expr, Expr | None]:
        lhs = self.parse_expr()
        rhs = None
        if self.peek().kind == "equals":
            self.take("equals")
            rhs = self.parse_expr()
        self.take("end")
        return lhs, rhs

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek().kind == ".":
            self.take(".")
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        flat: list[Expr] = []
        for t in terms:
            flat.extend(t.terms if isinstance(t, Seq) else [t])
        return Seq(tuple(flat))

    def parse_term(self) -> Expr:
        atom = self.parse_atom()
        if self.peek().kind == "adjoint":
            self.take("adjoint")
            return Adj(atom)
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            return inner
        name = self.take("name").text
        self.take("[")
        legs = [int(self.take("int").text)]
        while self.peek().kind == ",":
            self.take(",")
            legs.append(int(self.take("int").text))
        self.take("]")
        route = None
        if self.peek().kind == "route":
            route = self.take("route").text[1:]
        return Atom(name, tuple(legs), route)


def parse(text: str) -> Expr:
    """Parse one expression (no '==')."""
    parser = _Parser(_tokenize(text, 1), 1)
    expr = parser.parse_expr()
    parser.take("end")
    return expr


def format_expr(expr: Expr) -> str:
    """Canonical formatter; parse(format_expr(e)) round-trips the AST."""
    if isinstance(expr, Atom):
        legs = ",".join(str(i) for i in expr.legs)
        route = f"@{expr.route}" if expr.route else ""
        return f"{expr.name}[{legs}]{route}"
    if isinstance(expr, Adj):
        inner = format_expr(expr.inner)
        if isinstance(expr.inner, Atom):
            return f"{inner}^*"
        return f"({inner})^*"
    return ".".join(f"({format_expr(t)})" if isinstance(t, Seq) else format_expr(t)
                    for t in expr.terms)


# ---------------------------------------------------------------------------
# evaluation


def _atom_steps(atom: Atom, bindings: dict[str, LegOperator], context: tuple[Space, ...],
                braiding) -> tuple[list[Step], tuple[Space, ...]]:
    """The steps of an atom and the context they leave, read off the atom:
    its operator's codomain legs replace the legs it acts on."""
    if atom.name in RESERVED:
        if len(atom.legs) != 2 or atom.legs[1] != atom.legs[0] + 1:
            raise LegError(f"{atom.name} braids adjacent legs only, got {atom.legs}")
        i = atom.legs[0]
        if not 1 <= i <= len(context) - 1:
            raise LegError(f"braiding legs {atom.legs} out of range")
        a, b = context[i - 1], context[i]
        if atom.name == "c":
            op = braiding.braid(a, b)
        else:
            op = braiding.braid_inverse(b, a)  # inverse of c_{B,A}, mapping A (x) B -> B (x) A
        return [(op, i)], context[:i - 1] + op.codomain + context[i + 1:]
    if atom.name not in bindings:
        raise LegError(f"unknown operator name {atom.name!r}")
    op = bindings[atom.name]
    k = len(op.domain)
    if len(atom.legs) != k:
        raise LegError(f"{atom.name} has {k} legs, atom lists {len(atom.legs)}")
    legs = atom.legs
    if any(not 1 <= i <= len(context) for i in legs):
        raise LegError(f"leg index out of range in {atom.name}{list(legs)}")
    contiguous = all(legs[j + 1] == legs[j] + 1 for j in range(k - 1))
    if contiguous:
        i = legs[0]
        if context[i - 1:i - 1 + k] != op.domain:
            raise LegError(
                f"domain legs {[s.id for s in op.domain]} of {atom.name} do not match context "
                f"legs {[s.id for s in context[i - 1:i - 1 + k]]} at position {i}")
        return [(op, i)], context[:i - 1] + op.codomain + context[i - 1 + k:]
    if k == 2 and legs[0] < legs[1]:
        i, j = legs
        steps = route_steps(op, context, (i, j), atom.route or "over", braiding)
        return steps, (context[:i - 1] + op.codomain[:1] + context[i:j - 1] + op.codomain[1:]
                       + context[j:])
    raise LegError(f"unsupported leg pattern {list(legs)} for {atom.name}")


def _steps(expr: Expr, bindings: dict[str, LegOperator], context: tuple[Space, ...],
           braiding) -> tuple[list[Step], tuple[Space, ...]]:
    """The steps of expr in the order they act, and the context they leave.
    Nothing is placed: a side's steps are placed once, by its word."""
    if isinstance(expr, Seq):
        steps: list[Step] = []
        for term in reversed(expr.terms):
            more, context = _steps(term, bindings, context, braiding)
            steps += more
        return steps, context
    if isinstance(expr, Adj):
        inner, out = _steps(expr.inner, bindings, context, braiding)
        if out != context:
            raise LegError("adjoint of a context-changing expression is not supported")
        return [(adjoint(op), start) for op, start in reversed(inner)], context
    return _atom_steps(expr, bindings, context, braiding)


def evaluate(expr: Expr, bindings: dict[str, LegOperator], context: Sequence[Space],
             braiding=None) -> LegOperator:
    """Evaluate an expression on the given leg context.

    Terms are applied right to left; the running context tracks space changes
    introduced by braiding atoms.
    """
    context = tuple(context)
    return leg_product(_steps(expr, bindings, context, braiding)[0], context)


@dataclass(frozen=True)
class StatementResult:
    statement: Statement
    residual: float | None
    passed: bool


def parse_statement_file(text: str) -> tuple[Header, list[Statement]]:
    """Returns the context header and the parsed statements.

    A file has exactly one header; a second one is a :class:`ParseError` at
    its own line, as it would silently replace the context of every
    statement, those above it included.
    """
    header: Header | None = None
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("context:"):
            start = code.index("context:")
            if header is not None:
                raise ParseError(f"a second 'context:' header (the first is on line "
                                 f"{header.line})", lineno, start + 1)
            start += len("context:")
            ids = list(re.finditer(r"\S+", code[start:]))
            header = Header(tuple(m.group() for m in ids), lineno,
                            tuple(start + m.start() + 1 for m in ids))
            continue
        parser = _Parser(_tokenize(line, lineno), lineno)
        lhs, rhs = parser.parse_statement()
        statements.append(Statement(lhs, rhs, line, lineno))
    if header is None:
        raise ParseError("missing 'context:' header", 1, 1)
    return header, statements


def run_statements(text: str, bindings: dict[str, LegOperator],
                   spaces: dict[str, Space], braiding=None,
                   tol: float = 1e-9) -> list[StatementResult]:
    """Evaluate every '==' statement; bare expressions only check evaluability.

    Each side compiles to steps, placed once as one
    :class:`~braidmu.tensor.PlannedWord`, and the two words' legs are
    compared before any product is formed.  The residual is the
    :func:`~braidmu.tensor.distance` of the two words, streamed over column
    blocks or, for two words of monomials, closed-form; a bare expression is
    compiled and placed, with no product at all.
    """
    header, statements = parse_statement_file(text)
    for sid, column in zip(header.ids, header.columns):
        if sid not in spaces:
            raise ParseError(f"unknown space id {sid!r}", header.line, column)
    context = tuple(spaces[sid] for sid in header.ids)
    results = []
    for stmt in statements:
        left = PlannedWord(_steps(stmt.lhs, bindings, context, braiding)[0], context)
        if stmt.rhs is None:
            results.append(StatementResult(stmt, None, True))
            continue
        right = PlannedWord(_steps(stmt.rhs, bindings, context, braiding)[0], context)
        if left.codomain != right.codomain:
            raise LegError(
                f"line {stmt.line}: the two sides of '==' end on different legs, "
                f"{[s.id for s in left.codomain]} and {[s.id for s in right.codomain]}")
        residual = distance(left, right, context)
        results.append(StatementResult(stmt, residual, residual < tol))
    return results
