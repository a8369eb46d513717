"""Parsing, evaluation, and exact differentiation of model expressions.

The grammar covers floating literals, declared variables, the four
arithmetic operators, ``^k`` for a non-negative integer ``k``, ``exp(...)``,
and parentheses.  Precedence from tightest to loosest: ``^``, unary minus,
``*`` ``/``, ``+`` ``-``; binary operators associate to the left.

Trees are frozen dataclasses and never mutated after parsing, so a single
expression may be evaluated from many threads at once.  Evaluation accepts
plain floats or numpy arrays in the bindings; overflow propagates as
``inf`` while division by zero raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ExpressionError(Exception):
    """Base class for expression parsing and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UndeclaredVariableError(ExpressionError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"undeclared variable '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class EvaluationError(ExpressionError):
    pass


class Expression:
    """Common base for expression nodes; instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expression(self)


@dataclass(frozen=True)
class Literal(Expression):
    value: float


@dataclass(frozen=True)
class Variable(Expression):
    name: str


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression


@dataclass(frozen=True)
class ExpCall(Expression):
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)

_RESERVED = {"exp"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, declared: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.declared = frozenset(declared)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionSyntaxError(f"expected '{symbol}'", offset)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expression()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {value!r}", offset)
        return e

    def expression(self) -> Expression:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinaryOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinaryOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Negate(self.factor())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = BinaryOp("^", node, self.exponent())
            else:
                return node

    def exponent(self) -> Expression:
        kind, value, offset = self.peek()
        # The exponent must be a bare non-negative integer token.
        if kind != "num" or any(c in value for c in ".eE"):
            raise ExpressionSyntaxError("exponent must be a non-negative integer", offset)
        self.advance()
        return Literal(float(int(value)))

    def atom(self) -> Expression:
        kind, value, offset = self.advance()
        if kind == "num":
            return Literal(float(value))
        if kind == "name":
            if value == "exp":
                self.expect_op("(")
                inner = self.expression()
                self.expect_op(")")
                return ExpCall(inner)
            if value not in self.declared:
                raise UndeclaredVariableError(value, offset)
            return Variable(value)
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(
            f"expected a value, got {value!r}" if value else "unexpected end of input", offset
        )


def parse_expression(text: str, declared_vars) -> Expression:
    """Parse ``text`` against the declared variable names.

    Raises ExpressionSyntaxError with a character offset on malformed
    input and UndeclaredVariableError when an identifier is not declared.
    """
    declared = tuple(declared_vars)
    if len(set(declared)) != len(declared):
        raise ValueError("declared variable names must be unique")
    for name in declared:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in _RESERVED:
            raise ValueError(f"invalid variable name {name!r}")
    return _Parser(text, declared).parse()


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Literal):
        return frozenset()
    if isinstance(e, Variable):
        return frozenset((e.name,))
    if isinstance(e, (Negate, ExpCall)):
        return free_variables(e.operand)
    return free_variables(e.left) | free_variables(e.right)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expression) -> int:
    if isinstance(e, BinaryOp):
        return _PRECEDENCE[e.op]
    # A negative literal prints with a leading minus, so for bracketing it
    # behaves like a unary minus even though the node is a Literal.
    if isinstance(e, Negate) or (isinstance(e, Literal) and e.value < 0):
        return _PRECEDENCE["neg"]
    return _PRECEDENCE["atom"]


def format_expression(e: Expression) -> str:
    """Render a tree to source that evaluates identically when re-parsed.

    Trees produced by parse_expression round-trip to the identical tree;
    hand-built trees holding negative literals re-parse to the equivalent
    Negate form.
    """
    if isinstance(e, Literal):
        return repr(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Negate):
        inner = format_expression(e.operand)
        if _prec(e.operand) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, ExpCall):
        return f"exp({format_expression(e.operand)})"
    if isinstance(e, BinaryOp):
        if e.op == "^":
            left = format_expression(e.left)
            if _prec(e.left) < _PRECEDENCE["^"]:
                left = f"({left})"
            return f"{left}^{int(e.right.value)}"
        op_prec = _PRECEDENCE[e.op]
        left = format_expression(e.left)
        if _prec(e.left) < op_prec:
            left = f"({left})"
        right = format_expression(e.right)
        # Left associativity: an equal-precedence right child needs parens
        # under the non-commutative operators.
        rp = _prec(e.right)
        if rp < op_prec or (rp == op_prec and e.op in "-/"):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def _to_python_source(e: Expression) -> str:
    if isinstance(e, Literal):
        # Parenthesized so a negative literal under ** keeps its sign:
        # Python would parse -2.0 ** 2 as -(2.0 ** 2).
        return f"({e.value!r})" if e.value < 0 else repr(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Negate):
        return f"(-{_to_python_source(e.operand)})"
    if isinstance(e, ExpCall):
        return f"exp({_to_python_source(e.operand)})"
    op = "**" if e.op == "^" else e.op
    return f"({_to_python_source(e.left)} {op} {_to_python_source(e.right)})"


def straight_line(trees, names, lines: list[str], temps: dict[str, str]) -> list[str]:
    """The source of each tree's value, appending to lines one assignment per
    distinct subtree that reads a variable.  names maps variables to their
    identifiers; temps, one per generated function, maps each right-hand side
    to its temporary, keyed on text since Literal(0.0) == Literal(-0.0) as
    nodes.  Literal-only subtrees stay inline, where Python folds them as in
    compile_expression."""

    def emit(e) -> str:
        if isinstance(e, Variable):
            return names[e.name]
        if not free_variables(e):
            return _to_python_source(e)
        if isinstance(e, BinaryOp):
            rhs = f"{emit(e.left)} {'**' if e.op == '^' else e.op} {emit(e.right)}"
        else:
            rhs = f"-{emit(e.operand)}" if isinstance(e, Negate) else f"exp({emit(e.operand)})"
        if rhs not in temps:
            temps[rhs] = f"t{len(temps)}"
            lines.append(f"{temps[rhs]} = {rhs}")
        return temps[rhs]

    return [emit(e) for e in trees]


@lru_cache(maxsize=4096)
def _compile_source(body: str, names: tuple[str, ...]):
    code = f"def _f({', '.join(names)}):\n{body}"
    namespace = {"exp": np.exp, "clip": np.clip, "where": np.where, "__builtins__": {}}
    exec(code, namespace)  # noqa: S102 - source is generated from parsed trees
    return namespace["_f"]


def compile_lines(lines, names, label: str) -> "CompiledExpression":
    """Compile source lines, a function body, to a function of the positional
    arguments names; a division by zero in it names label."""
    names = tuple(names)
    return CompiledExpression(_compile_source("".join(f"    {ln}\n" for ln in lines), names),
                              names, label)


def compile_expression(e: Expression, names) -> "CompiledExpression":
    """Compile a tree to a positional-argument callable over floats/arrays."""
    names = tuple(names)
    missing = free_variables(e) - set(names)
    if missing:
        raise EvaluationError(f"unbound variables: {sorted(missing)}")
    return compile_lines([f"return {_to_python_source(e)}"], names, str(e))


class CompiledExpression:
    __slots__ = ("_fn", "names", "source")

    def __init__(self, fn, names: tuple[str, ...], source: str):
        self._fn = fn
        self.names = names
        self.source = source

    def __call__(self, *args):
        with np.errstate(over="ignore", divide="raise", under="ignore"):
            try:
                return self._fn(*args)
            except FloatingPointError:
                raise ZeroDivisionError(f"division by zero evaluating '{self.source}'") from None


def eval_expression(e: Expression, bindings) -> float:
    """Evaluate with a name->value mapping covering every free variable.

    Values may be floats or numpy arrays (broadcast together).  Division
    by zero raises ZeroDivisionError; exp overflow returns inf.
    """
    names = tuple(sorted(free_variables(e)))
    missing = [n for n in names if n not in bindings]
    if missing:
        raise EvaluationError(f"missing bindings for: {missing}")
    fn = compile_expression(e, names)
    return fn(*(bindings[n] for n in names))


def _lit(v: float) -> Literal:
    return Literal(float(v))


_ZERO = _lit(0.0)
_ONE = _lit(1.0)


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Literal) and e.value == 0.0


def _is_one(e: Expression) -> bool:
    return isinstance(e, Literal) and e.value == 1.0


def _add(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinaryOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Negate(b)
    return BinaryOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinaryOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return BinaryOp("/", a, b)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic partial derivative with respect to ``var``."""
    if isinstance(e, Literal):
        return _ZERO
    if isinstance(e, Variable):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Negate):
        d = differentiate(e.operand, var)
        return _ZERO if _is_zero(d) else Negate(d)
    if isinstance(e, ExpCall):
        return _mul(ExpCall(e.operand), differentiate(e.operand, var))
    if isinstance(e, BinaryOp):
        if e.op == "+":
            return _add(differentiate(e.left, var), differentiate(e.right, var))
        if e.op == "-":
            return _sub(differentiate(e.left, var), differentiate(e.right, var))
        if e.op == "*":
            return _add(
                _mul(differentiate(e.left, var), e.right),
                _mul(e.left, differentiate(e.right, var)),
            )
        if e.op == "/":
            num = _sub(
                _mul(differentiate(e.left, var), e.right),
                _mul(e.left, differentiate(e.right, var)),
            )
            return _div(num, BinaryOp("^", e.right, _lit(2))) if not _is_zero(num) else _ZERO
        if e.op == "^":
            k = int(e.right.value)
            if k == 0:
                return _ZERO
            du = differentiate(e.left, var)
            if k == 1:
                return du
            return _mul(_mul(_lit(k), BinaryOp("^", e.left, _lit(k - 1))), du)
    raise TypeError(f"not an expression node: {e!r}")
