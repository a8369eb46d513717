"""Parsing, evaluation, and exact differentiation of model expressions.

The grammar covers floating literals, declared variables, the four
arithmetic operators, ``^k`` for a non-negative integer ``k``, ``exp(...)``,
and parentheses.  Precedence from tightest to loosest: ``^``, unary minus,
``*`` ``/``, ``+`` ``-``; binary operators associate to the left.

Trees are frozen dataclasses and never mutated after parsing, so a
derivative or a drift built from a tree can share its subtrees.
Evaluation accepts plain floats or numpy arrays in the bindings; overflow
propagates as ``inf`` while division by zero raises.
"""

from __future__ import annotations

import math
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


def _literal(token: str, offset: int) -> Literal:
    # A token past the float range reads as inf, which no generated code can name.
    value = float(token)
    if not math.isfinite(value):
        raise ExpressionSyntaxError("number out of range", offset)
    return Literal(value)


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
        return _literal(value, offset)

    def atom(self) -> Expression:
        kind, value, offset = self.advance()
        if kind == "num":
            return _literal(value, offset)
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


class _Unproven(Exception):
    pass


def monotone_variables(e: Expression) -> frozenset[str]:
    """The variables v of e in which e's floating-point value is provably
    monotone, for every fixed value of the other variables: v enters only
    through +, -, unary minus, * by a factor free of v and / by a divisor
    free of v, and every sum of terms that read v has them all run the same
    way.  IEEE rounding is monotone, so each of these operations is monotone
    in its operand.  Along v, between two points where the value is finite,
    every subtree that reads v is finite too (none of these operations turns
    inf or nan into a finite value) and lies between its values there."""
    out = set()
    for v in free_variables(e):
        try:
            _slope(e, v)
        except _Unproven:
            continue
        out.add(v)
    return frozenset(out)


def _slope(e: Expression, v: str) -> int | None:
    """0 when e does not read v; +1 or -1 when e is nondecreasing or
    nonincreasing in v; None when it is monotone in a direction that depends
    on the other variables.  Raises _Unproven when no rule applies."""
    if isinstance(e, Variable):
        return int(e.name == v)
    if isinstance(e, Literal):
        return 0
    if isinstance(e, Negate):
        s = _slope(e.operand, v)
        return None if s is None else -s
    if isinstance(e, ExpCall) or e.op == "^":
        if _slope(e.operand if isinstance(e, ExpCall) else e.left, v) != 0:
            raise _Unproven
        return 0
    left, right = _slope(e.left, v), _slope(e.right, v)
    if e.op in "*/":
        if right == 0:
            s, factor = left, e.right
        elif left == 0 and e.op == "*":
            s, factor = right, e.left
        else:
            raise _Unproven
        sign = 0 if s == 0 else _sign(factor)
        return None if s is None or sign is None else s * sign
    if e.op == "-":
        right = None if right is None else -right
    if left == 0:
        return right
    if right == 0 or (left is not None and left == right):
        return left
    raise _Unproven


def _sign(e: Expression) -> int | None:
    """+1 when e's value is >= 0 or nan, -1 when <= 0 or nan, None when
    unknown: from the literals' signs and exp(x) >= 0."""
    if isinstance(e, Literal):
        return 1 if e.value >= 0 else -1
    if isinstance(e, ExpCall):
        return 1
    if isinstance(e, Variable):
        return None
    if isinstance(e, Negate):
        s = _sign(e.operand)
        return None if s is None else -s
    left = _sign(e.left)
    if e.op == "^":
        return 1 if e.right.value % 2 == 0 else left
    right = _sign(e.right)
    if left is None or right is None:
        return None
    if e.op in "*/":
        return left * right
    if e.op == "-":
        right = -right
    return left if left == right else None


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


_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}


def lane_tree(trees, names, const) -> Expression:
    """trees, one per lane and equal up to variables and literal values, as
    one tree: the first tree's variables renamed by names, and each
    literal-only subtree the variable const(src), src the source of the tuple
    of the lanes' values (text, since Literal(0.0) == Literal(-0.0) as
    nodes).  A ^ exponent stays a scalar literal: numpy's power rounds
    x ** 2.0 differently for a row of 2.0 on longer arrays."""
    e = trees[0]
    if not free_variables(e):
        return Variable(const(f"({''.join(f'{_to_python_source(t)}, ' for t in trees)})"))
    if isinstance(e, Variable):
        return Variable(names[e.name])
    if isinstance(e, (Negate, ExpCall)):
        return type(e)(lane_tree([t.operand for t in trees], names, const))
    left = lane_tree([t.left for t in trees], names, const)
    right = e.right if e.op == "^" else lane_tree([t.right for t in trees], names, const)
    return BinaryOp(e.op, left, right)


def straight_line(trees, lines: list[str], temps: dict[str, str], outs=None,
                  prefix: str = "t") -> list[str]:
    """The identifier of each tree's value, appending to lines one ufunc call
    per distinct subtree that is not a variable, written into its own
    buffer: `subtract(c1, x0, t0)`, `exp(t7, t8)`.  Variables name
    identifiers (see lane_tree).  temps, one per generated function, maps
    each call to its buffer, a new one <prefix><k> with k counting that
    prefix's buffers in temps.  outs, one per tree, names the buffer a
    tree's own call writes into when no earlier line computes it."""

    def emit(e, out=None) -> str:
        if isinstance(e, Variable):
            return e.name
        if isinstance(e, BinaryOp) and e.op == "^":
            call = f"power({emit(e.left)}, {_to_python_source(e.right)}"
        elif isinstance(e, BinaryOp):
            call = f"{_UFUNCS[e.op]}({emit(e.left)}, {emit(e.right)}"
        else:
            call = f"{'negative' if isinstance(e, Negate) else 'exp'}({emit(e.operand)}"
        if call not in temps:
            temps[call] = out or f"{prefix}{sum(t.startswith(prefix) for t in temps.values())}"
            lines.append(f"{call}, {temps[call]})")
        return temps[call]

    return [emit(e, out) for e, out in zip(trees, outs or [None] * len(trees))]


@lru_cache(maxsize=4096)
def _compile_source(body: str, names: tuple[str, ...]):
    code = f"def _f({', '.join(names)}):\n{body}"
    namespace = {"__builtins__": {}, "CompiledExpression": CompiledExpression,
                 **{f: getattr(np, f) for f in ("exp", "copyto", "empty", "full", "negative",
                                                "power", "maximum", "minimum",
                                                *_UFUNCS.values())}}
    exec(code, namespace)  # noqa: S102 - source is generated from parsed trees
    return namespace["_f"]


def compile_lines(lines, names, label: str) -> "CompiledExpression":
    """Compile source lines, a function body, to a function of the positional
    arguments names; a division by zero in it names label."""
    names = tuple(names)
    return CompiledExpression(_compile_source("".join(f"    {ln}\n" for ln in lines), names),
                              names, label)


def compile_kernels(kernels, arrays) -> "CompiledExpression":
    """A function of rows that binds every name of arrays to the array its
    source allocates (an empty buffer, or constants filled from the values
    lane_tree names) and returns the kernels, each (lines, args, label), as
    CompiledExpressions closed over those arrays."""
    body = [f"{name} = {src}" for name, src in arrays.items()]
    for i, (lines, args, _) in enumerate(kernels):
        body += [f"def _k{i}({', '.join(args)}):", *(f"    {ln}" for ln in lines)]
    body.append("return (" + "".join(f"CompiledExpression(_k{i}, {tuple(args)!r}, {label!r}), "
                                     for i, (_, args, label) in enumerate(kernels)) + ")")
    return compile_lines(body, ("rows",), ", ".join(dict.fromkeys(k[2] for k in kernels)))


def compile_expression(e: Expression, names) -> "CompiledExpression":
    """Compile a tree to a positional-argument callable over floats/arrays."""
    names = tuple(names)
    missing = free_variables(e) - set(names)
    if missing:
        raise EvaluationError(f"unbound variables: {sorted(missing)}")
    return compile_lines([f"return {_to_python_source(e)}"], names, str(e))


# The numpy error state generated code runs under: an overflow gives inf and
# an invalid operation nan, which the callers check, and a division by zero
# raises.  A call enters it; a scan enters it once and calls run.
ERRSTATE = {"over": "ignore", "divide": "raise", "under": "ignore", "invalid": "ignore"}


class CompiledExpression:
    """fn under np.errstate(**ERRSTATE), its errors named by source; fn runs
    raw, and run(*args) runs it under the caller's error state with its
    errors named.  monotone names the arguments the value is provably
    monotone in (see monotone_variables), empty unless the compiler of its
    tree set it."""

    __slots__ = ("fn", "names", "source", "monotone")

    def __init__(self, fn, names: tuple[str, ...], source: str):
        self.fn = fn
        self.names = names
        self.source = source
        self.monotone = frozenset()

    def __call__(self, *args):
        with np.errstate(**ERRSTATE):
            return self.run(*args)

    def run(self, *args):
        try:
            return self.fn(*args)
        except (FloatingPointError, ZeroDivisionError):  # numpy's, or Python's on floats
            raise ZeroDivisionError(f"division by zero evaluating '{self.source}'") from None
        except OverflowError:  # ** on Python floats raises where numpy gives inf
            raise FloatingPointError(f"overflow evaluating '{self.source}'") from None


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
            # (u' - (u/v) v') / v: no v^2, which overflows for large v
            num = _sub(differentiate(e.left, var), _mul(e, differentiate(e.right, var)))
            return _div(num, e.right)
        if e.op == "^":
            k = int(e.right.value)
            if k == 0:
                return _ZERO
            du = differentiate(e.left, var)
            if k == 1:
                return du
            return _mul(_mul(_lit(k), BinaryOp("^", e.left, _lit(k - 1))), du)
    raise TypeError(f"not an expression node: {e!r}")
