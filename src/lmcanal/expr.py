"""Scalar math expressions in s, t, w with forward-mode Taylor differentiation.

Expressions are parsed by a hand-written precedence-climbing parser into a
small immutable AST and evaluated by one tree walker on one type, ``Jet``:
a truncated Taylor polynomial in s whose degree is its number of
coefficients less one.

* ``eval_s``   -- the degree-4 jet in s: value and d/ds derivatives of
  orders 1..4, exact to machine precision, at one s or at an array of s
  values in one walk,
* ``eval_value`` -- the value of degree-0 jets, any of s, t, w bound to a
  float or to an array (arrays broadcast; one walk per batch).

On arrays numpy applies only ``+ - * /`` (correctly rounded, like Python
floats) and exact negations, and every function goes through ``libm`` one
column at a time, so an element gets the bits of a walk at that element
alone.  A batch raises ``DomainError`` exactly when some element alone
would, with the error of the first such element.

A power takes its rule from the exponent's expression, once per walk.  An
exponent that reads no variable is one float: an integer multiplies out,
any other takes the Taylor-mode recurrence of ``u f' = a f u'``.  An
exponent that reads a variable gives ``exp(v ln u)``.

Grammar (documented wire format; scene files embed these strings):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?            # right associative
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers: variables ``s t w``, constants ``pi e``, functions
``sin cos sinh cosh tan exp ln sqrt csc sec csch sech``.  ``^`` binds
tighter than unary minus, so ``-s^2`` means ``-(s^2)``.  The reciprocal
trig/hyperbolic functions raise a domain error at their poles.

Nesting is bounded: an AST more than ``MAX_DEPTH`` levels deep, or
parentheses, calls, signs and powers nested more than ``MAX_DEPTH`` levels,
is a ``ParseError``.  The tree walker recurses once per AST level.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np


#: Deepest AST, and deepest nesting of the parser's rules, that ``parse``
#: accepts.
MAX_DEPTH = 100


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier is not a variable, constant or known function."""


class DomainError(ExprError):
    """Evaluation left the domain of a function (ln of nonpositive value,
    division by zero, reciprocal function at a pole, overflow)."""


class VariableScopeError(ExprError):
    """Expression uses a variable the evaluation mode does not bind."""


# ---------------------------------------------------------------------------
# AST


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str  # "s", "t" or "w"


class Const(NamedTuple):
    name: str  # "pi" or "e"


class Neg(NamedTuple):
    arg: "Expr"


class Bin(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, Bin, Call]

VARIABLES = ("s", "t", "w")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tan", "exp", "ln", "sqrt",
             "csc", "sec", "csch", "sech")


def variables(expr: Expr) -> frozenset[str]:
    """Set of variable names appearing in the expression."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables(expr.arg)
    if isinstance(expr, Bin):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        return variables(expr.arg)
    return frozenset()


# ---------------------------------------------------------------------------
# Tokenizer / parser

_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and (
                    j + 1 < n and (text[j + 1].isdigit()
                                   or (text[j + 1] in "+-" and j + 2 < n
                                       and text[j + 2].isdigit()))):
                j += 2 if text[j + 1] in "+-" else 1
                while j < n and text[j].isdigit():
                    j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(f"bad number literal {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


# Binary operator precedence; unary minus sits between */ (2) and ^ (4).
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_RIGHT_ASSOC = {"^"}
_UNARY_MINUS_PREC = 3


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        expr = self.parse_binary(1)
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return expr

    def parse_binary(self, min_prec: int) -> Expr:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels",
                             self.peek()[2])
        lhs = self.parse_unary()
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in _PREC or _PREC[op] < min_prec:
                self.depth -= 1
                return lhs
            self.advance()
            next_min = _PREC[op] if op in _RIGHT_ASSOC else _PREC[op] + 1
            rhs = self.parse_binary(next_min)
            lhs = Bin(op, lhs, rhs)

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            # ^ binds tighter than unary minus: -s^2 == -(s^2).
            return Neg(self.parse_binary(_UNARY_MINUS_PREC + 1))
        return self.parse_binary_tail(self.parse_atom())

    def parse_binary_tail(self, lhs: Expr) -> Expr:
        kind, op, _ = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            return Bin("^", lhs, self.parse_binary(_PREC["^"]))
        return lhs

    def parse_atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {value!r}", offset)
                self.advance()
                arg = self.parse_binary(1)
                self.expect_op(")")
                return Call(value, arg)
            if value in VARIABLES:
                return Var(value)
            if value in CONSTANTS:
                return Const(value)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            expr = self.parse_binary(1)
            self.expect_op(")")
            return expr
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError with a byte offset on faults."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    tree = parser.parse()
    # each node takes a token of its own, so only a long text can be deep
    if len(parser.tokens) > MAX_DEPTH and _height(tree) > MAX_DEPTH:
        raise ParseError(f"AST deeper than {MAX_DEPTH} levels", 0)
    return tree


def _height(tree: Expr) -> int:
    """Levels of the AST, counted level by level so that no deep tree
    recurses here."""
    level, height = [tree], 0
    while level:
        height += 1
        level = [child for node in level for child in
                 ((node.left, node.right) if isinstance(node, Bin)
                  else (node.arg,) if isinstance(node, (Neg, Call)) else ())]
    return height


def _prec_of(node: Expr) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _UNARY_MINUS_PREC
    return 9


def to_str(expr: Expr) -> str:
    """Print an AST so that parse(to_str(e)) == e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, (Var, Const)):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_str(expr.arg)
        if _prec_of(expr.arg) < _UNARY_MINUS_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.fn}({to_str(expr.arg)})"
    if isinstance(expr, Bin):
        p = _PREC[expr.op]
        left, right = to_str(expr.left), to_str(expr.right)
        if expr.op in _RIGHT_ASSOC:
            if _prec_of(expr.left) <= p:
                left = f"({left})"
            if _prec_of(expr.right) < p:
                right = f"({right})"
        else:
            if _prec_of(expr.left) < p:
                left = f"({left})"
            if _prec_of(expr.right) <= p:
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Jets

def _check_finite(x, what: str):
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray)
            else math.isfinite(x)):
        raise DomainError(f"{what} is not finite")
    return x


def libm(fn, x, *args):
    """``fn(x, *args)`` for each element of x where x is an array.

    A batch element gets the bits of the scalar call: the same libm
    function runs on the same float, mapped over the elements at C level
    with no Python frame per element.  numpy's own transcendental functions
    and powers can differ from libm in the last ulp.  Python's exceptions
    are raised as scalar code raises them, by the first element that
    raises."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    out = np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, args)),
                      dtype=float, count=x.size)
    return out.reshape(x.shape)


def _any(x) -> bool:
    """A condition on a float or on every element of an array: whether it
    holds anywhere."""
    return bool(x.any()) if isinstance(x, np.ndarray) else bool(x)


class Jet:
    """Truncated Taylor polynomial in s of degree ``len(c) - 1``: ``c[k]``
    is the k-th Taylor coefficient (k-th derivative over k!).  A degree-0
    jet is a plain value.  A coefficient is a float or an array of points
    (a float stands for the same value at every point).

    Products are coefficient convolutions, so the Leibniz rule holds by
    construction, and functions take the Taylor-mode recurrences of
    ``f' = f'(u) u'``, each coefficient from the lower ones (Griewank and
    Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).

    Jets are immutable and compare by ``c``.  Not a tuple: numpy would
    read a tuple operand as a sequence.
    """

    __slots__ = ("c",)

    def __init__(self, c: tuple):
        _set_c(self, c)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Jet is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, o):
        return self.c == o.c if o.__class__ is Jet else NotImplemented

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Jet(c={self.c!r})"

    def derivatives(self) -> tuple:
        """The value and the derivatives of orders 1..degree."""
        return tuple(math.factorial(k) * x for k, x in enumerate(self.c))

    def __add__(self, o: "Jet") -> "Jet":
        return Jet(tuple(a + b for a, b in zip(self.c, o.c)))

    def __sub__(self, o: "Jet") -> "Jet":
        return Jet(tuple(a - b for a, b in zip(self.c, o.c)))

    def __neg__(self) -> "Jet":
        return Jet(tuple(-a for a in self.c))

    def __mul__(self, o: "Jet") -> "Jet":
        # sums run left to right from 0, so a -0.0 product gives +0.0
        a, b = self.c, o.c
        out = []
        for k in range(len(a)):
            acc = 0
            for i in range(k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Jet(tuple(out))

    def __truediv__(self, o: "Jet") -> "Jet":
        a, b = self.c, o.c
        if _any(b[0] == 0.0):
            raise DomainError("division by zero")
        q = []
        for k in range(len(a)):
            acc = 0
            for i in range(k):
                acc = acc + q[i] * b[k - i]
            q.append((a[k] - acc) / b[0])
        return Jet(tuple(q))

    def __pow__(self, a: float) -> "Jet":
        """u^a for a constant a.  An integer a multiplies out by repeated
        squaring, valid for any base.  Any other a requires a positive
        base: the value is libm's pow(u, a), rounded once, and coefficient
        k comes from the lower ones by the recurrence of u f' = a f u'."""
        if a.is_integer():  # false for inf and nan
            acc, base, m = None, self, abs(int(a))
            while m:
                if m & 1:
                    acc = base if acc is None else acc * base
                m >>= 1
                if m:
                    base = base * base
            one = _constant(1.0, len(self.c) - 1)
            return one if acc is None else one / acc if a < 0 else acc
        u = self.c
        if _any(u[0] <= 0.0):
            raise DomainError(f"ln of non-positive value {u[0]}")
        f = [libm(math.pow, u[0], a)]
        for k in range(1, len(u)):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + (a * j - (k - j)) * u[j] * f[k - j]
            f.append(acc / (k * u[0]))
        return Jet(tuple(f))


_set_c = Jet.c.__set__  # the slot's own setter, past __setattr__


def _constant(x: float, degree: int) -> Jet:
    return Jet((x,) + (0.0,) * degree)


# Functions of a jet u.  The value term is one libm call on u's value, a
# float or an array; a failing batch is walked again element by element
# (see ``_walk``), so the messages below are written for a float value.
# ``du[j]`` is j u_j for j >= 1, the coefficient of s^(j-1) in u'.

def _slopes(u: Jet) -> list:
    return list(u.c[:2]) + [j * u.c[j] for j in range(2, len(u.c))]


def _term(du: list, f: list, k: int, sign: int = 1):
    """sign times the k-th coefficient of the antiderivative of f u': the
    sum of j u_j f_(k-j) over j = 1..k, divided by sign k."""
    acc = du[1] * f[k - 1]
    for j in range(2, k + 1):
        acc = acc + du[j] * f[k - j]
    return acc / (sign * k)


def _exp(u: Jet) -> Jet:
    try:
        f = [libm(math.exp, u.c[0])]
    except OverflowError:
        raise DomainError(f"exp overflow at {u.c[0]}") from None
    du = _slopes(u)
    for k in range(1, len(u.c)):
        f.append(_term(du, f, k))  # f' = f u'
    return Jet(tuple(f))


def _ln(u: Jet) -> Jet:
    u0 = u.c[0]
    if _any(u0 <= 0.0):
        raise DomainError(f"ln of non-positive value {u0}")
    du, df = _slopes(u), [None]
    for k in range(1, len(u.c)):
        # f' = u' / u, one degree down: df[k] = k f_k
        df.append((du[k] - sum(u.c[j] * df[k - j] for j in range(1, k)))
                  / u0)
    return Jet((libm(math.log, u0),)
               + tuple(df[k] / k for k in range(1, len(u.c))))


def _sqrt(u: Jet) -> Jet:
    u0 = u.c[0]
    if _any(u0 <= 0.0):
        raise DomainError(f"sqrt of non-positive value {u0} (jet needs u > 0)")
    f = [libm(math.sqrt, u0)]
    for k in range(1, len(u.c)):
        # f f = u
        f.append((u.c[k] - sum(f[j] * f[k - j] for j in range(1, k)))
                 / (2.0 * f[0]))
    return Jet(tuple(f))


#: The function of each trig or hyperbolic name, its derivative's mate,
#: and the signs in f' = +-mate u' and mate' = +-f u'.
_PAIRS = {"sin": (math.sin, math.cos, 1, -1),
          "cos": (math.cos, math.sin, -1, 1),
          "sinh": (math.sinh, math.cosh, 1, 1),
          "cosh": (math.cosh, math.sinh, 1, 1)}


def _pair(fn: str, u: Jet) -> Jet:
    """fn from its mate one degree lower, so a value computes fn alone."""
    own, mate, own_sign, mate_sign = _PAIRS[fn]
    degree = len(u.c) - 1
    try:
        f = [libm(own, u.c[0])]
        g = [libm(mate, u.c[0])] if degree else []
    except (OverflowError, ValueError):
        raise DomainError(f"{fn} overflow or undefined at {u.c[0]}") from None
    du = _slopes(u)
    for k in range(1, degree + 1):
        f.append(_term(du, g, k, own_sign))
        if k < degree:
            g.append(_term(du, f, k, mate_sign))
    return Jet(tuple(f))


_FUNCTIONS = {"exp": _exp, "ln": _ln, "sqrt": _sqrt,
              **{fn: partial(_pair, fn) for fn in _PAIRS}}
_RECIPROCALS = {"csc": "sin", "sec": "cos", "csch": "sinh", "sech": "cosh"}


def _apply_fn(fn: str, u: Jet) -> Jet:
    """Apply a named function to a jet."""
    if fn == "tan":
        return _apply_fn("sin", u) / _apply_fn("cos", u)
    if fn in _RECIPROCALS:
        # Domain error at the pole comes from the division.
        return _constant(1.0, len(u.c) - 1) / _apply_fn(_RECIPROCALS[fn], u)
    if fn not in _FUNCTIONS:
        raise ExprError(f"unhandled function {fn!r}")
    return _FUNCTIONS[fn](u)


def _eval(expr: Expr, scope: dict, degree: int) -> Jet:
    if isinstance(expr, Num):
        return _constant(expr.value, degree)
    if isinstance(expr, Const):
        return _constant(CONSTANTS[expr.name], degree)
    if isinstance(expr, Var):
        if expr.name not in scope:
            raise VariableScopeError(f"variable {expr.name!r} is not bound")
        return scope[expr.name]
    if isinstance(expr, Neg):
        return -_eval(expr.arg, scope, degree)
    if isinstance(expr, Call):
        return _apply_fn(expr.fn, _eval(expr.arg, scope, degree))
    if isinstance(expr, Bin):
        a = _eval(expr.left, scope, degree)
        if expr.op == "^":
            # a constant exponent is one float for the whole batch
            if not variables(expr.right):
                return a ** _eval(expr.right, {}, 0).c[0]
            b = _eval(expr.right, scope, degree)
            return _apply_fn("exp", b * _apply_fn("ln", a))
        b = _eval(expr.right, scope, degree)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
    raise TypeError(f"not an expression node: {expr!r}")


def _walk(expr: Expr, values: dict, degree: int) -> Jet:
    """The jet of the given degree in the bound variables, floats or arrays
    of one shape, walked once, with every derivative checked finite;
    Python's arithmetic errors (a power overflowing) are reported as
    ``DomainError``.  A failing batch is walked again one element at a
    time, so that it raises the error of its first element that fails
    alone; the error names the point."""
    scope = {name: Jet(((x, 1.0) + (0.0,) * degree)[:degree + 1])
             for name, x in values.items()}
    try:
        out = _eval(expr, scope, degree)
        for x in out.derivatives():
            _check_finite(x, "jet derivative" if degree else "value")
        return out
    except DomainError as e:
        failure = e
    except (ZeroDivisionError, OverflowError) as e:
        failure = DomainError(str(e))
    if not values:
        raise failure
    if not any(isinstance(x, np.ndarray) for x in values.values()):
        where = ", ".join(f"{name}={x!r}" for name, x in values.items())
        raise DomainError(f"{failure} where {where}")
    for i in np.ndindex(np.shape(next(iter(values.values())))):
        _walk(expr, {name: float(x[i]) for name, x in values.items()}, degree)
    raise failure


def eval_s(expr: Expr, s0) -> Jet:
    """Evaluate an expression in s as a degree-4 jet: its value and its
    derivatives of orders 1..4.

    ``s0`` is one value or an array of values walked in one pass.  With an
    array every coefficient is an array of its shape, each element holding
    the bits ``eval_s`` gives at that s alone, and the batch raises
    ``DomainError`` exactly when some element alone would, with the error
    of the first such element.
    """
    s = np.asarray(s0, dtype=float) if np.ndim(s0) else float(s0)
    if not np.size(s):
        return Jet((s,) * 5)
    with np.errstate(all="ignore"):
        out = _walk(expr, {"s": s}, 4)
    if np.ndim(s):
        out = Jet(tuple(x.copy() if isinstance(x, np.ndarray)
                        else np.full(s.shape, x) for x in out.c))
    return out


def eval_value(expr: Expr, s=None, t=None, w=None):
    """Value of an expression with the given variables bound.

    Any of s, t, w may be an array: they broadcast, the expression is
    walked once over the batch and the result is an array of the batch
    shape (also for an expression without variables), each element holding
    the bits ``eval_value`` gives at that element alone.  Walks degree-0
    jets, so the result has the bits of the value term of ``eval_s``.
    Leaving a domain, dividing by zero or overflowing raises
    ``DomainError`` naming the point, in a batch exactly when some element
    alone would, with the error of the first such element.
    """
    values = {name: x for name, x in (("s", s), ("t", t), ("w", w))
              if x is not None}
    if not any(np.ndim(x) for x in values.values()):
        return _walk(expr, {name: float(x) for name, x in values.items()},
                     0).c[0]
    arrays = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                   for x in values.values()))
    with np.errstate(all="ignore"):
        out = _walk(expr, dict(zip(values, arrays)), 0).c[0]
    return np.array(np.broadcast_to(out, arrays[0].shape))
