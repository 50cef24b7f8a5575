"""Scalar math expressions in s, t, w with forward-mode Taylor differentiation.

Expressions are parsed by a hand-written precedence-climbing parser into a
small immutable AST and evaluated by one tree walker in one of two modes:

* ``eval_s``   -- truncated Taylor jet in s: value and d/ds derivatives of
  orders 1..4 (``Jet1x4``), exact to machine precision, at one s or at an
  array of s values in one walk,
* ``eval_value`` -- the same walker on plain floats, any of s, t, w bound.

On arrays numpy applies only ``+ - * /`` (correctly rounded, like Python
floats) and every function and ``**`` goes through ``libm``, so an element
gets the bits of a walk at that element alone.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np


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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "s", "t" or "w"


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
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
                raise ParseError(f"bad number literal {text[i:j]!r}", i) from None
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
        lhs = self.parse_unary()
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in _PREC or _PREC[op] < min_prec:
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
    return _Parser(text).parse()


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
    """``fn(x, *args)`` for each element of x where x is an array (a tuple
    result becomes a tuple of arrays).  numpy's own transcendental functions
    and powers can differ from libm in the last ulp, and this also raises
    Python's exceptions as scalar code does."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    out = np.array([fn(v, *args) for v in x.ravel().tolist()], dtype=float)
    if out.ndim > 1:
        return tuple(col.reshape(x.shape) for col in out.T)
    return out.reshape(x.shape)


@dataclass(frozen=True)
class Jet1x4:
    """Value and d/ds derivatives of orders 1..4 at a point, or at n points
    when the coefficients are (n,) arrays (a float coefficient stands for
    the same value at every point).

    Internally a degree-4 Taylor polynomial: ``c[k]`` is the k-th Taylor
    coefficient (k-th derivative over k!), so multiplication is plain
    coefficient convolution and the Leibniz rule holds by construction.
    """

    c: tuple[float, float, float, float, float]

    @staticmethod
    def constant(x: float) -> "Jet1x4":
        return Jet1x4((float(x), 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def variable(x0) -> "Jet1x4":
        return Jet1x4((x0, 1.0, 0.0, 0.0, 0.0))

    @property
    def value(self) -> float:
        return self.c[0]

    @property
    def d1(self) -> float:
        return self.c[1]

    @property
    def d2(self) -> float:
        return 2.0 * self.c[2]

    @property
    def d3(self) -> float:
        return 6.0 * self.c[3]

    @property
    def d4(self) -> float:
        return 24.0 * self.c[4]

    def derivatives(self) -> tuple[float, float, float, float, float]:
        return (self.value, self.d1, self.d2, self.d3, self.d4)

    def __add__(self, o: "Jet1x4") -> "Jet1x4":
        return Jet1x4(tuple(a + b for a, b in zip(self.c, o.c)))

    def __sub__(self, o: "Jet1x4") -> "Jet1x4":
        return Jet1x4(tuple(a - b for a, b in zip(self.c, o.c)))

    def __neg__(self) -> "Jet1x4":
        return Jet1x4(tuple(-a for a in self.c))

    def __mul__(self, o: "Jet1x4") -> "Jet1x4":
        a, b = self.c, o.c
        return Jet1x4(tuple(
            sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(5)))

    def __truediv__(self, o: "Jet1x4") -> "Jet1x4":
        a, b = self.c, o.c
        if np.any(b[0] == 0.0):
            raise DomainError("division by zero")
        q = [0.0] * 5
        for k in range(5):
            q[k] = (a[k] - sum(q[i] * b[k - i] for i in range(k))) / b[0]
        return Jet1x4(tuple(q))

    def compose(self, f: tuple[float, float, float, float, float]) -> "Jet1x4":
        """Apply outer function with derivatives f = (f, f', f'', f''', f'''')
        at ``self.value``, via the degree-4 composition formula."""
        f0, f1, f2, f3, f4 = f
        _, p1, p2, p3, p4 = self.c
        return Jet1x4((
            f0,
            f1 * p1,
            f1 * p2 + (f2 / 2.0) * p1 * p1,
            f1 * p3 + f2 * p1 * p2 + (f3 / 6.0) * libm(pow, p1, 3),
            f1 * p4 + f2 * (p1 * p3 + p2 * p2 / 2.0)
            + (f3 / 2.0) * p1 * p1 * p2 + (f4 / 24.0) * libm(pow, p1, 4),
        ))

    def at(self, i) -> "Jet1x4":
        """The one-point jet at index i of a batch, on Python floats."""
        return Jet1x4(tuple(float(x[i]) if isinstance(x, np.ndarray) else x
                            for x in self.c))


class _Plain:
    """Order-0 mode of ``_eval_jet``: values are plain floats."""

    constant = float


def _ln_derivs(u: float, order: int) -> tuple:
    if u <= 0.0:
        raise DomainError(f"ln of non-positive value {u}")
    if not order:
        return (math.log(u),)
    d = (math.log(u), 1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3, -6.0 / u ** 4)
    return d[: order + 1]


def _sqrt_derivs(u: float, order: int) -> tuple:
    if u <= 0.0:
        raise DomainError(f"sqrt of non-positive value {u} (jet needs u > 0)")
    r = math.sqrt(u)
    if not order:
        return (r,)
    d = (r, 0.5 / r, -0.25 / (u * r), 0.375 / (u * u * r),
         -0.9375 / (u ** 3 * r))
    return d[: order + 1]


def _exp_derivs(u: float, order: int) -> tuple:
    try:
        ev = math.exp(u)
    except OverflowError:
        raise DomainError(f"exp overflow at {u}") from None
    return (ev,) * (order + 1)


def _trig_derivs(fn: str, u: float, order: int) -> tuple:
    """Derivative cycle of fn; computes only fn's trig or hyperbolic pair."""
    try:
        if fn in ("sin", "cos"):
            a, b = math.sin(u), math.cos(u)
            cycle = (a, b, -a, -b, a) if fn == "sin" else (b, -a, -b, a, b)
        else:
            a, b = math.sinh(u), math.cosh(u)
            cycle = (a, b, a, b, a) if fn == "sinh" else (b, a, b, a, b)
    except (OverflowError, ValueError):
        raise DomainError(f"{fn} overflow or undefined at {u}") from None
    return cycle[: order + 1]


_ORDER = {_Plain: 0, Jet1x4: 4}
_DERIVS = {"exp": _exp_derivs, "ln": _ln_derivs, "sqrt": _sqrt_derivs,
           **{fn: partial(_trig_derivs, fn)
              for fn in ("sin", "cos", "sinh", "cosh")}}
_RECIPROCALS = {"csc": "sin", "sec": "cos", "csch": "sinh", "sech": "cosh"}


def _value(u, jet_cls) -> float:
    return u if jet_cls is _Plain else u.value


def _apply_fn(fn: str, u, jet_cls):
    """Apply a named function to a float or a Jet1x4."""
    if fn == "tan":
        return _apply_fn("sin", u, jet_cls) / _apply_fn("cos", u, jet_cls)
    if fn in _RECIPROCALS:
        # Domain error at the pole comes from the division.
        return jet_cls.constant(1.0) / _apply_fn(_RECIPROCALS[fn], u, jet_cls)
    if fn not in _DERIVS:
        raise ExprError(f"unhandled function {fn!r}")
    d = libm(partial(_DERIVS[fn], order=_ORDER[jet_cls]), _value(u, jet_cls))
    return d[0] if jet_cls is _Plain else u.compose(d)


def _int_pow(u, n: int, jet_cls):
    if n == 0:
        return jet_cls.constant(1.0)
    if n < 0:
        return jet_cls.constant(1.0) / _int_pow(u, -n, jet_cls)
    acc = None
    base = u
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


def _pow(u, v, jet_cls):
    """u^v.  A constant integer exponent multiplies out (valid for any
    base), any other takes exp(v * ln u), which requires a positive base.
    In a batch whose elements differ in branch or exponent, each element
    is walked on its own."""
    e = _value(v, jet_cls)
    whole = (np.abs(e) <= 64) & (np.floor(e) == e)
    if jet_cls is not _Plain:
        for x in v.c[1:]:
            whole = whole & (x == 0.0)
    e = np.broadcast_to(e, np.shape(whole))
    if not whole.any():
        return _apply_fn("exp", v * _apply_fn("ln", u, jet_cls), jet_cls)
    if whole.all() and (e == e.flat[0]).all():
        return _int_pow(u, int(e.flat[0]), jet_cls)
    parts = [_pow(u.at(i), v.at(i), jet_cls) for i in np.ndindex(e.shape)]
    return Jet1x4(tuple(np.reshape(c, e.shape)
                        for c in zip(*(p.c for p in parts))))


def _eval_jet(expr: Expr, scope: dict, jet_cls):
    if isinstance(expr, Num):
        return jet_cls.constant(expr.value)
    if isinstance(expr, Const):
        return jet_cls.constant(CONSTANTS[expr.name])
    if isinstance(expr, Var):
        if expr.name not in scope:
            raise VariableScopeError(f"variable {expr.name!r} is not bound")
        return scope[expr.name]
    if isinstance(expr, Neg):
        return -_eval_jet(expr.arg, scope, jet_cls)
    if isinstance(expr, Call):
        return _apply_fn(expr.fn, _eval_jet(expr.arg, scope, jet_cls), jet_cls)
    if isinstance(expr, Bin):
        a = _eval_jet(expr.left, scope, jet_cls)
        b = _eval_jet(expr.right, scope, jet_cls)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        if expr.op == "^":
            return _pow(a, b, jet_cls)
    raise TypeError(f"not an expression node: {expr!r}")


def _walk(expr: Expr, scope: dict, jet_cls):
    """``_eval_jet`` with Python's arithmetic errors (a jet term dividing by
    an underflowed power, a power overflowing) reported as ``DomainError``."""
    try:
        return _eval_jet(expr, scope, jet_cls)
    except (ZeroDivisionError, OverflowError) as e:
        raise DomainError(str(e)) from None


def eval_s(expr: Expr, s0) -> Jet1x4:
    """Evaluate an expression in s as a jet with derivatives of orders 1..4.

    ``s0`` is one value or an array of values walked in one pass.  With an
    array every coefficient is an array of its shape, each element holding
    the bits ``eval_s`` gives at that s alone, and the batch raises
    ``DomainError`` exactly when some element alone would.
    """
    s = np.asarray(s0, dtype=float) if np.ndim(s0) else float(s0)
    if not np.size(s):
        return Jet1x4((s,) * 5)
    with np.errstate(all="ignore"):
        out = _walk(expr, {"s": Jet1x4.variable(s)}, Jet1x4)
        if np.ndim(s):
            out = Jet1x4(tuple(x.copy() if isinstance(x, np.ndarray)
                               else np.full(s.shape, x) for x in out.c))
        for d in out.derivatives():
            _check_finite(d, "jet derivative")
    return out


def eval_value(expr: Expr, s: float | None = None, t: float | None = None,
               w: float | None = None) -> float:
    """Plain float evaluation with the given variables bound.

    Runs the jets' walker on plain floats and so returns their value term,
    except that a variable exponent with an integer value is multiplied out.
    Leaving a domain, dividing by zero or overflowing raises ``DomainError``.
    """
    scope = {name: float(x) for name, x in (("s", s), ("t", t), ("w", w))
             if x is not None}
    return _check_finite(_walk(expr, scope, _Plain), "value")
