"""Scalar math expressions in s, t, w with forward-mode Taylor differentiation.

Expressions are parsed by a hand-written precedence-climbing parser into a
small immutable AST and evaluated in one of three modes:

* ``eval_s``   -- truncated Taylor jet in s: value and d/ds derivatives of
  orders 1..4 (``Jet1x4``), exact to machine precision,
* ``eval_tw``  -- second-order jet in (t, w): value and the partials
  t, w, tt, tw, ww (``Jet2x2``),
* ``eval_value`` -- the same walker on plain floats, any of s, t, w bound.

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

def _check_finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise DomainError(f"{what} is not finite")
    return x


@dataclass(frozen=True)
class Jet1x4:
    """Value and d/ds derivatives of orders 1..4 at a point.

    Internally a degree-4 Taylor polynomial: ``c[k]`` is the k-th Taylor
    coefficient (k-th derivative over k!), so multiplication is plain
    coefficient convolution and the Leibniz rule holds by construction.
    """

    c: tuple[float, float, float, float, float]

    @staticmethod
    def constant(x: float) -> "Jet1x4":
        return Jet1x4((float(x), 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def variable(x0: float) -> "Jet1x4":
        return Jet1x4((float(x0), 1.0, 0.0, 0.0, 0.0))

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
        if b[0] == 0.0:
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
            f1 * p3 + f2 * p1 * p2 + (f3 / 6.0) * p1 ** 3,
            f1 * p4 + f2 * (p1 * p3 + p2 * p2 / 2.0)
            + (f3 / 2.0) * p1 * p1 * p2 + (f4 / 24.0) * p1 ** 4,
        ))


@dataclass(frozen=True)
class Jet2x2:
    """Value plus partials t, w, tt, tw, ww at a point of the (t, w) plane.

    The symmetric mixed partial is stored once.
    """

    v: float
    dt: float
    dw: float
    dtt: float
    dtw: float
    dww: float

    @staticmethod
    def constant(x: float) -> "Jet2x2":
        return Jet2x2(float(x), 0.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def variable_t(t0: float) -> "Jet2x2":
        return Jet2x2(float(t0), 1.0, 0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def variable_w(w0: float) -> "Jet2x2":
        return Jet2x2(float(w0), 0.0, 1.0, 0.0, 0.0, 0.0)

    def __add__(self, o: "Jet2x2") -> "Jet2x2":
        return Jet2x2(self.v + o.v, self.dt + o.dt, self.dw + o.dw,
                      self.dtt + o.dtt, self.dtw + o.dtw, self.dww + o.dww)

    def __sub__(self, o: "Jet2x2") -> "Jet2x2":
        return Jet2x2(self.v - o.v, self.dt - o.dt, self.dw - o.dw,
                      self.dtt - o.dtt, self.dtw - o.dtw, self.dww - o.dww)

    def __neg__(self) -> "Jet2x2":
        return Jet2x2(-self.v, -self.dt, -self.dw, -self.dtt, -self.dtw, -self.dww)

    def __mul__(self, o: "Jet2x2") -> "Jet2x2":
        a, b = self, o
        return Jet2x2(
            a.v * b.v,
            a.dt * b.v + a.v * b.dt,
            a.dw * b.v + a.v * b.dw,
            a.dtt * b.v + 2.0 * a.dt * b.dt + a.v * b.dtt,
            a.dtw * b.v + a.dt * b.dw + a.dw * b.dt + a.v * b.dtw,
            a.dww * b.v + 2.0 * a.dw * b.dw + a.v * b.dww,
        )

    def __truediv__(self, o: "Jet2x2") -> "Jet2x2":
        if o.v == 0.0:
            raise DomainError("division by zero")
        inv = o.compose((1.0 / o.v, -1.0 / o.v ** 2, 2.0 / o.v ** 3))
        return self * inv

    def compose(self, f: tuple[float, float, float]) -> "Jet2x2":
        """Apply outer function with derivatives (f, f', f'') at ``self.v``."""
        f0, f1, f2 = f
        return Jet2x2(
            f0,
            f1 * self.dt,
            f1 * self.dw,
            f2 * self.dt * self.dt + f1 * self.dtt,
            f2 * self.dt * self.dw + f1 * self.dtw,
            f2 * self.dw * self.dw + f1 * self.dww,
        )


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


_ORDER = {_Plain: 0, Jet1x4: 4, Jet2x2: 2}
_DERIVS = {"exp": _exp_derivs, "ln": _ln_derivs, "sqrt": _sqrt_derivs,
           **{fn: partial(_trig_derivs, fn)
              for fn in ("sin", "cos", "sinh", "cosh")}}
_RECIPROCALS = {"csc": "sin", "sec": "cos", "csch": "sinh", "sech": "cosh"}


def _value(u, jet_cls) -> float:
    return u if jet_cls is _Plain else u.value if jet_cls is Jet1x4 else u.v


def _apply_fn(fn: str, u, jet_cls):
    """Apply a named function to a float, a Jet1x4 or a Jet2x2."""
    if fn == "tan":
        return _apply_fn("sin", u, jet_cls) / _apply_fn("cos", u, jet_cls)
    if fn in _RECIPROCALS:
        # Domain error at the pole comes from the division.
        return jet_cls.constant(1.0) / _apply_fn(_RECIPROCALS[fn], u, jet_cls)
    if fn not in _DERIVS:
        raise ExprError(f"unhandled function {fn!r}")
    d = _DERIVS[fn](_value(u, jet_cls), _ORDER[jet_cls])
    return d[0] if jet_cls is _Plain else u.compose(d)


def _is_constant_jet(u, jet_cls) -> bool:
    if jet_cls is Jet1x4:
        return all(x == 0.0 for x in u.c[1:])
    return u.dt == u.dw == u.dtt == u.dtw == u.dww == 0.0


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
    # Constant integer exponent: repeated multiplication, valid for any base.
    if jet_cls is _Plain or _is_constant_jet(v, jet_cls):
        e = _value(v, jet_cls)
        if float(e).is_integer() and abs(e) <= 64:
            return _int_pow(u, int(e), jet_cls)
    # General power via exp(v * ln u); requires a positive base.
    return _apply_fn("exp", v * _apply_fn("ln", u, jet_cls), jet_cls)


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


def eval_s(expr: Expr, s0: float) -> Jet1x4:
    """Evaluate an expression in s as a jet with derivatives of orders 1..4."""
    out = _eval_jet(expr, {"s": Jet1x4.variable(s0)}, Jet1x4)
    for d in out.derivatives():
        _check_finite(d, "jet derivative")
    return out


def eval_tw(expr: Expr, t0: float, w0: float) -> Jet2x2:
    """Evaluate an expression in t, w as a second-order jet of partials."""
    out = _eval_jet(expr, {"t": Jet2x2.variable_t(t0),
                           "w": Jet2x2.variable_w(w0)}, Jet2x2)
    for d in (out.v, out.dt, out.dw, out.dtt, out.dtw, out.dww):
        _check_finite(d, "jet partial")
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
    try:
        value = _eval_jet(expr, scope, _Plain)
    except (ZeroDivisionError, OverflowError) as e:
        raise DomainError(str(e)) from None
    return _check_finite(value, "value")
