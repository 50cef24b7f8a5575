"""Parser, printer and jet tests.

The jet checks use an independent oracle: expressions are re-evaluated by a
separate mpmath tree-walker at 60 significant digits and differentiated with
central finite-difference stencils of step 1e-3.  High precision removes the
subtractive cancellation that would otherwise dominate the order-3/4
stencils, so the stated tolerances measure the jets, not the oracle.
"""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcanal import expr as ex

mpmath.mp.dps = 60


# ---------------------------------------------------------------------------
# Parsing


def test_parse_power():
    ast = ex.parse("s^2")
    assert ast == ex.Bin("^", ex.Var("s"), ex.Num(2.0))


def test_parse_example_curve_component():
    ast = ex.parse("cosh(2*s)/(2*sqrt(2))")
    assert isinstance(ast, ex.Bin) and ast.op == "/"
    assert ast.left == ex.Call("cosh", ex.Bin("*", ex.Num(2.0), ex.Var("s")))


def test_parse_error_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("sin(")
    assert err.value.offset == 4


def test_parse_unknown_identifier():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("foo(2)")
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("s + q")


def test_parse_empty():
    with pytest.raises(ex.ParseError):
        ex.parse("   ")


def test_parse_trailing_garbage():
    with pytest.raises(ex.ParseError):
        ex.parse("1 2")
    with pytest.raises(ex.ParseError):
        ex.parse("(1+2))")


def test_precedence_and_associativity():
    # ^ right-assoc and tighter than unary minus; * tighter than +.
    assert ex.parse("2^3^2") == ex.Bin(
        "^", ex.Num(2.0), ex.Bin("^", ex.Num(3.0), ex.Num(2.0)))
    assert ex.parse("-s^2") == ex.Neg(ex.Bin("^", ex.Var("s"), ex.Num(2.0)))
    assert ex.parse("1+2*3") == ex.Bin(
        "+", ex.Num(1.0), ex.Bin("*", ex.Num(2.0), ex.Num(3.0)))
    assert ex.parse("1-2-3") == ex.Bin(
        "-", ex.Bin("-", ex.Num(1.0), ex.Num(2.0)), ex.Num(3.0))


def test_constants():
    assert ex.eval_value(ex.parse("pi")) == pytest.approx(math.pi)
    assert ex.eval_value(ex.parse("e")) == pytest.approx(math.e)


# Random AST generator shared by the round-trip and jet tests.

def random_ast(rng, depth, vars_=("s",)):
    # Only parse-image ASTs: number literals are nonnegative (the tokenizer
    # always reads "-x" as Neg(Num(x))).
    leaf_kinds = ["num", "var", "var", "const"]
    if depth == 0:
        kind = rng.choice(leaf_kinds)
        if kind == "num":
            return ex.Num(round(rng.uniform(0, 2), 3))
        if kind == "const":
            return ex.Const(rng.choice(["pi", "e"]))
        return ex.Var(rng.choice(vars_))
    kind = rng.choice(["bin", "bin", "neg", "call", "pow"])
    if kind == "neg":
        return ex.Neg(random_ast(rng, depth - 1, vars_))
    if kind == "call":
        # Keep arguments bounded so values and derivatives stay moderate.
        fn = rng.choice(["sin", "cos", "sinh", "cosh", "exp"])
        arg = ex.Bin("*", ex.Num(round(rng.uniform(0.01, 0.5), 3)),
                     random_ast(rng, depth - 1, vars_))
        return ex.Call(fn, arg)
    if kind == "pow":
        return ex.Bin("^", random_ast(rng, depth - 1, vars_),
                      ex.Num(float(rng.randint(0, 3))))
    op = rng.choice(["+", "-", "*", "/"])
    left = random_ast(rng, depth - 1, vars_)
    right = random_ast(rng, depth - 1, vars_)
    if op == "/":
        # Keep denominators away from zero: 2 + v^2.
        right = ex.Bin("+", ex.Num(2.0), ex.Bin("*", right, right))
    return ex.Bin(op, left, right)


def test_print_parse_round_trip_on_random_asts():
    rng = random.Random(123)
    for _ in range(400):
        ast = random_ast(rng, rng.randint(0, 4))
        assert ex.parse(ex.to_str(ast)) == ast


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip_property(seed):
    rng = random.Random(seed)
    ast = random_ast(rng, rng.randint(0, 5))
    assert ex.parse(ex.to_str(ast)) == ast


# ---------------------------------------------------------------------------
# Jets in s


def test_jet_s_polynomial():
    jet = ex.eval_s(ex.parse("s^2"), 3.0)
    assert jet.derivatives() == (9.0, 6.0, 2.0, 0.0, 0.0)


def test_jet_s_cosh():
    jet = ex.eval_s(ex.parse("cosh(2*s)"), 0.0)
    assert jet.derivatives() == pytest.approx((1.0, 0.0, 4.0, 0.0, 16.0))


def test_jet_s_domain_error():
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("1/s"), 0.0)
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("ln(s)"), -1.0)
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("csc(s)"), 0.0)
    # hyperbolic overflow is a domain error, not a bare OverflowError
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("sinh(s)"), 800.0)
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("cosh(s)"), -800.0)
    # order-4 derivative terms: u^4 underflows to 0, u^3 overflows
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("ln(s)"), 1e-90)
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("sqrt(s)"), 1e200)


def test_jet_s_rejects_other_variables():
    with pytest.raises(ex.VariableScopeError):
        ex.eval_s(ex.parse("t+1"), 0.0)


def _mp_eval(ast, scope):
    if isinstance(ast, ex.Num):
        return mpmath.mpf(ast.value)
    if isinstance(ast, ex.Const):
        return mpmath.pi if ast.name == "pi" else mpmath.e
    if isinstance(ast, ex.Var):
        return scope[ast.name]
    if isinstance(ast, ex.Neg):
        return -_mp_eval(ast.arg, scope)
    if isinstance(ast, ex.Call):
        fn = {"sin": mpmath.sin, "cos": mpmath.cos, "sinh": mpmath.sinh,
              "cosh": mpmath.cosh, "tan": mpmath.tan, "exp": mpmath.exp,
              "ln": mpmath.log, "sqrt": mpmath.sqrt,
              "csc": mpmath.csc, "sec": mpmath.sec,
              "csch": mpmath.csch, "sech": mpmath.sech}[ast.fn]
        return fn(_mp_eval(ast.arg, scope))
    if isinstance(ast, ex.Bin):
        a, b = _mp_eval(ast.left, scope), _mp_eval(ast.right, scope)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            return a / b
        return a ** b
    raise TypeError(ast)


def _mp_fd_stencil(ast, s0, h):
    f = [_mp_eval(ast, {"s": mpmath.mpf(s0) + k * mpmath.mpf(h)})
         for k in (-2, -1, 0, 1, 2)]
    d1 = (f[3] - f[1]) / (2 * mpmath.mpf(h))
    d2 = (f[3] - 2 * f[2] + f[1]) / mpmath.mpf(h) ** 2
    d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * mpmath.mpf(h) ** 3)
    d4 = (f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / mpmath.mpf(h) ** 4
    return (d1, d2, d3, d4)


def _mp_fd_derivatives(ast, s0, h):
    """Central finite differences of orders 1..4 at base step h, Richardson
    extrapolated with the half step to cancel the O(h^2) truncation term."""
    coarse = _mp_fd_stencil(ast, s0, h)
    fine = _mp_fd_stencil(ast, s0, h / 2)
    return [float((4 * f - c) / 3) for c, f in zip(coarse, fine)]


def test_jet_s_matches_finite_differences_on_random_expressions():
    rng = random.Random(2024)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 5000:
        attempts += 1
        ast = random_ast(rng, rng.randint(1, 4))
        s0 = rng.uniform(-1.5, 1.5)
        try:
            jet = ex.eval_s(ast, s0)
        except ex.DomainError:
            continue
        fd = _mp_fd_derivatives(ast, s0, 1e-3)
        jd = [jet.d1, jet.d2, jet.d3, jet.d4]
        scale = max(1.0, *(abs(x) for x in jd))
        for order in range(4):
            rel = 1e-6 if order < 2 else 1e-4
            assert abs(jd[order] - fd[order]) <= rel * max(scale, abs(fd[order])), (
                f"order {order + 1} mismatch for {ex.to_str(ast)} at s={s0}: "
                f"jet={jd[order]}, fd={fd[order]}")
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# Plain values in (t, w)


def test_eval_value_tw_matches_mpmath():
    # shape functions f(t, w), g(t, w) are evaluated on plain floats only
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        ast = random_ast(rng, rng.randint(1, 3), vars_=("t", "w"))
        t0, w0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        try:
            got = ex.eval_value(ast, t=t0, w=w0)
        except ex.DomainError:
            continue
        want = float(_mp_eval(ast, {"t": mpmath.mpf(t0), "w": mpmath.mpf(w0)}))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), ex.to_str(ast)
        checked += 1
    assert checked >= 150


def test_eval_value_tw_domain_errors():
    for text, t0, w0 in (("1/t", 0.0, 1.0), ("ln(t)", -1.0, 0.0),
                         ("sqrt(w)", 0.0, -1.0), ("csc(w)", 1.0, 0.0)):
        with pytest.raises(ex.DomainError):
            ex.eval_value(ex.parse(text), t=t0, w=w0)


def test_eval_value():
    assert ex.eval_value(ex.parse("s+2*t-w"), s=1, t=2, w=3) == 2.0
    # sin/cos never touch sinh/cosh, so they are defined past |u| ~ 710
    assert ex.eval_value(ex.parse("sin(s)"), s=800.0) == math.sin(800.0)
    assert ex.eval_s(ex.parse("cos(s)"), -800.0).value == math.cos(-800.0)
    with pytest.raises(ex.VariableScopeError):
        ex.eval_value(ex.parse("s"), t=1.0, w=1.0)


def test_eval_value_is_the_jet_value():
    # eval_value walks plain floats; its result is the value coefficient
    # of the s-jet, bit for bit.
    rng = random.Random(31)
    checked = 0
    for _ in range(2000):
        ast = random_ast(rng, rng.randint(0, 5))
        s0 = rng.uniform(-2.0, 2.0)
        try:
            want = ex.eval_s(ast, s0).value
        except ex.DomainError:
            continue
        assert ex.eval_value(ast, s=s0) == want, (ex.to_str(ast), s0)
        checked += 1
    assert checked >= 1500


def test_eval_value_domain_errors():
    for text, s0 in (("1/(s-1)", 1.0), ("csc(s)", 0.0), ("s^(-1)", 0.0),
                     ("sech(s)", 800.0), ("ln(s)", 0.0), ("sqrt(s)", -1.0)):
        with pytest.raises(ex.DomainError):
            ex.eval_value(ex.parse(text), s=s0)


def test_general_power_requires_positive_base():
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("(-2)^(s+1/2)"), 0.0)
    # but integer exponents of negative bases are fine
    assert ex.eval_s(ex.parse("(-2)^3"), 0.0).value == -8.0


def test_fractional_power_jet():
    jet = ex.eval_s(ex.parse("s^(3/2)"), 4.0)
    assert jet.value == pytest.approx(8.0)
    assert jet.d1 == pytest.approx(1.5 * math.sqrt(4.0))


# ---------------------------------------------------------------------------
# Jets over arrays


def _jet_bits(jet, index=None):
    """Coefficient bits of a one-point jet, or of element ``index`` of a
    batch."""
    return [np.float64(c if index is None else c[index]).tobytes()
            for c in jet.c]


def _one_by_one(ast, values):
    """Per-element eval_s: the jets, or None where the element raises."""
    out = []
    for s0 in values:
        try:
            out.append(ex.eval_s(ast, s0))
        except ex.DomainError:
            out.append(None)
    return out


def test_jet_s_power_branch_per_element():
    # at s = 0 the exponent jet of sin(s)^5 is the constant 0, so the
    # integer branch gives 1; elsewhere exp(v ln u) takes over
    s = np.linspace(0.0, 0.5, 6)
    for text, values in (("s^(sin(s)^5)", s),
                         ("(s+2)^(s-s)", np.array([-2.0, -3.0, 0.5, 1.0]))):
        ast = ex.parse(text)
        batch = ex.eval_s(ast, values)
        for i, one in enumerate(_one_by_one(ast, values.tolist())):
            assert _jet_bits(batch, i) == _jet_bits(one), (text, values[i])
    assert ex.eval_s(ex.parse("s^(sin(s)^5)"), 0.0).derivatives() == \
        (1.0, 0.0, 0.0, 0.0, 0.0)


def test_jet_s_batch_raises_iff_an_element_raises():
    ast = ex.parse("ln(s)")
    with pytest.raises(ex.DomainError):
        ex.eval_s(ast, np.array([1.0, -1.0]))
    ex.eval_s(ast, np.array([1.0, 2.0]))
    for text, good, bad in (("1/s", [1.0, 2.0], 0.0),
                            ("sqrt(s)", [1.0, 4.0], -1.0),
                            ("csc(s)", [1.0, 2.0], 0.0),
                            ("sinh(s)", [1.0, -3.0], 800.0),
                            ("(s-1)^(-2)", [2.0, 3.0], 1.0),
                            ("s^(1/2)", [1.0, 4.0], -4.0)):
        ex.eval_s(ex.parse(text), np.array(good))
        with pytest.raises(ex.DomainError) as one:
            ex.eval_s(ex.parse(text), bad)
        # one bad element: the batch fails as that element fails alone
        with pytest.raises(ex.DomainError) as batch:
            ex.eval_s(ex.parse(text), np.array(good + [bad]))
        assert str(batch.value) == str(one.value), text


def test_jet_s_arrays_match_per_element_walks():
    # a batch gives every element the bits of a walk at that element alone,
    # and raises exactly when some element alone does
    rng = random.Random(47)
    # sin(s)^5 is the constant-integer exponent 0 at s = 0 only
    exponent = ex.parse("sin(s)^5")
    checked = raised = 0
    for _ in range(2000):
        ast = random_ast(rng, rng.randint(0, 5))
        wrap = rng.choice(["", "", "ln", "pow"])
        if wrap == "ln":
            ast = ex.Call("ln", ast)
        elif wrap == "pow":
            ast = ex.Bin("^", ast, exponent)
        values = [rng.uniform(-2.0, 2.0) for _ in range(3)] + [0.0]
        ones = _one_by_one(ast, values)
        if any(one is None for one in ones):
            with pytest.raises(ex.DomainError):
                ex.eval_s(ast, np.array(values))
            raised += 1
            continue
        batch = ex.eval_s(ast, np.array(values))
        for i, one in enumerate(ones):
            assert _jet_bits(batch, i) == _jet_bits(one), (ex.to_str(ast), i)
        checked += 1
    assert checked >= 1200 and raised >= 200
