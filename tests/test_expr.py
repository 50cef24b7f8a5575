"""Parser, printer and jet tests.

The jet checks use an independent oracle: expressions are re-evaluated by a
separate mpmath tree-walker at 60 significant digits and differentiated with
central finite-difference stencils of step 1e-3.  High precision removes the
subtractive cancellation that would otherwise dominate the order-3/4
stencils, so the stated tolerances measure the jets, not the oracle.
"""

import math
import random
import re
import sys

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
    # an overflowing literal would print as "inf", which does not parse back
    with pytest.raises(ex.ParseError, match="bad number literal '1e999'") \
            as err:
        ex.parse("s+1e999")
    assert err.value.offset == 2
    assert ex.parse("1e-999") == ex.Num(0.0)


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


@pytest.mark.parametrize("nested, value", [
    # n - 1 pairs of parentheses: n levels of the parser's rules
    (lambda n: "(" * (n - 1) + "s" + ")" * (n - 1), lambda n: 0.5),
    # n - 1 additions: an AST n levels deep
    (lambda n: "s" + "+s" * (n - 1), lambda n: 0.5 * n),
], ids=["parentheses", "sum"])
def test_parse_nesting_limit(nested, value):
    n = ex.MAX_DEPTH
    tree = ex.parse(nested(n))
    assert ex.eval_s(tree, 0.5).derivatives()[0] == value(n)
    assert ex.parse(ex.to_str(tree)) == tree
    with pytest.raises(ex.ParseError, match=f"deeper than {n} levels"):
        ex.parse(nested(n + 1))
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
    # the 4th derivative of ln(s) at 1e-90 is -6e360, which overflows
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("ln(s)"), 1e-90)


@pytest.mark.parametrize("text, s0, closed", [
    ("ln(s)", 1e80, lambda u: (mpmath.log(u), 1 / u, -1 / u ** 2,
                               2 / u ** 3, -6 / u ** 4)),
    ("sqrt(s)", 1e200, lambda u: (mpmath.sqrt(u), u ** -0.5 / 2,
                                  -u ** -1.5 / 4, 3 * u ** -2.5 / 8,
                                  -15 * u ** -3.5 / 16)),
])
def test_jet_s_is_finite_where_every_derivative_is(text, s0, closed):
    # every derivative is representable, though u^3 or u^4 would overflow;
    # ln's 4th (-6e-320) is subnormal, sqrt's 3rd and 4th underflow to 0
    got = ex.eval_s(ex.parse(text), s0).derivatives()
    want = [float(x) for x in closed(mpmath.mpf(s0))]
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g == pytest.approx(w, rel=1e-15, abs=2e-323), (g, w)


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
        jd = jet.derivatives()[1:]
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
        with pytest.raises(ex.DomainError) as one:
            ex.eval_value(ex.parse(text), t=t0, w=w0)
        # the same point inside a batch of good ones
        with pytest.raises(ex.DomainError) as batch:
            ex.eval_value(ex.parse(text), t=np.array([2.0, t0, 3.0]),
                          w=np.array([2.0, w0, 3.0]))
        assert str(batch.value) == str(one.value), text
    # a zero divisor in one element raises instead of flowing on as inf
    # (here 1/inf would be a finite 0), and the error names that element
    for text in ("1/(t-1)", "1/(1/(t-1))"):
        with pytest.raises(ex.DomainError, match=r"t=1\.0\b"):
            ex.eval_value(ex.parse(text), t=np.array([0.0, 1.0, 2.0]))


def test_eval_value():
    assert ex.eval_value(ex.parse("s+2*t-w"), s=1, t=2, w=3) == 2.0
    # sin/cos never touch sinh/cosh, so they are defined past |u| ~ 710
    assert ex.eval_value(ex.parse("sin(s)"), s=800.0) == math.sin(800.0)
    assert ex.eval_s(ex.parse("cos(s)"), -800.0).derivatives()[0] == \
        math.cos(-800.0)
    with pytest.raises(ex.VariableScopeError):
        ex.eval_value(ex.parse("s"), t=1.0, w=1.0)
    # arrays broadcast, and a constant takes the batch shape
    t, w = np.array([[0.5], [1.0]]), np.array([0.0, 2.0, 3.0])
    zero = ex.eval_value(ex.parse("0"), t=t, w=w)
    assert zero.shape == (2, 3) and not zero.any()
    assert ex.eval_value(ex.parse("t*w"), t=t, w=w).tolist() == \
        (t * w).tolist()


def test_eval_value_is_the_jet_value():
    # eval_value walks degree-0 jets; its result is the value coefficient
    # of the s-jet, bit for bit, the sign of a zero included.
    rng = random.Random(31)
    cases = [(ex.parse(text), s0) for text, s0 in (
        ("-s*2", 0.0), ("s*(0-1)", 0.0), ("-(s*s)*3", -0.0),
        ("-(2*s)^3", 0.0))]
    cases += [(random_ast(rng, rng.randint(0, 5)), rng.uniform(-2.0, 2.0))
              for _ in range(2000)]
    checked = 0
    for ast, s0 in cases:
        try:
            want = ex.eval_s(ast, s0).derivatives()[0]
        except ex.DomainError:
            continue
        assert _bits(ex.eval_value(ast, s=s0)) == _bits(want), \
            (ex.to_str(ast), s0)
        checked += 1
    assert checked >= 1500
    assert _bits(ex.eval_value(ex.parse("-s*2"), s=0.0)) == _bits(0.0)


def test_eval_value_domain_errors():
    for text, s0 in (("1/(s-1)", 1.0), ("csc(s)", 0.0), ("s^(-1)", 0.0),
                     ("sech(s)", 800.0), ("ln(s)", 0.0), ("sqrt(s)", -1.0)):
        with pytest.raises(ex.DomainError):
            ex.eval_value(ex.parse(text), s=s0)


def test_general_power_requires_positive_base():
    with pytest.raises(ex.DomainError):
        ex.eval_s(ex.parse("(-2)^(s+1/2)"), 0.0)
    # but integer exponents of any base and any size multiply out
    assert ex.eval_s(ex.parse("(-2)^3"), 0.0).derivatives()[0] == -8.0
    assert ex.eval_value(ex.parse("(-1)^100")) == 1.0
    assert ex.eval_value(ex.parse("(-2)^65")) == -2.0 ** 65
    jet = ex.eval_s(ex.parse("s^70"), -1.5).derivatives()
    assert jet == pytest.approx([math.perm(70, k) * (-1.5) ** (70 - k)
                                 for k in range(5)], rel=1e-13)
    assert ex.eval_value(ex.parse("0.5^1e300")) == 0.0


def test_fractional_power_jet():
    jet = ex.eval_s(ex.parse("s^(3/2)"), 4.0)
    assert jet.derivatives()[0] == pytest.approx(8.0)
    assert jet.derivatives()[1] == pytest.approx(1.5 * math.sqrt(4.0))


# ---------------------------------------------------------------------------
# Jets over arrays


def _jet_bits(jet, index=None):
    """Coefficient bits of a one-point jet, or of element ``index`` of a
    batch."""
    return [np.float64(c if index is None else c[index]).tobytes()
            for c in jet.c]


def _bits(x):
    """Bits of each element of a value or a batch of values."""
    return [v.tobytes() for v in np.ravel(np.asarray(x, dtype=float))]


def _one_by_one(ast, values):
    """Per-element eval_s: the jets, or None where the element raises."""
    out = []
    for s0 in values:
        try:
            out.append(ex.eval_s(ast, s0))
        except ex.DomainError:
            out.append(None)
    return out


def test_jet_s_power_rule_per_expression():
    # an exponent that reads s takes exp(v ln u) at every element, also
    # where it is an integer: a batch raises exactly when one of its
    # elements raises alone, with that element's error, and elsewhere
    # gives the bits of per-element walks
    for text, values, bad in (
            ("s^(sin(s)^5)", np.linspace(0.0, 0.5, 6).tolist(), [0.0]),
            ("(s+2)^(s-s)", [-2.0, -3.0, 0.5, 1.0], [-2.0, -3.0])):
        ast = ex.parse(text)
        ones = _one_by_one(ast, values)
        assert [x for x, one in zip(values, ones) if one is None] == bad
        good = [x for x in values if x not in bad]
        batch = ex.eval_s(ast, np.array(good))
        for i, x in enumerate(good):
            assert _jet_bits(batch, i) == _jet_bits(ex.eval_s(ast, x))
        for x in bad:
            with pytest.raises(ex.DomainError) as one:
                ex.eval_s(ast, x)
            with pytest.raises(ex.DomainError) as batch:
                ex.eval_s(ast, np.array(good + [x]))
            assert str(batch.value) == str(one.value), (text, x)
    with pytest.raises(ex.DomainError, match="ln of non-positive value 0.0"):
        ex.eval_s(ex.parse("s^(sin(s)^5)"), 0.0)
    # libm gives every element the bits of the scalar call, negative and
    # subnormal bases included, and raises as the scalar call raises
    x = np.array([[-2.5, -1e-310, 5e-324], [-0.0, 3.0, 1e100]])
    cubes = ex.libm(pow, x, 3)
    assert cubes.shape == x.shape
    assert _bits(cubes) == _bits([pow(v, 3) for v in x.ravel().tolist()])
    with pytest.raises(OverflowError):
        ex.libm(pow, np.array([1.0, 1e103]), 3)
    # values take the same rule
    ast = ex.parse("t^(sin(t)^5)")
    batch = ex.eval_value(ast, t=np.array([0.25, 0.5]))
    assert _bits(batch) == [_bits(ex.eval_value(ast, t=t0))[0]
                            for t0 in (0.25, 0.5)]
    with pytest.raises(ex.DomainError) as one:
        ex.eval_value(ast, t=0.0)
    with pytest.raises(ex.DomainError) as batch:
        ex.eval_value(ast, t=np.array([0.5, 0.0]))
    assert str(batch.value) == str(one.value)


def test_constant_real_powers_follow_the_exact_derivatives():
    # u^a by the recurrence of u f' = a f u' from the value pow(u, a),
    # rounded once: orders 0..4 of s^a within 2e-15 of
    # a (a-1) ... (a-k+1) s^(a-k) wherever that is a normal float, bases up
    # to 1e250 included, where exp(a ln s) loses the small derivatives and
    # their signs (and, as a value term, about log2 |a ln s| bits)
    rng = random.Random(29)
    checked = 0
    for _ in range(3600):
        a = round(rng.uniform(-3.0, 3.0), 6)
        s0 = 10.0 ** rng.uniform(-6.0, 250.0)
        if a.is_integer():
            continue
        try:
            got = ex.eval_s(ex.Bin("^", ex.Var("s"), ex.Num(a)),
                            s0).derivatives()
        except ex.DomainError:  # s^a overflows
            continue
        for k in range(5):
            want = float(math.prod(mpmath.mpf(a) - i for i in range(k))
                         * mpmath.mpf(s0) ** (mpmath.mpf(a) - k))
            if abs(want) < sys.float_info.min or math.isinf(want):
                continue
            assert abs(got[k] - want) <= 2e-15 * abs(want), (a, s0, k)
            checked += 1
    assert checked >= 9500
    # the same derivatives as sqrt(s), the signs of the small ones included
    got = ex.eval_s(ex.parse("s^0.5"), 1e200).derivatives()
    want = ex.eval_s(ex.parse("sqrt(s)"), 1e200).derivatives()
    assert got[2] < 0.0 and got == pytest.approx(want, rel=1e-13)


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
        # the same in the value mode, over t beside a scalar w
        tw = ex.parse(re.sub(r"\bs\b", "t", text))
        with pytest.raises(ex.DomainError) as one:
            ex.eval_value(tw, t=bad, w=0.0)
        with pytest.raises(ex.DomainError) as batch:
            ex.eval_value(tw, t=np.array(good + [bad]), w=0.0)
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
    # values over t, w arrays beside a scalar s: one walk, the same bits
    exponent = ex.parse("sin(t)^5")
    checked = raised = 0
    for _ in range(1000):
        ast = random_ast(rng, rng.randint(0, 5), vars_=("s", "t", "w"))
        wrap = rng.choice(["", "", "ln", "pow"])
        if wrap == "ln":
            ast = ex.Call("ln", ast)
        elif wrap == "pow":
            ast = ex.Bin("^", ast, exponent)
        s0 = rng.uniform(-2.0, 2.0)
        t, w = ([rng.uniform(-2.0, 2.0) for _ in range(3)] + [0.0]
                for _ in range(2))
        try:
            ones = [_bits(ex.eval_value(ast, s=s0, t=a, w=b))
                    for a, b in zip(t, w)]
        except ex.DomainError:
            with pytest.raises(ex.DomainError):
                ex.eval_value(ast, s=s0, t=np.array(t), w=np.array(w))
            raised += 1
            continue
        batch = ex.eval_value(ast, s=s0, t=np.array(t), w=np.array(w))
        assert _bits(batch) == [b for one in ones for b in one], \
            ex.to_str(ast)
        checked += 1
    assert checked >= 600 and raised >= 100
