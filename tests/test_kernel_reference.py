"""The oracle's cross product, fundamental forms and curvatures, and the
s-jet's product, quotient and functions, against reference copies of the
implementations they replaced.

The references stack each row triple into an (N, 3, 4) array, sort it with
``np.lexsort`` and assemble g, h and adj(g) as full 3 x 3 matrices.  The
kernel computes the same products, in the same order, from the distinct
entries of component-major rows, so every output must keep its bits: on
the grid-stencil jets of every bundled scene, and on random rows with
ties, repeated rows, signed zeros and infinities.

The jet functions were a degree-4 derivative table per function composed
by the Faa di Bruno formula; they are Taylor-mode recurrences now.  The
value terms keep their bits (a real constant power's value is libm's pow
on both sides) and the derivatives of orders 1..4 agree to rounding, on
random expressions over every function and power and on the curve and
radius jets of every bundled scene.

The closed-form curvatures were four expanded canal numerators and
denominators and a separate tubular pair; they are one formula over the
shared denominator D now.  Away from D = 0 both agree to rounding on
seeded inputs of all eighteen closed-form families.
"""

import math
import random
import re
import warnings

import numpy as np
import pytest

from lmcanal import canal, oracle
from lmcanal.canal import CanalFamily, Variant, field_points
from lmcanal.curves import CurveClass, builtin, derive_frames
from lmcanal import expr as ex
from lmcanal.expr import Jet
from lmcanal.minkowski import inner_rows, triple_cross_rows
from lmcanal.scene import bundled_scene, bundled_scene_names
from lmcanal.verify import scene_tables

# ---------------------------------------------------------------------------
# References


def reference_triple_cross_rows(u, v, w):
    args = np.stack([u, v, w], axis=1)                    # (N, 3, 4)
    index = np.broadcast_to(np.arange(3), args.shape[:2])
    order = np.lexsort((index,) + tuple(args[:, :, k] for k in (3, 2, 1, 0)),
                       axis=-1)
    a_, b_, c_ = np.take_along_axis(args, order[:, :, None], axis=1) \
        .transpose(1, 0, 2)
    inversions = ((order[:, 0] > order[:, 1]).astype(int)
                  + (order[:, 0] > order[:, 2]) + (order[:, 1] > order[:, 2]))
    sign = np.where(inversions % 2 == 0, 1.0, -1.0)
    repeated = np.all(a_ == b_, axis=1) | np.all(b_ == c_, axis=1)

    def minor(columns):
        a, b, c = ([row[:, k] for k in columns] for row in (a_, b_, c_))
        return a[0] * (b[1] * c[2] - b[2] * c[1]) \
            - a[1] * (b[0] * c[2] - b[2] * c[0]) \
            + a[2] * (b[0] * c[1] - b[1] * c[0])

    m1, m2, m3, m4 = (minor(columns) for columns in
                      ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))
    out = np.stack([sign * -m1, sign * -m2, sign * m3, sign * -m4], axis=1)
    return np.where(repeated[:, None], 0.0, out)


def reference_det3(m):
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2]
                            - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2]
                              - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1]
                              - m[..., 1, 1] * m[..., 2, 0]))


def reference_adjugate3(m):
    def e(i, j):
        return m[..., i, j]
    return np.stack([
        np.stack([e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1),
                  e(0, 2) * e(2, 1) - e(0, 1) * e(2, 2),
                  e(0, 1) * e(1, 2) - e(0, 2) * e(1, 1)], axis=-1),
        np.stack([e(1, 2) * e(2, 0) - e(1, 0) * e(2, 2),
                  e(0, 0) * e(2, 2) - e(0, 2) * e(2, 0),
                  e(0, 2) * e(1, 0) - e(0, 0) * e(1, 2)], axis=-1),
        np.stack([e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0),
                  e(0, 1) * e(2, 0) - e(0, 0) * e(2, 1),
                  e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0)], axis=-1),
    ], axis=-2)


SECOND = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def reference_forms_batch(jet):
    tangents = (jet.d_s, jet.d_t, jet.d_w)
    with np.errstate(all="ignore"):
        raw = reference_triple_cross_rows(*tangents)
        q = np.abs(inner_rows(raw, raw))
        longest = np.max([np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]
                                  + v[:, 2] * v[:, 2] + v[:, 3] * v[:, 3])
                          for v in tangents], axis=0)
        scale = np.fmax(1.0, longest * longest * longest)
        length = np.sqrt(q)
        degenerate = length <= oracle.DEGENERATE_TOL * scale
        normal = raw / length[:, None]
        eps = np.sign(inner_rows(normal, normal))
        first = np.stack(tangents, axis=1)
        g = inner_rows(first[:, :, None], first[:, None])
        second = np.stack([jet.d_ss, jet.d_st, jet.d_sw, jet.d_tt,
                           jet.d_tw, jet.d_ww], axis=1)
        h = inner_rows(second, normal[:, None])[:, SECOND]
        detg, deth = reference_det3(g), reference_det3(h)
    return oracle.FundamentalForms(g=g, h=h, detg=detg, deth=deth,
                                   normal=normal, eps=eps), degenerate


def reference_curvatures_batch(forms):
    g, h = forms.g, forms.h
    with np.errstate(all="ignore"):
        largest = np.fmax(1.0, np.max(np.abs(g), axis=(-2, -1)))
        singular = (np.abs(forms.detg)
                    <= oracle.METRIC_DET_TOL * largest * largest * largest)
        K = forms.eps * forms.deth / forms.detg
        adj = reference_adjugate3(g)
        tr = 0.0
        for i in range(3):
            for k in range(3):
                tr = tr + adj[..., i, k] * h[..., k, i]
        H = tr / forms.detg / (3.0 * forms.eps)
    return K, H, singular


def reference_jet_mul(a, b):
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1))
                 for k in range(5))


def reference_jet_div(a, b):
    q = [0.0] * 5
    for k in range(5):
        q[k] = (a[k] - sum(q[i] * b[k - i] for i in range(k))) / b[0]
    return tuple(q)


def reference_ln_derivs(u):
    return (ex.libm(math.log, u), 1.0 / u, -1.0 / ex.libm(pow, u, 2),
            2.0 / ex.libm(pow, u, 3), -6.0 / ex.libm(pow, u, 4))


def reference_sqrt_derivs(u):
    r = ex.libm(math.sqrt, u)
    return (r, 0.5 / r, -0.25 / (u * r), 0.375 / (u * u * r),
            -0.9375 / (ex.libm(pow, u, 3) * r))


def reference_exp_derivs(u):
    return (ex.libm(math.exp, u),) * 5


def reference_trig_derivs(fn, u):
    own, mate = {"sin": (math.sin, math.cos), "cos": (math.cos, math.sin),
                 "sinh": (math.sinh, math.cosh),
                 "cosh": (math.cosh, math.sinh)}[fn]
    a, b = ex.libm(own, u), ex.libm(mate, u)
    if fn == "sin":
        return (a, b, -a, -b, a)
    if fn == "cos":
        return (a, -b, -a, b, a)
    return (a, b, a, b, a)


REFERENCE_DERIVS = {"exp": reference_exp_derivs, "ln": reference_ln_derivs,
                    "sqrt": reference_sqrt_derivs,
                    **{fn: (lambda u, fn=fn: reference_trig_derivs(fn, u))
                       for fn in ("sin", "cos", "sinh", "cosh")}}


def reference_compose(p, f):
    """The degree-4 Taylor coefficients of f(u) from the derivatives f of
    the outer function at u's value and u's coefficients p."""
    f0, f1, f2, f3, f4 = f
    _, p1, p2, p3, p4 = p
    return (f0,
            f1 * p1,
            f1 * p2 + (f2 / 2.0) * p1 * p1,
            f1 * p3 + f2 * p1 * p2 + (f3 / 6.0) * ex.libm(pow, p1, 3),
            f1 * p4 + f2 * (p1 * p3 + p2 * p2 / 2.0)
            + (f3 / 2.0) * p1 * p1 * p2 + (f4 / 24.0) * ex.libm(pow, p1, 4))


def reference_apply(fn, u):
    if fn == "tan":
        return reference_apply("sin", u) / reference_apply("cos", u)
    if fn in ("csc", "sec", "csch", "sech"):
        mate = {"csc": "sin", "sec": "cos", "csch": "sinh", "sech": "cosh"}
        return Jet((1.0, 0.0, 0.0, 0.0, 0.0)) / reference_apply(mate[fn], u)
    return Jet(reference_compose(u.c, REFERENCE_DERIVS[fn](u.c[0])))


def reference_eval_s(tree, s):
    """The degree-4 s-jet with the reference functions; arithmetic and
    integer powers are ``Jet``'s, whose bits are checked above, and any
    other constant power a is exp(a ln u) with the value u^a."""
    if isinstance(tree, (ex.Num, ex.Const)):
        value = (tree.value if isinstance(tree, ex.Num)
                 else ex.CONSTANTS[tree.name])
        return Jet((value, 0.0, 0.0, 0.0, 0.0))
    if isinstance(tree, ex.Var):
        return Jet((s, 1.0, 0.0, 0.0, 0.0))
    if isinstance(tree, ex.Neg):
        return -reference_eval_s(tree.arg, s)
    if isinstance(tree, ex.Call):
        return reference_apply(tree.fn, reference_eval_s(tree.arg, s))
    a, b = reference_eval_s(tree.left, s), reference_eval_s(tree.right, s)
    if tree.op == "^":
        assert not any(b.c[1:]), ex.to_str(tree)
        if b.c[0].is_integer():
            return a ** b.c[0]
        # exp's table at a ln u, every derivative being the value u^a
        v = b * reference_apply("ln", a)
        return Jet(reference_compose(
            v.c, (ex.libm(math.pow, a.c[0], b.c[0]),) * 5))
    return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__,
            "/": a.__truediv__}[tree.op](b)


def reference_closed(family, k1, r, r1, r2, T, G):
    """K and H before sigma from the expanded forms: the canal numerators
    and denominators, and the tubular pair."""
    if family.variant.is_tubular:
        return (k1 / (r * r * (G / T - r * k1)),
                1.0 / (-r + r * G / (-2.0 * G + 3.0 * r * k1 * T)))
    row = canal._CLOSED_FORMS[family.variant]
    m = row.m0 + row.mq * (r1 * r1)
    sm = np.sqrt(m)
    q2 = row.e2 * r2
    a = m - r * q2
    b = m - 2.0 * r * q2
    c = 2.0 * m - 3.0 * r * q2
    num_k = -r * m * k1 * k1 * T * T + q2 * a * G * G + sm * b * k1 * G * T
    den_k = r * r * np.square(r * sm * k1 * T - a * G)
    num_h = (r * m * sm * k1 * G * T + 3.0 * r * r * m * k1 * k1 * T * T
             - a * c * G * G)
    den_h = 3.0 * (-r * r * r * m * k1 * k1 * T * T + r * a * a * G * G)
    return num_k / den_k, num_h / den_h


# ---------------------------------------------------------------------------
# Inputs


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert np.array_equal(got, want, equal_nan=True), what
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want)), what


def random_rows(rng, n):
    """(n, 4) rows of magnitudes 1e-3 to 1e3 of either sign, a fifth of
    the components replaced by +-0, +-1 or +-inf."""
    rows = rng.choice([-1.0, 1.0], (n, 4)) * 10.0 ** rng.uniform(-3, 3, (n, 4))
    special = rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], (n, 4))
    return np.where(rng.random((n, 4)) < 0.2, special, rows)


def random_triples(seed, n=6000):
    """Row triples (u, v, w) in which v shares the first k components of u
    and w the first k' of v (k, k' = 0..4, 4 repeating the row), shared
    zeros with either sign, in a random argument order per row."""
    rng = np.random.default_rng(seed)
    rows = [random_rows(rng, n) for _ in range(3)]
    column = np.arange(4)
    for i in (1, 2):
        shared = column < rng.integers(0, 5, (n, 1))
        flip = (rows[i - 1] == 0.0) & (rng.random((n, 4)) < 0.5)
        prefix = np.where(flip, -rows[i - 1], rows[i - 1])
        rows[i] = np.where(shared, prefix, rows[i])
    rows = np.stack(rows, axis=1)
    order = rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1)
    rows = np.take_along_axis(rows, order[:, :, None], axis=1)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def random_jet(seed, n=3000):
    """A SurfaceJet of random rows: tangent triples as in
    ``random_triples``, second partials and points as ``random_rows``."""
    rng = np.random.default_rng(seed)
    rows = [random_rows(rng, n) for _ in range(7)]
    return oracle.SurfaceJet(rows[0], *random_triples(seed + 1, n), *rows[1:])


def random_tree(rng, depth):
    """An expression in s over every function and over integer and real
    constant powers, with arguments scaled down and the arguments of ln
    and sqrt and the bases of real powers kept positive."""
    if depth == 0:
        kind = rng.choice(["num", "var", "var", "const"])
        if kind == "num":
            return ex.Num(round(rng.uniform(0, 2), 3))
        if kind == "const":
            return ex.Const(rng.choice(["pi", "e"]))
        return ex.Var("s")
    kind = rng.choice(["bin", "bin", "neg", "call", "call", "pow"])
    if kind == "neg":
        return ex.Neg(random_tree(rng, depth - 1))
    if kind == "call":
        fn = rng.choice(ex.FUNCTIONS)
        arg = ex.Bin("*", ex.Num(round(rng.uniform(0.01, 0.5), 3)),
                     random_tree(rng, depth - 1))
        if fn in ("ln", "sqrt"):
            arg = ex.Bin("+", ex.Num(round(rng.uniform(0.01, 1.0), 3)),
                         ex.Bin("*", arg, arg))
        return ex.Call(fn, arg)
    if kind == "pow":
        base = random_tree(rng, depth - 1)
        if rng.random() < 0.5:
            return ex.Bin("^", base, ex.Num(float(rng.randint(0, 3))))
        base = ex.Bin("+", ex.Num(round(rng.uniform(0.01, 1.0), 3)),
                      ex.Bin("*", base, base))
        return ex.Bin("^", base, ex.Num(round(rng.uniform(0.05, 2.95), 2)))
    op = rng.choice(["+", "-", "*", "/"])
    left, right = random_tree(rng, depth - 1), random_tree(rng, depth - 1)
    if op == "/":
        right = ex.Bin("+", ex.Num(2.0), ex.Bin("*", right, right))
    return ex.Bin(op, left, right)


def scene_jet(name):
    """The oracle's jets on a bundled scene's grid, as ``grid_table``
    builds them."""
    tables = scene_tables(bundled_scene(name))
    points = field_points(tables.field_tables, *tables.grid)
    with np.errstate(all="ignore"):
        return oracle.stencil_jets(points, tables.step)


def assert_kernel_matches_reference(jet):
    forms, degenerate = oracle.forms_batch(jet)
    want_forms, want_degenerate = reference_forms_batch(jet)
    assert_same_bits(degenerate, want_degenerate, "degenerate")
    for name in ("normal", "eps", "g", "h", "detg", "deth"):
        assert_same_bits(getattr(forms, name), getattr(want_forms, name), name)
    for name, got, want in zip(("K", "H", "singular"),
                               oracle.curvatures_batch(forms),
                               reference_curvatures_batch(want_forms)):
        assert_same_bits(got, want, name)


# ---------------------------------------------------------------------------
# Bit identity


@pytest.mark.parametrize("name", bundled_scene_names())
def test_forms_and_curvatures_keep_their_bits_on_scene_jets(name):
    assert_kernel_matches_reference(scene_jet(name))


def test_forms_and_curvatures_keep_their_bits_on_random_rows():
    jet = random_jet(2718)
    assert np.isinf(jet.d_s).any() and (jet.d_t == 0.0).any()
    assert_kernel_matches_reference(jet)


def test_triple_cross_rows_keeps_its_bits_on_random_rows():
    u, v, w = random_triples(3141)
    repeated = (np.all(u == v, axis=1) | np.all(v == w, axis=1)
                | np.all(u == w, axis=1))
    assert 300 < np.count_nonzero(repeated) < len(u) // 2
    with np.errstate(all="ignore"):
        want = reference_triple_cross_rows(u, v, w)
    assert np.isnan(want).any() and np.isinf(want).any()
    assert_same_bits(triple_cross_rows(u, v, w), want, "cross")
    # the same bits from row-major and component-major rows
    u, v, w = (np.asfortranarray(x) for x in (u, v, w))
    assert_same_bits(triple_cross_rows(u, v, w), want, "cross")


def test_an_infinite_component_warns_nothing_and_keeps_its_bits():
    u, v, w = [[1.0, np.inf, 2.0, 3.0]], [[0.5, 0.0, 1.0, 0.0]], \
        [[0.2, 0.3, 0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = triple_cross_rows(u, v, w)
    with np.errstate(all="ignore"):
        want = reference_triple_cross_rows(*map(np.array, (u, v, w)))
    assert_same_bits(got, want, "cross")


def test_a_nan_anywhere_in_a_row_triple_gives_a_nan_row():
    # row p holds one NaN, at argument p // 4 and component p % 4; rows
    # 12.. are clean and keep the bits they have without the NaN rows
    rng = np.random.default_rng(5)
    clean = rng.uniform(-2.0, 2.0, (3, 24, 4))
    args = clean.copy()
    for p in range(12):
        args[p // 4, p, p % 4] = np.nan
    got = triple_cross_rows(*args)
    assert np.isnan(got[:12]).all()
    assert_same_bits(got[12:], triple_cross_rows(*clean)[12:], "clean rows")
    assert_same_bits(got[12:], reference_triple_cross_rows(*clean)[12:],
                     "clean rows")
    # the sort used to decide which components of the row came out NaN
    assert np.isnan(triple_cross_rows([[np.nan, 1.0, 2.0, 3.0]],
                                      [[0.5, 0.0, 1.0, 0.0]],
                                      [[0.2, 0.3, 0.0, 1.0]])).all()


def test_jet_product_and_quotient_keep_their_bits():
    # coefficients with signed zeros, whose sums start from 0 as sum() does
    rng = np.random.default_rng(8)
    n = 4000
    a, b = (tuple(np.where(rng.random(n) < 0.6,
                           rng.choice([0.0, -0.0], n),
                           rng.uniform(-3.0, 3.0, n)) for _ in range(5))
            for _ in range(2))
    b = (np.where(b[0] == 0.0, 0.5, b[0]),) + b[1:]
    x, y = (-0.0, 1.5, -0.0, 2.0, 0.0), (2.0, -0.0, 0.5, -1.0, 3.0)
    with np.errstate(all="ignore"):
        for a, b in ((a, b), (x, y), (y, (1.0,) + x[1:])):  # then floats
            for got, want in (((Jet(a) * Jet(b)).c,
                               reference_jet_mul(a, b)),
                              ((Jet(a) / Jet(b)).c,
                               reference_jet_div(a, b))):
                for k in range(5):
                    assert_same_bits(got[k], want[k], k)


#: Largest gap |recurrence - table| / max(1, |jet|) allowed in the
#: derivatives of orders 1..4, where |jet| is the largest derivative of
#: orders 0..4 at the point.  Measured on 8 seeds of the random
#: expressions below (32,000 expressions): at most 3.6e-16, 1.4e-15,
#: 2.0e-14 and 1.7e-11; on every bundled scene the jets are equal.
JET_FUNCTION_GAP = (1e-15, 5e-15, 1e-13, 1e-10)


def assert_jet_matches_reference(tree, s):
    """Value bits equal, derivatives within ``JET_FUNCTION_GAP``; False
    where the reference jet is not finite or overflows (the table of ln
    takes u^4)."""
    got = ex.eval_s(tree, s).derivatives()
    try:
        with np.errstate(all="ignore"):
            want = np.array([np.broadcast_to(x, s.shape) for x in
                             reference_eval_s(tree, s).derivatives()])
    except OverflowError:
        return False
    assert_same_bits(got[0], want[0], ex.to_str(tree))
    if not np.isfinite(want).all():
        return False
    scale = np.fmax(1.0, np.abs(want).max(axis=0))
    for k, bound in enumerate(JET_FUNCTION_GAP, 1):
        gap = np.max(np.abs(got[k] - want[k]) / scale)
        assert gap <= bound, (ex.to_str(tree), k, gap)
    return True


@pytest.mark.parametrize("name", bundled_scene_names())
def test_jet_functions_match_the_reference_on_scene_jets(name):
    scene = bundled_scene(name)
    s = scene_tables(scene).field_tables.s
    for tree in scene.curve.components + (scene.radius.expression,):
        assert assert_jet_matches_reference(tree, s)


def test_jet_functions_match_the_reference_on_random_expressions():
    rng = random.Random(8)
    checked, functions = 0, set()
    for _ in range(4000):
        tree = random_tree(rng, rng.randint(1, 5))
        s = np.array([rng.uniform(-1.5, 1.5) for _ in range(8)])
        try:
            finite = assert_jet_matches_reference(tree, s)
        except ex.DomainError:
            continue
        checked += finite
        functions |= set(re.findall(r"([a-z]+)\(", ex.to_str(tree)))
    assert checked >= 3900 and functions == set(ex.FUNCTIONS)


def test_verify_path_rows_are_component_major():
    # x[..., k] is a contiguous row of every (N, 4) array the oracle makes
    # and of the frames it is built from
    jet = scene_jet("pseudo-null-t1")
    forms, _ = oracle.forms_batch(jet)
    for rows in (jet.d_s, jet.d_ww, forms.normal,
                 triple_cross_rows(jet.d_s, jet.d_t, jet.d_w)):
        assert rows.T.flags.c_contiguous
    assert forms.g.shape == forms.h.shape == (len(forms.eps), 3, 3)
    assert np.moveaxis(forms.g, 0, -1).flags.c_contiguous
    frames = derive_frames(builtin("pseudo-null-example"),
                           np.linspace(0.0, 1.0, 7))
    for rows in (frames.gamma, frames.f1, frames.f2):
        assert rows.shape == (7, 4) and rows.T.flags.c_contiguous


#: The range of |r'| of each canal variant inside its regime m > 0.
CANAL_SLOPES = {"C1": (0.05, 0.8), "C2": (0.05, 0.8), "C3": (0.05, 0.8),
                "C4": (1.05, 2.2), "C5": (0.05, 2.0)}


@pytest.mark.parametrize("cls", [CurveClass.PSEUDO_NULL,
                                 CurveClass.PARTIALLY_NULL])
@pytest.mark.parametrize("variant", [v for v in Variant
                                     if not v.is_null_variant])
def test_closed_forms_match_the_expanded_forms_away_from_the_pole(cls,
                                                                  variant):
    # K and H over the shared denominator D = a G - u against the expanded
    # forms they reduce, at seeded points with r', r'' != 0 on the canal
    # variants, wherever |D| >= 1e-3 of |a G| + |u|.  The expanded canal H
    # also divides by D+ = a G + u, and it is the reference that loses
    # digits near D+ = 0 (1.6e-12 on partially null C1 at |D+| = 1.2e-5 of
    # the scale, where the reduced H equals a 50-digit evaluation), so the
    # canal points keep |D+| >= 1e-3 of the scale too
    rng = np.random.default_rng(list(Variant).index(variant) + 31 * (
        cls is CurveClass.PSEUDO_NULL))
    n = 2000
    k1 = rng.uniform(-3.0, 3.0, n)
    r = rng.uniform(0.2, 2.0, n)
    f = rng.uniform(-2.5, 2.5, n)
    g = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
    if variant.is_tubular:
        r1 = r2 = np.zeros(n)
    else:
        r1 = rng.choice([-1.0, 1.0], n) * rng.uniform(
            *CANAL_SLOPES[variant.value], n)
        r2 = rng.uniform(-1.0, 1.0, n)
    for branch in (1, -1):
        family = CanalFamily(cls, variant, branch)
        T = canal._trig(family, f)
        row = canal._CLOSED_FORMS[variant]
        G = row.pseudo * (2.0 * g) if cls is CurveClass.PSEUDO_NULL \
            else np.full(n, row.partial)
        K, H, singular = canal._closed(family, k1, r, r1, r2, T, g)
        want = [row.sigma * x for x in
                reference_closed(family, k1, r, r1, r2, T, G)]
        m = row.m0 + row.mq * r1 * r1
        a, u = m - r * row.e2 * r2, r * np.sqrt(m) * k1 * T
        scale = 1e-3 * (np.abs(a * G) + np.abs(u))
        far = np.abs(a * G - u) >= scale
        if not variant.is_tubular:
            far &= np.abs(a * G + u) >= scale
        assert far.sum() >= 0.9 * n and not singular[far].any()
        for got, ref in zip((K, H), want):
            gap = np.abs(got - ref) / np.fmax(1.0, np.abs(ref))
            assert np.max(gap[far]) <= 1e-12, (branch, np.max(gap[far]))
